"""Dataset loading, binarization preprocessing, and a synthetic generator
producing cluster-labeled binary data with controllable spurious feature
correlations.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    _finite_data, _integer_labels, _label_codes, _require_integer, _store_float, as_data_matrix
)

# save_dataset formats and writes this many cells at a time, so the text of
# one block, not of the whole matrix, is held in memory.
WRITE_BLOCK_CELLS = 8192

__all__ = [
    "BiasSpec",
    "ColumnBinning",
    "LabeledDataset",
    "binarize",
    "generate_biased",
    "load_csv",
    "save_dataset",
]


@dataclass
class LabeledDataset:
    """A data matrix plus optional ground-truth labels and provenance."""

    X: np.ndarray
    labels: np.ndarray | None = None
    feature_names: list[str] | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = as_data_matrix(self.X)
        if self.labels is not None:
            self.labels = _integer_labels(self.labels)
            if self.labels.shape != (self.X.shape[0],):
                raise ValueError("labels must have one entry per sample")
            if self.labels.size and self.labels.min() < 0:
                raise ValueError("labels must be non-negative")
        if self.feature_names is not None and len(self.feature_names) != self.X.shape[1]:
            raise ValueError("feature_names must have one entry per column")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# The characters of the text that load_csv hands to np.loadtxt. On text made
# of these alone, loadtxt and csv.reader with float read the same cells to
# the same bits, or loadtxt raises.
_PLAIN_CHARS = b"0123456789.eE+-,\r\n"
# A line as a file opened with newline="" yields it to csv.reader: up to and
# including a \n, a \r\n or a lone \r. Unlike io.StringIO, iterating these
# matches holds no copy of the text.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def load_csv(path, label_column=None) -> LabeledDataset:
    """Parse a numeric CSV into a dataset.

    A header row is auto-detected (any non-numeric cell in the first row).
    ``label_column`` selects the ground-truth column by header name (a str)
    or by integer position (a bool or a float raises ValueError); label
    cells may be non-numeric and are mapped to integer codes 0..C-1 in
    sorted order of the distinct values. A label name that appears more
    than once in the header is rejected, since either column could be meant.

    Feature cells are stripped of surrounding whitespace and converted by
    ``float``. Every failure raises ``ValueError`` naming the file and a
    line: a malformed CSV (such as a field over the ``csv`` module's size
    limit), a ragged row, or else the first feature cell in row-major order
    that is not a finite number. The line is the file line on which the
    failing record starts, counting blank lines and the lines of multi-line
    quoted cells.

    The file is read once. When its first line holds no quote and the data
    lines hold only digits, ``.eE+-``, commas and line ends, none of them
    longer than ``csv.field_size_limit()``, ``np.loadtxt`` parses them, to
    the bits that ``float`` gives. Any other file, and any such file that
    loadtxt rejects, that has a row of another width than the first, or
    that has a non-finite feature, is read with ``csv.reader``, which alone
    raises the errors.
    """
    if label_column is not None and not isinstance(label_column, str):
        _require_integer("label_column", label_column)
    path = Path(path)
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        text = fh.read()
    header, feature_cols, X, labels = (
        _plain_table(path, text, label_column) or _csv_table(path, text, label_column)
    )
    names = None
    if header is not None:
        names = [header[j] for j in feature_cols]
    return LabeledDataset(
        X=X,
        labels=labels,
        feature_names=names,
        provenance={"source": str(path), "label_column": label_column},
    )


def _plain_table(path, text: str, label_column):
    """``(header, feature_cols, X, labels)`` as :func:`_csv_table` gives
    them, parsed by ``np.loadtxt``; None when ``text`` is not plain numeric
    (see :func:`load_csv`) or the parse fails, so that the caller reads it
    with ``csv.reader``."""
    first, _, rest = text.partition("\n")
    first = first.removesuffix("\r")
    if not first or '"' in first or "\r" in first:
        return None
    cells = first.split(",")  # csv.reader's split of a line with no quote
    has_header = not all(_is_number(cell) for cell in cells)
    body = rest if has_header else text
    if not body.isascii() or body.encode("ascii").translate(None, _PLAIN_CHARS):
        return None
    lines = body.splitlines()  # at \n, \r\n and a lone \r, as csv.reader does
    limit = csv.field_size_limit()
    if len(first) > limit or max(map(len, lines), default=0) > limit or not any(lines):
        return None
    header = [cell.strip() for cell in cells] if has_header else None
    try:  # the label column is resolved last, as _csv_table resolves it
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        if table.shape[1] != len(cells):
            return None
        label_idx = _label_index(path, header, len(cells), label_column)
    except ValueError:
        return None
    del lines  # before X is copied out of the table
    feature_cols = [j for j in range(len(cells)) if j != label_idx]
    X = table if label_idx is None else table.take(feature_cols, axis=1)
    if not np.isfinite(X).all():
        return None
    labels = None if label_idx is None else _label_codes(table[:, label_idx])
    return header, feature_cols, X, labels


def _csv_table(path, text: str, label_column):
    """``(header, feature_cols, X, labels)`` of the CSV ``text`` of
    ``path``, parsed by ``csv.reader``: the header's stripped cells or None,
    the columns of X, the n x d float64 feature matrix, and the label codes
    or None. Raises every error that :func:`load_csv` describes."""
    reader = csv.reader(_lines(text))
    rows, starts, start = [], [], 1  # starts: the file line of each record
    try:
        for row in reader:
            if row:
                rows.append(row)
                starts.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}: malformed CSV at line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")

    width = len(rows[0])
    for row, line in zip(rows, starts):
        if len(row) != width:
            raise ValueError(f"{path}: ragged row at line {line} "
                             f"({len(row)} cells, expected {width})")

    has_header = not all(_is_number(cell) for cell in rows[0])
    header = [cell.strip() for cell in rows[0]] if has_header else None
    first = int(has_header)  # the first data record
    body = rows[first:]
    if not body:
        raise ValueError(f"{path}: no data rows")

    label_idx = _label_index(path, header, width, label_column)
    feature_cols = [j for j in range(width) if j != label_idx]
    X = np.empty((len(body), len(feature_cols)))
    for row, line, out in zip(body, starts[first:], X):
        for k, j in enumerate(feature_cols):
            cell = row[j].strip()
            try:
                value = float(cell)
            except ValueError:
                value = None
            if value is None or not math.isfinite(value):
                kind = "non-numeric" if value is None else "non-finite"
                raise ValueError(f"{path}: {kind} cell {cell!r} at line {line}, column {j}")
            out[k] = value

    labels = None
    if label_idx is not None:
        raw = [row[label_idx].strip() for row in body]
        if all(_is_number(cell) for cell in raw):
            raw = [float(cell) for cell in raw]
        labels = _label_codes(np.asarray(raw))
    return header, feature_cols, X, labels


def _lines(text: str):
    """The lines of ``text`` as csv.reader would read them from the file."""
    return map(re.Match.group, _LINE.finditer(text))


def _label_index(path, header, width: int, label_column):
    """The position of ``label_column`` (a header name or an index) in rows
    of ``width`` cells, or None when it is None; raises ValueError when the
    header does not name it exactly once or the index is out of range."""
    if label_column is None:
        return None
    if isinstance(label_column, str):
        if header is None:
            raise ValueError(f"{path}: label column {label_column!r} needs a header row")
        count = header.count(label_column)
        if count == 0:
            raise ValueError(f"{path}: missing label column {label_column!r}")
        if count > 1:
            raise ValueError(f"{path}: label column {label_column!r} appears {count} times in the header")
        return header.index(label_column)
    label_idx = int(label_column)
    if not 0 <= label_idx < width:
        raise ValueError(f"{path}: label column index {label_idx} out of range")
    return label_idx


def save_dataset(dataset: LabeledDataset, path) -> None:
    """Write a dataset as CSV (header row, optional trailing label column).

    Floats are written as ``repr`` gives them (shortest round-trip form) and
    lines end with LF, so ``load_csv`` reproduces the matrix and labels
    exactly. The header goes through ``csv.writer``, which quotes names that
    need it; the number cells never do. A dataset with labels and a feature
    named ``label`` raises ``ValueError`` before the file is opened, because
    ``load_csv(path, label_column="label")`` could not tell the two apart.
    """
    path = Path(path)
    X, labels = dataset.X, dataset.labels
    n, d = X.shape
    names = dataset.feature_names or [f"f{j}" for j in range(d)]
    if labels is not None and any(str(name).strip() == "label" for name in names):
        raise ValueError("a feature named 'label' would clash with the label column")
    header = list(names) + (["label"] if labels is not None else [])
    block = max(1, WRITE_BLOCK_CELLS // max(d, 1))
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, n, block):
            rows = float_texts(X[start : start + block]).tolist()
            if labels is not None:
                for row, label in zip(rows, labels[start : start + block].tolist()):
                    row.append(str(label))
            fh.write("".join(",".join(row) + "\n" for row in rows))


def float_texts(values) -> np.ndarray:
    """``repr`` of each float in ``values``, as an object array of the same
    shape. ``repr`` runs once per distinct bit pattern, so ``-0.0`` keeps
    its own text; this is the one float-to-text rule of the CSV and weight
    files. The distinct patterns come from one sort and each value's index
    among them from a binary search, which is cheaper than ``np.unique``'s
    argsort for the few distinct values of a data block."""
    values = np.asarray(values, dtype=np.float64)
    bits = values.view(np.int64).ravel()
    ordered = np.sort(bits)
    keys = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    texts = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
    return texts[np.searchsorted(keys, bits)].reshape(values.shape)


@dataclass
class ColumnBinning:
    """How one input column was encoded: passed through or one-hot binned."""

    column: int
    kind: str  # "binary" or "binned"
    edges: np.ndarray | None
    n_output: int


def binarize(X, bins: int = 2):
    """One-hot encode continuous columns into equal-frequency bins.

    Non-constant columns that are already 0/1-valued pass through unchanged.
    Columns with fewer distinct values than requested bins fall back to one
    bin per distinct value (with a warning), so constant columns, all-zero
    and all-ones ones included, collapse to a single all-ones indicator. Ties can leave an equal-frequency bin empty; such bins
    are dropped with their edges, so every indicator of a non-constant column
    has a row, there are at least two, and ``searchsorted(edges, column)``
    gives each row's bin. Returns ``(binary_matrix, per-column metadata)``.
    Raises ValueError unless ``bins`` is an integer of at least 2 (as
    :class:`BiasSpec` counts are) and every entry of X is finite.
    """
    X = as_data_matrix(X)
    _require_integer("bins", bins)
    if bins < 2:
        raise ValueError("bins must be >= 2")
    _finite_data(X)
    blocks: list[np.ndarray] = []
    meta: list[ColumnBinning] = []
    for j in range(X.shape[1]):
        col = X[:, j]
        distinct = np.unique(col)
        # A constant column, all-zero included, is not passed through.
        if distinct.size != 1 and np.all((col == 0.0) | (col == 1.0)):
            blocks.append(col[:, None])
            meta.append(ColumnBinning(column=j, kind="binary", edges=None, n_output=1))
            continue
        if distinct.size < bins:
            warnings.warn(
                f"column {j}: only {distinct.size} distinct values for {bins} bins",
                stacklevel=2,
            )
            edges = (distinct[:-1] + distinct[1:]) / 2.0
        else:
            edges = np.quantile(col, np.arange(1, bins) / bins)
            # A row goes to the first edge at or above it, so an edge at the
            # maximum would empty the top bin: move it to the midpoint below
            # the maximum. Then drop each empty bin with its upper edge.
            top = (distinct[-2] + distinct[-1]) / 2.0
            edges = np.unique(np.where(edges >= distinct[-1], top, edges))
            filled = np.bincount(np.searchsorted(edges, col, side="left"),
                                 minlength=edges.size + 1)
            edges = edges[filled[:-1] > 0]
        idx = np.searchsorted(edges, col, side="left")
        n_out = edges.size + 1
        block = np.zeros((col.size, n_out))
        block[np.arange(col.size), idx] = 1.0
        blocks.append(block)
        meta.append(ColumnBinning(column=j, kind="binned", edges=edges, n_output=n_out))
    return np.hstack(blocks), meta


@dataclass(frozen=True)
class BiasSpec:
    """Parameters of the synthetic biased-cluster generator.

    Each cluster owns ``core_per_cluster`` indicator features; every bias
    feature is linked to one cluster (round-robin) and fires with probability
    ``bias_strength`` on that cluster's samples and ``1 - bias_strength``
    elsewhere, so strength 0.5 means no association. Independent bit flips
    with probability ``noise_flip`` are applied last.
    """

    n: int = 500
    d: int = 24
    n_clusters: int = 3
    core_per_cluster: int = 1
    bias_features: int = 5
    bias_strength: float = 0.9
    noise_flip: float = 0.005
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "d", "n_clusters", "core_per_cluster", "bias_features", "seed"):
            _require_integer(name, getattr(self, name))
        for name in ("bias_strength", "noise_flip"):
            _store_float(self, name)
        if self.n < 2 or self.n_clusters < 1 or self.core_per_cluster < 1:
            raise ValueError("n, n_clusters and core_per_cluster must be positive (n >= 2)")
        if self.bias_features < 0:
            raise ValueError("bias_features must be non-negative")
        if self.n_clusters * self.core_per_cluster + self.bias_features > self.d:
            raise ValueError("n_clusters*core_per_cluster + bias_features must be <= d")
        if not 0.5 <= self.bias_strength < 1.0:
            raise ValueError("bias_strength must lie in [0.5, 1)")
        if not 0.0 <= self.noise_flip < 0.5:
            raise ValueError("noise_flip must lie in [0, 0.5)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def generate_biased(spec: BiasSpec) -> LabeledDataset:
    """Draw a labeled binary dataset from the given bias specification.

    Deterministic for a fixed spec: the same seed yields identical bytes.
    """
    rng = np.random.default_rng(spec.seed)
    labels = rng.integers(0, spec.n_clusters, size=spec.n)
    X = np.zeros((spec.n, spec.d))
    names: list[str] = []

    for k in range(spec.n_clusters):
        start = k * spec.core_per_cluster
        cols = range(start, start + spec.core_per_cluster)
        X[np.ix_(labels == k, list(cols))] = 1.0
        names.extend(f"core{k}_{j - start}" for j in cols)

    base = spec.n_clusters * spec.core_per_cluster
    for f in range(spec.bias_features):
        linked = f % spec.n_clusters
        p = np.where(labels == linked, spec.bias_strength, 1.0 - spec.bias_strength)
        X[:, base + f] = (rng.random(spec.n) < p).astype(np.float64)
        names.append(f"bias{linked}_{f}")

    names.extend(f"pad{j}" for j in range(base + spec.bias_features, spec.d))

    if spec.noise_flip > 0.0:
        flips = rng.random((spec.n, spec.d)) < spec.noise_flip
        X = np.abs(X - flips.astype(np.float64))

    return LabeledDataset(
        X=X,
        labels=labels,
        feature_names=names,
        provenance={"generator": "biased-clusters-v1", **asdict(spec)},
    )
