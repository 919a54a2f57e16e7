"""load_csv's plain-numeric gate: a text that np.loadtxt parses reads as the
csv.reader path reads it, to the same bits, labels, names and errors, and a
``dckm gen`` file of the C10 shape takes the gate."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dckm.data
from dckm.cli import main
from dckm.data import BiasSpec, generate_biased, load_csv

# The texts and label columns of TestLoadCsv and TestLoadCsvCells in
# test_data.py, and whether each takes the gate.
CASES = [
    ("1,0\n0,1\n1,1\n", None, True),
    ("f1,f2,label\n1,0,0\n0,1,1\n1,1,1\n", "label", True),
    ("5,1,0\n7,0,1\n", 0, True),
    ("a,b,label\n1,0,cat\n0,1,dog\n1,1,cat\n", "label", False),
    ("1,0\n0,1,1\n", None, False),
    ("f1,f2\n1,oops\n0,1\n", None, False),
    *[(f"f1,f2,label\n1,0,0\n0,{cell},1\n", "label", False) for cell in ["nan", "inf", "-inf", "NaN"]],
    ("f1,f2\n1,0\n", "label", False),
    (b"1,0\r\n0,1\r\n", None, True),
    ("label\n1\n0\n1\n", "label", True),
    ("f1,label\n1.5,0\n0,1\n2,1\n", None, True),
    ("f1,label\n1.5,0\n0,1\n2,1\n", "label", True),
    ("1\n0\n-0.5\n", None, True),
    ("f1 , f2,label\n 1 ,\t0.25\t, 1\n0\u00a0,  1e-3,0\n", "label", False),
    ("f1,f2\n1\x1c,\x1f0\n0,1\n", None, False),
    ('f1,f2\n"1",0\n0,"2.5"\n', None, False),
    ("f1,f2\n1_0,0\n0,1\n", None, False),
    (b"\xef\xbb\xbff1,f2\r\n1,0\r\n0,1\r\n", None, True),
    ("f1,f2\n1,oops\n0,1,1\n", None, False),
    ("f1,f2\n1,0\nnan,oops\n", None, False),
    ("f1,f2\n1,x\ninf,0\n", None, False),
    ("1,0\n0,-inf\ny,1\n", None, False),
    ("a,b\n1,0\n\n1,x\n", None, False),
    ("a,b\n1,0\n\n1\n", None, False),
    ('a,b\n"1\n",0\n1,x\n', None, False),
    ('\n"a\nb",c\n\n1,0\n\n"2\n\n",x\n', None, False),
    ("label,f1,f2\n0,1,0\n1,0,z\n", "label", False),
    ("f1,f2\n0,1\n1," + "0" * 200_000 + "\n0,1\n", None, False),
    ("a,label,label\n1,0,0\n0,1,1\n", "label", False),
]
# Texts at the edges of the gate.
EDGES = [
    ("a,b\n1,0,1\n0,1,1\n", None, False),  # every row wider than the header
    ('"a",b\n1,0\n', None, False),
    ('"1",0\n1,0\n', None, False),
    ("a\rb,c\n1,0\n", None, False),
    ("\na,b\n1,0\n", None, False),
    ("1e999,0\n0,1\n", None, False),
    ("a,label\n0,1e999\n1,-0\n0,0\n", "label", True),
    ("a,b\r1,0\n", None, False),  # the first line ends at its first \n
    ("a,b\r\n1,0\r\r\n0,1e-400\r", None, True),
    ("a,b\n", None, False),
    ("a,b\n\n,\n", None, False),
]

# The C10 shape of the benchmark's wide-c10 workload, as dckm gen flags.
C10_FLAGS = {"--n": 2000, "--d": 100, "--k": 5, "--core-per-cluster": 4,
             "--bias-features": 60, "--bias": 0.8, "--noise": 0.05}
C10_SPEC = BiasSpec(n=2000, d=100, n_clusters=5, core_per_cluster=4, bias_features=60,
                    bias_strength=0.8, noise_flip=0.05, seed=7)


def outcome(path, label_column):
    """Everything load_csv returns, as comparable values, or its error."""
    try:
        ds = load_csv(path, label_column=label_column)
    except ValueError as exc:
        return str(exc)
    labels = None if ds.labels is None else (ds.labels.dtype.str, ds.labels.tobytes())
    X = (ds.X.dtype.str, ds.X.shape, ds.X.flags.c_contiguous, ds.X.tobytes())
    return X, labels, ds.feature_names, ds.provenance


def read_both_ways(path, label_column, monkeypatch):
    """``(gated, csv_only, took_gate)``: the outcome of load_csv, the outcome
    with the gate shut, and whether the first read took the gate."""
    plain = dckm.data._plain_table
    taken = []

    def spy(*args):
        table = plain(*args)
        taken.append(table is not None)
        return table

    with monkeypatch.context() as patch:
        patch.setattr(dckm.data, "_plain_table", spy)
        gated = outcome(path, label_column)
    with monkeypatch.context() as patch:
        patch.setattr(dckm.data, "_plain_table", lambda *args: None)
        csv_only = outcome(path, label_column)
    return gated, csv_only, taken == [True]


def write(path, text):
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return path


@pytest.mark.parametrize("text, label_column, gate", CASES + EDGES)
def test_cases_read_as_the_csv_path(tmp_path, monkeypatch, text, label_column, gate):
    path = write(tmp_path / "cells.csv", text)
    gated, csv_only, took_gate = read_both_ways(path, label_column, monkeypatch)
    assert gated == csv_only
    assert took_gate == gate


ODD_CELLS = st.sampled_from(["", "-", "+", ".", "e", "1e", "e5", "1e999", "-1e999", "1e-400",
                             "-0", "+.5", "5.", "1E+05", "--1", "1..2", "0e0", "1e+-5"])
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
CELLS = st.one_of(NUMBERS, ODD_CELLS, st.text(alphabet="0123456789.eE+-", max_size=8))


@st.composite
def plain_texts(draw):
    """Texts over the gate's alphabet, with an optional header, blank lines,
    CRLF and lone CR line ends, odd and empty cells and ragged rows; and a
    label column."""
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join([f"f{j}" for j in range(width - 1)] + ["label"]))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        else:
            cells = max(1, width + draw(st.sampled_from([0] * 10 + [-1, 1])))
            # Most rows hold numbers only, so that many texts take the gate.
            pool = draw(st.sampled_from([NUMBERS, NUMBERS, NUMBERS, CELLS]))
            lines.append(",".join(draw(st.lists(pool, min_size=cells, max_size=cells))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")
    return text, draw(st.sampled_from([None, "label", 0, width - 1]))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=plain_texts())
def test_alphabet_texts_read_as_the_csv_path(tmp_path, monkeypatch, case):
    text, label_column = case
    path = write(tmp_path / "plain.csv", text)
    gated, csv_only, _ = read_both_ways(path, label_column, monkeypatch)
    assert gated == csv_only


@given(text=st.text(alphabet='a,"\r\n\x0b\x1c\x85\u2028', max_size=30))
def test_lines_split_as_a_file_opened_with_newline_empty(text):
    assert list(dckm.data._lines(text)) == list(io.StringIO(text, newline=""))


@pytest.fixture(scope="module")
def c10_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("gen") / "c10.csv"
    flags = [str(v) for pair in C10_FLAGS.items() for v in pair]
    assert main(["gen", *flags, "--seed", str(C10_SPEC.seed), "--out", str(path)]) == 0
    return path


def test_gen_file_takes_the_gate(c10_file, monkeypatch):
    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader was called")

    monkeypatch.setattr(csv, "reader", no_reader)
    ds = load_csv(c10_file, label_column="label")
    expected = generate_biased(C10_SPEC)
    assert ds.X.flags.c_contiguous
    assert np.array_equal(ds.X, expected.X)
    assert np.array_equal(ds.labels, expected.labels)
    assert ds.feature_names == expected.feature_names


def test_gen_file_read_peak_memory(c10_file):
    # The csv.reader path held every cell as a Python string: about 14 MB
    # here, against a 1.6 MB matrix.
    load_csv(c10_file, label_column="label")  # imports and caches warm
    tracemalloc.start()
    try:
        ds = load_csv(c10_file, label_column="label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * ds.X.nbytes


def test_spaced_gen_file_reads_as_the_plain_file(c10_file, tmp_path, monkeypatch):
    # ", " separators keep the C10 file off the gate, so the csv.reader path
    # reads it: to the plain file's X bytes, labels and names.
    path = write(tmp_path / "spaced.csv", c10_file.read_text().replace(",", ", "))
    gated, csv_only, took_gate = read_both_ways(path, "label", monkeypatch)
    assert not took_gate and gated == csv_only
    assert gated[:3] == outcome(c10_file, "label")[:3]


def test_spaced_gen_file_error_names_the_file_line(c10_file, tmp_path):
    # A two-line quoted header cell puts each record one line below its
    # place among the records; the last row starts on file line n + 2.
    header, *rows = c10_file.read_text().replace(",", ", ").splitlines()
    header = '"core0\n_0"' + header.removeprefix("core0_0")
    cells = rows[-1].split(", ")
    cells[1] = "oops"
    rows[-1] = ", ".join(cells)
    path = write(tmp_path / "bad.csv", "\n".join([header, *rows]) + "\n")
    line = len(rows) + 2
    with pytest.raises(ValueError, match=f"non-numeric cell 'oops' at line {line}, column 1$"):
        load_csv(path, label_column="label")
