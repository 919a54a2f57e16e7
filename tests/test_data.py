import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import dckm.data
from dckm.data import (
    BiasSpec,
    LabeledDataset,
    binarize,
    float_texts,
    generate_biased,
    load_csv,
    save_dataset,
)
from dckm.core import validate_data
from dckm.metrics import correlation_amount
from util import float_texts_oracle, save_dataset_oracle, wide_matrix


class TestLoadCsv:
    def test_plain_numeric_no_header(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1,0\n0,1\n1,1\n", encoding="utf-8")
        ds = load_csv(p)
        assert ds.X.shape == (3, 2)
        assert ds.labels is None
        assert ds.feature_names is None

    def test_header_and_label_column(self, tmp_path):
        p = tmp_path / "labeled.csv"
        p.write_text("f1,f2,label\n1,0,0\n0,1,1\n1,1,1\n", encoding="utf-8")
        ds = load_csv(p, label_column="label")
        assert ds.X.shape == (3, 2)
        assert ds.feature_names == ["f1", "f2"]
        assert np.array_equal(ds.labels, [0, 1, 1])

    def test_label_column_by_index(self, tmp_path):
        p = tmp_path / "by_index.csv"
        p.write_text("5,1,0\n7,0,1\n", encoding="utf-8")
        ds = load_csv(p, label_column=0)
        assert ds.X.shape == (2, 2)
        assert np.array_equal(ds.labels, [0, 1])  # 5, 7 coded in sorted order

    def test_string_labels_coded(self, tmp_path):
        p = tmp_path / "strings.csv"
        p.write_text("a,b,label\n1,0,cat\n0,1,dog\n1,1,cat\n", encoding="utf-8")
        ds = load_csv(p, label_column="label")
        assert np.array_equal(ds.labels, [0, 1, 0])

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,0\n0,1,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(p)

    def test_non_numeric_cell_rejected(self, tmp_path):
        p = tmp_path / "bad_cell.csv"
        p.write_text("f1,f2\n1,oops\n0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="oops"):
            load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        p = tmp_path / "non_finite.csv"
        p.write_text(f"f1,f2,label\n1,0,0\n0,{cell},1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"non-finite cell '{cell}' at line 3, column 1"):
            load_csv(p, label_column="label")

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "missing.csv"
        p.write_text("f1,f2\n1,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing label column"):
            load_csv(p, label_column="label")

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"1,0\r\n0,1\r\n")
        assert load_csv(p).X.shape == (2, 2)

    @pytest.mark.parametrize("label_column", [1.5, 1.0, True, False, [1]])
    def test_label_column_must_be_name_or_integer(self, tmp_path, label_column):
        # int() would read 1.5, 1.0 and True as column 1 and False as column 0.
        p = tmp_path / "by_index.csv"
        p.write_text("5,1,0\n7,0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="label_column must be an integer, got"):
            load_csv(p, label_column=label_column)

    def test_numpy_integer_label_column_accepted(self, tmp_path):
        p = tmp_path / "by_index.csv"
        p.write_text("5,1,0\n7,0,1\n", encoding="utf-8")
        ds = load_csv(p, label_column=np.int64(0))
        assert np.array_equal(ds.labels, [0, 1]) and ds.X.shape == (2, 2)


class TestLoadCsvCells:
    """How single cells and odd files read; each case reads the same as
    with the per-cell parser."""

    def read(self, tmp_path, text, **kwargs):
        p = tmp_path / "cells.csv"
        p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        return load_csv(p, **kwargs)

    def test_label_column_only(self, tmp_path):
        ds = self.read(tmp_path, "label\n1\n0\n1\n", label_column="label")
        assert ds.X.shape == (3, 0)
        assert ds.feature_names == []
        assert np.array_equal(ds.labels, [1, 0, 1])

    @pytest.mark.parametrize("label_column", [None, "label"])
    def test_one_feature_column(self, tmp_path, label_column):
        ds = self.read(tmp_path, "f1,label\n1.5,0\n0,1\n2,1\n", label_column=label_column)
        expected = [[1.5], [0.0], [2.0]] if label_column else [[1.5, 0.0], [0.0, 1.0], [2.0, 1.0]]
        assert np.array_equal(ds.X, expected)

    def test_one_feature_column_no_header(self, tmp_path):
        assert np.array_equal(self.read(tmp_path, "1\n0\n-0.5\n").X, [[1.0], [0.0], [-0.5]])

    def test_whitespace_around_cells(self, tmp_path):
        ds = self.read(tmp_path, "f1 , f2,label\n 1 ,\t0.25\t, 1\n0\u00a0,  1e-3,0\n",
                       label_column="label")
        assert ds.feature_names == ["f1", "f2"]
        assert np.array_equal(ds.X, [[1.0, 0.25], [0.0, 1e-3]])
        assert np.array_equal(ds.labels, [1, 0])

    def test_separator_controls_stripped_as_whitespace(self, tmp_path):
        # str.strip removes U+001C..U+001F, which float() alone rejects.
        ds = self.read(tmp_path, "f1,f2\n1\x1c,\x1f0\n0,1\n")
        assert np.array_equal(ds.X, [[1.0, 0.0], [0.0, 1.0]])

    def test_quoted_numeric_cell(self, tmp_path):
        ds = self.read(tmp_path, 'f1,f2\n"1",0\n0,"2.5"\n')
        assert np.array_equal(ds.X, [[1.0, 0.0], [0.0, 2.5]])

    def test_underscore_digits_read_as_python_float(self, tmp_path):
        assert np.array_equal(self.read(tmp_path, "f1,f2\n1_0,0\n0,1\n").X, [[10.0, 0.0], [0.0, 1.0]])

    def test_crlf_with_byte_order_mark(self, tmp_path):
        ds = self.read(tmp_path, b"\xef\xbb\xbff1,f2\r\n1,0\r\n0,1\r\n")
        assert ds.feature_names == ["f1", "f2"]
        assert np.array_equal(ds.X, [[1.0, 0.0], [0.0, 1.0]])

    def test_ragged_row_reported_before_bad_cell(self, tmp_path):
        with pytest.raises(ValueError, match="ragged row at line 3"):
            self.read(tmp_path, "f1,f2\n1,oops\n0,1,1\n")

    @pytest.mark.parametrize("text, message", [
        ("f1,f2\n1,0\nnan,oops\n", "non-finite cell 'nan' at line 3, column 0"),
        ("f1,f2\n1,x\ninf,0\n", "non-numeric cell 'x' at line 2, column 1"),
        ("1,0\n0,-inf\ny,1\n", "non-finite cell '-inf' at line 2, column 1"),
    ])
    def test_first_bad_cell_in_row_major_order(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=message):
            self.read(tmp_path, text)

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,0\n\n1,x\n", "non-numeric cell 'x' at line 4, column 1"),
        ("a,b\n1,0\n\n1\n", r"ragged row at line 4 \(1 cells"),
        ('a,b\n"1\n",0\n1,x\n', "non-numeric cell 'x' at line 4, column 1"),
        ('\n"a\nb",c\n\n1,0\n\n"2\n\n",x\n', "non-numeric cell 'x' at line 7, column 1"),
    ])
    def test_error_names_the_file_line(self, tmp_path, text, message):
        # Blank lines and multi-line quoted cells count: the message names
        # the file line on which the failing record starts.
        with pytest.raises(ValueError, match=message):
            self.read(tmp_path, text)

    def test_bad_cell_in_label_column_position_named(self, tmp_path):
        with pytest.raises(ValueError, match="non-numeric cell 'z' at line 3, column 2"):
            self.read(tmp_path, "label,f1,f2\n0,1,0\n1,0,z\n", label_column="label")

    def test_oversized_field_is_value_error(self, tmp_path):
        text = "f1,f2\n0,1\n1," + "0" * 200_000 + "\n0,1\n"
        with pytest.raises(ValueError, match=r"cells\.csv: malformed CSV at line 3: .*field limit"):
            self.read(tmp_path, text)

    def test_duplicate_label_column_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="label column 'label' appears 2 times"):
            self.read(tmp_path, "a,label,label\n1,0,0\n0,1,1\n", label_column="label")


class TestLabeledDataset:
    @pytest.mark.parametrize("labels", [[0.5, 1.7, 2.2], [0.0, 1.0, np.nan]])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            LabeledDataset(np.eye(3), labels=labels)

    def test_integral_float_labels_accepted(self):
        labels = LabeledDataset(np.eye(3), labels=[0.0, 1.0, 2.0]).labels
        assert labels.dtype == np.int64 and labels.tolist() == [0, 1, 2]


class TestSaveRoundTrip:
    def test_round_trip_with_labels(self, tmp_path):
        ds = generate_biased(BiasSpec(n=40, d=12, n_clusters=3, core_per_cluster=2,
                                      bias_features=5, seed=3))
        p = tmp_path / "ds.csv"
        save_dataset(ds, p)
        back = load_csv(p, label_column="label")
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names

    def test_round_trip_without_labels(self, tmp_path):
        ds = LabeledDataset(X=np.array([[1.0, 0.0], [0.0, 1.0]]))
        p = tmp_path / "plain.csv"
        save_dataset(ds, p)
        back = load_csv(p)
        assert np.array_equal(back.X, ds.X)
        assert back.labels is None

    def test_unwritable_path(self, tmp_path):
        ds = LabeledDataset(X=np.eye(2))
        with pytest.raises(OSError):
            save_dataset(ds, tmp_path / "no_such_dir" / "out.csv")

    def test_lf_line_endings(self, tmp_path):
        ds = LabeledDataset(X=np.eye(2))
        p = tmp_path / "lf.csv"
        save_dataset(ds, p)
        assert b"\r" not in p.read_bytes()


# Finite floats, with the values whose text is easy to get wrong.
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1e16, 0.1]),
    st.integers(-(2**53), 2**53).map(float),
)
NAMES = st.text(alphabet='ab,"\' x', min_size=1, max_size=4)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    strided = draw(st.booleans())
    X = draw(arrays(np.float64, (n, 2 * d if strided else d), elements=CELLS))
    if strided:
        X = X[:, ::2]
    labels = draw(st.none() | arrays(np.int64, n, elements=st.integers(0, 10**6)))
    names = draw(st.none() | st.lists(NAMES, min_size=d, max_size=d))
    return LabeledDataset(X=X, labels=labels, feature_names=names)


# Any float64 bit pattern (NaN payloads, subnormals, both zeros, +-inf), with
# the special values drawn often.
FLOAT_BITS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0])
    .map(lambda v: int(np.float64(v).view(np.int64))),
)


class TestFloatTexts:
    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(FLOAT_BITS, max_size=60), width=st.integers(1, 5))
    def test_equals_the_unique_form(self, bits, width):
        values = np.array(bits, dtype=np.int64).view(np.float64)
        for shaped in (values, values[: values.size // width * width].reshape(-1, width)):
            texts = float_texts(shaped)
            assert texts.shape == shaped.shape
            assert texts.tolist() == float_texts_oracle(shaped).tolist()

    def test_empty_and_wide_data(self):
        for values in (np.zeros(0), np.zeros((0, 3)), wide_matrix(1), wide_matrix(1)[:, ::3]):
            assert float_texts(values).tolist() == float_texts_oracle(values).tolist()


class TestSaveBytes:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ds=datasets())
    def test_bytes_equal_per_cell_writer_and_values_read_back(self, tmp_path, ds):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_dataset(ds, new)
        save_dataset_oracle(ds, old)
        assert new.read_bytes() == old.read_bytes()
        back = load_csv(new, label_column=None if ds.labels is None else "label")
        assert np.array_equal(back.X.view(np.int64), np.ascontiguousarray(ds.X).view(np.int64))

    def test_rows_span_several_write_blocks(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(3 * dckm.data.WRITE_BLOCK_CELLS // 7 + 5, 7)).round(2)
        X[::3, 1] = -0.0
        ds = LabeledDataset(X=X, labels=rng.integers(0, 3, X.shape[0]))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_dataset(ds, new)
        save_dataset_oracle(ds, old)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("name", ["label", " label "])
    def test_feature_named_label_rejected_with_labels(self, tmp_path, name):
        p = tmp_path / "clash.csv"
        ds = LabeledDataset(X=np.eye(3)[:, :2], labels=[0, 1, 2], feature_names=["a", name])
        with pytest.raises(ValueError, match="feature named 'label'"):
            save_dataset(ds, p)
        assert not p.exists()

    def test_feature_named_label_allowed_without_labels(self, tmp_path):
        p = tmp_path / "plain.csv"
        save_dataset(LabeledDataset(X=np.eye(2), feature_names=["a", "label"]), p)
        assert p.read_text(encoding="utf-8") == "a,label\n1.0,0.0\n0.0,1.0\n"


class TestBinarize:
    def test_binary_column_passthrough(self):
        X = np.array([[1.0], [0.0], [1.0]])
        out, meta = binarize(X, bins=2)
        assert np.array_equal(out, X)
        assert meta[0].kind == "binary"
        assert meta[0].n_output == 1

    def test_median_split(self):
        out, meta = binarize(np.array([[1.0], [2.0], [3.0], [4.0]]), bins=2)
        assert np.array_equal(out, [[1, 0], [1, 0], [0, 1], [0, 1]])
        assert meta[0].kind == "binned"
        assert meta[0].edges.shape == (1,)

    def test_constant_column_single_bin_warns(self):
        with pytest.warns(UserWarning, match="distinct"):
            out, meta = binarize(np.array([[2.5], [2.5], [2.5]]), bins=2)
        assert np.array_equal(out, [[1], [1], [1]])
        assert meta[0].n_output == 1

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_constant_zero_or_one_column_single_bin(self, value):
        # As the constant 2.5 column above: one all-ones indicator, not a
        # pass-through (an all-zero indicator for the all-zero column).
        with pytest.warns(UserWarning, match="distinct"):
            out, meta = binarize(np.full((3, 1), value), bins=2)
        assert np.array_equal(out, [[1], [1], [1]])
        assert meta[0].kind == "binned" and meta[0].n_output == 1
        assert np.array_equal(np.searchsorted(meta[0].edges, np.full(3, value)), [0, 0, 0])

    def test_fewer_distinct_than_bins(self):
        with pytest.warns(UserWarning):
            out, meta = binarize(np.array([[0.0], [5.0], [5.0], [0.0]]), bins=4)
        assert meta[0].n_output == 2
        assert np.array_equal(out, [[1, 0], [0, 1], [0, 1], [1, 0]])

    def test_one_hot_groups_sum_to_one_and_binary(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.normal(size=40), rng.integers(0, 2, 40).astype(float)])
        out, meta = binarize(X, bins=3)
        assert validate_data(out).ok
        start = 0
        for info in meta:
            block = out[:, start : start + info.n_output]
            if info.kind == "binned":
                assert np.array_equal(block.sum(axis=1), np.ones(40))
            start += info.n_output
        assert start == out.shape[1]

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            binarize(np.eye(3), bins=1)

    @pytest.mark.parametrize("bins", [2.5, 3.0, True, "3"])
    def test_non_integer_bins_rejected(self, bins):
        # bins=2.5 used to make 3 bins at the 40% and 80% quantiles.
        with pytest.raises(ValueError, match="bins must be an integer, got"):
            binarize(np.arange(10.0)[:, None], bins=bins)

    def test_numpy_integer_bins_accepted(self):
        out, meta = binarize(np.arange(10.0)[:, None], bins=np.int64(3))
        assert out.shape == (10, 3) and meta[0].n_output == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # A NaN used to put every row of its column into bin 0 and emit an
        # all-zero indicator. The first non-finite entry in row-major order
        # is named, as validate_data names it.
        X = np.column_stack([np.arange(6.0), np.arange(6.0)])
        X[4, 0] = X[2, 1] = X[5, 1] = bad
        with pytest.raises(ValueError, match=r"^non-finite entry at \(2, 1\)$"):
            binarize(X)
        assert "non-finite entry at (2, 1)" in validate_data(X).errors

    def test_edge_at_the_maximum_moves_below_it(self):
        # The median of [0, 5, 5, 5] is the maximum; an edge there puts every
        # row in the lower bin, so 0 and 5 would get the same code.
        out, meta = binarize(np.array([[0.0], [5.0], [5.0], [5.0]]), bins=2)
        assert np.array_equal(out, [[1, 0], [0, 1], [0, 1], [0, 1]])
        assert np.array_equal(meta[0].edges, [2.5])

    def test_empty_middle_bin_is_dropped(self):
        col = np.array([2.0, 3.0, 4.0, 4.0, 4.0, 5.0, 5.0])  # quartile edges 3.5, 4, 4.5
        out, meta = binarize(col[:, None], bins=4)
        assert np.array_equal(out.argmax(axis=1), [0, 0, 1, 1, 1, 2, 2])
        assert out.shape[1] == meta[0].n_output == 3
        assert np.array_equal(meta[0].edges, [3.5, 4.0])

    def test_tied_columns_keep_every_indicator(self):
        """Seeded columns with heavy ties: a non-constant column gets at least
        two indicators, none of them all-zero, and its edges reproduce them."""
        rng = np.random.default_rng(0)
        for _ in range(2000):
            col = rng.choice([2.0, 3.0, 4.0, 5.0], size=int(rng.integers(3, 12)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # fewer distinct values than bins
                out, meta = binarize(col[:, None], bins=int(rng.integers(2, 5)))
            if np.unique(col).size > 1:
                assert out.shape[1] >= 2 and np.all(out.sum(axis=0) > 0)
                idx = np.searchsorted(meta[0].edges, col, side="left")
                assert np.array_equal(out, np.eye(out.shape[1])[idx])


class TestBiasSpec:
    def test_defaults_valid(self):
        spec = BiasSpec()
        assert spec.n_clusters * spec.core_per_cluster + spec.bias_features <= spec.d

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bias_strength": 1.2},
            {"bias_strength": 0.4},
            {"noise_flip": 0.5},
            {"noise_flip": -0.1},
            {"d": 5, "n_clusters": 3, "core_per_cluster": 2, "bias_features": 0},
            {"seed": -2},
            {"n": 40.5},
            {"seed": 1.5},
            {"d": 24.0},
            {"bias_strength": "0.9"},
            {"bias_strength": True},
            {"noise_flip": None},
            {"noise_flip": 0.1 + 0j},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BiasSpec(**kwargs)

    def test_real_fields_stored_as_python_floats(self):
        spec = BiasSpec(bias_strength=np.float32(0.75), noise_flip=0)
        assert type(spec.bias_strength) is float and spec.bias_strength == 0.75
        assert type(spec.noise_flip) is float and spec.noise_flip == 0.0


class TestGenerateBiased:
    def test_deterministic(self):
        spec = BiasSpec(n=100, d=16, n_clusters=3, core_per_cluster=2, bias_features=8, seed=9)
        a = generate_biased(spec)
        b = generate_biased(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.labels, b.labels)

    def test_output_is_valid_binary(self):
        ds = generate_biased(BiasSpec(n=50, d=12, n_clusters=3, core_per_cluster=2,
                                      bias_features=5, seed=0))
        assert set(np.unique(ds.X)) <= {0.0, 1.0}
        assert ds.labels.shape == (50,)
        assert ds.labels.min() >= 0 and ds.labels.max() < 3
        assert ds.provenance["generator"] == "biased-clusters-v1"

    def test_no_bias_at_half_strength(self):
        spec = BiasSpec(n=2000, d=10, n_clusters=2, core_per_cluster=2, bias_features=4,
                        bias_strength=0.5, noise_flip=0.0, seed=1)
        ds = generate_biased(spec)
        core = ds.X[:, 0]
        bias = ds.X[:, 4]  # linked to cluster 0
        corr = np.corrcoef(core, bias)[0, 1]
        assert abs(corr) < 0.1

    def test_strong_bias_cooccurrence_rate(self):
        spec = BiasSpec(n=2000, d=10, n_clusters=2, core_per_cluster=2, bias_features=4,
                        bias_strength=0.9, noise_flip=0.0, seed=2)
        ds = generate_biased(spec)
        linked = ds.labels == 0
        rate = ds.X[linked, 4].mean()
        assert 0.85 <= rate <= 0.95

    def test_bias_raises_correlation_amount(self):
        diffs = []
        for seed in range(10):
            strong = generate_biased(BiasSpec(n=300, d=12, n_clusters=3, core_per_cluster=2,
                                              bias_features=6, bias_strength=0.9, seed=seed))
            flat = generate_biased(BiasSpec(n=300, d=12, n_clusters=3, core_per_cluster=2,
                                            bias_features=6, bias_strength=0.5, seed=seed))
            diffs.append(correlation_amount(strong.X) - correlation_amount(flat.X))
        assert float(np.mean(diffs)) > 0.0
