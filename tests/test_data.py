import numpy as np
import pytest

from dckm.data import (
    BiasSpec,
    LabeledDataset,
    binarize,
    generate_biased,
    load_csv,
    save_dataset,
)
from dckm.core import validate_data
from dckm.metrics import correlation_amount


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
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BiasSpec(**kwargs)


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
