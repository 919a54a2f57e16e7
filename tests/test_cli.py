from dataclasses import fields

import numpy as np
import pytest

from dckm.cli import METHODS, main
from dckm.core import HyperParams


@pytest.fixture
def small_data(tmp_path):
    path = tmp_path / "data.csv"
    code = main(
        [
            "gen", "--n", "80", "--d", "12", "--k", "3", "--core-per-cluster", "2",
            "--bias-features", "5", "--bias", "0.9", "--noise", "0.02",
            "--seed", "3", "--out", str(path),
        ]
    )
    assert code == 0
    return path


def with_cell(path, tmp_path, cell):
    """A copy of the CSV at ``path`` whose first cell on line 6 is ``cell``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[5] = cell + lines[5][lines[5].index(","):]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad


def fit_args(data, method, out=None, **extra):
    args = [
        "fit", "--data", str(data), "--labels", "label", "--method", method,
        "--k", "3", "--restarts", "2", "--seed", "5", "--max-outer", "12",
    ]
    if out is not None:
        args += ["--out", str(out)]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestGen:
    def test_writes_dataset(self, small_data):
        text = small_data.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert len(lines) == 81  # header + 80 rows
        assert lines[0].endswith(",label")

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["gen", "--n", "30", "--d", "10", "--k", "2", "--core-per-cluster", "2",
                 "--bias-features", "4", "--seed", "9"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_bias_is_usage_error(self, tmp_path):
        code = main(["gen", "--bias", "1.2", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_every_flag_reaches_the_spec(self, tmp_path, capsys):
        # flag -> (provenance key, a value other than the default)
        flags = {
            "--n": ("n", "40"), "--d": ("d", "15"), "--k": ("n_clusters", "4"),
            "--core-per-cluster": ("core_per_cluster", "2"), "--bias-features": ("bias_features", "6"),
            "--bias": ("bias_strength", "0.75"), "--noise": ("noise_flip", "0.125"),
            "--seed": ("seed", "17"),
        }
        argv = ["gen", "--out", str(tmp_path / "x.csv")]
        for flag, (_, value) in flags.items():
            argv += [flag, value]
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        for key, value in flags.values():
            assert f"{key}={value}" in printed


class TestFit:
    @pytest.mark.parametrize("method", ["dckm", "kmeans", "deckm", "pcakm", "dropkm"])
    def test_every_method_runs(self, small_data, tmp_path, method, capsys):
        out = tmp_path / f"{method}.txt"
        code = main(fit_args(small_data, method, out=out))
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "dckm-result v1"
        assert f"method={method}" in text
        assert "mean_nmi=" in text
        assert "restart_nmi=" in text
        assert "correlation_unweighted=" in text
        printed = capsys.readouterr().out
        assert "wall_time_s=" in printed
        assert "wall_time" not in text  # timing never lands in the file

    def test_result_file_deterministic(self, small_data, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(fit_args(small_data, "dckm", out=a)) == 0
        assert main(fit_args(small_data, "dckm", out=b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dropkm_reports_kept_features(self, small_data, tmp_path):
        out = tmp_path / "drop.txt"
        assert main(fit_args(small_data, "dropkm", out=out, threshold="0.7")) == 0
        text = out.read_text(encoding="utf-8")
        assert "kept_feature_count=" in text
        line = next(l for l in text.splitlines() if l.startswith("drop_threshold="))
        assert float(line.split("=")[1]) == 0.7

    def test_weights_out(self, small_data, tmp_path):
        wpath = tmp_path / "w.txt"
        assert main(fit_args(small_data, "dckm", weights_out=wpath)) == 0
        weights = np.array([float(line) for line in wpath.read_text().splitlines()])
        assert weights.shape == (80,)
        assert np.all(weights >= 0)

    def test_weights_out_rejected_for_kmeans(self, small_data, tmp_path):
        code = main(fit_args(small_data, "kmeans", weights_out=tmp_path / "w.txt"))
        assert code == 1

    def test_unwritable_weights_out_is_data_error(self, small_data, tmp_path, capsys):
        code = main(fit_args(small_data, "deckm", weights_out=tmp_path / "missing" / "w.txt"))
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(fit_args(tmp_path / "nope.csv", "kmeans"))
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [["--k", "0"], ["--k", "3", "--weights-out", "w.txt"]]
    )
    def test_flags_are_checked_before_data(self, tmp_path, flags):
        argv = ["fit", "--data", str(tmp_path / "missing.csv"), "--method", "kmeans"]
        assert main(argv + flags) == 1

    def test_every_hyperparameter_flag_reaches_the_result_file(self, small_data, tmp_path):
        # flag -> (result-file key, a value other than the default)
        flags = {
            "--k": ("k", "2"), "--l1": ("lambda1", "0.5"), "--l2": ("lambda2", "2.5"),
            "--l3": ("lambda3", "0.25"), "--max-outer": ("max_outer_iters", "7"),
            "--max-w-iters": ("max_w_iters", "3"), "--tol": ("outer_tol", "0.001"),
            "--restarts": ("restarts", "2"), "--seed": ("seed", "9"),
        }
        keys = {"n_clusters" if key == "k" else key for key, _ in flags.values()}
        assert keys == {f.name for f in fields(HyperParams)}
        out = tmp_path / "r.txt"
        argv = ["fit", "--data", str(small_data), "--labels", "label", "--method", "dckm",
                "--out", str(out)]
        for flag, (_, value) in flags.items():
            argv += [flag, value]
        assert main(argv) == 0
        written = out.read_text(encoding="utf-8").splitlines()
        for key, value in flags.values():
            assert f"{key}={value}" in written

    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_cell_is_data_error(self, small_data, tmp_path, method, capsys):
        assert main(fit_args(with_cell(small_data, tmp_path, "nan"), method)) == 2
        assert "non-finite cell 'nan' at line 6, column 0" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["dckm", "deckm"])
    def test_non_binary_cell_is_data_error(self, small_data, tmp_path, method, capsys):
        assert main(fit_args(with_cell(small_data, tmp_path, "2"), method)) == 2
        assert "invalid data matrix: entry (4, 0) non-binary" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, small_data):
        code = main(
            ["fit", "--data", str(small_data), "--method", "magic", "--k", "3"]
        )
        assert code == 1

    def test_invalid_k_is_usage_error(self, small_data):
        code = main(["fit", "--data", str(small_data), "--labels", "label",
                     "--method", "kmeans", "--k", "0"])
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value", [("l1", "nan"), ("l2", "inf"), ("l3", "nan"), ("tol", "nan")]
    )
    def test_non_finite_flags_are_usage_errors(self, small_data, flag, value, capsys):
        assert main(fit_args(small_data, "dckm", **{flag: value})) == 1
        assert "invalid flags" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, flags",
        [
            ("dropkm", {"threshold": "0"}),
            ("dropkm", {"threshold": "1.5"}),
            ("pcakm", {"pca_dims": "0"}),
            ("pcakm", {"k": "1"}),
        ],
    )
    def test_invalid_method_flags_are_usage_errors(self, small_data, method, flags, capsys):
        assert main(fit_args(small_data, method, **flags)) == 1
        assert "invalid flags" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--step", "--shrink"])
    def test_removed_line_search_flags_are_usage_errors(self, small_data, flag):
        assert main(fit_args(small_data, "dckm") + [flag, "0.2"]) == 1

    @pytest.mark.parametrize("l3", ["0", "0.1"])
    def test_step_onto_zero_weights_still_fits(self, tmp_path, l3, capsys):
        # Every row has the same residual at k=1, so the weight gradient is
        # parallel to omega and the first trial step lands on omega = 0.
        X = np.vstack([np.eye(4)] * 3)
        p = tmp_path / "eye.csv"
        rows = [",".join(f"{v:g}" for v in row) + f",{i % 4}" for i, row in enumerate(X)]
        p.write_text("a,b,c,d,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main(["fit", "--method", "dckm", "--data", str(p), "--labels", "label",
                     "--k", "1", "--restarts", "1", "--l3", l3])
        assert code == 0
        assert "best_objective=" in capsys.readouterr().out

    def test_unlabeled_data_still_fits(self, tmp_path, capsys):
        p = tmp_path / "plain.csv"
        p.write_text("1,0\n0,1\n1,1\n0,0\n", encoding="utf-8")
        code = main(["fit", "--data", str(p), "--method", "kmeans", "--k", "2",
                     "--restarts", "2", "--seed", "1"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "mean_nmi" not in printed
        assert "best_objective=" in printed


class TestCorr:
    def test_unweighted_only(self, small_data, capsys):
        assert main(["corr", "--data", str(small_data), "--labels", "label"]) == 0
        out = capsys.readouterr().out
        assert "correlation_unweighted=" in out
        assert "correlation_weighted" not in out

    def test_learned_weights_reduce_correlation(self, small_data, tmp_path, capsys):
        wpath = tmp_path / "w.txt"
        assert main(fit_args(small_data, "dckm", weights_out=wpath,
                             l1="1", l2="1000", max_outer="30")) == 0
        capsys.readouterr()
        assert main(["corr", "--data", str(small_data), "--labels", "label",
                     "--weights", str(wpath)]) == 0
        out = capsys.readouterr().out
        ratio = float(out.split("reduction_ratio=")[1].split()[0])
        assert ratio < 1.0

    @pytest.mark.parametrize("value", ["-1.0", "0.0", "nan", "inf"])
    def test_invalid_weights_are_data_error(self, small_data, tmp_path, value, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_text(f"{value}\n" * 80, encoding="utf-8")
        code = main(["corr", "--data", str(small_data), "--labels", "label",
                     "--weights", str(wpath)])
        assert code == 2
        assert "invalid weights" in capsys.readouterr().err

    def test_weight_length_mismatch(self, small_data, tmp_path):
        wpath = tmp_path / "short.txt"
        wpath.write_text("0.5\n0.5\n", encoding="utf-8")
        code = main(["corr", "--data", str(small_data), "--labels", "label",
                     "--weights", str(wpath)])
        assert code == 2


class TestBench:
    def test_two_methods_one_dataset(self, small_data, tmp_path, capsys):
        out = tmp_path / "bench.txt"
        code = main([
            "bench", "--data", str(small_data), "--methods", "kmeans,dckm",
            "--k", "3", "--grid", "1,100", "--restarts", "2", "--seed", "4",
            "--max-outer", "10", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "dckm-bench v1"
        assert text.count("[cell] ") == 1 + 4  # kmeans once, dckm on a 2x2 grid
        assert "[row] " in text
        assert "nmi_improvement_pct=" in text

    def test_bench_deterministic(self, small_data, tmp_path):
        args = ["bench", "--data", str(small_data), "--methods", "kmeans,deckm",
                "--k", "3", "--grid", "1", "--restarts", "2", "--seed", "4",
                "--max-outer", "10"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_methods_is_usage_error(self, small_data):
        assert main(["bench", "--data", str(small_data), "--methods", " ",
                     "--k", "3"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--grid", "1,abc"],
            ["--grid=-1"],
            ["--k", "0"],
            ["--restarts", "0"],
            ["--max-outer", "0"],
            ["--grid", "nan"],
            ["--methods", "dropkm", "--threshold", "0"],
            ["--methods", "kmeans,pcakm", "--k", "1"],
        ],
    )
    def test_invalid_flags_are_usage_errors(self, small_data, flags, capsys):
        args = ["bench", "--data", str(small_data), "--methods", "kmeans,dckm", "--k", "3"]
        assert main(args + flags) == 1
        assert "invalid flags" in capsys.readouterr().err

    @pytest.mark.parametrize("second", ["missing", "unlabeled"])
    def test_every_dataset_loads_before_the_first_fit(self, small_data, tmp_path, second,
                                                      monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before every dataset loaded")

        monkeypatch.setattr("dckm.cli.run_method", no_fit)
        bad = tmp_path / f"{second}.csv"
        if second == "unlabeled":
            bad.write_text("1,0\n0,1\n", encoding="utf-8")
        code = main(["bench", "--data", str(small_data), "--data", str(bad), "--labels",
                     "label", "--methods", "kmeans,dckm", "--k", "3", "--grid", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("dckm bench: ")

    def test_unlabeled_dataset_is_data_error(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1,0\n0,1\n", encoding="utf-8")
        assert main(["bench", "--data", str(p), "--methods", "kmeans",
                     "--k", "2", "--labels", "label"]) == 2


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_env_seed_default(self, small_data, tmp_path, monkeypatch):
        monkeypatch.setenv("DCKM_SEED", "5")
        out_env = tmp_path / "env.txt"
        args = ["fit", "--data", str(small_data), "--labels", "label", "--method",
                "kmeans", "--k", "3", "--restarts", "2", "--max-outer", "12"]
        assert main(args + ["--out", str(out_env)]) == 0
        monkeypatch.delenv("DCKM_SEED")
        out_flag = tmp_path / "flag.txt"
        assert main(args + ["--seed", "5", "--out", str(out_flag)]) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["gen", "--out", "x.csv"],
        ["fit", "--data", "x.csv", "--method", "kmeans", "--k", "3"],
        ["bench", "--data", "x.csv", "--methods", "kmeans", "--k", "3"],
    ])
    def test_non_integer_env_seed_is_usage_error(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("DCKM_SEED", "abc")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"dckm {argv[0]}: invalid flags: DCKM_SEED must be an integer\n"


# One failing command per command and exit code; {data} is a labeled CSV,
# {same} a CSV of identical rows (no k=3 clustering) and {tmp} a directory.
FAILURES = [
    (1, ["gen", "--bias", "1.2", "--out", "{tmp}/x.csv"]),
    (2, ["gen", "--out", "{tmp}/missing/x.csv"]),
    (1, ["fit", "--data", "{data}", "--method", "kmeans", "--k", "0"]),
    (2, ["fit", "--data", "{tmp}/missing.csv", "--method", "kmeans", "--k", "3"]),
    (3, ["fit", "--data", "{same}", "--method", "kmeans", "--k", "3", "--restarts", "1"]),
    (1, ["bench", "--data", "{data}", "--methods", "kmeans,magic", "--k", "3"]),
    (2, ["bench", "--data", "{same}", "--methods", "kmeans", "--k", "3"]),
    (2, ["corr", "--data", "{data}", "--labels", "label", "--weights", "{tmp}/missing.txt"]),
]


@pytest.mark.parametrize("code, argv", FAILURES)
def test_failure_prints_one_line(small_data, tmp_path, code, argv, capsys):
    same = tmp_path / "same.csv"
    same.write_text("1,0\n" * 4, encoding="utf-8")
    argv = [a.format(data=small_data, same=same, tmp=tmp_path) for a in argv]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    assert err.startswith(f"dckm {argv[0]}: ")
