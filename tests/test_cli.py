import hashlib
import itertools
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dckm import cli
from dckm.cli import METHODS, main
from dckm.core import HyperParams
from dckm.decorrelation import GROUP_MASS_EPS


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

    # sha256 of the CSV written by the per-cell writer, which save_dataset
    # must reproduce byte for byte.
    @pytest.mark.parametrize("flags, digest", [
        (["--n", "500", "--d", "24", "--k", "3", "--core-per-cluster", "1", "--bias-features", "5",
          "--bias", "0.9", "--noise", "0.005", "--seed", "5"],
         "21a091a6374301952e109c3986b9af3f9c73333821b23c3f46d5fcb0db3b3158"),
        (["--n", "2000", "--d", "100", "--k", "5", "--core-per-cluster", "4", "--bias-features", "60",
          "--bias", "0.8", "--noise", "0.05", "--seed", "7"],
         "c640d6c96eea8428a244ed4761b73535d75f45d7e772d79a20ff5afa36f9f98a"),
    ], ids=["c07-family-seed5", "c10-shape-seed7"])
    def test_output_bytes_pinned(self, tmp_path, flags, digest):
        out = tmp_path / "gen.csv"
        assert main(["gen", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
            "--tol": ("outer_tol", "0.001"),
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


    @pytest.mark.parametrize("text", ["0.5\n0.5\n", "nan\n" * 80, "inf\n" * 80,
                                      "-1.0\n" * 80, "0.0\n" * 80, "one\n" * 80],
                             ids=["short", "nan", "inf", "negative", "zero", "not a number"])
    def test_bad_weights_leave_stdout_empty(self, small_data, tmp_path, text, capsys):
        wpath = tmp_path / "w.txt"
        wpath.write_text(text, encoding="utf-8")
        code = main(["corr", "--data", str(small_data), "--labels", "label",
                     "--weights", str(wpath)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("dckm corr: ")


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

    @pytest.mark.parametrize("text, message", [
        ("f1,f2\n1,0\n0,1\n", "missing label column 'label'"),
        ("1,0\n0,1\n", "label column 'label' needs a header row"),
    ])
    def test_data_without_labels_is_data_error(self, tmp_path, capsys, text, message):
        # --labels defaults to the column named label; bench needs labels.
        data = tmp_path / "unlabeled.csv"
        data.write_text(text, encoding="utf-8")
        assert main(["bench", "--data", str(data), "--methods", "kmeans", "--k", "2"]) == 2
        assert capsys.readouterr().err == f"dckm bench: {data}: {message}\n"

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

    def test_repeated_method_is_usage_error(self, tmp_path, capsys):
        # Checked before any data is read: the data file does not exist.
        assert main(["bench", "--data", str(tmp_path / "missing.csv"),
                     "--methods", "kmeans,kmeans,dckm", "--k", "3"]) == 1
        assert capsys.readouterr().err == "dckm bench: method 'kmeans' given more than once\n"

    @pytest.mark.parametrize("flags, message", [
        (["--data", "{missing}"], "--data {missing} given more than once"),
        (["--grid", "1,100,1.0"], "grid value 1 given more than once"),
    ])
    def test_repeated_dataset_or_grid_value_is_usage_error(self, tmp_path, capsys, flags,
                                                           message):
        # Checked before any data is read: the data file does not exist.
        missing = str(tmp_path / "missing.csv")
        args = ["bench", "--data", missing, "--methods", "kmeans,dckm", "--k", "3"]
        assert main(args + [f.format(missing=missing) for f in flags]) == 1
        assert capsys.readouterr().err == f"dckm bench: {message.format(missing=missing)}\n"

    def test_failed_cells_are_reported_and_the_sweep_goes_on(self, tmp_path, capsys):
        # Two distinct rows cannot fill three clusters: every cell on the
        # first dataset fails, and the second dataset is still benchmarked.
        two = tmp_path / "two.csv"
        two.write_text("a,b,label\n" + "1,0,0\n" * 3 + "0,1,1\n" * 3, encoding="utf-8")
        three = tmp_path / "three.csv"
        three.write_text("a,b,label\n" + "1,0,0\n1,1,1\n0,1,2\n" * 2, encoding="utf-8")
        code = main(["bench", "--data", str(two), "--data", str(three),
                     "--methods", "kmeans,dckm", "--k", "3", "--grid", "1",
                     "--restarts", "2", "--max-outer", "5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        error = "error=empty cluster(s) [2] could not be re-seeded"
        assert [line for line in lines if f"dataset={two} " in line] == [
            f"[cell] dataset={two} method=kmeans lambda1=- lambda2=- {error}",
            f"[cell] dataset={two} method=dckm lambda1=1 lambda2=1 {error}",
        ]
        rest = [line for line in lines if f"dataset={three} " in line]
        assert [line.split()[0] for line in rest] == ["[cell]", "[cell]", "[row]"]
        assert not any("error=" in line for line in rest)

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


CSV_READERS = {
    "corr": ["corr", "--data", "{data}", "--labels", "label"],
    "fit": ["fit", "--data", "{data}", "--labels", "label", "--method", "kmeans", "--k", "2"],
    "bench": ["bench", "--data", "{data}", "--labels", "label", "--methods", "kmeans", "--k", "2"],
}


@pytest.mark.parametrize("command", CSV_READERS)
def test_oversized_csv_field_is_data_error(tmp_path, command, capsys):
    big = tmp_path / "big.csv"
    big.write_text("f1,label\n1," + "0" * 200_000 + "\n0,1\n", encoding="utf-8")
    assert main([a.format(data=big) for a in CSV_READERS[command]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"dckm {command}: {big}: malformed CSV at line 2: ")
    assert "field larger than field limit" in err


@pytest.mark.parametrize("command", CSV_READERS)
def test_duplicate_label_column_is_data_error(tmp_path, command, capsys):
    dup = tmp_path / "dup.csv"
    dup.write_text("a,label,label\n1,0,0\n0,1,1\n1,1,2\n0,0,1\n", encoding="utf-8")
    assert main([a.format(data=dup) for a in CSV_READERS[command]]) == 2
    assert capsys.readouterr().err == (
        f"dckm {command}: {dup}: label column 'label' appears 2 times in the header\n"
    )


# sha256 of result files at fixed flags, on C07-family data written by
# dckm gen. They pin every written byte, so a refactor of the CLI cannot
# move one; a change that adds result keys updates them on purpose.
FIT_DIGESTS = {
    "dckm": "1fea3f8c704dad80bade7bebc41820cc19f885b203c8f2562fcdc6b5bb5338a3",
    "kmeans": "fa7f1403ea08efc8469a087ab59dd78d79513d15a0d0c78649b0aa25a14f743f",
    "deckm": "7edd3336ebd3477b056618e1b39c41bcdcb4b95196629522c107b7d2381a1d4f",
    "pcakm": "97e3741e3781855322d04e999d22fbc17cf0521cf1b91d5f70a4f6d4f3c41556",
    "dropkm": "1105ab5ff679b82f1455a69feff01246ea6287c2bcb6dcd524c1637a5daab72e",
}
WEIGHTS_DIGESTS = {
    "dckm": "4df3060df421af4a36c4eb6b76711bb75a00120ba0377a24addce361f548d874",
    "deckm": "6f8df4bf394479a3f7630f301a9e9c3ed34cbecb379dd98c0cf6e54184159830",
}
BENCH_DIGEST = "e5af6dba590625cf2aa9b3796f53242d5144468aff43d8f728e635b0fbc2826f"


@pytest.fixture
def c07_files(tmp_path, monkeypatch):
    """The biased (0.9) and unbiased (0.5) C07-family datasets at seed 5,
    under relative names in the working directory: result files name their
    data, so their bytes must not depend on tmp_path."""
    monkeypatch.chdir(tmp_path)
    names = []
    for name, bias in (("biased.csv", "0.9"), ("unbiased.csv", "0.5")):
        assert main(["gen", "--n", "500", "--d", "24", "--k", "3", "--core-per-cluster", "1",
                     "--bias-features", "5", "--bias", bias, "--noise", "0.005",
                     "--seed", "5", "--out", name]) == 0
        names.append(name)
    return names


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestOutputBytes:
    @pytest.mark.parametrize("method", METHODS)
    def test_fit_files_pinned(self, c07_files, method):
        extra = {"weights_out": "w.txt"} if method in WEIGHTS_DIGESTS else {}
        assert main(fit_args(c07_files[0], method, out="result.txt", **extra)) == 0
        assert sha256("result.txt") == FIT_DIGESTS[method]
        if extra:
            assert sha256("w.txt") == WEIGHTS_DIGESTS[method]

    def test_bench_file_pinned(self, c07_files):
        args = ["bench", "--methods", "kmeans,dropkm,pcakm,deckm,dckm", "--k", "3",
                "--grid", "0.01,1000", "--restarts", "2", "--seed", "100", "--max-outer", "10",
                "--out", "bench.txt"]
        for name in c07_files:
            args += ["--data", name]
        assert main(args) == 0
        assert sha256("bench.txt") == BENCH_DIGEST


def test_bench_ties_go_to_the_first_cell(small_data, tmp_path, monkeypatch):
    # Every cell ties on NMI, and each later ARI call scores higher, so
    # only the first-cell rule reports the first dckm cell's ARI.
    counter = itertools.count()
    monkeypatch.setattr("dckm.cli.nmi", lambda truth, labels: 0.5)
    monkeypatch.setattr("dckm.cli.ari", lambda truth, labels: float(next(counter)))
    out = tmp_path / "bench.txt"
    assert main(["bench", "--data", str(small_data), "--methods", "kmeans,dckm", "--k", "3",
                 "--grid", "1,100", "--restarts", "2", "--seed", "4", "--max-outer", "5",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()

    def fields(line):
        return dict(f.split("=", 1) for f in line.split()[1:])

    cells = [fields(l) for l in lines if l.startswith("[cell]") and "method=dckm" in l]
    (row,) = [fields(l) for l in lines if l.startswith("[row]")]
    assert len(cells) == 4 and len({c["mean_ari"] for c in cells}) == 4
    assert row["dckm_ari"] == cells[0]["mean_ari"]


class TestWarnings:
    def test_rank_deficient_pcakm_warns_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = ["f0,f1,f2,f3,label"]
        rows += [f"{int(i >= 5)},1,1,1,{int(i >= 5)}" for i in range(10)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["fit", "--data", str(path), "--labels", "label", "--method", "pcakm",
                     "--k", "2", "--restarts", "1", "--pca-dims", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "dckm fit: warning: rank-deficient data: using 1 of 3 requested components\n"
        )
        assert "pca_dims=1\n" in captured.out

    def test_full_rank_pcakm_prints_nothing_to_stderr(self, small_data, capsys):
        assert main(fit_args(small_data, "pcakm")) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "pca_dims=2\n" in captured.out


def test_bench_computes_the_unweighted_correlation_once_per_dataset(small_data, tmp_path,
                                                                      monkeypatch):
    """Every record of a dataset carries the same ``correlation_amount(X)``;
    it is computed for the first record and reused."""
    unweighted = []
    original = cli.correlation_amount

    def counting(X, w=None):
        if w is None:
            unweighted.append(X)
        return original(X, w)

    monkeypatch.setattr(cli, "correlation_amount", counting)
    second = tmp_path / "second.csv"
    second.write_bytes(small_data.read_bytes())
    out = tmp_path / "bench.txt"
    assert main(["bench", "--data", str(small_data), "--data", str(second),
                 "--methods", "kmeans,dropkm,dckm", "--k", "3", "--grid", "1,100",
                 "--restarts", "1", "--seed", "4", "--max-outer", "3", "--out", str(out)]) == 0
    assert len(unweighted) == 2
    assert len(out.read_text(encoding="utf-8").splitlines()) == 6 + 2 * 6 + 2


# `dckm fit --method dckm --k 1 --restarts 1 --l3 0.1 --data eye.csv --labels
# label --out dckm.txt` on the collapse data below, as written before the
# collapse warning existed.
COLLAPSE_DIGEST = "c997086efd5205427025fa39701d961dfab6f0556d7958cdb1918ca1bb1a0f1b"


class TestCollapsedWeights:
    """At k=1 every row of ``vstack([eye(4)] * 3)`` has the same residual, the
    balance loss does not see the weights' scale, and so the joint objective
    falls by shrinking the weights towards zero: dckm returns weights summing
    to 5.9e-67, and every feature's balance term is skipped."""

    FLAGS = ["fit", "--data", "eye.csv", "--labels", "label", "--k", "1", "--restarts", "1",
             "--l3", "0.1"]

    @pytest.fixture(autouse=True)
    def eye_csv(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        X = np.vstack([np.eye(4)] * 3)
        rows = [",".join(f"{v:g}" for v in row) + f",{i % 4}" for i, row in enumerate(X)]
        Path("eye.csv").write_text("a,b,c,d,label\n" + "\n".join(rows) + "\n", encoding="utf-8")

    def test_dckm_warns_and_exits_zero(self, capsys):
        assert main(self.FLAGS + ["--method", "dckm", "--out", "dckm.txt",
                                  "--weights-out", "w.txt"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["dckm fit: warning: dckm weights collapsed: sum(w) = 5.93e-67 <= 1e-12, "
                       "so the balance term skipped every feature"]
        assert sha256("dckm.txt") == COLLAPSE_DIGEST
        assert "skipped_features=4" in Path("dckm.txt").read_text(encoding="utf-8")
        assert np.loadtxt("w.txt").sum() <= GROUP_MASS_EPS

    def test_deckm_keeps_its_weights_and_does_not_warn(self, capsys):
        assert main(self.FLAGS + ["--method", "deckm", "--weights-out", "w.txt"]) == 0
        assert capsys.readouterr().err == ""
        assert np.loadtxt("w.txt").sum() == pytest.approx(0.545, abs=1e-3)

    def test_run_method_warns(self):
        X = np.vstack([np.eye(4)] * 3)
        hp = HyperParams(n_clusters=1, lambda3=0.1)
        with pytest.warns(UserWarning, match="dckm weights collapsed"):
            record = cli.run_method(X, None, "dckm", hp)
        assert float(record.weights.sum()) <= GROUP_MASS_EPS


def test_python_m_dckm_cli_runs_main(tmp_path, capsys):
    """``python -m dckm.cli`` runs :func:`main` as the ``dckm`` script does;
    it used to exit 0 without doing anything. A bad flag exits with the
    usage code that ``main`` returns for it, and ``gen`` writes its file."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "dckm.cli", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True)

    bad = python_m("gen", "--bogus")
    assert bad.returncode == main(["gen", "--bogus"]) == cli.EXIT_USAGE
    assert bad.stderr == capsys.readouterr().err
    assert bad.stderr.startswith("usage: dckm gen") and bad.stdout == ""
    out = tmp_path / "gen.csv"
    good = python_m("gen", "--n", "20", "--d", "4", "--k", "2", "--core-per-cluster", "1",
                    "--bias-features", "1", "--seed", "1", "--out", str(out))
    assert good.returncode == cli.EXIT_OK, good.stderr
    assert f"out={out}" in good.stdout.splitlines() and out.exists()
