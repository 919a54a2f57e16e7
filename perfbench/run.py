"""dckm benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-c07 --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` lists them with
the metrics. A run

1. times the workload's set-up ``SETUP_REPEATS`` times, each in a fresh
   interpreter (``setup_child.py``), and reports the median as ``setup_s``;
2. sets up in this process, then repeats the workload's pass until the next
   one would end after ``--seconds`` (at least ``MIN_PASSES`` passes);
3. checks every pass: each fit's objective history is non-increasing, labels
   are in range, weights are finite and non-negative, and every pass gives
   the same labels and objectives (for ``cli-bench``, byte-identical table
   files) as the first;
4. prints the environment, then as the last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, from passes without
spans. With ``--trace 1`` untraced and traced passes alternate; the metrics
are per-layer ones from the traced passes (set-up plus the median pass), and
``trace.overhead_s`` is the traced median pass time minus the untraced one.
Spans are kept in memory and written to ``.perfbench_out/`` at the end.

The exit code is 0 when every check passed, 1 when a check failed and 2 when
the checkout holds no ``src/dckm`` to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))

# BLAS threads are pinned before numpy loads, so a run never uses more
# threads than the cores it may run on and both commits of a comparison use
# the same count.
BLAS_THREADS = NPROC
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 5
MIN_PASSES = 3  # untraced passes; a traced run also makes MIN_PASSES traced ones
CHILD_TIMEOUT_S = 120

def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": NPROC,
        "machine": platform.machine(),
    }


def timed_setups(name: str, seed: int, problems: list[str]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_child.py")), name, str(seed), str(OUT)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if child.returncode != 0:
            problems.append(f"set-up child exited {child.returncode}: {child.stderr.strip()[-500:]}")
            continue
        report = json.loads(child.stdout.strip().splitlines()[-1])
        problems.extend(report["problems"])
        times.append(report["setup_s"])
    return times


def declared_units(trace: bool) -> dict:
    """Metric names and units as BENCHMARK.json lists them, in its order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(args) -> tuple[dict, dict]:
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    problems: list[str] = []
    setup_times = [] if args.trace else timed_setups(workload.name, args.seed, problems)

    setup_probe = tracer.Probe(spans=True) if args.trace else None
    if setup_probe:
        setup_probe.install()
    try:
        inputs = workload.setup(args.seed, OUT, problems)
    finally:
        if setup_probe:
            setup_probe.remove()

    passes = []  # (kind, seconds, PassResult, probe)
    started = time.perf_counter()
    while True:
        kind = "traced" if args.trace and len(passes) % 2 == 1 else "untraced"
        probe = tracer.Probe(spans=kind == "traced")
        gc.collect()
        with probe:
            t0 = time.perf_counter()
            result = workload.run_pass(inputs, OUT)
            seconds = time.perf_counter() - t0
        passes.append((kind, seconds, result, probe))
        tag = f"pass {len(passes) - 1} ({kind})"
        problems.extend(f"{tag}: {p}" for p in dict.fromkeys(probe.problems))
        if not (math.isfinite(result.nmi) and math.isfinite(result.ari)):
            problems.append(f"{tag}: no dckm result to score")
        if result.signature != passes[0][2].signature:
            problems.append(f"{tag}: labels, objectives or table differ from pass 0")
        counts = [sum(1 for p in passes if p[0] == k) for k in ("untraced", "traced")]
        enough = counts[0] >= MIN_PASSES and (not args.trace or counts[1] >= MIN_PASSES)
        typical = statistics.median(p[1] for p in passes)
        if enough and time.perf_counter() - started + typical > args.seconds:
            break

    untraced = [p for p in passes if p[0] == "untraced"]
    traced = [p for p in passes if p[0] == "traced"]
    reference = passes[0][2]
    attempted = sum(p[2].attempted for p in passes)
    failed = sum(p[2].failed for p in passes)
    solve_s = statistics.median(p[1] for p in untraced)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "pass_seconds": [[p[0], p[1]] for p in passes],
        "setup_seconds": setup_times,
        "detail": reference.detail,
        "problems": problems,
    }
    if args.trace:
        per_pass = [p[3].layer_metrics() for p in traced]
        base = setup_probe.layer_metrics()
        metrics = {
            key: base[key] + statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]
        }
        traced_solve = statistics.median(p[1] for p in traced)
        metrics["trace.solve_s"] = traced_solve
        metrics["trace.overhead_s"] = traced_solve - solve_s
        int_keys = [k for k, v in per_pass[0].items() if isinstance(v, int)]
        report["counts_repeated"] = sorted(k for k in int_keys if len({m[k] for m in per_pass}) == 1)
        report["counts_varying"] = sorted(set(int_keys) - set(report["counts_repeated"]))
        report["counts"] = {k: [m[k] for m in per_pass] for k in int_keys}
        spans_file = OUT / f"{workload.name}-seed{args.seed}-spans.json"
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(
                {"setup": setup_probe.dump_spans(), "passes": [p[3].dump_spans() for p in traced]}, fh
            )
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = {
            "solve_s": solve_s,
            "setup_s": statistics.median(setup_times) if setup_times else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "nmi": reference.nmi,
            "ari": reference.ari,
            "ok_frac": (attempted - failed) / attempted,
        }
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    if any(isinstance(v, float) and not math.isfinite(v) for v in metrics.values()):
        problems.append("a metric is not finite")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k] if math.isfinite(metrics.get(k, math.nan)) else None, "unit": unit}
            for k, unit in units.items()
        },
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dckm benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "dckm" / "__init__.py").is_file():
        print(f"perfbench: no dckm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dckm

    if Path(dckm.__file__).resolve().parent != SRC / "dckm":
        print(f"perfbench: imported dckm from {dckm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    result, report = run(args)
    report["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for key, entry in result["metrics"].items():
        print(f"{key} = {entry['value']} {entry['unit']}")
    print(json.dumps({"environment": report["environment"], "detail": report["detail"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
