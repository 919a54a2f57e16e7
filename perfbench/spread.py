"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads grid-c07,cli-bench]
        [--trace 0|1] [--seconds N] [--write perfbench/baseline.json]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, and
prints for every metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread: the distance between the quartiles as a share of
the median. For end-to-end metrics it also prints the bound from
``BENCHMARK.json`` and whether the spread is below a third of it. ``--write``
stores the medians, quartiles and raw values as JSON. ``--seconds`` defaults
to ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write", default=None, help="JSON file for the summary")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        units: dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in bounds
            ), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            stats = summarize(vals)
            stats["unit"] = units[name]
            summary[workload][name] = stats
            line = (f"  {workload:10s} {name:40s} median {stats['median']:.6g} {units[name]} "
                    f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f}")
            if name in bounds:
                ok = name == "setup_s" or stats["spread"] < bounds[name] / 3
                steady &= ok
                line += f" bound {bounds[name]} {'ok' if ok else 'WIDE'}"
            print(line)
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 3


if __name__ == "__main__":
    raise SystemExit(main())
