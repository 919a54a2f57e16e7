"""One timed set-up, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED OUT_DIR

Times the import of numpy and ``dckm`` plus the workload's data generation,
CSV write and read-back, and prints one JSON line with ``setup_s`` and any
failed check.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and dckm)


def main() -> int:
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    problems: list[str] = []
    workloads.WORKLOADS[name].setup(seed, out_dir, problems)
    print(json.dumps({"setup_s": time.perf_counter() - STARTED, "problems": problems}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
