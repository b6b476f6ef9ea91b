"""Workload set-up, run in a process of its own so that its memory peak
does not hide the timed passes' peak.

    python3 perfbench/prepare.py WORKLOAD SEED BASE_DIR REPEATS MIN_S MAX

Sets the workload up at least REPEATS times and until MIN_S seconds have
been spent, at most MAX times, each in a fresh directory under BASE_DIR,
timing each; keeps the last one and writes the timings and its state to
BASE_DIR/setup.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spoofbench.cli  # noqa: E402,F401 - imports every layer untimed
from workloads import WORKLOADS  # noqa: E402


def main(argv):
    name, seed, base = argv[0], int(argv[1]), Path(argv[2])
    repeats, min_s, most = int(argv[3]), float(argv[4]), int(argv[5])
    workload = WORKLOADS[name]
    times, states = [], []
    begin = time.perf_counter()
    while len(times) < repeats or (
            time.perf_counter() - begin < min_s and len(times) < most):
        if states:
            shutil.rmtree(base / f"setup-{len(states) - 1}")
        dest = base / f"setup-{len(states)}"
        start = time.perf_counter()
        states.append(workload.setup(dest, seed))
        times.append(time.perf_counter() - start)
    # a set-up that builds outputs must build the same bytes every time
    digests = [s.get("digests") for s in states]
    consistent = all(d == digests[0] for d in digests)
    record = {"setup_s": times, "state": states[-1],
              "consistent": consistent}
    (base / "setup.json").write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
