"""Record the eval-large EERs that the current code reports, per seed.

    python3 perfbench/record_eers.py SEED [SEED ...]

For each seed, sets eval-large up, runs one pass and stores the pooled,
per-attack and macro-average EERs that `spoofbench eval --per-attack`
wrote into recorded_eers.json.  Every later eval-large pass on a recorded
seed must reproduce them within checks.RECORDED_TOLERANCE_PP.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

# the benchmark runs with one BLAS thread; record under the same setting
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(seeds):
    workload = WORKLOADS["eval-large"]
    path = HERE / "recorded_eers.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    base = HERE.parent / ".perfbench" / "record"
    try:
        for seed in seeds:
            state = workload.setup(base / "setup", seed)
            work = workload.prepare(state, base / "pass")
            workload.run_pass(state, work)
            recorded[str(seed)] = checks.read_eval_report(work / "eer.txt")
            shutil.rmtree(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    ordered = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
