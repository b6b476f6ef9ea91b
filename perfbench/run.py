"""spoofbench benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are made from
--seed in a set-up process; then timed passes repeat until --seconds have
been spent, each followed by output checks.  With --trace 0 the result
carries the end-to-end metrics (wall_s, at reference host speed, see
speed.py; peak_rss_mb; setup_s); with --trace 1 passes alternate untraced
and traced and the result carries the per-layer metrics.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics.

--workload all runs every workload in turn, each in its own process, and
prints one table.  Run records (machine, code, every pass, and in traced
runs every span) are written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# Set-up repeats at least SETUP_REPEATS times and until SETUP_MIN_S have
# been spent, at most SETUP_MAX_REPEATS times: a 0.05 s set-up needs more
# samples for a steady median than a 4 s one.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 15

# One BLAS thread: on a small shared machine, two threads contending for
# tiny GEMMs made pass times jitter by ~20% between runs; one thread
# measures the work.  Set before numpy is first imported here or in the
# set-up process, which inherits the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402 - imports numpy, after the thread pins


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_setup(name, seed, base: Path) -> dict:
    base.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, str(HERE / "prepare.py"), name,
                    str(seed), str(base), str(SETUP_REPEATS),
                    str(SETUP_MIN_S), str(SETUP_MAX_REPEATS)],
                   cwd=ROOT, check=True, timeout=600)
    return json.loads((base / "setup.json").read_text(encoding="utf-8"))


def _run_pass(workload, state, work: Path):
    """Run one pass; returns (cpu_s, error message or None)."""
    cpu0 = time.process_time()
    try:
        workload.run_pass(state, work)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed pass is counted
        error = f"{type(exc).__name__}: {exc}"
    return time.process_time() - cpu0, error


def _problems(workload, state, work: Path, error, reference):
    """(problems, failed trials, digests) of a finished pass.  Any problem
    -- an exception, a failed check, output bytes that differ from the
    reference -- fails every trial of the pass."""
    if error:
        return [error], 0, None
    try:
        outcome = workload.check(state, work)
    except Exception as exc:  # noqa: BLE001 - a failed check is counted
        return [f"check: {exc!r}"], 0, None
    problems = list(outcome.problems)
    if not problems and reference is not None \
            and outcome.digests != reference:
        problems.append("outputs differ from the reference bytes")
    return problems, outcome.failed, outcome.digests


def _measure(workload, state, base: Path, seconds: float, trace: bool):
    """Passes until `seconds` are spent; in a traced run every second pass
    is traced.  Returns the per-pass records, the traced passes' spans and
    the wrappers that could not be installed."""
    from workloads import tree_bytes

    if trace:
        import layers
        import tracer as tracing
        tracer = tracing.Tracer()
    passes, traces, laps = [], [], []
    reference = workload.reference_digests(state)
    start = time.perf_counter()
    while len(passes) < (2 if trace else 1) or (
            time.perf_counter() - start + statistics.median(laps) <= seconds):
        lap_start = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        pass_dir = base / f"pass-{len(passes)}"
        work = workload.prepare(state, pass_dir)
        if traced:
            tracing.install(tracer)
        (cpu, error), wall, host_ref = speed.timed(
            lambda: _run_pass(workload, state, work))
        if traced:
            tracer.uninstall()
        problems, failed, digests = _problems(workload, state, work, error,
                                              reference)
        if not problems and reference is None:
            reference = digests
        attempted = workload.trials_per_pass
        if traced:
            cache = work / "cache"
            traces.append(layers.PassTrace(
                tracer.take(), wall,
                tree_bytes(cache) if cache.is_dir() else 0))
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append({"wall_s": wall, "cpu_s": cpu,
                       "reference_s": host_ref,
                       "wall_ref_s": speed.at_reference_speed(wall, host_ref),
                       "traced": traced,
                       "attempted": attempted,
                       "failed": attempted if problems
                       else min(failed, attempted),
                       "problems": problems})
        laps.append(time.perf_counter() - lap_start)
    return passes, traces, tracer.missing if trace else []


def _summary(values):
    return {"value": statistics.median(values), "max": max(values),
            "n": len(values)}


def _end_to_end(passes, setup_s):
    """wall_s is in seconds at reference speed (speed.py), with the
    measured median beside it; setup_s is measured seconds."""
    plain = [p for p in passes if not p["traced"]]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {**_summary([p["wall_ref_s"] for p in plain]),
                   "measured": statistics.median(p["wall_s"] for p in plain),
                   "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB", "n": 1},
        "setup_s": {**_summary(setup_s), "unit": "s"},
    }


def _per_layer(passes, traces):
    import layers

    metrics = layers.layer_metrics(traces)
    plain = [p for p in passes if not p["traced"]]
    traced = [p["wall_s"] for p in passes if p["traced"]]
    cpu = [p["cpu_s"] for p in plain]
    ratio = [p["cpu_s"] / p["wall_s"] for p in plain]
    wall = statistics.median(p["wall_s"] for p in plain)
    host = [speed.NOMINAL_S / p["reference_s"] for p in passes]
    extra = {
        "host.speed": {**_summary(host), "unit": "ratio"},
        "process.cpu_s": {**_summary(cpu), "unit": "s"},
        "process.cpu_per_wall": {**_summary(ratio), "unit": "ratio"},
        "trace.wall_s": {**_summary(traced), "unit": "s"},
        "trace.overhead_s": {"value": statistics.median(traced) - wall,
                             "unit": "s", "n": len(traced)},
    }
    return {**metrics, **extra}


def _print_table(name, args, result):
    passes = result["passes"]
    print(f"{name}  seed={args.seed}  trace={args.trace}  "
          f"passes={len(passes)}  correct={result['correct']}")
    for key, m in result["metrics"].items():
        if args.trace and m.get("n", 1) == 0:
            continue
        detail = ""
        if "max" in m:
            detail = f"  median of {m['n']}, max {m['max']:.6g}"
        if "measured" in m:
            detail += f", measured {m['measured']:.6g} s"
        elif "p90" in m:
            detail = f"  median of {m['n']}, p90 {m['p90']:.6g}"
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']:<6}{detail}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<40} {rate:>14.6g} ratio   "
          f"{result['failed']} failed of {result['attempted']} trials")
    for p in passes:
        for problem in p["problems"]:
            print(f"  problem: {problem}")
    for problem in result["setup_problems"]:
        print(f"  problem: {problem}")


def run_workload(args) -> dict:
    from machine import record
    import spoofbench.cli  # noqa: F401 - imports every layer untimed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    base = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = _run_setup(args.workload, args.seed, base)
        passes, traces, missing = _measure(workload, setup["state"], base,
                                           args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    setup_problems = [] if setup["consistent"] else [
        "repeated set-ups wrote different output bytes"]
    metrics = (_per_layer(passes, traces) if args.trace
               else _end_to_end(passes, setup["setup_s"]))
    result = {"workload": args.workload, "why": workload.why,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **record(ROOT),
              "inputs": setup["state"].get("inputs"),
              "correct": failed == 0 and not setup_problems,
              "attempted": attempted, "failed": failed,
              "setup_s": setup["setup_s"], "setup_problems": setup_problems,
              "untraced_wrappers": missing, "passes": passes,
              "metrics": metrics}
    out = STATE / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if traces:
        spans = [[{"name": s.name, "parent": s.parent,
                   "start_s": s.start - t.spans[0].start,
                   "duration_s": s.duration, "self_s": s.self_s,
                   "tags": s.tags} for s in t.spans] for t in traces]
        (out / f"{stem}-spans.json").write_text(json.dumps(spans))
    return result


def run_all(args):
    """Every workload, each in a process of its own, then one table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=1800)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode == 0 \
            and lines else None
    done = {n: r for n, r in results.items() if r}
    keys = sorted({k for r in done.values() for k in r["metrics"]
                   if k.startswith("share.")}) if args.trace \
        else ["wall_s", "peak_rss_mb", "setup_s"]
    print("\nper workload" + (": share of traced wall time by layer"
                              if args.trace else ""))
    print(f"  {'metric':<20}" + "".join(f"{n:>13}" for n in done))
    for key in keys:
        print(f"  {key:<20}" + "".join(
            f"{r['metrics'][key]['value']:>13.4g}" for r in done.values()))
    print(f"  {'error_rate':<20}" + "".join(
        f"{r['failed'] / r['attempted']:>13.4g}" for r in done.values()))
    ok = all(results.values())
    merged = {"correct": ok and all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values() if r),
              "failed": sum(r["failed"] for r in results.values() if r),
              "metrics": {f"{n}.{k}": v for n, r in results.items() if r
                          for k, v in r["metrics"].items()}}
    print(json.dumps(merged))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "spoofbench" / "__init__.py").is_file():
        sys.stderr.write(f"no spoofbench sources under {SRC}; run from the "
                         "root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(WORKLOADS)} or all\n")
        return 2
    result = run_workload(args)
    _print_table(args.workload, args, result)
    metrics = {k: {"value": m["value"], "unit": m["unit"]}
               for k, m in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
