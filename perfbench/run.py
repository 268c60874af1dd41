#!/usr/bin/env python3
"""Benchmark of fracfem's active-set contact solver (see README.md).

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each timed run is a fresh worker process (``worker.py``), started one at a
time with one BLAS/OpenMP thread, until ``--seconds`` have passed.  The
report gives the median over the runs of each workload; every run's output
is checked, and any failed check or exception counts the run as failed.
``--trace 1`` alternates untraced and traced runs and reports per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("sneddon", "crossing-multi", "inclined-ramp")
END_TO_END = {"e2e_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
DEADLINE_S = 170.0  # one invocation per workload must end within 180 s
MIN_RUNS = 3  # medians need three; with --trace 1, two runs of one kind
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "trace.coverage":
        return "ratio"
    return "count"


def worker_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(workload, traced, n, started):
    """Start one worker and wait for it; returns (result or None, error)."""
    outdir = OUT / f"{workload}-{n}"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--trace", str(int(traced)), "--out", str(outdir),
    ]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{workload}.json")]
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failures"]:
        return None, "; ".join(result["failures"])
    return result, None


def bench(workload, seconds, trace, rng):
    """All runs of one workload; returns (attempted, failed, runs, problems)."""
    first_traced = trace and rng.random() < 0.5
    started = time.perf_counter()
    runs, problems = [], []
    attempted, elapsed = 0, 0.0
    # start another run only if it is expected to end closer to ``seconds``
    # than stopping now would
    while attempted < MIN_RUNS or elapsed + 0.5 * elapsed / attempted < seconds:
        traced = trace and (attempted % 2 == 0) == first_traced
        result, error = run_worker(workload, traced, attempted, started)
        attempted += 1
        if error is not None:
            problems.append(f"run {attempted}: {error}")
        else:
            runs.append(result)
        elapsed = time.perf_counter() - started
        if elapsed >= DEADLINE_S:
            break
    problems += determinism_problems(runs)
    return attempted, attempted - len(runs), runs, problems


def determinism_problems(runs):
    """Final U/lam hash and every count must repeat across the runs."""
    out = []
    if len({r["hash"] for r in runs}) > 1:
        out.append("final U/lam hash differs between runs")
    if len({json.dumps(r["counts"], sort_keys=True) for r in runs}) > 1:
        out.append("solver counts differ between runs")
    traced = [r["layers"] for r in runs if r["traced"]]
    for name in traced[0] if traced else ():
        if unit_of(name) in ("count", "bytes") and len({t[name] for t in traced}) > 1:
            out.append(f"per-layer count {name} differs between traced runs")
    return out


def median(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(runs):
    plain = [r for r in runs if not r["traced"]]
    return {k: {"value": median(plain, k), "unit": u} for k, u in END_TO_END.items()}


def per_layer(runs):
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    layers = dict(traced[0]["layers"])  # counts repeat across traced runs
    for name in layers:
        if unit_of(name) not in ("count", "bytes"):
            layers[name] = statistics.median(r["layers"][name] for r in traced)
    layers.update(traced[0]["counts"])
    layers["import.fracfem_s"] = median(traced, "import_s")
    layers["trace.overhead_s"] = median(traced, "e2e_s") - median(plain, "e2e_s")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}


def report(workload, attempted, failed, runs):
    plain = [r for r in runs if not r["traced"]]
    line = f"{workload:<15} runs {attempted:>2} failed {failed}"
    if plain:
        for k, u in END_TO_END.items():
            line += f"  {k} {median(plain, k):.4f} {u}"
        if plain[0]["rel_l2"] is not None:
            line += f"  rel_l2 {plain[0]['rel_l2']:.7f} ratio"
        line += f"  hash {plain[0]['hash'][:12]}"
    print(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fracfem" / "__init__.py").is_file():
        sys.exit(f"error: no fracfem sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)

    total_attempted = total_failed = 0
    problems, metrics, record = [], {}, {}
    for name in names:
        attempted, failed, runs, issues = bench(name, args.seconds, args.trace, rng)
        total_attempted += attempted
        total_failed += failed
        problems += [f"{name}: {p}" for p in issues]
        report(name, attempted, failed, runs)
        record[name] = runs
        if not runs or (args.trace and not all(
            any(r["traced"] == t for r in runs) for t in (False, True)
        )):
            problems.append(f"{name}: too few successful runs to report")
            continue
        found = per_layer(runs) if args.trace else end_to_end(runs)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})

    env = next((r["env"] for runs in record.values() for r in runs), None)
    print(f"env: {json.dumps(env)}; seed {args.seed}; {args.seconds:g} s per workload")
    with open(OUT / f"results-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "seed": args.seed, "runs": record,
                   "problems": problems}, fh, indent=1)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
