"""Benchmark snapshot of this g1min checkout, one point on the BENCH_*.json trajectory.

    python3 tools/bench_snapshot.py --seeds 1-5 BENCH_1.json

Runs `perfbench/run.py` once per workload of BENCHMARK.json and per seed in
the checkout that holds this script, each run for the benchmark's
run_seconds, writing no bytecode, in a checkout whose src/ holds no
__pycache__ (tools/paired_runs.py's run_once).  Before them it runs the
tier-1 test command of ROADMAP.md once, in a fresh interpreter with a fresh
bytecode cache, `-p no:cacheprovider` and `--durations=10`; a test that
starts Python with an environment of its own passes -B, so the run leaves
no __pycache__ in src/.  Writes OUT as JSON:

  meta       git rev and dirty flag, Python version and nproc, as the runs
             report them; the seeds and run_seconds
  tier1      the tier-1 command, its wall time in seconds, its summary line
             and its ten slowest test phases (seconds, phase, test id)
  workloads  per workload: jobs per pass and failed share (failed jobs over
             attempted jobs), one entry per seed; per end-to-end metric its
             unit, better direction, per-seed values, median and quartiles
             (inclusive method)

A snapshot places the checkout on the trajectory, but the machine drifts
between snapshots, so a speed claim still rests on paired runs of parent and
change (tools/paired_runs.py).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import paired_runs

ROOT = Path(__file__).resolve().parent.parent
MIN_SEEDS = 3
TIER1_ARGS = ["-m", "pytest", "-q", "--continue-on-collection-errors",
              "-p", "no:cacheprovider", "--durations=10"]
TIER1_TIMEOUT_S = 3600
_DURATION = re.compile(r"(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S.*)")


def parse_seeds(text):
    """paired_runs' seed syntax, with at least MIN_SEEDS seeds."""
    seeds = paired_runs.parse_seeds(text)
    if len(seeds) < MIN_SEEDS:
        raise argparse.ArgumentTypeError(f"a snapshot needs at least {MIN_SEEDS} seeds")
    return seeds


def tier1(checkout):
    """The tier1 section: one run of the tier-1 tests of `checkout`, with
    src/ first on PYTHONPATH.  A run whose tests fail ends the snapshot."""
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="bench-snapshot-pycache-") as cache:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *TIER1_ARGS], cwd=checkout, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path,
                                                  PYTHONPYCACHEPREFIX=cache),
                              timeout=TIER1_TIMEOUT_S)
        wall = time.perf_counter() - start
    lines = [line.strip() for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: the tier-1 tests exited {proc.returncode}:\n"
                         + "\n".join(lines[-20:]))
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(_DURATION.fullmatch, lines) if m]
    print(f"# tier1: {wall:.1f} s, {lines[-1]}", flush=True)
    return {"command": f"PYTHONPATH={path} python {' '.join(TIER1_ARGS)}",
            "wall_s": wall, "summary": lines[-1], "slowest": slowest}


def snapshot(checkout, seeds):
    """The snapshot document of `checkout` over `seeds`."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {"tier1": tier1(checkout), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(paired_runs.run_with_meta(checkout, workload, seed, seconds))
            values, share, _ = runs[-1]
            print(f"# {workload} seed {seed}: failed={share:.4f} "
                  + " ".join(f"{k}={v:.4f}" for k, v in values.items()), flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            series = [values[metric["name"]] for values, _, _ in runs]
            q1, median, q3 = statistics.quantiles(series, n=4, method="inclusive")
            metrics[metric["name"]] = {"unit": metric["unit"], "better": metric["better"],
                                       "values": series, "median": median, "q1": q1, "q3": q3}
        doc["workloads"][workload] = {
            "jobs_per_pass": [meta.get("jobs_per_pass") for _, _, meta in runs],
            "failed_share": [share for _, share, _ in runs],
            "metrics": metrics,
        }
    first_meta = runs[0][2]
    doc["meta"] = {key: first_meta.get(key) for key in ("git_rev", "git_dirty", "python", "nproc")}
    doc["meta"].update(seeds=seeds, run_seconds=seconds)
    return doc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help=f"'A-B' or a comma-separated list, at least {MIN_SEEDS}")
    ap.add_argument("out", type=Path)
    args = ap.parse_args(argv)
    doc = snapshot(ROOT, args.seeds)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
