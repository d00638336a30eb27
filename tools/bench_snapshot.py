"""Benchmark snapshot of this g1min checkout, one point on the BENCH_*.json trajectory.

    python3 tools/bench_snapshot.py --seeds 1-5 BENCH_1.json

Runs `perfbench/run.py` once per workload of BENCHMARK.json and per seed in
the checkout that holds this script, each run for the benchmark's
run_seconds and with a fresh bytecode cache (tools/paired_runs.py's
run_once).  Writes OUT as JSON:

  meta       git rev and dirty flag, Python version and nproc, as the runs
             report them; the seeds and run_seconds
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
import statistics
import sys
from pathlib import Path

import paired_runs

ROOT = Path(__file__).resolve().parent.parent
MIN_SEEDS = 3


def parse_seeds(text):
    """paired_runs' seed syntax, with at least MIN_SEEDS seeds."""
    seeds = paired_runs.parse_seeds(text)
    if len(seeds) < MIN_SEEDS:
        raise argparse.ArgumentTypeError(f"a snapshot needs at least {MIN_SEEDS} seeds")
    return seeds


def snapshot(checkout, seeds):
    """The snapshot document of `checkout` over `seeds`."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {"workloads": {}}
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
