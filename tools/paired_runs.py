"""Paired benchmark runs of two g1min checkouts, parent against change.

    python3 tools/paired_runs.py PARENT CHANGE --seeds 41-50 [--workload NAME ...]

For each workload and each seed, runs `perfbench/run.py --workload NAME
--seed N --seconds S` once in each checkout, one after the other; the side
that runs first alternates from pair to pair, the parent first in the first
pair.  Each run has PYTHONDONTWRITEBYTECODE=1 and no PYTHONPYCACHEPREFIX, and a
checkout whose src/ holds a __pycache__ is refused: the cold imports of setup_s
then compile g1min from source, while the standard library, and so the
reference import that setup_s is scaled by, reads its installed bytecode, as
in the benchmark's own runs of fresh checkouts.  Workloads, metrics, their better
direction and bound, and the run length S come from the change's
BENCHMARK.json.  Each run's metrics and its
failed share (failed jobs over attempted jobs) are printed as it finishes, as
'#' lines.  At the end, per workload: each side's failed share, and per
metric each side's median and quartiles (inclusive method), the relative
change of the medians, the change's wins (ties count for neither side), and
a verdict:

  unresolved  the parent's interquartile range is wider than the metric's
              bound (relative to its median) and not every run of the change
              reads better than every run of the parent, so the runs spread
              too widely to tell;
  gain        the change wins at least nine tenths of the pairs, the medians
              differ in the better direction by more than the parent's
              interquartile range, and the change fails no larger share of
              jobs than the parent;
  WORSE       the change's median is worse than the parent's by more than
              the metric's bound.

This script reads only the benchmark's command line and its last line of
stdout, the JSON result, so it serves any two checkouts that share them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN_MARGIN_S = 600  # a run's set-up, census and answer checks, beyond its timed loop


def parse_seeds(text):
    """'41-50' or '3,5,8' as a list of at least two ints."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(s) for s in text.split(",")]
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError("quartiles need at least two seeds")
    return seeds


def run_once(checkout, workload, seed, seconds):
    """(metric values, failed share) of one benchmark run in the given checkout."""
    values, share, _ = run_with_meta(checkout, workload, seed, seconds)
    return values, share


def run_with_meta(checkout, workload, seed, seconds):
    """run_once's (metric values, failed share), and the fields of the run's
    '# meta' line ({} when it has none)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    # g1min's bytecode would make its cold imports in setup_s read a cache,
    # and a cache prefix would hide the standard library's bytecode as well
    cached = sorted((Path(checkout) / "src").rglob("__pycache__"))
    if cached:
        raise SystemExit(f"{checkout}: {cached[0]} holds bytecode; remove it, or use a "
                         "fresh checkout")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env,
                          timeout=seconds + RUN_MARGIN_S)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    meta = next((json.loads(line[len("# meta "):]) for line in lines
                 if line.startswith("# meta ")), {})
    return values, result["failed"] / max(result["attempted"], 1), meta


def _cell(quartiles):
    q1, median, q3 = quartiles
    return f"{median:.4f} [{q1:.4f}, {q3:.4f}]"


def verdict(metric, parent, change, fails_more=False):
    """(verdict, wins, parent quartiles, change quartiles) of one metric's paired runs.

    `parent` and `change` hold the metric's values pair by pair; `fails_more`
    says the change failed a larger share of jobs than the parent.
    """
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    q_parent = statistics.quantiles(parent, n=4, method="inclusive")
    q_change = statistics.quantiles(change, n=4, method="inclusive")
    mp, mc = q_parent[1], q_change[1]
    spread = q_parent[2] - q_parent[0]
    gain = (mc - mp) if higher else (mp - mc)
    separated = min(change) > max(parent) if higher else max(change) < min(parent)
    if spread > metric["bound"] * abs(mp) and not separated:
        label = "unresolved"
    elif wins >= 0.9 * len(parent) and gain > spread and not fails_more:
        label = "gain"
    elif mp and -gain / abs(mp) > metric["bound"]:
        label = "WORSE"
    else:
        label = ""
    return label, wins, q_parent, q_change


def summarise(name, metric, parent, change, fails_more=False):
    """One table row: both sides' medians and quartiles, the change's wins, the verdict."""
    label, wins, q_parent, q_change = verdict(metric, parent, change, fails_more)
    mp, mc = q_parent[1], q_change[1]
    rel = (mc - mp) / mp if mp else 0.0
    return (f"  {name:18s}  {_cell(q_parent):34s}  {_cell(q_change):34s}"
            f"  {rel:+7.1%}  {wins:2d}/{len(parent)}  {label}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="'A-B' or a comma-separated list, at least two; one pair of runs per seed")
    ap.add_argument("--workload", action="append",
                    help="a workload of BENCHMARK.json (repeatable; default: all)")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}

    runs, failed = {}, {}
    for workload in workloads:
        runs[workload] = {"parent": [], "change": []}
        failed[workload] = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                values, share = run_once(sides[side], workload, seed, seconds)
                runs[workload][side].append(values)
                failed[workload][side].append(share)
                shown = " ".join(f"{m['name']}={values[m['name']]:.4f}" for m in metrics)
                print(f"# {workload} seed {seed} {side}: {shown} failed={share:.4f}", flush=True)

    for workload in workloads:
        pairs = len(runs[workload]["parent"])
        share = {side: statistics.fmean(failed[workload][side]) for side in sides}
        fails_more = share["change"] > share["parent"]
        print(f"\n{workload}: {pairs} pairs of {seconds:g} s runs, seeds {args.seeds[0]}..{args.seeds[-1]};"
              f" failed share parent {share['parent']:.4f}, change {share['change']:.4f}"
              + ("  FAILS MORE" if fails_more else ""))
        print(f"  {'metric':18s}  {'parent median [q1, q3]':34s}  {'change median [q1, q3]':34s}"
              f"  {'change':>7s}  wins")
        for metric in metrics:
            name = metric["name"]
            print(summarise(name, metric,
                            [r[name] for r in runs[workload]["parent"]],
                            [r[name] for r in runs[workload]["change"]],
                            fails_more))
    return 0


if __name__ == "__main__":
    sys.exit(main())
