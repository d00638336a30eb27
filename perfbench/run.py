"""g1min benchmark: seeded closed-loop jobs through the public API and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a g1min checkout and imports the package from `src/`.
One client runs one job at a time in this process (a closed loop without
threads); each job starts when the previous one has finished.  Whole passes
over the workload's jobs repeat until `--seconds` have passed.  A pass holds at
least MIN_SAMPLES jobs, so its p90 has ten samples beyond it.  Every
answer is checked outside the timed region; a wrong answer exits 1 without a
result.  A job's documented refusal (see workloads.Job.refusal) is counted
as refused, any other outcome but `ok` as failed.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run (see
README.md).  The last line of stdout is the JSON
result; the lines before it, starting with '#', are the human-readable report.
"""

import argparse
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

JOB_CAP_S = 30.0       # per-job time cap; a job past it is recorded as "timeout"
CENSUS_CAP_S = 60.0
MIN_SAMPLES = 100
REF_EVERY = 10         # jobs between two timings of the reference computation
REF_NOMINAL_S = 0.0004  # the reference's time on a 2-vCPU x86 VM, CPython 3.11
SETUP_IMPORTS = 5      # cold imports timed per run; setup_s is their median
# setup_s's reference: a cold import of standard-library modules, pure Python
# and C extensions, like g1min and numpy; its time on the same VM
SETUP_REF_MODULES = ("argparse, asyncio, ctypes, decimal, email.parser, json, sqlite3, "
                     "unittest, xml.dom.minidom")
SETUP_REF_NOMINAL_S = 0.085

END_TO_END = {
    "throughput_jobs_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}



class JobTimeout(BaseException):
    """Raised by the SIGALRM handler when a job outlasts its cap.  A
    BaseException, so no `except Exception` inside g1min can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def run_capped(fn, cap):
    """fn() under an interval timer; no thread or process is started."""
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Runner:
    """Runs jobs, records outcomes and latencies, and checks answers."""

    def __init__(self):
        self.outcomes = Counter()
        self.refused = 0   # outcomes that are the job's checked refusal
        self.first_errors = {}

    def run(self, job, cap=JOB_CAP_S, tracer=None):
        """One job; returns (outcome, seconds).  Raises WrongAnswer."""
        call = (lambda: tracer.run("bench.job", job.call)) if tracer else job.call
        start = time.perf_counter()
        try:
            result = run_capped(call, cap)
            outcome = job.outcome(result)
        except JobTimeout:
            result, outcome = None, "timeout"
        except Exception as exc:  # the job boundary: record the failure, keep running
            result, outcome = None, type(exc).__name__
            self.first_errors.setdefault(outcome, f"{job.label}: {exc!r}"[:300])
        seconds = time.perf_counter() - start
        self.outcomes[outcome] += 1
        if outcome == "ok":
            job.verify(result)
        elif outcome == job.refusal:
            self.refused += 1
        return outcome, seconds

    def one_pass(self, jobs, tracer=None):
        """Run every job once; returns records (outcome, seconds, slowness).

        The reference is timed before the pass and after every REF_EVERY
        jobs.  A job's slowness is the mean reference time at the two ends of
        its segment over REF_NOMINAL_S: how much slower than nominal the
        machine ran while the job did.
        """
        records = []
        before = reference_seconds()
        for start in range(0, len(jobs), REF_EVERY):
            segment = [self.run(job, tracer=tracer) for job in jobs[start:start + REF_EVERY]]
            after = reference_seconds()
            slowness = (before + after) / 2 / REF_NOMINAL_S
            records += [(outcome, seconds, slowness) for outcome, seconds in segment]
            before = after
        return records


_REF_RNG = random.Random(0)
_REF_INTS = [_REF_RNG.getrandbits(600) for _ in range(64)]


def _reference():
    acc = 1
    for a in _REF_INTS:
        acc = (acc * a + 12345) % _REF_INTS[3]
        acc = math.gcd(acc, a * 3 + 1) + acc
    return acc


def reference_seconds():
    """Median time of three runs of a fixed computation in the benchmark's
    own code: products, remainders and gcds of 600-bit integers, the
    arithmetic g1min's jobs are made of.  It tracks the speed of the machine,
    which on a shared host swings by up to 1.7x within seconds; g1min cannot
    change it."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cold_import_seconds(modules):
    """Time of `import <modules>` in a fresh interpreter that finds g1min."""
    probe = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def measure_setup():
    """Cold `import g1min` at the nominal machine speed, and unscaled.

    Each cold import of g1min is followed by one of SETUP_REF_MODULES; the
    median of their ratios is scaled to SETUP_REF_NOMINAL_S.  Import speed
    drifts by up to 1.7x over minutes on a shared host, and the integer
    reference of the jobs does not follow it; the standard-library import
    does.  g1min cannot change that reference.
    """
    ratios, times = [], []
    for i in range(SETUP_IMPORTS + 1):  # the first pair may write bytecode caches
        seconds = cold_import_seconds("g1min")
        ref = cold_import_seconds(SETUP_REF_MODULES)
        if i:
            ratios.append(seconds / ref)
            times.append(seconds)
    return statistics.median(ratios) * SETUP_REF_NOMINAL_S, statistics.median(times)


def run_census(runner, workloads, tracer=None):
    outcome, seconds = runner.run(workloads.census_job(), cap=CENSUS_CAP_S, tracer=tracer)
    if outcome != "ok":
        raise RuntimeError(f"the census did not finish: {outcome}")
    return seconds


def pass_metrics(records, scaled=True):
    """Throughput and latency quantiles of one pass of (outcome, seconds,
    slowness).

    With `scaled`, job times are divided by their slowness, so they read as
    on a machine running at the nominal speed.  A timeout lasts the cap
    whatever the speed, so it is not scaled.
    """
    times = [s / slowness if scaled and outcome != "timeout" else s
             for outcome, s, slowness in records]
    # a job without an answer (refused or failed) counts as above any latency
    # limit: it is charged the full cap
    latencies = [t if outcome == "ok" else max(t, JOB_CAP_S)
                 for (outcome, _, _), t in zip(records, times)]
    ok = sum(outcome == "ok" for outcome, _, _ in records)
    return {
        "throughput_jobs_s": ok / sum(times),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
    }


def end_to_end(workload, runner, workloads, seconds):
    setup_s, setup_unscaled_s = measure_setup()
    # The census is timed but not a metric: a slow phase of the host moved it
    # by half while the reference moved little (see README.md).
    census_s = run_census(runner, workloads) if workload.owns_census else None
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not passes:
        passes.append(runner.one_pass(workload.jobs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Rates and quantiles are taken per pass, at the nominal machine speed, and
    # their median over passes is reported.
    per_pass = [pass_metrics(records) for records in passes]
    raw = [pass_metrics(records, scaled=False) for records in passes]
    records = [r for records in passes for r in records]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics.update({
        "ok_ratio": sum(outcome == "ok" for outcome, _, _ in records) / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    })
    samples = {"passes": len(passes), "setup": SETUP_IMPORTS, "census_s": census_s,
               "reference_ms": [round(statistics.median(r[2] for r in records)
                                      * REF_NOMINAL_S * 1e3, 4) for records in passes],
               "unscaled": {name: statistics.median(m[name] for m in raw) for name in raw[0]}}
    samples["unscaled"]["setup_s"] = setup_unscaled_s
    return metrics, samples, END_TO_END


def traced(workload, runner, workloads, seconds):
    """Alternate untraced and traced passes over the same jobs; per-layer
    metrics come from the traced ones."""
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    jobs = 0
    if workload.owns_census:
        untraced_s += run_census(runner, workloads)
        with tracer:
            traced_s += run_census(runner, workloads, tracer)
        jobs += 1
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not passes:
        untraced_s += sum(s for _, s, _ in runner.one_pass(workload.jobs))
        with tracer:
            traced_s += sum(s for _, s, _ in runner.one_pass(workload.jobs, tracer))
        passes += 1
    jobs += passes * len(workload.jobs)
    metrics = tracer.layer_metrics(jobs, traced_s, untraced_s)
    return metrics, {"traced_jobs": jobs}, tracing.PER_LAYER


def metadata(args, workload, samples):
    import numpy

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "jobs_per_pass": len(workload.jobs),
        "git_rev": "unknown", "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        meta["git_rev"] = git("rev-parse", "HEAD") or "unknown"
        meta["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    meta.update(samples)
    return meta


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "g1min" / "__init__.py").is_file():
        print(f"error: no g1min sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.GENERATORS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.GENERATORS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner()
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        workload = workloads.build(args.workload, args.seed, Path(tmp))
        if len(workload.jobs) < MIN_SAMPLES:
            print(f"error: a pass holds {len(workload.jobs)} jobs, fewer than {MIN_SAMPLES}",
                  file=sys.stderr)
            return 2
        measure = traced if args.trace else end_to_end
        try:
            values, samples, units = measure(workload, runner, workloads, args.seconds)
        except workloads.WrongAnswer as exc:
            print(f"error: wrong answer: {exc}", file=sys.stderr)
            return 1
    meta = metadata(args, workload, samples)
    meta["outcomes"] = dict(runner.outcomes)
    meta["refused"] = runner.refused
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for outcome, message in runner.first_errors.items():
        print(f"# first {outcome}: {message}")
    for name, value in values.items():
        print(f"# {name:46s} {value:14.6f} {units[name]}")
    attempted = sum(runner.outcomes.values())
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": attempted - runner.outcomes["ok"] - runner.refused,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
