"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

The smoke test runs every workload on a few of its jobs and checks that each
named metric is emitted; the transparency test checks that the tracer changes
no answer and puts every name it bound back.
"""

import contextlib
import io
import json
import signal
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_smoke_every_metric_emitted(name, monkeypatch):
    build = workloads.build
    monkeypatch.setattr(workloads, "build",
                        lambda *a: _trimmed(build(*a), 6))
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "SETUP_IMPORTS", 1)
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        code, lines = _run_main(["--workload", name, "--seed", "3", "--seconds", "0",
                                 "--trace", str(trace)])
        assert code == 0
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _trimmed(workload, count):
    workload.jobs = workload.jobs[:count]
    return workload


def _answer(call, cap):
    try:
        return run.run_capped(call, cap)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _snapshot():
    names = {}
    for modname in ("g1min",) + tuple(f"g1min.{m}" for m in tracing.MODULES):
        for attr, obj in vars(sys.modules[modname]).items():
            names[modname, attr] = obj
            if callable(obj) and getattr(obj, "__defaults__", None):
                names[modname, attr, "defaults"] = obj.__defaults__
    return names


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_tracer_is_transparent(name, alarm):
    with tempfile.TemporaryDirectory() as tmp:
        jobs = workloads.build(name, 5, Path(tmp)).jobs
        before = _snapshot()
        tracer = tracing.Tracer()
        compared = 0
        for job in jobs[:40]:
            try:
                plain = _answer(job.call, 0.5)
            except run.JobTimeout:
                continue  # a long job; the cheap ones suffice here
            with tracer:
                traced = _answer(lambda: tracer.run("bench.job", job.call), 30)
            assert traced == plain, job.label  # same reports, certificates and errors
            compared += 1
        assert _snapshot() == before
    assert compared >= 10
    assert tracer.calls["bench.job"] == compared
    assert sum(tracer.calls.values()) > compared  # spans inside g1min were recorded


def test_job_past_its_cap_is_a_timeout(alarm):
    def slow():
        while True:
            pass
    job = workloads.Job("spin", slow, check=lambda r: None)
    outcome, seconds = run.Runner().run(job, cap=0.05)
    assert outcome == "timeout" and seconds >= 0.05


def test_wrong_answer_is_detected(alarm):
    job = workloads.Job("bad", lambda: 1, check=lambda r: workloads.require(r == 2, "bad", "no"))
    with pytest.raises(workloads.WrongAnswer):
        run.Runner().run(job)


def test_twelfth_power():
    assert [workloads._is_twelfth_power(n) for n in (1, 2 ** 12, 3 ** 24 * 7 ** 12, 2 ** 1200)] \
        == [True] * 4
    assert not any(workloads._is_twelfth_power(n) for n in (0, -4096, 4095, 3 ** 24 + 1))


def test_only_a_documented_refusal_is_not_a_failure(alarm):
    def refuse():
        raise ValueError("beyond the bound")
    runner = run.Runner()
    for refusal in ("ValueError", None, "exit_5"):
        runner.run(workloads.Job("refuse", refuse, check=lambda r: None, refusal=refusal))
    assert runner.outcomes["ValueError"] == 3 and runner.refused == 1
