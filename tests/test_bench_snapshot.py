"""tools/bench_snapshot.py on made-up benchmark runs."""

import argparse
import json
from pathlib import Path
import subprocess
import sys

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_TOOLS))
import bench_snapshot  # noqa: E402

SPEC = {
    "run_seconds": 7,
    "workloads": [{"name": "local_small_p"}, {"name": "census_oracle"}],
    "end_to_end": [
        {"name": "throughput_jobs_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
}
META = {"git_rev": "abc123", "git_dirty": False, "python": "3.11.7", "nproc": 2}
# what `pytest -q --durations=10` prints, in short
TIER1_OUT = """........ [100%]
============================= slowest 10 durations =============================
3.51s call     tests/test_a.py::test_slow[2-cube]
0.52s setup    tests/test_b.py::test_fixture
0.01s teardown tests/test_b.py::test_fixture

(7 durations < 0.005s hidden.  Use -vv to show these durations.)
690 passed in 34.03s
"""


@pytest.fixture
def tier1_runs():
    return []


@pytest.fixture
def runs(monkeypatch, tmp_path, tier1_runs):
    """Fake runs: throughput 100 * seed, p50 1000 / seed, one failed job in
    ten for census_oracle; the argv of each run is kept.  The tier-1 run
    prints TIER1_OUT, and its argv and environment go to `tier1_runs`."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    seen = []

    def fake_run(cmd, cwd, **kwargs):
        if cmd[1:3] == ["-m", "pytest"]:
            tier1_runs.append((cwd, cmd, kwargs["env"]))
            return subprocess.CompletedProcess(cmd, 0, stdout=TIER1_OUT, stderr="")
        args = dict(zip(cmd[2::2], cmd[3::2]))
        seen.append((cwd, args))
        seed = int(args["--seed"])
        meta = dict(META, workload=args["--workload"], jobs_per_pass=120 + seed)
        result = {"metrics": {"throughput_jobs_s": {"value": 100.0 * seed},
                              "latency_p50_ms": {"value": 1000.0 / seed}},
                  "attempted": 10, "failed": int(args["--workload"] == "census_oracle")}
        stdout = f"# meta {json.dumps(meta)}\n# throughput\n{json.dumps(result)}\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_snapshot.paired_runs.subprocess, "run", fake_run)
    return tmp_path, seen


def test_snapshot_schema_and_quartiles(runs, capsys):
    checkout, seen = runs
    doc = bench_snapshot.snapshot(checkout, [1, 2, 3, 4, 5])
    assert [(cwd, a["--workload"], a["--seed"], a["--seconds"]) for cwd, a in seen] == [
        (checkout, w, str(s), "7") for w in ("local_small_p", "census_oracle")
        for s in range(1, 6)]
    assert doc["meta"] == dict(META, seeds=[1, 2, 3, 4, 5], run_seconds=7)
    assert set(doc["workloads"]) == {"local_small_p", "census_oracle"}
    small = doc["workloads"]["local_small_p"]
    assert small["jobs_per_pass"] == [121, 122, 123, 124, 125]
    assert small["failed_share"] == [0.0] * 5
    assert doc["workloads"]["census_oracle"]["failed_share"] == [0.1] * 5
    assert small["metrics"]["throughput_jobs_s"] == {
        "unit": "1/s", "better": "higher", "values": [100.0, 200.0, 300.0, 400.0, 500.0],
        "median": 300.0, "q1": 200.0, "q3": 400.0}
    p50 = small["metrics"]["latency_p50_ms"]
    assert (p50["unit"], p50["better"]) == ("ms", "lower")
    assert p50["median"] == pytest.approx(1000 / 3)
    assert (p50["q1"], p50["q3"]) == (pytest.approx(250.0), pytest.approx(500.0))
    assert capsys.readouterr().out.count("# ") == 11


def test_tier1_section(runs, tier1_runs, monkeypatch):
    checkout, _ = runs
    monkeypatch.delenv("PYTHONPATH", raising=False)
    section = bench_snapshot.snapshot(checkout, [1, 2, 3])["tier1"]
    (cwd, cmd, env), = tier1_runs
    assert cwd == checkout and cmd[0] == sys.executable
    assert cmd[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors",
                       "-p", "no:cacheprovider", "--durations=10"]
    assert env["PYTHONPATH"] == "src" and env["PYTHONPYCACHEPREFIX"]
    assert section["command"] == ("PYTHONPATH=src python -m pytest -q "
                                  "--continue-on-collection-errors -p no:cacheprovider "
                                  "--durations=10")
    assert section["summary"] == "690 passed in 34.03s"
    assert section["wall_s"] >= 0
    assert section["slowest"] == [
        {"seconds": 3.51, "phase": "call", "test": "tests/test_a.py::test_slow[2-cube]"},
        {"seconds": 0.52, "phase": "setup", "test": "tests/test_b.py::test_fixture"},
        {"seconds": 0.01, "phase": "teardown", "test": "tests/test_b.py::test_fixture"}]


def test_failing_tier1_tests_end_the_snapshot(runs, monkeypatch):
    checkout, seen = runs
    failed = subprocess.CompletedProcess([], 1, stdout="F.\n1 failed, 1 passed in 0.1s\n",
                                         stderr="")
    monkeypatch.setattr(bench_snapshot.subprocess, "run", lambda cmd, **kwargs: failed)
    with pytest.raises(SystemExit, match=r"tier-1 tests exited 1:\nF\.\n1 failed, 1 passed"):
        bench_snapshot.snapshot(checkout, [1, 2, 3])
    assert seen == []


def test_main_writes_the_snapshot(runs, monkeypatch, tmp_path):
    checkout, _ = runs
    monkeypatch.setattr(bench_snapshot, "ROOT", checkout)
    out = tmp_path / "BENCH_1.json"
    assert bench_snapshot.main(["--seeds", "4-6", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["seeds"] == [4, 5, 6]
    assert doc["workloads"]["census_oracle"]["metrics"]["throughput_jobs_s"]["median"] == 500.0


def test_fewer_than_three_seeds_are_refused():
    assert bench_snapshot.parse_seeds("1-3") == [1, 2, 3]
    for text in ("1", "1-2", "3,5"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_snapshot.parse_seeds(text)
    with pytest.raises(SystemExit):
        bench_snapshot.main(["--seeds", "1-2", "out.json"])
