"""The verdicts of tools/paired_runs.py on made-up paired runs."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "paired_runs.py"
_SPEC = importlib.util.spec_from_file_location("paired_runs", _PATH)
paired_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_runs)

THROUGHPUT = {"name": "throughput_jobs_s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}
PARENT = [850.0, 845.0, 860.0, 855.0, 848.0, 852.0, 858.0, 843.0, 862.0, 851.0]


def label(metric, parent, change, fails_more=False):
    return paired_runs.verdict(metric, parent, change, fails_more)[0]


def test_clear_gain():
    change = [p * 1.25 for p in PARENT]
    assert label(THROUGHPUT, PARENT, change) == "gain"
    assert label(LATENCY, change, PARENT) == "gain"


def test_gain_needs_nine_tenths_of_the_pairs():
    change = [p * 1.25 for p in PARENT]
    change[0], change[1] = PARENT[0] - 1.0, PARENT[1] - 1.0
    assert label(THROUGHPUT, PARENT, change) == ""
    change[1] = PARENT[1] * 1.25
    assert label(THROUGHPUT, PARENT, change) == "gain"


def test_gain_needs_more_than_the_parent_spread():
    change = [p + 1.0 for p in PARENT]
    assert paired_runs.verdict(THROUGHPUT, PARENT, change)[1] == len(PARENT)
    assert label(THROUGHPUT, PARENT, change) == ""


def test_no_gain_when_the_change_fails_more():
    change = [p * 1.25 for p in PARENT]
    assert label(THROUGHPUT, PARENT, change, fails_more=True) == ""


def test_worse_beyond_the_bound():
    assert label(THROUGHPUT, PARENT, [p * 0.7 for p in PARENT]) == "WORSE"
    assert label(THROUGHPUT, PARENT, [p * 0.8 for p in PARENT]) == ""
    assert label(LATENCY, PARENT, [p * 1.3 for p in PARENT]) == "WORSE"


def test_unresolved_when_the_parent_spreads_past_the_bound():
    wide = [100.0, 200.0, 120.0, 180.0, 90.0, 210.0]
    change = [150.0] * len(wide)
    assert label(THROUGHPUT, wide, change) == "unresolved"
    # winning every pair is not enough while the two sides' runs overlap
    assert label(THROUGHPUT, wide, [w + 100.0 for w in wide]) == "unresolved"
    # every run of the change above every run of the parent settles it
    assert label(THROUGHPUT, wide, [w + 130.0 for w in wide]) == "gain"


def test_a_single_seed_is_refused():
    assert paired_runs.parse_seeds("41-43") == [41, 42, 43]
    assert paired_runs.parse_seeds("3,5") == [3, 5]
    for text in ("41", "41-41"):
        with pytest.raises(argparse.ArgumentTypeError):
            paired_runs.parse_seeds(text)
