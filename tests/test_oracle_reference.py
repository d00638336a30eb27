"""Differential tests: the (2,2) oracle's entry-by-entry search mod
p^(a+b+1) against the full-matrix search it replaced
(tests/oracle_reference.py), at p in {2, 3, 5}, and every reducer it returns
checked as a certificate."""

from fractions import Fraction
import os
import random
import subprocess
import sys

import pytest

import g1min
from g1min import (
    GroupElement, LocalContext, TwoTwoForm, act, discriminant, inflate, is_integral, valuation,
)
from g1min.construct import ORACLE_WEIGHT_PAIRS, _oracle_reducer, _random_unimodular
from g1min.exactnum import mat_mul

from conftest import random_form22
from oracle_reference import reference_oracle_reducer

# needs a (2,1) move that is invisible mod 2; its transpose needs (1,2)
DEEP_WEIGHT_FORM = TwoTwoForm(((4, -2, -1), (1, 4, 3), (2, 8, 2)))


def _reducible(rng, p, a, b):
    """A nonsingular form that some substitution pair followed by the
    stretch of weight pair (a, b) makes integral: a random form with entry
    (r, c) multiplied by p^(a+b+1-ar-bc) where that is positive, moved by a
    random unimodular pair."""
    while True:
        G = random_form22(rng)
        H = TwoTwoForm(tuple(tuple(x * p ** max(a + b + 1 - a * r - b * c, 0)
                                   for c, x in enumerate(row))
                             for r, row in enumerate(G.rows)))
        if discriminant(H) != 0:
            g = GroupElement("form22", 1, (_random_unimodular(2, rng), _random_unimodular(2, rng)))
            return act(g, H)


def _cases(p):
    """Random, inflated and reducible forms; the deep-weight pair at p = 2."""
    rng = random.Random(f"oracle-reference:{p}")
    ctx = LocalContext(p)
    cases = []
    while len(cases) < 60:
        F = random_form22(rng)
        if discriminant(F) == 0:
            continue
        if len(cases) % 3 == 0:
            F, _ = inflate(F, ctx, rng, moves=1)
        cases.append(F)
    cases += [_reducible(rng, p, a, b) for a, b in ORACLE_WEIGHT_PAIRS for _ in range(3)]
    if p == 2:
        cases += [DEEP_WEIGHT_FORM, DEEP_WEIGHT_FORM.transpose()]
    return cases


@pytest.fixture(scope="module")
def verdicts():
    """(p, F, reducer) for every case, the reducer from the library."""
    return [(p, F, _oracle_reducer(F, p)) for p in (2, 3, 5) for F in _cases(p)]


def test_reducer_matches_full_matrix_search(verdicts):
    for p, F, hit in verdicts:
        assert hit == reference_oracle_reducer(F, p), (p, F)
    for p in (2, 3, 5):
        hits = [hit for q, _, hit in verdicts if q == p]
        assert None in hits
        # every weight pair decides some case, so each entry test is exercised
        assert {hit[2] for hit in hits if hit} == set(ORACLE_WEIGHT_PAIRS), p


def test_deep_weight_forms_reach_the_deepest_pairs():
    assert _oracle_reducer(DEEP_WEIGHT_FORM, 2)[2] == (2, 1)
    assert _oracle_reducer(DEEP_WEIGHT_FORM.transpose(), 2)[2] == (1, 2)


def test_reducer_is_a_certificate(verdicts):
    for p, F, hit in verdicts:
        if hit is None:
            continue
        U, V, (a, b) = hit
        g = GroupElement("form22", Fraction(1, p ** (a + b + 1)),
                         (mat_mul(((1, 0), (0, p ** a)), U), mat_mul(((1, 0), (0, p ** b)), V)))
        G = act(g, F)
        assert is_integral(G), (p, F, hit)
        assert valuation(discriminant(G), p) == valuation(discriminant(F), p) - 12, (p, F, hit)


def test_class_tables_are_not_built_at_import():
    code = ("import g1min\n"
            "from g1min.construct import _oracle_classes\n"
            "assert _oracle_classes.cache_info().currsize == 0\n")
    src = os.path.dirname(os.path.dirname(g1min.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src}, timeout=60)
