"""Differential tests: the (2,2) oracle's residue-filtered, entry-by-entry
search mod p^(a+b+1) against the full-matrix search it replaced
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
    GroupElement, LocalContext, TwoTwoForm, act, discriminant, inflate, is_integral,
    oracle_minimality_22, valuation,
)
from g1min import construct
from g1min.construct import (
    ORACLE_WEIGHT_PAIRS, _live_residue_pairs, _oracle_reducer, _random_unimodular,
)
from g1min.exactnum import mat_mul

from conftest import random_form22
from oracle_reference import reference_oracle_reducer

# needs a (2,1) move that is invisible mod 2; its transpose needs (1,2)
DEEP_WEIGHT_FORM = TwoTwoForm(((4, -2, -1), (1, 4, 3), (2, 8, 2)))


def _pool_form(rng, p):
    """A form with entries from {0, +-1, +-p, +-p^2, p^3}: mod p it has many
    zeros, so many residue pairs survive the oracle's filter."""
    pool = (0, 1, -1, p, -p, p * p, -p * p, p ** 3)
    return TwoTwoForm(tuple(tuple(rng.choice(pool) for _ in range(3)) for _ in range(3)))


def _reducible(rng, p, a, b, draw=random_form22):
    """A nonsingular form that some substitution pair followed by the
    stretch of weight pair (a, b) makes integral: a form from draw(rng) with
    entry (r, c) multiplied by p^(a+b+1-ar-bc) where that is positive, moved
    by a random unimodular pair."""
    while True:
        G = draw(rng)
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


def _residue_rich_cases(p):
    """Pool forms, a third with one row and a third with one column made
    0 mod p; and for each weight pair the first of up to 200 reducible pool
    forms that the full-matrix search decides at that pair."""
    rng = random.Random(f"oracle-residues:{p}")
    cases = []
    while len(cases) < 60:
        rows = [list(row) for row in _pool_form(rng, p).rows]
        line = rng.randrange(3)
        for k in range(3):
            if len(cases) % 3 == 1:
                rows[line][k] *= p
            elif len(cases) % 3 == 2:
                rows[k][line] *= p
        F = TwoTwoForm(tuple(map(tuple, rows)))
        if discriminant(F) != 0:
            cases.append(F)
    for a, b in ORACLE_WEIGHT_PAIRS:
        for _ in range(200):
            F = _reducible(rng, p, a, b, draw=lambda rng: _pool_form(rng, p))
            if reference_oracle_reducer(F, p)[2] == (a, b):
                cases.append(F)
                break
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


@pytest.mark.parametrize("p", (2, 3, 5))
def test_residue_filter_keeps_every_hit_on_residue_rich_forms(p):
    hits, alive = [], []
    for F in _residue_rich_cases(p):
        hit = _oracle_reducer(F, p)
        assert hit == reference_oracle_reducer(F, p), (p, F)
        hits.append(hit)
        alive.append(sum(map(len, _live_residue_pairs(F, p).values())))
    assert {hit[2] for hit in hits if hit} == set(ORACLE_WEIGHT_PAIRS), p
    # some form keeps every residue pair, and some minimal form keeps a few,
    # so the filtered search runs to its end with pairs skipped
    assert max(alive) == (p + 1) ** 2
    assert any(hit is None and 0 < n < (p + 1) ** 2 for hit, n in zip(hits, alive))


def test_no_live_residue_pair_means_no_product(monkeypatch):
    products = []

    def counting_mat_mul(A, B):
        products.append((A, B))
        return mat_mul(A, B)

    monkeypatch.setattr(construct, "mat_mul", counting_mat_mul)
    F = TwoTwoForm(((1, 0, 1), (0, 1, 0), (1, 0, 1)))  # Delta = 225
    assert _live_residue_pairs(F, 2) == {}
    assert oracle_minimality_22(F, 2) and products == []
    # at p = 3 two residue pairs survive, so the search forms products
    assert _live_residue_pairs(F, 3)
    assert oracle_minimality_22(F, 3) and products


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
