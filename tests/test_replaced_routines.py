"""Differential tests: the routines that now do their job one way against
the ones they replaced (tests/replaced_routines.py)."""

import random

import pytest

import replaced_routines as old
from g1min import (
    Cube, GroupElement, TwoTwoForm, act, convert_2to3, convert_3to2, critical_model,
    construct_22, construct_cube, discriminant, inflate, level, model_from_dict,
)
from g1min import construct
from g1min.models import SPECS


CORNER_CUBES = 1000  # per entry bound, four bounds


def _corner_cube(rng, bound):
    """A random cube with s[2][2][.] = 0 and entries in [-bound, bound]."""
    flat = [rng.randint(-bound, bound) for _ in range(27)]
    flat[24:27] = [0, 0, 0]
    return Cube.from_coeffs(flat)


def test_convert_3to2_matches_the_dictionary_expansion(monkeypatch):
    # the rows alone: both routines check Delta, which takes most of a call
    # and which the next test and test_convert_3to2 cover; 40-digit entries
    # exercise height
    monkeypatch.setattr(construct, "discriminant", lambda m: 0)
    monkeypatch.setattr(old, "discriminant", lambda m: 0)
    rng = random.Random(2403)
    for bound in (1, 3, 10 ** 6, 10 ** 40):
        for _ in range(CORNER_CUBES):
            S = _corner_cube(rng, bound)
            assert convert_3to2(S) == old.convert_3to2(S)


# reversing both coordinate triples moves the point convert_2to3 places at
# ((1:0:0),(1:0:0)) to ((0:0:1),(0:0:1))
_REVERSE_XY = GroupElement("cube", 1, (
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
))


def test_convert_3to2_matches_on_cubes_of_forms():
    # nonsingular cubes with the corner point, the discriminant check included
    rng = random.Random(2404)
    for _ in range(300):
        F = TwoTwoForm.from_coeffs([0] + [rng.randint(-50, 50) for _ in range(8)])
        if discriminant(F) == 0:
            continue
        S = act(_REVERSE_XY, convert_2to3(F))
        assert convert_3to2(S) == old.convert_3to2(S)


@pytest.mark.parametrize("kind", ("form22", "cube", "hypercube"))
@pytest.mark.parametrize("p", (5, 7, 11, 101, (1 << 61) - 1))
def test_critical_model_matches_the_kind_ladder(kind, p):
    for seed in range(200):
        assert critical_model(kind, p, seed) == old.critical_model(kind, p, seed)
    # a shared generator advances the same way through both
    a, b = random.Random(p), random.Random(p)
    for _ in range(20):
        assert critical_model(kind, p, a) == old.critical_model(kind, p, b)


LEVEL_BASES = 6  # per kind, prime and coefficient pool


def _random_model(kind, pool, rng):
    while True:
        m = model_from_dict({"kind": kind,
                             "coeffs": [str(rng.choice(pool)) for _ in range(SPECS[kind].size)]})
        if discriminant(m) != 0:
            return m


def _kappa_one_models(kind, p, rng):
    """Two models whose marked points reach kappa 1 at p.  A (2,2)-form or
    cube carries the point (1/p^2, 1/p^3) of y^2 = x^3 + a p^2 x - a,
    a = +-1, moved to (0, 0) on the curve scaled by u = p; hypercubes,
    whose kappa may come from any of their three points, are drawn."""
    if kind != "hypercube":
        make = construct_22 if kind == "form22" else construct_cube
        return [make(0, 3, 2, 3 + a * p ** 6) for a in (1, -1)]
    found = []
    while len(found) < 2:
        m = _random_model(kind, (0, 1, -1, p, -p, p * p), rng)
        if old.level(m, p).kappa:
            found.append(m)
    return found


@pytest.mark.parametrize("kind", ("form22", "cube", "hypercube"))
@pytest.mark.parametrize("p", (2, 3, 5, 7, 65537, (1 << 61) - 1))
def test_level_matches_one_descent_per_marked_point(kind, p):
    # random models, with coefficients in [-5, 5] and with deep valuations,
    # and models of kappa 1, each inflated by 1 to 3 moves; critical models
    # at p >= 5
    rng = random.Random(p)
    bases = [_random_model(kind, pool, rng) for pool in (range(-5, 6), (0, 1, -1, p, -p, p * p))
             for _ in range(LEVEL_BASES)] + _kappa_one_models(kind, p, rng)
    models = [x for m in bases for x in [m] + [inflate(m, p, rng, moves=k)[0] for k in (1, 2, 3)]]
    if p >= 5:
        models += [critical_model(kind, p, rng) for _ in range(LEVEL_BASES)]
    reports = [level(m, p) for m in models]
    assert reports == [old.level(m, p) for m in models]
    assert sum(r.kappa == 1 for r in reports) >= 8
