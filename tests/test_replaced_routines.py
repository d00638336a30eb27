"""Differential tests: the routines that now do their job one way against
the ones they replaced (tests/replaced_routines.py)."""

import random

import pytest

import replaced_routines as old
from g1min import (
    Cube, GroupElement, TwoTwoForm, act, convert_2to3, convert_3to2, critical_model,
    discriminant,
)
from g1min import construct


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
