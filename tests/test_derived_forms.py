"""Differential tests: the derived-form index tables of g1min.models against
the determinant expansions they replaced (tests/derived_form_oracle.py), on
every cube slicing and every hypercube axis pair."""

from fractions import Fraction
import random

import pytest

import derived_form_oracle as oracle
import g1min.models as models
from g1min import Cube, Hypercube, cubics_of_cube, forms_of_hypercube
from g1min.models import HYPERCUBE_PAIRS, cubic_of_cube, form_of_hypercube

from conftest import identity_hypercube, levi_civita_cube


def _huge(rng):
    """A random integer of 5000 digits, of either sign."""
    return rng.choice((-1, 1)) * rng.randrange(10 ** 4999, 10 ** 5000)


def _samples(rng, count, huge=0):
    """Random cubes and hypercubes with entries in [-10, 10], a few of them
    sparse, then `huge` of each kind with 5000-digit entries."""
    cubes, hypercubes = [], []
    for n in range(count):
        density = 0.3 if n % 4 == 0 else 1.0  # every fourth model mostly zero
        small = lambda: rng.randint(-10, 10) if rng.random() < density else 0
        cubes.append(Cube.from_coeffs([small() for _ in range(27)]))
        hypercubes.append(Hypercube.from_coeffs([small() for _ in range(16)]))
    cubes += [Cube.from_coeffs([_huge(rng) for _ in range(27)]) for _ in range(huge)]
    hypercubes += [Hypercube.from_coeffs([_huge(rng) for _ in range(16)]) for _ in range(huge)]
    return cubes, hypercubes


def _oracle_forms(cubes, hypercubes):
    return ([tuple(oracle.cubic_of_cube(S, axis) for axis in range(3)) for S in cubes],
            [{pair: oracle.form_of_hypercube(H, *pair) for pair in HYPERCUBE_PAIRS}
             for H in hypercubes])


def _mismatches(cubes, hypercubes, expected):
    """(kind, model index, axis or pair) wherever the tables disagree with the
    oracle forms `expected`."""
    cubics, forms = expected
    bad = []
    for n, S in enumerate(cubes):
        got = cubics_of_cube(S)
        assert len(got) == 3
        bad += [("cube", n, axis) for axis in range(3)
                if got[axis] != cubics[n][axis] or cubic_of_cube(S, axis) != cubics[n][axis]]
    for n, H in enumerate(hypercubes):
        got = forms_of_hypercube(H)
        assert list(got) == list(HYPERCUBE_PAIRS)
        bad += [("hypercube", n, pair) for pair in HYPERCUBE_PAIRS
                if got[pair] != forms[n][pair] or form_of_hypercube(H, *pair) != forms[n][pair]]
    return bad


def test_tables_match_the_determinant_expansions():
    rng = random.Random(9101)
    cubes, hypercubes = _samples(rng, 150, huge=2)
    cubes += [levi_civita_cube(), Cube.from_coeffs([0] * 27)]
    hypercubes += [identity_hypercube(), Hypercube.from_coeffs([0] * 16)]
    assert _mismatches(cubes, hypercubes, _oracle_forms(cubes, hypercubes)) == []


def test_tables_evaluate_rational_entries():
    rng = random.Random(9102)
    S = Cube.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                          for _ in range(27)])
    H = Hypercube.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                               for _ in range(16)])
    assert _mismatches([S], [H], _oracle_forms([S], [H])) == []


def _mutated(table, out, term, how, size):
    """The table with one term's sign flipped or its first position moved by one."""
    sign, first, *rest = table[out][term]
    new = (-sign, first, *rest) if how == "sign" else (sign, (first + 1) % size, *rest)
    terms = table[out][:term] + (new,) + table[out][term + 1:]
    return table[:out] + (terms,) + table[out + 1:]


@pytest.mark.parametrize("how", ["sign", "position"])
def test_a_mutated_table_entry_fails(how, monkeypatch):
    rng = random.Random(9103)
    cubes, hypercubes = _samples(rng, 40)
    expected = _oracle_forms(cubes, hypercubes)
    for _ in range(8):
        axis = rng.randrange(3)
        table = models._CUBE_TABLES[axis]
        out = rng.randrange(len(table))
        mutated = _mutated(table, out, rng.randrange(len(table[out])), how, 27)
        with monkeypatch.context() as mp:
            mp.setattr(models, "_CUBE_TABLES", models._CUBE_TABLES[:axis] + (mutated,)
                       + models._CUBE_TABLES[axis + 1:])
            bad = _mismatches(cubes, [], expected)
            assert {(kind, where) for kind, _, where in bad} == {("cube", axis)}
        pair = rng.choice(HYPERCUBE_PAIRS)
        table = models._HYPERCUBE_TABLES[pair]
        out = rng.randrange(len(table))
        mutated = _mutated(table, out, rng.randrange(len(table[out])), how, 16)
        with monkeypatch.context() as mp:
            mp.setattr(models, "_HYPERCUBE_TABLES", {**models._HYPERCUBE_TABLES, pair: mutated})
            bad = _mismatches([], hypercubes, expected)
            assert {(kind, where) for kind, _, where in bad} == {("hypercube", pair)}
    assert _mismatches(cubes, hypercubes, expected) == []
