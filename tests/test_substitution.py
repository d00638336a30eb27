"""Differential tests: the Sym^k index tables of g1min.models against the
substitutions they replaced (tests/substitution_oracle.py), for binary forms
of degree 2 and 4 and for ternary cubics."""

from operator import mul
import random

import pytest

import g1min.models as models
import substitution_oracle as oracle
from g1min import GroupElement, TernaryCubic, act
from g1min.exactnum import det_matrix
from g1min.models import CUBIC_MONOMIALS, monomials, sym_power_matrix


def _matrices(rng, n, count, bound=9):
    """Random n x n integer matrices, a few of them with zeros and one with
    200-digit entries; singular ones included, since Sym^k is polynomial."""
    out = []
    for i in range(count):
        density = 0.4 if i % 4 == 0 else 1.0
        out.append(tuple(tuple(rng.randint(-bound, bound) if rng.random() < density else 0
                               for _ in range(n)) for _ in range(n)))
    out.append(tuple(tuple(rng.randrange(-10 ** 200, 10 ** 200) for _ in range(n))
                     for _ in range(n)))
    return out


def _ternary_reference(A):
    """Sym^3(A) column by column: column i is the image of monomial i."""
    cols = [oracle.ternary_substitute(TernaryCubic.from_coeffs(
        [int(j == i) for j in range(10)]), A).coeffs for i in range(10)]
    return tuple(zip(*cols))


def test_monomial_orders():
    assert CUBIC_MONOMIALS == monomials(3, 3)
    for k in (2, 4):
        assert monomials(2, k) == tuple((k - i, i) for i in range(k + 1))


@pytest.mark.parametrize("k", [2, 4])
def test_binary_tables_match_the_expansion(k):
    rng = random.Random(100 + k)
    for A in _matrices(rng, 2, 200):
        M = sym_power_matrix(A, k)
        assert M == oracle.sym_power_matrix(A, k)
        coeffs = [rng.randint(-50, 50) for _ in range(k + 1)]
        assert [sum(map(mul, row, coeffs)) for row in M] == \
            oracle.binary_form_substitute(coeffs, A)


def test_ternary_table_matches_the_expansion():
    rng = random.Random(33)
    for A in _matrices(rng, 3, 100):
        assert sym_power_matrix(A, 3) == _ternary_reference(A)
        F = TernaryCubic.from_coeffs([rng.randint(-50, 50) for _ in range(10)])
        if det_matrix(A):
            assert act(GroupElement("cubic", 1, (A,)), F) == oracle.ternary_substitute(F, A)


def test_a_mutated_table_entry_fails(monkeypatch):
    # the comparison sees a single wrong coefficient in the (3, 3) table
    table = models._SYM_TABLES[3, 3]
    (c, positions), *rest = table[4][4]
    row = table[4][:4] + (((c + 1, positions), *rest),) + table[4][5:]
    monkeypatch.setitem(models._SYM_TABLES, (3, 3), table[:4] + (row,) + table[5:])
    A = ((1, 2, 3), (4, 5, 6), (7, 8, 10))
    assert sym_power_matrix(A, 3) != _ternary_reference(A)
