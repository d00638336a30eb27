"""Differential tests: the straight-line functions compiled from g1min's fixed
polynomial tables against the loops that evaluated those tables before
(tests/table_oracle.py), on every table and every mode-product axis, over
small, {0, ±1}-sparse, singular and 300-digit inputs, and rational ones where
a function takes raw tuples rather than a model."""

import ast
from fractions import Fraction
from pathlib import Path
import random
import subprocess
import sys

import pytest

import g1min
import g1min.invariants as invariants
import g1min.models as models
import table_oracle as oracle
from g1min import Cube, GroupElement, Hypercube, TernaryCubic, TwoTwoForm, act
from g1min.models import HYPERCUBE_PAIRS, SPECS

SRC = Path(g1min.__file__).resolve().parents[1]


def _values(rng, count, rational=True):
    """`count` entries of each sample family: small, {0, ±1}-sparse, 300-digit
    and, unless `rational` is false, rational, in that order."""
    return [
        [rng.randint(-9, 9) for _ in range(count)],
        [rng.choice((0, 0, 0, 1, -1)) for _ in range(count)],
        [rng.randrange(-10 ** 300, 10 ** 300) for _ in range(count)],
        *([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(count)]]
          if rational else []),
    ]


def _matrices(rng, n, rounds=10):
    """n x n matrices of every family, then singular ones: a repeated row, a
    zero row and the all-ones matrix."""
    out = []
    for _ in range(rounds):
        for flat in _values(rng, n * n):
            out.append(tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n)))
        A = [list(row) for row in out[-4]]
        A[-1] = list(A[0])
        out.append(tuple(map(tuple, A)))
        out.append(out[-2][:-1] + ((0,) * n,))
    out.append(((1,) * n,) * n)
    return out


def _tensors(rng, size, rounds=10, rational=True):
    """Flat coefficient tuples of every family, then singular ones: half of
    the entries zero, and the zero tensor.  A model takes int coefficients
    only: for one, `rational` is false."""
    out = []
    for _ in range(rounds):
        families = _values(rng, size, rational)
        out += families
        out.append(families[0][:size // 2] + [0] * (size - size // 2))
    out.append([0] * size)
    return out


@pytest.mark.parametrize("n, k", sorted(models._SYM_TABLES))
def test_sym_tables(n, k):
    rng = random.Random(7000 + 10 * n + k)
    for A in _matrices(rng, n):
        assert models.sym_power_matrix(A, k) == oracle.sym_power_matrix(A, k)


def test_derived_form_tables():
    rng = random.Random(7100)
    for coeffs in _tensors(rng, 27, rational=False):
        S = Cube.from_coeffs(coeffs)
        for axis in range(3):
            assert models.cubic_of_cube(S, axis) == oracle.cubic_of_cube(S, axis)
    for coeffs in _tensors(rng, 16, rational=False):
        H = Hypercube.from_coeffs(coeffs)
        for pair in HYPERCUBE_PAIRS:
            assert models.form_of_hypercube(H, *pair) == oracle.form_of_hypercube(H, *pair)
    for coeffs in _tensors(rng, 9, rational=False):
        F = TwoTwoForm.from_coeffs(coeffs)
        assert models.quartics_of_22(F) == oracle.quartics_of_22(F)


def test_cubic_invariant_tables():
    rng = random.Random(7200)
    for coeffs in _tensors(rng, 10, rational=False):
        F = TernaryCubic.from_coeffs(coeffs)
        assert invariants.c4_c6(F) == oracle._cubic_c4_c6(F)
        assert invariants.cubic_invariants(F)[:2] == oracle._cubic_c4_c6(F)


@pytest.mark.parametrize("kind", list(SPECS))
def test_mode_products(kind):
    rng = random.Random(7300 + len(kind))
    spec = SPECS[kind]
    for axis, fibres in enumerate(spec.fibres):
        n = spec.shape[axis]
        for t, M in zip(_tensors(rng, spec.size), _matrices(rng, n)):
            assert list(models._mode_product(t, M, fibres)) == oracle._mode_product(t, M, fibres)


@pytest.mark.parametrize("kind", list(SPECS))
def test_act_matches_the_loop_mode_product(kind, monkeypatch):
    rng = random.Random(7400 + len(kind))
    spec = SPECS[kind]
    cases = []
    for coeffs in _tensors(rng, spec.size, rounds=3, rational=False):
        while True:
            mats = tuple(tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
                         for n in spec.matrix_sizes)
            try:
                g = GroupElement(kind, Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2, 5))), mats)
                break
            except ValueError:  # a singular matrix
                continue
        cases.append((g, spec.model.from_coeffs(coeffs)))
    compiled = [act(g, m) for g, m in cases]
    monkeypatch.setattr(models, "_mode_product", oracle._mode_product)
    assert compiled == [act(g, m) for g, m in cases]


def test_a_replaced_table_gets_its_own_function(monkeypatch):
    A = ((1, 2, 3), (4, 5, 6), (7, 8, 10))
    before = models.sym_power_matrix(A, 3)
    table = models._SYM_TABLES[3, 3]
    doubled = tuple(tuple(tuple((2 * c, pos) for c, pos in entry) for entry in row)
                    for row in table)
    monkeypatch.setitem(models._SYM_TABLES, (3, 3), doubled)
    assert models.sym_power_matrix(A, 3) == tuple(tuple(2 * x for x in row) for row in before)
    monkeypatch.undo()
    assert models.sym_power_matrix(A, 3) == before


def test_importing_compiles_no_table():
    # tables are compiled on first use, so importing the package (and its CLI)
    # builds no straight-line function
    probe = ("import gc, g1min, g1min.cli, g1min.models as m\n"
             "print(len(m._COMPILED), sum(getattr(getattr(f, '__code__', None), 'co_filename', '')"
             " == '<straight-line>' for f in gc.get_objects()))")
    done = subprocess.run([sys.executable, "-B", "-c", probe], env={"PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["0", "0"]
    # ... while one use compiles exactly the table it reads
    probe = probe.replace("\nprint", "\nm.sym_power_matrix(((1, 2), (3, 4)), 2)\nprint")
    done = subprocess.run([sys.executable, "-B", "-c", probe], env={"PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["1", "1"]


def test_the_source_holds_only_table_ints():
    # every constant of a compiled function comes from a table: the source is
    # names, operators and ints, however large the input
    fn = models._compiled(invariants._C4_C6_TERMS, lambda table: models._straight_line(table, (10,)))
    assert fn is models._compiled(invariants._C4_C6_TERMS, None)
    source = models._horner([(c, tuple(sorted(pos))) for c, pos in invariants._C6_TERMS])
    tree = ast.parse(source, mode="eval")
    assert {type(node.value) for node in ast.walk(tree) if isinstance(node, ast.Constant)} == {int}
    assert {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} <= \
        {f"x{q}" for q in range(10)}
