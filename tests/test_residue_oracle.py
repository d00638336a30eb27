"""Differential tests: the F_p root finder against the exhaustive scans it
replaced (tests/residue_scans.py), on every prime p <= 31, for random residues
and for the degenerate shapes each classifier must recognise."""

import itertools
import random

import pytest

import residue_scans as scans
from substitution_oracle import ternary_substitute
from g1min import LocalContext, TernaryCubic, TwoTwoForm, classify_22_residue, classify_cubic_residue
from g1min.models import GroupElement, act
from g1min.residue import (
    TAG_OTHER, TAG_PRODUCT_BOTH, TAG_PRODUCT_NONE, TAG_PRODUCT_ONE, TAG_REPEATED_LINE,
    TAG_UNIQUE_SINGULAR, _linear_factors, _singular_points_22,
    binary_roots, repeated_root,
)
from g1min.exactnum import valuation
from g1min.weierstrass import CurveMap, WeierstrassCurve, tate_minimal

from conftest import kodaira_family

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _non_residue(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _invertible(rng, n, p):
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        det = (m[0][0] * m[1][1] - m[0][1] * m[1][0] if n == 2 else
               sum(m[0][j] * (m[1][(j + 1) % 3] * m[2][(j + 2) % 3]
                              - m[1][(j + 2) % 3] * m[2][(j + 1) % 3]) for j in range(3)))
        if det % p:
            return m


def _cache_scan(monkeypatch, name, key):
    """Memoise a scan the scan classifier repeats after the test ran it."""
    scan, answers = getattr(scans, name), {}

    def cached(*args):
        k = key(*args)
        if k not in answers:
            answers[k] = scan(*args)
        return answers[k]

    monkeypatch.setattr(scans, name, cached)
    return cached


# ---------------------------------------------------------------------------
# binary forms


def _binary_cases(rng, p):
    def lin():
        return (rng.randrange(p), rng.randrange(p))

    cases = []
    for degree in (1, 2, 3, 4):
        cases += [tuple(rng.randrange(p) for _ in range(degree + 1)) for _ in range(12)]
    # double and triple roots, roots at (0:1) (x1 | f), at (1:0) (x2 | f)
    for _ in range(6):
        a, b, c = lin(), lin(), lin()
        cases += [_mul(_mul(a, a), _mul(b, c)), _mul(_mul(a, a), _mul(a, b)),
                  _mul(_mul(a, a), _mul(a, a)), _mul(_mul(a, a), _mul(b, b)),
                  _mul((1, 0), _mul(_mul(a, a), b)), _mul((1, 0), _mul((1, 0), _mul(a, b))),
                  _mul((0, 1), _mul((0, 1), _mul(a, b))), _mul(a, a)]
    if p > 2:
        # conjugate double pairs (x1^2 - n x2^2)^2, alone and with a rational factor
        n = _non_residue(p)
        q = (1, 0, -n)
        cases += [_mul(q, q), _mul(q, (0, 0, 1)), _mul(q, _mul(lin(), lin()))]
    else:
        q = (1, 1, 1)  # irreducible over F_2
        cases += [_mul(q, q), _mul(q, (0, 0, 1)), _mul(q, (1, 0, 0))]
    return [tuple(c % p for c in f) for f in cases if any(c % p for c in f)]


@pytest.mark.parametrize("p", PRIMES)
def test_binary_roots_and_repeated_root_match_scan(p):
    rng = random.Random(1000 + p)
    for f in _binary_cases(rng, p):
        assert binary_roots(f, p) == scans.binary_roots(f, p), f
        if len(f) == 5:
            assert repeated_root(f, p) == scans.repeated_root(f, p), f


@pytest.mark.parametrize("p", (2, 3, 5))
def test_repeated_root_matches_stripping_reference_on_every_form(p):
    # every nonzero quadratic and quartic over F_p
    for degree in (2, 4):
        for f in itertools.product(range(p), repeat=degree + 1):
            if any(f):
                assert repeated_root(f, p) == scans.repeated_root_by_stripping(f, p), f


@pytest.mark.parametrize("p, max_degree", [(2, 8), (3, 6)])
def test_repeated_root_matches_stripping_reference_up_to_degree(p, max_degree):
    # every nonzero form of every degree up to max_degree over F_p, so the
    # one squarefree test meets every cofactor the old quartic and gcd tests met
    for degree in range(1, max_degree + 1):
        for f in itertools.product(range(p), repeat=degree + 1):
            if any(f):
                assert repeated_root(f, p) == scans.repeated_root_by_stripping(f, p), f


def _poly_rem(f, g, p):
    """The remainder of f by a monic g over F_p, lists constant first."""
    f = list(f)
    for k in range(len(f) - len(g), -1, -1):
        c = f[k + len(g) - 1] % p
        for j, y in enumerate(g):
            f[k + j] -= c * y
    return [x % p for x in f[:len(g) - 1]]


def _monic(degree, p):
    return [list(tail) + [1] for tail in itertools.product(range(p), repeat=degree)]


def _irreducible_squares(max_degree, p):
    """The squares of the monic irreducibles of degree at most max_degree
    over F_p, each irreducible found by trial division by every monic of at
    most half its degree."""
    out = []
    for k in range(1, max_degree + 1):
        for g in _monic(k, p):
            if all(any(_poly_rem(g, h, p)) for d in range(1, k // 2 + 1) for h in _monic(d, p)):
                out.append(_mul(g, g))
    return out


def _has_irreducible_square(f, squares, p):
    """Whether the square of some monic irreducible divides f (constant first)."""
    return any(len(sq) <= len(f) and not any(_poly_rem(f, sq, p)) for sq in squares)


@pytest.mark.parametrize("p, degree", [(2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6), (3, 7)])
def test_repeated_root_matches_brute_force_past_degree_four(p, degree):
    # every nonzero form: the one multiple rational root, found by scanning
    # P^1(F_p), unless the rootless cofactor is divisible by the square of
    # a monic irreducible (found by trial division)
    squares = _irreducible_squares(degree // 2, p)
    outcomes = set()
    for f in itertools.product(range(p), repeat=degree + 1):
        if not any(f):
            continue
        roots, cofactor = scans._strip_rational_roots(f, p)
        multiple = [pt for pt, m in roots if m >= 2]
        expected = None
        if len(multiple) == 1 and not _has_irreducible_square(cofactor, squares, p):
            expected = multiple[0]
        assert repeated_root(f, p) == expected, f
        if len(multiple) == 1:
            outcomes.add((len(cofactor) - 1, expected is None))
    # every branch of the cofactor test is reached: separable cubics, square
    # quartics, and from degree 5 on the derivative gcd both ways
    assert (3, False) in outcomes
    if degree >= 6:
        assert (4, True) in outcomes
    if degree >= 7:
        assert (5, False) in outcomes
    if degree >= 8:
        assert (6, True) in outcomes


@pytest.mark.parametrize("p, degree", [(2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7)])
def test_is_square_form_matches_brute_force_on_rootless_forms(p, degree):
    # every form of the degree with no root on P^1(F_p): a repeated factor
    # exactly when the square of a monic irreducible divides it (never for
    # a rootless quintic, whose square factor would leave a linear one)
    squares = _irreducible_squares(degree // 2, p)
    answers = set()
    for f in itertools.product(range(p), repeat=degree + 1):
        if f[0] and f[-1] and not scans.binary_roots(f, p):
            answer = scans._is_square_form(f, p)
            assert answer == _has_irreducible_square(f, squares, p), f
            answers.add(answer)
    assert answers == ({False} if degree == 5 else {True, False})


def test_repeated_root_matches_stripping_reference_at_65537():
    p = 65537
    rng = random.Random(65537)
    cases = [f for f in _binary_cases(rng, p) if len(f) in (3, 5)]
    cases += [tuple(rng.randrange(p) for _ in range(n)) for n in (3, 5) for _ in range(200)]
    assert sum(repeated_root(f, p) is not None for f in cases) >= 20
    for f in cases:
        assert repeated_root(f, p) == scans.repeated_root_by_stripping(f, p), f


# ---------------------------------------------------------------------------
# (2,2)-forms


def _form22_from_product(g, h):
    """g(x) h(y) as a (2,2)-form."""
    return TwoTwoForm(tuple(tuple(a * b for b in h) for a in g))


def _form22_cases(rng, p):
    def quad():
        return tuple(rng.randrange(p) for _ in range(3))

    cases = [TwoTwoForm(tuple(quad() for _ in range(3))) for _ in range(40)]
    for _ in range(4):
        u, v = quad(), quad()
        # a unique singular point at ((1:0),(1:0)): x2 y2 (a x1 y2 + b x2 y1 + c x2 y2)
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        cases.append(TwoTwoForm(((0, 0, 0), (0, 0, a), (0, b, rng.randrange(p)))))
        # G1 = 0: (l1(x) y1 + l2(x) y2)^2 times a unit
        l1, l2 = (rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p))
        c = rng.randrange(1, p)
        sq = [[0] * 3 for _ in range(3)]
        for col, coeffs in enumerate((_mul(l1, l1), [2 * x for x in _mul(l1, l2)], _mul(l2, l2))):
            for row in range(3):
                sq[row][col] = c * coeffs[row]
        cases.append(TwoTwoForm(tuple(tuple(r) for r in sq)))
        # product types g(x) h(y): double root, separable, irreducible
        double = tuple(_mul(u[:2], u[:2]))
        for g in (double, u, (1, 0, -_non_residue(p)) if p > 2 else (1, 1, 1)):
            for h in (tuple(_mul(v[:2], v[:2])), v):
                cases.append(_form22_from_product(g, h))
        # a fixed rank-2 form: x1 x2 (y1^2 + y2^2) + x2^2 y1 y2
        cases.append(TwoTwoForm(((0, 0, 0), (1, 0, 1), (0, 1, 0))))
    out = []
    for F in cases:
        mats = (_invertible(rng, 2, p), _invertible(rng, 2, p))
        for G in (F, act(GroupElement("form22", 1, mats), F)):
            out.append(TwoTwoForm.from_coeffs([c % p for c in G.coeffs]))
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_form22_singular_points_and_classes_match_scan(p, monkeypatch):
    rng = random.Random(2000 + p)
    ctx = LocalContext(p)
    point_scan = _cache_scan(monkeypatch, "_singular_points_22", lambda rows, p: rows)
    tags = set()
    for F in _form22_cases(rng, p):
        cls = classify_22_residue(F, ctx)
        assert cls == scans.classify_22_residue(F, ctx), F
        tags.add(cls.tag)
        rows = F.rows
        if any(rows) and scans.fp_rank(rows, p) >= 2:
            new, old = _singular_points_22(F, rows, p), point_scan(rows, p)
            if new is None:  # a singular curve
                assert len(old) == p + 1, F
            else:
                assert new == old, F
    assert tags >= {TAG_OTHER, TAG_PRODUCT_BOTH, TAG_PRODUCT_ONE, TAG_PRODUCT_NONE,
                    TAG_UNIQUE_SINGULAR}


# ---------------------------------------------------------------------------
# ternary cubics


def _poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _linear(ell):
    return {e: c for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ell)}


def _rootless_cubic(p):
    """(a, b, c) with t^3 + a t^2 + b t + c irreducible over F_p."""
    return next((a, b, c) for a, b, c in itertools.product(range(p), repeat=3)
                if all((t ** 3 + a * t * t + b * t + c) % p for t in range(p)))


def _det3(m):
    """The determinant of a 3x3 matrix of forms (dicts)."""
    out = {}
    for (i, j, k), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        for e, c in _poly_mul(_poly_mul(m[0][i], m[1][j]), m[2][k]).items():
            out[e] = out.get(e, 0) + sign * c
    return out


def _conjugate_triangle(p):
    """The norm form of x + t y + t^2 z for a cubic irrationality t: three
    conjugate lines without a common point."""
    a, b, c = _rootless_cubic(p)
    companion = ((0, 1, 0), (0, 0, 1), (-c, -b, -a))
    square = tuple(tuple(sum(companion[i][k] * companion[k][j] for k in range(3))
                         for j in range(3)) for i in range(3))
    return _det3([[_linear((int(i == j), companion[i][j], square[i][j])) for j in range(3)]
                  for i in range(3)])


def _cubic_cases(rng, p):
    def line():
        return _linear([rng.randrange(p) for _ in range(3)])

    cases = [TernaryCubic(tuple(rng.randrange(p) for _ in range(10))) for _ in range(6)]
    n = _non_residue(p) if p > 2 else 1
    # y^2 - n z^2 is an irrational line pair through (1:0:0) (y^2 + yz + z^2 at p = 2)
    pair = {(0, 2, 0): 1, (0, 0, 2): -n} if p > 2 else {(0, 2, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1}
    ell = line()
    x, y = _linear((1, 0, 0)), _linear((0, 1, 0))
    cases += [TernaryCubic.from_dict(f) for f in (
        _poly_mul(_poly_mul(line(), line()), line()),         # three random lines
        _poly_mul(_poly_mul(ell, ell), line()),                # l^2 m
        _poly_mul(_poly_mul(ell, ell), ell),                   # l^3
        _poly_mul(_poly_mul(x, y), _linear((1, 1, 0))),        # three concurrent lines
        _poly_mul(x, pair),                                    # the trap: vertex off the line
        _poly_mul(y, pair),                                    # vertex on the line
        _poly_mul(line(), {(2, 0, 0): 1, (0, 1, 1): 1}),       # line times a smooth conic
        {(0, 2, 1): 1, (3, 0, 0): -1},                         # cuspidal cubic
        {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1},          # nodal cubic
        _conjugate_triangle(p),                                # three conjugate lines
        dict(zip(((3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0)),  # ... through one point
                 (1, *_rootless_cubic(p)))),
        _poly_mul(_linear((0, 0, 1)), {(1, 0, 1): 1, (0, 2, 0): -1}),  # tangent to a conic
    )]
    if p == 3:  # x^3 + d(y, z), d irreducible: the first centre is inseparable
        cases.append(TernaryCubic.from_dict({(3, 0, 0): 1, (0, 3, 0): 1, (0, 1, 2): -1,
                                             (0, 0, 3): -1}))
    out = []
    for F in cases:
        for G in (F, ternary_substitute(F, _invertible(rng, 3, p))):
            out.append(TernaryCubic.from_coeffs([c % p for c in G.coeffs]))
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_cubic_line_factors_and_classes_match_scan(p, monkeypatch):
    rng = random.Random(3000 + p)
    ctx = LocalContext(p)
    line_scan = _cache_scan(monkeypatch, "_linear_factors",
                            lambda fdict, p, degree: (tuple(sorted(fdict.items())), degree))
    tags = set()
    for F in _cubic_cases(rng, p):
        f = [c % p for c in F.coeffs]
        if any(f):
            assert _linear_factors(f, p) == line_scan(scans._cubic_residue(F, p), p, 3), F
        cls = classify_cubic_residue(F, ctx)
        assert cls == scans.classify_cubic_residue(F, ctx), F
        tags.add(cls.tag)
    assert tags >= {TAG_OTHER, TAG_REPEATED_LINE, TAG_UNIQUE_SINGULAR}


def test_every_cubic_at_2_matches_scan():
    ctx = LocalContext(2)
    for coeffs in itertools.product(range(2), repeat=10):
        if any(coeffs):
            F = TernaryCubic(coeffs)
            assert classify_cubic_residue(F, ctx) == scans.classify_cubic_residue(F, ctx), F


# ---------------------------------------------------------------------------
# local minimal models


def _translated(E, rng, p):
    r, s, t = (rng.randrange(-2 * p, 2 * p) for _ in range(3))
    return WeierstrassCurve(
        E.a1 + 2 * s, E.a2 - s * E.a1 + 3 * r - s * s, E.a3 + r * E.a1 + 2 * t,
        E.a4 - s * E.a3 + 2 * r * E.a2 - (t + r * s) * E.a1 + 3 * r * r - 2 * s * t,
        E.a6 + r * E.a4 + r * r * E.a2 + r ** 3 - t * E.a3 - t * t - r * t * E.a1)


def _inflated(E, u):
    return WeierstrassCurve(*(a * u ** w for a, w in zip(E.a_invariants(), (1, 2, 3, 4, 6))))


def _tate_cases(p, rng):
    """The Kodaira family at p, each curve translated, random curves with
    p | disc, and a third of these, translated, inflated by u = p and p^2."""
    curves = []
    for E in kodaira_family(p):
        curves += [E, _translated(E, rng, p)]
    while len(curves) < 60:
        E = WeierstrassCurve(*(rng.randint(-40, 40) for _ in range(5)))
        if E.disc != 0 and E.disc % p == 0:
            curves.append(E)
    return curves + [_translated(_inflated(E, p ** k), rng, p)
                     for E in curves[::3] for k in (1, 2)]


def _rescales_by_p(E, p):
    """Whether CurveMap(p, r, s, t) takes E to an integral curve for some
    r mod p^2, s mod p and t mod p^3.  The search is complete: when both
    curves are integral and v(u) >= 0, r, s and t are integral, and following
    the map by the integral translation (1, k, j, l), which keeps the image
    integral, moves r by p^2 k, s by p j and t by p^2 k s + p^3 l."""
    for s in range(p):
        if (E.a1 + 2 * s) % p:
            continue
        for r in range(p * p):
            if (E.a2 - s * E.a1 + 3 * r - s * s) % p ** 2:
                continue
            if any(CurveMap(p, r, s, t).apply(E).is_integral() for t in range(p ** 3)):
                return True
    return False


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_tate_walk_against_exhaustive_rescaling(p):
    # no model the descent returns has an integral model with u = p, its map
    # takes the input there, and it rescales exactly when its input has one
    rescaled = 0
    for E in _tate_cases(p, random.Random(6000 + p)):
        E_min, cmap, v = tate_minimal(E, p)
        assert cmap.apply(E) == E_min, E
        assert v == valuation(E_min.disc, p)
        assert not _rescales_by_p(E_min, p), E
        assert (cmap.u > 1) == _rescales_by_p(E, p), E
        rescaled += cmap.u > 1
    assert rescaled >= 20
