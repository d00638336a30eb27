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
    TAG_UNIQUE_SINGULAR, _linear_factors, _singular_points_22, binary_roots,
    repeated_root,
)
from g1min.weierstrass import (
    WeierstrassCurve, _fp_cubic_roots, _singular_point_mod_p, _tate_walk,
)
import g1min.weierstrass as weierstrass

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
# Tate's walk


@pytest.mark.parametrize("p", PRIMES)
def test_cubic_roots_match_scan(p):
    rng = random.Random(4000 + p)
    if p <= 7:
        triples = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    else:
        triples = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(300)]
        for _ in range(40):  # double and triple roots
            r, s = rng.randrange(p), rng.randrange(p)
            a, b, c = _mul(_mul((-r, 1), (-r, 1)), (-s, 1))[2::-1]
            triples.append((a % p, b % p, c % p))
    for a, b, c in triples:
        assert _fp_cubic_roots(a, b, c, p) == scans._fp_cubic_roots(a, b, c, p)


def _translated(E, rng, p):
    r, s, t = (rng.randrange(-2 * p, 2 * p) for _ in range(3))
    return WeierstrassCurve(
        E.a1 + 2 * s, E.a2 - s * E.a1 + 3 * r - s * s, E.a3 + r * E.a1 + 2 * t,
        E.a4 - s * E.a3 + 2 * r * E.a2 - (t + r * s) * E.a1 + 3 * r * r - 2 * s * t,
        E.a6 + r * E.a4 + r * r * E.a2 + r ** 3 - t * E.a3 - t * t - r * t * E.a1)


@pytest.mark.parametrize("p", PRIMES)
def test_tate_singular_point_and_walk_match_scan(p, monkeypatch):
    rng = random.Random(5000 + p)
    curves = []
    for E in kodaira_family(p):
        curves += [E, _translated(E, rng, p)]
    while len(curves) < 60:
        E = WeierstrassCurve(*(rng.randint(-40, 40) for _ in range(5)))
        if E.disc != 0 and E.disc % p == 0:
            curves.append(E)
    for E in curves:
        assert _singular_point_mod_p(E, p) == scans._singular_point_mod_p(E, p), E
    walks = [_tate_walk(E, p) for E in curves]
    monkeypatch.setattr(weierstrass, "_fp_cubic_roots", scans._fp_cubic_roots)
    monkeypatch.setattr(weierstrass, "_singular_point_mod_p", scans._singular_point_mod_p)
    assert walks == [_tate_walk(E, p) for E in curves]
