from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import lcm
import random

import pytest

from g1min import (
    BinaryQuartic, Cube, GroupElement, Hypercube, Point, TernaryCubic,
    TwoTwoForm, WeierstrassCurve, act, c4_c6, cube_invariants, cubic_invariants,
    discriminant, form22_invariants, hypercube_invariants, is_integral, on_curve,
    quartic_invariants, scalar_multiply,
)
from g1min.exactnum import det_matrix
from g1min.invariants import _C4_TERMS, _C6_TERMS
from g1min.models import CUBIC_MONOMIALS

from group_law import IDENTITY, point_add
from substitution_oracle import ternary_substitute
from conftest import (
    levi_civita_cube, identity_hypercube, nonzero_disc, random_cube, random_cubic,
    random_form22, random_hypercube, random_quartic,
)


def test_quartic_invariant_examples():
    assert quartic_invariants(BinaryQuartic((1, 0, 0, 0, 1))) == (12, 0, 256)
    assert quartic_invariants(BinaryQuartic((0, 1, 0, 1, 0))) == (-3, 0, -4)
    assert quartic_invariants(BinaryQuartic((0, 0, 0, 0, 0))) == (0, 0, 0)


def test_cubic_invariant_examples():
    xyz = TernaryCubic.from_dict({(1, 1, 1): 1})
    assert cubic_invariants(xyz) == (1, -1, 0)

    fermat = TernaryCubic.from_dict({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    c4, c6, disc = cubic_invariants(fermat)
    assert c4 ** 3 - c6 ** 2 == 1728 * disc
    assert disc != 0

    assert cubic_invariants(TernaryCubic((0,) * 10)) == (0, 0, 0)


def test_cubic_invariant_tables_are_sl3_invariant():
    # x_j -> x_j + t x_i moves the coefficients by the derivation
    # D_ij c_e = (e_j + 1) c_{e - eps_i + eps_j}, for e_i >= 1.  Each table
    # must go to the zero polynomial under all six D_ij, which generate sl3:
    # so each is an SL3-invariant, as an exact polynomial identity
    index = {e: n for n, e in enumerate(CUBIC_MONOMIALS)}
    for terms in (_C4_TERMS, _C6_TERMS):
        for i, j in permutations(range(3), 2):
            image = Counter()
            for c, mono in terms:
                for pos, n in enumerate(mono):
                    e = list(CUBIC_MONOMIALS[n])
                    if e[i]:
                        weight = e[j] + 1
                        e[i], e[j] = e[i] - 1, e[j] + 1
                        moved = (*mono[:pos], index[tuple(e)], *mono[pos + 1:])
                        image[tuple(sorted(moved))] += c * weight
            assert not any(image.values()), (len(terms), i, j)


def test_cubic_invariants_match_weierstrass_curves():
    # y^2 z + a1 xyz + a3 y z^2 - x^3 - a2 x^2 z - a4 x z^2 - a6 z^3 must
    # reproduce the curve's own c4 and c6.  Both sides have degree <= 6 in
    # each a_i, so the 7^5 grid makes this a polynomial identity; with the
    # SL3-invariance above it pins both tables, since GL3 and scalars take
    # Weierstrass cubics onto every smooth ternary cubic
    for a1, a2, a3, a4, a6 in product(range(-3, 4), repeat=5):
        F = TernaryCubic.from_dict({
            (0, 2, 1): 1, (1, 1, 1): a1, (0, 1, 2): a3,
            (3, 0, 0): -1, (2, 0, 1): -a2, (1, 0, 2): -a4, (0, 0, 3): -a6,
        })
        E = WeierstrassCurve(a1, a2, a3, a4, a6)
        assert cubic_invariants(F)[:2] == (E.c4, E.c6)


def test_cubic_invariant_weights(rng):
    for _ in range(12):
        F = TernaryCubic(tuple(rng.randint(-5, 5) for _ in range(10)))
        while True:
            A = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
            if det_matrix(A):
                break
        FA = ternary_substitute(F, A)
        d = det_matrix(A)
        c4, c6, disc = cubic_invariants(F)
        c4a, c6a, disca = cubic_invariants(FA)
        assert (c4a, c6a, disca) == (d ** 4 * c4, d ** 6 * c6, d ** 12 * disc)


def test_form22_invariant_examples():
    inv = form22_invariants(TwoTwoForm(((1, 0, 0), (0, 0, -1), (1, 0, 0))))
    assert (inv.c4, inv.c6, inv.disc) == (-48, 0, -64)
    assert (inv.xi, inv.eta) == (0, 0)
    assert (inv.u, inv.v) == (0, 0)
    assert inv.a_invariants == (0, 0, 0, 1, 0)  # y^2 = x^3 + x

    inv = form22_invariants(TwoTwoForm(((0, 0, 0), (0, 1, 0), (0, 0, 0))))
    assert (inv.c4, inv.c6, inv.disc) == (1, -1, 0)
    assert (inv.u, inv.v) == (1, 0)
    assert (3 * inv.u) ** 3 - 27 * inv.c4 * (3 * inv.u) - 54 * inv.c6 == 0

    zero = form22_invariants(TwoTwoForm(((0,) * 3,) * 3))
    assert (zero.c4, zero.c6, zero.disc) == (0, 0, 0)


def test_cube_invariant_example():
    diag = Cube((
        ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
    ))
    inv = cube_invariants(diag)
    assert (inv.c4, inv.c6) == (1, -1)
    assert (inv.xi, inv.eta) == (0, 0)
    assert inv.a_invariants[0] == 1
    assert (inv.u, inv.v) == (1, 0)

    assert discriminant(levi_civita_cube()) == 0
    assert cube_invariants(Cube((((0,) * 3,) * 3,) * 3)).disc == 0


def test_syzygy_and_marked_point_on_random_forms(rng):
    # the constructors raise if the syzygy or the curve membership fails
    for _ in range(300):
        form22_invariants(random_form22(rng, bound=20))
    for _ in range(300):
        cube_invariants(random_cube(rng, bound=20))


@pytest.mark.parametrize("kind", ["form22", "cube"])
def test_invariant_weights_under_group(kind, rng):
    sizes = {"form22": (2, 2), "cube": (3, 3, 3)}[kind]
    sampler = {"form22": random_form22, "cube": random_cube}[kind]
    build = {"form22": form22_invariants, "cube": cube_invariants}[kind]
    for _ in range(10):
        m = sampler(rng)
        mats = []
        for n in sizes:
            while True:
                A = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
                if det_matrix(A):
                    break
            mats.append(A)
        la = rng.randint(1, 3)
        g = GroupElement(kind, la, tuple(mats))
        chi = g.chi()
        inv0, inv1 = build(m), build(act(g, m))
        assert inv1.c4 == chi ** 4 * inv0.c4
        assert inv1.c6 == chi ** 6 * inv0.c6
        assert inv1.disc == chi ** 12 * inv0.disc
        assert inv1.u == chi ** 2 * inv0.u
        assert inv1.v == chi ** 3 * inv0.v


def test_hypercube_invariants_identity_pattern():
    hi = hypercube_invariants(identity_hypercube())
    assert hi.disc == 0  # the corner form is a perfect square


def test_hypercube_marked_points_sum_to_zero(rng):
    checked = 0
    while checked < 12:
        H = nonzero_disc(random_hypercube, rng)
        hi = hypercube_invariants(H)
        E = WeierstrassCurve(0, 0, 0, -27 * hi.c4, -54 * hi.c6)
        pts = [Point(x, y) for x, y in hi.points_on_common_model]
        assert all(on_curve(E, P) for P in pts)
        total = point_add(E, point_add(E, pts[0], pts[1]), pts[2])
        assert total is IDENTITY
        checked += 1


def test_hypercube_invariants_zero():
    zero = Hypercube(((((0,) * 2,) * 2,) * 2,) * 2)
    hi = hypercube_invariants(zero)
    assert (hi.c4, hi.c6, hi.disc) == (0, 0, 0)


def test_invariants_of_rational_models():
    F = TwoTwoForm(((Fraction(1, 2), 0, 0), (0, 0, -1), (1, 0, 0)))
    inv = form22_invariants(F)
    assert inv.disc == discriminant(F)


# Delta's degree in the coefficients; an invariant of weight w of a (2,2)-form
# has degree w, of a cube 3w
_SAMPLERS = {"quartic": random_quartic, "cubic": random_cubic, "form22": random_form22,
             "cube": random_cube, "hypercube": random_hypercube}
_DISC_DEGREE = {"quartic": 6, "cubic": 12, "form22": 12, "cube": 36, "hypercube": 24}
_SET_WEIGHTS = {"c4": 4, "c6": 6, "disc": 12, "xi": 2, "eta": 3, "u": 2, "v": 3}


def _one_rational_coefficient(kind, rng):
    M = nonzero_disc(_SAMPLERS[kind], rng)
    coeffs = list(M.coeffs)
    den = rng.randint(2, 7)
    coeffs[rng.randrange(len(coeffs))] += Fraction(rng.randint(1, den - 1), den)
    return type(M).from_coeffs(coeffs)


@pytest.mark.parametrize("kind", _SAMPLERS)
def test_invariants_of_rational_models_follow_homogeneity(kind):
    # Delta(m) = Delta(mu m) / mu^deg for any rational mu, the integral
    # multiple den * m computed on the integral path; the formulas divide
    # exactly only on integral models, so before homogeneity took over some
    # rational (2,2)-forms and hypercubes raised ArithmeticError
    rng = random.Random(f"rational {kind}")
    deg = _DISC_DEGREE[kind]
    for _ in range(100):
        m = _one_rational_coefficient(kind, rng)
        assert not is_integral(m)
        disc = discriminant(m)
        den = lcm(*(Fraction(c).denominator for c in m.coeffs))
        assert disc == Fraction(discriminant(scalar_multiply(m, den)), den ** deg)
        mu = Fraction(rng.choice((1, -1)) * rng.randint(1, 30), rng.randint(1, 30))
        assert disc == Fraction(discriminant(scalar_multiply(m, mu))) / mu ** deg
        c4, c6 = c4_c6(m)
        if kind == "quartic":
            assert quartic_invariants(m) == (c4, c6, disc) and 4 * c4 ** 3 - c6 ** 2 == 27 * disc
        else:
            assert c4 ** 3 - c6 ** 2 == 1728 * disc
        if kind == "cubic":
            assert cubic_invariants(m) == (c4, c6, disc)
        if kind == "hypercube":
            hi = hypercube_invariants(m)
            assert (hi.c4, hi.c6, hi.disc) == (c4, c6, disc)
        if kind in ("form22", "cube"):
            inv = (form22_invariants if kind == "form22" else cube_invariants)(m)
            scaled = (form22_invariants if kind == "form22" else cube_invariants)(
                scalar_multiply(m, den))
            k = 1 if kind == "form22" else 3
            for name, w in _SET_WEIGHTS.items():
                assert getattr(inv, name) == Fraction(getattr(scaled, name), den ** (w * k))
            assert inv.a_invariants == tuple(Fraction(a, den ** (w * k)) for a, w in zip(
                scaled.a_invariants, (1, 2, 3, 4, 6)))
            assert (c4, c6, disc) == (inv.c4, inv.c6, inv.disc)
            assert on_curve(WeierstrassCurve(*inv.a_invariants), Point(inv.xi, inv.eta))
