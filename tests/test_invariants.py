from collections import Counter
from fractions import Fraction
from itertools import permutations, product
import json
from math import lcm
import random

import pytest

from g1min import (
    BinaryQuartic, Cube, GroupElement, Hypercube, Point, TernaryCubic,
    TwoTwoForm, WeierstrassCurve, act, cube_invariants, cubic_invariants,
    discriminant, form22_invariants, hypercube_invariants, on_curve, quartic_invariants,
)
from g1min.cli import main
from g1min.exactnum import det_matrix
from g1min.invariants import _C4_TERMS, _C6_TERMS
from g1min.models import CUBIC_MONOMIALS, SPECS

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


def _cli_invariants(tmp_path, capsys, kind, coeffs):
    """The weight-4, 6 and 12 invariants `g1min invariants --json` reports
    for a model file with these coefficients, as Fractions."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": kind, "coeffs": [str(c) for c in coeffs]}))
    assert main(["invariants", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    return tuple(Fraction(doc[name]) for name in _NAMES[kind])


_NAMES = {"quartic": ("I", "J", "Delta"), "cubic": ("c4", "c6", "Delta")}


def test_invariants_of_rational_models(tmp_path, capsys):
    # the command line reads x^4/2 + 3 y^4 as twice itself, x^4 + 6 y^4, and
    # divides each invariant back by 2^degree
    i_inv, j_inv, disc = quartic_invariants(BinaryQuartic((1, 0, 0, 0, 6)))
    assert _cli_invariants(tmp_path, capsys, "quartic", ("1/2", 0, 0, 0, 3)) == (
        Fraction(i_inv, 2 ** 2), Fraction(j_inv, 2 ** 3), Fraction(disc, 2 ** 6))


# the degrees in the coefficients of the invariants of weights 4, 6 and 12:
# w / 2 for quartics, w for ternary cubics
_SAMPLERS = {"quartic": random_quartic, "cubic": random_cubic}
_DEGREES = {"quartic": (2, 3, 6), "cubic": (4, 6, 12)}


def _one_rational_coefficient(kind, rng):
    coeffs = list(nonzero_disc(_SAMPLERS[kind], rng).coeffs)
    den = rng.randint(2, 7)
    coeffs[rng.randrange(len(coeffs))] += Fraction(rng.randint(1, den - 1), den)
    return coeffs


@pytest.mark.parametrize("kind", _SAMPLERS)
def test_invariants_of_rational_models_follow_homogeneity(kind, tmp_path, capsys):
    # the invariants the command line reports for a rational model m are
    # those of any integral multiple den m divided by den^degree, and those
    # of mu m, mu rational, are mu^degree times them
    rng = random.Random(f"rational {kind}")
    invariants = quartic_invariants if kind == "quartic" else cubic_invariants
    for _ in range(100):
        coeffs = _one_rational_coefficient(kind, rng)
        values = _cli_invariants(tmp_path, capsys, kind, coeffs)
        den = rng.choice((1, -1)) * rng.randint(1, 3) * lcm(*(c.denominator for c in map(
            Fraction, coeffs)))
        multiple = SPECS[kind].model.from_coeffs(int(den * c) for c in coeffs)
        assert values == tuple(Fraction(x, den ** d)
                               for x, d in zip(invariants(multiple), _DEGREES[kind]))
        mu = Fraction(rng.choice((1, -1)) * rng.randint(1, 30), rng.randint(1, 30))
        assert _cli_invariants(tmp_path, capsys, kind, [mu * c for c in coeffs]) == tuple(
            x * mu ** d for x, d in zip(values, _DEGREES[kind]))
        c4, c6, disc = values
        assert (4 * c4 ** 3 - c6 ** 2 == 27 * disc if kind == "quartic"
                else c4 ** 3 - c6 ** 2 == 1728 * disc)
