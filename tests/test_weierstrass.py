from fractions import Fraction
import math
import random

import pytest

from g1min import (
    CurveMap, LocalContext, Point, WeierstrassCurve, construct_22, inflate,
    kappa, level, minimal_discriminant_valuation, minimal_model, on_curve,
    valuation,
)
from g1min.weierstrass import LevelReport, _kappa_on_minimal

from conftest import kodaira_family, random_marked, scaled_model
from group_law import IDENTITY, point_add, point_double, point_mul, point_neg
from replaced_routines import closed_form_minimal


def scale_curve(E, u):
    return WeierstrassCurve(E.a1 * u, E.a2 * u ** 2, E.a3 * u ** 3,
                            E.a4 * u ** 4, E.a6 * u ** 6)


def is_int_curve(E):
    """Whether E is a curve that holds ints, as every curve `apply` returns does."""
    return E is not None and all(type(a) is int for a in E.a_invariants())


def image_point(cmap, P):
    """P's image under cmap, x' = (x - r)/u^2 and y' = (y - s(x - r) - t)/u^3,
    computed in Fractions, with its integral coordinates as ints."""
    x = Fraction(P.x - cmap.r, cmap.u ** 2)
    y = Fraction(P.y - cmap.s * (P.x - cmap.r) - cmap.t, cmap.u ** 3)
    return Point(*(c.numerator if c.denominator == 1 else c for c in (x, y)))


def random_curve(rng, bound=6):
    while True:
        E = WeierstrassCurve(*(rng.randint(-bound, bound) for _ in range(5)))
        if E.disc != 0:
            return E


def test_standard_quantities():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    assert (E.c4, E.disc) == (-48, -64)
    E = WeierstrassCurve(0, 0, 1, 0, 0)
    assert E.disc == -27
    E = WeierstrassCurve(0, -1, 1, -10, -20)
    assert E.disc == -161051  # -11^5


def test_b_relations(rng):
    for _ in range(100):
        E = WeierstrassCurve(*(rng.randint(-9, 9) for _ in range(5)))
        assert 4 * E.b8 == E.b2 * E.b6 - E.b4 ** 2
        assert 1728 * E.disc == E.c4 ** 3 - E.c6 ** 2


def test_group_law_basics():
    E = WeierstrassCurve(0, 0, 1, -1, 0)
    P = Point(0, 0)
    assert on_curve(E, P)
    assert point_add(E, P, IDENTITY) == P
    assert point_add(E, P, point_neg(E, P)) is IDENTITY
    Q = point_double(E, P)
    assert on_curve(E, Q)
    assert Q == Point(Fraction(1), Fraction(0))
    # associativity on a small chain
    twoP, threeP = point_mul(E, 2, P), point_mul(E, 3, P)
    assert point_add(E, twoP, threeP) == point_mul(E, 5, P)
    assert point_add(E, P, point_add(E, twoP, threeP)) == point_mul(E, 6, P)
    assert point_mul(E, -3, P) == point_neg(E, threeP)
    # the identity stays the identity under negation
    assert point_neg(E, IDENTITY) is IDENTITY


def test_points_are_affine():
    # the library never needs the point at infinity; the group law of the
    # tests keeps its own
    with pytest.raises(TypeError):
        Point()
    with pytest.raises(TypeError):
        iter(Point(0, 0))


def test_point_add_rejects_off_curve():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        point_add(E, Point(1, 1), IDENTITY)


def test_minimal_discriminant_examples():
    assert minimal_discriminant_valuation(WeierstrassCurve(0, 0, 0, 1, 0), 2)[0] == 6
    assert minimal_discriminant_valuation(WeierstrassCurve(0, 0, 1, 0, 0), 3)[0] == 3


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_scaling_recovery_oracle(p, rng):
    ctx = LocalContext(p)
    for _ in range(25):
        E = random_curve(rng)
        v0, _ = minimal_discriminant_valuation(E, ctx)
        for k in (1, 2):
            Es = scale_curve(E, p ** k)
            v1, cmap = minimal_discriminant_valuation(Es, ctx)
            assert v1 == v0
            Emin = cmap.apply(Es)
            assert is_int_curve(Emin)
            assert valuation(Emin.disc, p) == v0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_invariance_under_integral_changes(p, rng):
    ctx = LocalContext(p)
    for _ in range(25):
        E = random_curve(rng)
        v0, _ = minimal_discriminant_valuation(E, ctx)
        r, s, t = (rng.randint(-6, 6) for _ in range(3))
        Ej = CurveMap(1, r, s, t).apply(E)
        assert minimal_discriminant_valuation(Ej, ctx)[0] == v0


@pytest.mark.parametrize("p", [2, 3])
def test_obfuscated_scaling_recovery(p, rng):
    ctx = LocalContext(p)
    for _ in range(40):
        E = random_curve(rng, bound=4)
        v0, _ = minimal_discriminant_valuation(E, ctx)
        Es = scale_curve(E, p)
        r, s, t = (rng.randint(0, p ** 3) for _ in range(3))
        Ej = CurveMap(1, r, s, t).apply(Es)
        assert minimal_discriminant_valuation(Ej, ctx)[0] == v0


def test_large_prime_minimality_criterion(rng):
    # for p >= 5 a minimal model has v(c4) < 4 or v(Delta) < 12
    for p in (5, 7, 13):
        ctx = LocalContext(p)
        for _ in range(20):
            E = random_curve(rng)
            Emin, _, vmin = minimal_model(scale_curve(E, p), p)
            assert vmin == valuation(Emin.disc, p)
            assert Emin.c4 == 0 and vmin < 12 or (
                valuation(Emin.c4, p) < 4 or vmin < 12)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_tate_maps_are_integral(p):
    # on integral input the descent composes u = p steps, each with an
    # integral translation: its map holds ints, u is a power of p, and it
    # takes the curve to the minimal model it returns
    rescaled = 0
    for E in kodaira_family(p):
        Emin, cmap, vmin = minimal_model(E, p)
        assert all(type(x) is int for x in (cmap.u, cmap.r, cmap.s, cmap.t)), E
        k = valuation(cmap.u, p)
        assert cmap.u == p ** k
        assert cmap.apply(E) == Emin
        assert valuation(E.disc, p) == vmin + 12 * k
        rescaled += k > 0
    assert rescaled > 0


def test_curve_map_divides_exactly():
    # apply returns an int curve where every division by the power of u is
    # exact, and None where one is not (16/81 and 64/729 at u = 3)
    E = WeierstrassCurve(0, 0, 0, 16, 64)
    assert CurveMap(2, 0, 0, 0).apply(E) == WeierstrassCurve(0, 0, 0, 1, 1)
    assert is_int_curve(CurveMap(2, 0, 0, 0).apply(E))
    assert CurveMap(3, 0, 0, 0).apply(E) is None


def _fraction_image(cmap, E):
    """The a-invariants of cmap's image of E in Fractions, read off the
    substituted equation rather than the transformation formulas:
    G(X, Y) = F(u^2 X + r, u^3 Y + s u^2 X + t) / u^6, for
    F(x, y) = y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6, is the image's
    own F, so its values at (0, 0), (0, 1), (1, 0), (-1, 0) and (1, 1)
    give a6', a3', a2' and a4', then a1'."""
    u, r, s, t = cmap.u, cmap.r, cmap.s, cmap.t

    def G(X, Y):
        x, y = u * u * X + r, u ** 3 * Y + s * u * u * X + t
        return Fraction(y * y + E.a1 * x * y + E.a3 * y - E.rhs(x), u ** 6)

    a6 = -G(0, 0)
    a3 = G(0, 1) - 1 + a6
    a2 = -(G(1, 0) + G(-1, 0)) / 2 - a6
    a4 = -(G(1, 0) - G(-1, 0)) / 2 - 1
    a1 = G(1, 1) - a3 + a2 + a4 + a6
    return a1, a2, a3, a4, a6


def test_curve_map_lands_exactly_when_the_fraction_image_is_integral(rng):
    # random curves and maps, and curves built to land: for each u, a random
    # int curve E0 rescaled by u and moved by an integral (r, s, t), which
    # CurveMap(u, -r, -s, r s - t) takes back to E0
    seen = set()
    for u in (1, 2, 3, 4, 9):
        for trial in range(60):
            if trial % 2:
                E0 = random_curve(rng)
                r, s, t = (rng.randint(-50, 50) for _ in range(3))
                E = CurveMap(1, r, s, t).apply(scale_curve(E0, u))
                cmap = CurveMap(u, -r, -s, r * s - t)
            else:
                E0, E = None, random_curve(rng, bound=40)
                cmap = CurveMap(u, *(rng.randint(-u ** 3, u ** 3) for _ in range(3)))
            image = _fraction_image(cmap, E)
            landed = all(a.denominator == 1 for a in image)
            out = cmap.apply(E)
            assert out == (WeierstrassCurve(*map(int, image)) if landed else None), (u, E, cmap)
            assert out is None or is_int_curve(out)
            assert E0 is None or out == E0
            seen.add((u, landed))
    assert {(u, True) for u in (1, 2, 3, 4, 9)} <= seen
    assert {(u, False) for u in (2, 3, 4, 9)} <= seen


def test_tate_rejects_bad_input():
    with pytest.raises(ValueError):
        minimal_model(WeierstrassCurve(0, 0, 0, 0, 0), 2)
    with pytest.raises(ValueError):
        minimal_model(WeierstrassCurve(Fraction(1, 2), 0, 0, 1, 0), 2)


def test_kappa_integral_point():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    assert kappa(Point(0, 0), E, LocalContext(2)) == 0


def test_kappa_from_doubling():
    # double (0,0) on y^2 + y = x^3 - x until the x-coordinate picks up an
    # even denominator, then kappa reads off half the exponent
    E = WeierstrassCurve(0, 0, 1, -1, 0)
    P = Point(0, 0)
    Q = point_mul(E, 5, P)
    vx = valuation(Fraction(Q.x), 2)
    assert vx < 0 and vx % 2 == 0
    assert kappa(Q, E, LocalContext(2)) == -(vx // 2)


def test_kappa_on_scaled_model():
    # same point seen on a p-scaled (non-minimal) model: kappa is unchanged
    E = WeierstrassCurve(0, 0, 1, -1, 0)
    Q = point_mul(E, 5, Point(0, 0))
    Es = scale_curve(E, 2)
    Qs = Point(4 * Fraction(Q.x), 8 * Fraction(Q.y))
    assert on_curve(Es, Qs)
    assert kappa(Qs, Es, LocalContext(2)) == kappa(Q, E, LocalContext(2))


def test_kappa_errors():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        kappa(Point(5, 5), E, LocalContext(2))


def test_level_of_construction_and_scaling():
    F = construct_22(0, 0, 0, 1)
    ctx = LocalContext(2)
    rep = level(F, ctx)
    assert (rep.v_disc, rep.level) == (6, 0)
    assert rep.v_disc == rep.v_disc_min + 12 * rep.kappa + 12 * rep.level

    scaled = scaled_model(F, 2)
    rep2 = level(scaled, ctx)
    assert rep2.level == 1
    assert (rep2.kappa, rep2.v_disc_min) == (rep.kappa, rep.v_disc_min)


def test_level_decomposition_random(rng):
    ctx = LocalContext(3)
    seen = 0
    while seen < 10:
        m, _ = inflate(construct_22(*random_marked(rng, 5)), ctx, rng, moves=1)
        rep = level(m, ctx)
        assert rep.level >= 0
        assert rep.v_disc == rep.v_disc_min + 12 * rep.kappa + 12 * rep.level
        seen += 1


def test_level_walks_once_per_call(monkeypatch, rng):
    import g1min.weierstrass as weierstrass
    from conftest import nonzero_disc, random_hypercube
    from g1min import construct_cube

    calls = []

    def counted(E, ctx):
        calls.append(ctx)
        return minimal_model(E, ctx)

    monkeypatch.setattr(weierstrass, "minimal_model", counted)
    ctx = LocalContext(2)
    for m in (construct_22(0, 0, 0, 1), construct_cube(0, 0, 0, 1),
              nonzero_disc(random_hypercube, rng)):
        calls.clear()
        level(m, ctx)
        # one descent, handed the caller's context: no second primality test
        assert calls == [ctx], m.kind


# a hypercube whose first marked point is integral on a minimal model of its
# own curve (kappa 0) and whose third is not (kappa 1), at p = 2
HYPERCUBE_THIRD_POINT_KAPPA = (4, -2, 0, -1, 0, 2, 0, -2, 1, 1, -1, 2, 0, -2, -2, 0)


def test_a_carried_point_sets_kappa():
    from g1min import Hypercube, hypercube_invariants

    H = Hypercube.from_coeffs(HYPERCUBE_THIRD_POINT_KAPPA)
    kappas = [kappa(Point(inv.xi, inv.eta), WeierstrassCurve(*inv.a_invariants), 2)
              for inv in hypercube_invariants(H).pair_invariants]
    assert kappas == [0, 0, 1]
    assert level(H, 2) == LevelReport(24, 0, 1, 1)


def test_level_rejects_wrong_kinds():
    from g1min import BinaryQuartic

    with pytest.raises(TypeError):
        level(BinaryQuartic((1, 0, 0, 0, 1)), LocalContext(2))


def test_hypercube_level_is_minimum_of_form_levels(rng):
    from g1min import forms_of_hypercube
    from conftest import nonzero_disc, random_hypercube

    for p in (2, 3):
        ctx = LocalContext(p)
        for _ in range(6):
            H = nonzero_disc(random_hypercube, rng)
            lH = level(H, ctx).level
            lforms = [level(F, ctx).level for F in forms_of_hypercube(H).values()]
            assert lH == min(lforms)


def _fraction_kappa(P, E, p):
    """kappa from P's image on minimal_model's minimal model, mapped in
    Fractions: the reference for `_kappa_on_minimal`, which reads valuations."""
    cmap = minimal_model(E, p)[1]
    x, y = Fraction(P.x), Fraction(P.y)
    xp = (x - cmap.r) / cmap.u ** 2
    yp = (y - cmap.s * (x - cmap.r) - cmap.t) / cmap.u ** 3
    vx, vy = valuation(xp, p), valuation(yp, p)
    return 0 if min(vx, vy) >= 0 else -(vx // 2)


def _small_points(E, bound=40):
    """The integral affine points of E with |x| <= bound, then 2P and 3P of
    the first few, which have rational coordinates."""
    pts = []
    for x in range(-bound, bound + 1):
        b = E.a1 * x + E.a3
        d = b * b + 4 * E.rhs(x)
        if d >= 0 and math.isqrt(d) ** 2 == d:
            pts += [Point(x, (r - b) // 2) for r in {math.isqrt(d), -math.isqrt(d)}
                    if (r - b) % 2 == 0]
    multiples = [point_mul(E, n, P) for P in pts[:4] for n in (2, 3)]
    return pts + [Q for Q in multiples if Q is not IDENTITY]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kappa_on_minimal_matches_fraction_kappa(p):
    # kappa from valuations of P's coordinates against kappa from its image
    # in Fractions, on integral points and on their multiples 2P and 3P,
    # whose images on the minimal model are integral for some and rational
    # for others, over the Kodaira family and translated p^k-scaled curves
    images = set()
    for E, points in _closed_form_inputs(p, random.Random(7200 + p)):
        cmap = minimal_model(E, p)[1]
        for P in points:
            kap = _kappa_on_minimal(P, cmap, p)
            assert kap == _fraction_kappa(P, E, p) == kappa(P, E, LocalContext(p)), (E, P)
            Q = image_point(cmap, P)
            images.add((type(P.x), all(type(c) is int for c in (Q.x, Q.y)), kap > 0))
    assert {(int, True, False), (Fraction, True, False), (Fraction, False, True)} <= images


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_marked_points_stay_int_through_tate(p, monkeypatch, rng):
    # level carries every marked point onto the first point's curve in ints,
    # for random and inflated (2,2)-forms, cubes and hypercubes, the three
    # points of a hypercube included, and reads the same kappa there as on
    # the point's own curve
    import g1min.weierstrass as weierstrass
    from conftest import nonzero_disc, random_hypercube
    from g1min import construct_cube, hypercube_invariants

    carried = []

    def recorded(P, cmap, q):
        carried.append(P)
        return _kappa_on_minimal(P, cmap, q)

    monkeypatch.setattr(weierstrass, "_kappa_on_minimal", recorded)
    ctx = LocalContext(p)
    for trial in range(12):
        base = [construct_22(*random_marked(rng, 5)), construct_cube(*random_marked(rng, 5)),
                nonzero_disc(random_hypercube, rng)][trial % 3]
        for m in (base, inflate(base, ctx, rng, moves=1)[0]):
            carried.clear()
            rep = level(m, ctx)
            points = list(carried)
            assert len(points) == (3 if m.kind == "hypercube" else 1)
            assert all(type(c) is int for P in points for c in (P.x, P.y))
            if m.kind == "hypercube":
                own = [kappa(Point(inv.xi, inv.eta), WeierstrassCurve(*inv.a_invariants), ctx)
                       for inv in hypercube_invariants(m).pair_invariants]
                assert rep.kappa == max(own)


CLOSED_FORM_PRIMES = [5, 7, 11, 101, 1009, 65537, 2 ** 61 - 1]


def _closed_form_inputs(p, rng):
    """(curve, points on it): the Kodaira family, then random curves scaled
    by p^k (k <= 3) and translated by a random integral (r, s, t), with the
    small points of the unscaled curve carried along."""
    cases = [(E, _small_points(E)) for E in kodaira_family(p)]
    for k in (0, 1, 2, 3):
        for _ in range(10):
            E0 = random_curve(rng)
            r, s, t = (rng.randrange(-p ** 2, p ** 2) for _ in range(3))
            move = CurveMap(1, r, s, t)
            E = move.apply(scale_curve(E0, p ** k))
            points = [image_point(move, Point(P.x * p ** (2 * k), P.y * p ** (3 * k)))
                      for P in _small_points(E0)]
            cases.append((E, _small_points(E) + points))
    return cases


@pytest.mark.parametrize("p", CLOSED_FORM_PRIMES)
def test_closed_form_matches_the_walk(p):
    # the descent's u = p walk against the closed form it replaced at p >= 5,
    # where no exhaustive search reaches: the same v(Delta_min) and u, an int
    # map onto the model it returns, which has p^4 not dividing c4 or p^6 not
    # dividing c6, and the same kappa on both maps of every point, rational
    # ones included
    rng = random.Random(7100 + p % 1000)
    rescaled = positive = 0
    for E, pts in _closed_form_inputs(p, rng):
        assert is_int_curve(E) and E.disc != 0
        Emin, cmap, vmin = minimal_model(E, p)
        _, closed_map, closed_vmin = closed_form_minimal(E, p)
        assert vmin == closed_vmin, E
        assert all(type(x) is int for x in (cmap.u, cmap.r, cmap.s, cmap.t)), E
        k, rem = divmod(valuation(E.disc, p) - vmin, 12)
        assert rem == 0 and cmap.u == p ** k == closed_map.u, E
        assert cmap.apply(E) == Emin and is_int_curve(Emin)
        assert Emin.c4 % p ** 4 or Emin.c6 % p ** 6, E
        assert valuation(Emin.disc, p) == vmin
        for P in pts:
            assert on_curve(E, P)
            kap = kappa(P, E, LocalContext(p))
            assert kap == _kappa_on_minimal(P, cmap, p) == _kappa_on_minimal(P, closed_map, p)
            positive += kap > 0
        rescaled += k > 0
    assert rescaled and positive
    for bad in (WeierstrassCurve(0, 0, 0, 0, 0), WeierstrassCurve(Fraction(1, 2), 0, 0, 1, 0)):
        with pytest.raises(ValueError):
            minimal_model(bad, p)


def _poly_mul(*fs):
    """The product of polynomials held as {sorted tuple of variables: coefficient}."""
    out = {(): 1}
    for f in fs:
        prod = {}
        for m1, c1 in out.items():
            for m2, c2 in f.items():
                m = tuple(sorted(m1 + m2))
                prod[m] = prod.get(m, 0) + c1 * c2
        out = prod
    return {m: c for m, c in out.items() if c}


def _poly_sum(*terms):
    """sum of c f over the (c, f) pairs given, as a polynomial dict."""
    out = {}
    for c, f in terms:
        for m, x in f.items():
            out[m] = out.get(m, 0) + c * x
    return {m: c for m, c in out.items() if c}


def _form22_point_polys(pair):
    """(a1, a3, b2, u, v) of the (2,2)-form F_pair of a hypercube, as
    polynomials in its 16 entries, by form22_invariants' formulas."""
    from g1min.models import _HYPERCUBE_TABLES

    a = [[_poly_sum(*((sign, {tuple(sorted(pos)): 1}) for sign, *pos in terms))
          for terms in _HYPERCUBE_TABLES[pair][3 * i:3 * i + 3]] for i in range(3)]
    a1 = _poly_sum((-1, a[1][1]))
    a2 = _poly_sum(*((-1, _poly_mul(a[i][j], a[k][l]))
                     for (i, j), (k, l) in (((0, 0), (2, 2)), ((0, 1), (2, 1)),
                                            ((0, 2), (2, 0)), ((1, 0), (1, 2)))))
    a3 = _poly_sum((1, _poly_mul(a[0][1], a[1][2], a[2][0])),
                   (1, _poly_mul(a[0][2], a[1][0], a[2][1])),
                   (-1, _poly_mul(a[0][0], a[1][2], a[2][1])),
                   (-1, _poly_mul(a[0][1], a[1][0], a[2][2])))
    b2 = _poly_sum((1, _poly_mul(a1, a1)), (4, a2))
    xi = _poly_sum((1, _poly_mul(a[0][0], a[2][2])), (1, _poly_mul(a[0][2], a[2][0])))
    det = _poly_sum(*((sign, _poly_mul(a[0][c0], a[1][c1], a[2][c2]))
                      for sign, (c0, c1, c2) in ((1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)),
                                                 (-1, (0, 2, 1)), (-1, (1, 0, 2)),
                                                 (-1, (2, 1, 0)))))
    return a1, a3, b2, _poly_sum((12, xi), (1, b2)), det  # v = det a


def _poly_value(f, h):
    return sum(c * math.prod(h[i] for i in m) for m, c in f.items())


def test_hypercube_points_carry_in_ints(rng):
    # level carries the points of F_02 and F_03 onto the curve of F_01 as
    # x = (u - b2)/12 and y = (v - a1 x - a3)/2: as polynomials in the 16
    # entries, u - b2(F_01) has every coefficient divisible by 12 and, with
    # x that quotient, v - a1 x - a3 every coefficient even, so both
    # divisions are exact on every integral hypercube
    from conftest import nonzero_disc, random_hypercube
    from g1min import hypercube_invariants

    polys = {pair: _form22_point_polys(pair) for pair in ((0, 1), (0, 2), (0, 3))}
    a1, a3, b2 = polys[0, 1][:3]
    # the polynomials are the library's invariants, evaluated
    for _ in range(5):
        H = nonzero_disc(random_hypercube, rng)
        for inv, pair in zip(hypercube_invariants(H).pair_invariants, polys):
            pa1, pa3, _, pu, pv = (_poly_value(f, H.coeffs) for f in polys[pair])
            assert (pa1, pa3, pu, pv) == (inv.a_invariants[0], inv.a_invariants[2], inv.u, inv.v)
    for pair, (_, _, b2_own, u, v) in polys.items():
        # b2 differs between the forms, so only the identity makes x integral
        assert bool(_poly_sum((1, b2_own), (-1, b2))) == (pair != (0, 1))
        num_x = _poly_sum((1, u), (-1, b2))
        assert all(c % 12 == 0 for c in num_x.values()), pair
        x = {m: c // 12 for m, c in num_x.items()}
        num_y = _poly_sum((1, v), (-1, _poly_mul(a1, x)), (-1, a3))
        assert all(c % 2 == 0 for c in num_y.values()), pair
