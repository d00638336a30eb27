from fractions import Fraction
import math
import random

import pytest

from g1min import (
    CurveMap, LocalContext, Point, WeierstrassCurve, construct_22, inflate,
    kappa, level, minimal_discriminant_valuation, on_curve, point_add,
    point_double, point_mul, point_neg, scalar_multiply, tate_minimal,
    valuation,
)
from g1min.weierstrass import LevelReport, _kappa_on_minimal

from conftest import kodaira_family
from replaced_routines import closed_form_minimal


def scale_curve(E, u):
    return WeierstrassCurve(E.a1 * u, E.a2 * u ** 2, E.a3 * u ** 3,
                            E.a4 * u ** 4, E.a6 * u ** 6)


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
    O = Point.infinity()
    assert on_curve(E, P)
    assert point_add(E, P, O) == P
    assert point_add(E, P, point_neg(E, P)).is_infinity
    Q = point_double(E, P)
    assert on_curve(E, Q)
    assert Q == Point(Fraction(1), Fraction(0))
    # associativity on a small chain
    twoP, threeP = point_mul(E, 2, P), point_mul(E, 3, P)
    assert point_add(E, twoP, threeP) == point_mul(E, 5, P)
    assert point_add(E, P, point_add(E, twoP, threeP)) == point_mul(E, 6, P)
    assert point_mul(E, -3, P) == point_neg(E, threeP)
    # the identity stays the identity under negation and a change of coordinates
    assert point_neg(E, O) == O
    assert CurveMap(2, 1, 1, 1).apply_point(O) == O


def test_point_add_rejects_off_curve():
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        point_add(E, Point(1, 1), Point.infinity())


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
            assert Emin.is_integral()
            assert valuation(Emin.disc, p) == v0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_invariance_under_integral_changes(p, rng):
    ctx = LocalContext(p)
    for _ in range(25):
        E = random_curve(rng)
        v0, _ = minimal_discriminant_valuation(E, ctx)
        r, s, t = (rng.randint(-6, 6) for _ in range(3))
        Ej = CurveMap(Fraction(1), Fraction(r), Fraction(s), Fraction(t)).apply(E)
        assert minimal_discriminant_valuation(Ej, ctx)[0] == v0


@pytest.mark.parametrize("p", [2, 3])
def test_obfuscated_scaling_recovery(p, rng):
    ctx = LocalContext(p)
    for _ in range(40):
        E = random_curve(rng, bound=4)
        v0, _ = minimal_discriminant_valuation(E, ctx)
        Es = scale_curve(E, p)
        r, s, t = (rng.randint(0, p ** 3) for _ in range(3))
        Ej = CurveMap(Fraction(1), Fraction(r), Fraction(s), Fraction(t)).apply(Es)
        assert minimal_discriminant_valuation(Ej, ctx)[0] == v0


def test_large_prime_minimality_criterion(rng):
    # for p >= 5 a minimal model has v(c4) < 4 or v(Delta) < 12
    for p in (5, 7, 13):
        ctx = LocalContext(p)
        for _ in range(20):
            E = random_curve(rng)
            Emin, _, vmin = tate_minimal(scale_curve(E, p), p)
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
        Emin, cmap, vmin = tate_minimal(E, p)
        assert all(type(x) is int for x in (cmap.u, cmap.r, cmap.s, cmap.t)), E
        k = valuation(cmap.u, p)
        assert cmap.u == p ** k
        assert cmap.apply(E) == Emin
        assert valuation(E.disc, p) == vmin + 12 * k
        rescaled += k > 0
    assert rescaled > 0


def test_curve_map_divides_exactly():
    # apply returns ints where the division by the power of u is exact and
    # Fractions only where it is not, for int and Fraction maps alike
    E = WeierstrassCurve(0, 0, 0, 16, 64)
    for u in (2, Fraction(2)):
        assert CurveMap(u, 0, 0, 0).apply(E) == WeierstrassCurve(0, 0, 0, 1, 1)
        assert all(type(a) is int for a in CurveMap(u, 0, 0, 0).apply(E).a_invariants())
    E3 = CurveMap(3, 0, 0, 0).apply(E)
    assert E3 == WeierstrassCurve(0, 0, 0, Fraction(16, 81), Fraction(64, 729))
    back = CurveMap(Fraction(1, 3), 0, 0, 0).apply(E3)
    assert back == E and all(type(a) is int for a in back.a_invariants())


def test_tate_rejects_bad_input():
    with pytest.raises(ValueError):
        tate_minimal(WeierstrassCurve(0, 0, 0, 0, 0), 2)
    with pytest.raises(ValueError):
        tate_minimal(WeierstrassCurve(Fraction(1, 2), 0, 0, 1, 0), 2)


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
        kappa(Point.infinity(), E, LocalContext(2))
    with pytest.raises(ValueError):
        kappa(Point(5, 5), E, LocalContext(2))


def test_level_of_construction_and_scaling():
    F = construct_22(0, 0, 0, 1)
    ctx = LocalContext(2)
    rep = level(F, ctx)
    assert (rep.v_disc, rep.level) == (6, 0)
    assert rep.v_disc == rep.v_disc_min + 12 * rep.kappa + 12 * rep.level

    scaled = scalar_multiply(F, 2)
    rep2 = level(scaled, ctx)
    assert rep2.level == 1
    assert (rep2.kappa, rep2.v_disc_min) == (rep.kappa, rep.v_disc_min)


def test_level_decomposition_random(rng):
    ctx = LocalContext(3)
    seen = 0
    while seen < 10:
        m, _ = inflate(construct_22(*_random_marked(rng)), ctx, rng, moves=1)
        rep = level(m, ctx)
        assert rep.level >= 0
        assert rep.v_disc == rep.v_disc_min + 12 * rep.kappa + 12 * rep.level
        seen += 1


def test_level_walks_once_per_call(monkeypatch, rng):
    import g1min.weierstrass as weierstrass
    from conftest import nonzero_disc, random_hypercube
    from g1min import construct_cube

    calls = []

    def counted(E, p):
        calls.append(p)
        return tate_minimal(E, p)

    monkeypatch.setattr(weierstrass, "tate_minimal", counted)
    ctx = LocalContext(2)
    for m in (construct_22(0, 0, 0, 1), construct_cube(0, 0, 0, 1),
              nonzero_disc(random_hypercube, rng)):
        calls.clear()
        level(m, ctx)
        assert calls == [2], m.kind


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


def _random_marked(rng):
    from g1min import marked_curve

    while True:
        a = [rng.randint(-5, 5) for _ in range(4)]
        if marked_curve(*a).disc != 0:
            return a


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
    """kappa the way it was computed before marked points stayed int: map P
    to tate_minimal's minimal model in Fractions and read its denominators."""
    cmap = tate_minimal(E, p)[1]
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
    return pts + [Q for Q in multiples if not Q.is_infinity]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_marked_points_stay_int_through_tate(p):
    # an integral image stays int, a rational point maps exactly, and kappa
    # reads the same as with Fraction coordinates throughout
    ints = fractions = 0
    for E in kodaira_family(p):
        cmap = tate_minimal(E, p)[1]
        for P in _small_points(E):
            Q = cmap.apply_point(P)
            assert Q.x * cmap.u ** 2 + cmap.r == P.x
            assert Q.y * cmap.u ** 3 + cmap.s * (P.x - cmap.r) + cmap.t == P.y
            for c in Q:
                assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
            ints += all(type(c) is int for c in Q)
            fractions += any(type(c) is Fraction for c in Q)
            assert kappa(P, E, LocalContext(p)) == _fraction_kappa(P, E, p)
    assert ints and fractions


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
            scale, move = CurveMap(Fraction(1, p ** k), 0, 0, 0), CurveMap(1, r, s, t)
            E = move.apply(scale.apply(E0))
            points = [move.apply_point(scale.apply_point(P)) for P in _small_points(E0)]
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
        assert E.is_integral() and E.disc != 0
        Emin, cmap, vmin = tate_minimal(E, p)
        _, closed_map, closed_vmin = closed_form_minimal(E, p)
        assert vmin == closed_vmin, E
        assert all(type(x) is int for x in (cmap.u, cmap.r, cmap.s, cmap.t)), E
        k, rem = divmod(valuation(E.disc, p) - vmin, 12)
        assert rem == 0 and cmap.u == p ** k == closed_map.u, E
        assert cmap.apply(E) == Emin and Emin.is_integral()
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
            tate_minimal(bad, p)
