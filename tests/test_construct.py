import hashlib
from itertools import combinations
from operator import le
import random

import pytest

from g1min import (
    WeierstrassCurve,
    GroupElement, LocalContext, TwoTwoForm, act, construct_22,
    construct_cube, convert_2to3, convert_3to2, critical_model, cube_invariants,
    discriminant, enumerate_minimal_weights, form22_invariants,
    hypercube_invariants, inflate, is_minimal_22, level, marked_curve, minimise,
    oracle_minimality_22, scalar_multiply, symmetric_minimal_weights, valuation,
)
from g1min.construct import WeightTuple

from conftest import random_form22


def _random_marked(rng, bound=10):
    while True:
        a = [rng.randint(-bound, bound) for _ in range(4)]
        if marked_curve(*a).disc != 0:
            return a


def test_construct_22_examples():
    assert discriminant(construct_22(0, 0, 0, 1)) == -64
    assert discriminant(construct_22(1, 0, 0, -1)) == marked_curve(1, 0, 0, -1).disc
    with pytest.raises(ValueError):
        construct_22(0, 0, 0, 0)


def test_construct_cube_examples():
    assert discriminant(construct_cube(0, 0, 0, 1)) == -64
    with pytest.raises(ValueError):
        construct_cube(0, 0, 0, 0)


def test_construct_discriminants_agree(rng):
    for _ in range(30):
        a = _random_marked(rng)
        d = marked_curve(*a).disc
        assert discriminant(construct_22(*a)) == d
        assert discriminant(construct_cube(*a)) == d


def test_construct_recovers_curve_and_point(rng):
    for _ in range(20):
        a = _random_marked(rng)
        E = marked_curve(*a)
        inv = form22_invariants(construct_22(*a))
        # the recovered model is the y-negated twin of the input curve: the
        # b-quantities and the marked point (0, 0) pin the same pair
        got = WeierstrassCurve(*inv.a_invariants)
        assert (got.b2, got.b4, got.b6) == (E.b2, E.b4, E.b6)
        assert inv.point == (0, 0)
        ref = form22_invariants(construct_22(*a))
        inv = cube_invariants(construct_cube(*a))
        # the cube realises an isomorphic marked pair: same u and v
        assert (inv.u, inv.v) == (ref.u, ref.v)


_SWAP_Y = GroupElement("form22", 1, (((1, 0), (0, 1)), ((0, 1), (1, 0))))


def test_convert_2to3(rng):
    for _ in range(15):
        a = _random_marked(rng)
        F = act(_SWAP_Y, construct_22(*a))  # brings a11 to zero
        assert F.rows[0][0] == 0
        S = convert_2to3(F)
        assert discriminant(S) == discriminant(F)


def test_convert_2to3_requires_corner_zero():
    with pytest.raises(ValueError):
        convert_2to3(construct_22(0, 0, 0, 1))


_MOVE_X_TO_LAST = GroupElement("cube", 1, (
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
))


def test_convert_3to2(rng):
    # the marked point sits at ((1:0:0),(0:0:1)); cycling the x coordinates
    # moves it to ((0:0:1),(0:0:1)) where the conversion applies
    for _ in range(15):
        a = _random_marked(rng)
        S = act(_MOVE_X_TO_LAST, construct_cube(*a))
        F = convert_3to2(S)
        assert discriminant(F) == discriminant(S) == marked_curve(*a).disc


def test_convert_3to2_requires_vanishing():
    with pytest.raises(ValueError):
        convert_3to2(construct_cube(0, 0, 0, 1))


_REVERSE_XY = GroupElement("cube", 1, (
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
))


def test_convert_round_trip_preserves_discriminant(rng):
    # 2 -> 3 places a rational point at ((1:0:0),(1:0:0)); reversing both
    # coordinate triples moves it where the 3 -> 2 conversion wants it
    for _ in range(10):
        a = _random_marked(rng)
        F = act(_SWAP_Y, construct_22(*a))
        S = act(_REVERSE_XY, convert_2to3(F))
        back = convert_3to2(S)
        assert discriminant(back) == discriminant(F)


def test_weight_census_counts():
    weights = enumerate_minimal_weights()
    assert len(weights) == 81
    assert len({(w.entries, w.s) for w in weights}) == 81
    # the representatives and their order, as the numpy census returned them
    listing = repr([(w.entries, w.s) for w in weights]).encode()
    assert hashlib.sha256(listing).hexdigest() == (
        "b74e5896ce78a99e7ddcfa2daf588c4650e99612fba2fc1118fe688b229d429e")
    sym = symmetric_minimal_weights()
    assert len(sym) == 8
    for tau in (
        (1, 1, 0, 0, 0, 0),
        (0, 1, 0, 1, 0, 0),
        (1, 2, 0, 1, 0, 1),
        (1, 1, 1, 1, 0, 1),
        (1, 2, 1, 2, 1, 1),
        (2, 3, 1, 2, 1, 2),
    ):
        assert any(w.entries == tau for w in sym), tau


def test_weight_census_is_deterministic():
    a = enumerate_minimal_weights()
    b = enumerate_minimal_weights()
    assert a == b
    for w in a:
        assert sum(w.entries) == 3 * w.s - 1
        assert len(w.deficiency_vector) == 27


def test_weight_tuple_helpers():
    w = WeightTuple((1, 1, 0, 0, 0, 0), 1)
    assert w.is_symmetric()
    assert w.deficiency_vector[0] == 1  # the (1,1,1) slot always equals s


@pytest.mark.parametrize("kind", ["form22", "cube", "hypercube"])
@pytest.mark.parametrize("p", [5, 7])
def test_critical_models(kind, p, rng):
    ctx = LocalContext(p)
    for seed in range(3):
        m = critical_model(kind, ctx, random.Random(seed))
        if kind == "hypercube":
            hi = hypercube_invariants(m)
            us = [inv.u for inv in hi.pair_invariants]
            vs = [inv.v for inv in hi.pair_invariants]
            c4, c6, disc = hi.c4, hi.c6, hi.disc
        else:
            inv = (form22_invariants if kind == "form22" else cube_invariants)(m)
            us, vs, c4, c6, disc = [inv.u], [inv.v], inv.c4, inv.c6, inv.disc
        assert valuation(c4, p) >= 4
        assert valuation(c6, p) >= 6
        assert valuation(disc, p) >= 12
        assert all(valuation(u, p) >= 2 for u in us)
        assert all(valuation(v, p) >= 3 for v in vs)
        rep = minimise(m, ctx)
        assert rep.input_was_minimal and rep.steps == ()
        assert level(m, ctx).level >= 1


def test_critical_model_rejects_small_primes():
    with pytest.raises(ValueError):
        critical_model("form22", LocalContext(3), 0)


def test_oracle_examples():
    ctx = LocalContext(2)
    F = construct_22(0, 0, 0, 1)
    assert oracle_minimality_22(F, ctx) is True
    assert oracle_minimality_22(scalar_multiply(F, 2), ctx) is False


def test_oracle_agreement_with_minimiser(rng):
    for p in (2, 3):
        ctx = LocalContext(p)
        agree = 0
        while agree < 25:
            F = random_form22(rng, bound=6)
            if discriminant(F) == 0:
                continue
            if rng.randrange(2):
                F, _ = inflate(F, ctx, rng, moves=1)
            assert oracle_minimality_22(F, ctx) == is_minimal_22(F, ctx)
            agree += 1


def test_oracle_guards():
    ctx = LocalContext(7)
    with pytest.raises(ValueError):
        oracle_minimality_22(construct_22(0, 0, 0, 1), ctx)
    with pytest.raises(ValueError):
        oracle_minimality_22(TwoTwoForm(((0,) * 3,) * 3), LocalContext(2))


def test_inflate_raises_level(rng):
    ctx = LocalContext(3)
    F = construct_22(0, 1, 0, 1)
    F2, g = inflate(F, ctx, rng, moves=2)
    assert act(g, F) == F2
    assert valuation(discriminant(F2), 3) > valuation(discriminant(F), 3)


def test_oracle_sees_deep_weight_moves():
    # this form needs a (2,1) weight pair whose unimodular part is invisible
    # mod 2 (it only appears mod 4); residue-only enumeration wrongly calls
    # it minimal, the projective-line class enumeration does not
    ctx = LocalContext(2)
    F = TwoTwoForm(((4, -2, -1), (1, 4, 3), (2, 8, 2)))
    assert valuation(discriminant(F), 2) == 12
    rep = minimise(F, ctx)
    assert rep.v_disc_final == 0
    assert oracle_minimality_22(F, ctx) is False


def test_stretch_class_representatives():
    from g1min.construct import _stretch_classes
    from g1min.exactnum import det_matrix

    for p in (2, 3, 5):
        for a in (0, 1, 2):
            classes = _stretch_classes(p, a)
            expected = 1 if a == 0 else p ** a + p ** (a - 1)
            assert len(classes) == expected
            seen = set()
            for U in classes:
                assert det_matrix(U) in (1, -1)
                row = U[0]
                # normalise the first-row direction mod p^a
                q = p ** a if a else 1
                for scale in range(1, q + 1):
                    if scale % p and (scale * row[0] % q, scale * row[1] % q) in seen:
                        break
                else:
                    seen.add((row[0] % q, row[1] % q))
            assert len(seen) == expected  # directions are pairwise distinct


def _deficiency(entries, s):
    a21, a31, a22, a32, a23, a33 = entries
    heads = [s - x - y for x in (0, a21, a31) for y in (0, a22, a32)]
    return tuple([h - z if h > z else 0 for h in heads for z in (0, a23, a33)])


def test_weight_census_certified_against_all_candidates():
    # order-free certification: the returned classes are exactly the minimal
    # ones among every admissible weight with scale within the proven bound.
    # Every candidate lies above a returned vector (coverage), and no returned
    # vector lies above another (incomparability).  Together they rule out a
    # candidate strictly below a returned class m: it would lie above some
    # returned m' != m, and m' <= m would break incomparability.
    from g1min.construct import WEIGHT_SCALE_BOUND

    minimal = enumerate_minimal_weights()
    M = [_deficiency(w.entries, w.s) for w in minimal]
    for w, m in zip(minimal, M):
        assert 1 <= w.s <= WEIGHT_SCALE_BOUND and len(w.entries) == 6
        assert min(w.entries) >= 0 and sum(w.entries) == 3 * w.s - 1
        assert w.deficiency_vector == m
    for i, a in enumerate(M):
        for j, b in enumerate(M):
            assert i == j or not all(map(le, a, b)), (minimal[i], minimal[j])
    count = 0
    last = M[0]
    for s in range(1, WEIGHT_SCALE_BOUND + 1):
        total = 3 * s - 1
        # stars and bars: the entries are the gaps between five bars placed
        # among total + 5 slots
        for b0, b1, b2, b3, b4 in combinations(range(total + 5), 5):
            entries = (b0, b1 - b0 - 1, b2 - b1 - 1, b3 - b2 - 1, b4 - b3 - 1, total + 4 - b4)
            v = _deficiency(entries, s)
            if not all(map(le, last, v)):
                last = next((m for m in M if all(map(le, m, v))), None)
                assert last is not None, (entries, s)  # not above a returned class
            count += 1
    assert count == 643467
