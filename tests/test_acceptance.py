"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
all quantities are exact integers, so every tolerance here is zero.
"""

import random

from g1min import (
    BinaryQuartic, GroupElement, LocalContext, act, construct_22,
    construct_cube, convert_2to3, convert_3to2, critical_model,
    cube_invariants, cubics_of_cube, discriminant, enumerate_minimal_weights,
    form22_invariants, forms_of_hypercube, hypercube_invariants, inflate,
    is_minimal_22, level, marked_curve, minimise, minimise_cube,
    minimise_hypercube, oracle_minimality_22, quartics_of_hypercube,
    symmetric_minimal_weights, valuation,
)

from conftest import (
    identity_hypercube, levi_civita_cube, perturb_entries, random_cube,
    random_form22, random_hypercube,
)


def _report(n, message):
    print(f"criterion {n}: PASS - {message}")


def _random_marked(rng, bound=10):
    while True:
        a = [rng.randint(-bound, bound) for _ in range(4)]
        if marked_curve(*a).disc != 0:
            return a


TAUS = (
    (1, 1, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 0),
    (1, 2, 0, 1, 0, 1),
    (1, 1, 1, 1, 0, 1),
    (1, 2, 1, 2, 1, 1),
    (2, 3, 1, 2, 1, 2),
)


def test_criterion_1_weight_census():
    weights = enumerate_minimal_weights()
    assert len(weights) == 81
    sym = symmetric_minimal_weights()
    assert len(sym) == 8
    entries = {w.entries for w in sym}
    for tau in TAUS:
        assert tau in entries
    _report(1, "81 minimal weight classes, 8 after symmetry, all six listed tuples present")


def test_criterion_2_syzygy_suite():
    rng = random.Random(2026_02)
    checked = 0
    for _ in range(1000):
        inv = form22_invariants(random_form22(rng, bound=20))
        assert (108 * inv.v) ** 2 == (3 * inv.u) ** 3 - 27 * inv.c4 * (3 * inv.u) - 54 * inv.c6
        a1, a2, a3, a4, a6 = inv.a_invariants
        xi, eta = inv.point
        assert eta * eta + a1 * xi * eta + a3 * eta == xi ** 3 + a2 * xi * xi + a4 * xi + a6
        checked += 1
    for _ in range(1000):
        inv = cube_invariants(random_cube(rng, bound=20))
        assert (108 * inv.v) ** 2 == (3 * inv.u) ** 3 - 27 * inv.c4 * (3 * inv.u) - 54 * inv.c6
        a1, a2, a3, a4, a6 = inv.a_invariants
        xi, eta = inv.point
        assert eta * eta + a1 * xi * eta + a3 * eta == xi ** 3 + a2 * xi * xi + a4 * xi + a6
        checked += 1
    _report(2, f"syzygy and curve membership exact on {checked} random models")


_SWAP_Y = GroupElement("form22", 1, (((1, 0), (0, 1)), ((0, 1), (1, 0))))
_MOVE_X_TO_LAST = GroupElement("cube", 1, (
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
))


def test_criterion_3_construction_discriminants():
    rng = random.Random(2026_03)
    for _ in range(100):
        a = _random_marked(rng, bound=10)
        d = marked_curve(*a).disc
        F = construct_22(*a)
        S = construct_cube(*a)
        assert discriminant(F) == d
        assert discriminant(S) == d
        # conversions preserve the discriminant exactly
        assert discriminant(convert_2to3(act(_SWAP_Y, F))) == d
        assert discriminant(convert_3to2(act(_MOVE_X_TO_LAST, S))) == d
    _report(3, "Delta agreement of both constructions and both conversions on 100 curves")


CHAIN_BOUNDS = {"quartic": 2, "form22": 2, "cube": 3, "hypercube": 2}
_chain_stats = {k: 0 for k in CHAIN_BOUNDS}


def _round_trip_batch(kind, p, rng, trials):
    ctx = LocalContext(p)
    done = 0
    while done < trials:
        if kind == "quartic":
            base = BinaryQuartic(tuple(rng.randint(-8, 8) for _ in range(5)))
            d = discriminant(base)
            if d == 0 or valuation(d, p) >= 12:
                continue
        elif kind == "form22":
            base = construct_22(*_random_marked(rng, bound=6))
        elif kind == "cube":
            base = construct_cube(*_random_marked(rng, bound=6))
        else:
            cand = random_hypercube(rng)
            if discriminant(cand) == 0:
                continue
            base = minimise_hypercube(cand, ctx).model
            if level(base, ctx).level != 0:
                continue
        inflated, _ = inflate(base, ctx, rng, moves=rng.randint(1, 3))
        rep = minimise(inflated, ctx)
        _chain_stats[kind] = max(_chain_stats[kind], rep.max_neutral_chain)
        assert act(rep.transformation, inflated) == rep.model
        if kind == "quartic":
            assert rep.v_disc_final == valuation(discriminant(base), p)
        else:
            lv = level(rep.model, ctx)
            assert lv.level == 0
            assert lv.v_disc == lv.v_disc_min + 12 * lv.kappa
        done += 1
    return done


def test_criterion_4_round_trip_minimisation():
    rng = random.Random(2026_04)
    total = 0
    for kind in ("quartic", "form22", "cube", "hypercube"):
        for p in (2, 3, 5):
            total += _round_trip_batch(kind, p, rng, 50)
    _report(4, f"{total} round trips restored level 0 with the exact level identity")


def test_criterion_5_oracle_agreement():
    rng = random.Random(2026_05)
    counts = {}
    for p in (2, 3, 5):
        ctx = LocalContext(p)
        done = 0
        while done < 200:
            F = random_form22(rng, bound=8)
            if discriminant(F) == 0:
                continue
            if rng.randrange(3) == 0:
                F, _ = inflate(F, ctx, rng, moves=1)
            assert oracle_minimality_22(F, ctx) == is_minimal_22(F, ctx)
            done += 1
        counts[p] = done
    _report(5, f"oracle and minimiser agree on {counts[2]} forms at p=2, {counts[3]} at p=3 "
               f"and {counts[5]} at p=5")


def test_criterion_6_hypercube_corollary():
    rng = random.Random(2026_06)
    total = 0
    for p in (2, 3, 5):
        ctx = LocalContext(p)
        done = 0
        while done < 34:
            H = random_hypercube(rng)
            if discriminant(H) == 0:
                continue
            mine = minimise_hypercube(H, ctx).input_was_minimal
            assert mine == any(is_minimal_22(F, ctx) for F in forms_of_hypercube(H).values())
            done += 1
        total += done
    _report(6, f"minimality of {total} hypercubes matches 'some associated form is minimal'")


def test_criterion_7_critical_models():
    total = 0
    for kind in ("form22", "cube", "hypercube"):
        for p in (5, 7):
            ctx = LocalContext(p)
            rng = random.Random(2026_07 * p + hash(kind) % 97)
            for _ in range(20):
                m = critical_model(kind, ctx, rng)
                if kind == "hypercube":
                    hi = hypercube_invariants(m)
                    c4, c6, disc = hi.c4, hi.c6, hi.disc
                    us = [q.u for q in hi.pair_invariants]
                    vs = [q.v for q in hi.pair_invariants]
                else:
                    inv = (form22_invariants if kind == "form22" else cube_invariants)(m)
                    c4, c6, disc, us, vs = inv.c4, inv.c6, inv.disc, [inv.u], [inv.v]
                assert valuation(c4, p) >= 4
                assert valuation(c6, p) >= 6
                assert valuation(disc, p) >= 12
                assert all(valuation(u, p) >= 2 for u in us)
                assert all(valuation(v, p) >= 3 for v in vs)
                rep = minimise(m, ctx)
                assert rep.input_was_minimal and rep.steps == ()
                assert level(m, ctx).level >= 1
                total += 1
    _report(7, f"{total} critical models: minimal with zero steps, weight-divisible, level >= 1")


def test_criterion_8_iteration_bounds():
    # fresh randomized runs so the criterion stands alone, then the recorded
    # maxima from criterion 4 when available
    rng = random.Random(2026_08)
    for kind in ("quartic", "form22", "cube", "hypercube"):
        for p in (2, 3):
            _round_trip_batch(kind, p, rng, 8)
    for kind, bound in CHAIN_BOUNDS.items():
        assert _chain_stats[kind] <= bound, (kind, _chain_stats[kind])
    _report(8, "neutral chains: " + ", ".join(
        f"{k} <= {CHAIN_BOUNDS[k]} (saw {_chain_stats[k]})" for k in CHAIN_BOUNDS))


def test_criterion_9_remark_fixpoints():
    rng = random.Random(2026_09)
    for p in (2, 3, 5):
        ctx = LocalContext(p)
        while True:
            S = perturb_entries(levi_civita_cube(), p * p, rng)
            if discriminant(S) != 0:
                break
        assert all(all(valuation(c, p) >= 2 for c in f.coeffs if c)
                   for f in cubics_of_cube(S))
        rep = minimise_cube(S, ctx)
        assert rep.input_was_minimal and rep.steps == ()

        while True:
            H = perturb_entries(identity_hypercube(), p * p, rng)
            if discriminant(H) != 0:
                break
        for G in quartics_of_hypercube(H):
            assert all(valuation(c, p) >= 2 for c in G.coeffs if c)
        rep = minimise_hypercube(H, ctx)
        assert rep.input_was_minimal and rep.steps == ()
    _report(9, "deep-vanishing lifts of the alternating cube and the identity "
               "hypercube are fixpoints at p = 2, 3, 5")
