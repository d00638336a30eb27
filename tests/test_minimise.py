import importlib
import inspect
import random
import sys
from fractions import Fraction

import pytest

from g1min import (
    BinaryQuartic, GroupElement, Hypercube, LocalContext, TwoTwoForm,
    act, c4_c6, construct_22, construct_cube, discriminant, forms_of_hypercube,
    inflate, is_minimal, is_minimal_22, level, marked_curve, minimise, minimise_22,
    minimise_cube, minimise_global, minimise_hypercube, minimise_quartic,
    SingularModelError, Verdict, critical_model, oracle_minimality_22, scalar_multiply,
    valuation,
)
from g1min.exactnum import identity_matrix, mat_mul, unimodular_with_row
from g1min.minimise import (
    _STEPS, FactorizationError, InternalBoundError, _absorb, trial_division_factor,
)
from g1min.models import SPECS, group_element_from_dict, group_element_to_dict, model_from_dict

from conftest import (
    HYPERCUBE_CHAIN_2, identity_hypercube, levi_civita_cube, nonzero_disc, perturb_entries,
    random_hypercube, random_quartic,
)


def _random_marked(rng, bound=5):
    while True:
        a = [rng.randint(-bound, bound) for _ in range(4)]
        if marked_curve(*a).disc != 0:
            return a


# ---------------------------------------------------------------------------
# binary quartics


def test_quartic_already_minimal():
    rep = minimise_quartic(BinaryQuartic((1, 0, 0, 0, 1)), LocalContext(3))
    assert rep.input_was_minimal and rep.steps == ()
    assert rep.model == BinaryQuartic((1, 0, 0, 0, 1))


def test_quartic_content_division():
    # scaling the coefficients by p^2 raises v(Delta) by 12 (degree six)
    G = BinaryQuartic((9, 0, 0, 0, 9))
    rep = minimise_quartic(G, LocalContext(3))
    assert rep.v_disc_initial - rep.v_disc_final == 12
    assert rep.model == BinaryQuartic((1, 0, 0, 0, 1))
    assert [s.label for s in rep.steps] == ["content"]


def test_quartic_slope_then_content():
    # x2 -> p x2 pattern: one root move exposes the content
    G0 = BinaryQuartic((1, 0, 0, 0, 1))
    G = act(GroupElement("quartic", 1, (((3, 0), (0, 1)),)), G0)  # x1 -> 3 x1
    assert G == BinaryQuartic((81, 0, 0, 0, 1))
    rep = minimise_quartic(G, LocalContext(3))
    assert rep.v_disc_final == 0
    labels = [s.label for s in rep.steps]
    assert "multiple-root" in labels and labels[-1] == "content"
    assert rep.max_neutral_chain <= 2
    assert act(rep.transformation, G) == rep.model


def test_quartic_round_trips(rng):
    for p in (2, 3, 5):
        ctx = LocalContext(p)
        done = 0
        while done < 10:
            G = BinaryQuartic(tuple(rng.randint(-8, 8) for _ in range(5)))
            d = discriminant(G)
            if d == 0 or valuation(d, p) >= 12:
                continue  # want a certified-minimal starting point
            v0 = valuation(d, p)
            G2, _ = inflate(G, ctx, rng, moves=rng.randint(1, 3))
            rep = minimise_quartic(G2, ctx)
            assert rep.v_disc_final == v0
            assert rep.max_neutral_chain <= 2
            done += 1


def test_quartic_rejects_singular():
    with pytest.raises(ValueError):
        minimise_quartic(BinaryQuartic((1, 0, 0, 0, 0)), LocalContext(2))


# ---------------------------------------------------------------------------
# (2,2)-forms


def test_22_constructed_models_are_minimal():
    ctx = LocalContext(2)
    F = construct_22(0, 0, 0, 1)
    rep = minimise_22(F, ctx)
    assert rep.input_was_minimal
    assert level(F, ctx).level == 0


def test_22_scaled_construction_recovers():
    ctx = LocalContext(2)
    F = construct_22(0, 0, 0, 1)
    rep = minimise_22(scalar_multiply(F, 4), ctx)
    assert rep.v_disc_final == 6
    assert level(rep.model, ctx).level == 0


def test_22_square_residue_is_minimal(rng):
    # lifts of (x1 y1 + x2 y2)^2 mod p^2 are minimal although both quartics
    # vanish mod p^2
    for p in (2, 3, 5):
        ctx = LocalContext(p)
        base = TwoTwoForm(((1, 0, 0), (0, 2, 0), (0, 0, 1)))
        while True:
            F = TwoTwoForm(tuple(tuple(base.rows[r][c] + p * p * rng.randint(-2, 2)
                                       for c in range(3)) for r in range(3)))
            if discriminant(F) != 0:
                break
        rep = minimise_22(F, ctx)
        assert rep.input_was_minimal
        from g1min import quartics_of_22

        g1, g2 = quartics_of_22(F)
        assert all(valuation(c, p) >= 2 for c in g1.coeffs if c)
        assert all(valuation(c, p) >= 2 for c in g2.coeffs if c)


def test_22_round_trips(rng):
    for p in (2, 3, 5):
        ctx = LocalContext(p)
        for _ in range(10):
            F = construct_22(*_random_marked(rng))
            F2, _ = inflate(F, ctx, rng, moves=rng.randint(1, 3))
            rep = minimise_22(F2, ctx)
            assert level(rep.model, ctx).level == 0
            assert rep.max_neutral_chain <= 2
            assert act(rep.transformation, F2) == rep.model


def test_22_certificate_and_monotone_trace(rng):
    ctx = LocalContext(3)
    F, _ = inflate(construct_22(*_random_marked(rng)), ctx, rng, moves=2)
    rep = minimise_22(F, ctx)
    vs = [s.v_disc_before for s in rep.steps] + [rep.v_disc_final]
    assert all(a >= b for a, b in zip(vs, vs[1:]))
    assert act(rep.transformation, F) == rep.model


def _sample_slender_pattern(rng, p, pattern):
    rows = []
    for r in range(3):
        row = []
        for c in range(3):
            v, exact = pattern[r][c]
            val = p ** v * rng.randint(1, p - 1) if p > 2 else p ** v
            if not exact and rng.randrange(2):
                val *= p
            row.append(val * rng.choice((1, -1)))
        rows.append(tuple(row))
    return TwoTwoForm(tuple(rows))


_SLENDER_PATTERNS = (
    (((2, 1), (2, 0), (2, 0)), ((1, 0), (1, 0), (1, 0)), ((1, 0), (1, 0), (0, 1))),
    (((2, 0), (1, 0), (1, 0)), ((2, 0), (1, 0), (1, 0)), ((2, 0), (1, 0), (0, 1))),
    (((3, 0), (2, 0), (1, 0)), ((2, 0), (1, 0), (1, 0)), ((1, 0), (1, 0), (0, 1))),
)


def test_22_slender_valuation_patterns(rng):
    # non-minimal forms reducing to x2^2 y2^2 obey one of three valuation
    # patterns; check it on independently generated non-minimal samples
    from g1min.exactnum import det_matrix
    from g1min.residue import TAG_PRODUCT_BOTH, classify_22_residue
    from g1min.minimise import _row_move

    p = 3
    ctx = LocalContext(p)
    checked = 0
    while checked < 25:
        F0 = _sample_slender_pattern(rng, p, _SLENDER_PATTERNS[rng.randrange(3)])
        if discriminant(F0) == 0:
            continue
        while True:
            mats = [tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
                    for _ in range(2)]
            if all(det_matrix(m) != 0 and det_matrix(m) % p for m in mats):
                break
        F = act(GroupElement("form22", 1, tuple(mats)), F0)
        cls = classify_22_residue(F, ctx)
        if cls.tag != TAG_PRODUCT_BOTH:
            continue
        norm = GroupElement("form22", 1, (_row_move(cls.x_root, p), _row_move(cls.y_root, p)))
        G = act(norm, F)
        assert not is_minimal_22(F, ctx)  # by construction
        ok = False
        for pat in _SLENDER_PATTERNS:
            if all(valuation(G.rows[r][c], p) >= pat[r][c][0]
                   for r in range(3) for c in range(3)):
                ok = True
        assert ok, G.rows
        checked += 1


def test_22_rejects_bad_input():
    with pytest.raises(ValueError):
        minimise_22(TwoTwoForm(((0,) * 3,) * 3), LocalContext(2))
    with pytest.raises(ValueError):
        minimise_22(TwoTwoForm(((Fraction(1, 2), 0, 0), (0, 0, -1), (1, 0, 0))),
                    LocalContext(2))


# ---------------------------------------------------------------------------
# cubes


def test_cube_content_division():
    S = construct_cube(0, 0, 0, 1)
    rep = minimise_cube(scalar_multiply(S, 2), LocalContext(2))
    assert rep.v_disc_initial - rep.v_disc_final == 36
    assert rep.model == S or discriminant(rep.model) == discriminant(S)


def test_cube_levi_civita_lift_is_minimal(rng):
    from g1min import cubics_of_cube

    for p in (2, 3, 5):
        ctx = LocalContext(p)
        while True:
            S = perturb_entries(levi_civita_cube(), p, rng)
            if discriminant(S) != 0:
                break
        assert all(all(c % p == 0 for c in f.coeffs) for f in cubics_of_cube(S))
        rep = minimise_cube(S, ctx)
        assert rep.input_was_minimal and rep.steps == ()


def test_cube_round_trips(rng):
    for p in (2, 3, 5):
        ctx = LocalContext(p)
        for _ in range(8):
            S = construct_cube(*_random_marked(rng))
            S2, _ = inflate(S, ctx, rng, moves=rng.randint(1, 3))
            rep = minimise_cube(S2, ctx)
            assert level(rep.model, ctx).level == 0
            assert rep.max_neutral_chain <= 3
            assert act(rep.transformation, S2) == rep.model


# ---------------------------------------------------------------------------
# hypercubes


def test_hypercube_identity_lift_is_minimal(rng):
    from g1min import quartics_of_hypercube

    for p in (2, 3, 5):
        ctx = LocalContext(p)
        while True:
            H = perturb_entries(identity_hypercube(), p * p, rng)
            if discriminant(H) != 0:
                break
        for G in quartics_of_hypercube(H):
            assert all(valuation(c, p) >= 2 for c in G.coeffs if c)
        rep = minimise_hypercube(H, ctx)
        assert rep.input_was_minimal and rep.steps == ()


def test_hypercube_content():
    H = nonzero_disc(random_hypercube, random.Random(5))
    rep = minimise_hypercube(scalar_multiply(H, 3), LocalContext(3))
    assert rep.v_disc_initial - rep.v_disc_final >= 24


def test_hypercube_round_trips(rng):
    for p in (2, 3):
        ctx = LocalContext(p)
        for _ in range(5):
            H = nonzero_disc(random_hypercube, rng)
            base = minimise_hypercube(H, ctx)
            H2, _ = inflate(base.model, ctx, rng, moves=rng.randint(1, 2))
            rep = minimise_hypercube(H2, ctx)
            assert rep.v_disc_final == base.v_disc_final
            assert rep.max_neutral_chain <= 2
            assert act(rep.transformation, H2) == rep.model


def test_hypercube_corollary_cross_check(rng):
    for p in (2, 3, 5):
        ctx = LocalContext(p)
        for _ in range(8):
            H = nonzero_disc(random_hypercube, rng)
            mine = minimise_hypercube(H, ctx).input_was_minimal
            forms = forms_of_hypercube(H)
            assert mine == any(minimise_22(F, ctx).input_was_minimal for F in forms.values())


def _level_zero_base(kind, ctx, rng):
    if kind == "quartic":
        while True:
            G = nonzero_disc(random_quartic, rng)
            if valuation(discriminant(G), ctx.p) < 12:
                return G
    if kind == "form22":
        return construct_22(*_random_marked(rng))
    if kind == "cube":
        return construct_cube(*_random_marked(rng))
    return minimise_hypercube(nonzero_disc(random_hypercube, rng), ctx).model


@pytest.mark.parametrize("kind", ["quartic", "form22", "cube", "hypercube"])
def test_certificates_carry_integer_matrices(kind, rng):
    for p in (2, 3, 5, 7):
        ctx = LocalContext(p)
        for moves in (1, 2, 3):
            m, _ = inflate(_level_zero_base(kind, ctx, rng), ctx, rng, moves=moves)
            rep = minimise(m, ctx)
            g = rep.transformation
            assert all(type(x) is int for mat in g.matrices for row in mat for x in row)
            assert rep.v_disc_initial + 12 * valuation(g.chi(), p) == rep.v_disc_final
            assert act(g, m) == rep.model


def test_singular_models_raise_the_typed_error():
    zero = TwoTwoForm(((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    for call in (lambda: minimise(zero, 5), lambda: minimise_global(zero),
                 lambda: level(zero, 5), lambda: oracle_minimality_22(zero, 5),
                 lambda: minimise(BinaryQuartic((1, 0, 0, 0, 0)), 2),
                 lambda: construct_22(0, 0, 0, 0), lambda: construct_cube(0, 0, 0, 0)):
        with pytest.raises(SingularModelError, match="singular"):
            call()


# ---------------------------------------------------------------------------
# verdicts: a pinned input for each loop exit and kind

_VERDICT_CASES = [
    # kind, coefficients, p, verdict, max_neutral_chain
    ("quartic", (1, 0, 0, 0, 1), 3, "BELOW_12", 0),
    ("quartic", (0, 243, -27, 486, -729), 3, "NO_RESIDUE_MOVE", 0),
    ("quartic", (-16, 0, 0, -48, 8), 2, "NEUTRAL_CHAIN_BOUND", 2),
    ("quartic", (4, -14, 4, 56, -80), 2, "NO_RESIDUE_MOVE", 2),
    ("form22", (0, 0, 1, -3, -3, -6, 0, -54, -54), 3, "BELOW_12", 0),
    ("form22", (-1, 4, 8, 0, 0, 4, 0, -2, -1), 2, "NO_RESIDUE_MOVE", 0),
    ("form22", (1, 2, 1, -1, 4, -3, 1, 2, 0), 2, "NO_RESIDUE_MOVE", 1),
    ("form22", (2, 8, -2, 8, 4, 2, 4, -2, 1), 2, "NO_INTEGRAL_LANDING", 0),
    ("form22", (2, -3, 2, 0, -4, 0, 4, 2, 0), 2, "NEUTRAL_CHAIN_BOUND", 2),
    ("cube", (0, -4, 0, 2, 0, -2, -18, -6, 2, 0, -2, 0, 2, 0, 0, -4, -8, 2, -2, 0, 0, 2, 0, 2,
              10, -8, 2), 2, "BELOW_12", 0),
    ("cube", (8, -3, 4, 2, 0, 0, 2, -4, -4, -4, -3, 0, 8, -2, 2, 4, 0, 2, -4, 2, -4, -3, 0, -2,
              -2, -1, -2), 2, "NO_RESIDUE_MOVE", 0),
    ("cube", (-3, 2, 8, 1, 0, 1, 2, -3, 0, 0, -3, -4, 4, 0, 1, 4, -1, -1, -3, 2, -3, 4, 0, 0,
              -1, 8, -4), 2, "NO_RESIDUE_MOVE", 2),
    ("cube", (-2, 2, -3, 0, 8, -3, -3, 8, 8, 0, -2, 8, -4, 0, 8, 4, 1, 0, 2, 2, -2, -4, 0, 2,
              1, 0, 2), 2, "NEUTRAL_CHAIN_BOUND", 3),
    ("hypercube", (-3, -1, 0, -3, 0, 9, 0, 2, 0, 3, -3, 27, -1, -3, 9, -1), 3, "BELOW_12", 0),
    ("hypercube", (-3, -1, -25, 1, 25, 0, 125, 0, -25, 125, 1, -1, 125, -3, 25, 5), 5,
     "BELOW_12", 2),
    ("hypercube", (0, 4, 8, -1, 2, 2, 2, -1, -4, 2, 1, 0, 2, -3, 4, -4), 2,
     "ONE_FORM_MINIMAL", 0),
    ("hypercube", HYPERCUBE_CHAIN_2, 2, "ONE_FORM_MINIMAL", 2),
]


@pytest.mark.parametrize("kind, coeffs, p, verdict, chain", _VERDICT_CASES,
                         ids=[f"{c[0]}-{c[3]}-{c[4]}" for c in _VERDICT_CASES])
def test_verdict_of_pinned_input(kind, coeffs, p, verdict, chain):
    m = SPECS[kind].model.from_coeffs(coeffs)
    rep = minimise(m, LocalContext(p))
    assert (rep.verdict, rep.max_neutral_chain) == (Verdict[verdict], chain)
    assert act(rep.transformation, m) == rep.model


def test_every_verdict_is_pinned():
    assert {case[3] for case in _VERDICT_CASES} == {v.name for v in Verdict}


def test_critical_models_give_their_verdicts():
    # minimal models of positive level: no (2,2) slender pair lands, the
    # cube procedure keeps the level until its bound, one hypercube form is
    # minimal
    for p in (5, 7, 101):
        for kind, verdict in (("form22", Verdict.NO_INTEGRAL_LANDING),
                              ("cube", Verdict.NEUTRAL_CHAIN_BOUND),
                              ("hypercube", Verdict.ONE_FORM_MINIMAL)):
            rep = minimise(critical_model(kind, p, 1), p)
            assert rep.input_was_minimal and rep.verdict is verdict


@pytest.mark.parametrize("kind", ["form22", "cube", "hypercube"])
@pytest.mark.parametrize("p", [5, 7, 11, 101, 65537, 2 ** 61 - 1])
def test_inflated_critical_models_return(kind, p):
    # a critical model is minimal of positive level, so minimising any
    # inflation of it must come back to its v(Delta) and its level
    ctx = LocalContext(p)
    rng = random.Random(f"orbit:{kind}:{p}")
    for _ in range(12):
        m = critical_model(kind, ctx, rng)
        v_disc, lvl = valuation(discriminant(m), p), level(m, ctx).level
        assert lvl >= 1
        for moves in (1, 2):
            inflated, _ = inflate(m, ctx, rng, moves=moves)
            rep = minimise(inflated, ctx)
            assert rep.v_disc_final == v_disc, (m, moves)
            assert level(rep.model, ctx).level == lvl


def _verdict_cases(kind, p, rng):
    """Random models, with coefficients in [-5, 5] and in {0, 1, -1, p, -p,
    p^2}, each also inflated by 1 to 3 moves; critical models at p >= 5."""
    bases = [nonzero_disc(lambda r: model_from_dict({"kind": kind, "coeffs": [
        str(r.choice(pool)) for _ in range(SPECS[kind].size)]}), rng)
        for pool in (range(-5, 6), (0, 1, -1, p, -p, p * p)) for _ in range(4)]
    models = [x for m in bases for x in [m] + [inflate(m, p, rng, moves=k)[0] for k in (1, 2, 3)]]
    if p >= 5 and kind != "quartic":
        models += [critical_model(kind, p, rng) for _ in range(3)]
    return models


@pytest.mark.parametrize("kind", ["quartic", "form22", "cube", "hypercube"])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 65537, 2 ** 61 - 1])
def test_is_minimal_agrees_with_minimise(kind, p):
    # the verdict-only run against the full minimisation, on minimal and
    # non-minimal models alike
    models = _verdict_cases(kind, p, random.Random(f"verdict:{kind}:{p}"))
    verdicts = [minimise(m, p).input_was_minimal for m in models]
    assert [is_minimal(m, p) for m in models] == verdicts
    if kind == "form22":
        assert [is_minimal_22(m, p) for m in models] == verdicts
    assert True in verdicts and False in verdicts


@pytest.fixture
def act_calls(monkeypatch):
    """The group elements that the minimiser passes to `act`, in order."""
    minimise_module = sys.modules["g1min.minimise"]
    calls, counted = [], minimise_module.act
    monkeypatch.setattr(minimise_module, "act", lambda g, m: calls.append(g) or counted(g, m))
    return calls


def test_is_minimal_composes_nothing_and_stops_at_the_first_drop(monkeypatch, act_calls):
    # the run keeps the identity as its transformation and checks no
    # certificate; once the content division lowers v(Delta), no step is
    # asked for a move
    cube = critical_model("cube", 5, 1)  # minimal, and ends at the chain bound
    calls, seen = act_calls, []
    for kind, (step, bound) in list(_STEPS.items()):
        monkeypatch.setitem(_STEPS, kind, (lambda d, step=step: seen.append(d.g) or step(d), bound))
    assert minimise(cube, 5).input_was_minimal and len(calls) == 10
    calls.clear()
    seen.clear()
    assert is_minimal(cube, 5) and len(calls) == 9  # all but the certificate
    assert seen == [GroupElement.identity("cube")] * 4
    for kind in ("form22", "cube", "hypercube"):
        # a minimal model of v(Delta) >= 12 times the least content divided out
        seen.clear()
        assert is_minimal(scalar_multiply(critical_model(kind, 5, 1), 5), 5) is False
        assert seen == []


def test_chain_bound_cube_builds_no_refused_procedure(act_calls):
    # at the chain bound the cube step classifies and stops: it builds no
    # fourth stretch and absorbs, which the driver would refuse
    coeffs, p = next((c[1], c[2]) for c in _VERDICT_CASES
                     if c[0] == "cube" and c[3] == "NEUTRAL_CHAIN_BOUND")
    rep = minimise(SPECS["cube"].model.from_coeffs(coeffs), LocalContext(p))
    assert (rep.verdict, rep.max_neutral_chain) == (Verdict.NEUTRAL_CHAIN_BOUND, 3)
    assert len(act_calls) == 11


def test_hypercube_minimise_checks_invariants_once(monkeypatch):
    # the six (2,2)-forms share the hypercube's Delta, so their verdict-only
    # runs take its valuation instead of their own invariants
    minimise_module = sys.modules["g1min.minimise"]
    seen = []
    checked = minimise_module.checked_invariants
    monkeypatch.setattr(minimise_module, "checked_invariants",
                        lambda m: seen.append(m.kind) or checked(m))
    for p in (5, 7):
        rng = random.Random(p)
        H = critical_model("hypercube", p, rng)
        for m in (H, inflate(H, p, rng, moves=1)[0], inflate(H, p, rng, moves=2)[0]):
            seen.clear()
            rep = minimise(m, p)
            assert rep.verdict is Verdict.ONE_FORM_MINIMAL
            assert seen == ["hypercube"]


def _with_rational_matrices(g, matrices):
    """The certificate of g with its matrices replaced by rational ones."""
    doc = group_element_to_dict(g)
    doc["scalar"] = "1"
    doc["matrices"] = [[[str(x) for x in row] for row in m] for m in matrices]
    return doc


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 2 ** 61 - 1])
def test_int_built_moves_equal_their_rational_forms(p):
    # the absorb diag(1, ..., 1, 1/p) u and the hypercube stretch
    # (diag(1/p, 1), diag(1, p), I, I) are built with int matrices and the
    # scalar 1/p; the certificate reader clears their rational forms to the
    # same elements
    rng = random.Random(f"absorb:{p}")
    for kind in ("cube", "hypercube"):
        sizes = SPECS[kind].matrix_sizes
        for axis, n in enumerate(sizes):
            for _ in range(8):
                ker = tuple(rng.randrange(p) for _ in range(n))
                if not any(ker):
                    continue
                g = _absorb(kind, ker, p, axis)
                assert g.scalar == Fraction(1, p)
                assert g.matrices[axis][-1] == unimodular_with_row(ker, p, n - 1)[-1]
                mats = [identity_matrix(k) for k in sizes]
                divide_last = tuple(tuple(Fraction(1, p) if i == j == n - 1 else int(i == j)
                                          for j in range(n)) for i in range(n))
                mats[axis] = mat_mul(divide_last, unimodular_with_row(ker, p, n - 1))
                assert g == group_element_from_dict(_with_rational_matrices(g, mats))
    i2 = identity_matrix(2)
    stretch = GroupElement("hypercube", Fraction(1, p), (((1, 0), (0, p)),) * 2 + (i2, i2))
    rational = (((Fraction(1, p), 0), (0, 1)), ((1, 0), (0, p)), i2, i2)
    assert stretch == group_element_from_dict(_with_rational_matrices(stretch, rational))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65537, 2 ** 61 - 1])
def test_memoised_absorb_equals_its_uncached_build(p):
    # _absorb is keyed on (kind, ker, p, axis) with ker reduced, as
    # fp_left_kernel_vector returns it; a hit is the same frozen element
    rng = random.Random(f"absorb-memo:{p}")
    for kind in ("cube", "hypercube"):
        for axis, n in enumerate(SPECS[kind].matrix_sizes):
            for _ in range(10):
                ker = tuple(rng.randrange(p) for _ in range(n))
                if not any(ker):
                    continue
                g = _absorb(kind, ker, p, axis)
                assert g == _absorb.__wrapped__(kind, ker, p, axis)
                assert _absorb(kind, ker, p, axis) is g
                assert all(type(m) is tuple and all(type(r) is tuple for r in m)
                           and all(type(x) is int for r in m for x in r) for m in g.matrices)
    assert type(_absorb.cache_info().maxsize) is int


# hypercubes whose minimisation reaches the stretch-slender move, found by
# scanning random hypercubes with coefficients in {0, +-1, +-p, p^2} and in
# [-3, 3] + {+-p, p^2}: 4 in 3000 reach it at p = 3, and 4 in 3000 at p = 5
_SLENDER_HYPERCUBES = {
    2: (0, -2, -2, 0, 0, 0, 0, -1, -2, 0, 4, -1, 2, 1, 1, 1),
    3: (-3, -3, 9, 1, 9, 9, -3, 3, 0, -1, -1, 3, 0, -3, 0, 1),
    5: (0, 25, 0, 5, -5, 0, 1, 0, 5, -5, -1, 25, 1, 25, 5, -1),
}


@pytest.mark.parametrize("p", sorted(_SLENDER_HYPERCUBES))
def test_hypercube_slender_stretch_desaturates(monkeypatch, p):
    # the doubly-degenerate stretch keeps the level and lands on an
    # unsaturated hypercube, which the step checks before proposing it
    H = Hypercube.from_coeffs(_SLENDER_HYPERCUBES[p])
    rep = minimise(H, LocalContext(p))
    labels = [s.label for s in rep.steps]
    assert labels[labels.index("stretch-slender") + 1] == "desaturate"
    assert act(rep.transformation, H) == rep.model
    minimise_module = importlib.import_module("g1min.minimise")
    monkeypatch.setattr(minimise_module, "saturation_defect", lambda m, ctx: None)
    with pytest.raises(InternalBoundError, match="failed to desaturate"):
        minimise(H, LocalContext(p))


# hypercubes whose minimisation swaps axes where nothing else does: after the
# corner clearing, with H[0][1][1][0] a unit and H[1][0][0][1] = 0 mod p
# (axes 0 and 1), and before the stretch, with H[1][1][0][0] and H[1][0][1][0]
# both 0 mod p (axes 1 and 3)
_SWAP_AXES_BRANCHES = [
    (7, (-1, 49, 1, 3, 0, 0, -1, 49, -1, 49, -7, 1, -7, 49, 3, 0),
     "elif h(1, 0, 0, 1) == 0:"),
    (2, (-2, 16, -2, -1, -1, 4, 0, 16, -2, 4, 4, 4, 4, 3, 16, 2),
     'd.apply(_hyper_move(perm=_swap_axes_perm(1, 3)), "swap-axes", expect_drop=0)'),
    (2, (296, 472, 80, 124, -992, -1876, -272, -512, 176, 288, 48, 76, -576, -1136, -160, -312),
     "elif h(1, 0, 0, 1) == 0:"),
    (2, (176, 40, 880, 200, 80, 20, 392, 96, -640, -160, -3264, -824, -296, -80, -1472, -392),
     'd.apply(_hyper_move(perm=_swap_axes_perm(1, 3)), "swap-axes", expect_drop=0)'),
]


def _certificate(scalar, matrices, perm):
    return {"kind": "hypercube", "scalar": scalar, "perm": perm,
            "matrices": [[[str(x) for x in row] for row in m] for m in matrices]}


# each input's Step labels, v(Delta) before and after, and certificate
_SWAP_AXES_REPORTS = {
    _SWAP_AXES_BRANCHES[0][1]: (
        ("move-singular-point", "corner-pivot", "entry-clear", "entry-clear", "swap-axes",
         "relabel-axes", "relabel-axes", "block-rows", "block-columns", "entry-clear",
         "entry-clear", "entry-clear", "stretch-singular", "desaturate"), 12, 0,
        _certificate("1/49", (((0, 1), (7, -84)), ((0, 1), (7, 0)), ((-7, 7), (1, 0)),
                              ((-17, 6), (65, -23))), [3, 0, 2, 1])),
    _SWAP_AXES_BRANCHES[1][1]: (
        ("move-singular-point", "block-rows", "block-columns", "swap-axes", "stretch-singular",
         "desaturate"), 14, 2,
        _certificate("1/4", (((0, 1), (2, 0)), ((1, 0), (0, 2)), ((2, 0), (0, 1)),
                             ((1, 0), (0, 1))), [0, 3, 2, 1])),
    _SWAP_AXES_BRANCHES[2][1]: (
        ("content", "desaturate", "move-singular-point", "swap-axes", "relabel-axes",
         "relabel-axes", "block-rows", "block-columns", "entry-clear", "stretch-singular",
         "desaturate"), 72, 0,
        _certificate("1/32", (((0, 1), (2, 0)), ((1, 0), (0, 4)), ((0, 1), (1, 0)),
                              ((2, -2), (0, 1))), [3, 0, 2, 1])),
    _SWAP_AXES_BRANCHES[3][1]: (
        ("content", "desaturate", "move-singular-point", "block-rows", "block-columns",
         "swap-axes", "entry-clear", "stretch-singular", "desaturate"), 74, 2,
        _certificate("1/32", (((2, 0), (0, 2)), ((1, 0), (0, 2)), ((0, 1), (1, 0)),
                              ((-2, 2), (1, 0))), [0, 3, 2, 1])),
}


def _hypercube_step_lines(H, p):
    """The report of minimising H at p, the stripped source lines of
    `_hypercube_step`, and the positions among them of the lines it ran."""
    step = importlib.import_module("g1min.minimise")._hypercube_step
    lines, first = inspect.getsourcelines(step)
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not step.__code__:
            return None
        if event == "line":
            ran.add(frame.f_lineno - first)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        rep = minimise(H, LocalContext(p))
    finally:
        sys.settrace(previous)
    return rep, [line.strip() for line in lines], ran


@pytest.mark.parametrize("p, coeffs, branch", _SWAP_AXES_BRANCHES)
def test_hypercube_swap_axes_branches(p, coeffs, branch):
    # the branch is the swap itself, or the condition on the line before it;
    # either text occurs once in the step
    H = Hypercube.from_coeffs(coeffs)
    rep, lines, ran = _hypercube_step_lines(H, p)
    assert lines.count(branch) == 1
    at = lines.index(branch) + branch.endswith(":")
    assert "swap-axes" in lines[at] and at in ran
    assert rep.verdict is Verdict.BELOW_12 and level(rep.model, p).level == 0
    assert act(rep.transformation, H) == rep.model
    labels, v_initial, v_final, certificate = _SWAP_AXES_REPORTS[coeffs]
    assert tuple(s.label for s in rep.steps) == labels
    assert (rep.v_disc_initial, rep.v_disc_final) == (v_initial, v_final)
    assert group_element_to_dict(rep.transformation) == certificate


def test_hypercube_chain_overrun_raises(monkeypatch):
    # hypercube minimality is decided by its forms, so the chain bound is a
    # theorem: reaching it is a bug, not a verdict
    # a verdict-only run keeps the check: it stops at the first drop of
    # v(Delta), so it starts from the model that the chain leaves unchanged
    step = _STEPS["hypercube"][0]
    seen = []
    monkeypatch.setitem(_STEPS, "hypercube", (lambda d: seen.append(d.cur) or step(d), 1))
    with pytest.raises(InternalBoundError, match="ran thrice"):
        minimise(Hypercube.from_coeffs(HYPERCUBE_CHAIN_2), LocalContext(2))
    with pytest.raises(InternalBoundError, match="ran thrice"):
        is_minimal(seen[1], LocalContext(2))


# ---------------------------------------------------------------------------
# global driver


def test_global_small_discriminant_untouched():
    G = BinaryQuartic((1, 0, 0, 0, 1))  # Delta = 256 = 2^8, below one level
    rep = minimise_global(G)
    assert rep.model == G and rep.local_reports == ()


def test_global_two_primes():
    F = construct_22(0, 0, 0, 1)
    scaled = scalar_multiply(F, 6)
    rep = minimise_global(scaled)
    assert rep.primes == (2, 3)
    assert discriminant(rep.model) == discriminant(F)
    assert act(rep.transformation, scaled) == rep.model


def test_global_construction_already_minimal():
    F = construct_22(0, 0, 0, 1)
    rep = minimise_global(F)
    assert rep.model == F and rep.primes == ()


def test_global_respects_other_primes(rng):
    F = construct_22(1, 0, 0, -1)
    d0 = discriminant(F)
    scaled = scalar_multiply(F, 2)
    rep = minimise_global(scaled)
    assert discriminant(rep.model) == d0
    for q in (3, 5, 7):
        assert valuation(discriminant(rep.model), q) == valuation(d0, q)


def _twelfth_power_primes(n):
    """Every prime p with p^12 | n, by trial division up to the 12th root of
    the part of n not yet split."""
    n, out, q = abs(n), [], 2
    while q ** 12 <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e >= 12:
            out.append(q)
        q += 1
    return out


def _global_reference(m):
    """minimise_global as it would be with every p^12 | Delta a candidate."""
    cur, g, locals_ = m, GroupElement.identity(m.kind), []
    for p in _twelfth_power_primes(discriminant(m)):
        rep = minimise(cur, LocalContext(p))
        if rep.steps:
            locals_.append((p, rep))
        cur, g = rep.model, rep.transformation.compose(g)
    return cur, g, tuple(p for p, _ in locals_)


@pytest.mark.parametrize("kind", ["quartic", "form22", "cube", "hypercube"])
def test_global_candidates_from_gcd_match_delta_reference(kind):
    # gcd(c4, c6) may miss only primes at which no step exists
    rng = random.Random(f"global-gcd:{kind}")
    pairs = [(2, 3), (3, 2), (2, rng.choice((5, 7, 11))), (3, rng.choice((5, 7, 11))),
             tuple(rng.sample((2, 3, 5, 7, 11, 13), 2))]
    for p1, p2 in pairs:
        m = _level_zero_base(kind, LocalContext(p1), rng)
        for p in (p1, p2):
            m, _ = inflate(m, LocalContext(p), rng, moves=rng.choice((1, 2)))
        rep = minimise_global(m)
        model, g, primes = _global_reference(m)
        assert (rep.model, rep.transformation, rep.primes) == (model, g, primes)
        assert primes, "the inflations left nothing to reduce"


def test_global_with_a_zero_invariant():
    # y^2 + y = x^3 has c4 = 0 and y^2 = x^3 + x has c6 = 0: g is the other one
    for curve in ((0, 0, 1, 0), (0, 0, 0, 1)):
        m = scalar_multiply(construct_22(*curve), 6)
        assert 0 in c4_c6(m)
        rep = minimise_global(m)
        assert (rep.model, rep.transformation, rep.primes) == _global_reference(m)
        assert rep.primes == (2, 3)


def test_global_evaluates_the_input_invariants_once(monkeypatch):
    # minimise_global derives Delta from the one (c4, c6) it factors, through
    # the input gate `invariants.checked_invariants`, and hands each
    # candidate prime's local run the input's v_p(Delta)
    import g1min.invariants as invariants

    seen = []

    def counted(m):
        seen.append(m)
        return c4_c6(m)

    monkeypatch.setattr(invariants, "c4_c6", counted)
    F = construct_22(0, 0, 0, 1)
    for m, primes in ((F, ()), (scalar_multiply(F, 6), (2, 3))):
        seen.clear()
        rep = minimise_global(m)
        assert rep.primes == primes
        assert len(seen) == 1
        assert seen[0] == m


def test_trial_division_factor():
    assert trial_division_factor(-2 ** 5 * 3 * 49) == [(2, 5), (3, 1), (7, 2)]
    # a composite rest below 2^80, here the primes 2^20 + 7 and 2^20 + 13, is dropped
    assert trial_division_factor(12 * (2 ** 20 + 7) * (2 ** 20 + 13)) == [(2, 2), (3, 1)]
    with pytest.raises(FactorizationError):
        big = (2 ** 31 - 1) * (2 ** 61 - 1)  # both prime, product too big to split
        trial_division_factor(big * big)


def test_minimise_dispatch_rejects_cubics():
    from g1min import TernaryCubic

    with pytest.raises(TypeError):
        minimise(TernaryCubic((1,) + (0,) * 9), LocalContext(2))


def test_axis_perm_moving_to_front():
    from g1min.minimise import _axis_perm_moving_to_front
    from g1min.models import GroupElement, act

    marked = [[[[0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    marked[1][0][1][0] = 7  # axis0 -> 1, axis2 -> 1
    H = Hypercube(tuple(tuple(tuple(tuple(r) for r in pl) for pl in blk) for blk in marked))
    for (a, b) in ((0, 2), (1, 3), (2, 3), (1, 2), (0, 3)):
        perm = _axis_perm_moving_to_front(a, b)
        out = act(GroupElement("hypercube", 1, (((1, 0), (0, 1)),) * 4, perm), H)
        idx = [0, 0, 0, 0]
        old = {0: 1, 1: 0, 2: 1, 3: 0}  # the marked position in old axes
        order = [a, b] + [t for t in range(4) if t not in (a, b)]
        for new_pos, old_axis in enumerate(order):
            idx[new_pos] = old[old_axis]
        assert out.at(*idx) == 7


def test_cube_trace_is_monotone(rng):
    ctx = LocalContext(2)
    for _ in range(6):
        S = construct_cube(*_random_marked(rng))
        S2, _ = inflate(S, ctx, rng, moves=3)
        rep = minimise_cube(S2, ctx)
        vs = [s.v_disc_before for s in rep.steps] + [rep.v_disc_final]
        assert all(a >= b for a, b in zip(vs, vs[1:]))
        for s in rep.steps:
            assert s.v_disc_after <= s.v_disc_before


def test_quartic_agrees_with_slope_oracle(rng):
    from conftest import quartic_slope_oracle_minimal

    for p in (2, 3, 5):
        ctx = LocalContext(p)
        pool = [0, 0, 1, -1, p, -p, p * p, 2, -3]
        done = 0
        while done < 120:
            G = BinaryQuartic(tuple(rng.choice(pool) for _ in range(5)))
            if discriminant(G) == 0:
                continue
            assert minimise_quartic(G, ctx).input_was_minimal == \
                quartic_slope_oracle_minimal(G, p)
            done += 1


def test_cube_minimality_withstands_weight_probes(rng):
    # randomised falsifier: try to reduce declared-minimal cubes by the
    # minimal admissible weight tuples with random unimodular substitutions
    from fractions import Fraction as Fr

    from g1min import Cube, enumerate_minimal_weights
    from g1min.models import is_integral

    weights = enumerate_minimal_weights()

    def rand_unimodular(p):
        m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(4):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                c = rng.randrange(-p * p, p * p + 1)
                for k in range(3):
                    m[i][k] += c * m[j][k]
        return m

    for p in (2, 3):
        ctx = LocalContext(p)
        pool = [0, 0, 1, -1, p, -p, p * p, 3]
        checked = 0
        while checked < 5:
            S = Cube(tuple(tuple(tuple(rng.choice(pool) for _ in range(3))
                                 for _ in range(3)) for _ in range(3)))
            d = discriminant(S)
            if d == 0 or valuation(d, p) < 12:
                continue
            if not minimise_cube(S, ctx).input_was_minimal:
                continue
            for _ in range(250):
                w = rng.choice(weights)
                a21, a31, a22, a32, a23, a33 = w.entries
                mats = []
                for (lo, hi) in ((a21, a31), (a22, a32), (a23, a33)):
                    u_mat = rand_unimodular(p)
                    mats.append(tuple(
                        tuple(u_mat[0][j] if i == 0 else p ** (lo if i == 1 else hi) * u_mat[i][j]
                              for j in range(3)) for i in range(3)))
                g = GroupElement("cube", Fr(1, p ** w.s), tuple(mats))
                assert not is_integral(act(g, S)), (p, S.entries, w)
            checked += 1
