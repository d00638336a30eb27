import json
import random
import sys
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, strategies as st

from g1min import (
    BinaryQuartic, Cube, GroupElement, Hypercube, TernaryCubic, TwoTwoForm,
    RefusedInputError, act, c4_c6, content_valuation, critical_model, cubics_of_cube,
    discriminant, forms_of_hypercube, inflate, level, model_from_dict, model_to_dict,
    quartics_of_22,
)
from g1min import models
from g1min.exactnum import (
    INFINITY, det_matrix, identity_matrix, mat_mul, valuation,
)
from g1min.invariants import quartic_invariants
from g1min.models import (
    SPECS, _parse_coeff, group_element_from_dict, group_element_to_dict,
)
from derived_form_oracle import quartics_of_hypercube
from matrix_oracle import mat_adj
from table_oracle import act_values
from substitution_oracle import ternary_substitute

from conftest import (
    hypercube_entry, identity_hypercube, levi_civita_cube, nonzero_disc, random_cube,
    random_cubic, random_form22, random_hypercube, random_quartic, relabel_axes, scaled_model,
)


def _rand_gl(n, rng, bound=3):
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n))
        if det_matrix(m) != 0:
            return m


def _rand_element(kind, rng):
    sizes = {"quartic": (2,), "form22": (2, 2), "cubic": (3,), "cube": (3, 3, 3),
             "hypercube": (2, 2, 2, 2)}[kind]
    la = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    return GroupElement(kind, la, tuple(_rand_gl(n, rng) for n in sizes))


def _inverse(g):
    """The inverse of g, through the checked constructor: A^-1 = adj(A) / det(A),
    each det(A) folded into the scalar as det(A) ** (n / chi_power), n the
    size of A, which leaves the action and chi unchanged."""
    fold = prod(det_matrix(m) ** (len(m) // SPECS[g.kind].chi_power) for m in g.matrices)
    return GroupElement(g.kind, 1 / (g.scalar * fold), tuple(map(mat_adj, g.matrices)))


def _landing(m, *elements):
    """m times the act_power of the scalar denominators of the elements, so
    that each of them, and each product of them, lands on an integral model."""
    den = prod(g.scalar.denominator for g in elements)
    return scaled_model(m, den ** SPECS[m.kind].act_power)


KIND_SAMPLERS = {
    "quartic": random_quartic,
    "form22": random_form22,
    "cube": random_cube,
    "hypercube": random_hypercube,
    "cubic": random_cubic,
}


def test_act_identity(rng):
    for kind, sample in KIND_SAMPLERS.items():
        m = sample(rng)
        assert act(GroupElement.identity(kind), m) == m


def test_act_coordinate_swap_on_22():
    F = TwoTwoForm(((0, 0, 0), (0, 0, 0), (0, 0, 1)))  # x2^2 y2^2
    swap = ((0, 1), (1, 0))
    out = act(GroupElement("form22", 1, (swap, swap)), F)
    assert out == TwoTwoForm(((1, 0, 0), (0, 0, 0), (0, 0, 0)))  # x1^2 y1^2


def test_hypercube_diagonal_scaling_pattern(rng):
    # [1/p, diag(1,p), diag(1,p), I, I]: corner blocks scale by p^{+-1}, mixed fixed
    p = 5
    H = scaled_model(random_hypercube(rng), p)
    g = GroupElement("hypercube", Fraction(1, p),
                     (((1, 0), (0, p)), ((1, 0), (0, p)),
                      ((1, 0), (0, 1)), ((1, 0), (0, 1))))
    out = act(g, H)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expect = hypercube_entry(H, i, j, k, l) * Fraction(p) ** (i + j - 1)
                    assert hypercube_entry(out, i, j, k, l) == expect


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_compose_and_inverse(kind, rng):
    for _ in range(12):
        g1 = _rand_element(kind, rng)
        g2 = _rand_element(kind, rng)
        m = _landing(KIND_SAMPLERS[kind](rng), g1, g2)
        assert act(g2, act(g1, m)) == act(g2.compose(g1), m)
        assert act(_inverse(g1), act(g1, m)) == m
        for g in (g2.compose(g1), GroupElement.identity(kind),
                  GroupElement.scaling(kind, 3)):
            assert g == GroupElement(g.kind, g.scalar, g.matrices)
            assert all(type(x) is int for mat in g.matrices for row in mat for x in row)
            assert type(g.scalar) is Fraction


def _element_with_identities(kind, rng):
    """A random element with a random subset of its factors set to the
    identity, and a Fraction or unit scalar."""
    g = _rand_element(kind, rng)
    mats = tuple(identity_matrix(len(A)) if rng.random() < 0.5 else A for A in g.matrices)
    return GroupElement(kind, rng.choice((1, g.scalar)), mats)


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_act_and_compose_with_identity_factors(kind, rng):
    for _ in range(25):
        g1 = _element_with_identities(kind, rng)
        g2 = _element_with_identities(kind, rng)
        m = _landing(KIND_SAMPLERS[kind](rng), g1, g2)
        for g in (g1, g2):
            # every factor contracted, whether it is the identity or not
            assert list(act(g, m).coeffs) == act_values(g, m)
        # compose against factor-by-factor mat_mul
        mats = tuple(map(mat_mul, g2.matrices, g1.matrices))
        composed = g2.compose(g1)
        assert composed == GroupElement(kind, g2.scalar * g1.scalar, mats)
        assert act(composed, m) == act(g2, act(g1, m))


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_identity_is_one_shared_element(kind, rng):
    # GroupElement.identity returns one cached, frozen instance per kind; it
    # acts and composes exactly as a freshly built identity does
    identity = GroupElement.identity(kind)
    assert GroupElement.identity(kind) is identity
    fresh = GroupElement(kind, 1, tuple(identity_matrix(n) for n in SPECS[kind].matrix_sizes))
    assert identity == fresh
    for _ in range(5):
        m, g = KIND_SAMPLERS[kind](rng), _rand_element(kind, rng)
        assert act(identity, m) == act(fresh, m) == m
        assert identity.compose(g) == fresh.compose(g) == g
        assert g.compose(identity) == g.compose(fresh) == g
    assert GroupElement.identity(kind) is identity


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_identity_factors_cost_no_contraction(kind, rng, monkeypatch):
    calls = {"mode": 0, "mul": 0}
    real_mode, real_mul = models._mode_product, models.mat_mul

    def counted_mode(*args):
        calls["mode"] += 1
        return real_mode(*args)

    def counted_mul(*args):
        calls["mul"] += 1
        return real_mul(*args)

    monkeypatch.setattr(models, "_mode_product", counted_mode)
    monkeypatch.setattr(models, "mat_mul", counted_mul)
    m = KIND_SAMPLERS[kind](rng)
    g = _rand_element(kind, rng)
    sizes = SPECS[kind].matrix_sizes
    one_axis = GroupElement(kind, Fraction(1, 2), (g.matrices[0],) + tuple(
        identity_matrix(n) for n in sizes[1:]))
    identity = GroupElement.identity(kind)
    for h, contractions in ((identity, 0), (GroupElement.scaling(kind, Fraction(-3, 2)), 0),
                            (one_axis, 1)):
        calls["mode"] = 0
        act(h, m)
        assert calls["mode"] == contractions
    calls["mul"] = 0
    assert identity.compose(g) == g == g.compose(identity)
    assert calls["mul"] == 0
    one_axis.compose(g)
    assert calls["mul"] == 1


def _landed(values):
    """The int coefficients of exact values, or None when one is not integral."""
    if any(x.denominator != 1 for x in values):
        return None
    return tuple(x.numerator for x in values)


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_act_is_none_exactly_off_the_integral_models(kind, p, rng):
    # the contract of act: for scalars 1/p, 1/p^2 and p, None exactly when the
    # exact rational loop product is not integral, and that product otherwise
    outcomes = set()
    for _ in range(30):
        h = _rand_element(kind, rng)
        g = GroupElement(kind, rng.choice((Fraction(1, p), Fraction(1, p * p), p)), h.matrices)
        m = scaled_model(KIND_SAMPLERS[kind](rng), p ** rng.randrange(4))
        out, expected = act(g, m), _landed(act_values(g, m))
        assert (None if out is None else out.coeffs) == expected
        outcomes.add(out is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_act_is_exact_for_non_integral_scalars(kind, rng):
    # act divides by the scalar denominator's power: the model it returns
    # holds Fraction(scalar) ** act_power times the integral contraction,
    # and where one of those is not integral it returns None
    power = SPECS[kind].act_power
    outcomes = set()
    for _ in range(30):
        den = rng.choice((2, 3, 4, 6))
        m = scaled_model(KIND_SAMPLERS[kind](rng), rng.choice((1, den, den ** power)))
        h = _rand_element(kind, rng)
        g = GroupElement(kind, Fraction(rng.choice((-5, -1, 1, 7)), den), h.matrices)
        contraction = act(GroupElement(kind, 1, h.matrices), m).coeffs
        out = act(g, m)
        expected = _landed([g.scalar ** power * x for x in contraction])
        assert (None if out is None else out.coeffs) == expected
        outcomes.add(out is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_act_of_compose_through_rational_models(kind, rng):
    # act(g.compose(h), m) == act(g, act(h, m)) where act(h, m) lands; where
    # it does not, no model holds the rational image between the two, and the
    # product acts in one step with the exact value of the two loop products
    rational = 0
    for _ in range(20):
        m = KIND_SAMPLERS[kind](rng)
        g, h = _rand_element(kind, rng), _rand_element(kind, rng)
        h = GroupElement(kind, Fraction(rng.randint(1, 5), rng.choice((2, 3, 5))), h.matrices)
        m = _landing(m, g) if rng.random() < 0.5 else _landing(m, g, h)
        between = act(h, m)
        rational += between is None
        if between is not None:
            assert act(g.compose(h), m) == act(g, between)
        out, expected = act(g.compose(h), m), _landed(act_values(g.compose(h), m))
        assert (None if out is None else out.coeffs) == expected
    assert rational > 0


def quotient(x, d):
    """x / d, exactly: an int when the quotient is integral, else a Fraction."""
    f = Fraction(x, d)
    return f.numerator if f.denominator == 1 else f


def _act_by_quotient(g, m):
    """The coefficients of act(g, m) as act computed them before its divmod
    pass: every factor contracted, then quotient(num * x, den) of each
    coefficient, an int or a Fraction."""
    spec = SPECS[m.kind]
    t = m.coeffs
    for fibres, A in zip(spec.fibres, g.matrices):
        t = models._mode_product(t, spec.axis_matrix(A) if spec.axis_matrix else A, fibres)
    num = g.scalar.numerator ** spec.act_power
    den = g.scalar.denominator ** spec.act_power
    return tuple(quotient(num * x, den) for x in t)


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_act_matches_the_quotient_path(kind, rng):
    # int models under int, unit-fraction and other Fraction scalars: the
    # values of quotient of every coefficient where all of them are ints,
    # None where one is a Fraction
    seen = set()
    for trial in range(60):
        h = _element_with_identities(kind, rng)
        scalar = rng.choice((1, -2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)))
        g = GroupElement(kind, scalar, h.matrices)
        m = KIND_SAMPLERS[kind](rng)
        if trial % 2:  # divisible by the denominator's power: no remainder
            m = scaled_model(m, g.scalar.denominator ** SPECS[kind].act_power)
        out = act(g, m)
        expected = _act_by_quotient(g, m)
        landed = all(type(c) is int for c in expected)
        assert (None if out is None else out.coeffs) == (expected if landed else None)
        seen.add((g.scalar.denominator == 1, landed))
    assert {(True, True), (False, True), (False, False)} <= seen


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_from_coeffs_takes_ints_only(kind, rng):
    # a Fraction, even an integral one, or a bool is refused, from the flat
    # tuple and from the nested layout alike
    m = KIND_SAMPLERS[kind](rng)
    assert SPECS[kind].model.from_coeffs(list(m.coeffs)) == m
    assert SPECS[kind].model(models._nest(m.coeffs, SPECS[kind].shape)) == m
    for bad in (Fraction(2), Fraction(1, 2), True):
        coeffs = list(m.coeffs[:-1]) + [bad]
        message = f"model coefficients are ints, not {type(bad).__name__}"
        with pytest.raises(RefusedInputError, match=message):
            SPECS[kind].model.from_coeffs(coeffs)
        with pytest.raises(RefusedInputError, match=message):
            SPECS[kind].model(models._nest(coeffs, SPECS[kind].shape))


def _random_chain_element(kind, rng):
    """A random element of a random chain of compose and inverse, every factor
    starting from checked constructions, scalings or the identity; the
    inverses are checked constructions too."""
    g = _element_with_identities(kind, rng)
    for _ in range(rng.randint(1, 6)):
        step = rng.random()
        if step < 0.4:
            g = g.compose(_element_with_identities(kind, rng))
        elif step < 0.7:
            g = _element_with_identities(kind, rng).compose(g)
        elif step < 0.9:
            g = _inverse(g)
        else:
            g = g.compose(GroupElement.scaling(kind, Fraction(rng.randint(1, 5), 3)))
    return g


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_products_and_inverses_carry_their_determinants(kind, rng):
    # compose and scaling skip the constructor's checks: the
    # determinants they carry are det_matrix of their matrices, chi is
    # unchanged, and the element equals, hashes, prints and serialises as
    # the checked construction from the same fields
    chi_power = SPECS[kind].chi_power
    for _ in range(40):
        g = _random_chain_element(kind, rng)
        assert g._dets == tuple(map(det_matrix, g.matrices))
        assert g.chi() == g.scalar ** chi_power * prod(map(det_matrix, g.matrices))
        checked = GroupElement(g.kind, g.scalar, g.matrices)
        assert checked._dets == g._dets
        assert g == checked and hash(g) == hash(checked) and repr(g) == repr(checked)
        assert group_element_to_dict(g) == group_element_to_dict(checked)
        assert type(g.scalar) is Fraction
        assert all(type(x) is int for mat in g.matrices for row in mat for x in row)
        assert all(type(mat) is tuple and all(type(row) is tuple for row in mat)
                   for mat in g.matrices)


def test_singular_group_element_rejected():
    singular = ((1, 2), (2, 4))
    with pytest.raises(ValueError, match="singular matrix in group element"):
        GroupElement("form22", 1, (singular, ((1, 0), (0, 1))))
    doc = group_element_to_dict(GroupElement.identity("form22"))
    doc["matrices"][0] = [[str(x) for x in row] for row in singular]
    with pytest.raises(ValueError, match="singular matrix in group element"):
        group_element_from_dict(doc)


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_group_element_takes_int_entries_only(kind, rng):
    # a move is built as it is stored, and a certificate is read as it was
    # written: neither takes a rational matrix entry
    g = _rand_element(kind, rng)
    for entry in (Fraction(1, 2), Fraction(4, 2), 1.0, True):
        mats = list(g.matrices)
        mats[-1] = (((entry,) + mats[-1][0][1:]),) + mats[-1][1:]
        with pytest.raises(ValueError, match="group element matrices take int entries"):
            GroupElement(kind, g.scalar, tuple(mats))
    doc = group_element_to_dict(g)
    doc["matrices"][-1][0][0] = "1/2"
    with pytest.raises(ValueError, match="group element matrices take int entries"):
        group_element_from_dict(doc)


def _explicit_cube_action(g, S):
    """la * sum A[i][i'] B[j][j'] C[k][k'] s[i'][j'][k'], written out, in
    the flat order."""
    A, B, C = g.matrices
    out = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                tot = 0
                for i2 in range(3):
                    for j2 in range(3):
                        for k2 in range(3):
                            tot += A[i][i2] * B[j][j2] * C[k][k2] * S.entries[i2][j2][k2]
                out[i][j][k] = g.scalar * tot
    return [x for plane in out for row in plane for x in row]


def _explicit_hypercube_action(g, H):
    """la * sum A[i][i'] B[j][j'] C[k][k'] D[l][l'] h[i'][j'][k'][l'], in
    the flat order."""
    rng2 = range(2)
    A, B, C, D = g.matrices
    out = [[[[0] * 2 for _ in rng2] for _ in rng2] for _ in rng2]
    for i in rng2:
        for j in rng2:
            for k in rng2:
                for l in rng2:
                    tot = 0
                    for i2 in rng2:
                        for j2 in rng2:
                            for k2 in rng2:
                                for l2 in rng2:
                                    tot += (A[i][i2] * B[j][j2] * C[k][k2] * D[l][l2]
                                            * hypercube_entry(H, i2, j2, k2, l2))
                    out[i][j][k][l] = g.scalar * tot
    return [x for block in out for plane in block for row in plane for x in row]


def test_act_matches_explicit_multilinear_sum(rng):
    for _ in range(10):
        g = _rand_element("cube", rng)
        S = _landing(random_cube(rng), g)
        assert list(act(g, S).coeffs) == _explicit_cube_action(g, S)
    for _ in range(30):
        g = _rand_element("hypercube", rng)
        H = _landing(random_hypercube(rng), g)
        assert list(act(g, H).coeffs) == _explicit_hypercube_action(g, H)


def test_chi_matches_discriminant_scaling(rng):
    for kind in KIND_SAMPLERS:
        for _ in range(6):
            g = _rand_element(kind, rng)
            m = _landing(nonzero_disc(KIND_SAMPLERS[kind], rng), g)
            lhs = Fraction(discriminant(act(g, m)))
            assert lhs == g.chi() ** 12 * discriminant(m)


def test_quartics_of_22_examples():
    F = TwoTwoForm(((0, 0, 0), (0, 1, 0), (0, 0, 0)))  # x1 x2 y1 y2
    g1, g2 = quartics_of_22(F)
    assert g1 == BinaryQuartic((0, 0, 1, 0, 0))
    assert g2 == BinaryQuartic((0, 0, 1, 0, 0))

    zero = TwoTwoForm(((0,) * 3,) * 3)
    assert quartics_of_22(zero) == (BinaryQuartic((0,) * 5), BinaryQuartic((0,) * 5))

    F = TwoTwoForm(((1, 0, 0), (0, 0, -1), (1, 0, 0)))
    g1, _ = quartics_of_22(F)
    assert g1 == BinaryQuartic((0, 4, 0, 4, 0))  # 4 x1^3 x2 + 4 x1 x2^3


def test_22_to_quartic_compatibility(rng):
    for _ in range(15):
        F = random_form22(rng)
        A, B = _rand_gl(2, rng), _rand_gl(2, rng)
        la = Fraction(rng.randint(1, 5))
        F2 = act(GroupElement("form22", la, (A, B)), F)
        g1, g2 = quartics_of_22(F)
        g1p, g2p = quartics_of_22(F2)
        assert g1p == act(GroupElement("quartic", la * det_matrix(B), (A,)), g1)
        assert g2p == act(GroupElement("quartic", la * det_matrix(A), (B,)), g2)


def test_cubics_of_cube_examples():
    diag = Cube((
        ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
    ))
    f1 = cubics_of_cube(diag)[0]
    assert f1 == TernaryCubic.from_dict({(1, 1, 1): 1})  # xyz

    lc = levi_civita_cube()
    assert all(f == TernaryCubic((0,) * 10) for f in cubics_of_cube(lc))

    zero = Cube((((0,) * 3,) * 3,) * 3)
    assert all(f == TernaryCubic((0,) * 10) for f in cubics_of_cube(zero))


def test_cube_to_cubic_compatibility(rng):
    for _ in range(10):
        S = random_cube(rng)
        mats = tuple(_rand_gl(3, rng) for _ in range(3))
        S2 = act(GroupElement("cube", 1, mats), S)
        fs, fs2 = cubics_of_cube(S), cubics_of_cube(S2)
        dets = [det_matrix(m) for m in mats]
        for i in range(3):
            j, k = (t for t in range(3) if t != i)
            want = ternary_substitute(fs[i], mats[i])
            want = TernaryCubic(tuple(dets[j] * dets[k] * c for c in want.coeffs))
            assert fs2[i] == want


def test_forms_of_hypercube_examples(rng):
    ih = identity_hypercube()
    f12 = forms_of_hypercube(ih)[(0, 1)]
    assert f12 == TwoTwoForm(((1, 0, 0), (0, 2, 0), (0, 0, 1)))  # (x1y1 + x2y2)^2

    zero = Hypercube(((((0,) * 2,) * 2,) * 2,) * 2)
    assert all(F == TwoTwoForm(((0,) * 3,) * 3)
               for F in forms_of_hypercube(zero).values())

    for _ in range(10):
        H = random_hypercube(rng, bound=5)
        invs = set()
        for F in forms_of_hypercube(H).values():
            g1, _ = quartics_of_22(F)
            invs.add(quartic_invariants(g1)[:2])
        assert len(invs) == 1  # all six forms share I and J


def test_hypercube_to_22_compatibility(rng):
    for _ in range(10):
        H = random_hypercube(rng)
        mats = tuple(_rand_gl(2, rng) for _ in range(4))
        H2 = act(GroupElement("hypercube", 1, mats), H)
        F12 = forms_of_hypercube(H)[(0, 1)]
        F12p = forms_of_hypercube(H2)[(0, 1)]
        la = det_matrix(mats[2]) * det_matrix(mats[3])
        assert F12p == act(GroupElement("form22", la, (mats[0], mats[1])), F12)


def test_quartics_of_hypercube_agree(rng):
    for _ in range(10):
        quartics_of_hypercube(random_hypercube(rng))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_axis_relabelling_keeps_invariants_and_level(p, rng):
    # the normalising step of tests/replaced_routines.py reads its hypercube
    # with the axes relabelled: c4, c6, Delta and the level at p are the same
    # under each of the 24 relabellings, on random, inflated and (p >= 5)
    # critical hypercubes
    hypercubes = [nonzero_disc(random_hypercube, rng) for _ in range(2)]
    hypercubes += [inflate(H, p, rng)[0] for H in hypercubes]
    if p >= 5:
        hypercubes += [critical_model("hypercube", p, rng) for _ in range(2)]
    levels = []
    for H in hypercubes:
        expected = c4_c6(H), discriminant(H), level(H, p)
        levels.append(expected[2].level)
        for perm in permutations(range(4)):
            G = relabel_axes(H, perm)
            assert (c4_c6(G), discriminant(G), level(G, p)) == expected
    assert max(levels) > 0


def test_json_round_trip(rng):
    for kind, sample in KIND_SAMPLERS.items():
        m = sample(rng)
        doc = model_to_dict(m)
        assert json.loads(json.dumps(doc)) == doc
        assert model_from_dict(doc) == m
    for kind in KIND_SAMPLERS:
        g = _rand_element(kind, rng)
        doc = group_element_to_dict(g)
        assert json.loads(json.dumps(doc)) == doc
        assert group_element_from_dict(doc) == g
        # a hypercube certificate carries the identity "perm" as a fixed key,
        # and reads back with it or without it
        assert ("perm" in doc) == (kind == "hypercube")
        if kind == "hypercube":
            assert doc["perm"] == [0, 1, 2, 3]
            del doc["perm"]
            assert group_element_from_dict(doc) == g
    cub = TernaryCubic(tuple(range(10)))
    assert model_from_dict(model_to_dict(cub)) == cub


def test_json_reads_integral_spellings_as_ints():
    doc = {"kind": "quartic", "coeffs": ["4/2", "1e3", "-1_000", "-6/3", "0"]}
    m = model_from_dict(doc)
    assert m.coeffs == (2, 1000, -1000, -2, 0)
    assert model_to_dict(m)["coeffs"] == ["2", "1000", "-1000", "-2", "0"]
    for coeff in ("1/2", "1.5", "1e-2"):
        with pytest.raises(RefusedInputError, match="model must be integral"):
            model_from_dict({"kind": "quartic", "coeffs": [coeff, "0", "0", "0", "1"]})


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        model_from_dict({"kind": "nope", "coeffs": []})
    with pytest.raises(ValueError):
        model_from_dict({"kind": "quartic", "coeffs": ["1"] * 4})
    for doc in ([1, 2], None, "cube", 7):
        with pytest.raises(ValueError, match="model document must be a JSON object"):
            model_from_dict(doc)


def _outcome(parse, s):
    """(value, type) of parse(s), or the type of the exception it raises."""
    try:
        v = parse(s)
    except Exception as e:
        return type(e)
    return v, type(v)


def _fraction_parse(s):
    x = Fraction(s)
    return x.numerator if x.denominator == 1 else x


def test_parse_coeff_matches_fraction():
    # the int() fast path must accept, value and reject exactly as Fraction,
    # an integral value read as an int
    corpus = [
        "0", "7", "-7", "+7", "-0", " 12 ", "\t-3\n", "1_000", "-1_000_000", "1__0",
        "_1", "1_", "\u0663\u0664", "\uff11\uff12", "1.5", "-2.0", "3/4", "-6/3",
        " 1/2 ", "1e3", "1E-2", "", " ", "0x10", "0b1", "1/0", "+-1", "1 2", "nan",
        "inf", "1.", ".5", 7, -3, 1.5, Fraction(6, 3), True,
    ]
    # every space, digit and numeric character, alone and around digits
    special = [chr(c) for c in range(sys.maxunicode + 1)
               if chr(c).isspace() or chr(c).isnumeric()]
    corpus += [f for c in special for f in (c, c + "1" + c, "1" + c + "2", "-" + c + "3")]
    for s in corpus:
        assert _outcome(_parse_coeff, s) == _outcome(_fraction_parse, s), repr(s)
    huge = "-" + "9" * 5000
    # a ValueError on both paths under CPython's 4300-digit limit
    assert _outcome(_parse_coeff, huge) == _outcome(_fraction_parse, huge)
    if hasattr(sys, "set_int_max_str_digits"):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert _outcome(_parse_coeff, huge) == _outcome(_fraction_parse, huge)
            assert _outcome(_parse_coeff, huge) == (-(10 ** 5000 - 1), int)
        finally:
            sys.set_int_max_str_digits(old)


VALUATION_PRIMES = (2, 3, 5, 7, 65537)


@given(st.sampled_from(sorted(SPECS)), st.sampled_from(VALUATION_PRIMES),
       st.integers(0, 2 ** 32), st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_chi_valuation_is_the_valuation_of_chi(kind, p, seed, exponents):
    # chains of compose and inverse of every kind, and an element whose
    # Fraction scalar and determinants carry powers of p
    rng = random.Random(seed)
    num, den, *diagonal = exponents
    spec = SPECS[kind]
    mats = tuple(tuple(tuple(p ** e if i == j == 0 else int(i == j) for j in range(n))
                       for i in range(n)) for n, e in zip(spec.matrix_sizes, diagonal))
    deep = GroupElement(kind, Fraction(p ** num, p ** den * rng.randint(1, 4)), mats)
    chain = _random_chain_element(kind, rng)
    for g in (chain, deep, deep.compose(chain), chain.compose(deep), _inverse(deep)):
        assert g.chi_valuation(p) == valuation(g.chi(), p)


_PAST_DIGIT_LIMIT = 10 ** 4400  # more digits than CPython converts to str by default


@given(st.sampled_from(sorted(SPECS)), st.sampled_from(VALUATION_PRIMES), st.data())
def test_content_valuation_is_the_least_coefficient_valuation(kind, p, data):
    coefficient = st.one_of(
        st.just(0),
        st.builds(lambda c, e: c * p ** e, st.integers(-30, 30), st.integers(0, 8)),
        # 10^4400 + c for c != 0 has small valuations: a valuation costs one
        # division per unit
        st.builds(lambda c, e: (_PAST_DIGIT_LIMIT + c) * p ** e,
                  st.integers(1, 9), st.integers(0, 8)))
    size = SPECS[kind].size
    coeffs = data.draw(st.lists(coefficient, min_size=size, max_size=size))
    model = SPECS[kind].model.from_coeffs
    assert content_valuation(model(coeffs), p) == min(valuation(c, p) for c in coeffs)
    assert content_valuation(model([0] * size), p) == INFINITY


def test_degenerate_zero_models_accepted():
    zero = TwoTwoForm(((0,) * 3,) * 3)
    assert discriminant(zero) == 0


def test_cube_slicing_round_trips(rng):
    S = random_cube(rng)
    for axis in range(3):
        sl = S.slices(axis)
        rebuilt = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for m in range(3):
            for a in range(3):
                for b in range(3):
                    idx = [a, b]
                    idx.insert(axis, m)
                    rebuilt[idx[0]][idx[1]][idx[2]] = sl[m][a][b]
        assert Cube(tuple(tuple(tuple(r) for r in pl) for pl in rebuilt)) == S
