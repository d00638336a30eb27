import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from g1min import (
    BinaryQuartic, Cube, GroupElement, Hypercube, TernaryCubic, TwoTwoForm,
    act, content_valuation, cubics_of_cube, discriminant, forms_of_hypercube,
    model_from_dict, model_to_dict, quartics_of_22, quartics_of_hypercube,
    scalar_clear,
)
from g1min import models
from g1min.exactnum import det_matrix, identity_matrix, mat_mul
from g1min.invariants import quartic_invariants
from g1min.models import (
    SPECS, _num, _parse_coeff, group_element_from_dict, group_element_to_dict, is_integral,
    scalar_multiply,
)
from substitution_oracle import binary_form_substitute, ternary_substitute

from conftest import (
    identity_hypercube, levi_civita_cube, nonzero_disc, random_cube, random_cubic,
    random_form22, random_hypercube, random_quartic,
)


def _rand_gl(n, rng, bound=3):
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n))
        if det_matrix(m) != 0:
            return m


def _rand_element(kind, rng, with_perm=True):
    sizes = {"quartic": (2,), "form22": (2, 2), "cubic": (3,), "cube": (3, 3, 3),
             "hypercube": (2, 2, 2, 2)}[kind]
    la = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    mats = tuple(_rand_gl(n, rng) for n in sizes)
    perm = None
    if kind == "hypercube":
        perm = tuple(rng.sample(range(4), 4)) if with_perm else (0, 1, 2, 3)
    return GroupElement(kind, la, mats, perm)


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
    H = random_hypercube(rng)
    g = GroupElement("hypercube", Fraction(1, p),
                     (((1, 0), (0, p)), ((1, 0), (0, p)),
                      ((1, 0), (0, 1)), ((1, 0), (0, 1))), (0, 1, 2, 3))
    out = act(g, H)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expect = Fraction(H.at(i, j, k, l)) * Fraction(p) ** (i + j - 1)
                    assert Fraction(out.at(i, j, k, l)) == expect


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_compose_and_inverse(kind, rng):
    for _ in range(12):
        m = KIND_SAMPLERS[kind](rng)
        g1 = _rand_element(kind, rng)
        g2 = _rand_element(kind, rng)
        assert act(g2, act(g1, m)) == act(g2.compose(g1), m)
        assert act(g1.inverse(), act(g1, m)) == m
        for g in (g2.compose(g1), g1.inverse(), GroupElement.identity(kind),
                  GroupElement.scaling(kind, 3)):
            assert g == GroupElement(g.kind, g.scalar, g.matrices, g.perm)
            assert all(type(x) is int for mat in g.matrices for row in mat for x in row)
            assert type(g.scalar) is Fraction


def _element_with_identities(kind, rng):
    """A random element with a random subset of its factors set to the
    identity, a Fraction or unit scalar, and for hypercubes a random or no
    permutation."""
    g = _rand_element(kind, rng, with_perm=rng.random() < 0.7)
    mats = tuple(identity_matrix(len(A)) if rng.random() < 0.5 else A for A in g.matrices)
    return GroupElement(kind, rng.choice((1, g.scalar)), mats, g.perm)


def _contract_every_factor(g, m):
    """The coefficients of act(g, m) as Fractions, every factor contracted
    along its axis whether it is the identity or not."""
    spec = SPECS[m.kind]
    t = [Fraction(c) for c in m.coeffs]
    if g.perm is not None:
        t = [t[n] for n in spec.perm_index[g.perm]]
    for fibres, A in zip(spec.fibres, g.matrices):
        M = spec.axis_matrix(A) if spec.axis_matrix else A
        out = [None] * len(t)
        for fibre in fibres:
            for pos, row in zip(fibre, M):
                out[pos] = sum(c * t[n] for c, n in zip(row, fibre))
        t = out
    return [g.scalar ** spec.act_power * x for x in t]


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_act_and_compose_with_identity_factors(kind, rng):
    for _ in range(25):
        m = KIND_SAMPLERS[kind](rng)
        if rng.random() < 0.3:
            m = scalar_multiply(m, Fraction(1, rng.choice((2, 3, 6))))
        g1 = _element_with_identities(kind, rng)
        g2 = _element_with_identities(kind, rng)
        for g in (g1, g2):
            out = act(g, m)
            expected = SPECS[kind].model.from_coeffs(_contract_every_factor(g, m))
            assert out == expected
            assert list(map(type, out.coeffs)) == list(map(type, expected.coeffs))
        # compose against factor-by-factor mat_mul, with the same axis bookkeeping
        if g2.perm is None:
            perm, mats = None, tuple(map(mat_mul, g2.matrices, g1.matrices))
        else:
            perm = tuple(g2.perm[g1.perm[a]] for a in range(4))
            mats = tuple(mat_mul(g2.matrices[a], g1.matrices[g2.perm.index(a)])
                         for a in range(4))
        composed = g2.compose(g1)
        assert composed == GroupElement(kind, g2.scalar * g1.scalar, mats, perm)
        assert act(composed, m) == act(g2, act(g1, m))


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
        identity_matrix(n) for n in sizes[1:]), g.perm)
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


def _exact_values(coeffs):
    return [Fraction(c) for c in coeffs], [type(c) is int for c in coeffs]


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_act_is_exact_for_non_integral_scalars(kind, rng):
    # act divides exactly by the scalar denominator's power: a coefficient is
    # an int exactly when its value is integral, and the values are those of
    # Fraction(scalar) ** act_power times the integral contraction
    power = SPECS[kind].act_power
    types = set()
    for _ in range(30):
        den = rng.choice((2, 3, 4, 6))
        m = scalar_multiply(KIND_SAMPLERS[kind](rng), rng.choice((1, den, den ** power)))
        h = _rand_element(kind, rng)
        g = GroupElement(kind, Fraction(rng.choice((-5, -1, 1, 7)), den), h.matrices, h.perm)
        contraction = act(GroupElement(kind, 1, h.matrices, h.perm), m).coeffs
        expected = [Fraction(g.scalar) ** power * x for x in contraction]
        values, is_int = _exact_values(act(g, m).coeffs)
        assert values == expected
        assert is_int == [e.denominator == 1 for e in expected]
        types.update(is_int)
    assert types == {True, False}


def test_act_on_rational_quartics(rng):
    for _ in range(30):
        m = BinaryQuartic(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                for _ in range(5)))
        g = _rand_element("quartic", rng)
        expected = [g.scalar ** 2 * c for c in binary_form_substitute(m.coeffs, g.matrices[0])]
        values, is_int = _exact_values(act(g, m).coeffs)
        assert values == expected
        assert is_int == [e.denominator == 1 for e in expected]


@pytest.mark.parametrize("kind", list(KIND_SAMPLERS))
def test_act_of_compose_through_rational_models(kind, rng):
    # act(g.compose(h), m) == act(g, act(h, m)), also where act(h, m) has
    # Fraction coefficients that act(g, .) must clear again
    rational = 0
    for _ in range(20):
        m = KIND_SAMPLERS[kind](rng)
        g, h = _rand_element(kind, rng), _rand_element(kind, rng)
        h = GroupElement(kind, Fraction(rng.randint(1, 5), rng.choice((2, 3, 5))),
                         h.matrices, h.perm)
        rational += not is_integral(act(h, m))
        assert act(g.compose(h), m) == act(g, act(h, m))
    assert rational > 0


def test_singular_group_element_rejected():
    singular = ((1, 2), (2, 4))
    with pytest.raises(ValueError, match="singular matrix in group element"):
        GroupElement("form22", 1, (singular, ((1, 0), (0, 1))))
    doc = group_element_to_dict(GroupElement.identity("form22"))
    doc["matrices"][0] = [[str(x) for x in row] for row in singular]
    with pytest.raises(ValueError, match="singular matrix in group element"):
        group_element_from_dict(doc)


def test_reads_rational_certificates(rng):
    # certificates written with rational matrix entries still load: each
    # matrix is cleared to integers and the scalar absorbs the denominators
    eye2, eye3 = [["1", "0"], ["0", "1"]], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    doc = {"kind": "cube", "scalar": "1",
           "matrices": [[["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1/2"]], eye3, eye3]}
    g = group_element_from_dict(doc)
    rational = SimpleNamespace(scalar=Fraction(1), matrices=tuple(
        tuple(tuple(Fraction(x) for x in row) for row in m) for m in doc["matrices"]))
    S = nonzero_disc(random_cube, rng)
    assert act(g, S) == _explicit_cube_action(rational, S)
    assert group_element_to_dict(g) == {
        "kind": "cube", "scalar": "1/2",
        "matrices": [[["0", "2", "0"], ["2", "0", "0"], ["0", "0", "1"]], eye3, eye3]}
    # binary kinds: x1 -> x1 / 2 scales the coefficient of x1^k by 2^-k, and
    # the scalar takes the square of the denominator
    half = [["1/2", "0"], ["0", "1"]]
    for m, degrees in ((nonzero_disc(random_quartic, rng), (4, 3, 2, 1, 0)),
                       (nonzero_disc(random_form22, rng), (2, 2, 2, 1, 1, 1, 0, 0, 0))):
        doc = {"kind": m.kind, "scalar": "1", "matrices": [half] + [eye2] * (m.kind == "form22")}
        g = group_element_from_dict(doc)
        assert act(g, m).coeffs == tuple(c * Fraction(1, 2 ** k) for c, k in zip(m.coeffs, degrees))
        assert group_element_to_dict(g)["scalar"] == "1/4"
        assert g.matrices[0] == ((1, 0), (0, 2))
    doc["matrices"][0] = [["1/2", "1"], ["1", "2"]]
    with pytest.raises(ValueError, match="singular matrix in group element"):
        group_element_from_dict(doc)


def _explicit_cube_action(g, S):
    """la * sum A[i][i'] B[j][j'] C[k][k'] s[i'][j'][k'], written out."""
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
    return Cube(out)


def _explicit_hypercube_action(g, H):
    """The permutation first, (perm . T)[j] = T[j_perm[0], ..., j_perm[3]],
    then la * sum A[i][i'] B[j][j'] C[k][k'] D[l][l'] t[i'][j'][k'][l']."""
    rng2 = range(2)
    perm = g.perm
    t = [[[[0] * 2 for _ in rng2] for _ in rng2] for _ in rng2]
    for j0 in rng2:
        for j1 in rng2:
            for j2 in rng2:
                for j3 in rng2:
                    j = (j0, j1, j2, j3)
                    t[j0][j1][j2][j3] = H.at(j[perm[0]], j[perm[1]], j[perm[2]], j[perm[3]])
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
                                            * t[i2][j2][k2][l2])
                    out[i][j][k][l] = g.scalar * tot
    return Hypercube(out)


def test_act_matches_explicit_multilinear_sum(rng):
    for _ in range(10):
        g = _rand_element("cube", rng)
        S = random_cube(rng)
        assert act(g, S) == _explicit_cube_action(g, S)
    perms = set()
    for _ in range(30):
        g = _rand_element("hypercube", rng)
        perms.add(g.perm)
        H = random_hypercube(rng)
        assert act(g, H) == _explicit_hypercube_action(g, H)
    # non-involutive permutations tell the convention apart from its inverse
    assert any(p != tuple(p.index(a) for a in range(4)) for p in perms)


def test_chi_matches_discriminant_scaling(rng):
    for kind in KIND_SAMPLERS:
        for _ in range(6):
            m = nonzero_disc(KIND_SAMPLERS[kind], rng)
            g = _rand_element(kind, rng)
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


def test_axis_permutation_preserves_form_set(rng):
    H = random_hypercube(rng)
    g = GroupElement("hypercube", 1, (((1, 0), (0, 1)),) * 4, (1, 0, 3, 2))
    H2 = act(g, H)
    assert discriminant(H2) == discriminant(H)


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
    cub = TernaryCubic(tuple(range(10)))
    assert model_from_dict(model_to_dict(cub)) == cub


def test_json_accepts_rationals():
    doc = {"kind": "quartic", "coeffs": ["1/2", "0", "0", "0", "-3/4"]}
    m = model_from_dict(doc)
    assert m.coeffs == (Fraction(1, 2), 0, 0, 0, Fraction(-3, 4))
    assert model_to_dict(m)["coeffs"] == ["1/2", "0", "0", "0", "-3/4"]


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        model_from_dict({"kind": "nope", "coeffs": []})
    with pytest.raises(ValueError):
        model_from_dict({"kind": "quartic", "coeffs": ["1"] * 4})


def _outcome(parse, s):
    """(value, type) of parse(s), or the type of the exception it raises."""
    try:
        v = parse(s)
    except Exception as e:
        return type(e)
    return v, type(v)


def _fraction_parse(s):
    return _num(Fraction(s))


def test_parse_coeff_matches_fraction():
    # the int() fast path must accept, value and reject exactly as Fraction
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


def test_scalar_clear():
    m = BinaryQuartic((Fraction(1, 2), 0, Fraction(3, 4), 0, 2))
    cleared, mu = scalar_clear(m)
    assert mu == 4
    assert cleared == BinaryQuartic((2, 0, 3, 0, 8))
    assert content_valuation(cleared, 2) == 0


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
