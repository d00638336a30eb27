import random

import pytest

from g1min import (
    Cube, Hypercube, LocalContext, TernaryCubic, TwoTwoForm, classify_22_residue,
    classify_cubic_residue, construct_22, construct_cube, critical_model, discriminant,
    inflate, level, minimise, repeated_root, saturation_defect, valuation,
)
from g1min.exactnum import det_matrix, mat_adj, mat_mul
from g1min.models import GroupElement, act
import g1min.residue as residue
from g1min.residue import (
    _CENTRES, _linear_factors, _normalised, _plane_index, TAG_OTHER, TAG_PRODUCT_BOTH,
    TAG_PRODUCT_NONE, TAG_PRODUCT_ONE, TAG_REPEATED_LINE, TAG_UNIQUE_SINGULAR, TAG_ZERO,
    binary_roots,
)
import residue_scans as scans
from substitution_oracle import ternary_substitute

from conftest import levi_civita_cube, random_form22


def test_repeated_root_examples():
    assert repeated_root((0, 0, 1), 5) == (1, 0)        # x2^2
    assert repeated_root((0, 1, 0), 5) is None           # x1 x2, distinct roots
    # x1^2 (x1 + x2)^2 mod 3: two double roots, no unique one
    assert repeated_root((1, 2, 1, 0, 0), 3) is None


def test_repeated_root_ignores_conjugate_pairs():
    # (x1^2 + x2^2)^2 mod 3: double roots only over GF(9)
    assert repeated_root((1, 0, 2, 0, 1), 3) is None
    # but x2^2 (x1^2 + x2^2) has the unique rational double root (1:0)
    assert repeated_root((0, 0, 1, 0, 1), 3) == (1, 0)


def test_repeated_root_rejects_zero_form():
    with pytest.raises(ValueError):
        repeated_root((0, 0, 0, 0, 0), 3)


def test_binary_roots_multiplicities():
    # x1^3 x2 over F_5: triple root at (0:1), simple root at (1:0)
    roots = dict(binary_roots((0, 1, 0, 0, 0), 5))
    assert roots[(0, 1)] == 3 and roots[(1, 0)] == 1


def _cls(rows, p):
    return classify_22_residue(TwoTwoForm(rows), LocalContext(p))


def test_classify_22_product_both():
    cls = _cls(((0, 0, 0), (0, 0, 0), (0, 0, 1)), 5)  # x2^2 y2^2
    assert cls.tag == TAG_PRODUCT_BOTH
    assert (cls.x_root, cls.y_root) == ((1, 0), (1, 0))


def test_classify_22_unique_singular():
    # x2 y2 (a x1 y2 + b x2 y1 + c x2 y2) with a, b units: unique singular
    # point at ((1:0),(1:0)); coefficient matrix rows x1^2, x1x2, x2^2
    a, b, c = 2, 3, 1
    cls = _cls(((0, 0, 0), (0, 0, a), (0, b, c)), 5)
    assert cls.tag == TAG_UNIQUE_SINGULAR
    assert cls.point == ((1, 0), (1, 0))


def test_classify_22_product_one():
    # x2^2 h(y) with h separable
    cls = _cls(((0, 0, 0), (0, 0, 0), (1, 1, 0)), 5)   # x2^2 (y1^2 + y1 y2)
    assert cls.tag == TAG_PRODUCT_ONE
    assert cls.repeated_side == "x" and cls.x_root == (1, 0)
    # mirrored on the y side
    cls = _cls(((0, 0, 1), (0, 0, 1), (0, 0, 0)), 5)   # (x1^2 + x1 x2) y2^2
    assert cls.tag == TAG_PRODUCT_ONE
    assert cls.repeated_side == "y" and cls.y_root == (1, 0)


def test_classify_22_product_none_and_other():
    cls = _cls(((0, 0, 0), (0, 1, 0), (0, 0, 0)), 5)  # x1 x2 y1 y2
    assert cls.tag == TAG_PRODUCT_NONE
    # (x1 y1 + x2 y2)^2: non-reduced, a whole curve of singular points
    cls = _cls(((1, 0, 0), (0, 2, 0), (0, 0, 1)), 5)
    assert cls.tag == TAG_OTHER
    assert _cls(((5, 0, 0), (0, 0, 0), (0, 0, 0)), 5).tag == TAG_ZERO


def test_classify_22_tag_is_equivalence_invariant(rng):
    seen = set()
    for _ in range(60):
        F = random_form22(rng, bound=4)
        ctx = LocalContext(3)
        tag = classify_22_residue(F, ctx).tag
        seen.add(tag)
        while True:
            mats = [tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
                    for _ in range(2)]
            if all(det_matrix(m) % 3 in (1, 2) and det_matrix(m) != 0 for m in mats):
                break
        F2 = act(GroupElement("form22", 1, tuple(mats)), F)
        assert classify_22_residue(F2, ctx).tag == tag
    assert len(seen) > 1  # the sample actually exercised several classes


def test_classify_22_witnesses_verify(rng):
    ctx = LocalContext(3)
    for _ in range(80):
        F = random_form22(rng, bound=4)
        cls = classify_22_residue(F, ctx)
        if cls.tag == TAG_UNIQUE_SINGULAR:
            (x1, x2), (y1, y2) = cls.point
            mx = (x1 * x1, x1 * x2, x2 * x2)
            my = (y1 * y1, y1 * y2, y2 * y2)
            val = sum(F.rows[r][c] * mx[r] * my[c] for r in range(3) for c in range(3))
            assert val % 3 == 0


def _cubic(d):
    return TernaryCubic.from_dict(d)


def test_classify_cubic_examples():
    ctx = LocalContext(5)
    cls = classify_cubic_residue(_cubic({(1, 0, 2): 1, (0, 1, 2): 1}), ctx)  # z^2 (x+y)
    assert cls.tag == TAG_REPEATED_LINE
    assert cls.factor == (0, 0, 1)

    cls = classify_cubic_residue(_cubic({(0, 2, 1): 1, (3, 0, 0): -1}), ctx)  # y^2 z = x^3
    assert cls.tag == TAG_UNIQUE_SINGULAR
    assert cls.point == (0, 0, 1)

    cls = classify_cubic_residue(_cubic({(1, 1, 1): 1}), ctx)  # xyz: three nodes
    assert cls.tag == TAG_OTHER

    assert classify_cubic_residue(_cubic({}), ctx).tag == TAG_ZERO


def test_classify_cubic_conjugate_line_pair_trap():
    ctx = LocalContext(3)
    # x (y^2 + z^2): the conic splits over GF(9) into two lines through
    # (1:0:0); the two extra singular points are conjugate, so the single
    # rational singular point is NOT unique over the closure
    f = _cubic({(1, 2, 0): 1, (1, 0, 2): 1})
    assert classify_cubic_residue(f, ctx).tag == TAG_OTHER
    # y (y^2 + z^2): now the vertex lies on the line: genuinely unique
    g = _cubic({(0, 3, 0): 1, (0, 1, 2): 1})
    cls = classify_cubic_residue(g, ctx)
    assert cls.tag == TAG_UNIQUE_SINGULAR
    assert cls.point == (1, 0, 0)


def test_classify_cubic_repeated_factor_checked_first():
    ctx = LocalContext(5)
    # z^2 x is singular along a line but tagged by its repeated factor
    cls = classify_cubic_residue(_cubic({(1, 0, 2): 1}), ctx)
    assert cls.tag == TAG_REPEATED_LINE


def test_saturation_defect_examples():
    ctx = LocalContext(5)
    assert saturation_defect(levi_civita_cube(), ctx) is None

    rows = [[[5 if i == 0 else (1 if (i, j) == (k + 1, k) else 0) for k in range(3)]
             for j in range(3)] for i in range(3)]
    S = Cube(tuple(tuple(tuple(r) for r in pl) for pl in rows))
    defect = saturation_defect(S, ctx)
    assert defect is not None and defect[0] == 0
    axis, ker = defect
    assert ker[1] == ker[2] == 0 and ker[0] % 5 != 0

    h = [[[[0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for j in range(2):
        for k in range(2):
            for l in range(2):
                h[0][j][k][l] = j + k + l + 1
                h[1][j][k][l] = j + k + l + 1 + 5 * (j + 2 * k)
    H = Hypercube(tuple(tuple(tuple(tuple(r) for r in pl) for pl in blk) for blk in h))
    defect = saturation_defect(H, ctx)
    assert defect is not None and defect[0] == 0
    axis, (c0, c1) = defect
    assert (c0 + c1) % 5 == 0 or (c0 - c1) % 5 == 0


def test_projection_centres_are_the_plane_over_f3():
    assert sorted(_CENTRES) == sorted(scans.projective_plane_points(3))
    assert all(pt[1] == 0 for pt in _CENTRES[:4])


# ---------------------------------------------------------------------------
# primes of any size: no residue search enumerates F_p

P61 = (1 << 61) - 1


def _binary_product(*factors):
    out = [1]
    for f in factors:
        out = [sum(out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f))
               for k in range(len(out) + len(f) - 1)]
    return tuple(out)


def test_repeated_root_at_p61(rng):
    t, u, v = (rng.randrange(P61) for _ in range(3))
    # (1 : t) is the zero of t x1 - x2
    double = (t, -1)
    assert repeated_root(_binary_product(double, double, (u, -1), (v, -1)), P61) == (1, t)
    assert repeated_root(_binary_product(double, double, double, (u, -1)), P61) == (1, t)
    assert repeated_root(_binary_product((1, 0), (1, 0), double, (u, -1)), P61) == (0, 1)
    assert repeated_root(_binary_product(double, (u, -1), (v, -1), (1, 0)), P61) is None
    # 3 is a non-residue mod 2^61 - 1: (x1^2 - 3 x2^2)^2 has only conjugate double roots
    assert pow(3, (P61 - 1) // 2, P61) == P61 - 1
    conj = (1, 0, -3)
    assert repeated_root(_binary_product(conj, conj), P61) is None
    assert repeated_root(_binary_product(double, double, conj), P61) == (1, t)


def test_classify_22_at_p61(rng):
    ctx = LocalContext(P61)
    mats = tuple(tuple(tuple(rng.randrange(P61) for _ in range(2)) for _ in range(2))
                 for _ in range(2))
    g = GroupElement("form22", 1, mats)
    cases = [
        (((0, 0, 0), (0, 0, 0), (0, 0, 1)), TAG_PRODUCT_BOTH),  # x2^2 y2^2
        (((0, 0, 0), (0, 0, 0), (1, 1, 0)), TAG_PRODUCT_ONE),   # x2^2 (y1^2 + y1 y2)
        (((0, 0, 0), (0, 1, 0), (0, 0, 0)), TAG_PRODUCT_NONE),  # x1 x2 y1 y2
        (((0, 0, 0), (0, 0, 2), (0, 3, 1)), TAG_UNIQUE_SINGULAR),
        (((1, 0, 0), (0, 2, 0), (0, 0, 1)), TAG_OTHER),         # (x1 y1 + x2 y2)^2
        (((1, 0, 0), (0, 1, 0), (0, 0, 1)), TAG_OTHER),         # smooth
    ]
    for rows, tag in cases:
        F = TwoTwoForm(rows)
        assert _cls(rows, P61).tag == tag
        assert classify_22_residue(act(g, F), ctx).tag == tag
    cls = _cls(((0, 0, 0), (0, 0, 2), (0, 3, 1)), P61)
    assert cls.point == ((1, 0), (1, 0))


def test_level_and_round_trips_at_p61(rng):
    ctx = LocalContext(P61)
    base = construct_22(1, -1, 0, 2)
    F, _ = inflate(base, ctx, rng, moves=1)
    assert level(F, ctx).level == 1
    rep = minimise(F, ctx)
    assert act(rep.transformation, F) == rep.model
    assert level(rep.model, ctx).level == 0
    H = Hypercube((((((1, 0), (0, 1)), ((0, 1), (1, 1))), (((0, 1), (1, 0)), ((1, 2), (3, 1))))))
    assert discriminant(H) != 0
    H2, _ = inflate(H, ctx, rng, moves=1)
    rep = minimise(H2, ctx)
    assert act(rep.transformation, H2) == rep.model
    assert rep.v_disc_final == valuation(discriminant(H), P61)


def test_cubic_singular_points_at_p61(rng):
    ctx = LocalContext(P61)
    # 5 is not a cube mod 2^61 - 1, so x^3 - 5 y^3 is three conjugate lines through (0:0:1)
    assert pow(5, (P61 - 1) // 3, P61) != 1
    for f in ({(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1},   # nodal
              {(0, 2, 1): 1, (3, 0, 0): -1},                   # cuspidal
              {(3, 0, 0): 1, (0, 3, 0): -5}):                  # concurrent conjugate lines
        while True:
            A = tuple(tuple(rng.randrange(P61) for _ in range(3)) for _ in range(3))
            if det_matrix(A) % P61:
                break
        # F((x, y, z) A) is singular where (x, y, z) A = (0, 0, 1)
        cls = classify_cubic_residue(ternary_substitute(_cubic(f), A), ctx)
        assert cls.tag == TAG_UNIQUE_SINGULAR
        assert cls.point == _normalised(mat_mul(((0, 0, 1),), mat_adj(A))[0], P61)


def _linear_form(ell):
    return dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ell))


def _form_product(*forms):
    """The product of ternary forms given as exponent dictionaries."""
    out = {(0, 0, 0): 1}
    for g in forms:
        acc = {}
        for e1, c1 in out.items():
            for e2, c2 in g.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        out = acc
    return out


def test_cubic_line_factors_at_p61(rng):
    ctx = LocalContext(P61)
    conic = {(1, 0, 1): 1, (0, 2, 0): -1}  # x z - y^2, smooth
    for _ in range(4):
        l1, l2, l3 = (tuple(rng.randrange(P61) for _ in range(3)) for _ in range(3))
        while True:
            A = tuple(tuple(rng.randrange(P61) for _ in range(3)) for _ in range(3))
            if det_matrix(A) % P61:
                break
        for lines, extra in (([l1, l1, l1], ()), ([l1, l1, l2], ()), ([l1, l2, l3], ()),
                             ([l1], (conic,))):
            F = _cubic(_form_product(*map(_linear_form, lines), *extra))
            F = ternary_substitute(F, A)
            # l((x, y, z) A) is the line A l
            expected = {}
            for ell in lines:
                moved = _normalised(tuple(sum(a * b for a, b in zip(row, ell)) for row in A), P61)
                expected[moved] = expected.get(moved, 0) + 1
            factors = _linear_factors([c % P61 for c in F.coeffs], P61)
            assert factors == sorted(expected.items(), key=lambda item: _plane_index(item[0], P61))
            repeated = [ell for ell, m in factors if m >= 2]
            cls = classify_cubic_residue(F, ctx)
            assert (cls.tag == TAG_REPEATED_LINE) == bool(repeated)
            if repeated:
                assert cls.factor == repeated[0]


def test_cubic_classification_builds_no_group_element(monkeypatch):
    # residue substitutions multiply coefficient tuples by Sym^3 matrices:
    # no checked GroupElement is built on either singular-point route
    calls = dict.fromkeys(("group element", "line", "lineless"), 0)

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(GroupElement, "__post_init__",
                        counted("group element", GroupElement.__post_init__))
    monkeypatch.setattr(residue, "_line_singular_point",
                        counted("line", residue._line_singular_point))
    monkeypatch.setattr(residue, "_lineless_singular_point",
                        counted("lineless", residue._lineless_singular_point))
    ctx = LocalContext(5)
    cls = classify_cubic_residue(_cubic({(0, 2, 1): 1, (3, 0, 0): -1}), ctx)  # cuspidal
    assert cls.point == (0, 0, 1)
    cls = classify_cubic_residue(_cubic({(0, 3, 0): 1, (0, 1, 2): 1}), ctx)  # y (y^2 + z^2)
    assert cls.point == (1, 0, 0)
    assert calls["line"] and calls["lineless"]
    assert calls["group element"] == 0


# a cube whose middle determinantal cubic is three concurrent lines, so that
# classifying it needs its singular point; entries divisible by p are named
SINGULAR_POINT_CUBE = (0, 0, 0, 2, "p", -1, 2, "-p", 0, "p", 0, 0, 1, "2p", "p", -1, 0, "p",
                       2, 0, "-p", "p", 0, "p", 1, 2, "2p")


def test_cubes_at_p61():
    ctx = LocalContext(P61)
    scale = {"p": P61, "-p": -P61, "2p": 2 * P61}
    S = Cube.from_coeffs([scale.get(c, c) for c in SINGULAR_POINT_CUBE])
    rep = minimise(S, ctx)
    assert [step.label for step in rep.steps] == ["repeated-factor-pair"]
    assert act(rep.transformation, S) == rep.model
    assert level(S, ctx).level == 1
    base = construct_cube(0, 0, 0, 1)
    C, _ = inflate(base, ctx, 2, moves=1)
    rep = minimise(C, ctx)
    assert act(rep.transformation, C) == rep.model
    assert rep.v_disc_final == valuation(discriminant(base), P61)
    S = critical_model("cube", ctx, 7)
    rep = minimise(S, ctx)
    assert rep.steps == () and rep.model == S
    assert level(S, ctx).level >= 1


def test_critical_cube_past_the_old_p2_bound():
    # p = 1031 > 2^10: the repeated-line search used to raise PrimeBoundError
    ctx = LocalContext(1031)
    S = critical_model("cube", ctx, 7)
    rep = minimise(S, ctx)
    assert rep.steps == () and rep.model == S
    assert level(S, ctx).level >= 1
