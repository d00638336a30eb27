"""The routines g1min replaced by machinery it already had.

These are the library's routines as they were before each job came to be
done one way: `convert_3to2` expanding det(L | M | N) through dictionaries
of bidegree-keyed coefficients over the six signed permutations;
`critical_model` with one branch per kind, assembling the hypercube from its
4x4 pattern layout through nested lists; the local minimal model at
p >= 5 in closed form, which one u = p descent at every prime replaced (the
closed form is the reference at primes far beyond an exhaustive search);
`level` with one descent per marked point, each on the point's own model,
which one descent on the first point's model replaced; and the hypercube
step that normalised the residues with recorded axis permutations and row
operations before one stretch on axes 0 and 1, which one stretch at a
residue singular point of each (2,2)-form replaced.  Group elements no
longer permute axes, so that step keeps its own axis order on the driver,
`d.frame`: it reads entries, forms, saturation and residues through the
view `_view(d)`, d.cur with its axes relabelled by the frame
(`conftest.relabel_axes`), and commits each axis move and stretch on the
axes of d.cur by reordering its matrices (`_physical`).  Each permutation
it made is recorded as an identity Step with its former label and detail,
so its Steps, v(Delta) values and verdicts are those it always had; its
certificates and output model differ from the old ones by an axis
relabelling.  They read the library's pattern tables, draw helper,
descent, driver and absorbing move at call time, and serve only as the
reference the differential tests compare the library against.
"""

from fractions import Fraction
from functools import partial

from g1min.construct import (
    _CRITICAL_22, _CRITICAL_CUBE, _CRITICAL_HYPER, _draw, _rng,
)
from g1min.exactnum import (
    RefusedInputError, as_context, fp_inv, fp_left_kernel_vector, unimodular_with_row, valuation,
)
from g1min.invariants import discriminant
from g1min.minimise import (
    _I2, InternalBoundError, Verdict, _absorb, _axis_move, _diag, _Driver, _Move, _row_move,
)
from g1min.models import (
    HYPERCUBE_PAIRS, Cube, GroupElement, Hypercube, SingularModelError, TwoTwoForm,
    UnsupportedModelError, act, form_of_hypercube, forms_of_hypercube,
)
from g1min.residue import (
    TAG_PRODUCT_BOTH, TAG_UNIQUE_SINGULAR, classify_22_residue, saturation_defect,
)
from g1min.weierstrass import (
    _MARKED_INVARIANTS, CurveMap, LevelReport, Point, WeierstrassCurve, _kappa_on_minimal,
    minimal_model,
)

from conftest import hypercube_entry, relabel_axes


def convert_3to2(S):
    """The (2,2)-form of a cube whose bilinear forms vanish at the pair of
    points ((0:0:1), (0:0:1)); the discriminant is preserved exactly."""
    if S.kind != "cube":
        raise UnsupportedModelError(f"3to2 needs a cube model, got {S.kind}")
    s = S.entries
    if any(s[2][2]):
        raise UnsupportedModelError("the bilinear forms do not vanish at ((0:0:1),(0:0:1))")
    # row i of the determinant: (L_i: (0,1)-form, M_i: (1,0)-form, N_i: (1,1)-form)
    def L(i):
        return {(0, 0): s[2][0][i], (0, 1): s[2][1][i]}

    def M(i):
        return {(0, 0): s[0][2][i], (1, 0): s[1][2][i]}

    def N(i):
        return {(j, k): s[j][k][i] for j in range(2) for k in range(2)}

    total = {}
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        a, b, c = perm
        term = _bi_mul(_bi_mul(L(a), M(b)), N(c))
        for key, val in term.items():
            total[key] = total.get(key, 0) + sign * val
    rows = [[total.get((r, c), 0) for c in range(3)] for r in range(3)]
    F = TwoTwoForm(tuple(tuple(r) for r in rows))
    if discriminant(F) != discriminant(S):
        raise AssertionError("degree-lowering conversion changed the discriminant")
    return F


def _bi_mul(a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + x * y
    return out


# the 4x4 layout pairs row r with (i, k) and column c with (j, l)
_HYPER_ROW = ((0, 0), (1, 0), (0, 1), (1, 1))


def critical_model(kind, ctx, seed_or_rng=0, max_tries=200):
    """A pseudorandom nonsingular model matching the critical valuation
    pattern at the context prime (p >= 5): minimal yet of positive level."""
    ctx = as_context(ctx)
    p = ctx.p
    if p < 5:
        raise RefusedInputError("critical patterns are stated for p >= 5")
    rng = _rng(seed_or_rng)
    for _ in range(max_tries):
        if kind == "form22":
            m = TwoTwoForm(tuple(tuple(_draw(s, p, rng) for s in row) for row in _CRITICAL_22))
        elif kind == "cube":
            m = Cube(tuple(tuple(tuple(_draw(s, p, rng) for s in row) for row in sl)
                           for sl in _CRITICAL_CUBE))
        elif kind == "hypercube":
            h = [[[[0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
            for r in range(4):
                i, k = _HYPER_ROW[r]
                for c in range(4):
                    j, l = _HYPER_ROW[c]
                    h[i][j][k][l] = _draw(_CRITICAL_HYPER[r][c], p, rng)
            m = Hypercube(tuple(tuple(tuple(tuple(x) for x in pl) for pl in blk) for blk in h))
        else:
            raise UnsupportedModelError(f"no critical pattern for kind {kind!r}")
        if discriminant(m) != 0:
            return m
    raise RuntimeError("failed to sample a nonsingular critical model")


def closed_form_minimal(E, p):
    """Local minimal model at p >= 5.  Returns (E_min, CurveMap, v(disc_min)),
    the map holding ints with u a power of p.

    In closed form (Tate 1975; Silverman, AEC VII, Exercise 7.1): with
    k = min(v(c4) // 4, v(c6) // 6) over the nonzero invariants, E is minimal
    when k = 0, and otherwise u = p^k with the completing translation
    r = -b2/12, s = -a1/2, t = -a3/2 + a1 b2/24 reaches the minimal model.
    Each transformed numerator is an integer polynomial in r, s and t, so
    taking them mod p^(6k) keeps it divisible by p^(wk) for every weight
    w <= 6.
    """
    disc = E.disc
    if disc == 0:
        raise ValueError("singular curve")
    if any(type(a) is not int for a in E.a_invariants()):
        raise ValueError("curve must be integral")
    v_disc = valuation(disc, p)
    c4, c6 = E.c4, E.c6
    if c4 % p ** 4 or c6 % p ** 6:
        return E, CurveMap.identity(), v_disc
    k = min(valuation(c, p) // w for c, w in ((c4, 4), (c6, 6)) if c)
    q = p ** (6 * k)
    r = -E.b2 * pow(12, -1, q) % q
    s = -E.a1 * pow(2, -1, q) % q
    t = (-E.a3 * pow(2, -1, q) + E.a1 * E.b2 * pow(24, -1, q)) % q
    cmap = CurveMap(p ** k, r, s, t)
    E_min = cmap.apply(E)
    if E_min is None:
        raise AssertionError("the closed-form minimal model is not integral")
    return E_min, cmap, v_disc - 12 * k


def level(m, ctx):
    """LevelReport of a nonsingular (2,2)-form, cube or hypercube.
    Refusals come in the order kind, prime, Delta = 0."""
    marked = _MARKED_INVARIANTS.get(m.kind)
    if marked is None:
        raise UnsupportedModelError(f"level is not defined for kind {m.kind}")
    p = as_context(ctx).p
    invs = marked(m)
    disc = invs[0].disc
    if disc == 0:
        raise SingularModelError("singular model")
    v_disc = valuation(disc, p)
    kappas = []
    v_min = None
    for inv in invs:
        E, P = WeierstrassCurve(*inv.a_invariants), Point(inv.xi, inv.eta)
        _, cmap, vm = minimal_model(E, p)
        v_min = vm if v_min is None else v_min
        if vm != v_min:
            raise AssertionError("paired Jacobians disagree on the minimal discriminant")
        kappas.append(_kappa_on_minimal(P, cmap, p))
    kap = max(kappas)
    lvl, rem = divmod(v_disc - v_min - 12 * kap, 12)
    if rem or lvl < 0:
        raise AssertionError("level decomposition failed")
    return LevelReport(v_disc, v_min, kap, lvl)


_hyper_axis_move = partial(_axis_move, "hypercube")


def _view(d):
    """The hypercube as the step sees it: d.cur with its axes relabelled by
    the step's own axis order d.frame."""
    return relabel_axes(d.cur, d.frame)


def _entry(d, *j):
    """The entry j of the view: axis frame[a] of the view is axis a of d.cur."""
    return hypercube_entry(d.cur, *(j[v] for v in d.frame))


def _physical(d, g):
    """The element acting on d.cur as g, read on the view's axes, acts on the view."""
    return GroupElement("hypercube", g.scalar, tuple(g.matrices[v] for v in d.frame))


def _apply(d, g, label):
    """Commit g, read on the view's axes, as a level-keeping Step."""
    d.apply(_physical(d, g), label, expect_drop=0)


def _relabel(d, perm, label, detail=()):
    """Relabel the view's axes, axis a going to perm[a]: the frame changes,
    and the model does not, so the Step the permuting move made is recorded
    with the identity element."""
    d.frame = tuple(perm[v] for v in d.frame)
    d.apply(GroupElement.identity("hypercube"), label, detail, expect_drop=0)


def _swap(d, a, b, label):
    """Swap axes a and b of the view."""
    perm = list(range(4))
    perm[a], perm[b] = b, a
    _relabel(d, perm, label)


def _axis_perm_moving_to_front(a, b):
    """Permutation tuple after which old axis a sits at position 0, b at 1."""
    order = [a, b] + [t for t in range(4) if t not in (a, b)]
    perm = [0] * 4
    for new_pos, old_axis in enumerate(order):
        perm[old_axis] = new_pos
    return tuple(perm)


def _clear_axis_entry(d, axis, pivot_idx, target_idx):
    """Row operation on one axis clearing the target entry mod p against a
    pivot entry differing from it only in that axis."""
    p = d.p
    piv = _entry(d, *pivot_idx) % p
    tgt = _entry(d, *target_idx) % p
    if tgt == 0:
        return
    t = tgt * fp_inv(piv, p) % p
    hi = target_idx[axis]
    m = [[1, 0], [0, 1]]
    m[hi][1 - hi] = -t
    _apply(d, _hyper_axis_move(tuple(tuple(r) for r in m), axis), "entry-clear")


def hypercube_step(d):
    """Desaturate, or stop when one of the six associated (2,2)-forms is
    minimal; otherwise one constructive step.

    The step normalises so that the corner slice H[0][0][.][.] vanishes mod
    p, the off-corner block H[0][1][.][.] is supported on its far corner,
    and H[1][0][0][0] = 0 mod p; then a single diagonal stretch either keeps
    the level with a unique singular point (the chained move) or produces a
    non-saturated hypercube.  H is the view (`_view`): the step keeps its own
    axis order in d.frame, reads every entry, form and residue through it,
    and commits each move on the axes of d.cur (`_physical`).
    """
    d.frame = getattr(d, "frame", (0, 1, 2, 3))
    p = d.p
    ctx = d.ctx
    defect = saturation_defect(_view(d), ctx)
    if defect is not None:
        axis, ker = defect
        return _Move(_physical(d, _absorb("hypercube", ker, p, axis)), "desaturate", (axis,), 12)
    forms = forms_of_hypercube(_view(d))
    # the forms share the hypercube's c4 and c6, hence its Delta and its checks
    if any(_Driver(forms[pair], ctx, certify=False, v=d.v).run() for pair in HYPERCUBE_PAIRS):
        return Verdict.ONE_FORM_MINIMAL

    def h(i, j, k, l):
        return _entry(d, i, j, k, l) % p

    pair = next((ab for ab in HYPERCUBE_PAIRS
                 if any(c % p for c in forms[ab].coeffs)), None)
    if pair is None:
        raise InternalBoundError("saturated hypercube with every residue form zero")
    if pair != (0, 1):
        _relabel(d, _axis_perm_moving_to_front(*pair), "reorder-axes", (pair,))
    cls = classify_22_residue(form_of_hypercube(_view(d), 0, 1), ctx)
    spt = cls.a_rational_singular_point()
    if spt is None:
        raise InternalBoundError("non-minimal residue form without a rational singular point")
    _apply(d, GroupElement("hypercube", 1, (_row_move(spt[0], p), _row_move(spt[1], p), _I2, _I2)),
           "move-singular-point")

    corner = [(k, l) for k in range(2) for l in range(2) if h(0, 0, k, l)]
    if corner:
        k0, l0 = corner[0]
        swap = ((0, 1), (1, 0))
        if k0 == 1:
            _apply(d, _hyper_axis_move(swap, 2), "corner-pivot")
        if l0 == 1:
            _apply(d, _hyper_axis_move(swap, 3), "corner-pivot")
        for axis, target in ((0, (1, 0, 0, 0)), (1, (0, 1, 0, 0)),
                             (2, (0, 0, 1, 0)), (3, (0, 0, 0, 1))):
            _clear_axis_entry(d, axis, (0, 0, 0, 0), target)
        for idx in ((0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1)):
            if h(*idx):
                raise InternalBoundError("corner clearing left an unexpected unit")
        if h(0, 1, 0, 1) != 0:
            if h(0, 1, 1, 0) == 0:
                _swap(d, 2, 3, "swap-axes")
            elif h(1, 0, 0, 1) == 0:
                _swap(d, 0, 1, "swap-axes")
            elif h(1, 0, 1, 0) == 0:
                _swap(d, 0, 1, "swap-axes")
                _swap(d, 2, 3, "swap-axes")
            else:
                raise InternalBoundError("no vanishing product across the corner slice")
        if any(h(0, j, k, 1) for j in range(2) for k in range(2)):
            raise InternalBoundError("the slice (first axis, last index) kept a unit")
        _swap(d, 1, 3, "relabel-axes")
        _apply(d, _hyper_axis_move(((0, 1), (1, 0)), 1), "relabel-axes")
    if any(h(0, 0, k, l) for k in range(2) for l in range(2)):
        raise InternalBoundError("corner slice is not zero mod p")

    a13 = (h(0, 1, 0, 0) * h(0, 1, 1, 1) - h(0, 1, 0, 1) * h(0, 1, 1, 0)) % p
    if a13:
        a31 = (h(1, 0, 0, 0) * h(1, 0, 1, 1) - h(1, 0, 0, 1) * h(1, 0, 1, 0)) % p
        if a31:
            raise InternalBoundError("both off-corner block determinants are units")
        _swap(d, 0, 1, "swap-axes")

    t_block = tuple(tuple(h(0, 1, k, l) for l in range(2)) for k in range(2))
    if all(x == 0 for row in t_block for x in row):
        raise InternalBoundError("saturation forbids a vanishing off-corner block")
    ker = fp_left_kernel_vector(t_block, p)
    if ker is None:
        raise InternalBoundError("off-corner block must be singular mod p")
    _apply(d, _hyper_axis_move(unimodular_with_row(ker, p, 0), 2), "block-rows")
    row = (h(0, 1, 1, 0), h(0, 1, 1, 1))
    z = (-row[1], row[0])
    _apply(d, _hyper_axis_move(unimodular_with_row(z, p, 0), 3), "block-columns")
    if h(0, 1, 0, 0) or h(0, 1, 0, 1) or h(0, 1, 1, 0):
        raise InternalBoundError("rank-one block reduction failed")
    if h(0, 1, 1, 1) == 0:
        raise InternalBoundError("saturation keeps the far block corner a unit")
    if h(1, 0, 0, 0):
        raise InternalBoundError("valuation pattern of a non-minimal form violated")

    stretch = GroupElement("hypercube", Fraction(1, p), (_diag(1, p), _diag(1, p), _I2, _I2))
    star = h(1, 1, 0, 0) == 0 and h(1, 0, 1, 0) == 0 and h(1, 0, 0, 1) == 0
    if not star:
        if h(1, 1, 0, 0) == 0:
            if h(1, 0, 1, 0):
                _swap(d, 1, 2, "swap-axes")
            else:
                _swap(d, 1, 3, "swap-axes")
        _clear_axis_entry(d, 2, (1, 1, 0, 0), (1, 1, 1, 0))
        _clear_axis_entry(d, 3, (1, 1, 0, 0), (1, 1, 0, 1))
        _clear_axis_entry(d, 0, (0, 1, 1, 1), (1, 1, 1, 1))
        cls = classify_22_residue(form_of_hypercube(_view(d), 0, 1), ctx)
        if cls.tag != TAG_UNIQUE_SINGULAR or cls.point != ((1, 0), (1, 0)):
            # residual case: the two off-pivot corner products vanish mod p.
            # One more relabelling (swap the outer factors, flip the third
            # index) trades the two unknown entries and restores the singular
            # point, unless the hypercube was not saturated after all.
            if h(1, 0, 1, 1) or h(1, 0, 1, 0) * h(1, 0, 0, 1) % p:
                raise InternalBoundError("unexpected corner-product pattern")
            if h(1, 0, 1, 0):
                _swap(d, 2, 3, "swap-axes")
            if h(1, 0, 0, 1) == 0:
                raise InternalBoundError("saturation should keep this entry a unit")
            _apply(d, _hyper_axis_move(((0, 1), (1, 0)), 2), "relabel-axes")
            _swap(d, 0, 3, "relabel-axes")
            cls = classify_22_residue(form_of_hypercube(_view(d), 0, 1), ctx)
        if cls.tag != TAG_UNIQUE_SINGULAR or cls.point != ((1, 0), (1, 0)):
            raise InternalBoundError("expected a unique singular point at the corner pair")
        if d.at_chain_bound:
            raise InternalBoundError("hypercube singular-point procedure ran thrice")
        return _Move(_physical(d, stretch), "stretch-singular", drop=0, chained=True)
    _clear_axis_entry(d, 0, (0, 1, 1, 1), (1, 1, 1, 1))
    for idx in ((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
        if h(*idx) == 0:
            raise InternalBoundError("saturation keeps the weight-three corners units")
    cls = classify_22_residue(form_of_hypercube(_view(d), 0, 1), ctx)
    if cls.tag != TAG_PRODUCT_BOTH or cls.x_root != (1, 0) or cls.y_root != (1, 0):
        raise InternalBoundError("expected the doubly-degenerate product residue")
    deep = [idx for idx in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
            if valuation(_entry(d, *idx), p) >= 2]
    if not deep:
        raise InternalBoundError("no depth-two entry beside the corner")
    axis = deep[0].index(1)
    if axis != 3:
        _swap(d, axis, 3, "relabel-axes")
    # keeps the level but leads to a desaturation, so it does not chain
    stretch = _physical(d, stretch)
    landed = act(stretch, d.cur)
    if landed is not None and saturation_defect(landed, ctx) is None:
        raise InternalBoundError("doubly-degenerate step failed to desaturate")
    return _Move(stretch, "stretch-slender", drop=0, model=landed)
