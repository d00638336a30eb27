"""Minimisation at a prime for all four model kinds, with certificates.

Each driver loops over the applicable level-reducing or level-preserving
moves and stops at a fixpoint; the structure theorems guarantee that a
non-minimal model always admits a move, so the fixpoint is minimal.  Every
committed move is an exact group element; the report's transformation g
satisfies act(g, input) == final, checked at construction.  Trailing
level-neutral exploration is rolled back, so an already-minimal input comes
back unchanged with an empty trace.

Iteration bounds from the theory are enforced: at most 2 consecutive
level-preserving steps for quartics and (2,2)-forms, 3 level-neutral
procedure applications for cubes, 2 consecutive singular-point procedure
applications for hypercubes.  For quartics, (2,2)-forms and cubes exceeding
the bound certifies minimality (the work is rolled back); for hypercubes
minimality is decided up front via the six associated (2,2)-forms, so a
bound violation raises InternalBoundError.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactnum import (
    LocalContext, det_matrix, fp_inv, fp_left_kernel_vector, is_prime, lift_primitive,
    mat_adj, mat_mul, unimodular_with_row, valuation,
)
from .invariants import c4_c6, discriminant
from .models import (
    GroupElement, HYPERCUBE_PAIRS, SingularModelError, act, content_valuation,
    cubics_of_cube, forms_of_hypercube, is_integral,
)
from .residue import (
    classify_22_residue, classify_cubic_residue, repeated_root, saturation_defect,
    TAG_PRODUCT_BOTH, TAG_PRODUCT_ONE, TAG_REPEATED_LINE, TAG_UNIQUE_SINGULAR,
)


class InternalBoundError(AssertionError):
    """An iteration bound promised by the theory was violated (a bug)."""


@dataclass(frozen=True)
class Step:
    label: str
    v_disc_before: int
    v_disc_after: int
    detail: tuple = ()


@dataclass(frozen=True)
class MinimisationReport:
    model: object
    transformation: GroupElement
    steps: tuple
    v_disc_initial: int
    v_disc_final: int
    prime: int
    max_neutral_chain: int = 0

    @property
    def input_was_minimal(self):
        return self.v_disc_final == self.v_disc_initial

    @property
    def levels_reduced(self):
        return (self.v_disc_initial - self.v_disc_final) // 12


def _ctx(ctx):
    return LocalContext(ctx) if isinstance(ctx, int) else ctx


def _require_ok(m, p):
    if not is_integral(m):
        raise ValueError("model must be integral")
    d = discriminant(m)
    if d == 0:
        raise SingularModelError("singular model")
    return valuation(d, p)


class _Driver:
    """Work state: current model, accumulated certificate, step history."""

    def __init__(self, m, ctx):
        self.ctx = ctx
        self.p = ctx.p
        self.input = m
        self.cur = m
        self.g = GroupElement.identity(m.kind)
        self.v = _require_ok(m, ctx.p)
        self.v_initial = self.v
        self.records = []  # (Step, model, transformation, v_after)

    def apply(self, move, label, detail=(), expect_drop=None, merge=False, model=None):
        """Apply one move; `model` is act(move, cur) when the caller already
        has it from candidate().  With merge=True the move is folded into the
        last recorded step (used for multi-move procedures that must appear
        as a single step with non-increasing v(Delta))."""
        v_before = self.v
        new_model = act(move, self.cur) if model is None else model
        if not is_integral(new_model):
            raise AssertionError(f"step {label} produced a non-integral model")
        v_new = self.v + 12 * valuation(move.chi(), self.p)
        if expect_drop is not None and v_before - v_new != expect_drop:
            raise AssertionError(f"step {label} expected a drop of {expect_drop}")
        self.cur = new_model
        self.g = move.compose(self.g)
        self.v = v_new
        if merge and self.records:
            prev = self.records[-1][0]
            self.records[-1] = (Step(prev.label, prev.v_disc_before, v_new, prev.detail),
                                new_model, self.g, v_new)
        else:
            self.records.append((Step(label, v_before, v_new, detail),
                                 new_model, self.g, v_new))

    def candidate(self, move):
        return act(move, self.cur)

    def report(self, max_neutral_chain=0):
        v_final = min((v for _, _, _, v in self.records), default=self.v_initial)
        if v_final >= self.v_initial:
            model, g, steps, v_final = (
                self.input, GroupElement.identity(self.input.kind), (), self.v_initial)
        else:
            best = next(i for i, rec in enumerate(self.records) if rec[3] == v_final)
            model, g = self.records[best][1], self.records[best][2]
            steps = tuple(rec[0] for rec in self.records[:best + 1])
        if act(g, self.input) != model:
            raise AssertionError("transformation certificate failed to reproduce the model")
        return MinimisationReport(
            model=model, transformation=g, steps=steps,
            v_disc_initial=self.v_initial, v_disc_final=v_final,
            prime=self.p, max_neutral_chain=max_neutral_chain,
        )


def _diag(*entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def _row_move(point, p):
    """Unimodular matrix whose first row is congruent to the point mod p."""
    return unimodular_with_row(point, p, 0)


def _form_to_last(ell, p, dim):
    """Unimodular A with A . ell = unit * e_last mod p: the substitution
    (vars) -> (vars) A turns a form divisible by ell into one divisible by
    the last variable."""
    rowmat = unimodular_with_row(ell, p, dim - 1)
    col = tuple(tuple(rowmat[c][r] for c in range(dim)) for r in range(dim))
    d = det_matrix(col)  # +-1, so the inverse is d times the adjugate
    return tuple(tuple(d * x for x in row) for row in mat_adj(col))


# ---------------------------------------------------------------------------
# binary quartics


def minimise_quartic(G, ctx):
    """Slope descent for binary quartics: move the unique multiple root of
    the reduction to (1:0), substitute x2 -> p x2 and divide by p^2; divide
    out even content as it appears.  At most two consecutive root moves can
    precede a content division, so a third certifies minimality."""
    ctx = _ctx(ctx)
    d = _Driver(G, ctx)
    p = ctx.p
    chain = 0
    max_chain = 0
    while True:
        if d.v < 12:
            break  # nothing left to reduce
        k = content_valuation(d.cur, p)
        if k >= 2:
            m = GroupElement.scaling("quartic", Fraction(1, p ** (k // 2)))
            d.apply(m, "content", detail=(k // 2,), expect_drop=12 * (k // 2))
            chain = 0
            continue
        prim = tuple(c // p ** k for c in d.cur.coeffs)
        root = repeated_root(prim, p)
        if root is None or chain >= 2:
            break
        move = GroupElement("quartic", Fraction(1, p), (mat_mul(_diag(1, p), _row_move(root, p)),))
        moved = d.candidate(move)
        if not is_integral(moved):
            break
        d.apply(move, "multiple-root", detail=(root,), expect_drop=0, model=moved)
        chain += 1
        max_chain = max(max_chain, chain)
    return d.report(max_chain)


# ---------------------------------------------------------------------------
# (2,2)-forms

_I2 = ((1, 0), (0, 1))


def minimise_22(F, ctx):
    """Minimise a nonsingular integral (2,2)-form at the context prime."""
    ctx = _ctx(ctx)
    d = _Driver(F, ctx)
    p = ctx.p
    chain = 0
    max_chain = 0
    while True:
        if d.v < 12:
            break  # nothing left to reduce
        k = content_valuation(d.cur, p)
        if k >= 1:
            d.apply(GroupElement.scaling("form22", Fraction(1, p ** k)), "content",
                    detail=(k,), expect_drop=12 * k)
            chain = 0
            continue
        cls = classify_22_residue(d.cur, ctx)
        if cls.tag == TAG_PRODUCT_BOTH:
            norm = GroupElement("form22", 1,
                                (_row_move(cls.x_root, p), _row_move(cls.y_root, p)))
            applied = False
            for idx, (sx, sy, la) in enumerate((
                (True, False, Fraction(1, p * p)),
                (False, True, Fraction(1, p * p)),
                (True, True, Fraction(1, p ** 3)),
            )):
                stretch = GroupElement("form22", la,
                                       (_diag(1, p) if sx else _I2, _diag(1, p) if sy else _I2))
                move = stretch.compose(norm)
                moved = d.candidate(move)
                if is_integral(moved):
                    d.apply(move, "slender-pair", detail=(idx + 1,), expect_drop=12, model=moved)
                    chain = 0
                    applied = True
                    break
            if not applied:
                break  # none of the three moves lands integrally: minimal
            continue
        if cls.tag == TAG_PRODUCT_ONE:
            if chain >= 2:
                break
            if cls.repeated_side == "x":
                move = GroupElement("form22", Fraction(1, p),
                                    (mat_mul(_diag(1, p), _row_move(cls.x_root, p)), _I2))
            else:
                move = GroupElement("form22", Fraction(1, p),
                                    (_I2, mat_mul(_diag(1, p), _row_move(cls.y_root, p))))
            d.apply(move, "slender-single", detail=(cls.repeated_side,), expect_drop=0)
            chain += 1
            max_chain = max(max_chain, chain)
            continue
        if cls.tag == TAG_UNIQUE_SINGULAR:
            if chain >= 2:
                break
            xr, yr = cls.point
            move = GroupElement("form22", Fraction(1, p * p),
                                (mat_mul(_diag(1, p), _row_move(xr, p)),
                                 mat_mul(_diag(1, p), _row_move(yr, p))))
            moved = d.candidate(move)
            if not is_integral(moved):
                break  # only non-minimal forms admit this move integrally
            d.apply(move, "singular-point", detail=(cls.point,), expect_drop=0, model=moved)
            chain += 1
            max_chain = max(max_chain, chain)
            continue
        break  # zero is impossible here; separable products and the rest are minimal
    return d.report(max_chain)


def is_minimal_22(F, ctx):
    return minimise_22(F, ctx).input_was_minimal


# ---------------------------------------------------------------------------
# 3x3x3 cubes

_I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _cube_axis_move(matrix, axis):
    mats = [_I3, _I3, _I3]
    mats[axis] = matrix
    return GroupElement("cube", 1, tuple(mats))


def _absorb_axis(d, axis, label):
    """Absorb p from dependent slices along one axis until independent."""
    p = d.p
    while True:
        ker = fp_left_kernel_vector(d.cur.axis_slices(axis), p)
        if ker is None:
            return
        u = unimodular_with_row(lift_primitive(ker, p), p, 2)
        m = mat_mul(_diag(1, 1, Fraction(1, p)), u)
        d.apply(_cube_axis_move(m, axis), label, detail=(axis,), expect_drop=12,
                merge=True)


def minimise_cube(S, ctx):
    """Minimise a nonsingular integral cube at the context prime."""
    ctx = _ctx(ctx)
    d = _Driver(S, ctx)
    p = ctx.p
    proc_chain = 0
    max_chain = 0
    while True:
        if d.v < 12:
            break  # nothing left to reduce
        k = content_valuation(d.cur, p)
        if k >= 1:
            d.apply(GroupElement.scaling("cube", Fraction(1, p ** k)), "content",
                    detail=(k,), expect_drop=36 * k)
            proc_chain = 0
            continue
        defect = saturation_defect(d.cur, ctx)
        if defect is not None:
            axis, ker = defect
            u = unimodular_with_row(lift_primitive(ker, p), p, 2)
            m = mat_mul(_diag(1, 1, Fraction(1, p)), u)
            d.apply(_cube_axis_move(m, axis), "desaturate", detail=(axis,), expect_drop=12)
            proc_chain = 0
            continue
        classes = [classify_cubic_residue(f, ctx) for f in cubics_of_cube(d.cur)]
        rep = [i for i in range(3) if classes[i].tag == TAG_REPEATED_LINE]
        uni = [i for i in range(3) if classes[i].tag == TAG_UNIQUE_SINGULAR]
        if len(rep) >= 2:
            axes, mode = rep[:2], "repeated-factor-pair"
        elif len(uni) >= 2:
            axes, mode = uni[:2], "singular-pair"
        else:
            break
        if proc_chain >= 3:
            break  # a fourth level-neutral procedure certifies minimality
        v_before = d.v
        spare = next(a for a in range(3) if a not in axes)
        move = GroupElement.identity("cube")
        for a in axes:
            if mode == "repeated-factor-pair":
                axis_mat = mat_mul(_diag(1, 1, p), _form_to_last(classes[a].factor, p, 3))
            else:
                axis_mat = mat_mul(_diag(1, p, p), _row_move(classes[a].point, p))
            move = _cube_axis_move(axis_mat, a).compose(move)
        d.apply(move, mode, detail=tuple(axes))
        _absorb_axis(d, spare, mode + "-absorb")
        if d.v > v_before:
            break  # the move only lands for non-minimal cubes: minimal, roll back
        proc_chain = 0 if d.v < v_before else proc_chain + 1
        max_chain = max(max_chain, proc_chain)
    return d.report(max_chain)


# ---------------------------------------------------------------------------
# hypercubes

_ID4 = (0, 1, 2, 3)


def _hyper_move(matrices=None, perm=None, scalar=1):
    mats = tuple(matrices) if matrices is not None else (_I2, _I2, _I2, _I2)
    return GroupElement("hypercube", scalar, mats, perm if perm else _ID4)


def _hyper_axis_move(matrix, axis):
    mats = [_I2, _I2, _I2, _I2]
    mats[axis] = matrix
    return _hyper_move(mats)


def _axis_perm_moving_to_front(a, b):
    """Permutation tuple after which old axis a sits at position 0, b at 1."""
    order = [a, b] + [t for t in range(4) if t not in (a, b)]
    perm = [0] * 4
    for new_pos, old_axis in enumerate(order):
        perm[old_axis] = new_pos
    return tuple(perm)


def _swap_axes_perm(a, b):
    perm = list(range(4))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def _clear_axis_entry(d, axis, pivot_idx, target_idx):
    """Row operation on one axis clearing the target entry mod p against a
    pivot entry differing from it only in that axis."""
    p = d.p
    piv = d.cur.at(*pivot_idx) % p
    tgt = d.cur.at(*target_idx) % p
    if tgt == 0:
        return
    t = tgt * fp_inv(piv, p) % p
    hi = target_idx[axis]
    m = [[1, 0], [0, 1]]
    m[hi][1 - hi] = -t
    d.apply(_hyper_axis_move(tuple(tuple(r) for r in m), axis), "entry-clear", expect_drop=0)


def minimise_hypercube(H, ctx):
    """Minimise a nonsingular integral hypercube at the context prime.

    Minimality is equivalent to some associated (2,2)-form being minimal, so
    the verdict is decided by running the (2,2) minimiser on all six forms.
    While all six are non-minimal, one constructive normalisation step plus a
    diagonal stretch makes progress; the singular-point flavour can repeat at
    most twice before desaturation or the doubly-degenerate flavour occurs.
    """
    ctx = _ctx(ctx)
    d = _Driver(H, ctx)
    p = ctx.p
    singular_chain = 0
    max_chain = 0
    while True:
        if d.v < 12:
            break  # nothing left to reduce
        k = content_valuation(d.cur, p)
        if k >= 1:
            d.apply(GroupElement.scaling("hypercube", Fraction(1, p ** k)), "content",
                    detail=(k,), expect_drop=24 * k)
            singular_chain = 0
            continue
        defect = saturation_defect(d.cur, ctx)
        if defect is not None:
            axis, ker = defect
            u = unimodular_with_row(lift_primitive(ker, p), p, 1)
            m = mat_mul(_diag(1, Fraction(1, p)), u)
            d.apply(_hyper_axis_move(m, axis), "desaturate", detail=(axis,), expect_drop=12)
            singular_chain = 0
            continue
        forms = forms_of_hypercube(d.cur)
        if any(is_minimal_22(forms[pair], ctx) for pair in HYPERCUBE_PAIRS):
            break  # minimal exactly when one of its forms is
        situation = _hyper_step(d, forms)
        if situation == "singular":
            singular_chain += 1
            max_chain = max(max_chain, singular_chain)
            if singular_chain > 2:
                raise InternalBoundError("hypercube singular-point procedure ran thrice")
        else:
            singular_chain = 0
            if saturation_defect(d.cur, ctx) is None:
                raise InternalBoundError("doubly-degenerate step failed to desaturate")
    return d.report(max_chain)


def _hyper_step(d, forms):
    """One constructive step when every associated (2,2)-form is non-minimal.

    Normalises so that the corner slice H[0][0][.][.] vanishes mod p, the
    off-corner block H[0][1][.][.] is supported on its far corner, and
    H[1][0][0][0] = 0 mod p; then a single diagonal stretch either keeps the
    level with a unique singular point (retried by the caller) or produces a
    non-saturated hypercube.
    """
    p = d.p
    ctx = d.ctx

    def h(i, j, k, l):
        return d.cur.at(i, j, k, l) % p

    pair = next((ab for ab in HYPERCUBE_PAIRS
                 if any(c % p for c in forms[ab].coeffs)), None)
    if pair is None:
        raise InternalBoundError("saturated hypercube with every residue form zero")
    if pair != (0, 1):
        d.apply(_hyper_move(perm=_axis_perm_moving_to_front(*pair)), "reorder-axes",
                detail=(pair,), expect_drop=0)
    cls = classify_22_residue(forms_of_hypercube(d.cur)[(0, 1)], ctx)
    spt = cls.a_rational_singular_point()
    if spt is None:
        raise InternalBoundError("non-minimal residue form without a rational singular point")
    d.apply(_hyper_move((_row_move(spt[0], p), _row_move(spt[1], p), _I2, _I2)),
            "move-singular-point", expect_drop=0)

    corner = [(k, l) for k in range(2) for l in range(2) if h(0, 0, k, l)]
    if corner:
        k0, l0 = corner[0]
        swap = ((0, 1), (1, 0))
        if k0 == 1:
            d.apply(_hyper_axis_move(swap, 2), "corner-pivot", expect_drop=0)
        if l0 == 1:
            d.apply(_hyper_axis_move(swap, 3), "corner-pivot", expect_drop=0)
        for axis, target in ((0, (1, 0, 0, 0)), (1, (0, 1, 0, 0)),
                             (2, (0, 0, 1, 0)), (3, (0, 0, 0, 1))):
            _clear_axis_entry(d, axis, (0, 0, 0, 0), target)
        for idx in ((0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1)):
            if h(*idx):
                raise InternalBoundError("corner clearing left an unexpected unit")
        if h(0, 1, 0, 1) != 0:
            if h(0, 1, 1, 0) == 0:
                d.apply(_hyper_move(perm=_swap_axes_perm(2, 3)), "swap-axes", expect_drop=0)
            elif h(1, 0, 0, 1) == 0:
                d.apply(_hyper_move(perm=_swap_axes_perm(0, 1)), "swap-axes", expect_drop=0)
            elif h(1, 0, 1, 0) == 0:
                d.apply(_hyper_move(perm=_swap_axes_perm(0, 1)), "swap-axes", expect_drop=0)
                d.apply(_hyper_move(perm=_swap_axes_perm(2, 3)), "swap-axes", expect_drop=0)
            else:
                raise InternalBoundError("no vanishing product across the corner slice")
        if any(h(0, j, k, 1) for j in range(2) for k in range(2)):
            raise InternalBoundError("the slice (first axis, last index) kept a unit")
        d.apply(_hyper_move(perm=_swap_axes_perm(1, 3)), "relabel-axes", expect_drop=0)
        d.apply(_hyper_axis_move(((0, 1), (1, 0)), 1), "relabel-axes", expect_drop=0)
    if any(h(0, 0, k, l) for k in range(2) for l in range(2)):
        raise InternalBoundError("corner slice is not zero mod p")

    a13 = (h(0, 1, 0, 0) * h(0, 1, 1, 1) - h(0, 1, 0, 1) * h(0, 1, 1, 0)) % p
    if a13:
        a31 = (h(1, 0, 0, 0) * h(1, 0, 1, 1) - h(1, 0, 0, 1) * h(1, 0, 1, 0)) % p
        if a31:
            raise InternalBoundError("both off-corner block determinants are units")
        d.apply(_hyper_move(perm=_swap_axes_perm(0, 1)), "swap-axes", expect_drop=0)

    t_block = tuple(tuple(h(0, 1, k, l) for l in range(2)) for k in range(2))
    if all(x == 0 for row in t_block for x in row):
        raise InternalBoundError("saturation forbids a vanishing off-corner block")
    ker = fp_left_kernel_vector(t_block, p)
    if ker is None:
        raise InternalBoundError("off-corner block must be singular mod p")
    d.apply(_hyper_axis_move(unimodular_with_row(lift_primitive(ker, p), p, 0), 2),
            "block-rows", expect_drop=0)
    row = (h(0, 1, 1, 0), h(0, 1, 1, 1))
    z = lift_primitive((-row[1] % p, row[0] % p), p)
    d.apply(_hyper_axis_move(unimodular_with_row(z, p, 0), 3), "block-columns", expect_drop=0)
    if h(0, 1, 0, 0) or h(0, 1, 0, 1) or h(0, 1, 1, 0):
        raise InternalBoundError("rank-one block reduction failed")
    if h(0, 1, 1, 1) == 0:
        raise InternalBoundError("saturation keeps the far block corner a unit")
    if h(1, 0, 0, 0):
        raise InternalBoundError("valuation pattern of a non-minimal form violated")

    stretch = _hyper_move((_diag(Fraction(1, p), 1), _diag(1, p), _I2, _I2))
    star = h(1, 1, 0, 0) == 0 and h(1, 0, 1, 0) == 0 and h(1, 0, 0, 1) == 0
    if not star:
        if h(1, 1, 0, 0) == 0:
            if h(1, 0, 1, 0):
                d.apply(_hyper_move(perm=_swap_axes_perm(1, 2)), "swap-axes", expect_drop=0)
            else:
                d.apply(_hyper_move(perm=_swap_axes_perm(1, 3)), "swap-axes", expect_drop=0)
        _clear_axis_entry(d, 2, (1, 1, 0, 0), (1, 1, 1, 0))
        _clear_axis_entry(d, 3, (1, 1, 0, 0), (1, 1, 0, 1))
        _clear_axis_entry(d, 0, (0, 1, 1, 1), (1, 1, 1, 1))
        cls = classify_22_residue(forms_of_hypercube(d.cur)[(0, 1)], ctx)
        if cls.tag != TAG_UNIQUE_SINGULAR or cls.point != ((1, 0), (1, 0)):
            # residual case: the two off-pivot corner products vanish mod p.
            # One more relabelling (swap the outer factors, flip the third
            # index) trades the two unknown entries and restores the singular
            # point, unless the hypercube was not saturated after all.
            if h(1, 0, 1, 1) or h(1, 0, 1, 0) * h(1, 0, 0, 1) % p:
                raise InternalBoundError("unexpected corner-product pattern")
            if h(1, 0, 1, 0):
                d.apply(_hyper_move(perm=_swap_axes_perm(2, 3)), "swap-axes", expect_drop=0)
            if h(1, 0, 0, 1) == 0:
                raise InternalBoundError("saturation should keep this entry a unit")
            d.apply(_hyper_axis_move(((0, 1), (1, 0)), 2), "relabel-axes", expect_drop=0)
            d.apply(_hyper_move(perm=_swap_axes_perm(0, 3)), "relabel-axes", expect_drop=0)
            cls = classify_22_residue(forms_of_hypercube(d.cur)[(0, 1)], ctx)
        if cls.tag != TAG_UNIQUE_SINGULAR or cls.point != ((1, 0), (1, 0)):
            raise InternalBoundError("expected a unique singular point at the corner pair")
        d.apply(stretch, "stretch-singular", expect_drop=0)
        return "singular"
    _clear_axis_entry(d, 0, (0, 1, 1, 1), (1, 1, 1, 1))
    for idx in ((1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
        if h(*idx) == 0:
            raise InternalBoundError("saturation keeps the weight-three corners units")
    cls = classify_22_residue(forms_of_hypercube(d.cur)[(0, 1)], ctx)
    if cls.tag != TAG_PRODUCT_BOTH or cls.x_root != (1, 0) or cls.y_root != (1, 0):
        raise InternalBoundError("expected the doubly-degenerate product residue")
    deep = [idx for idx in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
            if valuation(d.cur.at(*idx), p) >= 2]
    if not deep:
        raise InternalBoundError("no depth-two entry beside the corner")
    axis = deep[0].index(1)
    if axis != 3:
        d.apply(_hyper_move(perm=_swap_axes_perm(axis, 3)), "relabel-axes", expect_drop=0)
    d.apply(stretch, "stretch-slender", expect_drop=0)
    return "slender"


# ---------------------------------------------------------------------------
# dispatch and the global driver


_MINIMISERS = {
    "quartic": minimise_quartic,
    "form22": minimise_22,
    "cube": minimise_cube,
    "hypercube": minimise_hypercube,
}


def minimise(m, ctx):
    """Minimise any supported model kind at one prime."""
    try:
        fn = _MINIMISERS[m.kind]
    except (KeyError, AttributeError):
        raise TypeError(f"cannot minimise a model of kind {getattr(m, 'kind', type(m))}")
    return fn(m, ctx)


class FactorizationError(ArithmeticError):
    pass


def trial_division_factor(n, bound=1 << 20):
    """Default factoriser: trial division, then a primality check on the rest."""
    n = abs(int(n))
    if n == 0:
        raise FactorizationError("cannot factor zero")
    out = []
    for q in (2, 3):
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
    q, step = 5, 2
    while q * q <= n and q <= bound:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
        q += step
        step = 6 - step
    if n > 1:
        if not is_prime(n):
            raise FactorizationError(f"leftover cofactor {n} is composite")
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class GlobalReport:
    model: object
    transformation: GroupElement
    local_reports: tuple  # (prime, MinimisationReport), primes ascending

    @property
    def primes(self):
        return tuple(p for p, _ in self.local_reports)


def minimise_global(m, factor=trial_division_factor):
    """Minimise at every prime where the model can be non-minimal.

    Minimising at p multiplies c4 by chi^4, c6 by chi^6 and Delta by
    chi^12, with chi = p^-k when k levels drop, and the result is still
    integral (for quartics, read I and J for c4 and c6).  So a prime where
    a step exists has p^4 | c4, p^6 | c6 and p^12 | Delta, and `factor` is
    called on g = gcd(c4, c6), not on Delta.  It returns
    [(prime, exponent), ...] and raises FactorizationError when it cannot
    split g.
    """
    if not is_integral(m):
        raise ValueError("model must be integral")
    disc = discriminant(m)
    if disc == 0:
        raise SingularModelError("singular model")
    c4, c6 = c4_c6(m)
    candidates = [p for p, _ in factor(gcd(c4, c6))
                  if valuation(c4, p) >= 4 and valuation(c6, p) >= 6
                  and valuation(disc, p) >= 12]
    g = GroupElement.identity(m.kind)
    cur = m
    locals_ = []
    for p in sorted(candidates):
        rep = minimise(cur, LocalContext(p))
        if rep.steps:
            locals_.append((p, rep))
        cur = rep.model
        g = rep.transformation.compose(g)
    if act(g, m) != cur:
        raise AssertionError("global transformation certificate failed")
    return GlobalReport(model=cur, transformation=g, local_reports=tuple(locals_))
