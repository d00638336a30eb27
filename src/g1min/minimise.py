"""Minimisation at a prime for all four model kinds, with certificates.

One loop, `_Driver.run`, serves every kind.  While v(Delta) >= 12 it divides
out content and asks the kind's step for the next move: a level-lowering
move, a level-keeping one, or a verdict that the model is minimal.  The
structure theorems guarantee that a non-minimal model always admits a move,
so the fixpoint is minimal.  Every move a step proposes is one group element,
built as it is stored (int matrices, one Fraction scalar), and is recorded as
one Step; the cube procedure composes its stretch and absorbs into one move.
The report's transformation g satisfies act(g, input) == final, checked at
construction.  Trailing level-neutral exploration is rolled back, so an
already-minimal input comes back unchanged with an empty trace.

The report's verdict names the loop exit:

    BELOW_12             v(Delta) < 12, so no level is left to remove
    NO_RESIDUE_MOVE      the residue class admits no move (quartics,
                         (2,2)-forms, cubes)
    NO_INTEGRAL_LANDING  no candidate move lands on an integral model at the
                         same or a lower level (the (2,2) slender pair and
                         singular point, the cube procedure, whose landing
                         is rolled back)
    NEUTRAL_CHAIN_BOUND  one more level-keeping move than the theory allows:
                         2 in a row for quartics and (2,2)-forms, 3 cube
                         procedures; the chain is rolled back
    ONE_FORM_MINIMAL     a hypercube is minimal exactly when one of its six
                         (2,2)-forms is

Hypercube minimality is decided up front by the six forms.  A non-minimal
hypercube is stretched on the two axes of a form at a rational singular point
of its residue, with no normalisation first: moves on the other two axes
commute with the stretch.  The bound of 2 stretch-singular moves in a row is
kept from the paper's step, though this one was never seen to chain twice;
an overrun raises InternalBoundError instead of giving a verdict.

`is_minimal` runs the same loop for the verdict alone: it composes no
transformation, checks no certificate, and stops at the first committed move
that lowers v(Delta); the moves it commits keep their checks.  The hypercube
step asks it about each of its six forms, passing down the hypercube's
v(Delta), which the forms share, instead of their own invariants.  At the
neutral-chain bound the cube step still classifies the residue, so that a
desaturation or NO_RESIDUE_MOVE wins as before, but builds no procedure for
the driver to refuse.

The module keeps its name, the same as the function's, while perfbench/
binds `g1min.minimise` (ROADMAP item 1).
"""

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exactnum import (
    MOVE_CACHE_SIZE, LocalContext, as_context, form_to_last, fp_left_kernel_vector,
    identity_matrix, is_prime, mat_mul, unimodular_with_row, valuation,
)
from .invariants import checked_invariants
from .models import (
    GroupElement, HYPERCUBE_PAIRS, SPECS, UnsupportedModelError, act, content_valuation,
    cubics_of_cube, forms_of_hypercube,
)
from .residue import (
    classify_22_residue, classify_cubic_residue, repeated_root, saturation_defect,
    TAG_PRODUCT_BOTH, TAG_PRODUCT_ONE, TAG_REPEATED_LINE, TAG_UNIQUE_SINGULAR,
)


class InternalBoundError(AssertionError):
    """An iteration bound promised by the theory was violated (a bug)."""


class Verdict(Enum):
    """Why the minimisation loop stopped (see the module docstring)."""

    BELOW_12 = "below-12"
    NO_RESIDUE_MOVE = "no-residue-move"
    NO_INTEGRAL_LANDING = "no-integral-landing"
    NEUTRAL_CHAIN_BOUND = "neutral-chain-bound"
    ONE_FORM_MINIMAL = "one-form-minimal"


class Step(namedtuple("Step", "label v_disc_before v_disc_after detail", defaults=((),))):
    __slots__ = ()


class MinimisationReport(namedtuple(
        "MinimisationReport", "model transformation steps v_disc_initial v_disc_final prime "
        "verdict max_neutral_chain", defaults=(0,))):
    __slots__ = ()

    @property
    def input_was_minimal(self):
        return self.v_disc_final == self.v_disc_initial


class _Move(namedtuple("_Move", "g label detail drop chained model",
                       defaults=((), None, False, None))):
    """A move proposed by a step: one group element, recorded as one Step.
    `drop` is the fall of v(Delta) it must cause (None: unchecked);
    `chained` moves keep the level and count toward the neutral-chain bound;
    `model` is act(g, cur) when the step has it already."""

    __slots__ = ()


class _Driver:
    """Work state: current model, accumulated certificate, step history, and
    the best landing (v, steps kept, model, g), the first at the lowest
    v(Delta): replaced only on a strict drop, it is what `report` returns.

    A run with certify=False only decides whether the input was minimal: it
    composes no group elements, checks no certificate, stops at the first
    committed move that lands below the input's v(Delta), and `report`
    returns the verdict as a bool.  `at_chain_bound` tells a step that the
    driver would refuse a level-keeping move, so the step need not build one."""

    def __init__(self, m, ctx, certify=True, v=None):
        # the model's refusals come before the prime's; a known v(Delta)
        # stands for a model whose checks have passed
        disc = checked_invariants(m)[2] if v is None else None
        self.ctx = as_context(ctx)
        self.p = self.ctx.p
        self.certify = certify
        self.input = m
        self.cur = m
        self.g = GroupElement.identity(m.kind)
        self.v = valuation(disc, self.p) if v is None else v
        self.v_initial = self.v
        self.at_chain_bound = False
        self.content = 0  # v_p of the content that division left (quartics: 0 or 1)
        self.steps = []
        self.best = (self.v, 0, m, self.g)

    def run(self):
        """Minimise: while v(Delta) >= 12, divide out content, then commit the
        move the kind's step (`_STEPS`) proposes, until it returns a Verdict.
        A step proposes one move, which must land integrally, or a tuple of
        candidates, of which the first that lands integrally is committed."""
        kind, p = self.input.kind, self.p
        spec, (step, bound) = SPECS[kind], _STEPS[kind]
        chain = max_chain = 0
        # a verdict-only run ends once the level falls: the input was not minimal
        while self.v >= 12 and (self.certify or self.v == self.v_initial):
            self.content = content_valuation(self.cur, p)
            e = self.content // spec.act_power
            if e:
                self.apply(GroupElement.scaling(kind, Fraction(1, p ** e)), "content",
                           detail=(e,), expect_drop=12 * e * spec.chi_power)
                chain = 0
                continue
            self.at_chain_bound = chain >= bound
            proposal = step(self)
            if isinstance(proposal, Verdict):
                return self.report(proposal, max_chain)
            move = proposal[0] if type(proposal) is tuple else proposal
            if move.chained and self.at_chain_bound:
                return self.report(Verdict.NEUTRAL_CHAIN_BOUND, max_chain)
            moved = move.model
            if type(proposal) is tuple:
                move, moved = next(((c, x) for c in proposal for x in (act(c.g, self.cur),)
                                    if x is not None), (None, None))
                if move is None:
                    return self.report(Verdict.NO_INTEGRAL_LANDING, max_chain)
            v_before = self.v
            self.apply(move.g, move.label, move.detail, move.drop, model=moved)
            if self.v > v_before:  # landed above the level: roll back
                return self.report(Verdict.NO_INTEGRAL_LANDING, max_chain)
            chain = chain + 1 if move.chained and self.v == v_before else 0
            max_chain = max(max_chain, chain)
        return self.report(Verdict.BELOW_12, max_chain)

    def apply(self, move, label, detail=(), expect_drop=None, model=None):
        """Apply one move and record it as one Step; `model` is
        act(move, cur) when the caller has it already."""
        v_before = self.v
        new_model = act(move, self.cur) if model is None else model
        if new_model is None:
            raise AssertionError(f"step {label} produced a non-integral model")
        v_new = self.v + 12 * move.chi_valuation(self.p)
        if expect_drop is not None and v_before - v_new != expect_drop:
            raise AssertionError(f"step {label} expected a drop of {expect_drop}")
        self.cur = new_model
        if self.certify:
            self.g = move.compose(self.g)
        self.v = v_new
        self.steps.append(Step(label, v_before, v_new, detail))
        if v_new < self.best[0]:
            self.best = (v_new, len(self.steps), new_model, self.g)

    def report(self, verdict, max_neutral_chain):
        """The MinimisationReport of the best landing; a verdict-only run's
        bool, whether the input was minimal."""
        v_final, kept, model, g = self.best
        if not self.certify:
            return v_final == self.v_initial
        if act(g, self.input) != model:
            raise AssertionError("transformation certificate failed to reproduce the model")
        return MinimisationReport(
            model=model, transformation=g, steps=tuple(self.steps[:kept]),
            v_disc_initial=self.v_initial, v_disc_final=v_final,
            prime=self.p, verdict=verdict, max_neutral_chain=max_neutral_chain,
        )


def _diag(*entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def _row_move(point, p):
    """Unimodular matrix whose first row is congruent to the point mod p."""
    return unimodular_with_row(point, p, 0)


def _axis_move(kind, matrix, axis, scalar=1):
    """The group element acting by `matrix` along one tensor axis."""
    mats = [identity_matrix(n) for n in SPECS[kind].matrix_sizes]
    mats[axis] = matrix
    return GroupElement(kind, scalar, tuple(mats))


@lru_cache(maxsize=MOVE_CACHE_SIZE)
def _absorb(kind, ker, p, axis):
    """The move along one axis dividing by p the slice combination `ker`
    (dependent mod p, reduced, as `fp_left_kernel_vector` returns it):
    diag(1, ..., 1, 1/p) u, u unimodular with last row ker mod p, stored as
    u with its other rows times p and the scalar 1/p.  Memoised: the frozen
    element is checked once and shared."""
    u = unimodular_with_row(ker, p, len(ker) - 1)
    return _axis_move(kind, tuple(tuple(p * x for x in row) for row in u[:-1]) + (u[-1],),
                      axis, Fraction(1, p))


def _desaturation(d):
    """The move absorbing p along an axis whose slices are dependent mod p,
    or None when the cube or hypercube is saturated."""
    defect = saturation_defect(d.cur, d.ctx)
    if defect is not None:
        axis, ker = defect
        return _Move(_absorb(d.cur.kind, ker, d.p, axis), "desaturate", (axis,), 12)


# ---------------------------------------------------------------------------
# binary quartics


def _quartic_step(d):
    """Slope descent: move the unique multiple root of the reduction to
    (1:0), substitute x2 -> p x2 and divide by p^2.  The driver divides out
    even content as it appears; at most two consecutive root moves can
    precede a content division, so a third certifies minimality."""
    p = d.p
    root = repeated_root(tuple(c // p ** d.content for c in d.cur.coeffs), p)
    if root is None:
        return Verdict.NO_RESIDUE_MOVE
    # The move always lands.  With content p this is clear.  Without, the root
    # moved to (1:0) gives v(a), v(b) >= 1, and v(a) = 1 would make the m roots
    # near it those of an Eisenstein polynomial g of degree m <= 4, so that
    # v(Delta) = v(disc g) <= m v(m) + m - 1 <= 11.
    move = GroupElement("quartic", Fraction(1, p), (mat_mul(_diag(1, p), _row_move(root, p)),))
    return _Move(move, "multiple-root", (root,), 0, chained=True)


# ---------------------------------------------------------------------------
# (2,2)-forms

_I2 = ((1, 0), (0, 1))


def _22_step(d):
    """Stretch at the repeated roots or the singular point of the residue."""
    p = d.p
    cls = classify_22_residue(d.cur, d.ctx)
    if cls.tag == TAG_PRODUCT_BOTH:
        # move both repeated roots to (1:0), then try three diagonal stretches
        mx, my = _row_move(cls.x_root, p), _row_move(cls.y_root, p)
        sx, sy = mat_mul(_diag(1, p), mx), mat_mul(_diag(1, p), my)
        return tuple(_Move(GroupElement("form22", la, mats), "slender-pair", (idx,), 12)
                     for idx, la, mats in ((1, Fraction(1, p * p), (sx, my)),
                                           (2, Fraction(1, p * p), (mx, sy)),
                                           (3, Fraction(1, p ** 3), (sx, sy))))
    if cls.tag == TAG_PRODUCT_ONE:
        stretch = mat_mul(_diag(1, p), _row_move(
            cls.x_root if cls.repeated_side == "x" else cls.y_root, p))
        mats = (stretch, _I2) if cls.repeated_side == "x" else (_I2, stretch)
        return _Move(GroupElement("form22", Fraction(1, p), mats), "slender-single",
                     (cls.repeated_side,), 0, chained=True)
    if cls.tag == TAG_UNIQUE_SINGULAR:
        # only non-minimal forms admit this move integrally
        xr, yr = cls.point
        move = GroupElement("form22", Fraction(1, p * p),
                            (mat_mul(_diag(1, p), _row_move(xr, p)),
                             mat_mul(_diag(1, p), _row_move(yr, p))))
        return (_Move(move, "singular-point", (cls.point,), 0, chained=True),)
    return Verdict.NO_RESIDUE_MOVE  # zero is impossible here; the rest are minimal


# kept while perfbench/ binds it (ROADMAP item 1)
def is_minimal_22(F, ctx):
    """is_minimal for (2,2)-forms only."""
    return _minimise(F, ctx, "form22", certify=False)


# ---------------------------------------------------------------------------
# 3x3x3 cubes


def _cube_step(d):
    """Desaturate, or stretch the two axes whose determinantal cubics share a
    repeated line or a unique singular point and absorb along the third: the
    stretch, then one absorb for each dependence of the spare axis's slices
    mod p, composed into one move.  Each absorb must land integrally and
    lower v(Delta) by exactly 12."""
    desaturate = _desaturation(d)
    if desaturate is not None:
        return desaturate
    p = d.p
    classes = [classify_cubic_residue(f, d.ctx) for f in cubics_of_cube(d.cur)]
    rep = [i for i in range(3) if classes[i].tag == TAG_REPEATED_LINE]
    uni = [i for i in range(3) if classes[i].tag == TAG_UNIQUE_SINGULAR]
    if len(rep) >= 2:
        axes, mode = rep[:2], "repeated-factor-pair"
    elif len(uni) >= 2:
        axes, mode = uni[:2], "singular-pair"
    else:
        return Verdict.NO_RESIDUE_MOVE
    if d.at_chain_bound:  # the driver would refuse the procedure: build none
        return Verdict.NEUTRAL_CHAIN_BOUND
    spare = next(a for a in range(3) if a not in axes)
    mats = [identity_matrix(3)] * 3
    for a in axes:
        if mode == "repeated-factor-pair":
            mats[a] = mat_mul(_diag(1, 1, p), form_to_last(classes[a].factor, p))
        else:
            mats[a] = mat_mul(_diag(1, p, p), _row_move(classes[a].point, p))
    g = GroupElement("cube", 1, tuple(mats))
    landed = act(g, d.cur)
    while (ker := fp_left_kernel_vector(landed.axis_slices(spare), p)) is not None:
        absorb = _absorb("cube", ker, p, spare)
        landed = act(absorb, landed)
        if landed is None or absorb.chi_valuation(p) != -1:
            raise AssertionError(f"step {mode}-absorb must land integrally, v(Delta) 12 lower")
        g = absorb.compose(g)
    return _Move(g, mode, tuple(axes), chained=True, model=landed)


# ---------------------------------------------------------------------------
# hypercubes


def _hypercube_step(d):
    """Desaturate, or stop when one of the six (2,2)-forms is minimal, or
    stretch: for each pair (a, b) in HYPERCUBE_PAIRS order, at the rational
    singular point (x, y) of F_ab mod p, by (1/p; diag(1, p)·U_x on axis a,
    diag(1, p)·U_y on axis b), U_z unimodular with first row z mod p.  Moves
    on the other two axes commute with it and change a landing only by
    GL2(Z) factors, which keep v(Delta), saturation and minimality, so none
    is made first.  The first integral landing that is not saturated goes
    unchained, a desaturation following it; failing one, the first integral
    landing, chained.  The bound of 2 is the paper's step's; this one was
    never seen to chain twice.  The forms decide minimality, so a chained
    move at the bound is a fault: it raises InternalBoundError, not a verdict."""
    desaturate = _desaturation(d)
    if desaturate is not None:
        return desaturate
    p, ctx = d.p, d.ctx
    forms = forms_of_hypercube(d.cur)
    # the forms share the hypercube's c4 and c6, hence its Delta and its checks
    if any(_Driver(forms[pair], ctx, certify=False, v=d.v).run() for pair in HYPERCUBE_PAIRS):
        return Verdict.ONE_FORM_MINIMAL
    singular = None
    for a, b in HYPERCUBE_PAIRS:
        point = classify_22_residue(forms[a, b], ctx).a_rational_singular_point()
        if point is None:
            continue
        mats = [_I2] * 4
        mats[a], mats[b] = (mat_mul(_diag(1, p), _row_move(z, p)) for z in point)
        g = GroupElement("hypercube", Fraction(1, p), tuple(mats))
        landed = act(g, d.cur)
        if landed is None:
            continue
        if saturation_defect(landed, ctx) is not None:
            return _Move(g, "stretch-slender", ((a, b),), 0, model=landed)
        if singular is None:
            singular = _Move(g, "stretch-singular", ((a, b),), 0, chained=True, model=landed)
    if singular is None:
        raise InternalBoundError("no stretch at a residue singular point lands integrally")
    if d.at_chain_bound:
        raise InternalBoundError("hypercube singular-point procedure ran thrice")
    return singular


# kept while perfbench/ binds it (ROADMAP item 1)
def minimise_hypercube(H, ctx):
    """Minimise a nonsingular integral hypercube at the context prime: it is
    minimal exactly when one of its six (2,2)-forms is (`_hypercube_step`)."""
    return _minimise(H, ctx, "hypercube")


# ---------------------------------------------------------------------------
# dispatch and the global driver


# each kind's step, and the theory's bound on consecutive level-keeping
# moves (cubes: procedures)
_STEPS = {
    "quartic": (_quartic_step, 2),
    "form22": (_22_step, 2),
    "cube": (_cube_step, 3),
    "hypercube": (_hypercube_step, 2),
}


def _check_kind(m, kind=None):
    """UnsupportedModelError for a model no step minimises, or not of `kind`."""
    actual = getattr(m, "kind", type(m))
    if actual == "cubic":
        raise UnsupportedModelError("ternary cubics are carried along, not minimised directly")
    if actual not in _STEPS:
        raise UnsupportedModelError(f"cannot minimise a model of kind {actual}")
    if kind is not None and actual != kind:
        raise UnsupportedModelError(f"the {kind} minimiser got a {actual} model")


def _minimise(m, ctx, kind=None, certify=True):
    """Every minimiser and minimality test: the kind check, then the driver."""
    _check_kind(m, kind)
    return _Driver(m, ctx, certify).run()


def minimise(m, ctx):
    """Minimise any supported model kind at one prime.  Refusals come in the
    order kind (UnsupportedModelError), Delta = 0 (SingularModelError), then
    the prime (RefusedInputError)."""
    return _minimise(m, ctx)


def is_minimal(m, ctx):
    """minimise(m, ctx).input_was_minimal, with the same refusals in the same
    order, from a run that composes no transformation, checks no certificate
    and stops at the first move that lowers v(Delta)."""
    return _minimise(m, ctx, certify=False)


class FactorizationError(ArithmeticError):
    pass


def trial_division_factor(n):
    """`minimise_global`'s factoriser: trial division to 2^20, then a
    primality check on the rest.  A composite rest up to 2^80 is dropped: its
    primes exceed 2^20, so none divides it four times, as a candidate must."""
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
    while q * q <= n and q <= 1 << 20:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
        q += step
        step = 6 - step
    if n > 1 and is_prime(n):
        out.append((n, 1))
    elif n > 1 << 80:
        raise FactorizationError(f"leftover cofactor {n} is composite")
    return out


class GlobalReport(namedtuple("GlobalReport", "model transformation local_reports")):
    # local_reports: (prime, MinimisationReport) pairs, primes ascending
    __slots__ = ()

    @property
    def primes(self):
        return tuple(p for p, _ in self.local_reports)


def minimise_global(m):
    """Minimise at every prime where the model can be non-minimal.

    Minimising at p multiplies c4 by chi^4, c6 by chi^6 and Delta by
    chi^12, with chi = p^-k when k levels drop, and the result is still
    integral (for quartics, read I and J for c4 and c6).  So a prime where
    a step exists has p^4 | c4, p^6 | c6 and p^12 | Delta, and
    `trial_division_factor` factors g = gcd(c4, c6), not Delta; it may
    leave out primes dividing g less than four times, and raises
    FactorizationError when what it cannot split could hide a candidate.
    The model is refused as by `minimise` before any factoring.
    """
    _check_kind(m)
    c4, c6, disc = checked_invariants(m)
    candidates = [(p, v) for p, _ in trial_division_factor(gcd(c4, c6))
                  if valuation(c4, p) >= 4 and valuation(c6, p) >= 6
                  and (v := valuation(disc, p)) >= 12]
    g = GroupElement.identity(m.kind)
    cur = m
    locals_ = []
    for p, v in sorted(candidates):
        # a move at p scales Delta by a power of p, so the input's v_p(Delta)
        # is still the current model's: its invariants need no second look
        rep = _Driver(cur, LocalContext(p), v=v).run()
        if rep.steps:
            locals_.append((p, rep))
        cur = rep.model
        g = rep.transformation.compose(g)
    if act(g, m) != cur:
        raise AssertionError("global transformation certificate failed")
    return GlobalReport(model=cur, transformation=g, local_reports=tuple(locals_))
