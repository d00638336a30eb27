"""Level-zero constructions, degree conversions, critical-model sampling,
the admissible-weight census (a pure-Python stream of every weight through
an antichain of packed deficiency vectors), and the brute-force minimality
oracle for (2,2)-forms.

Everything random takes an explicit random.Random (or a seed), so acceptance
runs are reproducible.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
import random

from .exactnum import (
    RefusedInputError, as_context, complete_primitive_row, det_matrix, identity_matrix, mat_mul,
)
from .invariants import checked_invariants, discriminant
from .models import (
    SPECS, Cube, GroupElement, SingularModelError, TwoTwoForm, UnsupportedModelError, act,
    is_integral, sym_power_matrix,
)
from .weierstrass import WeierstrassCurve


def _rng(seed_or_rng):
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


# ---------------------------------------------------------------------------
# level-zero models from a curve with a marked point


def marked_curve(a1, a2, a3, a4):
    """The curve y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x carrying P = (0, 0)."""
    return WeierstrassCurve(a1, a2, a3, a4, 0)


def construct_22(a1, a2, a3, a4):
    """A (2,2)-form with the same discriminant as marked_curve(a1..a4).

    Its invariants place the marked point at (0, 0) on an integral model of
    the same curve (the y-negated twin: identical b-quantities).
    """
    E = marked_curve(a1, a2, a3, a4)
    if E.disc == 0:
        raise SingularModelError("the marked curve is singular")
    return TwoTwoForm(((a4, a3, 0), (a2, a1, -1), (1, 0, 0)))


def construct_cube(a1, a2, a3, a4):
    """A 3x3x3 cube with the same discriminant as marked_curve(a1..a4)."""
    E = marked_curve(a1, a2, a3, a4)
    if E.disc == 0:
        raise SingularModelError("the marked curve is singular")
    s = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    # z-slices are the bilinear forms cutting out the image of the curve
    s[1][0][0], s[0][1][0] = 1, -1
    s[2][0][1], s[1][0][1], s[0][0][1], s[1][2][1] = 1, a1, a3, -1
    s[1][1][2], s[1][0][2], s[0][0][2], s[2][2][2] = 1, a2, a4, -1
    return Cube(tuple(tuple(tuple(r) for r in pl) for pl in s))


# ---------------------------------------------------------------------------
# conversions between cubes and (2,2)-forms


def convert_3to2(S):
    """The (2,2)-form of a cube whose bilinear forms vanish at the pair of
    points ((0:0:1), (0:0:1)); the discriminant is preserved exactly.  It is
    det(L | M | N), row i holding sum s[2][yl][i] y_yl, sum s[xm][2][i] x_xm
    and sum s[xn][yn][i] x_xn y_yn: linear in each column, so one 3x3 integer
    determinant per (yl, xm, xn, yn) in {0, 1}^4.  The caller moves a
    rational point of the cube's curve there by unimodular changes first.
    """
    if S.kind != "cube":
        raise UnsupportedModelError(f"3to2 needs a cube model, got {S.kind}")
    s = S.entries
    if any(s[2][2]):
        raise UnsupportedModelError("the bilinear forms do not vanish at ((0:0:1),(0:0:1))")
    rows = [[0] * 3 for _ in range(3)]
    for yl, xm, xn, yn in product((0, 1), repeat=4):
        rows[xm + xn][yl + yn] += det_matrix(
            tuple((s[2][yl][i], s[xm][2][i], s[xn][yn][i]) for i in range(3)))
    F = TwoTwoForm(tuple(tuple(r) for r in rows))
    if discriminant(F) != discriminant(S):
        raise AssertionError("degree-lowering conversion changed the discriminant")
    return F


def convert_2to3(F):
    """The cube of a (2,2)-form vanishing at ((1:0), (1:0)) (a11 = 0); the
    discriminant is preserved exactly."""
    if F.kind != "form22":
        raise UnsupportedModelError(f"2to3 needs a form22 model, got {F.kind}")
    a = F.rows
    if a[0][0] != 0:
        raise UnsupportedModelError("((1:0),(1:0)) is not on the curve: a11 != 0")
    z0 = ((0, 1, 0), (1, a[1][1], a[1][2]), (0, a[2][1], a[2][2]))
    z1 = ((0, 0, 0), (0, a[0][1], a[0][2]), (-1, 0, 0))
    z2 = ((0, 0, -1), (0, a[1][0], 0), (0, a[2][0], 0))
    s = tuple(
        tuple(tuple((z0, z1, z2)[k][i][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    S = Cube(s)
    if discriminant(S) != discriminant(F):
        raise AssertionError("degree-raising conversion changed the discriminant")
    return S


# ---------------------------------------------------------------------------
# critical models: minimal but of positive level

_GE, _EQ = 0, 1

_CRITICAL_22 = (
    ((2, _EQ), (2, _GE), (1, _EQ)),
    ((2, _GE), (1, _GE), (1, _GE)),
    ((1, _EQ), (1, _GE), (0, _EQ)),
)

_CRITICAL_CUBE = (
    (((2, _GE), (1, _EQ), (1, _GE)), ((1, _EQ), (1, _GE), (1, _GE)), ((1, _GE), (1, _GE), (0, _EQ))),
    (((1, _EQ), (1, _GE), (1, _GE)), ((1, _GE), (1, _GE), (0, _EQ)), ((1, _GE), (0, _EQ), (0, _GE))),
    (((1, _GE), (1, _GE), (0, _EQ)), ((1, _GE), (0, _EQ), (0, _GE)), ((0, _EQ), (0, _GE), (0, _GE))),
)

_CRITICAL_HYPER = (
    ((2, _GE), (1, _EQ), (1, _EQ), (1, _GE)),
    ((1, _EQ), (1, _GE), (1, _GE), (0, _EQ)),
    ((1, _EQ), (1, _GE), (1, _GE), (0, _EQ)),
    ((1, _GE), (0, _EQ), (0, _EQ), (0, _GE)),
)

# (flat position, pattern) per kind, in draw order: the (2,2) and cube
# patterns row-major, the hypercube's 4x4 layout with row r = i + 2k and
# column c = j + 2l holding h[i][j][k][l]
_CRITICAL = {
    "form22": tuple(enumerate(x for row in _CRITICAL_22 for x in row)),
    "cube": tuple(enumerate(x for sl in _CRITICAL_CUBE for row in sl for x in row)),
    "hypercube": tuple((8 * i + 4 * j + 2 * k + l, _CRITICAL_HYPER[2 * k + i][2 * l + j])
                       for k in range(2) for i in range(2) for l in range(2) for j in range(2)),
}
_CRITICAL_TRIES = 200


def _draw(spec, p, rng):
    v, flag = spec
    if flag == _GE:
        while rng.randrange(p) == 0:
            v += 1
    unit = rng.randrange(1, p)
    sign = rng.choice((1, -1))
    return sign * unit * p ** v


def critical_model(kind, ctx, seed_or_rng=0):
    """A pseudorandom nonsingular model matching the critical valuation
    pattern at the context prime (p >= 5): minimal yet of positive level."""
    ctx = as_context(ctx)
    p = ctx.p
    if p < 5:
        raise RefusedInputError("critical patterns are stated for p >= 5")
    rng = _rng(seed_or_rng)
    table = _CRITICAL.get(kind)
    if table is None:
        raise UnsupportedModelError(f"no critical pattern for kind {kind!r}")
    for _ in range(_CRITICAL_TRIES):
        draws = sorted((n, _draw(pattern, p, rng)) for n, pattern in table)
        m = SPECS[kind].model.from_coeffs(x for _, x in draws)
        if discriminant(m) != 0:
            return m
    raise RuntimeError("failed to sample a nonsingular critical model")


# ---------------------------------------------------------------------------
# level inflation: integral moves that raise the level (for round-trip tests)


def _random_unimodular(n, rng):
    m = [list(r) for r in identity_matrix(n)]
    for _ in range(n + rng.randrange(3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.randrange(2):
        m.reverse()
    return tuple(tuple(r) for r in m)


def inflate(m, ctx, seed_or_rng, moves=3):
    """Apply integral level-raising moves: random unimodular conjugation
    followed by a scalar-p or diagonal-p stretch.  Returns (model, element)."""
    ctx = as_context(ctx)
    p = ctx.p
    rng = _rng(seed_or_rng)
    kind = m.kind
    sizes = SPECS[kind].matrix_sizes
    total = GroupElement.identity(kind)
    cur = m
    for _ in range(moves):
        mats = [_random_unimodular(n, rng) for n in sizes]
        g = GroupElement(kind, 1, tuple(mats))
        which = rng.randrange(len(sizes) + 1)
        if which == len(sizes):
            stretch = GroupElement.scaling(kind, Fraction(p))
        else:
            n = sizes[which]
            diag = tuple(tuple((p if (i == j == n - 1) else (1 if i == j else 0))
                               for j in range(n)) for i in range(n))
            dm = [identity_matrix(k) for k in sizes]
            dm[which] = diag
            stretch = GroupElement(kind, 1, tuple(dm))
        g = stretch.compose(g)
        cur = act(g, cur)
        if not is_integral(cur):
            raise AssertionError("a level-raising move produced a non-integral model")
        total = g.compose(total)
    return cur, total


# ---------------------------------------------------------------------------
# the admissible-weight census for cubes


@dataclass(frozen=True)
class WeightTuple:
    """A diagonal weight (a21, a31; a22, a32; a23, a33) with its scale s."""

    entries: tuple  # (a21, a31, a22, a32, a23, a33)
    s: int

    @property
    def deficiency_vector(self):
        a21, a31, a22, a32, a23, a33 = self.entries
        cols = ((0, a21, a31), (0, a22, a32), (0, a23, a33))
        return tuple(
            max(self.s - cols[0][i] - cols[1][j] - cols[2][k], 0)
            for i in range(3) for j in range(3) for k in range(3)
        )

    def is_symmetric(self):
        a21, a31, a22, a32, a23, a33 = self.entries
        return a21 <= a31 and a22 <= a32 and a23 <= a33 and a31 >= a32 >= a33


WEIGHT_SCALE_BOUND = 10  # minimal weights never need a larger scale

# a packed deficiency vector gives each entry (at most s <= 10) a 5-bit field
# whose top bit guards against borrows: f <= v componentwise exactly when
# every guard bit survives (v | _GUARD) - f
_GUARD = sum(16 << 5 * i for i in range(27))


@lru_cache(maxsize=None)
def _weight_candidates(s):
    """The minimal weight classes over the scales 1..s, in no particular order.

    (packed deficiency vector, WeightTuple) pairs: the vectors of scale <= s
    with no other such vector below them, each with the first weight giving
    it (scales ascending, then entries in lexicographic order).  The scale-s
    weights are streamed into the classes of scale s - 1, kept an antichain.
    """
    def parts(tot, n):
        if n == 1:
            yield (tot,)
            return
        for first in range(tot + 1):
            for rest in parts(tot - first, n - 1):
                yield (first,) + rest

    front = list(_weight_candidates(s - 1)) if s > 1 else []
    for a21, a31, a22, a32, rest in parts(3 * s - 1, 5):
        # the nine z-index-0 entries, shared by every (a23, a33)
        heads = [s - x - y for x in (0, a21, a31) for y in (0, a22, a32)]
        base = sum(h << 15 * n for n, h in enumerate(heads) if h > 0)
        for a23 in range(rest + 1):
            a33 = rest - a23
            v = base
            for n, h in enumerate(heads):
                if h > a23:
                    v |= (h - a23) << 15 * n + 5
                if h > a33:
                    v |= (h - a33) << 15 * n + 10
            for i, (f, _) in enumerate(front):
                if ((v | _GUARD) - f) & _GUARD == _GUARD:  # f <= v: no new class
                    if i:  # consecutive weights usually lie above the same class
                        front.insert(0, front.pop(i))
                    break
            else:
                front = [(f, w) for f, w in front if ((f | _GUARD) - v) & _GUARD != _GUARD]
                front.insert(0, (v, WeightTuple((a21, a31, a22, a32, a23, a33), s)))
    return tuple(front)


@lru_cache(maxsize=1)
def enumerate_minimal_weights():
    """All minimal admissible-weight classes (there are exactly 81).

    Weights are compared through their clamped deficiency vectors; a weight is
    minimal when no other weight's vector is componentwise <= with some strict
    drop, and each class is represented by the first weight producing it.
    Returns WeightTuples sorted by (s, entries).
    """
    return tuple(sorted((w for _, w in _weight_candidates(WEIGHT_SCALE_BOUND)),
                        key=lambda w: (w.s, w.entries)))


def symmetric_minimal_weights():
    """The minimal weights surviving the slicing-symmetry normalisation."""
    return tuple(w for w in enumerate_minimal_weights() if w.is_symmetric())


# ---------------------------------------------------------------------------
# exhaustive minimality oracle for (2,2)-forms

ORACLE_WEIGHT_PAIRS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2))
ORACLE_PRIME_BOUND = 5


def _stretch_classes(p, a):
    """Unimodular matrices representing every first-row direction in
    P^1(Z/p^a); the diagonal stretch diag(1, p^a) only sees that direction."""
    if a == 0:
        return (((1, 0), (0, 1)),)
    q = p ** a
    reps = [(1, t) for t in range(q)] + [(p * s, 1) for s in range(q // p)]
    return tuple(complete_primitive_row(w) for w in reps)


def _mod_rows(m, p):
    return tuple(tuple(x % p for x in row) for row in m)


@lru_cache(maxsize=None)
def _oracle_residues(p):
    """The distinct Sym^2 matrices mod p of the stretch classes of every
    oracle weight, in first-seen order: one per direction of P^1(F_p)."""
    residues = {}
    for a in sorted({a for pair in ORACLE_WEIGHT_PAIRS for a in pair}):
        for U in _stretch_classes(p, a):
            residues.setdefault(_mod_rows(sym_power_matrix(U, 2), p))
    return tuple(residues)


@lru_cache(maxsize=None)
def _oracle_classes(p, a):
    """The stretch classes of P^1(Z/p^a), each with its Sym^2 matrix and the
    index of that matrix mod p in _oracle_residues(p), built on first use:
    they do not depend on the form."""
    residues = _oracle_residues(p)
    classes = []
    for U in _stretch_classes(p, a):
        su = sym_power_matrix(U, 2)
        classes.append((U, su, residues.index(_mod_rows(su, p))))
    return tuple(classes)


@lru_cache(maxsize=None)
def _entry_tests(p, a, b):
    """(r, c, p^need) for each entry the stretch of weight pair (a, b)
    divides by p^need, need = a(1 - r) + b(1 - c) + 1 > 0; largest first."""
    needs = sorted(((a * (1 - r) + b * (1 - c) + 1, r, c) for r in range(3) for c in range(3)),
                   reverse=True)
    return tuple((r, c, p ** need) for need, r, c in needs if need > 0)


def _live_residue_pairs(F, p):
    """{i: {j, ...}} for the residue pairs (i, j) of _oracle_residues(p) whose
    substituted form Sym^2(U) F Sym^2(V)^T vanishes mod p at the entries
    (0, 0), (0, 1), (1, 0) and (1, 1); no class pair outside them can reduce F."""
    residues = _oracle_residues(p)
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = F.rows
    # F times rows 0 and 1 of each Sym^2(V) mod p, as one 6-tuple per j
    right = [((f00 * s0 + f01 * s1 + f02 * s2) % p, (f10 * s0 + f11 * s1 + f12 * s2) % p,
              (f20 * s0 + f21 * s1 + f22 * s2) % p, (f00 * t0 + f01 * t1 + f02 * t2) % p,
              (f10 * t0 + f11 * t1 + f12 * t2) % p, (f20 * t0 + f21 * t1 + f22 * t2) % p)
             for (s0, s1, s2), (t0, t1, t2), _ in residues]
    live = {}
    for i, ((a0, a1, a2), (b0, b1, b2), _) in enumerate(residues):
        for j, (w0, w1, w2, z0, z1, z2) in enumerate(right):
            if not ((a0 * w0 + a1 * w1 + a2 * w2) % p or (a0 * z0 + a1 * z1 + a2 * z2) % p
                    or (b0 * w0 + b1 * w1 + b2 * w2) % p or (b0 * z0 + b1 * z1 + b2 * z2) % p):
                live.setdefault(i, set()).add(j)
    return live


def _oracle_reducer(F, p):
    """A substitution pair (U, V) and weight pair making the stretched form
    integral (hence of smaller discriminant valuation), or None.

    For the weight pair (a, b) the stretched form's integrality depends on
    the unimodular pre-substitutions only through their first-row directions
    in P^1(Z/p^a) x P^1(Z/p^b) (row operations congruent to lower-triangular
    mod p^a conjugate through the stretch integrally), so those classes are
    enumerated exhaustively.  Residues mod p alone would miss reducers for
    the pairs (2, 1) and (1, 2).

    The substituted form is m = Sym^2(U) F Sym^2(V)^T, and entry (r, c)
    must vanish to order need = a(1 - r) + b(1 - c) + 1 where that is
    positive.  For the entries (0, 0), (0, 1), (1, 0) and (1, 1) the need is
    a + b + 1, a + 1, b + 1 and 1, at least 1 for every weight pair, and
    those entries mod p depend only on Sym^2(U) and Sym^2(V) mod p.  So the
    (p + 1)^2 residue pairs are tested first (`_live_residue_pairs`): a form
    with none alive is minimal at once, and a class pair whose residue pair
    is dead is skipped before any work mod p^(a+b+1), a U whose residue is
    in no live pair before its product.  The skip drops only pairs that
    cannot pass, so the search stays exhaustive and visits the survivors in
    the same order, returning the same first reducer.  Every need is at most
    a + b + 1, so left = Sym^2(U) F is reduced mod p^(a+b+1) once per U,
    and each V is tested one entry at a time, largest need first, stopping
    at the first entry that fails.
    """
    live = _live_residue_pairs(F, p)
    if not live:
        return None
    rows = F.rows
    for a, b in ORACLE_WEIGHT_PAIRS:
        q = p ** (a + b + 1)
        tests = _entry_tests(p, a, b)
        v_classes = _oracle_classes(p, b)
        for U, su, i in _oracle_classes(p, a):
            live_v = live.get(i)
            if live_v is None:
                continue
            left = [[x % q for x in row] for row in mat_mul(su, rows)]
            for V, sv, j in v_classes:
                if j not in live_v:
                    continue
                for r, c, mod in tests:
                    lr, vc = left[r], sv[c]
                    if (lr[0] * vc[0] + lr[1] * vc[1] + lr[2] * vc[2]) % mod:
                        break
                else:
                    return U, V, (a, b)
    return None


def oracle_minimality_22(F, ctx):
    """Exhaustive minimality check for a (2,2)-form, independent of the
    minimisation algorithm.

    For each weight pair (a, b) in ORACLE_WEIGHT_PAIRS, searches every pair
    of first-row classes in P^1(Z/p^a) x P^1(Z/p^b) followed by the diagonal
    stretch of that weight, testing the substituted form entry by entry mod
    p^(a+b+1); the class tables and their Sym^2 matrices are built once per
    (p, a) and cached.  Any hit is an integral model with discriminant
    valuation smaller by 12, so the first round decides the verdict.
    Before any of that, the p + 1 residues of Sym^2 mod p are paired: every
    weight pair needs the entries (0, 0), (0, 1), (1, 0) and (1, 1) to
    vanish mod p, so class pairs whose residues leave one of them nonzero
    are skipped, and a form with no residue pair left is minimal at once.
    Only pairs that cannot pass are skipped, so the search stays exhaustive
    and returns what the unfiltered one returns (see `_oracle_reducer`).
    Restricted to small primes by cost.  Refusals come in the order kind,
    prime, Delta = 0, integrality: a non-integral model's Delta = 0 is
    decided on its primitive integral multiple (`refuse_non_integral`).
    """
    if F.kind != "form22":
        raise UnsupportedModelError(
            f"the minimality oracle works on form22 models, got {F.kind}")
    p = as_context(ctx).p
    if p > ORACLE_PRIME_BOUND:
        raise RefusedInputError(f"oracle limited to p <= {ORACLE_PRIME_BOUND}")
    checked_invariants(F)
    return _oracle_reducer(F, p) is None
