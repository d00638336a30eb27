"""Level-zero constructions, degree conversions, critical-model sampling,
the admissible-weight census, and the brute-force minimality oracle for
(2,2)-forms.

Everything random takes an explicit random.Random (or a seed), so acceptance
runs are reproducible.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import random

import numpy as np

from .exactnum import LocalContext, identity_matrix, valuation
from .invariants import discriminant
from .models import SPECS, Cube, GroupElement, Hypercube, TwoTwoForm, act, is_integral
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
        raise ValueError("the marked curve is singular")
    return TwoTwoForm(((a4, a3, 0), (a2, a1, -1), (1, 0, 0)))


def construct_cube(a1, a2, a3, a4):
    """A 3x3x3 cube with the same discriminant as marked_curve(a1..a4)."""
    E = marked_curve(a1, a2, a3, a4)
    if E.disc == 0:
        raise ValueError("the marked curve is singular")
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
    points ((0:0:1), (0:0:1)); the discriminant is preserved exactly.

    The caller is responsible for moving a rational point of the cube's
    curve into that position by unimodular changes first.
    """
    s = S.entries
    for i in range(3):
        if s[2][2][i] != 0:
            raise ValueError("the bilinear forms do not vanish at ((0:0:1),(0:0:1))")
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


def convert_2to3(F):
    """The cube of a (2,2)-form vanishing at ((1:0), (1:0)) (a11 = 0); the
    discriminant is preserved exactly."""
    a = F.rows
    if a[0][0] != 0:
        raise ValueError("((1:0),(1:0)) is not on the curve: a11 != 0")
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

# the 4x4 layout pairs row r with (i, k) and column c with (j, l)
_HYPER_ROW = ((0, 0), (1, 0), (0, 1), (1, 1))


def _draw(spec, p, rng):
    v, flag = spec
    if flag == _GE:
        while rng.randrange(p) == 0:
            v += 1
    unit = rng.randrange(1, p)
    sign = rng.choice((1, -1))
    return sign * unit * p ** v


def critical_model(kind, ctx, seed_or_rng=0, max_tries=200):
    """A pseudorandom nonsingular model matching the critical valuation
    pattern at the context prime (p >= 5): minimal yet of positive level."""
    ctx = LocalContext(ctx) if isinstance(ctx, int) else ctx
    p = ctx.p
    if p < 5:
        raise ValueError("critical patterns are stated for p >= 5")
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
            raise ValueError(f"no critical pattern for kind {kind!r}")
        if discriminant(m) != 0:
            return m
    raise RuntimeError("failed to sample a nonsingular critical model")


# ---------------------------------------------------------------------------
# level inflation: integral moves that raise the level (for round-trip tests)


def _random_unimodular(n, rng, bound=2):
    m = [list(r) for r in identity_matrix(n)]
    for _ in range(n + rng.randrange(3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-bound, bound)
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.randrange(2):
        m.reverse()
    return tuple(tuple(r) for r in m)


def inflate(m, ctx, seed_or_rng, moves=3):
    """Apply integral level-raising moves: random unimodular conjugation
    followed by a scalar-p or diagonal-p stretch.  Returns (model, element)."""
    ctx = LocalContext(ctx) if isinstance(ctx, int) else ctx
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


@lru_cache(maxsize=None)
def _weight_candidates(s):
    # cached; callers must treat the returned array as read-only
    total = 3 * s - 1

    def parts(tot, n):
        if n == 1:
            yield (tot,)
            return
        for first in range(tot + 1):
            for rest in parts(tot - first, n - 1):
                yield (first,) + rest

    return np.array(list(parts(total, 6)), dtype=np.int64)


@lru_cache(maxsize=1)
def enumerate_minimal_weights():
    """All minimal admissible-weight classes (there are exactly 81).

    Weights are compared through their clamped deficiency vectors; a weight is
    minimal when no other weight's vector is componentwise <= with some strict
    drop.  Returns WeightTuples sorted by (s, entries).
    """
    vec_blocks, tup_blocks = [], []
    for s in range(1, WEIGHT_SCALE_BOUND + 1):
        tups = _weight_candidates(s)
        n = len(tups)
        cols = []
        for c in range(3):
            col = np.zeros((n, 3), dtype=np.int64)
            col[:, 1] = tups[:, 2 * c]
            col[:, 2] = tups[:, 2 * c + 1]
            cols.append(col)
        D = s - cols[0][:, :, None, None] - cols[1][:, None, :, None] - cols[2][:, None, None, :]
        np.maximum(D, 0, out=D)
        vec_blocks.append(D.reshape(n, 27))
        tup_blocks.append(np.hstack([tups, np.full((n, 1), s, dtype=np.int64)]))
    vecs = np.vstack(vec_blocks)
    tups = np.vstack(tup_blocks)
    uniq, first = np.unique(vecs, axis=0, return_index=True)
    reps = tups[first]
    sums = uniq.sum(axis=1)
    minimal = []
    kept = np.zeros((0, 27), dtype=np.int64)
    for total in np.unique(sums):
        grp = sums == total
        block, block_reps = uniq[grp], reps[grp]
        if len(kept):
            dominated = (kept[None, :, :] <= block[:, None, :]).all(axis=2).any(axis=1)
        else:
            dominated = np.zeros(len(block), dtype=bool)
        survivors = block[~dominated]
        for rep in block_reps[~dominated]:
            minimal.append(WeightTuple(tuple(int(x) for x in rep[:6]), int(rep[6])))
        if len(survivors):
            kept = np.vstack([kept, survivors])
    return tuple(sorted(minimal, key=lambda w: (w.s, w.entries)))


def symmetric_minimal_weights():
    """The minimal weights surviving the slicing-symmetry normalisation."""
    return tuple(w for w in enumerate_minimal_weights() if w.is_symmetric())


# ---------------------------------------------------------------------------
# exhaustive minimality oracle for (2,2)-forms

ORACLE_WEIGHT_PAIRS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2))
ORACLE_PRIME_BOUND = 5


def _lift_primitive_mod(vec, modulus, p):
    """Lift a vector that is primitive mod p to a gcd-one integer vector
    congruent to it mod `modulus` (a power of p)."""
    from math import gcd

    lifted = [int(x) % modulus for x in vec]
    g = 0
    for x in lifted:
        g = gcd(g, x)
    if g == 1:
        return tuple(lifted)
    j = next(i for i, x in enumerate(lifted) if x % p)
    for k in range(len(lifted)):
        if k != j:
            cand = list(lifted)
            cand[k] += modulus
            gg = 0
            for x in cand:
                gg = gcd(gg, x)
            if gg == 1:
                return tuple(cand)
    raise AssertionError("failed to lift a primitive vector")


def _stretch_classes(p, a):
    """Unimodular matrices representing every first-row direction in
    P^1(Z/p^a); the diagonal stretch diag(1, p^a) only sees that direction."""
    if a == 0:
        return (((1, 0), (0, 1)),)
    from .exactnum import complete_primitive_row

    q = p ** a
    reps = [(1, t) for t in range(q)] + [(p * s, 1) for s in range(q // p)]
    return tuple(complete_primitive_row(_lift_primitive_mod(w, q, p)) for w in reps)


def _oracle_reducer(F, p):
    """A substitution pair (U, V) and weight pair making the stretched form
    integral (hence of smaller discriminant valuation), or None.

    For the weight pair (a, b) the stretched form's integrality depends on
    the unimodular pre-substitutions only through their first-row directions
    in P^1(Z/p^a) x P^1(Z/p^b) (row operations congruent to lower-triangular
    mod p^a conjugate through the stretch integrally), so those classes are
    enumerated exhaustively.  Residues mod p alone would miss reducers for
    the pairs (2, 1) and (1, 2).
    """
    from .exactnum import mat_mul
    from .models import sym_power_matrix

    rows = F.rows
    classes = {k: _stretch_classes(p, k) for k in (0, 1, 2)}
    syms = {k: [sym_power_matrix(U, 2) for U in classes[k]] for k in (0, 1, 2)}
    for a, b in ORACLE_WEIGHT_PAIRS:
        thresholds = [(r, c, a * (1 - r) + b * (1 - c) + 1)
                      for r in range(3) for c in range(3)
                      if a * (1 - r) + b * (1 - c) + 1 > 0]
        for iu, U in enumerate(classes[a]):
            left = mat_mul(syms[a][iu], rows)
            for iv, V in enumerate(classes[b]):
                sv = tuple(tuple(syms[b][iv][c][r] for c in range(3)) for r in range(3))
                m = mat_mul(left, sv)
                if all(valuation(m[r][c], p) >= need for r, c, need in thresholds):
                    return U, V, (a, b)
    return None


def oracle_minimality_22(F, ctx):
    """Exhaustive minimality check for a (2,2)-form, independent of the
    minimisation algorithm.

    Searches every residue substitution pair in GL2(F_p)^2 followed by each
    admissible diagonal weight pair; any hit is an integral model with
    discriminant valuation smaller by 12, so the first round decides the
    verdict.  Restricted to small primes by cost.
    """
    ctx = LocalContext(ctx) if isinstance(ctx, int) else ctx
    p = ctx.p
    if p > ORACLE_PRIME_BOUND:
        raise ValueError(f"oracle limited to p <= {ORACLE_PRIME_BOUND}")
    if not is_integral(F):
        raise ValueError("model must be integral")
    if discriminant(F) == 0:
        raise ValueError("singular model")
    return _oracle_reducer(F, p) is None
