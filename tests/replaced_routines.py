"""The routines g1min replaced by machinery it already had.

These are the library's routines as they were before each job came to be
done one way: `convert_3to2` expanding det(L | M | N) through dictionaries
of bidegree-keyed coefficients over the six signed permutations;
`critical_model` with one branch per kind, assembling the hypercube from its
4x4 pattern layout through nested lists; the local minimal model at
p >= 5 in closed form, which one u = p descent at every prime replaced (the
closed form is the reference at primes far beyond an exhaustive search); and
`level` with one descent per marked point, each on the point's own model,
which one descent on the first point's model replaced.  They read the
library's pattern tables, draw helper and descent at call time, and serve
only as the reference the differential tests compare the library against.
"""

from g1min.construct import (
    _CRITICAL_22, _CRITICAL_CUBE, _CRITICAL_HYPER, _draw, _rng,
)
from g1min.exactnum import RefusedInputError, as_context, valuation
from g1min.invariants import discriminant, refuse_non_integral
from g1min.models import (
    Cube, Hypercube, SingularModelError, TwoTwoForm, UnsupportedModelError, is_integral,
)
from g1min.weierstrass import (
    _MARKED_INVARIANTS, CurveMap, LevelReport, Point, WeierstrassCurve, _kappa_on_minimal,
    tate_minimal,
)


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
    if not E.is_integral():
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
    if not E_min.is_integral():
        raise AssertionError("the closed-form minimal model is not integral")
    return E_min, cmap, v_disc - 12 * k


def level(m, ctx):
    """LevelReport of an integral nonsingular (2,2)-form, cube or hypercube.
    Refusals come in the order kind, prime, Delta = 0, integrality."""
    marked = _MARKED_INVARIANTS.get(m.kind)
    if marked is None:
        raise UnsupportedModelError(f"level is not defined for kind {m.kind}")
    p = as_context(ctx).p
    if not is_integral(m):
        refuse_non_integral(m)
    invs = marked(m)
    disc = invs[0].disc
    if disc == 0:
        raise SingularModelError("singular model")
    v_disc = valuation(disc, p)
    kappas = []
    v_min = None
    for inv in invs:
        E, P = WeierstrassCurve(*inv.a_invariants), Point(inv.xi, inv.eta)
        _, cmap, vm = tate_minimal(E, p)
        v_min = vm if v_min is None else v_min
        if vm != v_min:
            raise AssertionError("paired Jacobians disagree on the minimal discriminant")
        kappas.append(_kappa_on_minimal(P, cmap, p))
    kap = max(kappas)
    lvl, rem = divmod(v_disc - v_min - 12 * kap, 12)
    if rem or lvl < 0:
        raise AssertionError("level decomposition failed")
    return LevelReport(v_disc, v_min, kap, lvl)
