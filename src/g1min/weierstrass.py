"""Integral Weierstrass equations, the exact group law, local minimal models,
kappa of a marked point, and the level of a genus-one model.

At p >= 5 the local minimal model has a closed form: the model is
non-minimal exactly when p^4 | c4 and p^6 | c6, and completing the square
and the cube with u = p^k reaches the minimal one.  At p = 2 and 3 Tate's
algorithm walks the reduction types, each step by formula (Cremona, Algorithms
for Modular Elliptic Curves, 3.2) or by F_p root finding.  By Ogg's formula
it needs no exit for types II, III and IV, and only p = 2 reaches I0* or IV*.

The level of an integral nonsingular model m with Jacobian data (E, P) is the
integer l >= 0 in

    v(Delta(m)) = v(Delta_min(E)) + 12 kappa(P) + 12 l,

where kappa(P) = 0 if P is integral on a minimal model of E and kappa(P) = r
if v(x_P) = -2r there.  Hypercubes carry three marked points and use the max
of their kappas.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import as_context, fp_inv, fp_poly_roots, quotient, valuation
from .invariants import (
    cube_invariants, form22_invariants, hypercube_invariants, refuse_non_integral,
)
from .models import SingularModelError, UnsupportedModelError, is_integral


@dataclass(frozen=True)
class WeierstrassCurve:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    @property
    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self):
        return self.a1 * self.a3 + 2 * self.a4

    @property
    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self):
        return (self.a1 * self.a1 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 * self.a3
                - self.a4 * self.a4)

    @property
    def c4(self):
        return self.b2 * self.b2 - 24 * self.b4

    @property
    def c6(self):
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @property
    def disc(self):
        return (-self.b2 * self.b2 * self.b8 - 8 * self.b4 ** 3
                - 27 * self.b6 * self.b6 + 9 * self.b2 * self.b4 * self.b6)

    def a_invariants(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def is_integral(self):
        return all(type(a) is not Fraction for a in self.a_invariants())

    def rhs(self, x):
        return x ** 3 + self.a2 * x * x + self.a4 * x + self.a6


@dataclass(frozen=True)
class Point:
    """Affine point or the point at infinity (x = y = None)."""

    x: object = None
    y: object = None

    @classmethod
    def infinity(cls):
        return cls(None, None)

    @property
    def is_infinity(self):
        return self.x is None

    def __iter__(self):
        return iter((self.x, self.y))


def on_curve(E, P):
    if P.is_infinity:
        return True
    x, y = P.x, P.y
    return y * y + E.a1 * x * y + E.a3 * y == E.rhs(x)


def point_neg(E, P):
    if P.is_infinity:
        return P
    x, y = Fraction(P.x), Fraction(P.y)
    return Point(x, -y - E.a1 * x - E.a3)


def point_add(E, P, Q):
    """Exact rational addition on a Weierstrass curve in long form."""
    if not on_curve(E, P) or not on_curve(E, Q):
        raise ValueError("point not on curve")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    x1, y1 = Fraction(P.x), Fraction(P.y)
    x2, y2 = Fraction(Q.x), Fraction(Q.y)
    if x1 == x2:
        if y2 == -y1 - E.a1 * x1 - E.a3:
            return Point.infinity()
        lam = (3 * x1 * x1 + 2 * E.a2 * x1 + E.a4 - E.a1 * y1) / (2 * y1 + E.a1 * x1 + E.a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + E.a1 * lam - E.a2 - x1 - x2
    y3 = -(lam + E.a1) * x3 - nu - E.a3
    return Point(x3, y3)


def point_double(E, P):
    return point_add(E, P, P)


def point_mul(E, n, P):
    if n < 0:
        return point_mul(E, -n, point_neg(E, P))
    R = Point.infinity()
    while n:
        if n & 1:
            R = point_add(E, R, P)
        P = point_add(E, P, P)
        n >>= 1
    return R


@dataclass(frozen=True)
class CurveMap:
    """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    Tate's walk builds its maps from ints, with u a power of p; a caller may
    pass Fractions.  `apply` and `apply_point` divide exactly, so an int
    curve or point stays int wherever the division by the power of u leaves
    no remainder."""

    u: int
    r: int
    s: int
    t: int

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 0)

    def apply(self, E):
        u, r, s, t = self.u, self.r, self.s, self.t
        a1 = E.a1 + 2 * s
        a2 = E.a2 - s * E.a1 + 3 * r - s * s
        a3 = E.a3 + r * E.a1 + 2 * t
        a4 = E.a4 - s * E.a3 + 2 * r * E.a2 - (t + r * s) * E.a1 + 3 * r * r - 2 * s * t
        a6 = E.a6 + r * E.a4 + r * r * E.a2 + r ** 3 - t * E.a3 - t * t - r * t * E.a1
        return WeierstrassCurve(*(quotient(a, u ** w)
                                  for a, w in zip((a1, a2, a3, a4, a6), (1, 2, 3, 4, 6))))

    def apply_point(self, P):
        if P.is_infinity:
            return P
        u, r, s, t = self.u, self.r, self.s, self.t
        x, y = P.x, P.y
        return Point(quotient(x - r, u ** 2), quotient(y - s * (x - r) - t, u ** 3))

    def then(self, other):
        """The map applying self first, then other."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return CurveMap(
            u1 * u2,
            r1 + u1 * u1 * r2,
            s1 + u1 * s2,
            t1 + u1 * u1 * r2 * s1 + u1 ** 3 * t2,
        )


def _fp_quadratic_roots(a, b, p):
    """Roots of Y^2 + a Y + b over F_p, ascending, a double root once."""
    return [y for y, _ in fp_poly_roots([b, a, 1], p)]


def _fp_cubic_roots(a, b, c, p):
    """Roots with multiplicity of T^3 + a T^2 + b T + c over F_p, ascending."""
    return fp_poly_roots([c, b, a, 1], p)


def _singular_point_mod_p(E, p):
    """The singular point of the reduction mod p (it exists when p | disc).

    At p = 2 the partials are a1 y + x^2 + a4 and a1 x + a3 mod 2.  For p
    odd, (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, so the point is
    (x0, -(a1 x0 + a3)/2) with x0 the multiple root of the cubic: at p = 3
    -b2 b4 when 3 does not divide b2, else -b6, as the cubic is (x + b6)^3;
    at p >= 5, as X = 36x + 3 b2 gives X^3 - 27 c4 X - 54 c6, the triple
    root X = 0 when p | c4, else the double root X = -3 c6/c4.
    """
    if p == 2:
        if E.a1 % 2:
            x = E.a3 % 2
            y = (x + E.a4) % 2
        else:
            x = E.a4 % 2
            y = (x * (1 + E.a2 + E.a4) + E.a6) % 2
    else:
        if p == 3:
            x = -E.b6 if E.b2 % 3 == 0 else -E.b2 * E.b4
        elif E.c4 % p == 0:
            x = -E.b2 * fp_inv(12, p)
        else:
            x = -(E.c6 + E.b2 * E.c4) * fp_inv(12 * E.c4, p)
        x %= p
        y = -(E.a1 * x + E.a3) * fp_inv(2, p) % p
    if any(v % p for v in (y * y + E.a1 * x * y + E.a3 * y - E.rhs(x), 2 * y + E.a1 * x + E.a3,
                           E.a1 * y - 3 * x * x - 2 * E.a2 * x - E.a4)):
        raise AssertionError("the reduction mod p is not singular at the closed-form point")
    return x, y


def _step6_normalize(E, p):
    """Translation making p | a1, a2; p^2 | a3, a4; p^3 | a6.  At p = 2,
    where 2 | a1 and 4 | a3 already, s = a2 mod 2 and t = 2 ((a6/4) mod 2)
    clear a2 and a6 - t a3 - t^2 mod 8; for p odd, one map with s = -a1/2
    mod p and t = -a3/2 mod p^2, since the s-translation leaves a3 as it is."""
    if p == 2:
        m = CurveMap(1, 0, E.a2 % 2, 2 * (E.a6 // 4 % 2))
    else:
        m = CurveMap(1, 0, -E.a1 * fp_inv(2, p) % p, -E.a3 * fp_inv(2, p * p) % (p * p))
    cand = m.apply(E)
    if not (cand.a1 % p == 0 and cand.a2 % p == 0 and cand.a3 % p ** 2 == 0
            and cand.a4 % p ** 2 == 0 and cand.a6 % p ** 3 == 0):
        raise AssertionError("step-6 normalisation failed")
    return m


def tate_minimal(E, p):
    """Local minimal model at p.  Returns (E_min, CurveMap, v(disc_min)),
    the map holding ints with u a power of p.

    At p >= 5 in closed form (Tate 1975; Silverman, AEC VII, Exercise 7.1):
    with k = min(v(c4) // 4, v(c6) // 6) over the nonzero invariants, E is
    minimal when k = 0, and otherwise u = p^k with the completing
    translation r = -b2/12, s = -a1/2, t = -a3/2 + a1 b2/24 reaches the
    minimal model.  Each transformed numerator is an integer polynomial in
    r, s and t, so taking them mod p^(6k) keeps it divisible by p^(wk) for
    every weight w <= 6.  At p = 2 and 3, Tate's walk.
    """
    if p < 5:
        return _tate_walk(E, p)
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


def _tate_walk(E, p):
    """Tate's walk at any prime.  Returns (E_min, CurveMap, v(disc_min)).

    Every exit but the final u = p rescaling is minimal.  No minimal curve
    of type II, III or IV has v(disc) >= 12, where the types are tested, so
    they have no exit: by the Ogg-Saito formula v(disc_min) = f + m - 1
    (Ogg 1967; Saito 1988 at p = 2), with m <= 3 components and f <= 8 at 2,
    5 at 3 and 2 at p >= 5, v(disc_min) <= 10.  Were one reached, the step-6
    check would raise: the s, t translation keeps b6, b8 and a6 mod p^2, and
    the check implies p^3 | a6, b6, b8.  I0* (m = 5) and IV* (m = 7) are
    ruled out likewise except at p = 2.  `tate_minimal` takes the walk at
    p = 2 and 3; at p >= 5 it is the closed form's test oracle.
    """
    if E.disc == 0:
        raise ValueError("singular curve")
    if not E.is_integral():
        raise ValueError("curve must be integral")
    total = CurveMap.identity()
    cur = E
    while True:
        n = valuation(cur.disc, p)
        if n < 12:
            return cur, total, n
        # move the singular point of the reduction to (0, 0)
        x0, y0 = _singular_point_mod_p(cur, p)
        m = CurveMap(1, x0, 0, y0)
        cur = m.apply(cur)
        total = total.then(m)
        if cur.b2 % p != 0:  # multiplicative reduction: type I_n, minimal
            return cur, total, n
        m = _step6_normalize(cur, p)
        cur = m.apply(cur)
        total = total.then(m)
        # P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3) mod p
        roots = _fp_cubic_roots(cur.a2 // p, cur.a4 // p ** 2, cur.a6 // p ** 3, p)
        mults = sorted(mult for _, mult in roots)
        if all(mult == 1 for _, mult in roots):  # type I0*
            return cur, total, n
        if mults[-1] == 2:  # type I_m*: subprocedure, always minimal
            r0 = next(t for t, mult in roots if mult == 2)
            m = CurveMap(1, p * r0, 0, 0)
            cur = m.apply(cur)
            total = total.then(m)
            cur, total = _type_istar_tail(cur, total, p)
            return cur, total, n
        # triple root
        r0 = roots[0][0]
        m = CurveMap(1, p * r0, 0, 0)
        cur = m.apply(cur)
        total = total.then(m)
        ys = _fp_quadratic_roots(cur.a3 // p ** 2, -(cur.a6 // p ** 4), p)
        if len(ys) == 2 or not ys:  # type IV*
            return cur, total, n
        m = CurveMap(1, 0, 0, p * p * ys[0])
        cur = m.apply(cur)
        total = total.then(m)
        if valuation(cur.a4, p) < 4:  # type III*
            return cur, total, n
        if valuation(cur.a6, p) < 6:  # type II*
            return cur, total, n
        # non-minimal: rescale by u = p and restart
        m = CurveMap(p, 0, 0, 0)
        cur = m.apply(cur)
        if not cur.is_integral():
            raise AssertionError("rescaling by u = p left a non-integral curve")
        total = total.then(m)


def _type_istar_tail(cur, total, p):
    """The I_m* ping-pong: translate until a separable quadratic appears."""
    q = 1
    while True:
        # quadratic in Y: Y^2 + (a3 / p^(q+1)) Y - a6 / p^(2q+2)
        a3q = cur.a3 // p ** (q + 1)
        a6q = cur.a6 // p ** (2 * q + 2)
        ys = _fp_quadratic_roots(a3q, -a6q, p)
        if len(ys) == 2 or not ys:
            return cur, total
        m = CurveMap(1, 0, 0, ys[0] * p ** (q + 1))
        cur = m.apply(cur)
        total = total.then(m)
        # quadratic in X: (a2/p) X^2 + (a4/p^(q+2)) X + a6/p^(2q+3)
        a2q = cur.a2 // p
        a4q = cur.a4 // p ** (q + 2)
        a6q = cur.a6 // p ** (2 * q + 3)
        inv = fp_inv(a2q, p)
        xs = _fp_quadratic_roots(a4q * inv, a6q * inv, p)
        if len(xs) == 2 or not xs:
            return cur, total
        m = CurveMap(1, xs[0] * p ** (q + 1), 0, 0)
        cur = m.apply(cur)
        total = total.then(m)
        q += 1


def minimal_discriminant_valuation(E, ctx):
    """(v(disc_min), CurveMap) at the context prime."""
    ctx = as_context(ctx)
    _, cmap, v = tate_minimal(E, ctx.p)
    return v, cmap


def kappa(P, E, ctx):
    """kappa of a point: denominator depth of P on a local minimal model."""
    ctx = as_context(ctx)
    if P.is_infinity:
        raise ValueError("kappa is undefined at the identity")
    if not on_curve(E, P):
        raise ValueError("point not on curve")
    if E.disc == 0:
        raise ValueError("singular curve")
    return _kappa_on_minimal(P, tate_minimal(E, ctx.p)[1], ctx.p)


def _kappa_on_minimal(P, cmap, p):
    """kappa of P, given the CurveMap of Tate's walk from P's curve."""
    Pm = cmap.apply_point(P)
    vx = valuation(Pm.x, p)
    vy = valuation(Pm.y, p)
    if vx >= 0 and vy >= 0:
        return 0
    if not (vx < 0 and vx % 2 == 0 and vy == 3 * (vx // 2)):
        raise AssertionError("point denominators are not (-2r, -3r)")
    return -(vx // 2)


@dataclass(frozen=True)
class LevelReport:
    v_disc: int
    v_disc_min: int
    kappa: int
    level: int


# the InvariantSets of a model kind, one per marked point
_MARKED_INVARIANTS = {
    "form22": lambda m: [form22_invariants(m)],
    "cube": lambda m: [cube_invariants(m)],
    "hypercube": lambda m: list(hypercube_invariants(m).pair_invariants),
}


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
