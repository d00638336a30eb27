"""The exact rational group law on a Weierstrass curve in long form.

g1min has no use for it: kappa and the level read a marked point's
denominators, never a sum.  The tests use it to make points whose kappa
they know (the multiples of an integral point) and to check that the three
marked points of a hypercube sum to zero.  The library's `Point` is affine
only, so the group law keeps its own point at infinity, `IDENTITY` (None).
"""

from fractions import Fraction

from g1min import Point, on_curve

IDENTITY = None  # the point at infinity, the zero of the group law


def point_neg(E, P):
    if P is IDENTITY:
        return P
    x, y = Fraction(P.x), Fraction(P.y)
    return Point(x, -y - E.a1 * x - E.a3)


def point_add(E, P, Q):
    """Exact rational addition on a Weierstrass curve in long form."""
    if any(R is not IDENTITY and not on_curve(E, R) for R in (P, Q)):
        raise ValueError("point not on curve")
    if P is IDENTITY:
        return Q
    if Q is IDENTITY:
        return P
    x1, y1 = Fraction(P.x), Fraction(P.y)
    x2, y2 = Fraction(Q.x), Fraction(Q.y)
    if x1 == x2:
        if y2 == -y1 - E.a1 * x1 - E.a3:
            return IDENTITY
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
    R = IDENTITY
    while n:
        if n & 1:
            R = point_add(E, R, P)
        P = point_add(E, P, P)
        n >>= 1
    return R
