"""Integral Weierstrass equations and their points, local minimal models,
kappa of a marked point, and the level of a genus-one model.

Curves hold ints: a change of coordinates lands on an integral curve or
gives None, as `models.act` does; only a point handed to `kappa` may be
rational, and kappa reads it through valuations.

The local minimal model at any prime p comes from one loop, Laska's descent
(M. Laska, Math. Comp. 38, 1982): while a change of coordinates with u = p
lands on an integral model, take it.  Integrality of a1', a2' and a3' fixes
s mod p, r mod p^2 and t mod p^3, each up to p choices where p divides its
coefficient 2 or 3, so a pass tries one candidate at p >= 5, at most 4 at
p = 2 and 3 at p = 3.

The level of an integral nonsingular model m with Jacobian data (E, P) is the
integer l >= 0 in

    v(Delta(m)) = v(Delta_min(E)) + 12 kappa(P) + 12 l,

where kappa(P) = 0 if P is integral on a minimal model of E and kappa(P) = r
if v(x_P) = -2r there.  Hypercubes carry three marked points and use the max
of their kappas.  `level` runs one descent, on the first point's model E,
and carries every point onto E; kappa on E's minimal model is kappa on the
point's own, since minimal models differ by integral changes of coordinates.
"""

from collections import namedtuple

from .exactnum import as_context, valuation
from .invariants import _exact_div, cube_invariants, form22_invariants, hypercube_invariants
from .models import SingularModelError, UnsupportedModelError


class WeierstrassCurve(namedtuple("WeierstrassCurve", "a1 a2 a3 a4 a6")):
    __slots__ = ()

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

    def rhs(self, x):
        return x ** 3 + self.a2 * x * x + self.a4 * x + self.a6


class Point(namedtuple("Point", "x y")):
    """An affine point (x, y); the library never needs the point at infinity.
    A point is not a sequence: it does not iterate."""

    __slots__ = ()
    __iter__ = None

    def __getnewargs__(self):
        # pickle and copy: namedtuple's own version iterates the point
        return self.x, self.y


def on_curve(E, P):
    x, y = P.x, P.y
    return y * y + E.a1 * x * y + E.a3 * y == E.rhs(x)


class CurveMap(namedtuple("CurveMap", "u r s t")):
    """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t, of ints.

    The descent builds its maps with u a power of p.  `apply` divides the
    transformed a-invariants by u, u^2, u^3, u^4 and u^6 in one divmod pass,
    and gives None when the image is not integral."""

    __slots__ = ()

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
        qs, rems = zip(*map(divmod, (a1, a2, a3, a4, a6), (u, u ** 2, u ** 3, u ** 4, u ** 6)))
        return None if any(rems) else WeierstrassCurve(*qs)

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


def _congruence_roots(c, b, p, k):
    """The x mod p^k with c x = b (mod p^k), for c = 2 or 3: one when p does
    not divide c; else the p lifts of b/p mod p^(k-1), which solve it when
    p | b.  `minimal_model`'s guard ensures that (p^4 | c4 gives 2 | a1 at
    p = 2 and 3 | b2 at p = 3, and 2^6 | c6 gives 2 | a3); were it not so,
    no candidate built on these lifts would land integrally."""
    q = p ** k
    if c % p:
        return [b * pow(c, -1, q) % q]
    return [b // p % (q // p) + j * (q // p) for j in range(c)]  # here p = c


def _landings_by_p(E, p):
    """(CurveMap(p, r, s, t), image) for each s mod p, r mod p^2 and t mod p^3
    whose image is integral.  These classes suffice, because following a map
    by an integral translation keeps its image integral.  a1', a2' and a3' are
    integral exactly when a1 + 2s = 0 (mod p), 3r = s^2 + a1 s - a2 (mod p^2)
    and 2t = -(a3 + r a1) (mod p^3): one candidate at p >= 5, at most 4 at
    p = 2 and 3 at p = 3, each checked in full."""
    for s in _congruence_roots(2, -E.a1, p, 1):
        for r in _congruence_roots(3, s * s + E.a1 * s - E.a2, p, 2):
            for t in _congruence_roots(2, -(E.a3 + r * E.a1), p, 3):
                step = CurveMap(p, r, s, t)
                image = step.apply(E)
                if image is not None:
                    yield step, image


def minimal_model(E, ctx):
    """Local minimal model at the context prime p.  Returns (E_min, CurveMap,
    v(disc_min)), the map holding ints with u a power of p.  Refusals come in
    the order prime, disc = 0, integrality.

    Laska's descent (Math. Comp. 38, 1982), the same at every prime: take a
    u = p step while one lands on an integral model.  A model with one is not
    minimal; a model without one is, since a map to a minimal model with
    u = p^k, k >= 1, is such a step followed by a rescaling.  A u = p image
    keeps c4/p^4, c6/p^6 and disc/p^12 integral, so a step is sought only
    when p^4 | c4, p^6 | c6 and p^12 | disc; at p >= 5 these suffice, and the
    one candidate lands.
    """
    p = as_context(ctx).p
    disc = E.disc
    if disc == 0:
        raise ValueError("singular curve")
    if any(type(a) is not int for a in E.a_invariants()):
        raise ValueError("curve must be integral")
    total = CurveMap.identity()
    while E.c4 % p ** 4 == 0 and E.c6 % p ** 6 == 0 and disc % p ** 12 == 0:
        landing = next(_landings_by_p(E, p), None)
        if landing is None:
            break
        step, E = landing
        total, disc = total.then(step), disc // p ** 12
    return E, total, valuation(disc, p)


# kept while perfbench/ binds it (ROADMAP item 1)
def minimal_discriminant_valuation(E, ctx):
    """(v(disc_min), CurveMap) at the context prime."""
    _, cmap, v = minimal_model(E, ctx)
    return v, cmap


# kept while perfbench/ binds it (ROADMAP item 1)
def kappa(P, E, ctx):
    """kappa of a point: denominator depth of P on a local minimal model."""
    ctx = as_context(ctx)
    if not on_curve(E, P):
        raise ValueError("point not on curve")
    if E.disc == 0:
        raise ValueError("singular curve")
    return _kappa_on_minimal(P, minimal_model(E, ctx)[1], ctx.p)


def _kappa_on_minimal(P, cmap, p):
    """kappa of P, given a CurveMap from P's curve to a minimal model: with
    k = v(u), P's image there has valuations v(x - r) - 2k, v(y - s(x - r) - t) - 3k."""
    k = valuation(cmap.u, p)
    dx = P.x - cmap.r
    vx = valuation(dx, p) - 2 * k
    vy = valuation(P.y - cmap.s * dx - cmap.t, p) - 3 * k
    if vx >= 0 and vy >= 0:
        return 0
    if not (vx < 0 and vx % 2 == 0 and vy == 3 * (vx // 2)):
        raise AssertionError("point denominators are not (-2r, -3r)")
    return -(vx // 2)


class LevelReport(namedtuple("LevelReport", "v_disc v_disc_min kappa level")):
    __slots__ = ()


# the InvariantSets of a model kind, one per marked point
_MARKED_INVARIANTS = {
    "form22": lambda m: [form22_invariants(m)],
    "cube": lambda m: [cube_invariants(m)],
    "hypercube": lambda m: list(hypercube_invariants(m).pair_invariants),
}


def level(m, ctx):
    """LevelReport of a nonsingular (2,2)-form, cube or hypercube.  Refusals
    come in the order kind, prime, Delta = 0.  Each marked point, of
    invariants (u, v), is carried onto the first point's model E as
    x = (u - b2)/12, y = (v - a1 x - a3)/2, in ints: exactly E's (xi, eta)
    for the first point, and for a hypercube's other two the numerators are
    divisible by 12 and 2 as polynomials in its 16 entries."""
    marked = _MARKED_INVARIANTS.get(m.kind)
    if marked is None:
        raise UnsupportedModelError(f"level is not defined for kind {m.kind}")
    ctx = as_context(ctx)
    p = ctx.p
    invs = marked(m)
    if invs[0].disc == 0:
        raise SingularModelError("singular model")
    v_disc = valuation(invs[0].disc, p)
    E = WeierstrassCurve(*invs[0].a_invariants)
    _, cmap, v_min = minimal_model(E, ctx)
    carried = (Point(x, _exact_div(inv.v - E.a1 * x - E.a3, 2, "carried point y"))
               for inv in invs for x in (_exact_div(inv.u - E.b2, 12, "carried point x"),))
    kap = max(_kappa_on_minimal(P, cmap, p) for P in carried)
    lvl, rem = divmod(v_disc - v_min - 12 * kap, 12)
    if rem or lvl < 0:
        raise AssertionError("level decomposition failed")
    return LevelReport(v_disc, v_min, kap, lvl)
