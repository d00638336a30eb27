"""Residue-field classification of model reductions mod p.

Roots of binary forms over F_p come from polynomial algebra (exactnum's
fp_poly_roots: a gcd with x^p - x, then equal-degree splitting), so the cost
of every classification grows like a power of log p, and no prime is too
large.  The defining equations and partial derivatives are checked directly,
so p = 2 and p = 3 need no special casing, except that a (2,2)-form at p = 2
is checked on the 9 points of P^1(F_2) x P^1(F_2).

The singular point of a ternary cubic without a repeated rational line is read
off binary forms too: from the cofactor of a rational line restricted to that
line, or, without a rational line, from the discriminant of a projection.
Both take their binary forms from one substitution F((x, y, z) A), the
reduced coefficient tuple times `models.sym_power_matrix(A, 3)`, which moves
the line to z = 0 or the centre of projection to (0 : 0 : 1); and a point is
singular when, moved to (0 : 0 : 1), the cubic has no z^3, x z^2 or y z^2
term.  The multiplicity of a coordinate line is the least exponent of its
variable over the cubic's terms, and that of any other line the least
z-exponent after one such substitution moves it to z = 0.
"""

from dataclasses import dataclass
from functools import reduce
from operator import mul

from .exactnum import (
    form_to_last, fp_inv, fp_left_kernel_vector, fp_poly, fp_poly_divmod, fp_poly_roots,
    mat_mul, unimodular_with_row,
)
from .models import CUBIC_MONOMIALS, SPECS, _binary_mul, quartics_of_22, sym_power_matrix


# ---------------------------------------------------------------------------
# binary forms over F_p (coefficient tuples, x1-degree descending)


def binary_roots(coeffs, p):
    """[(point, multiplicity)] over F_p for a nonzero binary form.

    The points are (1 : t) for the roots t of f(1, t), ascending, then (0 : 1),
    whose multiplicity is the number of trailing zero coefficients.
    """
    coeffs = [c % p for c in coeffs]
    if not any(coeffs):
        raise ValueError("zero form")
    out = [((1, t), m) for t, m in fp_poly_roots(coeffs, p)]
    at_infinity = next(i for i, c in enumerate(reversed(coeffs)) if c)
    if at_infinity:
        out.append(((0, 1), at_infinity))
    return out


def _rootless_cofactor(coeffs, roots, p):
    """A nonzero binary form divided by its rational roots, given with their
    multiplicities: f(1, t) divided by every (t - r)^m, up to a unit; its
    coefficient list is the binary form with the same index order.
    """
    cofactor = fp_poly(coeffs, p)
    for (a, t), m in roots:
        if a:
            for _ in range(m):
                cofactor = fp_poly_divmod(cofactor, [-t % p, 1], p)[0]
    return tuple(cofactor)


def _is_square_form(coeffs, p):
    """Whether a rootless binary form is a scalar times the square of a quadratic."""
    d = len(coeffs) - 1
    if d < 2:
        return False
    if d == 2:
        return False  # rootless quadratics are irreducible, hence separable
    if d != 4:
        raise AssertionError(f"rootless binary form of degree {d}")
    if p == 2:
        return coeffs[1] % 2 == 0 and coeffs[3] % 2 == 0
    lead = coeffs[0] % p
    if lead == 0:  # rootless quartics have nonzero ends
        return False
    inv = fp_inv(lead, p)
    m3, m2, m1, m0 = (c * inv % p for c in coeffs[1:])
    inv2 = fp_inv(2, p)
    beta = m3 * inv2 % p
    gamma = (m2 - beta * beta) * inv2 % p
    return (2 * beta * gamma - m1) % p == 0 and (gamma * gamma - m0) % p == 0


def repeated_root(coeffs, p):
    """The unique multiple root of a nonzero binary form over the algebraic
    closure, provided it is F_p-rational; None otherwise."""
    if all(c % p == 0 for c in coeffs):
        raise ValueError("zero form")
    roots = binary_roots(coeffs, p)
    multiple = [pt for pt, m in roots if m >= 2]
    if len(multiple) != 1:
        return None
    if _is_square_form(_rootless_cofactor(coeffs, roots, p), p):
        return None  # extra conjugate double roots
    return multiple[0]


# ---------------------------------------------------------------------------
# (2,2)-forms

TAG_ZERO = "zero"
TAG_PRODUCT_BOTH = "product_both_repeated"
TAG_PRODUCT_ONE = "product_one_repeated"
TAG_PRODUCT_NONE = "product_none_repeated"
TAG_UNIQUE_SINGULAR = "unique_singular_point"
TAG_OTHER = "other"


@dataclass(frozen=True)
class Residue22Class:
    tag: str
    x_root: tuple = None
    y_root: tuple = None
    repeated_side: str = None
    point: tuple = None

    def a_rational_singular_point(self):
        """Some F_p-point of the singular locus, when the tag guarantees one."""
        if self.tag == TAG_UNIQUE_SINGULAR:
            return self.point
        if self.tag == TAG_PRODUCT_BOTH:
            return (self.x_root, self.y_root)
        if self.tag == TAG_PRODUCT_ONE:
            if self.repeated_side == "x":
                return (self.x_root, (1, 0))
            return ((1, 0), self.y_root)
        return None


def _form22_residue_rows(F, p):
    return tuple(tuple(x % p for x in row) for row in F.rows)


_F2_LINE = ((1, 0), (1, 1), (0, 1))  # P^1(F_2)


def _eval_binary(coeffs, pt):
    d = len(coeffs) - 1
    return sum(c * pt[0] ** (d - i) * pt[1] ** i for i, c in enumerate(coeffs))


def _fibre_forms(rows, x):
    """F(x, .) and its four partial derivatives at x, as binary forms in y:
    the two y-partials (linear), F, then the two x-partials (quadratic)."""
    x1, x2 = x
    f, fx1, fx2 = (tuple(sum(rows[r][c] * v[r] for r in range(3)) for c in range(3))
                   for v in ((x1 * x1, x1 * x2, x2 * x2), (2 * x1, x2, 0), (0, x1, 2 * x2)))
    return (2 * f[0], f[1]), (f[1], 2 * f[2]), f, fx1, fx2


def _singular_points_22(F, rows, p):
    """The F_p-points (x, y) of the singular locus of a residue (2,2)-form of
    rank >= 2, x then y in binary_roots order; None when the locus is a curve,
    which has p + 1 rational points.

    The y over a given x are the common roots of F(x, .) and the partials at
    x.  For p odd the candidate x are the multiple roots of
    G1 = F2^2 - 4 F1 F3, where F = F1(x) y1^2 + F2(x) y1 y2 + F3(x) y2^2: the
    discriminant in y vanishes to order 2 under a singular point.  G1 = 0
    means F = c (u(x) y1 + v(x) y2)^2 with u, v independent (rank >= 2), whose
    singular locus is the curve u y1 + v y2 = 0.  For p = 2 every x of
    P^1(F_2) is a candidate.
    """
    if p == 2:
        xs = _F2_LINE
    else:
        g1 = quartics_of_22(F)[0].coeffs
        if all(c % p == 0 for c in g1):
            return None
        xs = [x for x, m in binary_roots(g1, p) if m >= 2]
    pts = []
    for x in xs:
        forms = _fibre_forms(rows, x)
        # some form is nonzero: if all vanished along the fibre over x, then
        # F = m(x)^2 h(y) with m(x) = 0 the fibre, and F would have rank 1
        nonzero = next(f for f in forms if any(c % p for c in f))
        pts += [(x, y) for y, _ in binary_roots(nonzero, p)
                if all(_eval_binary(f, y) % p == 0 for f in forms)]
    return pts


def classify_22_residue(F, ctx):
    """Classify the reduction mod p of a (2,2)-form, with witnesses."""
    p = ctx.p
    rows = _form22_residue_rows(F, p)
    if all(x == 0 for row in rows for x in row):
        return Residue22Class(TAG_ZERO)
    # rank one means f = g(x) h(y): h any nonzero row, g its column scaled
    r0 = next(r for r in range(3) if any(rows[r]))
    c0 = next(c for c in range(3) if rows[r0][c])
    h = rows[r0]
    inv = fp_inv(h[c0], p)
    g = tuple(rows[r][c0] * inv % p for r in range(3))
    if all(rows[r][c] == g[r] * h[c] % p for r in range(3) for c in range(3)):
        xr = repeated_root(g, p)  # g and h are nonzero
        yr = repeated_root(h, p)
        if xr is not None and yr is not None:
            return Residue22Class(TAG_PRODUCT_BOTH, x_root=xr, y_root=yr)
        if xr is not None:
            return Residue22Class(TAG_PRODUCT_ONE, x_root=xr, repeated_side="x")
        if yr is not None:
            return Residue22Class(TAG_PRODUCT_ONE, y_root=yr, repeated_side="y")
        return Residue22Class(TAG_PRODUCT_NONE)
    sing = _singular_points_22(F, rows, p)
    if sing is not None and len(sing) == 1:
        return Residue22Class(TAG_UNIQUE_SINGULAR, point=sing[0])
    return Residue22Class(TAG_OTHER)


# ---------------------------------------------------------------------------
# ternary cubics

TAG_REPEATED_LINE = "repeated_linear_factor"


@dataclass(frozen=True)
class ResidueCubicClass:
    tag: str
    factor: tuple = None  # linear form (l1, l2, l3)
    point: tuple = None   # projective point (a, b, c)


_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _normalised(v, p):
    """The representative of a nonzero vector mod p whose first nonzero entry is 1."""
    inv = fp_inv(next(x for x in v if x % p), p)
    return tuple(x * inv % p for x in v)


def _plane_index(pt, p):
    """The position of a normalised point in the order (1, b, c) by b then c,
    then (0, 1, c) by c, then (0, 0, 1)."""
    a, b, c = pt
    return b * p + c if a else p * p + (c if b else p)


def _cross(a, b):
    """The line through two points, or the point on two lines."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _substituted(f, A, p):
    """The coefficients of f((x, y, z) A) mod p for a cubic's coefficient
    tuple f, in CUBIC_MONOMIALS order:
    x^3, x^2 y, x^2 z, x y^2, x y z, x z^2, y^3, y^2 z, y z^2, z^3."""
    return [sum(map(mul, row, f)) % p for row in sym_power_matrix(A, 3)]


def _linear_factors(f, p):
    """All rational linear factors of a nonzero residue cubic f, a coefficient
    tuple mod p, with multiplicities, in _plane_index's order.

    The multiplicity of a coordinate line is the least exponent of its
    variable over the terms of f, and that of any other line the least
    z-exponent of f moved so that the line becomes z = 0.  With the
    coordinate lines divided out, a rational line factor meets the three
    coordinate lines in rational roots of the restrictions of the cofactor,
    at least two of them distinct (no point lies on all three lines); so the
    lines through two such roots are the only other candidates, and only a
    candidate that meets all three coordinate lines at such roots is moved.
    """
    terms = [(e, c) for e, c in zip(CUBIC_MONOMIALS, f) if c]
    mults = [min(e[var] for e, _ in terms) for var in range(3)]
    deg = 3 - sum(mults)
    points = []
    for var in range(3):
        u, w = (i for i in range(3) if i != var)
        restriction = [0] * (deg + 1)
        for e, c in terms:
            if e[var] == mults[var]:
                restriction[e[w] - mults[w]] = c
        for (s, t), _ in binary_roots(restriction, p):
            pt = [0, 0, 0]
            pt[u], pt[w] = s, t
            points.append(tuple(pt))
    found = set(points)
    lines = dict(zip(_AXES, mults))
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            cross = _cross(a, b)
            if not any(x % p for x in cross):
                continue
            ell = _normalised(cross, p)
            if ell in lines:
                continue
            lines[ell] = 0
            if all(_normalised(_cross(ell, axis), p) in found for axis in _AXES):
                g = _substituted(f, form_to_last(ell, p), p)
                lines[ell] = min(e[2] for e, c in zip(CUBIC_MONOMIALS, g) if c)
    return [(ell, lines[ell]) for ell in sorted(lines, key=lambda ell: _plane_index(ell, p))
            if lines[ell]]


def _is_singular_point(f, pt, p):
    """Whether the curve f = 0 is singular at pt: moved to (0 : 0 : 1), the
    cubic has no z^3, x z^2 or y z^2 term."""
    g = _substituted(f, unimodular_with_row(pt, p, 2), p)
    return not (g[9] or g[5] or g[8])


def _line_singular_point(f, ell, p):
    """The unique singular point of f = ell * q over the algebraic closure,
    for a simple rational line ell; None when there is none or several.

    The singular points are ell meet q and those of q.  They are one point
    exactly when q restricted to ell has a double root, which is that point:
    q is then tangent to ell there, or a line pair with its vertex there.
    Moved so that ell becomes z, f is z q', and q' on z = 0 is the binary form
    of the x^2 z, x y z and y^2 z coefficients.
    """
    A = form_to_last(ell, p)
    g = _substituted(f, A, p)
    roots = binary_roots((g[2], g[4], g[7]), p)
    if [m for _, m in roots] != [2]:
        return None
    (s, t), _ = roots[0]
    return _normalised(mat_mul(((s, t, 0),), A)[0], p)


# P^2(F_3), the four points of y = 0 first.  A cubic without a rational line
# meets y = 0 in at most 3 points, so it is nonzero at one of the first four;
# and only one centre projects it purely inseparably (a triple point on every
# line through it), which happens only at p = 3.
_CENTRES = ((1, 0, 0), (1, 0, 1), (1, 0, 2), (0, 0, 1), (1, 1, 0), (1, 1, 1), (1, 1, 2),
            (1, 2, 0), (1, 2, 1), (1, 2, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2))


def _lineless_singular_point(f, p):
    """The rational singular point of a cubic without a rational line factor,
    or None; it is unique over the algebraic closure.

    Project from a centre O off the curve, moved to (0 : 0 : 1):
    f = a z^3 + b z^2 + c z + d with b, c, d forms in (x, y).  A singular point
    lies on a line through O that meets f in a multiple point, so its (x : y)
    is a root of the discriminant b^2 c^2 - 4 a c^3 - 4 b^3 d - 27 a^2 d^2
    + 18 a b c d, and its z a multiple root of the fibre over that root.
    """
    for centre in _CENTRES:
        A = unimodular_with_row(centre, p, 2)
        g = _substituted(f, A, p)
        a = g[9]
        if not a:
            continue  # the centre lies on the curve
        d, c, b = (g[0], g[1], g[3], g[6]), (g[2], g[4], g[7]), (g[5], g[8])
        terms = [reduce(_binary_mul, forms) for forms in
                 ((b, b, c, c), (c, c, c), (b, b, b, d), (d, d), (b, c, d))]
        weights = (1, -4 * a, -4, -27 * a * a, 18 * a)
        disc = [sum(w * t[n] for w, t in zip(weights, terms)) for n in range(7)]
        if not any(x % p for x in disc):
            continue  # the purely inseparable centre
        for (x, y), _ in binary_roots(disc, p):
            fibre = [_eval_binary(form, (x, y)) for form in (d, c, b)] + [a]
            for z, m in fp_poly_roots(fibre, p):
                pt = _normalised(mat_mul(((x, y, z),), A)[0], p)
                if m >= 2 and _is_singular_point(f, pt, p):
                    return pt
        return None
    raise AssertionError("no projection centre for a cubic without a rational line")


def classify_cubic_residue(F, ctx):
    """Classify the reduction mod p of a ternary cubic, with witnesses.

    Without a repeated rational line the reduction is reduced, and its singular
    point, when unique over the algebraic closure and rational, comes from a
    rational line factor if there is one, or from a projection if not.
    """
    p = ctx.p
    f = [c % p for c in F.coeffs]
    if not any(f):
        return ResidueCubicClass(TAG_ZERO)
    factors = _linear_factors(f, p)
    for ell, mult in factors:
        if mult >= 2:
            return ResidueCubicClass(TAG_REPEATED_LINE, factor=ell)
    pt = (_line_singular_point(f, factors[0][0], p) if factors
          else _lineless_singular_point(f, p))
    if pt is None:
        return ResidueCubicClass(TAG_OTHER)
    return ResidueCubicClass(TAG_UNIQUE_SINGULAR, point=pt)


# ---------------------------------------------------------------------------
# saturation


def saturation_defect(m, ctx):
    """(axis, residue kernel vector) witnessing slice dependence, or None."""
    if m.kind not in ("cube", "hypercube"):
        raise TypeError("saturation is defined for cubes and hypercubes")
    for axis in range(len(SPECS[m.kind].shape)):
        ker = fp_left_kernel_vector(m.axis_slices(axis), ctx.p)
        if ker is not None:
            return axis, ker
    return None
