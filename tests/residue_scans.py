"""The exhaustive residue scans that the F_p polynomial algebra replaced.

These are the P^1, P^1 x P^1 and P^2 enumerations g1min used before its root
finder: binary roots by trying every point of P^1(F_p), the singular points of
a (2,2)-form by trying every point of P^1 x P^1, rational line factors of a
ternary cubic by trial division by every line of P^2, the singular points of a
ternary cubic and of a conic by trying every point of P^2.  They cost O(p) to
O(p^2) and serve only as the reference the differential tests compare the
library against, at small p.
The classifiers are the library's as they were before the algebra replaced
these scans, with their prime-bound checks removed.  The point evaluation and
the partial derivatives of a monomial dictionary are the library's as they
were before its singular-point checks became substitutions.

Two references are the library's as they were before its residue layer came
to read coefficient tuples only: the trial division of a ternary form, kept
as a dictionary from exponent vectors to coefficients, by a linear form
(`_cubic_residue`, `ternary_divide_linear`), which the library replaced by
reading line multiplicities off exponents; and the rank of a matrix mod p by
Gaussian elimination (`fp_matrix`, `fp_rank`, `_fp_echelon`), which the
(2,2) classifier replaced by a rank-one test.

`repeated_root_by_stripping` is the library's `repeated_root` as it was when
it divided out every rational root (`_strip_rational_roots_fp`, by F_p
polynomial division) before it looked for a multiple root.  Both reference
`repeated_root`s test the rootless cofactor with `_is_square_form`, the
library's test as it was before it became one gcd with the derivative: a
closed-form square test for quartics, the gcd from degree 5 on.
"""

from g1min.exactnum import fp_inv, fp_poly, fp_poly_divmod, fp_poly_gcd
from g1min.models import CUBIC_MONOMIALS
from g1min.residue import (
    Residue22Class, ResidueCubicClass, TAG_OTHER, TAG_PRODUCT_BOTH, TAG_PRODUCT_NONE,
    TAG_PRODUCT_ONE, TAG_REPEATED_LINE, TAG_UNIQUE_SINGULAR, TAG_ZERO,
    _form22_residue_rows, binary_roots as fp_binary_roots,
)


def fp_matrix(rows, p):
    return tuple(tuple(x % p for x in row) for row in rows)


def fp_rank(rows, p):
    return len(_fp_echelon(rows, p)[0])


def _fp_echelon(rows, p):
    """Row echelon form mod p.  Returns (pivot column list, echelon rows)."""
    mat = [list(r) for r in fp_matrix(rows, p)]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = fp_inv(mat[rank][col], p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    return pivots, mat


def _cubic_residue(F, p):
    return {e: c % p for e, c in zip(CUBIC_MONOMIALS, F.coeffs) if c % p}


def ternary_divide_linear(fdict, ell, p, degree):
    """Quotient of a homogeneous trivariate form by l1 x + l2 y + l3 z, or None."""
    ell = tuple(x % p for x in ell)
    piv = next((i for i in range(3) if ell[i]), None)
    if piv is None:
        raise ValueError("zero linear form")
    inv = fp_inv(ell[piv], p)
    red = [x * inv % p for x in ell]
    rest = [i for i in range(3) if i != piv]
    # divide treating x_piv as the leading variable
    q = {}
    work = dict(fdict)
    for dpiv in range(degree, 0, -1):
        for e in sorted([e for e in work if e[piv] == dpiv]):
            c = work[e] % p
            if not c:
                continue
            qe = list(e)
            qe[piv] -= 1
            q[tuple(qe)] = c
            # subtract c * x^qe * ell
            for i in range(3):
                if red[i] == 0 and i != piv:
                    continue
                te = list(qe)
                te[i] += 1
                te = tuple(te)
                coef = c if i == piv else c * red[i] % p
                work[te] = (work.get(te, 0) - coef) % p
    if any(v % p for e, v in work.items()):
        return None
    return {e: v for e, v in q.items() if v % p}


def _eval_trivariate(fdict, pt, p):
    tot = 0
    for e, c in fdict.items():
        tot += c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2]
    return tot % p


def _partial(fdict, var):
    out = {}
    for e, c in fdict.items():
        if e[var] == 0:
            continue
        ne = list(e)
        ne[var] -= 1
        out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[var]
    return out


def projective_plane_points(p):
    pts = [(1, b, c) for b in range(p) for c in range(p)]
    pts += [(0, 1, c) for c in range(p)]
    pts.append((0, 0, 1))
    return pts


def projective_line_points(p):
    """All points of P^1(F_p) as normalised pairs (a, b)."""
    return [(1, t) for t in range(p)] + [(0, 1)]


def _root_linear_form(point):
    # (a : b) is the zero of b*x1 - a*x2
    a, b = point
    return (b, -a)


def binary_divide_linear(coeffs, ell, p):
    """Quotient of a binary form by c1*x1 + c2*x2 mod p, or None."""
    c1, c2 = ell[0] % p, ell[1] % p
    d = len(coeffs) - 1
    if c1 % p:
        w = c2 * fp_inv(c1, p) % p
        q = []
        prev = 0
        for i in range(d):
            cur = (coeffs[i] - w * prev) % p
            q.append(cur)
            prev = cur
        rem = (coeffs[d] - w * prev) % p
        if rem:
            return None
        inv = fp_inv(c1, p)
        return tuple(x * inv % p for x in q)
    if coeffs[0] % p:
        return None
    inv = fp_inv(c2, p)
    return tuple(x * inv % p for x in coeffs[1:])


def binary_root_multiplicity(coeffs, point, p):
    ell = _root_linear_form(point)
    mult = 0
    cur = tuple(c % p for c in coeffs)
    while len(cur) >= 1:
        nxt = binary_divide_linear(cur, ell, p) if len(cur) > 1 else None
        if nxt is None:
            break
        mult += 1
        cur = nxt
    return mult


def binary_roots(coeffs, p):
    """[(point, multiplicity)] over F_p for a nonzero binary form."""
    out = []
    for pt in projective_line_points(p):
        m = binary_root_multiplicity(coeffs, pt, p)
        if m:
            out.append((pt, m))
    return out


def _strip_rational_roots(coeffs, p):
    """(roots with multiplicity, rootless cofactor) of a nonzero binary form."""
    roots = binary_roots(coeffs, p)
    cur = tuple(c % p for c in coeffs)
    for pt, m in roots:
        ell = _root_linear_form(pt)
        for _ in range(m):
            cur = binary_divide_linear(cur, ell, p)
    return roots, cur


def _is_square_form(coeffs, p):
    """Whether a rootless binary form has a repeated factor over F_p, so
    multiple roots over the algebraic closure, none of them rational.  A
    rootless quartic has one exactly when it is a scalar times the square of
    a quadratic; a form of degree 5 or more when f(1, t), whose coefficient
    list is the form's, shares a factor with its derivative (as F_p is
    perfect, that derivative is zero only for a p-th power)."""
    d = len(coeffs) - 1
    if d < 4:
        return False  # rootless quadratics and cubics are irreducible, hence separable
    if d > 4:
        derivative = fp_poly([i * c for i, c in enumerate(coeffs)][1:], p)
        return len(fp_poly_gcd(fp_poly(coeffs, p), derivative, p)) > 1
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
    roots, cofactor = _strip_rational_roots(coeffs, p)
    multiple = [pt for pt, m in roots if m >= 2]
    if len(multiple) != 1:
        return None
    if _is_square_form(cofactor, p):
        return None  # extra conjugate double roots
    return multiple[0]


def _strip_rational_roots_fp(coeffs, p):
    """(roots with multiplicity, rootless cofactor) of a nonzero binary form.

    The cofactor is f(1, t) divided by every (t - r)^m, up to a unit; its
    coefficient list is the binary form with the same index order.
    """
    roots = fp_binary_roots(coeffs, p)
    cofactor = fp_poly(coeffs, p)
    for (a, t), m in roots:
        if a:
            for _ in range(m):
                cofactor = fp_poly_divmod(cofactor, [-t % p, 1], p)[0]
    return roots, tuple(cofactor)


def repeated_root_by_stripping(coeffs, p):
    """The unique multiple root of a nonzero binary form over the algebraic
    closure, provided it is F_p-rational; None otherwise."""
    if all(c % p == 0 for c in coeffs):
        raise ValueError("zero form")
    roots, cofactor = _strip_rational_roots_fp(coeffs, p)
    multiple = [pt for pt, m in roots if m >= 2]
    if len(multiple) != 1:
        return None
    if _is_square_form(cofactor, p):
        return None  # extra conjugate double roots
    return multiple[0]


def _singular_points_22(rows, p):
    pts = []
    line = projective_line_points(p)
    for xpt in line:
        x1, x2 = xpt
        dx1 = (2 * x1, x2, 0)
        dx2 = (0, x1, 2 * x2)
        mx = (x1 * x1, x1 * x2, x2 * x2)
        for ypt in line:
            y1, y2 = ypt
            my = (y1 * y1, y1 * y2, y2 * y2)
            dy1 = (2 * y1, y2, 0)
            dy2 = (0, y1, 2 * y2)
            ok = True
            for vx, vy in ((mx, my), (dx1, my), (dx2, my), (mx, dy1), (mx, dy2)):
                tot = sum(rows[r][c] * vx[r] * vy[c] for r in range(3) for c in range(3))
                if tot % p:
                    ok = False
                    break
            if ok:
                pts.append((xpt, ypt))
    return pts


def _quadratic_repeated_point(coeffs, p):
    """The double root of a quadratic form, or None (always rational if any)."""
    if all(c % p == 0 for c in coeffs):
        return None
    roots = binary_roots(coeffs, p)
    for pt, m in roots:
        if m >= 2:
            return pt
    return None


def classify_22_residue(F, ctx):
    """Classify the reduction mod p of a (2,2)-form, with witnesses."""
    p = ctx.p
    rows = _form22_residue_rows(F, p)
    if all(x == 0 for row in rows for x in row):
        return Residue22Class(TAG_ZERO)
    rank = fp_rank(rows, p)
    if rank == 1:
        # f = g(x) h(y): witnesses from any nonzero row/column
        r0 = next(r for r in range(3) if any(rows[r]))
        c0 = next(c for c in range(3) if rows[r0][c])
        h = rows[r0]
        inv = fp_inv(rows[r0][c0], p)
        g = tuple(rows[r][c0] * inv % p for r in range(3))
        xr = _quadratic_repeated_point(g, p)
        yr = _quadratic_repeated_point(h, p)
        if xr is not None and yr is not None:
            return Residue22Class(TAG_PRODUCT_BOTH, x_root=xr, y_root=yr)
        if xr is not None:
            return Residue22Class(TAG_PRODUCT_ONE, x_root=xr, repeated_side="x")
        if yr is not None:
            return Residue22Class(TAG_PRODUCT_ONE, y_root=yr, repeated_side="y")
        return Residue22Class(TAG_PRODUCT_NONE)
    sing = _singular_points_22(rows, p)
    if len(sing) == 1:
        return Residue22Class(TAG_UNIQUE_SINGULAR, point=sing[0])
    return Residue22Class(TAG_OTHER)


def _linear_factors(fdict, p, degree):
    """All rational linear factors with multiplicities."""
    out = []
    for ell in projective_plane_points(p):
        cur = fdict
        deg = degree
        mult = 0
        while deg >= 1:
            nxt = ternary_divide_linear(cur, ell, p, deg)
            if nxt is None:
                break
            mult += 1
            cur = nxt
            deg -= 1
        if mult:
            out.append((ell, mult))
    return out


def _singular_points_trivariate(fdict, p):
    parts = [_partial(fdict, v) for v in range(3)]
    pts = []
    for pt in projective_plane_points(p):
        if _eval_trivariate(fdict, pt, p):
            continue
        if all(_eval_trivariate(q, pt, p) == 0 for q in parts):
            pts.append(pt)
    return pts


def classify_cubic_residue(F, ctx):
    """Classify the reduction mod p of a ternary cubic, with witnesses."""
    p = ctx.p
    f = _cubic_residue(F, p)
    if not f:
        return ResidueCubicClass(TAG_ZERO)
    factors = _linear_factors(f, p, 3)
    for ell, mult in factors:
        if mult >= 2:
            return ResidueCubicClass(TAG_REPEATED_LINE, factor=ell)
    sing = _singular_points_trivariate(f, p)
    if len(sing) != 1:
        return ResidueCubicClass(TAG_OTHER)
    pt = sing[0]
    # certify uniqueness over the closure: the only non-obvious case is a
    # rational line times a conic that is an irrational line pair; then the
    # conic's vertex is the found point and uniqueness needs it to lie on the
    # stripped line as well.
    if len(factors) == 1 and factors[0][1] == 1:
        ell = factors[0][0]
        conic = ternary_divide_linear(f, ell, p, 3)
        if not _linear_factors(conic, p, 2):  # conic irreducible over F_p
            vertex = _conic_singular_point(conic, p)
            if vertex is not None:
                if vertex != pt:
                    raise AssertionError("rational singular point differs from the conic vertex")
                if _eval_trivariate({(1, 0, 0): ell[0], (0, 1, 0): ell[1], (0, 0, 1): ell[2]}, pt, p):
                    return ResidueCubicClass(TAG_OTHER)
    return ResidueCubicClass(TAG_UNIQUE_SINGULAR, point=pt)


def _conic_singular_point(conic, p):
    parts = [_partial(conic, v) for v in range(3)]
    for pt in projective_plane_points(p):
        if _eval_trivariate(conic, pt, p):
            continue
        if all(_eval_trivariate(q, pt, p) == 0 for q in parts):
            return pt
    return None
