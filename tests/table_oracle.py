"""The loop evaluators that g1min's compiled straight-line functions replaced.

These are the routines `models` and `invariants` used before every fixed
polynomial table was compiled on first use: Python loops over the terms of
`models._SYM_TABLES`, `_CUBE_TABLES` and `_HYPERCUBE_TABLES` and of
`invariants._C4_TERMS` and `_C6_TERMS`, the mode product of `act` as a loop
over the fibres of one axis, and the quartics of a (2,2)-form as products of
binary quadratics.  Each reads its table at call time, as the library does.
They serve only as the reference the differential tests compare the
compiled functions against; `act_values` composes them into the exact
rational value of `act`.
"""

from fractions import Fraction
from operator import mul

import g1min.invariants as invariants
import g1min.models as models
from g1min.models import BinaryQuartic, TernaryCubic, TwoTwoForm, _binary_mul


def sym_power_matrix(A, k):
    """Matrix of f -> f((x1, ..., xn) A) on the coefficient vectors of forms
    of degree k in n = len(A) variables, monomials in `monomials(n, k)`
    order: column i is the image of monomial i."""
    a = [x for row in A for x in row]
    out = []
    for row in models._SYM_TABLES[len(A), k]:
        vals = []
        for terms in row:
            tot = 0
            for c, positions in terms:
                for q in positions:
                    c *= a[q]
                tot += c
            vals.append(tot)
        out.append(tuple(vals))
    return tuple(out)


def _mode_product(t, M, fibres):
    """Multiply every fibre of the flat tensor t along one axis by M."""
    out = [0] * len(t)
    for fibre in fibres:
        vals = [t[n] for n in fibre]
        for pos, row in zip(fibre, M):
            out[pos] = sum(map(mul, row, vals))
    return out


def quartics_of_22(F):
    """The pair of binary quartics (G1 in x, G2 in y) of a (2,2)-form: with
    F = F1(x) y1^2 + F2(x) y1 y2 + F3(x) y2^2, G1 = F2^2 - 4 F1 F3, the Fj
    the columns of its coefficient matrix; G2 likewise from its rows."""
    c = F.coeffs
    return tuple(
        BinaryQuartic([x - 4 * y for x, y in zip(_binary_mul(q2, q2), _binary_mul(q1, q3))])
        for q1, q2, q3 in ((c[0::3], c[1::3], c[2::3]), F.rows))


def cubic_of_cube(S, axis):
    """The determinantal ternary cubic of the slicing along `axis`."""
    c = S.coeffs
    coeffs = []
    for terms in models._CUBE_TABLES[axis]:
        tot = 0
        for s, i, j, k in terms:
            tot += s * c[i] * c[j] * c[k]
        coeffs.append(tot)
    return TernaryCubic.from_coeffs(coeffs)


def form_of_hypercube(H, a, b):
    """The (2,2)-form F_ab: determinant of H read as bilinear in the other axes."""
    c = H.coeffs
    coeffs = []
    for terms in models._HYPERCUBE_TABLES[a, b]:
        tot = 0
        for s, i, j in terms:
            tot += s * c[i] * c[j]
        coeffs.append(tot)
    return TwoTwoForm.from_coeffs(coeffs)


def _eval_terms(terms, coeffs):
    tot = 0
    for c, mono in terms:
        prod = c
        for n in mono:
            prod *= coeffs[n]
        tot += prod
    return tot


def _cubic_c4_c6(F):
    return (_eval_terms(invariants._C4_TERMS, F.coeffs),
            _eval_terms(invariants._C6_TERMS, F.coeffs))


def act_values(g, m):
    """The coefficients of act(g, m) as exact Fractions, integral or not: the
    loop mode product along every axis, identity or not, by the loop Sym^k
    of the kind's degree, then the scalar's power."""
    spec = models.SPECS[m.kind]
    t = [Fraction(c) for c in m.coeffs]
    degree = {"quartic": 4, "form22": 2, "cubic": 3}.get(m.kind)
    for fibres, A in zip(spec.fibres, g.matrices):
        t = _mode_product(t, sym_power_matrix(A, degree) if degree else A, fibres)
    return [g.scalar ** spec.act_power * x for x in t]
