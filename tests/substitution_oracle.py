"""The substitutions that g1min's Sym^k index tables replaced.

These are the routines g1min used before `models.sym_power_matrix` read its
matrices from one index table per (n, k): the binary Sym^k(A) built column by
column from products of powers of linear forms, the binary-form substitution
through that matrix, and the ternary-cubic substitution F((x, y, z) A)
expanded through monomial dictionaries.  They serve only as the reference the
differential tests compare the tables against, and as an independent way to
move test inputs.
"""

from math import comb

from g1min.models import CUBIC_MONOMIALS, TernaryCubic


def _binary_power(u, v, k):
    """Coefficients of (u*x1 + v*x2)^k, descending in x1."""
    return [comb(k, i) * u ** (k - i) * v ** i for i in range(k + 1)]


def _binary_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sym_power_matrix(A, k):
    """Matrix of f -> f((x1, x2) A) on the coefficient vectors (descending in
    x1) of binary forms of degree k: column i is the image of x1^(k-i) x2^i."""
    cols = [_binary_mul(_binary_power(A[0][0], A[1][0], k - i),
                        _binary_power(A[0][1], A[1][1], i)) for i in range(k + 1)]
    return tuple(zip(*cols))


def binary_form_substitute(coeffs, A):
    """Substitute (x1, x2) -> (x1, x2) A into a binary form."""
    return [sum(x * c for x, c in zip(row, coeffs))
            for row in sym_power_matrix(A, len(coeffs) - 1)]


def ternary_substitute(F, A):
    """F((x,y,z) A) for a ternary cubic."""
    out = {}
    for e, c in zip(CUBIC_MONOMIALS, F.coeffs):
        if c == 0:
            continue
        terms = {(0, 0, 0): c}
        for var in range(3):
            for _ in range(e[var]):
                nxt = {}
                for mono, cc in terms.items():
                    for m in range(3):
                        if A[m][var] == 0:
                            continue
                        key = list(mono)
                        key[m] += 1
                        key = tuple(key)
                        nxt[key] = nxt.get(key, 0) + cc * A[m][var]
                terms = nxt
        for mono, cc in terms.items():
            out[mono] = out.get(mono, 0) + cc
    return TernaryCubic.from_dict(out)
