"""The generic matrix routines that g1min's closed forms replaced.

These are `exactnum.det_matrix`, `exactnum.mat_adj` and `exactnum.mat_mul`
as they were before they became closed forms for the small shapes the
library uses: Laplace expansion along the first row, the adjugate from the
cofactors, each minor's determinant by the same recursion, and the product
of any two conforming matrices as row-by-column sums.  They serve only as
the reference the differential tests compare the closed forms against.
"""

from operator import mul


def det_matrix(m):
    """Exact determinant by fraction-free expansion (small matrices only)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    tot = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
        term = m[0][j] * det_matrix(minor)
        tot += -term if j % 2 else term
    return tot


def mat_adj(m):
    """Integer adjugate: mat_mul(m, mat_adj(m)) == det_matrix(m) * identity."""
    n = len(m)
    if n == 1:
        return ((1,),)
    return tuple(
        tuple((-1) ** (i + j) * det_matrix(tuple(row[:i] + row[i + 1:]
                                                 for r, row in enumerate(m) if r != j))
              for j in range(n))
        for i in range(n))


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)
