"""The recursive determinant and adjugate that g1min's closed forms replaced.

These are `exactnum.det_matrix` and `exactnum.mat_adj` as they were before
they became closed forms for n <= 3: Laplace expansion along the first row,
and the adjugate from the cofactors, each minor's determinant by the same
recursion.  They take square matrices of any size and serve only as the
reference the differential tests compare the closed forms against.
"""


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
