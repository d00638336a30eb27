"""The generic matrix routines that g1min's closed forms replaced.

These are `exactnum.det_matrix`, `exactnum.mat_adj`, `exactnum.mat_mul` and
`exactnum.fp_left_kernel_vector` as they were before they became closed forms
or shortened eliminations for the small shapes the library uses: Laplace
expansion along the first row, the adjugate from the cofactors, each minor's
determinant by the same recursion, the product of any two conforming
matrices as row-by-column sums, and full Gauss-Jordan elimination of
[rows | I] over F_p.  They serve only as the reference the differential
tests compare the library's routines against.
"""

from operator import mul

from g1min.exactnum import fp_inv


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


def fp_left_kernel_vector(rows, p):
    """A nonzero (c_0, ..., c_{m-1}) with sum c_i * rows[i] = 0 mod p, or None.

    Used to detect linear dependence of slices: the rows are flattened slices.
    """
    m = len(rows)
    # transpose and solve for the kernel of rows^T x = 0 over the row space
    aug = [[x % p for x in row] + [1 if i == j else 0 for j in range(m)]
           for i, row in enumerate(rows)]
    n = len(rows[0])
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if aug[r][col] % p), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = fp_inv(aug[rank][col], p)
        aug[rank] = [x * inv % p for x in aug[rank]]
        for r in range(m):
            if r != rank and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[rank])]
        rank += 1
        if rank == m:
            return None
    if rank == m:
        return None
    return tuple(aug[rank][n:])
