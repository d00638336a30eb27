"""Exact arithmetic kernel: p-adic valuations, F_p helpers, unimodular completions.

Everything in this module works with Python ints and fractions.Fraction; the
only float is math.inf, the valuation of zero, which compares above every int
and absorbs addition.  Matrices are tuples of tuples of ints (or
Fractions), vectors are tuples.  All functions are pure.

Three move builders are memoised, each in a bounded `lru_cache` of
`MOVE_CACHE_SIZE` entries, because their answer depends on residues alone:
`unimodular_with_row` on (vec mod p, p, row), `form_to_last` on
(ell mod p, p), and, in `g1min.minimise`, `_absorb` on its (kind, kernel
vector, p, axis).  `unimodular_with_row` and `form_to_last` check the
vector and reduce it before the cache sees it, so an error names the
caller's vector; the kernel vector `_absorb` takes is reduced already.
Sharing a result is safe because it is immutable: a tuple of tuples of
ints, or a frozen `GroupElement`.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, isqrt


INFINITY = inf


def valuation(x, p):
    """p-adic valuation of an int or Fraction; INFINITY for x = 0.

    One remainder answers the common case, v = 0.  Otherwise x is divided by
    p, p^2, p^4, ... while each divides it, then by the same powers, largest
    first, where they still divide it: O(log v) divisions in all."""
    if type(x) is Fraction:
        if x == 0:
            return INFINITY
        return valuation(x.numerator, p) - valuation(x.denominator, p)
    if x == 0:
        return INFINITY
    if x % p:
        return 0
    v, powers, q = 0, [], p
    while True:
        y, r = divmod(x, q)
        if r:
            break
        x, v = y, v + (1 << len(powers))
        powers.append(q)
        q *= q
    # v_p(x) < 2^len(powers) now: take its binary digits from the top
    for i in range(len(powers) - 1, -1, -1):
        y, r = divmod(x, powers[i])
        if not r:
            x, v = y, v + (1 << i)
    return v


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def quotient(x, d):
    """x / d, exactly: an int when the quotient is integral, else a Fraction."""
    if isinstance(x, int) and isinstance(d, int):
        q, r = divmod(x, d)
        if not r:
            return q
    f = Fraction(x, d)
    return f.numerator if f.denominator == 1 else f


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_probable_prime_base_2(n):
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n):
    """Strong Lucas test with Selfridge's parameters, for odd n > 1 that is
    not a perfect square: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, r = n + 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def halve(x):  # x / 2 mod n (n is odd)
        return (x + n if x % 2 else x) // 2 % n

    # U_k, V_k and Q^k from k = 1 up to k = d, reading d's bits from the top
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = halve(U + V), halve(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(r - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n):
    """Baillie-PSW: trial division by the primes up to 37, a strong base-2
    Miller-Rabin test, then a strong Lucas test (Baillie and Wagstaff, Math.
    Comp. 35, 1980).  Proven correct for n < 2^64; no composite is known to
    pass it."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if not _strong_probable_prime_base_2(n):
        return False
    if isqrt(n) ** 2 == n:
        return False
    return _strong_lucas_probable_prime(n)


def fp_inv(a, p):
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"inverse of 0 mod {p}")
    return pow(a, -1, p)


class RefusedInputError(ValueError):
    """An input outside what the called function accepts: a number that is
    not prime, a model that is not integral where integers are needed, or a
    prime outside a search's range."""


class LocalContext:
    """The working prime p, with uniformiser pi = p and residue field F_p."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not isinstance(p, int):
            raise RefusedInputError(f"the prime must be an int, got {p!r}")
        if not is_prime(p):
            raise RefusedInputError(f"{p} is not prime")
        self.p = p


def as_context(ctx):
    """The LocalContext of a prime; a context, anything whose type has a `p`,
    passes through (the type is asked, so a `p` property is not invoked)."""
    return ctx if hasattr(type(ctx), "p") else LocalContext(ctx)


# ---------------------------------------------------------------------------
# polynomials over F_p: coefficient lists, constant term first.  The kernel
# takes and returns normalised lists: entries in [0, p), no trailing zeros,
# and [] for the zero polynomial.


def fp_poly(coeffs, p):
    """The normalised polynomial with the given coefficients, reduced mod p."""
    out = [c % p for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def _fp_poly_sub(a, b, p):
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return fp_poly([x - (b[i] if i < len(b) else 0) for i, x in enumerate(a)], p)


def fp_poly_divmod(a, b, p):
    """(quotient, remainder) of a by a nonzero b over F_p."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    n = len(b) - 1
    inv = fp_inv(b[-1], p)
    quot = [0] * max(len(a) - n, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + n] * inv % p
        quot[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] = (rem[k + j] - c * y) % p
    return quot, fp_poly(rem[:n], p)


def fp_poly_gcd(a, b, p):
    """The monic gcd over F_p ([] when both are zero)."""
    while b:
        a, b = b, fp_poly_divmod(a, b, p)[1]
    if not a:
        return a
    inv = fp_inv(a[-1], p)
    return [c * inv % p for c in a]


def fp_linear_powmod(a, e, f, p):
    """(x + a)^e mod a monic f of degree n >= 1 over F_p, normalised.

    Left-to-right square-and-multiply: each bit of e costs one square of a
    polynomial of degree < n and its reduction, plus, for a one bit, a
    multiplication by x + a, which is a shift.
    """
    n = len(f) - 1
    r = [1] + [0] * (n - 1)
    for bit in bin(e)[2:]:
        sq = [0] * (2 * n - 1)
        for i, u in enumerate(r):
            if u:
                for j, v in enumerate(r):
                    sq[i + j] += u * v
        for k in range(2 * n - 2, n - 1, -1):
            c = sq[k] % p
            if c:
                for j in range(n):
                    sq[k - n + j] -= c * f[j]
        if bit == "1":  # x^n = -(f[0] + ... + f[n-1] x^(n-1)) mod f
            top = sq[n - 1] % p
            r = [(a * sq[i] + (sq[i - 1] if i else 0) - top * f[i]) % p for i in range(n)]
        else:
            r = [c % p for c in sq[:n]]
    return fp_poly(r, p)


def _fp_split_roots(g, p):
    """The roots of a monic g over F_p that is a product of distinct linear
    factors: split by gcd with (x + a)^((p-1)/2) - 1 for a = 0, 1, 2, ...

    For roots r != s some shift a separates them, because the nonzero squares
    are not invariant under translation by r - s; so the loop ends.
    """
    if len(g) <= 2:
        return [-g[0] % p] if len(g) == 2 else []
    a = 0
    while True:
        h = fp_linear_powmod(a, (p - 1) // 2, g, p)
        d = fp_poly_gcd(g, _fp_poly_sub(h, [1], p), p)
        if 1 < len(d) < len(g):
            return _fp_split_roots(d, p) + _fp_split_roots(fp_poly_divmod(g, d, p)[0], p)
        a += 1


def fp_poly_roots(f, p):
    """[(root, multiplicity)] of a nonzero polynomial over F_p, roots ascending.

    The rational roots are those of gcd(f, x^p - x), which splits by
    equal-degree factorisation (Cantor-Zassenhaus, with a fixed sequence of
    shifts, so the result is deterministic); the multiplicities come from
    synthetic division by x - r.  The gcd, and each shift tried, costs
    O(log p) products of polynomials of degree below deg f; a shift separates
    two given roots for about half of all shifts.  Over F_2 the candidates
    are just 0 and 1.
    """
    f = fp_poly(f, p)
    if not f:
        raise ValueError("zero polynomial")
    if len(f) == 1:
        return []
    inv = fp_inv(f[-1], p)
    f = [c * inv % p for c in f]
    if p == 2:
        roots = [r for r, value in ((0, f[0]), (1, sum(f))) if value % 2 == 0]
    else:
        xp = fp_linear_powmod(0, p, f, p)
        roots = sorted(_fp_split_roots(fp_poly_gcd(f, _fp_poly_sub(xp, [0, 1], p), p), p))
    out = []
    for r in roots:
        mult, cur = 0, f
        while len(cur) > 1:
            quot, acc = [0] * (len(cur) - 1), 0
            for i in range(len(cur) - 1, 0, -1):
                acc = (acc * r + cur[i]) % p
                quot[i - 1] = acc
            if (acc * r + cur[0]) % p:
                break
            mult, cur = mult + 1, quot
        out.append((r, mult))
    return out


# ---------------------------------------------------------------------------
# F_p linear algebra on tuple-of-tuples matrices


def fp_left_kernel_vector(rows, p):
    """A nonzero (c_0, ..., c_{m-1}) with sum c_i * rows[i] = 0 mod p, or None.

    Used to detect linear dependence of slices: the rows are flattened slices.
    The vector is the one Gauss-Jordan elimination of [rows | I] finds, pivots
    taken column by column from the first row that has one: the identity
    part of its first zero row.  Two rows (hypercube slices, the off-corner
    block of a hypercube) get it in closed form: (1, 0) when rows[0] = 0 mod p,
    else (c, 1) with c = -rows[1][j] / rows[0][j] at the first column j where
    rows[0] is nonzero, provided c * rows[0] + rows[1] = 0 mod p.
    """
    if len(rows) == 2:
        r0, r1 = rows
        j = next((j for j, x in enumerate(r0) if x % p), None)
        if j is None:
            return (1, 0)
        c = -r1[j] * fp_inv(r0[j], p) % p
        if any((c * x + y) % p for x, y in zip(r0, r1)):
            return None
        return (c, 1)
    return _fp_kernel_by_elimination(rows, p)


def _fp_kernel_by_elimination(rows, p):
    """fp_left_kernel_vector by forward elimination of [rows | I] mod p.

    The entries are reduced once, up front.  Only the rows below a pivot are
    cleared, and only those with a nonzero entry in its column: clearing the
    rows above, as Gauss-Jordan does, changes neither the choice of later
    pivots nor the first zero row, whose identity part is returned.  A row is
    cleared with the multiple f / pivot of the pivot row, which equals
    Gauss-Jordan's f times the normalised pivot row mod p.
    """
    m, n = len(rows), len(rows[0])
    aug = [[x % p for x in row] + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if aug[r][col]), None)
        if piv is None:
            continue
        pivot = aug[piv]
        aug[piv], aug[rank] = aug[rank], pivot
        inv = fp_inv(pivot[col], p)
        for r in range(rank + 1, m):
            f = aug[r][col]
            if f:
                f = f * inv % p
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], pivot)]
        rank += 1
        if rank == m:
            return None
    return tuple(aug[rank][n:])


# ---------------------------------------------------------------------------
# unimodular integer matrices realising residue moves


def complete_primitive_row(vec):
    """Unimodular integer matrix (det +-1) whose first row is the given vector.

    The vector must be a primitive integer vector (gcd 1).  Built by running
    the extended Euclidean column reduction on vec and inverting the recorded
    column operations.
    """
    vec = tuple(int(x) for x in vec)
    n = len(vec)
    if gcd(*vec) != 1:
        raise ValueError(f"{vec} is not primitive")
    # column operations V with vec . V = (1, 0, ..., 0); then first row of
    # V^{-1} is vec, so return V^{-1} built from inverse elementary factors.
    work = list(vec)
    inv_rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # accumulates V^{-1}

    def colop_inverse(i, j, q):
        # work[j] -= q * work[i]  <=>  V factor E; V^{-1} gains row op on left
        inv_rows[i] = [a + q * b for a, b in zip(inv_rows[i], inv_rows[j])]

    def colswap_inverse(i, j):
        inv_rows[i], inv_rows[j] = inv_rows[j], inv_rows[i]

    # make work[0] the gcd via Euclid against each other entry
    for j in range(1, n):
        while work[j] != 0:
            if work[0] == 0 or (work[j] != 0 and abs(work[j]) < abs(work[0])):
                work[0], work[j] = work[j], work[0]
                colswap_inverse(0, j)
            if work[0] != 0 and work[j] != 0:
                q = work[j] // work[0]
                work[j] -= q * work[0]
                colop_inverse(0, j, q)
    if work[0] == -1:
        work[0] = 1
        inv_rows[0] = [-x for x in inv_rows[0]]
    if work[0] != 1 or any(work[1:]) or inv_rows[0] != list(vec):
        raise AssertionError(f"unimodular completion of {vec} failed")
    return tuple(tuple(r) for r in inv_rows)


def lift_primitive(vec, p):
    """Lift a vector that is nonzero mod p to a primitive integer vector."""
    lifted = [int(x) % p for x in vec]
    g = gcd(*lifted)
    if g == 1:
        return tuple(lifted)
    j = next(i for i, x in enumerate(lifted) if x % p)
    for k in range(len(lifted)):
        if k == j:
            continue
        cand = list(lifted)
        cand[k] += p
        if gcd(*cand) == 1:
            return tuple(cand)
    # no shift of one slot by p made the vector primitive, as for (6, 2) at
    # p = 7, whose (6, 9) has gcd 3: shift the slot after the first nonzero
    # entry a by the multiple t p of p that makes it 1 mod a, hence prime to a
    cand = list(lifted)
    a = lifted[j]
    k = (j + 1) % len(lifted)
    t = (1 - cand[k]) * fp_inv(p % a, a) % a if a > 1 else 0
    cand[k] += t * p
    if gcd(*cand) != 1:
        raise AssertionError(f"failed to lift {vec} to a primitive vector")
    return tuple(cand)


# Moves are built from residue witnesses (a root, point, line or slice
# dependence mod p), of which small primes have only a few hundred, so each
# completion is built once per residue key; a bounded cache keeps large
# primes, whose witnesses rarely repeat, from growing it.
MOVE_CACHE_SIZE = 4096


def _residue_key(vec, p):
    """vec reduced mod p, the key of a memoised move; ValueError, naming the
    caller's vector, when it is zero mod p."""
    key = tuple(int(x) % p for x in vec)
    if not any(key):
        raise ValueError(f"{tuple(int(x) for x in vec)} is zero mod {p}")
    return key


def unimodular_with_row(vec, p, row):
    """Determinant +-1 matrix whose given row is congruent to vec mod p, which
    must be nonzero mod p: a residue point or root moved to that coordinate.
    The matrix depends on vec mod p only, and is shared between callers."""
    return _unimodular_with_row(_residue_key(vec, p), p, row)


@lru_cache(maxsize=MOVE_CACHE_SIZE)
def _unimodular_with_row(vec, p, row):
    m = complete_primitive_row(lift_primitive(vec, p))
    order = list(range(1, len(m)))
    order.insert(row, 0)
    return tuple(m[i] for i in order)


def form_to_last(ell, p):
    """Unimodular A with A . ell = unit * e_last mod p: the substitution
    (vars) -> (vars) A turns a form divisible by ell into one divisible by
    the last variable.  Shared between callers, like unimodular_with_row."""
    return _form_to_last(_residue_key(ell, p), p)


@lru_cache(maxsize=MOVE_CACHE_SIZE)
def _form_to_last(ell, p):
    rowmat = unimodular_with_row(ell, p, len(ell) - 1)
    col = tuple(zip(*rowmat))
    d = det_matrix(col)  # +-1, so the inverse is d times the adjugate
    return tuple(tuple(d * x for x in row) for row in mat_adj(col))


def det_matrix(m):
    """Exact determinant of a 2x2 or 3x3 matrix, in closed form: group
    matrices, the matrix of a (2,2)-form and the completions `form_to_last`
    inverts are all this size.  ValueError for any other size."""
    n = len(m)
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    raise ValueError(f"det_matrix takes 2x2 or 3x3 matrices, not {n}x{n}")


def mat_mul(a, b):
    """Matrix product in closed form for the shapes g1min multiplies: 3x3 by
    3x3 (Sym^2 matrices, ternary substitutions and the cube invariants' slice
    matrices), a 1x3 row by a 3x3 matrix (a point moved by a substitution)
    and 2x2 by 2x2 (binary substitutions).  Integer for integer factors.
    ValueError for any other shape."""
    n = len(b)
    if n == 3 and len(a) == 3:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
        return ((a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
                 a00 * b02 + a01 * b12 + a02 * b22),
                (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
                 a10 * b02 + a11 * b12 + a12 * b22),
                (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
                 a20 * b02 + a21 * b12 + a22 * b22))
    if n == 2 and len(a) == 2:
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
                (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))
    if n == 3 and len(a) == 1:
        (x, y, z), = a
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
        return ((x * b00 + y * b10 + z * b20, x * b01 + y * b11 + z * b21,
                 x * b02 + y * b12 + z * b22),)
    raise ValueError(f"mat_mul takes 3x3 by 3x3, 1x3 by 3x3 or 2x2 by 2x2 matrices, "
                     f"not {len(a)} rows by {n}")


def mat_adj(m):
    """Adjugate of a 2x2 or 3x3 matrix, in closed form:
    mat_mul(m, mat_adj(m)) == det_matrix(m) * identity, and integer for an
    integer m.  ValueError for any other size."""
    n = len(m)
    if n == 2:
        (a, b), (c, d) = m
        return ((d, -b), (-c, a))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return ((e * i - f * h, c * h - b * i, b * f - c * e),
                (f * g - d * i, a * i - c * g, c * d - a * f),
                (d * h - e * g, b * g - a * h, a * e - b * d))
    raise ValueError(f"mat_adj takes 2x2 or 3x3 matrices, not {n}x{n}")


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


_IDENTITIES = {n: _identity(n) for n in (2, 3)}


def identity_matrix(n):
    """The n x n identity: one shared tuple for the sizes of group matrices."""
    return _IDENTITIES.get(n) or _identity(n)
