import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from g1min.exactnum import (
    INFINITY, LocalContext, complete_primitive_row, det_matrix,
    fp_left_kernel_vector, identity_matrix, is_prime, lift_primitive, mat_adj, mat_mul,
    smith_like_completion, unimodular_with_row, valuation,
)
import matrix_oracle

PRIMES = (2, 3, 5, 7, 11, 13)


def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(0, 5) is INFINITY
    assert valuation(Fraction(9, 2), 2) == -1


def test_infinity_sentinel_orders_above_everything():
    assert INFINITY > 10 ** 100
    assert not (INFINITY < 5)
    assert INFINITY >= INFINITY
    assert INFINITY == INFINITY


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
       st.sampled_from(PRIMES))
def test_valuation_is_multiplicative_and_ultrametric(x, y, p):
    vx, vy = valuation(x, p), valuation(y, p)
    if x and y:
        assert valuation(x * y, p) == vx + vy
    assert valuation(x + y, p) >= min(vx, vy)


def test_valuation_of_fractions():
    assert valuation(Fraction(4, 9), 3) == -2
    assert valuation(Fraction(4, 9), 2) == 2


# composites passing Miller-Rabin to every prime base up to 37 (psi_12, psi_13)
PSI_12 = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521


def test_is_prime():
    assert [n for n in range(2, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    bound = 2 * 10 ** 5
    sieve = [False, False] + [True] * (bound - 2)
    for q in range(2, isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, bound, q))
    assert [n for n in range(bound) if is_prime(n) != sieve[n]] == []
    strong_base_2 = (2047, 3277, 4033)
    strong_lucas = (5459, 5777, 10877)
    carmichael = (561, 41041, 825265)
    for n in strong_base_2 + strong_lucas + carmichael:
        assert not is_prime(n), n
    assert PSI_12 == 318665857834031151167461 and PSI_13 == 3317044064679887385961981
    assert not is_prime(PSI_12)
    assert not is_prime(PSI_13)
    assert not is_prime((2 ** 61 - 1) ** 2)
    assert not is_prime(2 ** 61 + 1)
    for e in (61, 89, 127, 521):
        assert is_prime(2 ** e - 1), e


def test_local_context_rejects_composites():
    with pytest.raises(ValueError):
        LocalContext(6)
    with pytest.raises(ValueError):
        LocalContext(PSI_12)


def test_smith_like_completion_examples():
    m = smith_like_completion((0, 1), 3)
    assert det_matrix(m) in (1, -1)
    assert tuple(x % 3 for x in m[0]) == (0, 1)

    assert smith_like_completion((1, 0), 5) == ((1, 0), (0, 1))

    m = smith_like_completion((1, 1, 2), 5)
    assert det_matrix(m) in (1, -1)
    assert tuple(x % 5 for x in m[0]) == (1, 1, 2)


def test_smith_like_completion_rejects_zero_vector():
    with pytest.raises(ValueError):
        smith_like_completion((10, 5), 5)


def test_completion_determinant_is_unit_randomised():
    rng = random.Random(1)
    for _ in range(300):
        p = rng.choice(PRIMES)
        n = rng.choice((2, 3))
        vec = [rng.randrange(-20, 20) for _ in range(n)]
        if all(v % p == 0 for v in vec):
            vec[0] += 1
        m = smith_like_completion(vec, p)
        assert det_matrix(m) in (1, -1)
        assert [x % p for x in m[0]] == [v % p for v in vec]


def test_unimodular_with_row_places_the_row():
    m = unimodular_with_row((2, 4, 1), 5, 2)
    assert det_matrix(m) in (1, -1)
    assert tuple(x % 5 for x in m[2]) == (2, 4, 1)


def test_lift_primitive_gcd_one():
    rng = random.Random(2)
    from math import gcd
    for _ in range(200):
        p = rng.choice(PRIMES)
        n = rng.choice((2, 3))
        vec = [rng.randrange(p) for _ in range(n)]
        if all(v == 0 for v in vec):
            vec[0] = 1
        lifted = lift_primitive(vec, p)
        g = 0
        for x in lifted:
            g = gcd(g, x)
        assert g == 1
        assert all((a - b) % p == 0 for a, b in zip(lifted, vec))


def test_lift_primitive_shifts():
    # a single nonzero entry lifts by shifting another slot by p
    assert lift_primitive((3, 0), 7) == (3, 7)
    # (6, 9) has gcd 3, so (6, 2) needs the fallback's shift by t p, t = 5
    assert lift_primitive((6, 2), 7) == (6, 37)


def test_complete_primitive_row():
    m = complete_primitive_row((6, 10, 15))
    assert m[0] == (6, 10, 15)
    assert det_matrix(m) in (1, -1)


def test_left_kernel_vector():
    rows = ((1, 2, 0), (2, 4, 0))
    ker = fp_left_kernel_vector(rows, 5)
    assert ker is not None
    assert all(sum(k * rows[i][c] for i, k in enumerate(ker)) % 5 == 0 for c in range(3))
    assert fp_left_kernel_vector(((1, 0), (0, 1)), 5) is None


def test_mat_adj_exact():
    m = ((3, 1), (5, 2))
    assert mat_adj(m) == ((2, -1), (-5, 3))
    assert mat_mul(m, mat_adj(m)) == ((1, 0), (0, 1))
    m = ((2, -1, 0), (1, 3, 4), (0, 5, -2))  # det -54
    adj = mat_adj(m)
    assert all(type(x) is int for row in adj for x in row)
    assert mat_mul(m, adj) == mat_mul(adj, m) == ((-54, 0, 0), (0, -54, 0), (0, 0, -54))


# entry samplers for the closed-form det/adj against the Laplace oracle
MATRIX_ENTRIES = {
    "small": lambda rng: rng.randint(-9, 9),
    "sparse": lambda rng: rng.choice((0, 0, 1, -1)),
    "300-digit": lambda rng: rng.randint(-10 ** 300, 10 ** 300),
    "fraction": lambda rng: Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
}


def _random_matrix(entry, n, rng, singular=False):
    rows = [[entry(rng) for _ in range(n)] for _ in range(n)]
    if singular:  # the last row becomes a combination of the others (zero for n = 1)
        coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
        rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)), 0) for j in range(n)]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("entries", list(MATRIX_ENTRIES))
def test_closed_form_det_and_adj_match_laplace_oracle(entries, n):
    rng = random.Random(f"{entries}:{n}")
    for trial in range(120):
        singular = trial % 3 == 0
        m = _random_matrix(MATRIX_ENTRIES[entries], n, rng, singular)
        det, adj = det_matrix(m), mat_adj(m)
        assert det == matrix_oracle.det_matrix(m)
        assert adj == matrix_oracle.mat_adj(m)
        if singular:
            assert det == 0
        if entries != "fraction":
            assert type(det) is int and all(type(x) is int for row in adj for x in row)
        scaled = tuple(tuple(det * x for x in row) for row in identity_matrix(n))
        assert mat_mul(m, adj) == mat_mul(adj, m) == scaled


# (rows of a, rows of b = columns of a, columns of b) for each closed-form product
PRODUCT_SHAPES = ((3, 3, 3), (1, 3, 3), (2, 2, 2), (1, 1, 1))


@pytest.mark.parametrize("shape", PRODUCT_SHAPES)
@pytest.mark.parametrize("entries", list(MATRIX_ENTRIES))
def test_closed_form_products_match_reference(entries, shape):
    rng = random.Random(f"product:{entries}:{shape}")
    rows, inner, cols = shape
    entry = MATRIX_ENTRIES[entries]
    for _ in range(120):
        a = tuple(tuple(entry(rng) for _ in range(inner)) for _ in range(rows))
        b = tuple(tuple(entry(rng) for _ in range(cols)) for _ in range(inner))
        prod = mat_mul(a, b)
        assert prod == matrix_oracle.mat_mul(a, b)
        assert len(prod) == rows and all(len(row) == cols for row in prod)
        if entries != "fraction":
            assert all(type(x) is int for row in prod for x in row)


def test_det_and_adj_refuse_4x4():
    m = identity_matrix(4)
    assert matrix_oracle.det_matrix(m) == 1
    with pytest.raises(ValueError):
        det_matrix(m)
    with pytest.raises(ValueError):
        mat_adj(m)


@pytest.mark.parametrize("shape", [(4, 4, 4), (2, 3, 3), (3, 3, 2), (3, 3, 1), (3, 2, 2),
                                   (1, 2, 2), (2, 2, 3), (2, 2, 1), (2, 1, 1), (1, 1, 2)])
def test_mat_mul_refuses_other_shapes(shape):
    rows, inner, cols = shape
    a = tuple(tuple(range(r * inner, (r + 1) * inner)) for r in range(rows))
    b = tuple(tuple(range(r * cols, (r + 1) * cols)) for r in range(inner))
    assert len(matrix_oracle.mat_mul(a, b)) == rows
    with pytest.raises(ValueError):
        mat_mul(a, b)
