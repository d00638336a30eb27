import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

import g1min
from g1min.exactnum import (
    INFINITY, LocalContext, RefusedInputError, _form_to_last, _strong_lucas_probable_prime,
    _strong_probable_prime_base_2, _unimodular_with_row, complete_primitive_row, det_matrix,
    form_to_last, fp_left_kernel_vector, fp_poly_gcd, identity_matrix, is_prime,
    lift_primitive, mat_adj, mat_mul, unimodular_with_row, valuation,
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


def _valuation_by_single_divisions(x, p):
    """valuation as it was: one division by p per unit of valuation."""
    if type(x) is Fraction:
        if x == 0:
            return INFINITY
        return (_valuation_by_single_divisions(x.numerator, p)
                - _valuation_by_single_divisions(x.denominator, p))
    if x == 0:
        return INFINITY
    x, v = abs(x), 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65537, 2 ** 61 - 1])
def test_valuation_matches_single_divisions(p):
    rng = random.Random(f"valuation:{p}")
    for _ in range(300):
        x = rng.choice((-1, 1)) * rng.randrange(1, 10 ** 6) * p ** rng.randrange(0, 70)
        y = rng.randrange(1, 10 ** 4) * p ** rng.randrange(0, 40)
        for z in (x, x + rng.randrange(-3, 4), Fraction(x, y)):
            assert valuation(z, p) == _valuation_by_single_divisions(z, p)
    assert valuation(0, p) is INFINITY
    assert valuation(Fraction(0), p) is INFINITY


# (x, p) with p < 2: every x is divisible by 1 and by -1, so a valuation
# there would divide forever; p = 0 would divide by zero, and x = 0 or a
# remainder would answer for a base that has no valuation
BELOW_TWO_CALLS = ((5, 1), (-12, -1), (Fraction(1, 3), 1), (0, 1),
                   *((x, p) for p in (0, -3) for x in (5, 0, Fraction(1, 3))))


def test_valuation_refuses_bases_below_two():
    # every p < 2 is refused before x is read.  The calls run in a child
    # process, so that a hang fails the test and stalls nothing
    code = ("from fractions import Fraction\n"
            "from g1min import BinaryQuartic, RefusedInputError, content_valuation, valuation\n"
            f"calls = [lambda x=x, p=p: valuation(x, p) for x, p in {BELOW_TWO_CALLS!r}]\n"
            "calls.append(lambda: content_valuation(BinaryQuartic((2, 0, 0, 0, 4)), 1))\n"
            "for call in calls:\n"
            "    try:\n"
            "        call()\n"
            "    except RefusedInputError as refusal:\n"
            "        print(refusal)\n")
    src = os.path.dirname(os.path.dirname(g1min.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=30)
    bases = [p for _, p in BELOW_TWO_CALLS] + [1]
    assert out.stdout.splitlines() == [f"valuations need p >= 2, got {p}" for p in bases]
    # the child returned, so the same calls in process cannot hang
    for x, p in BELOW_TWO_CALLS:
        with pytest.raises(RefusedInputError, match=f"^valuations need p >= 2, got {p}$"):
            valuation(x, p)


@pytest.mark.parametrize("p", [2, 3, 2 ** 61 - 1])
def test_valuation_of_deep_powers_past_the_digit_limit(p):
    # 10^4400 is past CPython's 4300-digit int <-> str limit; at p = 2 the
    # single-division loop took 4400 divisions of a 14,600-bit int.  Each
    # base's valuation is taken once by that loop, and base * p^e must read
    # e more; the exponents straddle powers of two, where the descent turns
    big = 10 ** 4400
    for base in (big, -big, big + 1):
        v_base = _valuation_by_single_divisions(base, p)
        for e in (0, 1, 2, 3, 15, 16, 17, 63, 64, 65, 1000, 4097):
            assert valuation(base * p ** e, p) == v_base + e
    v_big = 4400 if p == 2 else 0
    assert valuation(big * p ** 5, p) == v_big + 5
    assert valuation(Fraction(p + 1, big * p ** 7), p) == -v_big - 7


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
    # squares of the Wieferich primes pass the strong base-2 test, so only
    # the perfect-square check rejects them
    for n in (1093 ** 2, 3511 ** 2):
        assert _strong_probable_prime_base_2(n) and not is_prime(n), n
    # (5/35) = 0: D = 5 shares a factor with n, which the Lucas test refuses at once
    assert _strong_lucas_probable_prime(35) is False
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


def test_unimodular_with_row_examples():
    m = unimodular_with_row((0, 1), 3, 0)
    assert det_matrix(m) in (1, -1)
    assert tuple(x % 3 for x in m[0]) == (0, 1)

    assert unimodular_with_row((1, 0), 5, 0) == ((1, 0), (0, 1))

    m = unimodular_with_row((1, 1, 2), 5, 0)
    assert det_matrix(m) in (1, -1)
    assert tuple(x % 5 for x in m[0]) == (1, 1, 2)


def test_unimodular_with_row_rejects_zero_vector():
    with pytest.raises(ValueError, match=r"^\(10, 5\) is zero mod 5$"):
        unimodular_with_row((10, 5), 5, 0)


def test_completion_determinant_is_unit_randomised():
    rng = random.Random(1)
    for _ in range(300):
        p = rng.choice(PRIMES)
        n = rng.choice((2, 3))
        vec = [rng.randrange(-20, 20) for _ in range(n)]
        if all(v % p == 0 for v in vec):
            vec[0] += 1
        m = unimodular_with_row(vec, p, 0)
        assert det_matrix(m) in (1, -1)
        assert [x % p for x in m[0]] == [v % p for v in vec]


MEMO_PRIMES = (2, 3, 5, 7, 65537, 2 ** 61 - 1)


def _random_residue_vectors(rng, n, p, count=30):
    """Vectors nonzero mod p with negative and unreduced entries."""
    while count:
        vec = tuple(rng.randrange(-3 * p, 3 * p) for _ in range(n))
        if any(x % p for x in vec):
            count -= 1
            yield vec


def _is_int_matrix(m):
    return (type(m) is tuple and all(type(row) is tuple for row in m)
            and all(type(x) is int for row in m for x in row))


@pytest.mark.parametrize("p", MEMO_PRIMES)
def test_memoised_moves_equal_their_uncached_builds(p):
    # the caches are keyed on residues mod p; the uncached builds reduce
    # (lift_primitive) themselves, so they take the caller's vector as is.
    # form_to_last moves ternary lines only: its inverse is a 3x3 adjugate
    rng = random.Random(f"memo:{p}")
    for n in (2, 3):
        for vec in _random_residue_vectors(rng, n, p):
            for row in range(n):
                m = unimodular_with_row(vec, p, row)
                assert m == _unimodular_with_row.__wrapped__(vec, p, row)
                assert _is_int_matrix(m)
                assert det_matrix(m) in (1, -1)
                assert [x % p for x in m[row]] == [x % p for x in vec]
            if n == 2:
                continue
            A = form_to_last(vec, p)
            assert A == _form_to_last.__wrapped__(vec, p)
            assert _is_int_matrix(A)
            # a second call returns the shared build
            assert form_to_last([x + p for x in vec], p) is A


def test_move_caches_are_bounded():
    for memo in (_unimodular_with_row, _form_to_last):
        assert type(memo.cache_info().maxsize) is int


def test_form_to_last_rejects_zero_vector():
    with pytest.raises(ValueError, match=r"^\(7, -14, 0\) is zero mod 7$"):
        form_to_last((7, -14, 0), 7)


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
    # Euclid ends on -1 here, and the sign is moved into the completion
    assert complete_primitive_row((-1, 0)) == ((-1, 0), (0, 1))


def test_fp_poly_gcd_is_monic():
    # (x - 1)(x - 2) and 2 (x - 1)(x - 3) over F_5, low degree first
    assert fp_poly_gcd([2, 2, 1], [1, 2, 2], 5) == [4, 1]
    assert fp_poly_gcd([], [0, 3], 5) == [0, 1]
    assert fp_poly_gcd([], [], 5) == []


def test_left_kernel_vector():
    rows = ((1, 2, 0), (2, 4, 0))
    ker = fp_left_kernel_vector(rows, 5)
    assert ker is not None
    assert all(sum(k * rows[i][c] for i, k in enumerate(ker)) % 5 == 0 for c in range(3))
    assert fp_left_kernel_vector(((1, 0), (0, 1)), 5) is None


def test_left_kernel_vector_matches_gauss_jordan_on_every_2x8_matrix_mod_2():
    for bits in itertools.product((0, 1), repeat=16):
        rows = (bits[:8], bits[8:])
        assert fp_left_kernel_vector(rows, 2) == matrix_oracle.fp_left_kernel_vector(rows, 2), rows


def _kernel_case(m, n, p, rng):
    """m rows of length n: random, sparse, or with one row (up to multiples of
    p) a combination of the others, in random order; sometimes a row is zero
    mod p."""
    shape = rng.random()
    if shape < 0.3:
        rows = [[rng.randrange(-3 * p, 3 * p) for _ in range(n)] for _ in range(m)]
    elif shape < 0.5:
        rows = [[rng.choice((0, 0, 1, -1, p)) for _ in range(n)] for _ in range(m)]
    else:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m - 1)]
        weights = [rng.choice((0, 1, rng.randrange(p))) for _ in rows]
        rows.append([sum(w * row[j] for w, row in zip(weights, rows)) + p * rng.randint(-2, 2)
                     for j in range(n)])
        rng.shuffle(rows)
    if rng.random() < 0.15:
        rows[rng.randrange(m)] = [p * rng.randint(-2, 2) for _ in range(n)]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("p", (2, 3, 5, 65537, 2 ** 61 - 1))
@pytest.mark.parametrize("m", (2, 3))
def test_left_kernel_vector_matches_gauss_jordan_reference(m, p):
    # the closed form (2 rows) and the forward elimination (3 rows) return
    # exactly the vector of full Gauss-Jordan elimination, on slice shapes
    # (2 x 8, 2 x 2, 3 x 9) and others
    rng = random.Random(f"kernel:{m}:{p}")
    dependent = 0
    for _ in range(2000):
        rows = _kernel_case(m, rng.choice((1, 2, 3, 8, 9)), p, rng)
        ker = fp_left_kernel_vector(rows, p)
        assert ker == matrix_oracle.fp_left_kernel_vector(rows, p), rows
        if ker is not None:
            dependent += 1
            assert any(ker) and all(0 <= c < p for c in ker)
            assert all(sum(c * row[j] for c, row in zip(ker, rows)) % p == 0
                       for j in range(len(rows[0])))
    assert dependent >= 500


def test_mat_adj_exact():
    m = ((2, -1, 0), (1, 3, 4), (0, 5, -2))  # det -54
    adj = mat_adj(m)
    assert all(type(x) is int for row in adj for x in row)
    assert mat_mul(m, adj) == mat_mul(adj, m) == ((-54, 0, 0), (0, -54, 0), (0, 0, -54))
    # the library inverts only 3x3 completions: a 2x2 adjugate is refused
    with pytest.raises(ValueError, match=r"^mat_adj takes 3x3 matrices, not 2x2$"):
        mat_adj(((3, 1), (5, 2)))


# entry samplers for the closed-form det/adj against the Laplace oracle
MATRIX_ENTRIES = {
    "small": lambda rng: rng.randint(-9, 9),
    "sparse": lambda rng: rng.choice((0, 0, 1, -1)),
    "300-digit": lambda rng: rng.randint(-10 ** 300, 10 ** 300),
    "fraction": lambda rng: Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
}


def _random_matrix(entry, n, rng, singular=False):
    rows = [[entry(rng) for _ in range(n)] for _ in range(n)]
    if singular:  # the last row becomes a combination of the others
        coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
        rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)), 0) for j in range(n)]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("entries", list(MATRIX_ENTRIES))
def test_closed_form_det_and_adj_match_laplace_oracle(entries, n):
    # det_matrix has a closed form at n = 2 and 3, mat_adj at n = 3 only; at
    # n = 2 the Laplace oracle's adjugate checks the oracle's own identity
    rng = random.Random(f"{entries}:{n}")
    for trial in range(120):
        singular = trial % 3 == 0
        m = _random_matrix(MATRIX_ENTRIES[entries], n, rng, singular)
        det = det_matrix(m)
        adj = mat_adj(m) if n == 3 else matrix_oracle.mat_adj(m)
        assert det == matrix_oracle.det_matrix(m)
        assert adj == matrix_oracle.mat_adj(m)
        if singular:
            assert det == 0
        if entries != "fraction":
            assert type(det) is int and all(type(x) is int for row in adj for x in row)
        scaled = tuple(tuple(det * x for x in row) for row in identity_matrix(n))
        assert mat_mul(m, adj) == mat_mul(adj, m) == scaled


# (rows of a, rows of b = columns of a, columns of b) for each closed-form product
PRODUCT_SHAPES = ((3, 3, 3), (1, 3, 3), (2, 2, 2))


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
    # 1x1 too: no group matrix, form matrix or completion has either size
    for m in (identity_matrix(4), ((7,),)):
        assert matrix_oracle.det_matrix(m) == m[0][0]
        with pytest.raises(ValueError):
            det_matrix(m)
        with pytest.raises(ValueError):
            mat_adj(m)


@pytest.mark.parametrize("shape", [(4, 4, 4), (2, 3, 3), (3, 3, 2), (3, 3, 1), (3, 2, 2),
                                   (1, 2, 2), (2, 2, 3), (2, 2, 1), (2, 1, 1), (1, 1, 2),
                                   (1, 1, 1)])
def test_mat_mul_refuses_other_shapes(shape):
    rows, inner, cols = shape
    a = tuple(tuple(range(r * inner, (r + 1) * inner)) for r in range(rows))
    b = tuple(tuple(range(r * cols, (r + 1) * cols)) for r in range(inner))
    assert len(matrix_oracle.mat_mul(a, b)) == rows
    with pytest.raises(ValueError):
        mat_mul(a, b)
