import random

import pytest

from g1min import (
    BinaryQuartic, Cube, Hypercube, TernaryCubic, TwoTwoForm, WeierstrassCurve, discriminant,
)


# a hypercube at p = 2 whose minimisation takes two singular-point stretches in a row
HYPERCUBE_CHAIN_2 = (2884, 2312, 3576, 2808, -2236, -1812, -2776, -2200,
                     3664, 2888, 4560, 3512, -2844, -2264, -3544, -2752)


def nonzero_disc(make, rng, tries=200):
    for _ in range(tries):
        m = make(rng)
        if discriminant(m) != 0:
            return m
    raise RuntimeError("could not sample a nonsingular model")


def random_quartic(rng, bound=8):
    return BinaryQuartic(tuple(rng.randint(-bound, bound) for _ in range(5)))


def random_form22(rng, bound=8):
    return TwoTwoForm(tuple(tuple(rng.randint(-bound, bound) for _ in range(3))
                            for _ in range(3)))


def random_cubic(rng, bound=6):
    return TernaryCubic(tuple(rng.randint(-bound, bound) for _ in range(10)))


def random_cube(rng, bound=5):
    return Cube(tuple(tuple(tuple(rng.randint(-bound, bound) for _ in range(3))
                            for _ in range(3)) for _ in range(3)))


def random_hypercube(rng, bound=4):
    return Hypercube(tuple(tuple(tuple(tuple(rng.randint(-bound, bound) for _ in range(2))
                                       for _ in range(2)) for _ in range(2)) for _ in range(2)))


def levi_civita_cube():
    eps = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j, k, s) in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                         (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
        eps[i][j][k] = s
    return Cube(tuple(tuple(tuple(r) for r in pl) for pl in eps))


def identity_hypercube():
    h = [[[[0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for (i, j, k, l) in ((0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)):
        h[i][j][k][l] = 1
    return Hypercube(tuple(tuple(tuple(tuple(r) for r in pl) for pl in blk) for blk in h))


def perturb_entries(m, scale, rng, bound=2):
    """m + scale * (random integer model of the same kind)."""
    kind = m.kind
    if kind == "cube":
        e = m.entries
        new = tuple(tuple(tuple(e[i][j][k] + scale * rng.randint(-bound, bound)
                                for k in range(3)) for j in range(3)) for i in range(3))
        return Cube(new)
    if kind == "hypercube":
        e = m.entries
        new = tuple(tuple(tuple(tuple(e[i][j][k][l] + scale * rng.randint(-bound, bound)
                                      for l in range(2)) for k in range(2))
                          for j in range(2)) for i in range(2))
        return Hypercube(new)
    raise ValueError(kind)


def kodaira_family(p):
    """One curve per Kodaira type, typed for p >= 5: I_n, II, III, IV, I0*,
    I_m*, IV*, III*, II*, and a non-minimal one; plus the same curves scaled
    by u = p, which `tate_minimal`'s u = p descent (Laska 1982) must undo at
    every prime.  At p = 2 and 3 the types may differ; the curves with
    p | disc are kept all the same."""
    base = [
        (0, 1, 0, 0, p ** 3), (0, 1, 0, 0, p ** 12), (0, 0, 0, 0, p), (0, 0, 0, p, 0),
        (0, 0, 0, 0, p * p), (0, 0, 0, -p * p, 0), (0, p, 0, 0, p ** 4),
        (0, p, 0, 0, p ** 9), (0, 0, 0, 0, p ** 4), (0, 0, 0, p ** 3, 0),
        (0, 0, 0, 0, p ** 5), (0, 0, 0, p ** 4, p ** 6), (1, -1, 1, -p, p * p),
    ]
    curves = [WeierstrassCurve(*a) for a in base]
    curves += [WeierstrassCurve(*(x * p ** w for x, w in zip(a, (1, 2, 3, 4, 6)))) for a in base]
    return [E for E in curves if E.disc != 0 and E.disc % p == 0]


@pytest.fixture
def rng():
    return random.Random(20260808)


def quartic_slope_oracle_minimal(G, p):
    """Independent minimality check for binary quartics: non-minimal iff some
    equivalent form vanishes to depth 2s+2 under x2 -> p^s x2 (s <= 2), and
    the stretch sees the pre-substitution only through its first-row
    direction in P^1(Z/p^s)."""
    from g1min.construct import _stretch_classes
    from g1min.exactnum import valuation
    from substitution_oracle import binary_form_substitute

    for s in (0, 1, 2):
        for u_mat in _stretch_classes(p, s):
            coeffs = binary_form_substitute(G.coeffs, u_mat)
            if all(valuation(c, p) >= 2 * s + 2 - s * i for i, c in enumerate(coeffs)):
                return False
    return True
