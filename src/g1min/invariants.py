"""Invariant computations for all model kinds.

Binary quartics carry (I, J, Delta) with Delta = (4 I^3 - J^2)/27.  Ternary
cubics carry (c4, c6, Delta) normalised so that c4(xyz) = 1, c6(xyz) = -1 and
c4^3 - c6^2 = 1728 Delta; the two invariant polynomials are frozen coefficient
tables generated by tools/derive_cubic_invariants.py (degree-4 and degree-6
generators of the invariant ring, pinned by the xyz normalisation), evaluated
by one straight-line function compiled on first use (`models._straight_line`).

(2,2)-forms, cubes and hypercubes carry the full set: c4, c6, Delta, the
a-invariants of a Weierstrass equation, a marked point (xi, eta), and the
weight-2/3 invariants u = 12 xi + b2 and v = 2 eta + a1 xi + a3 satisfying

    (108 v)^2 = (3 u)^3 - 27 c4 (3 u) - 54 c6.

a4 and a6 are recovered from c4 and c6 by exact divisions that double as
integrality checks; on an integral model a division failure signals an
implementation bug; a rational model's are those of an integral multiple,
scaled back by homogeneity (`_homogeneous`).  `checked_invariants` is the
input gate of the minimisers and the (2,2) oracle.

`c4_c6` gives the weight-4/6 pair of every kind from one derived form, and
`discriminant` derives Delta from that pair (`discriminant_from`, for a
caller that holds the pair already); the global minimiser takes its
candidate primes from gcd(c4, c6).
"""

from dataclasses import astuple, dataclass, is_dataclass
from functools import wraps

from .exactnum import RefusedInputError, det_matrix, mat_adj, mat_mul
from .models import (
    HYPERCUBE_PAIRS, SingularModelError, _compiled, _num, _straight_line, cubic_of_cube,
    cubics_of_cube, form_of_hypercube, forms_of_hypercube, is_integral, quartics_of_22,
    scalar_clear,
)


def _exact_div(num, den, what):
    """num / den for ints, which must divide evenly.  Every caller passes ints:
    invariants of an integral model, or of `_homogeneous`'s integral multiple."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what}: division by {den} is not exact")
    return q


def discriminant_from(kind, c4, c6):
    """Delta from the weight-4/6 pair: (4 I^3 - J^2)/27 for quartics,
    (c4^3 - c6^2)/1728 for every other kind."""
    if kind == "quartic":
        return _exact_div(4 * c4 ** 3 - c6 ** 2, 27, "quartic discriminant")
    return _exact_div(c4 ** 3 - c6 ** 2, 1728, f"{kind} discriminant")


# an invariant of weight w (c4: 4, c6: 6, Delta: 12, a_i: i, xi, u: 2, eta,
# v: 3) has degree w d / 2 in the coefficients (a quartic's I, J: 2, 3)
_WEIGHT_2_DEGREE = {"quartic": 1, "cubic": 2, "form22": 2, "cube": 6, "hypercube": 4}
_SET_WEIGHTS = (4, 6, 12, (1, 2, 3, 4, 6), 2, 3, 2, 3)  # InvariantSet's fields


def _homogeneous(weights):
    """Extend fn, whose divisions are exact on integral models, to rational
    m: compute it on mu m = scalar_clear(m)[0] and divide each value of
    weight w by mu^(w d / 2); `weights` has the shape of fn's result."""
    def decorate(fn):
        @wraps(fn)
        def on_any_model(m):
            if getattr(m, "kind", None) not in _WEIGHT_2_DEGREE or is_integral(m):
                return fn(m)
            cleared, mu = scalar_clear(m)
            d = _WEIGHT_2_DEGREE[m.kind]

            def back(x, w):
                if is_dataclass(x):
                    return InvariantSet(*back(astuple(x), w))
                return tuple(map(back, x, w)) if type(w) is tuple else _num(x / mu ** (w * d // 2))
            return back(fn(cleared), weights)
        return on_any_model
    return decorate


def _quartic_i_j(G):
    a, b, c, d, e = G.coeffs
    i_inv = 12 * a * e - 3 * b * d + c * c
    j_inv = 72 * a * c * e - 27 * a * d * d - 27 * b * b * e + 9 * b * c * d - 2 * c ** 3
    return i_inv, j_inv


def quartic_invariants(G):
    """(I, J, Delta) of a binary quartic; exact (integral for integral input)."""
    return (*c4_c6(G), discriminant(G))


# frozen invariant tables for ternary cubics: each term is (coefficient,
# monomial) with the monomial given as indices into the 10-vector of cubic
# coefficients (see models.CUBIC_MONOMIALS for the exponent order).
_C4_TERMS = (  # 25 terms
    (144, (0, 3, 7, 9)),
    (-48, (0, 3, 8, 8)),
    (-216, (0, 4, 6, 9)),
    (24, (0, 4, 7, 8)),
    (144, (0, 5, 6, 8)),
    (-48, (0, 5, 7, 7)),
    (-48, (1, 1, 7, 9)),
    (16, (1, 1, 8, 8)),
    (144, (1, 2, 6, 9)),
    (-16, (1, 2, 7, 8)),
    (24, (1, 3, 4, 9)),
    (-16, (1, 3, 5, 8)),
    (-8, (1, 4, 4, 8)),
    (24, (1, 4, 5, 7)),
    (-48, (1, 5, 5, 6)),
    (-48, (2, 2, 6, 8)),
    (16, (2, 2, 7, 7)),
    (-48, (2, 3, 3, 9)),
    (24, (2, 3, 4, 8)),
    (-16, (2, 3, 5, 7)),
    (-8, (2, 4, 4, 7)),
    (24, (2, 4, 5, 6)),
    (16, (3, 3, 5, 5)),
    (-8, (3, 4, 4, 5)),
    (1, (4, 4, 4, 4)),
)
_C6_TERMS = (  # 103 terms
    (5832, (0, 0, 6, 6, 9, 9)),
    (-3888, (0, 0, 6, 7, 8, 9)),
    (864, (0, 0, 6, 8, 8, 8)),
    (864, (0, 0, 7, 7, 7, 9)),
    (-216, (0, 0, 7, 7, 8, 8)),
    (-3888, (0, 1, 3, 6, 9, 9)),
    (1296, (0, 1, 3, 7, 8, 9)),
    (-288, (0, 1, 3, 8, 8, 8)),
    (1296, (0, 1, 4, 6, 8, 9)),
    (-864, (0, 1, 4, 7, 7, 9)),
    (144, (0, 1, 4, 7, 8, 8)),
    (1296, (0, 1, 5, 6, 7, 9)),
    (-864, (0, 1, 5, 6, 8, 8)),
    (144, (0, 1, 5, 7, 7, 8)),
    (1296, (0, 2, 3, 6, 8, 9)),
    (-864, (0, 2, 3, 7, 7, 9)),
    (144, (0, 2, 3, 7, 8, 8)),
    (1296, (0, 2, 4, 6, 7, 9)),
    (-864, (0, 2, 4, 6, 8, 8)),
    (144, (0, 2, 4, 7, 7, 8)),
    (-3888, (0, 2, 5, 6, 6, 9)),
    (1296, (0, 2, 5, 6, 7, 8)),
    (-288, (0, 2, 5, 7, 7, 7)),
    (864, (0, 3, 3, 3, 9, 9)),
    (-864, (0, 3, 3, 4, 8, 9)),
    (-864, (0, 3, 3, 5, 7, 9)),
    (576, (0, 3, 3, 5, 8, 8)),
    (648, (0, 3, 4, 4, 7, 9)),
    (72, (0, 3, 4, 4, 8, 8)),
    (1296, (0, 3, 4, 5, 6, 9)),
    (-720, (0, 3, 4, 5, 7, 8)),
    (-864, (0, 3, 5, 5, 6, 8)),
    (576, (0, 3, 5, 5, 7, 7)),
    (-540, (0, 4, 4, 4, 6, 9)),
    (-36, (0, 4, 4, 4, 7, 8)),
    (648, (0, 4, 4, 5, 6, 8)),
    (72, (0, 4, 4, 5, 7, 7)),
    (-864, (0, 4, 5, 5, 6, 7)),
    (864, (0, 5, 5, 5, 6, 6)),
    (864, (1, 1, 1, 6, 9, 9)),
    (-288, (1, 1, 1, 7, 8, 9)),
    (64, (1, 1, 1, 8, 8, 8)),
    (-864, (1, 1, 2, 6, 8, 9)),
    (576, (1, 1, 2, 7, 7, 9)),
    (-96, (1, 1, 2, 7, 8, 8)),
    (-216, (1, 1, 3, 3, 9, 9)),
    (144, (1, 1, 3, 4, 8, 9)),
    (144, (1, 1, 3, 5, 7, 9)),
    (-96, (1, 1, 3, 5, 8, 8)),
    (72, (1, 1, 4, 4, 7, 9)),
    (-48, (1, 1, 4, 4, 8, 8)),
    (-864, (1, 1, 4, 5, 6, 9)),
    (144, (1, 1, 4, 5, 7, 8)),
    (576, (1, 1, 5, 5, 6, 8)),
    (-216, (1, 1, 5, 5, 7, 7)),
    (-864, (1, 2, 2, 6, 7, 9)),
    (576, (1, 2, 2, 6, 8, 8)),
    (-96, (1, 2, 2, 7, 7, 8)),
    (144, (1, 2, 3, 3, 8, 9)),
    (-720, (1, 2, 3, 4, 7, 9)),
    (144, (1, 2, 3, 4, 8, 8)),
    (1296, (1, 2, 3, 5, 6, 9)),
    (-48, (1, 2, 3, 5, 7, 8)),
    (648, (1, 2, 4, 4, 6, 9)),
    (-24, (1, 2, 4, 4, 7, 8)),
    (-720, (1, 2, 4, 5, 6, 8)),
    (144, (1, 2, 4, 5, 7, 7)),
    (144, (1, 2, 5, 5, 6, 7)),
    (144, (1, 3, 3, 4, 5, 9)),
    (-96, (1, 3, 3, 5, 5, 8)),
    (-36, (1, 3, 4, 4, 4, 9)),
    (-24, (1, 3, 4, 4, 5, 8)),
    (144, (1, 3, 4, 5, 5, 7)),
    (-288, (1, 3, 5, 5, 5, 6)),
    (12, (1, 4, 4, 4, 4, 8)),
    (-36, (1, 4, 4, 4, 5, 7)),
    (72, (1, 4, 4, 5, 5, 6)),
    (864, (2, 2, 2, 6, 6, 9)),
    (-288, (2, 2, 2, 6, 7, 8)),
    (64, (2, 2, 2, 7, 7, 7)),
    (576, (2, 2, 3, 3, 7, 9)),
    (-216, (2, 2, 3, 3, 8, 8)),
    (-864, (2, 2, 3, 4, 6, 9)),
    (144, (2, 2, 3, 4, 7, 8)),
    (144, (2, 2, 3, 5, 6, 8)),
    (-96, (2, 2, 3, 5, 7, 7)),
    (72, (2, 2, 4, 4, 6, 8)),
    (-48, (2, 2, 4, 4, 7, 7)),
    (144, (2, 2, 4, 5, 6, 7)),
    (-216, (2, 2, 5, 5, 6, 6)),
    (-288, (2, 3, 3, 3, 5, 9)),
    (72, (2, 3, 3, 4, 4, 9)),
    (144, (2, 3, 3, 4, 5, 8)),
    (-96, (2, 3, 3, 5, 5, 7)),
    (-36, (2, 3, 4, 4, 4, 8)),
    (-24, (2, 3, 4, 4, 5, 7)),
    (144, (2, 3, 4, 5, 5, 6)),
    (12, (2, 4, 4, 4, 4, 7)),
    (-36, (2, 4, 4, 4, 5, 6)),
    (64, (3, 3, 3, 5, 5, 5)),
    (-48, (3, 3, 4, 4, 5, 5)),
    (12, (3, 4, 4, 4, 4, 5)),
    (-1, (4, 4, 4, 4, 4, 4)),
)


_C4_C6_TERMS = (_C4_TERMS, _C6_TERMS)  # one table: compiled into one function on first use


def cubic_invariants(F):
    """(c4, c6, Delta) of a ternary cubic under the xyz normalisation."""
    return (*c4_c6(F), discriminant(F))


@dataclass(frozen=True)
class InvariantSet:
    """Full invariant data of a model with a marked point."""

    c4: int
    c6: int
    disc: int
    a_invariants: tuple  # (a1, a2, a3, a4, a6)
    xi: int
    eta: int
    u: int
    v: int

    @property
    def point(self):
        return (self.xi, self.eta)


def _invariant_set(kind, c4, c6, a1, a2, a3, xi, eta, v):
    """The InvariantSet of a model with these c4, c6, a1, a2, a3 and marked
    point (xi, eta), checked: v, given in closed form, must equal
    2 eta + a1 xi + a3, the syzygy must hold and the point lie on the curve.
    a4 and a6 come from c4 and c6 by exact divisions."""
    b2 = a1 * a1 + 4 * a2
    b4 = _exact_div(b2 * b2 - c4, 24, f"{kind} b4 recovery")
    b6 = _exact_div(-(b2 ** 3) + 36 * b2 * b4 - c6, 216, f"{kind} b6 recovery")
    a4 = _exact_div(b4 - a1 * a3, 2, f"{kind} a4 recovery")
    a6 = _exact_div(b6 - a3 * a3, 4, f"{kind} a6 recovery")
    u = 12 * xi + b2
    if v != 2 * eta + a1 * xi + a3:
        raise AssertionError(f"{kind}: v differs from its closed form")
    if (108 * v) ** 2 != (3 * u) ** 3 - 27 * c4 * (3 * u) - 54 * c6:
        raise AssertionError(f"{kind}: weight-2/3 syzygy failed")
    if eta * eta + a1 * xi * eta + a3 * eta != xi ** 3 + a2 * xi * xi + a4 * xi + a6:
        raise AssertionError(f"{kind}: marked point is not on the curve")
    return InvariantSet(c4, c6, discriminant_from(kind, c4, c6), (a1, a2, a3, a4, a6),
                        xi, eta, u, v)


def _form22_c4_c6(g):
    """(c4, c6) = (I, J/2) of a (2,2)-form from one of its two quartics."""
    i_inv, j_inv = _quartic_i_j(g)
    return i_inv, _exact_div(j_inv, 2, "(2,2) second invariant")


@_homogeneous(_SET_WEIGHTS)
def form22_invariants(F):
    """InvariantSet of a (2,2)-form (exact; both derived quartics must agree)."""
    g1, g2 = quartics_of_22(F)
    c4, c6 = _form22_c4_c6(g1)
    if _form22_c4_c6(g2) != (c4, c6):
        raise AssertionError("the two quartics of a (2,2)-form disagree on I, J")
    a = F.rows
    a2 = -(a[0][0] * a[2][2] + a[0][1] * a[2][1] + a[0][2] * a[2][0] + a[1][0] * a[1][2])
    a3 = (a[0][1] * a[1][2] * a[2][0] + a[0][2] * a[1][0] * a[2][1]
          - a[0][0] * a[1][2] * a[2][1] - a[0][1] * a[1][0] * a[2][2])
    xi, eta = a[0][0] * a[2][2] + a[0][2] * a[2][0], a[0][0] * a[1][1] * a[2][2]
    return _invariant_set("form22", c4, c6, -a[1][1], a2, a3, xi, eta, det_matrix(a))  # v = det a


def _tr(m):
    return m[0][0] + m[1][1] + m[2][2]


def _mat_add(a, b, sign=1):
    return tuple(tuple(x + sign * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


@_homogeneous(_SET_WEIGHTS)
def cube_invariants(S):
    """InvariantSet of a 3x3x3 cube (marked-point data from the first slicing)."""
    f1, f2, f3 = cubics_of_cube(S)
    c4, c6 = c4_c6(f1)
    for other in (f2, f3):
        if c4_c6(other) != (c4, c6):
            raise AssertionError("cube slicings disagree on c4, c6")
    m0, n0, p0 = S.slices(0)
    # adj(la*N + mu*P) M = la^2 A + la mu B + mu^2 C
    a_mat = mat_mul(mat_adj(n0), m0)
    c_mat = mat_mul(mat_adj(p0), m0)
    mixed = _mat_add(_mat_add(mat_adj(_mat_add(n0, p0)), mat_adj(n0), -1), mat_adj(p0), -1)
    b_mat = mat_mul(mixed, m0)
    tr_ac = _tr(mat_mul(a_mat, c_mat))
    tr_abc = _tr(mat_mul(mat_mul(a_mat, b_mat), c_mat))
    tr_cba = _tr(mat_mul(mat_mul(c_mat, b_mat), a_mat))
    a1 = _tr(b_mat)
    a2 = tr_ac + _tr(a_mat) * _tr(c_mat) - _tr(mat_adj(b_mat))
    # (xi, eta) = (-tr(AC), -tr(CBA)) and v = tr(ABC) - tr(CBA)
    return _invariant_set("cube", c4, c6, a1, a2, tr_abc + tr_cba + tr_ac * a1, -tr_ac, -tr_cba,
                          tr_abc - tr_cba)


# the three axis pairings of a hypercube; each pairing gives one marked point
HYPERCUBE_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


@dataclass(frozen=True)
class HypercubeInvariants:
    c4: int
    c6: int
    disc: int
    pair_invariants: tuple  # three InvariantSets, one per pairing (from the first form)

    @property
    def points_on_common_model(self):
        """The three marked points (3u, 108v) on y^2 = x^3 - 27 c4 x - 54 c6."""
        return tuple((3 * inv.u, 108 * inv.v) for inv in self.pair_invariants)


def hypercube_invariants(H):
    """Common invariants plus the three marked points of a hypercube."""
    forms = forms_of_hypercube(H)
    sets = {pair: form22_invariants(forms[pair]) for pair in HYPERCUBE_PAIRS}
    base = sets[(0, 1)]
    for pair in HYPERCUBE_PAIRS:
        if (sets[pair].c4, sets[pair].c6) != (base.c4, base.c6):
            raise AssertionError("hypercube forms disagree on c4, c6")
    pair_sets = []
    for first, second in HYPERCUBE_PAIRINGS:
        if (sets[first].u, sets[first].v) != (sets[second].u, sets[second].v):
            raise AssertionError(f"paired forms {first}/{second} disagree on (u, v)")
        pair_sets.append(sets[first])
    return HypercubeInvariants(base.c4, base.c6, base.disc, tuple(pair_sets))


# (c4, c6) of each kind from its cheapest derived form: (I, J) for quartics,
# the first quartic of a (2,2)-form, the first determinantal cubic of a cube,
# the form F_01 of a hypercube.  A step at p multiplies the pair by
# (chi^4, chi^6) and Delta by chi^12.
_C4_C6 = {
    "quartic": _quartic_i_j,
    "form22": lambda m: _form22_c4_c6(quartics_of_22(m)[0]),
    "cubic": lambda m: _compiled(_C4_C6_TERMS, lambda t: _straight_line(t, (10,)))(m.coeffs),
    "cube": lambda m: _C4_C6["cubic"](cubic_of_cube(m, 0)),
    "hypercube": lambda m: _C4_C6["form22"](form_of_hypercube(m, 0, 1)),
}


@_homogeneous((4, 6))
def c4_c6(m):
    """The weight-4 and weight-6 invariants of any model kind: (I, J) for
    binary quartics, (c4, c6) for the rest."""
    fn = _C4_C6.get(getattr(m, "kind", None))
    if fn is None:
        raise TypeError(f"not a model: {m!r}")
    return fn(m)


@_homogeneous(12)
def discriminant(m):
    """Delta of any model kind, derived from c4_c6."""
    c4, c6 = c4_c6(m)
    return discriminant_from(m.kind, c4, c6)


def refuse_non_integral(m):
    """Refuse a non-integral model: SingularModelError when Delta = 0, else
    RefusedInputError."""
    if discriminant(m) == 0:
        raise SingularModelError("singular model")
    raise RefusedInputError("model must be integral")


def checked_invariants(m):
    """(c4, c6, Delta) of m once it passes the input checks: a singular
    model raises SingularModelError, then a non-integral one
    RefusedInputError (`refuse_non_integral`)."""
    if not is_integral(m):
        refuse_non_integral(m)
    c4, c6 = c4_c6(m)
    disc = discriminant_from(m.kind, c4, c6)
    if disc == 0:
        raise SingularModelError("singular model")
    return c4, c6, disc
