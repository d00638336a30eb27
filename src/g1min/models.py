"""The five model kinds, their group actions, and derived-form maps.

Every model stores one flat coefficient tuple `coeffs`, in the order the JSON
format uses as well:

* binary quartic   -- (a, b, c, d, e) for a*x1^4 + b*x1^3*x2 + ... + e*x2^4
* (2,2)-form       -- 3x3 matrix a[r][c] row-major, row r <-> x1^(2-r) x2^r,
                      column c <-> y1^(2-c) y2^c
* ternary cubic    -- 10 coefficients in the monomial order CUBIC_MONOMIALS
* cube             -- 3x3x3 array s[i][j][k], i outermost (trilinear form
                      sum s_ijk x_i y_j z_k)
* hypercube        -- 2x2x2x2 array h[i][j][k][l], i outermost

The constructors take the nested layouts; `rows`, `entries` and `slices`
are views that index the flat tuple.  Coefficients are ints: the
constructors refuse any other type (a bool, a Fraction) with
RefusedInputError, and `model_from_dict` reads "4/2" or "1e3" as an int.
Models and group elements are namedtuple records, immutable, equal and
hashed by their fields.

Row vectors act on the right: a substitution by the matrix A replaces the
variable row (x1, x2) with (x1, x2) A.  Group elements are one int matrix
per tensor factor and one Fraction scalar; their one constructor only
validates, and it refuses a rational matrix entry, in a move or in a
certificate alike.
Every kind is a tensor space on which the group acts one factor at a time, so
one routine, `act`, serves them all; the per-kind entry in SPECS records the
tensor shape, the matrix sizes, the matrix each group matrix induces on its
tensor axis (Sym^4, Sym^2 or Sym^3 of it for quartics, (2,2)-forms and ternary
cubics, the matrix itself for cubes and hypercubes) and the powers of the
scalar in `act` and in `chi`; a ternary cubic goes to mu F((x, y, z) A), so
its discriminant scales by (mu det A)^12.  The one substitution,
`sym_power_matrix(A, k)`, serves forms in n = len(A) variables from an index
table of (coefficient, (flat positions of A...)) terms per (n, k).  `act` is
integer: it contracts with the int matrices, multiplies by the scalar
numerator's power and divides by its denominator's, and returns None where
that division leaves a remainder, as the image is then not integral.  A
factor equal to the identity costs nothing: `act` skips its contraction and
`GroupElement.compose` its matrix product, so axis moves, scalings and
the identity certificate do work only on the factors they change.
Products are not re-checked: they carry their matrices' determinants from
their factors.

The derived forms (three determinantal cubics of a cube, six (2,2)-forms of a
hypercube, two quartics of a (2,2)-form) come from index tables built at import.
Every fixed table, Sym^k, the mode product of each axis and the c4, c6 of
`invariants` included, is compiled on first use (never at import) into one
straight-line function, its sums Horner-factored over shared leading positions.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from itertools import permutations, product, repeat
from math import gcd, prod
from operator import itemgetter, mul

from .exactnum import (
    _IDENTITIES, RefusedInputError, det_matrix, identity_matrix, mat_mul, valuation,
)


class SingularModelError(ValueError):
    """The model (or the marked curve it is built from) has discriminant zero."""


class UnsupportedModelError(TypeError, ValueError):
    """The operation is not defined for the model's kind, or for this model
    (a conversion whose point condition fails)."""


_INT = {int}


def _ints(xs):
    """xs as a tuple, once every entry is an int (a bool or a Fraction, even
    an integral one, is refused), checked in one C pass over their types."""
    xs = tuple(xs)
    if not set(map(type, xs)) <= _INT:
        bad = next(x for x in xs if type(x) is not int)
        raise RefusedInputError(f"model coefficients are ints, not {type(bad).__name__}")
    return xs


_SPELLED_DIGITS = 4300  # int()'s default limit on the digits of a string


def _parse_coeff(s):
    # every string int() accepts is an integer string Fraction() accepts, with
    # the same value; other inputs (floats, bytes) go to Fraction() as given,
    # and an integral value ("4/2", "1e3") comes back as an int.  Fraction()
    # builds an exponent spelling as its mantissa's digits times 10^shift
    # (shift: the exponent less the digits after the point); one that would
    # need more than len(s) + _SPELLED_DIGITS digits is refused before it is
    # built, as building "1e10000000" takes seconds
    if isinstance(s, str):
        try:
            return int(s)
        except ValueError:
            pass
        mantissa, _, exp = s.lower().partition("e")
        try:
            shift = int(exp) - sum(map(str.isdigit, mantissa.partition(".")[2]))
        except ValueError:  # no exponent, or a bad one, which Fraction() refuses
            shift = 0
        if sum(map(str.isdigit, mantissa)) + abs(shift) > len(s) + _SPELLED_DIGITS:
            raise RefusedInputError(f"a coefficient needs more than {len(s) + _SPELLED_DIGITS} "
                                    "digits")
    x = Fraction(s)
    return x.numerator if x.denominator == 1 else x


def _flatten(nested, shape, kind):
    """The entries of a nested layout of the given shape, outermost index
    first; a wrong length at any depth names the whole shape."""
    parts = (nested,)
    for n in shape:
        if any(len(part) != n for part in parts):
            raise ValueError(f"{kind} needs a {'x'.join(map(str, shape))} coefficient array")
        parts = tuple(x for part in parts for x in part)
    return parts


def _nest(flat, dims):
    if len(dims) == 1:
        return tuple(flat)
    step = prod(dims[1:])
    return tuple(_nest(flat[i * step:(i + 1) * step], dims[1:]) for i in range(dims[0]))


# ---------------------------------------------------------------------------
# straight-line evaluation of fixed polynomial tables


def _horner(terms):
    """Source of a sum of terms (coefficient, sorted positions), with the
    terms that share a leading position factored: x3*(x5*x7+-2*x8)."""
    groups = {}
    for c, pos in terms:
        groups.setdefault(pos[:1], []).append((c, pos[1:]))
    const = sum(c for c, _ in groups.pop((), ()))
    parts = [str(int(const))] if const else []
    for (q,), rest in groups.items():
        inner = _horner(rest)
        parts.append({"1": f"x{q}", "-1": f"-x{q}"}.get(inner, f"x{q}*({inner})"))
    return "+".join(parts) or "0"


def _straight_line(polys, sizes, width=None):
    """One compiled function of len(sizes) sequences of those lengths that
    returns the values of `polys` as a tuple (of rows of `width`, if given).
    A polynomial is a sequence of terms (coefficient, positions), positions
    indexing the inputs laid end to end; the source holds those ints alone."""
    names = iter(range(sum(sizes)))
    unpack = "".join(f" {''.join(f'x{next(names)},' for _ in range(n))} = a{j}\n"
                     for j, n in enumerate(sizes))
    values = [_horner([(c, tuple(sorted(map(int, pos)))) for c, pos in terms if c])
              for terms in polys]
    if width:
        values = [f"({','.join(values[i:i + width])},)" for i in range(0, len(values), width)]
    source = (f"def f({','.join(f'a{j}' for j in range(len(sizes)))}):\n{unpack}"
              f" return ({','.join(values)},)")
    exec(compile(source, "<straight-line>", "exec"), namespace := {})
    return namespace["f"]


_COMPILED = {}  # id(table) -> (table, its function); holding the table keeps its id unique


def _compiled(table, build):
    """build(table), built on the first call for this table object: nothing
    is compiled at import, and a replaced table gets a function of its own."""
    hit = _COMPILED.get(id(table))
    if hit is None:
        hit = _COMPILED[id(table)] = (table, build(table))
    return hit[1]


# ---------------------------------------------------------------------------
# forms in n variables


def monomials(n, k):
    """The exponent vectors of the degree-k monomials in n variables, in
    descending lexicographic order (x1^k first)."""
    return tuple(sorted((e for e in product(range(k + 1), repeat=n) if sum(e) == k),
                        reverse=True))


def _sym_table(n, k):
    """Index table of Sym^k(A) for n x n matrices A: per entry (j, i), the
    terms (coefficient, (flat positions of A...)) of the coefficient of
    monomial j in the image of monomial i.  Each term picks, for each of the
    k variables of monomial i, the row of A that feeds the image."""
    monos = monomials(n, k)
    index = {e: j for j, e in enumerate(monos)}
    table = [[{} for _ in monos] for _ in monos]
    for i, e in enumerate(monos):
        cols = [v for v in range(n) for _ in range(e[v])]
        for rows in product(range(n), repeat=k):
            entry = table[index[tuple(map(rows.count, range(n)))]][i]
            positions = tuple(sorted(r * n + c for r, c in zip(rows, cols)))
            entry[positions] = entry.get(positions, 0) + 1
    return tuple(tuple(tuple((c, pos) for pos, c in entry.items()) for entry in row)
                 for row in table)


# the (n, k) of the kinds' axis matrices: Sym^2 and Sym^4 of 2x2, Sym^3 of 3x3
_SYM_TABLES = {(n, k): _sym_table(n, k) for n, k in ((2, 2), (2, 4), (3, 3))}


def sym_power_matrix(A, k):
    """Matrix of f -> f((x1, ..., xn) A) on the coefficient vectors of forms
    of degree k in n = len(A) variables, monomials in `monomials(n, k)`
    order: column i is the image of monomial i.  The (n, k) table is compiled
    on first use into one straight-line function of the rows of A."""
    n = len(A)
    return _compiled(_SYM_TABLES[n, k], lambda table: _straight_line(
        [entry for row in table for entry in row], (n,) * n, len(table)))(*A)


# ---------------------------------------------------------------------------
# model kinds


class _Model(namedtuple("_Model", "coeffs")):
    """A model of one kind: its coefficients as one flat tuple."""

    __slots__ = ()
    kind = None

    def __new__(cls, nested):
        return tuple.__new__(cls, (_ints(_flatten(nested, SPECS[cls.kind].shape, cls.kind)),))

    @classmethod
    def from_coeffs(cls, coeffs):
        """The model with the given int coefficients in the flat order."""
        coeffs = _ints(coeffs)
        if len(coeffs) != SPECS[cls.kind].size:
            raise ValueError(f"{cls.kind} needs {SPECS[cls.kind].size} coefficients")
        return tuple.__new__(cls, (coeffs,))

    def __reduce__(self):
        # pickle and copy rebuild a model from its flat tuple, not the nested layout
        return self.from_coeffs, (self.coeffs,)

    def axis_slices(self, axis):
        """The slices along one tensor axis, each flattened outermost index first."""
        c = self.coeffs
        return tuple(get(c) for get in SPECS[self.kind].slice_getters[axis])


class BinaryQuartic(_Model):
    """BinaryQuartic((a, b, c, d, e))."""

    __slots__ = ()
    kind = "quartic"


class TwoTwoForm(_Model):
    """TwoTwoForm(rows) with rows[r][c] the 3x3 coefficient matrix."""

    __slots__ = ()
    kind = "form22"

    @property
    def rows(self):
        c = self.coeffs
        return (c[0:3], c[3:6], c[6:9])


CUBIC_MONOMIALS = monomials(3, 3)
_CUBIC_INDEX = {e: i for i, e in enumerate(CUBIC_MONOMIALS)}


class TernaryCubic(_Model):
    """TernaryCubic(coeffs) with 10 coefficients in CUBIC_MONOMIALS order."""

    __slots__ = ()
    kind = "cubic"

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(d.get(e, 0) for e in CUBIC_MONOMIALS))


class Cube(_Model):
    """Cube(entries) with entries[i][j][k] a 3x3x3 array."""

    __slots__ = ()
    kind = "cube"

    @property
    def entries(self):
        return _nest(self.coeffs, (3, 3, 3))

    def slices(self, axis):
        """The three 3x3 slices along the given axis (0, 1 or 2)."""
        return tuple(_nest(sl, (3, 3)) for sl in self.axis_slices(axis))


class Hypercube(_Model):
    """Hypercube(entries) with entries[i][j][k][l] a 2x2x2x2 array."""

    __slots__ = ()
    kind = "hypercube"


# ---------------------------------------------------------------------------
# the per-kind spec


class KindSpec:
    """How one model kind is stored and acted on.

    model         -- the model class
    shape         -- tensor shape of the flat coefficient tuple, outermost first
    matrix_sizes  -- sizes of a group element's matrices, one per tensor axis
    axis_matrix   -- group matrix -> the matrix applied along its tensor axis
                     (None: the group matrix itself)
    act_power     -- act multiplies every coefficient by scalar ** act_power
    chi_power     -- chi(g) = scalar ** chi_power * product of the determinants
    """

    def __init__(self, model, shape, matrix_sizes, axis_matrix=None, act_power=1, chi_power=1):
        self.model, self.shape, self.matrix_sizes = model, shape, matrix_sizes
        self.axis_matrix, self.act_power, self.chi_power = axis_matrix, act_power, chi_power
        self.size = prod(shape)
        index = list(product(*(range(d) for d in shape)))  # multi-index of each flat position
        # slices[a][m]: flat positions with index m on axis a, in flat order
        self.slices = tuple(
            tuple(tuple(n for n, idx in enumerate(index) if idx[a] == m) for m in range(d))
            for a, d in enumerate(shape))
        # slice_getters[a][m]: flat tuple -> the tuple of its entries in slices[a][m]
        self.slice_getters = tuple(
            tuple(itemgetter(*sl) if len(sl) > 1 else itemgetter(slice(sl[0], sl[0] + 1))
                  for sl in axis)
            for axis in self.slices)
        # fibres[a]: position tuples along which axis a varies alone
        self.fibres = tuple(tuple(zip(*sl)) for sl in self.slices)
        # position[multi-index]: its flat position
        self.position = {idx: n for n, idx in enumerate(index)}


SPECS = {
    "quartic": KindSpec(BinaryQuartic, (5,), (2,), partial(sym_power_matrix, k=4),
                        act_power=2),
    "form22": KindSpec(TwoTwoForm, (3, 3), (2, 2), partial(sym_power_matrix, k=2)),
    "cubic": KindSpec(TernaryCubic, (10,), (3,), partial(sym_power_matrix, k=3)),
    "cube": KindSpec(Cube, (3, 3, 3), (3, 3, 3), chi_power=3),
    "hypercube": KindSpec(Hypercube, (2, 2, 2, 2), (2, 2, 2, 2), chi_power=2),
}


# ---------------------------------------------------------------------------
# shared coefficient utilities


def content_valuation(m, p):
    """min_p-valuation over the coefficients, the valuation of their gcd
    (INFINITY for the zero model)."""
    return valuation(gcd(*m.coeffs), p)


# ---------------------------------------------------------------------------
# group elements


def _product(a, b):
    """mat_mul(a, b), with no work when either factor is the identity."""
    one = _IDENTITIES[len(a)]
    if b == one:
        return a
    if a == one:
        return b
    return mat_mul(a, b)


class GroupElement(namedtuple("GroupElement", "kind scalar matrices")):
    """A transformation: one rational scalar and one integer matrix per
    tensor factor.

    The constructor only validates: every matrix entry must be an int
    (RefusedInputError otherwise) and every matrix nonsingular (ValueError
    otherwise); the scalar must be an int, not a bool, or a Fraction
    (RefusedInputError otherwise), and is stored as a Fraction.  A move is
    built as it is stored, any denominators of its matrices already in the
    scalar, and a certificate is read as it was written.  `scaling` goes
    through the same checks.  An element is an immutable record of its three
    fields, and carries the determinants of its matrices besides (`_dets`,
    an attribute outside the fields, so equality, hashing and repr ignore
    it): the constructor takes them in its check, and `compose`, whose parts
    hold by construction, builds through `_trusted_element` with
    det(AB) = det A det B."""

    def __new__(cls, kind, scalar, matrices):
        spec = SPECS[kind]
        if tuple(len(m) for m in matrices) != spec.matrix_sizes:
            raise ValueError(f"wrong matrix sizes for kind {kind}")
        mats = tuple(tuple(map(tuple, m)) for m in matrices)
        dets = []
        for m in mats:
            if any(type(x) is not int for row in m for x in row):
                raise RefusedInputError("group element matrices take int entries")
            dets.append(det_matrix(m))
            if dets[-1] == 0:
                raise ValueError("singular matrix in group element")
        if type(scalar) is not Fraction:
            if type(scalar) is not int:
                raise RefusedInputError("group element scalars are ints or Fractions, "
                                        f"not {type(scalar).__name__}")
            scalar = Fraction(scalar)
        return _trusted_element(kind, scalar, mats, tuple(dets))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a GroupElement")

    @classmethod
    @cache
    def identity(cls, kind):
        """The identity of the kind: one shared instance, as elements are frozen."""
        return cls.scaling(kind, 1)

    @classmethod
    def scaling(cls, kind, scalar):
        return cls(kind, scalar, tuple(map(identity_matrix, SPECS[kind].matrix_sizes)))

    def chi(self):
        """The character: Delta(act(g, m)) = chi(g)^12 * Delta(m)."""
        return self.scalar ** SPECS[self.kind].chi_power * prod(self._dets)

    def chi_valuation(self, p):
        """valuation(self.chi(), p), from the scalar's and the determinants'
        valuations, without building chi."""
        return (SPECS[self.kind].chi_power * valuation(self.scalar, p)
                + sum(valuation(d, p) for d in self._dets))

    def compose(self, other):
        """Element acting as self after other: act(result, m) = act(self, act(other, m))."""
        if self.kind != other.kind:
            raise ValueError("kind mismatch")
        return _trusted_element(self.kind, self.scalar * other.scalar,
                                tuple(map(_product, self.matrices, other.matrices)),
                                tuple(map(mul, self._dets, other._dets)))


def _trusted_element(kind, scalar, matrices, dets):
    """The GroupElement with these fields and matrix determinants, built
    without the constructor's checks, for the products whose parts already
    hold them: a Fraction scalar and nonsingular int matrices as tuples of
    tuples."""
    g = tuple.__new__(GroupElement, (kind, scalar, matrices))
    object.__setattr__(g, "_dets", dets)
    return g


# ---------------------------------------------------------------------------
# the action


def _mode_kernel(fibres):
    """out[fibre[r]] = sum of M[r][c] t[fibre[c]] as a function of t and M's rows."""
    size, k = sum(map(len, fibres)), len(fibres[0])
    polys = {pos: [(1, (q, size + r * k + c)) for c, q in enumerate(fibre)]
             for fibre in fibres for r, pos in enumerate(fibre)}
    return _straight_line([polys[pos] for pos in range(size)], (size,) + (k,) * k)


def _mode_product(t, M, fibres):
    """Multiply every fibre of the flat tensor t along one axis by M."""
    return _compiled(fibres, _mode_kernel)(t, *M)


def act(g, m):
    """Apply a group element to a model, exactly: apply each factor's
    matrix along its axis, then scale by the scalar's act_power: multiply by
    the numerator's power and divide by the denominator's in one divmod
    pass.  None when that pass leaves a remainder: the image is not integral,
    and no model holds it.  A factor equal to the identity is skipped: its
    axis matrix is neither built nor applied."""
    if g.kind != m.kind:
        raise ValueError(f"group element for {g.kind} applied to {m.kind}")
    spec = SPECS[m.kind]
    t = m.coeffs
    for fibres, A in zip(spec.fibres, g.matrices):
        if A != _IDENTITIES[len(A)]:
            t = _mode_product(t, spec.axis_matrix(A) if spec.axis_matrix else A, fibres)
    num = g.scalar.numerator ** spec.act_power
    den = g.scalar.denominator ** spec.act_power
    if num != 1:
        t = [num * x for x in t]
    if den != 1:
        t, rems = zip(*map(divmod, t, repeat(den)))
        if any(rems):
            return None
    return spec.model.from_coeffs(t)


# ---------------------------------------------------------------------------
# derived forms


def _binary_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# per coefficient of G1 (in x), then of G2 (in y): the terms of q2^2 - 4 q1 q3,
# (q1, q2, q3) the x-quadratics (entry i of q_j at 3 i + j), then the y-quadratics
_QUARTICS_TABLE = tuple(
    tuple((c, (pos(j1, i), pos(j2, n - i))) for (j1, j2), c in (((1, 1), 1), ((0, 2), -4))
          for i in range(max(0, n - 2), min(n, 2) + 1))
    for pos in (lambda j, i: 3 * i + j, lambda j, i: 3 * j + i) for n in range(5))


def quartics_of_22(F):
    """The pair of binary quartics (G1 in x, G2 in y) of a (2,2)-form."""
    g = _compiled(_QUARTICS_TABLE, lambda table: _straight_line(table, (9,)))(F.coeffs)
    return BinaryQuartic.from_coeffs(g[:5]), BinaryQuartic.from_coeffs(g[5:])


def _det_table(kind, var_axes, out_index):
    """Index table of det(T), T the tensor of `kind` read as a square matrix
    over its other two axes (rows on the lower) whose entries are forms in
    the variables of `var_axes`.  Each term of the Leibniz expansion picks a
    permutation and, in every row, one variable index per axis of var_axes;
    out_index maps those picks to the output coefficient the term feeds.
    Returns, per output coefficient, the terms (sign, flat positions...)."""
    spec = SPECS[kind]
    row_axis, col_axis = (a for a in range(len(spec.shape)) if a not in var_axes)
    n = spec.shape[row_axis]
    picks = list(product(*(range(spec.shape[a]) for a in var_axes)))
    out = {choice: out_index(choice) for choice in product(picks, repeat=n)}
    # cell[r][c]: (pick, flat position) of the entries in row r and column c
    read = itemgetter(row_axis, col_axis, *var_axes)
    where = {read(idx): pos for idx, pos in spec.position.items()}
    cell = [[[(pick, where[(r, c) + pick]) for pick in picks] for c in range(n)]
            for r in range(n)]
    table = [[] for _ in range(max(out.values()) + 1)]
    for perm in permutations(range(n)):
        sign = (-1) ** sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])
        for term in product(*(cell[r][perm[r]] for r in range(n))):
            choice, positions = zip(*term)
            table[out[choice]].append((sign, *positions))
    return tuple(map(tuple, table))


# per slicing axis: the cubic's coefficients, the monomial x^i y^j z^k counting
# the rows that picked slice 0, 1 and 2
_CUBE_TABLES = tuple(
    _det_table("cube", (axis,), lambda ch: _CUBIC_INDEX[tuple(map(ch.count, ((0,), (1,), (2,))))])
    for axis in range(3))


def _det_kernel(size):
    """The builder of a table of (sign, flat positions...) terms over one tensor."""
    return lambda table: _straight_line([[(s, pos) for s, *pos in t] for t in table], (size,))


def cubic_of_cube(S, axis):
    """The determinantal ternary cubic of the slicing along `axis`, from its
    table compiled on first use into one straight-line function."""
    return TernaryCubic.from_coeffs(_compiled(_CUBE_TABLES[axis], _det_kernel(27))(S.coeffs))


def cubics_of_cube(S):
    """The three determinantal ternary cubics, one per slicing."""
    return tuple(cubic_of_cube(S, axis) for axis in range(3))


HYPERCUBE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# per axis pair (a, b): the (2,2)-form's coefficients, row = the sum of the
# axis-a picks (the power of x2), column = the sum of the axis-b picks
_HYPERCUBE_TABLES = {
    pair: _det_table("hypercube", pair, lambda ch: 3 * (ch[0][0] + ch[1][0]) + ch[0][1] + ch[1][1])
    for pair in HYPERCUBE_PAIRS}


def form_of_hypercube(H, a, b):
    """The (2,2)-form F_ab: determinant of H read as bilinear in the other
    axes, from its table compiled on first use into one straight-line function."""
    return TwoTwoForm.from_coeffs(_compiled(_HYPERCUBE_TABLES[a, b], _det_kernel(16))(H.coeffs))


def forms_of_hypercube(H):
    """All six F_ab, keyed by the axis pair (a, b) with a < b."""
    return {pair: form_of_hypercube(H, *pair) for pair in HYPERCUBE_PAIRS}


# ---------------------------------------------------------------------------
# JSON-facing serialisation


def model_to_dict(m, meta=None):
    d = {"kind": m.kind, "coeffs": [str(c) for c in m.coeffs]}
    if meta:
        d["meta"] = meta
    return d


def model_from_dict(d):
    if not isinstance(d, dict):
        raise ValueError("model document must be a JSON object")
    kind = d.get("kind")
    if kind not in SPECS:
        raise ValueError(f"unknown model kind: {kind!r}")
    size = SPECS[kind].size
    raw = d.get("coeffs")
    if not isinstance(raw, list) or len(raw) != size:
        raise ValueError(f"kind {kind} expects {size} coefficients")
    coeffs = [_parse_coeff(str(s)) for s in raw]
    if Fraction in set(map(type, coeffs)):
        raise RefusedInputError("model must be integral")
    return SPECS[kind].model.from_coeffs(coeffs)


def group_element_to_dict(g):
    d = {
        "kind": g.kind,
        "scalar": str(g.scalar),
        "matrices": [[[str(x) for x in row] for row in m] for m in g.matrices],
    }
    if g.kind == "hypercube":  # a fixed key of the format: no element permutes the axes
        d["perm"] = [0, 1, 2, 3]
    return d


def group_element_from_dict(d):
    """The group element of a certificate, read as `group_element_to_dict`
    writes it: a rational matrix entry is refused by the constructor, and a
    "perm" key other than a hypercube's identity [0, 1, 2, 3] (a permuted
    certificate of an earlier version) with RefusedInputError."""
    if "perm" in d and (d["kind"] != "hypercube" or d["perm"] != [0, 1, 2, 3]):
        raise RefusedInputError("certificates permute no axes: \"perm\" is [0, 1, 2, 3] "
                                "on a hypercube and absent otherwise")
    mats = tuple(tuple(tuple(_parse_coeff(x) for x in row) for row in rows)
                 for rows in d["matrices"])
    return GroupElement(d["kind"], _parse_coeff(d["scalar"]), mats)
