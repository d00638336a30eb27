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

The constructors take the nested layouts; `rows`, `entries`, `at`, `slices`,
`x_quadratics` and `y_quadratics` are views that index the flat tuple.

Row vectors act on the right: a substitution by the matrix A replaces the
variable row (x1, x2) with (x1, x2) A.  Group elements carry a Fraction
scalar, one int matrix per tensor factor, and (for hypercubes only) a
permutation of the four factors; their one constructor clears rational matrix
entries into the scalar and rejects singular matrices.  Every kind is a tensor
space on which the group acts one factor at a time, so one routine, `act`,
serves them all; the per-kind entry in SPECS records the tensor shape, the
matrix sizes, the matrix each group matrix induces on its tensor axis (Sym^4,
Sym^2 or Sym^3 of it for quartics, (2,2)-forms and ternary cubics, the matrix
itself for cubes and hypercubes) and the powers of the scalar in `act` and in
`chi`; a ternary cubic goes to mu F((x, y, z) A), so its discriminant scales
by (mu det A)^12.  The one substitution, `sym_power_matrix(A, k)`, serves forms
in n = len(A) variables from an index table of (coefficient, (flat positions
of A...)) terms built at import per (n, k).  `act` is integer: it contracts with
the int matrices, multiplies by the scalar numerator's power and divides
exactly by its denominator's, so a coefficient is a Fraction only where that
division leaves a remainder.  A factor equal to the identity costs nothing:
`act` skips its contraction and `GroupElement.compose` its matrix product, so
axis moves, permutations, scalings and the identity certificate do work only
on the factors they change.  `scalar_clear` returns an integral primitive copy
together with the multiplier.

The derived forms (three determinantal cubics of a cube, six (2,2)-forms of a
hypercube) are evaluated from index tables of (sign, flat positions...) terms,
built once at import by expanding the determinants over the SPECS layout.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations, product
from math import gcd, lcm, prod
from operator import itemgetter, mul

from .exactnum import det_matrix, identity_matrix, mat_adj, mat_mul, quotient, valuation, INFINITY


class SingularModelError(ValueError):
    """The model (or the marked curve it is built from) has discriminant zero."""


def _num(x):
    """Collapse Fractions with denominator 1 back to int."""
    # type(), not isinstance(): isinstance(int, Fraction) takes the slow ABC path
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


def _parse_coeff(s):
    # every string int() accepts is an integer string Fraction() accepts, with
    # the same value; other inputs (floats, bytes) go to Fraction() as given
    if isinstance(s, str):
        try:
            return int(s)
        except ValueError:
            pass
    return _num(Fraction(s))


def _flatten(nested, shape, kind):
    """The entries of a nested layout of the given shape, outermost index first."""
    if len(nested) != shape[0]:
        raise ValueError(f"{kind} needs a {'x'.join(map(str, shape))} coefficient array")
    if len(shape) == 1:
        return tuple(nested)
    return tuple(x for part in nested for x in _flatten(part, shape[1:], kind))


def _nest(flat, dims):
    if len(dims) == 1:
        return tuple(flat)
    step = prod(dims[1:])
    return tuple(_nest(flat[i * step:(i + 1) * step], dims[1:]) for i in range(dims[0]))


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
    order: column i is the image of monomial i."""
    a = [x for row in A for x in row]
    out = []
    for row in _SYM_TABLES[len(A), k]:
        vals = []
        for terms in row:
            tot = 0
            for c, positions in terms:
                for q in positions:
                    c *= a[q]
                tot += c
            vals.append(tot)
        out.append(tuple(vals))
    return tuple(out)


# ---------------------------------------------------------------------------
# model kinds


@dataclass(frozen=True, init=False)
class _Model:
    """A model of one kind: its coefficients as one flat tuple."""

    coeffs: tuple

    kind = None

    def __init__(self, nested):
        flat = _flatten(nested, SPECS[self.kind].shape, self.kind)
        object.__setattr__(self, "coeffs", tuple(_num(c) for c in flat))

    @classmethod
    def from_coeffs(cls, coeffs):
        """The model with the given coefficients in the flat order."""
        m = object.__new__(cls)
        coeffs = tuple(_num(c) for c in coeffs)
        if len(coeffs) != SPECS[cls.kind].size:
            raise ValueError(f"{cls.kind} needs {SPECS[cls.kind].size} coefficients")
        object.__setattr__(m, "coeffs", coeffs)
        return m

    def axis_slices(self, axis):
        """The slices along one tensor axis, each flattened outermost index first."""
        c = self.coeffs
        return tuple(tuple(c[n] for n in sl) for sl in SPECS[self.kind].slices[axis])


class BinaryQuartic(_Model):
    """BinaryQuartic((a, b, c, d, e))."""

    kind = "quartic"


class TwoTwoForm(_Model):
    """TwoTwoForm(rows) with rows[r][c] the 3x3 coefficient matrix."""

    kind = "form22"

    @property
    def rows(self):
        c = self.coeffs
        return (c[0:3], c[3:6], c[6:9])

    def entry(self, r, c):
        return self.coeffs[3 * r + c]

    def x_quadratics(self):
        """(F1, F2, F3) with F = F1(x) y1^2 + F2(x) y1 y2 + F3(x) y2^2."""
        c = self.coeffs
        return (c[0::3], c[1::3], c[2::3])

    def y_quadratics(self):
        return self.rows

    def transpose(self):
        c = self.coeffs
        return TwoTwoForm.from_coeffs(c[0::3] + c[1::3] + c[2::3])


CUBIC_MONOMIALS = monomials(3, 3)
_CUBIC_INDEX = {e: i for i, e in enumerate(CUBIC_MONOMIALS)}


class TernaryCubic(_Model):
    """TernaryCubic(coeffs) with 10 coefficients in CUBIC_MONOMIALS order."""

    kind = "cubic"

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(d.get(e, 0) for e in CUBIC_MONOMIALS))


class Cube(_Model):
    """Cube(entries) with entries[i][j][k] a 3x3x3 array."""

    kind = "cube"

    @property
    def entries(self):
        return _nest(self.coeffs, (3, 3, 3))

    def slices(self, axis):
        """The three 3x3 slices along the given axis (0, 1 or 2)."""
        return tuple(_nest(sl, (3, 3)) for sl in self.axis_slices(axis))


class Hypercube(_Model):
    """Hypercube(entries) with entries[i][j][k][l] a 2x2x2x2 array."""

    kind = "hypercube"

    @property
    def entries(self):
        return _nest(self.coeffs, (2, 2, 2, 2))

    def at(self, i, j, k, l):
        return self.coeffs[8 * i + 4 * j + 2 * k + l]


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
    permutes_axes -- group elements also permute the tensor axes
    """

    def __init__(self, model, shape, matrix_sizes, axis_matrix=None,
                 act_power=1, chi_power=1, permutes_axes=False):
        self.model, self.shape, self.matrix_sizes = model, shape, matrix_sizes
        self.axis_matrix, self.act_power, self.chi_power = axis_matrix, act_power, chi_power
        self.permutes_axes = permutes_axes
        self.size = prod(shape)
        index = list(product(*(range(d) for d in shape)))  # multi-index of each flat position
        # slices[a][m]: flat positions with index m on axis a, in flat order
        self.slices = tuple(
            tuple(tuple(n for n, idx in enumerate(index) if idx[a] == m) for m in range(d))
            for a, d in enumerate(shape))
        # fibres[a]: position tuples along which axis a varies alone
        self.fibres = tuple(tuple(zip(*sl)) for sl in self.slices)
        # position[multi-index]: its flat position
        self.position = position = {idx: n for n, idx in enumerate(index)}
        # perm_index[perm][n]: source position of (perm . T) at position n, where
        # (perm . T)[j_0, ..., j_{d-1}] = T[j_perm[0], ..., j_perm[d-1]]
        self.perm_index = {
            perm: tuple(position[tuple(idx[a] for a in perm)] for idx in index)
            for perm in (permutations(range(len(shape))) if permutes_axes else ())}


SPECS = {
    "quartic": KindSpec(BinaryQuartic, (5,), (2,), partial(sym_power_matrix, k=4),
                        act_power=2),
    "form22": KindSpec(TwoTwoForm, (3, 3), (2, 2), partial(sym_power_matrix, k=2)),
    "cubic": KindSpec(TernaryCubic, (10,), (3,), partial(sym_power_matrix, k=3)),
    "cube": KindSpec(Cube, (3, 3, 3), (3, 3, 3), chi_power=3),
    "hypercube": KindSpec(Hypercube, (2, 2, 2, 2), (2, 2, 2, 2), chi_power=2,
                          permutes_axes=True),
}


# ---------------------------------------------------------------------------
# shared coefficient utilities


def is_integral(m):
    return all(type(c) is not Fraction for c in m.coeffs)


def content_valuation(m, p):
    """min_p-valuation over the coefficients (INFINITY for the zero model)."""
    v = INFINITY
    for c in m.coeffs:
        w = valuation(c, p)
        if w is INFINITY:
            continue
        if v is INFINITY or w < v:
            v = w
    return v


def scalar_multiply(m, c):
    c = Fraction(c)
    return type(m).from_coeffs([c * x for x in m.coeffs])


def scalar_clear(m):
    """Integral primitive copy of m.  Returns (model, mu) with model = mu * m.

    This is ingestion-level normalisation; mu need not be realisable inside
    the model's transformation group (for quartics only square scalings are).
    """
    coeffs = [Fraction(c) for c in m.coeffs]
    if all(c == 0 for c in coeffs):
        return m, Fraction(1)
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    num = 0
    for c in coeffs:
        num = gcd(num, c.numerator * (den // c.denominator))
    mu = Fraction(den, num)
    return scalar_multiply(m, mu), mu


# ---------------------------------------------------------------------------
# group elements


_IDENTITY = {n: identity_matrix(n) for n in (2, 3)}


def _product(a, b):
    """mat_mul(a, b), with no work when either factor is the identity."""
    one = _IDENTITY[len(a)]
    if b == one:
        return a
    if a == one:
        return b
    return mat_mul(a, b)


def _perm_inverse(perm):
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


@dataclass(frozen=True)
class GroupElement:
    """A transformation: scalar, one matrix per tensor factor, and for
    hypercubes an optional permutation of the four factors (applied first).

    The matrices are stored with int entries and the scalar as a Fraction.
    Entries may be given as ints or Fractions: a matrix with a Fraction entry
    is multiplied by the lcm d of its entries' denominators and the scalar
    divided by d ** (n / chi_power), n the matrix size, which leaves the
    action and chi unchanged."""

    kind: str
    scalar: Fraction
    matrices: tuple
    perm: tuple = None

    def __post_init__(self):
        spec = SPECS[self.kind]
        if tuple(len(m) for m in self.matrices) != spec.matrix_sizes:
            raise ValueError(f"wrong matrix sizes for kind {self.kind}")
        scalar = self.scalar if type(self.scalar) is Fraction else Fraction(self.scalar)
        mats = []
        for m in self.matrices:
            if all(type(x) is int for row in m for x in row):
                mats.append(tuple(map(tuple, m)))
            else:
                d = lcm(*(x.denominator for row in m for x in row))
                scalar /= d ** (len(m) // spec.chi_power)
                mats.append(tuple(tuple(int(x * d) for x in row) for row in m))
            if det_matrix(mats[-1]) == 0:
                raise ValueError("singular matrix in group element")
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "matrices", tuple(mats))
        if not spec.permutes_axes:
            if self.perm is not None:
                raise ValueError("permutations only apply to hypercubes")
        else:
            perm = self.perm if self.perm is not None else (0, 1, 2, 3)
            if sorted(perm) != [0, 1, 2, 3]:
                raise ValueError("bad axis permutation")
            object.__setattr__(self, "perm", tuple(perm))

    @classmethod
    def identity(cls, kind):
        return cls.scaling(kind, 1)

    @classmethod
    def scaling(cls, kind, scalar):
        return cls(kind, scalar, tuple(identity_matrix(n) for n in SPECS[kind].matrix_sizes))

    def chi(self):
        """The character: Delta(act(g, m)) = chi(g)^12 * Delta(m)."""
        return self.scalar ** SPECS[self.kind].chi_power * prod(map(det_matrix, self.matrices))

    def compose(self, other):
        """Element acting as self after other: act(result, m) = act(self, act(other, m))."""
        if self.kind != other.kind:
            raise ValueError("kind mismatch")
        if self.perm is not None:
            s2, s1 = self.perm, other.perm
            perm = tuple(s2[s1[a]] for a in range(4))
            inv2 = _perm_inverse(s2)
            mats = tuple(_product(self.matrices[a], other.matrices[inv2[a]]) for a in range(4))
            return GroupElement(self.kind, self.scalar * other.scalar, mats, perm)
        mats = tuple(map(_product, self.matrices, other.matrices))
        return GroupElement(self.kind, self.scalar * other.scalar, mats)

    def inverse(self):
        """The inverse, with adjugate matrices: A^-1 = adj(A) / det(A), and
        each det(A) folded into the scalar as the constructor folds d."""
        chi_power = SPECS[self.kind].chi_power
        mats, perm = self.matrices, None
        if self.perm is not None:
            perm = _perm_inverse(self.perm)
            mats = tuple(mats[self.perm[a]] for a in range(4))
        fold = prod(det_matrix(m) ** (len(m) // chi_power) for m in mats)
        return GroupElement(self.kind, 1 / (self.scalar * fold),
                            tuple(mat_adj(m) for m in mats), perm)


# ---------------------------------------------------------------------------
# the action


def _mode_product(t, M, fibres):
    """Multiply every fibre of the flat tensor t along one axis by M."""
    out = [0] * len(t)
    for fibre in fibres:
        vals = [t[n] for n in fibre]
        for pos, row in zip(fibre, M):
            out[pos] = sum(map(mul, row, vals))
    return out


def act(g, m):
    """Apply a group element to a model, exactly: permute the tensor axes
    (hypercubes), apply each factor's matrix along its axis, then scale by
    the scalar's act_power: multiply by the numerator's power and divide
    exactly by the denominator's.  A factor equal to the identity is skipped:
    its axis matrix is neither built nor applied."""
    if g.kind != m.kind:
        raise ValueError(f"group element for {g.kind} applied to {m.kind}")
    spec = SPECS[m.kind]
    t = m.coeffs
    if g.perm is not None:
        t = [t[n] for n in spec.perm_index[g.perm]]
    for fibres, A in zip(spec.fibres, g.matrices):
        if A != _IDENTITY[len(A)]:
            t = _mode_product(t, spec.axis_matrix(A) if spec.axis_matrix else A, fibres)
    num = g.scalar.numerator ** spec.act_power
    den = g.scalar.denominator ** spec.act_power
    if den == 1:
        return spec.model.from_coeffs([num * x for x in t])
    return spec.model.from_coeffs([quotient(num * x, den) for x in t])


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


def quartics_of_22(F):
    """The pair of binary quartics (G1 in x, G2 in y) of a (2,2)-form."""
    return tuple(
        BinaryQuartic([x - 4 * y for x, y in zip(_binary_mul(q2, q2), _binary_mul(q1, q3))])
        for q1, q2, q3 in (F.x_quadratics(), F.y_quadratics()))


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


def cubic_of_cube(S, axis):
    """The determinantal ternary cubic of the slicing along `axis`."""
    c = S.coeffs
    coeffs = []
    for terms in _CUBE_TABLES[axis]:
        tot = 0
        for s, i, j, k in terms:
            tot += s * c[i] * c[j] * c[k]
        coeffs.append(tot)
    return TernaryCubic.from_coeffs(coeffs)


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
    """The (2,2)-form F_ab: determinant of H read as bilinear in the other axes."""
    c = H.coeffs
    coeffs = []
    for terms in _HYPERCUBE_TABLES[a, b]:
        tot = 0
        for s, i, j in terms:
            tot += s * c[i] * c[j]
        coeffs.append(tot)
    return TwoTwoForm.from_coeffs(coeffs)


def forms_of_hypercube(H):
    """All six F_ab, keyed by the axis pair (a, b) with a < b."""
    return {pair: form_of_hypercube(H, *pair) for pair in HYPERCUBE_PAIRS}


def quartics_of_hypercube(H):
    """The four binary quartics, one per axis; checks internal agreement."""
    forms = forms_of_hypercube(H)
    out = []
    for axis in range(4):
        cands = []
        for (a, b), F in forms.items():
            g1, g2 = quartics_of_22(F)
            if a == axis:
                cands.append(g1)
            elif b == axis:
                cands.append(g2)
        first = cands[0]
        if any(c != first for c in cands[1:]):
            raise AssertionError(f"axis-{axis} quartics of a hypercube disagree")
        out.append(first)
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON-facing serialisation


def model_to_dict(m, meta=None):
    d = {"kind": m.kind, "coeffs": [str(c) for c in m.coeffs]}
    if meta:
        d["meta"] = meta
    return d


def model_from_dict(d):
    kind = d.get("kind")
    if kind not in SPECS:
        raise ValueError(f"unknown model kind: {kind!r}")
    size = SPECS[kind].size
    raw = d.get("coeffs")
    if not isinstance(raw, list) or len(raw) != size:
        raise ValueError(f"kind {kind} expects {size} coefficients")
    return SPECS[kind].model.from_coeffs([_parse_coeff(str(s)) for s in raw])


def group_element_to_dict(g):
    d = {
        "kind": g.kind,
        "scalar": str(g.scalar),
        "matrices": [[[str(x) for x in row] for row in m] for m in g.matrices],
    }
    if g.perm is not None:
        d["perm"] = list(g.perm)
    return d


def group_element_from_dict(d):
    mats = tuple(
        tuple(tuple(_parse_coeff(x) for x in row) for row in m) for m in d["matrices"]
    )
    perm = tuple(d["perm"]) if "perm" in d else None
    return GroupElement(d["kind"], Fraction(d["scalar"]), mats, perm)
