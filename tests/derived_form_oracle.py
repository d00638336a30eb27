"""The derived-form expansions that g1min's index tables replaced.

These are the determinant expansions g1min used before `models` evaluated its
derived forms from index tables: the determinantal cubic det(M x + N y + P z)
of three 3x3 slices of a cube, expanded over the six permutations through
monomial dictionaries, and the (2,2)-form F_ab of a hypercube as the
determinant q00 q11 - q01 q10 of its 2x2 matrix of bilinear forms.  They serve
only as the reference the differential tests compare the tables against.
"""

from itertools import permutations

from g1min.models import TernaryCubic, TwoTwoForm


def _det_linear_pencil(M, N, P):
    """det(M x + N y + P z) as a TernaryCubic."""
    acc = {}
    for perm in permutations(range(3)):
        sign = _perm_sign(perm)
        # product of three linear forms (M[r][perm[r]], N[..], P[..]) . (x,y,z)
        terms = {(0, 0, 0): sign}
        for r in range(3):
            c = perm[r]
            vec = (M[r][c], N[r][c], P[r][c])
            nxt = {}
            for mono, cc in terms.items():
                for var in range(3):
                    if vec[var] == 0:
                        continue
                    key = list(mono)
                    key[var] += 1
                    key = tuple(key)
                    nxt[key] = nxt.get(key, 0) + cc * vec[var]
            terms = nxt
        for mono, cc in terms.items():
            acc[mono] = acc.get(mono, 0) + cc
    return TernaryCubic.from_dict(acc)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def cubic_of_cube(S, axis):
    """The determinantal cubic of the slicing along `axis`."""
    return _det_linear_pencil(*S.slices(axis))


def form_of_hypercube(H, a, b):
    """The (2,2)-form F_ab: determinant of H read as bilinear in the other axes."""
    c, d = (t for t in range(4) if t not in (a, b))

    def bil(k, l):
        # 2x2 coefficient matrix of the (1,1)-form in (axis-a, axis-b) variables
        rows = []
        for i in range(2):
            row = []
            for j in range(2):
                idx = [0, 0, 0, 0]
                idx[a], idx[b], idx[c], idx[d] = i, j, k, l
                row.append(H.at(*idx))
            rows.append(tuple(row))
        return tuple(rows)

    q00, q01, q10, q11 = bil(0, 0), bil(0, 1), bil(1, 0), bil(1, 1)
    return TwoTwoForm(_sub22(_mul_11(q00, q11), _mul_11(q01, q10)))


def _mul_11(bm, cm):
    out = [[0] * 3 for _ in range(3)]
    for i in range(2):
        for j in range(2):
            if bm[i][j] == 0:
                continue
            for k in range(2):
                for l in range(2):
                    out[i + k][j + l] += bm[i][j] * cm[k][l]
    return tuple(tuple(r) for r in out)


def _sub22(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
