"""The full-matrix search the (2,2) minimality oracle used before its entry
test.

For each weight pair (a, b) and each pair of stretch classes (U, V) it forms
the whole substituted matrix Sym^2(U) F Sym^2(V)^T and takes the p-adic
valuation of all nine entries, rebuilding the class tables and their Sym^2
matrices on every call.  It enumerates in the library's order, so it returns
the same first reducer; it serves only as the reference the differential
tests compare `construct._oracle_reducer` against, at small p.
"""

from g1min.construct import ORACLE_WEIGHT_PAIRS, _stretch_classes
from g1min.exactnum import mat_mul, valuation
from g1min.models import sym_power_matrix


def reference_oracle_reducer(F, p):
    """(U, V, (a, b)) making the stretched form integral, or None."""
    rows = F.rows
    classes = {k: _stretch_classes(p, k) for k in (0, 1, 2)}
    syms = {k: [sym_power_matrix(U, 2) for U in classes[k]] for k in (0, 1, 2)}
    for a, b in ORACLE_WEIGHT_PAIRS:
        thresholds = [(r, c, a * (1 - r) + b * (1 - c) + 1)
                      for r in range(3) for c in range(3)
                      if a * (1 - r) + b * (1 - c) + 1 > 0]
        for iu, U in enumerate(classes[a]):
            left = mat_mul(syms[a][iu], rows)
            for iv, V in enumerate(classes[b]):
                sv = tuple(tuple(syms[b][iv][c][r] for c in range(3)) for r in range(3))
                m = mat_mul(left, sv)
                if all(valuation(m[r][c], p) >= need for r, c, need in thresholds):
                    return U, V, (a, b)
    return None
