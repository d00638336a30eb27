"""Independent checks: the admissible-weight census and the brute-force
minimality oracle for (2,2)-forms.

The census lists the diagonal weight tuples for cube minimisation that are
minimal under componentwise dominance of clamped deficiency vectors: exactly
81 classes, 8 of which survive the symmetry normalisation.  The library
ships them as a literal, which the tests certify against every weight of
scale <= 10.
The oracle decides minimality of a (2,2)-form by exhausting residue
substitutions and diagonal stretches, with no reference to the minimiser.
"""

from g1min import (
    GroupElement, LocalContext, act, construct_22, enumerate_minimal_weights, is_minimal_22,
    oracle_minimality_22, symmetric_minimal_weights,
)

weights = enumerate_minimal_weights()
sym = symmetric_minimal_weights()
print(f"{len(weights)} minimal weight classes; {len(sym)} after symmetry:")
for w in sym:
    e = w.entries
    print(f"  ({e[0]},{e[1]}; {e[2]},{e[3]}; {e[4]},{e[5]})   scale s = {w.s}")

ctx = LocalContext(2)
F = construct_22(0, 0, 0, 1)
F2 = act(GroupElement.scaling("form22", 2), F)
print("\noracle on the level-zero form:", oracle_minimality_22(F, ctx))
print("oracle on its 2-scaling:", oracle_minimality_22(F2, ctx))
print("minimiser agrees:", is_minimal_22(F, ctx), is_minimal_22(F2, ctx))
