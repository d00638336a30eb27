"""Hypercubes: six (2,2)-forms, one verdict.

A hypercube is minimal exactly when one of its six associated forms is, and
its three marked points sum to zero on the common cubic model: three
distinct points do exactly when they are collinear.  The famous
counterexample shape (all four binary quartics divisible by p^2, hypercube
still minimal) falls out of a lifted identity pattern.
"""

import random

from g1min import (
    Hypercube, LocalContext, WeierstrassCurve, Point, forms_of_hypercube,
    hypercube_invariants, is_minimal_22, minimise_hypercube, on_curve,
    quartics_of_22, valuation, discriminant,
)

rng = random.Random(7)
while True:
    H = Hypercube(tuple(tuple(tuple(tuple(rng.randint(-3, 3) for _ in range(2))
                 for _ in range(2)) for _ in range(2)) for _ in range(2)))
    if discriminant(H) != 0:
        break

hi = hypercube_invariants(H)
E = WeierstrassCurve(0, 0, 0, -27 * hi.c4, -54 * hi.c6)
P1, P2, P3 = (Point(x, y) for x, y in hi.points_on_common_model)
print("marked points on y^2 = x^3 - 27 c4 x - 54 c6, all on the curve:",
      all(on_curve(E, P) for P in (P1, P2, P3)))
print("three distinct points:", len({P1, P2, P3}) == 3)
print("P1 + P2 + P3 = 0, as they are collinear:",
      (P2.x - P1.x) * (P3.y - P1.y) == (P3.x - P1.x) * (P2.y - P1.y))

ctx = LocalContext(3)
verdict = minimise_hypercube(H, ctx).input_was_minimal
forms = forms_of_hypercube(H)
print("hypercube minimal at 3:", verdict)
print("some associated form minimal:",
      any(is_minimal_22(F, ctx) for F in forms.values()))

# the deep-vanishing fixpoint
p = 3
pattern = [[[[0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
for (i, j, k, l) in ((0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)):
    pattern[i][j][k][l] = 1
while True:
    lift = Hypercube(tuple(tuple(tuple(tuple(pattern[i][j][k][l] + p * p * rng.randint(-2, 2)
                     for l in range(2)) for k in range(2)) for j in range(2)) for i in range(2)))
    if discriminant(lift) != 0:
        break
print("\nlifted identity pattern at p = 3:")
# each of the four axis quartics is one of the two quartics of the three
# forms that carry its axis
print("  every binary quartic vanishes mod p^2:",
      all(all(valuation(c, p) >= 2 for c in G.coeffs if c)
          for F in forms_of_hypercube(lift).values() for G in quartics_of_22(F)))
print("  yet the hypercube is minimal:",
      minimise_hypercube(lift, ctx).input_was_minimal)
