"""The level decomposition v(Delta) = v(Delta_min) + 12 kappa + 12 level.

The Jacobian's minimal discriminant comes from a full local minimal-model
computation (all residue characteristics); kappa measures the denominator
depth of the marked point on that minimal model.  The point 5 * (0, 0) on
y^2 + y = x^3 - x is (1/4, -5/8), whose x has 2-adic valuation -2 = -2 kappa.
"""

from fractions import Fraction

from g1min import (
    GroupElement, LocalContext, Point, WeierstrassCurve, act, construct_22, kappa, level,
    minimal_discriminant_valuation, on_curve,
)

ctx = LocalContext(2)
F = construct_22(0, 0, 0, 1)
print("level report of the level-zero form:", level(F, ctx))
print("after scaling the form by 2:", level(act(GroupElement.scaling("form22", 2), F), ctx))

E = WeierstrassCurve(0, 0, 1, -1, 0)
print("\ncurve y^2 + y = x^3 - x: Delta =", E.disc)
v, cmap = minimal_discriminant_valuation(E, ctx)
print("minimal discriminant valuation at 2:", v)

Q = Point(Fraction(1, 4), Fraction(-5, 8))  # 5 * (0, 0)
print("5 * (0,0) =", (Q.x, Q.y), " on the curve:", on_curve(E, Q))
print("kappa at 2:", kappa(Q, E, ctx))
