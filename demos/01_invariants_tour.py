"""Tour of the model kinds and their exact invariants.

Every model carries c4, c6 and Delta = (c4^3 - c6^2)/1728; the kinds with a
marked point also produce a Weierstrass curve, the point (xi, eta) on it, and
the weight-2/3 invariants u, v tied together by an exact syzygy.
"""

from g1min import (
    BinaryQuartic, TernaryCubic, TwoTwoForm, construct_22, cube_invariants,
    construct_cube, cubic_invariants, form22_invariants, quartic_invariants,
)

quartic = BinaryQuartic((1, 0, 0, 0, 1))  # x1^4 + x2^4
print("binary quartic x1^4 + x2^4:")
print("  (I, J, Delta) =", quartic_invariants(quartic))

cubic = TernaryCubic.from_dict({(1, 1, 1): 1})  # xyz
print("ternary cubic xyz (the normalisation pin):")
print("  (c4, c6, Delta) =", cubic_invariants(cubic))

form = construct_22(0, 0, 0, 1)  # built from y^2 = x^3 + x with P = (0, 0)
inv = form22_invariants(form)
print("(2,2)-form built from y^2 = x^3 + x:")
print("  coefficient matrix:", form.rows)
print("  c4, c6, Delta =", inv.c4, inv.c6, inv.disc)
print("  recovered curve a-invariants:", inv.a_invariants)
print("  marked point:", (inv.xi, inv.eta), " u, v =", inv.u, inv.v)

cube = construct_cube(0, 0, 0, 1)
cinv = cube_invariants(cube)
print("3x3x3 cube for the same curve:")
print("  c4, c6, Delta =", cinv.c4, cinv.c6, cinv.disc)
print("  syzygy check: (108 v)^2 == (3u)^3 - 27 c4 (3u) - 54 c6:",
      (108 * cinv.v) ** 2 == (3 * cinv.u) ** 3 - 27 * cinv.c4 * (3 * cinv.u) - 54 * cinv.c6)
