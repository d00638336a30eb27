"""Minimising a deliberately inflated (2,2)-form, with the certificate.

We take a level-zero form, push its discriminant valuation up with integral
moves, then watch the minimiser walk it back down.  The report's group
element g satisfies act(g, input) == output exactly.
"""

from g1min import (
    LocalContext, act, construct_22, discriminant, inflate, level, minimise,
    valuation,
)

ctx = LocalContext(3)
base = construct_22(1, 0, 0, -1)
print("base form:", base.rows)
print("Delta =", discriminant(base), " v_3 =", valuation(discriminant(base), 3))

inflated, g_up = inflate(base, ctx, seed_or_rng=11, moves=3)
print("\nafter three integral level-raising moves:")
print("  v_3(Delta) =", valuation(discriminant(inflated), 3))

report = minimise(inflated, ctx)
print("\nminimisation trace:")
for step in report.steps:
    print(f"  {step.label:16s} v(Delta): {step.v_disc_before} -> {step.v_disc_after}")
print("final v_3(Delta) =", report.v_disc_final)
print("certificate reproduces the output:",
      act(report.transformation, inflated) == report.model)
print("level of the result:", level(report.model, ctx))
