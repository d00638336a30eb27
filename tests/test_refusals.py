"""The library's typed refusals: each input check raises its own type, with
the message the command line prints, in a fixed order."""

from fractions import Fraction

import pytest

from g1min import (
    BinaryQuartic, FactorizationError, LocalContext, RefusedInputError, SingularModelError,
    TernaryCubic, TwoTwoForm, UnsupportedModelError, construct_22, construct_cube,
    convert_2to3, convert_3to2, critical_model, inflate, is_minimal_22, level, minimise,
    minimise_22, minimise_cube, minimise_global, minimise_hypercube, minimise_quartic,
    oracle_minimality_22, trial_division_factor,
)

QUARTIC = BinaryQuartic((1, 0, 0, 0, 1))
RATIONAL_QUARTIC = BinaryQuartic((Fraction(1, 2), 0, 0, 0, 3))
SINGULAR_RATIONAL_QUARTIC = BinaryQuartic((Fraction(1, 2), 0, 0, 0, 0))
ZERO_22 = TwoTwoForm(((0, 0, 0),) * 3)
FORM22 = construct_22(0, 0, 0, 1)
CUBE = construct_cube(0, 0, 0, 1)
# x^3 + y^3 + z^3 + xyz has no candidate prime; 16(x^3 + y^3 + z^3 + 3xyz)
# has the candidate 2
CUBIC = TernaryCubic.from_dict({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 1})
CUBIC_AT_2 = TernaryCubic.from_dict(
    {(3, 0, 0): 16, (0, 3, 0): 16, (0, 0, 3): 16, (1, 1, 1): 48})


def _plus(m, position, fraction):
    """m with `fraction` added to one coefficient."""
    coeffs = list(m.coeffs)
    coeffs[position] += fraction
    return type(m).from_coeffs(coeffs)


# non-integral models whose Delta the invariant formulas cannot divide out
RATIONAL_22 = _plus(construct_22(1, 2, 3, 4), 0, Fraction(1, 2))
RATIONAL_CUBE = _plus(construct_cube(1, 2, 3, 4), 13, Fraction(1, 3))
RATIONAL_HYPERCUBE = _plus(critical_model("hypercube", 5, 1), 0, Fraction(1, 2))
SINGULAR_RATIONAL_22 = TwoTwoForm(((Fraction(1, 2), 0, 0), (0, 0, 0), (0, 0, 0)))
INFLATED_CUBE = inflate(CUBE, 3, 1)[0]
HYPERCUBE = critical_model("hypercube", 5, 1)

_CUBIC_REFUSAL = "ternary cubics are carried along, not minimised directly"

# id: (call, type, message); an id naming two faults pins which check comes first
REFUSALS = {
    "context/composite": (lambda: LocalContext(6), RefusedInputError, "6 is not prime"),
    "minimise/non-integral": (lambda: minimise(RATIONAL_QUARTIC, 3), RefusedInputError,
                              "model must be integral"),
    "minimise/non-integral-composite-prime": (lambda: minimise(RATIONAL_QUARTIC, 6),
                                              RefusedInputError, "model must be integral"),
    "minimise/composite-prime": (lambda: minimise(FORM22, 6), RefusedInputError,
                                 "6 is not prime"),
    "global/non-integral": (lambda: minimise_global(RATIONAL_QUARTIC), RefusedInputError,
                            "model must be integral"),
    "critical/small-prime": (lambda: critical_model("cube", 3), RefusedInputError,
                             "critical patterns are stated for p >= 5"),
    "oracle/prime-bound": (lambda: oracle_minimality_22(FORM22, 7), RefusedInputError,
                           "oracle limited to p <= 5"),
    "minimise/non-integral-22": (lambda: minimise(RATIONAL_22, 5), RefusedInputError,
                                 "model must be integral"),
    "minimise/non-integral-22-composite-prime": (lambda: minimise(RATIONAL_22, 6),
                                                 RefusedInputError, "model must be integral"),
    "global/non-integral-22": (lambda: minimise_global(RATIONAL_22), RefusedInputError,
                               "model must be integral"),
    "level/non-integral-22": (lambda: level(RATIONAL_22, 5), RefusedInputError,
                              "model must be integral"),
    "level/non-integral-cube": (lambda: level(RATIONAL_CUBE, 5), RefusedInputError,
                                "model must be integral"),
    "level/non-integral-hypercube": (lambda: level(RATIONAL_HYPERCUBE, 5), RefusedInputError,
                                     "model must be integral"),
    "oracle/non-integral": (lambda: oracle_minimality_22(
        TwoTwoForm(((Fraction(1, 2), 0, 0), (0, 0, -1), (1, 0, 0))), 2),
        RefusedInputError, "model must be integral"),

    "minimise/cubic": (lambda: minimise(CUBIC, 2), UnsupportedModelError, _CUBIC_REFUSAL),
    "minimise/cubic-composite-prime": (lambda: minimise(CUBIC, 6), UnsupportedModelError,
                                       _CUBIC_REFUSAL),
    "minimise/not-a-model": (lambda: minimise("x^4", 2), UnsupportedModelError,
                             "cannot minimise a model of kind <class 'str'>"),
    "global/cubic": (lambda: minimise_global(CUBIC), UnsupportedModelError, _CUBIC_REFUSAL),
    "global/cubic-with-a-candidate": (lambda: minimise_global(CUBIC_AT_2),
                                      UnsupportedModelError, _CUBIC_REFUSAL),
    "level/quartic": (lambda: level(QUARTIC, 2), UnsupportedModelError,
                      "level is not defined for kind quartic"),
    "level/quartic-composite-prime": (lambda: level(QUARTIC, 6), UnsupportedModelError,
                                      "level is not defined for kind quartic"),
    "2to3/cube": (lambda: convert_2to3(CUBE), UnsupportedModelError,
                  "2to3 needs a form22 model, got cube"),
    "2to3/corner": (lambda: convert_2to3(FORM22), UnsupportedModelError,
                    "((1:0),(1:0)) is not on the curve: a11 != 0"),
    "3to2/form22": (lambda: convert_3to2(FORM22), UnsupportedModelError,
                    "3to2 needs a cube model, got form22"),
    "3to2/corner": (lambda: convert_3to2(CUBE), UnsupportedModelError,
                    "the bilinear forms do not vanish at ((0:0:1),(0:0:1))"),
    "oracle/cube": (lambda: oracle_minimality_22(CUBE, 2), UnsupportedModelError,
                    "the minimality oracle works on form22 models, got cube"),
    "critical/quartic": (lambda: critical_model("quartic", 5), UnsupportedModelError,
                         "no critical pattern for kind 'quartic'"),
    "minimise_22/cube": (lambda: minimise_22(INFLATED_CUBE, 3), UnsupportedModelError,
                         "the form22 minimiser got a cube model"),
    "minimise_22/cube-composite-prime": (lambda: minimise_22(INFLATED_CUBE, 6),
                                         UnsupportedModelError,
                                         "the form22 minimiser got a cube model"),
    "minimise_22/cubic": (lambda: minimise_22(CUBIC, 2), UnsupportedModelError,
                          _CUBIC_REFUSAL),
    "minimise_hypercube/cube": (lambda: minimise_hypercube(INFLATED_CUBE, 3),
                                UnsupportedModelError,
                                "the hypercube minimiser got a cube model"),
    "is_minimal_22/quartic": (lambda: is_minimal_22(QUARTIC, 3), UnsupportedModelError,
                              "the form22 minimiser got a quartic model"),
    "minimise_cube/hypercube": (lambda: minimise_cube(HYPERCUBE, 5), UnsupportedModelError,
                                "the cube minimiser got a hypercube model"),
    "minimise_quartic/not-a-model": (lambda: minimise_quartic("x^4", 2),
                                     UnsupportedModelError,
                                     "cannot minimise a model of kind <class 'str'>"),

    "minimise/singular-non-integral": (lambda: minimise(SINGULAR_RATIONAL_QUARTIC, 3),
                                       SingularModelError, "singular model"),
    "minimise/singular-composite-prime": (lambda: minimise(ZERO_22, 6), SingularModelError,
                                          "singular model"),
    "level/singular": (lambda: level(ZERO_22, 2), SingularModelError, "singular model"),
    "level/singular-composite-prime": (lambda: level(ZERO_22, 6), RefusedInputError,
                                       "6 is not prime"),
    "level/non-integral-composite-prime": (lambda: level(RATIONAL_22, 6), RefusedInputError,
                                           "6 is not prime"),
    "minimise/singular-non-integral-22": (lambda: minimise(SINGULAR_RATIONAL_22, 5),
                                          SingularModelError, "singular model"),
    "global/singular-non-integral-22": (lambda: minimise_global(SINGULAR_RATIONAL_22),
                                        SingularModelError, "singular model"),
    "level/singular-non-integral": (lambda: level(SINGULAR_RATIONAL_22, 5),
                                    SingularModelError, "singular model"),
    "oracle/singular-prime-bound": (lambda: oracle_minimality_22(ZERO_22, 7),
                                    RefusedInputError, "oracle limited to p <= 5"),
    "oracle/singular-non-integral": (lambda: oracle_minimality_22(SINGULAR_RATIONAL_22, 5),
                                     SingularModelError, "singular model"),

    "factor/zero": (lambda: trial_division_factor(0), FactorizationError,
                    "cannot factor zero"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_the_library_raises_each_refusal_typed(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_refusal_types_keep_their_builtin_bases():
    # a caller that caught ValueError or TypeError before catches them still
    assert issubclass(RefusedInputError, ValueError)
    assert issubclass(UnsupportedModelError, TypeError)
    assert issubclass(UnsupportedModelError, ValueError)
    assert not issubclass(RefusedInputError, (TypeError, SingularModelError))
