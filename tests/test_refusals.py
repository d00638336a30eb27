"""The library's typed refusals: each input check raises its own type, with
the message the command line prints, in a fixed order.  The checks below the
command line's reach raise builtin types, each with its own message."""

from fractions import Fraction
from functools import partial
import json
import time

import pytest

from g1min import (
    BinaryQuartic, Cube, FactorizationError, GroupElement, LocalContext, Point, RefusedInputError,
    SingularModelError, TernaryCubic, TwoTwoForm, UnsupportedModelError, WeierstrassCurve, act,
    c4_c6, construct_22, construct_cube, convert_2to3, convert_3to2, critical_model,
    group_element_from_dict, inflate, is_minimal, is_minimal_22, kappa, level, minimal_model,
    minimise, minimise_global, minimise_hypercube, model_from_dict, oracle_minimality_22,
    saturation_defect, trial_division_factor,
)
from g1min.cli import main
from g1min.exactnum import (
    complete_primitive_row, form_to_last, fp_inv, fp_poly_divmod, fp_poly_roots,
)
from g1min.residue import binary_roots

QUARTIC = BinaryQuartic((1, 0, 0, 0, 1))
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


def _quartic_doc(first):
    return {"kind": "quartic", "coeffs": [first, "0", "0", "0", "1"]}


# builders of non-integral models, which no model holds: whatever a caller
# would do with one, the call is refused where it builds the model, by
# model_from_dict, the constructor or from_coeffs, before any other check
RATIONAL_QUARTIC = partial(model_from_dict, {"kind": "quartic",
                                             "coeffs": ["1/2", "0", "0", "0", "3"]})
SINGULAR_RATIONAL_QUARTIC = partial(BinaryQuartic, (Fraction(1, 2), 0, 0, 0, 0))
RATIONAL_22 = partial(_plus, construct_22(1, 2, 3, 4), 0, Fraction(1, 2))
RATIONAL_CUBE = partial(_plus, construct_cube(1, 2, 3, 4), 13, Fraction(1, 3))
RATIONAL_HYPERCUBE = partial(_plus, critical_model("hypercube", 5, 1), 0, Fraction(1, 2))
SINGULAR_RATIONAL_22 = partial(TwoTwoForm, ((Fraction(1, 2), 0, 0), (0, 0, 0), (0, 0, 0)))
_NOT_INT = "model coefficients are ints, not Fraction"
INFLATED_CUBE = inflate(CUBE, 3, 1)[0]
CURVE = WeierstrassCurve(0, 0, 0, 256, 0)

_CUBIC_REFUSAL = "ternary cubics are carried along, not minimised directly"
_PERM_REFUSAL = ('certificates permute no axes: "perm" is [0, 1, 2, 3] on a hypercube and '
                 'absent otherwise')

# case: (model or its builder, prime, type, message) of minimise, which
# is_minimal mirrors check for check; a case naming two faults pins which
# check comes first
MINIMISE_REFUSALS = {
    "non-integral": (RATIONAL_QUARTIC, 3, RefusedInputError, "model must be integral"),
    "non-integral-composite-prime": (RATIONAL_QUARTIC, 6, RefusedInputError,
                                     "model must be integral"),
    "composite-prime": (FORM22, 6, RefusedInputError, "6 is not prime"),
    "float-prime": (FORM22, 3.0, RefusedInputError, "the prime must be an int, got 3.0"),
    "fraction-prime": (FORM22, Fraction(5), RefusedInputError,
                       "the prime must be an int, got Fraction(5, 1)"),
    "str-prime": (FORM22, "3", RefusedInputError, "the prime must be an int, got '3'"),
    "non-integral-22": (RATIONAL_22, 5, RefusedInputError, _NOT_INT),
    "non-integral-22-composite-prime": (RATIONAL_22, 6, RefusedInputError, _NOT_INT),
    "cubic": (CUBIC, 2, UnsupportedModelError, _CUBIC_REFUSAL),
    "cubic-composite-prime": (CUBIC, 6, UnsupportedModelError, _CUBIC_REFUSAL),
    "not-a-model": ("x^4", 2, UnsupportedModelError,
                    "cannot minimise a model of kind <class 'str'>"),
    "singular-non-integral": (SINGULAR_RATIONAL_QUARTIC, 3, RefusedInputError, _NOT_INT),
    "singular-composite-prime": (ZERO_22, 6, SingularModelError, "singular model"),
    "singular-non-integral-22": (SINGULAR_RATIONAL_22, 5, RefusedInputError, _NOT_INT),
}


def _run(run, m, p):
    """The call run(m, p), m built in it when it is a builder."""
    return lambda: run(m() if callable(m) else m, p)


# id: (call, type, message); an id naming two faults pins which check comes first
REFUSALS = {
    **{f"{name}/{case}": (_run(run, m, p), error, message)
       for name, run in (("minimise", minimise), ("is_minimal", is_minimal))
       for case, (m, p, error, message) in MINIMISE_REFUSALS.items()},
    "context/composite": (lambda: LocalContext(6), RefusedInputError, "6 is not prime"),
    "context/float": (lambda: LocalContext(3.0), RefusedInputError,
                      "the prime must be an int, got 3.0"),
    "context/fraction": (lambda: LocalContext(Fraction(5)), RefusedInputError,
                         "the prime must be an int, got Fraction(5, 1)"),
    "global/non-integral": (lambda: minimise_global(RATIONAL_QUARTIC()), RefusedInputError,
                            "model must be integral"),
    "critical/small-prime": (lambda: critical_model("cube", 3), RefusedInputError,
                             "critical patterns are stated for p >= 5"),
    "oracle/prime-bound": (lambda: oracle_minimality_22(FORM22, 7), RefusedInputError,
                           "oracle limited to p <= 5"),
    "global/non-integral-22": (lambda: minimise_global(RATIONAL_22()), RefusedInputError,
                               _NOT_INT),
    "level/non-integral-22": (lambda: level(RATIONAL_22(), 5), RefusedInputError, _NOT_INT),
    "level/non-integral-cube": (lambda: level(RATIONAL_CUBE(), 5), RefusedInputError,
                                _NOT_INT),
    "level/non-integral-hypercube": (lambda: level(RATIONAL_HYPERCUBE(), 5), RefusedInputError,
                                     _NOT_INT),
    "oracle/non-integral": (lambda: oracle_minimality_22(
        TwoTwoForm(((Fraction(1, 2), 0, 0), (0, 0, -1), (1, 0, 0))), 2),
        RefusedInputError, _NOT_INT),
    # a bool is an int subclass, which a model refuses as it refuses a Fraction
    "models/bool": (lambda: BinaryQuartic((True, 0, 0, 0, 1)), RefusedInputError,
                    "model coefficients are ints, not bool"),
    # a group element's scalar is an int or a Fraction: Fraction() would take
    # a float or a bool as well
    "models/float-scalar": (lambda: GroupElement("form22", 0.1, (I2, I2)), RefusedInputError,
                            "group element scalars are ints or Fractions, not float"),
    "models/bool-scalar": (lambda: GroupElement("form22", True, (I2, I2)), RefusedInputError,
                           "group element scalars are ints or Fractions, not bool"),
    "models/bool-scaling": (lambda: GroupElement.scaling("form22", True), RefusedInputError,
                            "group element scalars are ints or Fractions, not bool"),
    # the prime is checked before the curve, so none of these starts a descent
    **{f"minimal_model/{case}": (partial(minimal_model, CURVE, p), RefusedInputError, message)
       for case, p, message in (("one", 1, "1 is not prime"),
                                ("composite-prime", 6, "6 is not prime"),
                                ("negative-prime", -3, "-3 is not prime"),
                                ("zero", 0, "0 is not prime"),
                                ("float-prime", 2.0, "the prime must be an int, got 2.0"))},

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
    "minimise_hypercube/cube": (lambda: minimise_hypercube(INFLATED_CUBE, 3),
                                UnsupportedModelError,
                                "the hypercube minimiser got a cube model"),
    "minimise_hypercube/cube-prime-6": (lambda: minimise_hypercube(INFLATED_CUBE, 6),
                                        UnsupportedModelError,
                                        "the hypercube minimiser got a cube model"),
    "minimise_hypercube/cubic": (lambda: minimise_hypercube(CUBIC, 2), UnsupportedModelError,
                                 _CUBIC_REFUSAL),
    "is_minimal_22/quartic": (lambda: is_minimal_22(QUARTIC, 3), UnsupportedModelError,
                              "the form22 minimiser got a quartic model"),
    "is_minimal_22/not-a-model": (lambda: is_minimal_22("x^4", 2), UnsupportedModelError,
                                  "cannot minimise a model of kind <class 'str'>"),

    "level/singular": (lambda: level(ZERO_22, 2), SingularModelError, "singular model"),
    "level/singular-composite-prime": (lambda: level(ZERO_22, 6), RefusedInputError,
                                       "6 is not prime"),
    "level/non-integral-composite-prime": (lambda: level(RATIONAL_22(), 6), RefusedInputError,
                                           _NOT_INT),
    "level/float-prime": (lambda: level(FORM22, 3.0), RefusedInputError,
                          "the prime must be an int, got 3.0"),
    "level/fraction-prime": (lambda: level(FORM22, Fraction(5)), RefusedInputError,
                             "the prime must be an int, got Fraction(5, 1)"),
    "level/str-prime": (lambda: level(FORM22, "3"), RefusedInputError,
                        "the prime must be an int, got '3'"),
    "global/singular-non-integral-22": (lambda: minimise_global(SINGULAR_RATIONAL_22()),
                                        RefusedInputError, _NOT_INT),
    "level/singular-non-integral": (lambda: level(SINGULAR_RATIONAL_22(), 5),
                                    RefusedInputError, _NOT_INT),
    "oracle/singular-prime-bound": (lambda: oracle_minimality_22(ZERO_22, 7),
                                    RefusedInputError, "oracle limited to p <= 5"),
    "oracle/singular-non-integral": (lambda: oracle_minimality_22(SINGULAR_RATIONAL_22(), 5),
                                     RefusedInputError, _NOT_INT),

    "factor/zero": (lambda: trial_division_factor(0), FactorizationError,
                    "cannot factor zero"),

    # an exponent spelling is refused before Fraction() builds a value that
    # needs more than the spelling's length plus 4300 digits
    "models/huge-exponent": (partial(model_from_dict, _quartic_doc("1e1000000")),
                             RefusedInputError, "a coefficient needs more than 4309 digits"),
    "models/huge-negative-exponent": (partial(model_from_dict, _quartic_doc("1e-1000000")),
                                      RefusedInputError,
                                      "a coefficient needs more than 4310 digits"),
    "models/exponent-past-the-bound": (partial(model_from_dict, _quartic_doc("1e4306")),
                                       RefusedInputError,
                                       "a coefficient needs more than 4306 digits"),
    "models/huge-exponent-scalar": (
        lambda: group_element_from_dict({"kind": "quartic", "scalar": "2.5e-1000000",
                                         "matrices": [[["1", "0"], ["0", "1"]]]}),
        RefusedInputError, "a coefficient needs more than 4312 digits"),
    # certificates of earlier versions could permute a hypercube's axes
    "models/bad-permutation": (
        lambda: group_element_from_dict({"kind": "hypercube", "scalar": "1", "perm": [1, 0, 2, 3],
                                         "matrices": [[["1", "0"], ["0", "1"]]] * 4}),
        RefusedInputError, _PERM_REFUSAL),
    "models/permutation-off-hypercube": (
        lambda: group_element_from_dict({"kind": "form22", "scalar": "1", "perm": [0, 1, 2, 3],
                                         "matrices": [[["1", "0"], ["0", "1"]]] * 2}),
        RefusedInputError, _PERM_REFUSAL),
}


I2 = ((1, 0), (0, 1))
FORM22_ID = GroupElement("form22", 1, (I2, I2))

# id: (call, type, message) for the library's own input checks below the
# command line, which raise builtin types
INPUT_CHECKS = {
    "models/nested-shape": (lambda: TwoTwoForm(((1, 2, 3), (4, 5, 6))), ValueError,
                            "form22 needs a 3x3 coefficient array"),
    "models/nested-inner-shape": (lambda: TwoTwoForm(((1, 2, 3), (4, 5), (6, 7, 8))), ValueError,
                                  "form22 needs a 3x3 coefficient array"),
    "models/nested-innermost-shape": (
        lambda: Cube((((0,) * 3,) * 3,) * 2 + (((0, 0, 0), (0, 0, 0), (0, 0)),)), ValueError,
        "cube needs a 3x3x3 coefficient array"),
    "models/coefficient-count": (lambda: BinaryQuartic.from_coeffs((1, 2, 3)), ValueError,
                                 "quartic needs 5 coefficients"),
    "models/matrix-sizes": (lambda: GroupElement("form22", 1, (I2,)), ValueError,
                            "wrong matrix sizes for kind form22"),
    "models/compose-across-kinds": (lambda: FORM22_ID.compose(GroupElement("quartic", 1, (I2,))),
                                    ValueError, "kind mismatch"),
    "models/act-across-kinds": (lambda: act(FORM22_ID, CUBE), ValueError,
                                "group element for form22 applied to cube"),
    "exactnum/inverse-of-zero": (lambda: fp_inv(10, 5), ZeroDivisionError, "inverse of 0 mod 5"),
    "exactnum/divide-by-zero-polynomial": (lambda: fp_poly_divmod([1], [], 5), ZeroDivisionError,
                                           "polynomial division by zero"),
    "exactnum/roots-of-zero": (lambda: fp_poly_roots([5], 5), ValueError, "zero polynomial"),
    "exactnum/non-primitive-row": (lambda: complete_primitive_row((2, 4)), ValueError,
                                   "(2, 4) is not primitive"),
    **{f"exactnum/form-to-last-length-{n}": (
        partial(form_to_last, tuple(range(1, n + 1)), 5), ValueError,
        f"form_to_last moves ternary linear forms, got length {n}") for n in (2, 4)},
    "residue/zero-form": (lambda: binary_roots((5, 0, 10), 5), ValueError, "zero form"),
    "residue/saturation-of-quartic": (lambda: saturation_defect(QUARTIC, 5), TypeError,
                                      "saturation is defined for cubes and hypercubes"),
    "invariants/not-a-model": (lambda: c4_c6("x^4"), TypeError, "not a model: 'x^4'"),
    "weierstrass/kappa-on-singular-curve": (
        lambda: kappa(Point(1, 1), WeierstrassCurve(0, 0, 0, 0, 0), 2), ValueError,
        "singular curve"),
}


@pytest.mark.parametrize("call, error, message", [*REFUSALS.values(), *INPUT_CHECKS.values()],
                         ids=[*REFUSALS, *INPUT_CHECKS])
def test_the_library_raises_each_refusal_typed(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_an_exponent_at_the_bound_still_reads():
    # "1e4305" needs 4306 digits, its length plus 4300
    assert model_from_dict(_quartic_doc("1e4305")).coeffs[0] == 10 ** 4305
    assert model_from_dict(_quartic_doc("0.5e2")).coeffs[0] == 50


def test_a_huge_exponent_is_refused_at_once(tmp_path):
    # Fraction() alone takes seconds to build 10^(10^7); the library and the
    # command line's rational path refuse it first
    start = time.perf_counter()
    with pytest.raises(RefusedInputError):
        model_from_dict(_quartic_doc("1e10000000"))
    path = tmp_path / "q.json"
    path.write_text(json.dumps(_quartic_doc("0.75e-10000000")))
    assert main(["invariants", str(path)]) == 2
    assert time.perf_counter() - start < 1.0


def test_refusal_types_keep_their_builtin_bases():
    # a caller that caught ValueError or TypeError before catches them still
    assert issubclass(RefusedInputError, ValueError)
    assert issubclass(UnsupportedModelError, TypeError)
    assert issubclass(UnsupportedModelError, ValueError)
    assert not issubclass(RefusedInputError, (TypeError, SingularModelError))
