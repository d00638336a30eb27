"""Exact minimisation of genus-one models: bidegree (2,2)-forms, 3x3x3
cubes and 2x2x2x2 hypercubes (with binary quartics as the prototype), their
invariants, Jacobian Weierstrass data, marked points, and levels.

All arithmetic is exact: models and Weierstrass curves hold ints, and a
group element's scalar is a Fraction; every minimisation returns a
transformation certificate g with act(g, input) == output.
"""

from .exactnum import INFINITY, LocalContext, RefusedInputError, is_prime, valuation
from .models import (
    BinaryQuartic, Cube, GroupElement, Hypercube, SingularModelError, TernaryCubic,
    TwoTwoForm, UnsupportedModelError, act, content_valuation, cubics_of_cube,
    forms_of_hypercube, model_from_dict, model_to_dict, quartics_of_22,
    group_element_from_dict, group_element_to_dict,
)
from .invariants import (
    InvariantSet, c4_c6, cube_invariants, cubic_invariants, discriminant,
    form22_invariants, hypercube_invariants, quartic_invariants,
)
from .weierstrass import (
    CurveMap, LevelReport, Point, WeierstrassCurve, kappa, level,
    minimal_discriminant_valuation, minimal_model, on_curve,
)
from .residue import (
    Residue22Class, ResidueCubicClass, classify_22_residue, classify_cubic_residue,
    repeated_root, saturation_defect,
)
from .minimise import (
    FactorizationError, GlobalReport, InternalBoundError, MinimisationReport,
    Step, Verdict, is_minimal, is_minimal_22, minimise, minimise_global,
    minimise_hypercube, trial_division_factor,
)
from .construct import (
    WeightTuple, construct_22, construct_cube, convert_2to3, convert_3to2,
    critical_model, enumerate_minimal_weights, inflate, marked_curve,
    oracle_minimality_22, symmetric_minimal_weights,
)

__version__ = "0.1.0"
