"""The library's records: immutable fields, equality and hashing by field, a
`Name(field=value, ...)` repr, and a round trip through pickle and deepcopy."""

import copy
from fractions import Fraction
import pickle

import pytest

from g1min import (
    BinaryQuartic, Cube, CurveMap, GroupElement, Hypercube, LocalContext, Point, TernaryCubic,
    TwoTwoForm, WeierstrassCurve, WeightTuple, classify_22_residue, classify_cubic_residue,
    construct_22, critical_model, form22_invariants, hypercube_invariants, inflate, level,
    minimise, minimise_global,
)
from g1min.minimise import _Move

FORM22 = construct_22(1, 2, 3, 4)
INFLATED_22 = inflate(FORM22, 3, 2)[0]
HYPERCUBE = critical_model("hypercube", 5, 1)
HYPER_ELEMENT = (lambda: GroupElement("hypercube", Fraction(3, 2),
                                      (((1, 1), (0, 1)), ((2, 0), (0, 1)), ((1, 0), (0, 1)),
                                       ((0, 1), (1, 0)))))

MODELS = {
    "quartic": lambda: BinaryQuartic((1, -2, 3, 0, 5)),
    "form22": lambda: TwoTwoForm(((1, 2, 3), (4, 5, 6), (7, 8, -9))),
    "cubic": lambda: TernaryCubic((1, 0, 0, 2, 0, 0, 3, 0, 0, 4)),
    "cube": lambda: Cube(tuple(tuple(tuple(9 * i + 3 * j + k for k in range(3))
                                     for j in range(3)) for i in range(3))),
    "hypercube": lambda: HYPERCUBE,
}

# record type name: a builder of one record, called twice for two equal ones
RECORDS = {
    **{f"model-{kind}": build for kind, build in MODELS.items()},
    "GroupElement": HYPER_ELEMENT,
    "Step": lambda: minimise(INFLATED_22, 3).steps[0],
    "MinimisationReport": lambda: minimise(INFLATED_22, 3),
    "_Move": lambda: _Move(HYPER_ELEMENT(), "stretch", (1,), 0, chained=True),
    "GlobalReport": lambda: minimise_global(INFLATED_22),
    "WeierstrassCurve": lambda: WeierstrassCurve(1, -1, 0, 256, 3),
    "Point": lambda: Point(Fraction(1, 4), -3),
    "CurveMap": lambda: CurveMap(3, 1, 2, 5),
    "LevelReport": lambda: level(INFLATED_22, 3),
    "InvariantSet": lambda: form22_invariants(FORM22),
    "HypercubeInvariants": lambda: hypercube_invariants(HYPERCUBE),
    "Residue22Class": lambda: classify_22_residue(INFLATED_22, LocalContext(3)),
    "ResidueCubicClass": lambda: classify_cubic_residue(
        TernaryCubic.from_dict({(0, 2, 1): 1, (3, 0, 0): -1}), LocalContext(5)),
    "WeightTuple": lambda: WeightTuple((0, 1, 0, 1, 1, 2), 2),
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
def test_records_are_immutable(build):
    r = build()
    for name in type(r)._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
    with pytest.raises(AttributeError):
        r.extra = None


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
def test_equal_fields_give_equal_records_and_hashes(build):
    a, b = build(), build()
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
def test_records_print_their_fields_by_name(build):
    r = build()
    fields = ", ".join(f"{name}={getattr(r, name)!r}" for name in type(r)._fields)
    assert repr(r) == f"{type(r).__name__}({fields})"


def test_a_group_element_keeps_its_determinants_out_of_its_fields():
    g = HYPER_ELEMENT()
    with pytest.raises(AttributeError):
        g._dets = (1, 1, 1, 1)
    assert g._dets == (1, 2, 1, -1)
    assert "_dets" not in repr(g) and len(g) == 3
    assert GroupElement._fields == ("kind", "scalar", "matrices")


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS)
def test_records_survive_pickle_and_deepcopy(build):
    x = build()
    # a record holds its fields alone, an element its determinants besides
    assert hasattr(x, "__dict__") == isinstance(x, GroupElement)
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
        assert getattr(y, "_dets", None) == getattr(x, "_dets", None)
