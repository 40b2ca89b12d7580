"""Value semantics of the package's record types: repr, ==, hash, immutability, copies."""

import copy
import pickle
from fractions import Fraction

import pytest

from supergrr import (
    ChowModel,
    GradedElement,
    KClass,
    ModuliParams,
    NormalData,
    SplitSupercurve,
    SuperBundle,
    SuperScalar,
    TargetSpec,
)
from supergrr.suites import SuiteResult

CURVE1 = ChowModel.curve(1)
CURVE1_REPR = "ChowModel(kind='curve', genus=1, dim=0)"
ELEMENT = GradedElement.from_coeffs(CURVE1, [1, SuperScalar(0, 1)])
ELEMENT_REPR = f"GradedElement(model={CURVE1_REPR}, plus=(1, 1), minus=(1, -1), denominator=1)"

# each frozen type: a builder (called twice to get equal, separately built values) and its repr
FROZEN = {
    "SuperScalar": (
        lambda: SuperScalar(1, Fraction(-1, 2)),
        "SuperScalar(body=Fraction(1, 1), soul=Fraction(-1, 2))",
    ),
    "ChowModel curve": (lambda: ChowModel("curve", 1), CURVE1_REPR),
    "ChowModel projspace": (
        lambda: ChowModel.proj_space(2),
        "ChowModel(kind='projspace', genus=0, dim=2)",
    ),
    "ChowModel point": (lambda: ChowModel.point(), "ChowModel(kind='point', genus=0, dim=0)"),
    "GradedElement": (
        lambda: GradedElement.from_coeffs(CURVE1, [1, SuperScalar(0, 1)]),
        ELEMENT_REPR,
    ),
    "SuperBundle": (
        lambda: SuperBundle.from_degrees(CURVE1, [1, "1/2"], [2]),
        f"SuperBundle(model={CURVE1_REPR}, even=(2, 1), odd=(4,), denominator=2)",
    ),
    "NormalData": (
        lambda: NormalData.from_degrees(CURVE1, [1]),
        f"NormalData(conormal=SuperBundle(model={CURVE1_REPR}, even=(), odd=(1,), denominator=1))",
    ),
    "KClass": (
        lambda: KClass(GradedElement.from_coeffs(CURVE1, [1, SuperScalar(0, 1)])),
        f"KClass(ch_image={ELEMENT_REPR})",
    ),
    "SplitSupercurve": (lambda: SplitSupercurve(2, 1), "SplitSupercurve(genus=2, deg_l=1)"),
    "ModuliParams": (lambda: ModuliParams(1, 2), "ModuliParams(g=1, n_ns=2, n_rr=0)"),
    "TargetSpec psuper": (
        lambda: TargetSpec.psuper(1, 1, 1),
        "TargetSpec(r=1, s=1, tau=Fraction(2, 1), phi_int=Fraction(-1, 1), d=1)",
    ),
    "TargetSpec custom": (
        lambda: TargetSpec(1, 0, "1/2", 0),
        "TargetSpec(r=1, s=0, tau=Fraction(1, 2), phi_int=Fraction(0, 1), d=None)",
    ),
    "SuiteResult": (
        lambda: SuiteResult("x", 3, [(Fraction(1), "case 0")]),
        "SuiteResult(name='x', cases=3, failures=((Fraction(1, 1), 'case 0'),))",
    ),
}


@pytest.fixture(params=list(FROZEN), ids=list(FROZEN))
def frozen(request):
    build, text = FROZEN[request.param]
    return build, text


def test_repr_is_the_field_listing(frozen):
    build, text = frozen
    assert repr(build()) == text


def test_equal_values_hash_equal(frozen):
    build, _ = frozen
    a, b = build(), build()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_fields_cannot_be_assigned_or_deleted(frozen):
    value = frozen[0]()
    field = type(value).__slots__[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


def test_no_attribute_can_be_added(frozen):
    value = frozen[0]()
    with pytest.raises(AttributeError):
        value.extra = 0


def test_copies_and_pickles_are_equal(frozen):
    value = frozen[0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_equality_is_per_class():
    assert SuperScalar(1) != 1
    assert SuperScalar(1) != Fraction(1)
    assert ModuliParams(0) != (0, 0, 0)
    assert SuperScalar(1).__eq__(1) is NotImplemented
    assert ModuliParams(0).__eq__((0, 0, 0)) is NotImplemented
    assert KClass(ELEMENT) != ELEMENT
    assert NormalData(SuperBundle.zero(CURVE1)) != SuperBundle.zero(CURVE1)


def test_fields_order_equality():
    assert ModuliParams(0, 2) != ModuliParams(0, 0, 2)
    assert SuperScalar(1, 2) != SuperScalar(2, 1)
    assert SplitSupercurve(1, 0) != SplitSupercurve(0, 1)


def test_suite_result_is_an_immutable_value():
    # built once from the finished failures: a later change to that list does not reach it
    failures = [(Fraction(1), "case 0")]
    result = SuiteResult("x", 3, failures)
    failures.append((Fraction(2), "case 1"))
    assert result.failures == ((Fraction(1), "case 0"),)
    assert (result.passed, result.ok) == (2, False)
    assert SuiteResult("x", 3) == SuiteResult("x", 3, []) != ("x", 3, ())
    assert SuiteResult("x", 3).failures == () and SuiteResult("x", 3).ok
    with pytest.raises(AttributeError):
        result.failures.append((Fraction(3), "case 2"))
