import json
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supergrr import (
    ChowModel,
    GradedElement,
    ModelMismatch,
    NotInvertible,
    NotNilpotent,
    PI,
    SuperScalar,
)

POINT = ChowModel.point()
CURVE2 = ChowModel.curve(2)
P2 = ChowModel.proj_space(2)
P3 = ChowModel.proj_space(3)


def eltc(model, *coeffs):
    return GradedElement.from_coeffs(model, coeffs)


# -- models -------------------------------------------------------------------


def test_top_degrees():
    assert POINT.top_degree == 0
    assert ChowModel.curve(0).top_degree == 1
    assert ChowModel.proj_space(4).top_degree == 4


def test_model_validation():
    with pytest.raises(ValueError):
        ChowModel.curve(-1)
    with pytest.raises(ValueError):
        ChowModel.proj_space(0)
    with pytest.raises(ValueError):
        ChowModel("plane")


def test_model_json_round_trip():
    for model in [POINT, CURVE2, P3]:
        assert ChowModel.from_json(model.to_json()) == model


# -- ring product -------------------------------------------------------------


def test_curve_square_truncates():
    one_plus_w = eltc(CURVE2, 1, 1)
    assert one_plus_w.ring_mul(one_plus_w) == eltc(CURVE2, 1, 2)


def test_projspace_binomial():
    x = eltc(P2, 1, 1, 0)
    assert x.ring_mul(x) == eltc(P2, 1, 2, 1)


def test_pi_plus_w_times_pi_minus_w():
    x = eltc(CURVE2, PI, 1)
    y = eltc(CURVE2, PI, -1)
    assert x.ring_mul(y) == GradedElement.one(CURVE2)


def test_homogeneous_product_degrees():
    # monomial . monomial lands in degree p + q, or truncates to zero
    for p in range(4):
        for q in range(4):
            x = GradedElement.monomial(P3, p, 2)
            y = GradedElement.monomial(P3, q, 3)
            product = x.ring_mul(y)
            if p + q <= 3:
                assert product == GradedElement.monomial(P3, p + q, 6)
            else:
                assert product == GradedElement.zero(P3)


def test_model_mismatch():
    with pytest.raises(ModelMismatch):
        GradedElement.one(CURVE2).ring_mul(GradedElement.one(P2))
    with pytest.raises(ModelMismatch):
        GradedElement.one(CURVE2) + GradedElement.one(ChowModel.curve(3))


def _random_element(rng, model):
    return GradedElement.from_coeffs(
        model,
        [
            SuperScalar(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            )
            for _ in range(model.top_degree + 1)
        ],
    )


def test_ring_mul_associative_commutative():
    rng = random.Random(7)
    for _ in range(300):
        model = rng.choice([POINT, ChowModel.curve(1), CURVE2, P2, P3])
        x, y, z = (_random_element(rng, model) for _ in range(3))
        assert x.ring_mul(y) == y.ring_mul(x)
        assert x.ring_mul(y).ring_mul(z) == x.ring_mul(y.ring_mul(z))
        assert x.ring_mul(y + z) == x.ring_mul(y) + x.ring_mul(z)


# -- series inversion -----------------------------------------------------------


def test_series_invert_curve():
    assert eltc(CURVE2, 1, 1).series_invert() == eltc(CURVE2, 1, -1)


def test_series_invert_shifted():
    assert eltc(CURVE2, 2, 1).series_invert() == eltc(
        CURVE2, Fraction(1, 2), Fraction(-1, 4)
    )


def test_series_invert_rejects_zero_divisor_lead():
    # 1 + class of an odd line bundle: leading coefficient 1 - P
    lead = SuperScalar(1, -1)
    element = eltc(CURVE2, lead, SuperScalar(0, -3))
    with pytest.raises(NotInvertible):
        element.series_invert()


def test_series_invert_round_trip():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        model = rng.choice([ChowModel.curve(0), CURVE2, P2, P3])
        x = _random_element(rng, model)
        if not x.coeffs[0].is_invertible:
            continue
        inv = x.series_invert()
        assert x.ring_mul(inv) == GradedElement.one(model)
        assert inv.series_invert() == x
        checked += 1


# -- exponentials -----------------------------------------------------------------


def test_exp_on_curve():
    w = GradedElement.generator(CURVE2)
    assert w.scale(5).exp_nilpotent() == eltc(CURVE2, 1, 5)


def test_exp_on_p2():
    h = GradedElement.generator(P2)
    assert h.exp_nilpotent() == eltc(P2, 1, 1, Fraction(1, 2))


def test_exp_on_p3():
    h = GradedElement.generator(P3)
    assert h.scale(2).exp_nilpotent() == eltc(P3, 1, 2, 2, Fraction(4, 3))


def test_exp_requires_nilpotent():
    with pytest.raises(NotNilpotent):
        GradedElement.one(CURVE2).exp_nilpotent()


def test_exp_general_input():
    # element with parts in several degrees takes the generic route
    x = eltc(P3, 0, 1, 1, 0)
    assert x.exp_nilpotent() == eltc(P3, 1, 1, Fraction(3, 2), Fraction(7, 6))


def test_exp_additivity():
    rng = random.Random(13)
    for _ in range(200):
        model = rng.choice([CURVE2, P2, P3])
        x = _random_element(rng, model)
        y = _random_element(rng, model)
        x = x - GradedElement.scalar(model, x.coeffs[0])
        y = y - GradedElement.scalar(model, y.coeffs[0])
        lhs = (x + y).exp_nilpotent()
        rhs = x.exp_nilpotent().ring_mul(y.exp_nilpotent())
        assert lhs == rhs


# -- integration ---------------------------------------------------------------


def test_integrate_curve():
    assert eltc(CURVE2, 3, 5).integrate() == SuperScalar(5)


def test_integrate_point():
    s = SuperScalar(Fraction(7, 2), -1)
    assert GradedElement.scalar(POINT, s).integrate() == s


def binomial(k, r):
    """C(k+r, r) as a product, valid for negative k as well."""
    out = Fraction(1)
    for i in range(1, r + 1):
        out *= Fraction(k + i, i)
    return out


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("k", range(-3, 7))
def test_hirzebruch_riemann_roch_on_projspace(r, k):
    """integral of e**(k h) td(P^r) equals the binomial C(k+r, r)."""
    model = ChowModel.proj_space(r)
    h = GradedElement.generator(model)
    todd_factor_series = GradedElement.from_coeffs(
        model,
        [Fraction((-1) ** i, factorial(i + 1)) for i in range(r + 1)],
    )
    td = GradedElement.one(model)
    factor = todd_factor_series.series_invert()
    for _ in range(r + 1):
        td = td.ring_mul(factor)
    value = h.scale(k).exp_nilpotent().ring_mul(td).integrate()
    assert value == SuperScalar(binomial(k, r))


# -- misc ------------------------------------------------------------------------


def test_generator_on_point_rejected():
    with pytest.raises(ValueError):
        GradedElement.generator(POINT)


def test_coefficient_accessor():
    x = eltc(CURVE2, 1, 2)
    assert x.coefficient(0) == SuperScalar(1)
    assert x.coefficient(1) == SuperScalar(2)
    assert x.coefficient(5) == SuperScalar(0)


def test_too_many_coefficients_rejected():
    with pytest.raises(ValueError):
        GradedElement.from_coeffs(CURVE2, [1, 2, 3])


def test_json_round_trip():
    x = eltc(CURVE2, SuperScalar(1, -1), SuperScalar(Fraction(1, 2), 3))
    blob = json.dumps(x.to_json())
    assert GradedElement.from_json(json.loads(blob)) == x
    assert json.loads(blob)["model"] == {"kind": "curve", "genus": 2}


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
def test_exp_additivity_on_curve_roots(a, b):
    w = GradedElement.generator(CURVE2)
    lhs = (w.scale(a) + w.scale(b)).exp_nilpotent()
    rhs = w.scale(a).exp_nilpotent().ring_mul(w.scale(b).exp_nilpotent())
    assert lhs == rhs


@pytest.mark.parametrize(
    "obj",
    ["curve", {"kind": "curve", "genus": 1.7}, {"kind": "curve", "genus": True},
     {"kind": "projspace", "r": "2"}, {"genus": 1}],
    ids=repr,
)
def test_model_json_refuses_malformed_specs(obj):
    with pytest.raises(ValueError):
        ChowModel.from_json(obj)


@pytest.mark.parametrize(
    "obj,key", [({"kind": "curve"}, "genus"), ({"kind": "projspace"}, "r")], ids=repr
)
def test_model_json_names_missing_key(obj, key):
    with pytest.raises(ValueError, match=f"^missing key '{key}' in model$"):
        ChowModel.from_json(obj)
