import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
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
from supergrr.chowring import (
    _compile_kernel,
    _product_kernel,
    _scalar,
    _scalar_json,
    _sum_source,
    integrate_product,
    lowest_terms,
)

from shared import elt, models

POINT = ChowModel.point()
CURVE2 = ChowModel.curve(2)
P2 = ChowModel.proj_space(2)
P3 = ChowModel.proj_space(3)


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


@pytest.mark.parametrize(
    "build",
    [lambda: ChowModel.proj_space(2.0), lambda: ChowModel.curve(1.5),
     lambda: ChowModel.curve(True), lambda: ChowModel.proj_space(True)],
    ids=["proj_space(2.0)", "curve(1.5)", "curve(True)", "proj_space(True)"],
)
def test_model_refuses_non_integer_sizes(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


@pytest.mark.parametrize(
    "kind,genus,dim",
    [("curve", 1, 2), ("point", 1, 0), ("point", 0, 3), ("projspace", 2, 3), ("point", 1.5, 0)],
    ids=repr,
)
def test_model_refuses_a_size_its_kind_does_not_use(kind, genus, dim):
    # a curve with a dim would print as curve(g=1) yet differ from ChowModel.curve(1)
    with pytest.raises(ValueError):
        ChowModel(kind, genus, dim)


def test_model_constructors_share_one_instance_per_size():
    assert ChowModel.curve(2) is ChowModel.curve(2) is CURVE2
    assert ChowModel.proj_space(3) is P3
    assert ChowModel.point() is POINT
    assert ChowModel("curve", 2) == CURVE2 and ChowModel("curve", 2) is not CURVE2
    assert ChowModel.curve(2) is not ChowModel.curve(3)


def test_model_json_round_trip():
    for model in [POINT, CURVE2, P3]:
        assert ChowModel.from_json(model.to_json()) == model


# -- ring product -------------------------------------------------------------


def test_curve_square_truncates():
    one_plus_w = elt(CURVE2, 1, 1)
    assert one_plus_w.ring_mul(one_plus_w) == elt(CURVE2, 1, 2)


def test_projspace_binomial():
    x = elt(P2, 1, 1, 0)
    assert x.ring_mul(x) == elt(P2, 1, 2, 1)


def test_pi_plus_w_times_pi_minus_w():
    x = elt(CURVE2, PI, 1)
    y = elt(CURVE2, PI, -1)
    assert x.ring_mul(y) == GradedElement.one(CURVE2)


def test_homogeneous_product_degrees():
    # monomial . monomial lands in degree p + q, or truncates to zero
    for p in range(4):
        for q in range(4):
            x = GradedElement.from_coeffs(P3, [0] * p + [2])
            y = GradedElement.from_coeffs(P3, [0] * q + [3])
            product = x.ring_mul(y)
            if p + q <= 3:
                assert product == GradedElement.from_coeffs(P3, [0] * (p + q) + [6])
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


# -- the compiled convolution against its definition ------------------------------


def convolution_by_loop(a, b):
    """The definition the compiled kernel unrolls: c_k = sum of a_i b_(k-i) over i = 0..k."""
    out = []
    for k in range(len(a)):
        total = 0
        for i in range(k + 1):
            total += a[i] * b[k - i]
        out.append(total)
    return out


def model_of_width(width):
    return POINT if width == 1 else ChowModel.proj_space(width - 1)


BIG = st.integers(-(2**90), 2**90)


@st.composite
def same_width_vectors(draw, count):
    width = draw(st.integers(1, 24))
    return [tuple(draw(st.lists(BIG, min_size=width, max_size=width))) for _ in range(count)]


@given(same_width_vectors(4), st.integers(1, 2**40))
@example([(2**90,) * 24, (-(2**90),) * 24, (3,) * 24, (0,) * 24], 2**40)
@example([(0,), (-7,), (0,), (5,)], 1)
@example([(2, 4), (2, 2), (3, 6), (3, 0)], 12)
def test_convolution_kernel_is_its_definition(vectors, den):
    # the product kernel convolves each component and returns both in lowest terms over den;
    # its shared variant convolves one pair and returns the one tuple both components share
    a, a_minus, b, b_minus = vectors
    plus, minus = convolution_by_loop(a, b), convolution_by_loop(a_minus, b_minus)
    assert _product_kernel(len(a), False)(a, a_minus, b, b_minus, den) == lowest_terms(
        plus, minus, den
    )
    both, _, reduced = lowest_terms(plus, plus, den)
    assert _product_kernel(len(a), True)(a, b, den) == (both, reduced)


@given(same_width_vectors(3), st.integers(1, 2**40), st.integers(1, 2**40), st.booleans())
def test_ring_mul_is_the_convolution_of_each_component(vectors, d1, d2, other_shares):
    # x shares one tuple between its components; y does too when other_shares
    a, b, c = vectors
    model = model_of_width(len(a))
    x = GradedElement(model, a, a, d1)
    y = GradedElement(model, b, b if other_shares else c, d2)
    product = x.ring_mul(y)
    expected = lowest_terms(
        convolution_by_loop(a, y.plus), convolution_by_loop(a, y.minus), d1 * d2
    )
    assert (product.plus, product.minus, product.denominator) == expected
    # a class equal at P = +1 and P = -1 is convolved once and keeps one tuple
    assert (product.minus is product.plus) == other_shares


@given(same_width_vectors(3), st.integers(1, 2**40), st.integers(1, 2**40), st.booleans())
@example([(1, 2), (3, 0), (1, 1)], 1, 5, False)
def test_ring_mul_reduces_a_shared_factor(vectors, d1, d2, other_shares):
    # x's numerators carry a factor f of y's denominator, so every product numerator and the
    # product denominator share f: the kernel's divide path, which the draws above rarely reach
    a, b, c = vectors
    model = model_of_width(len(a))
    factor = 2 + d2 % 97
    scaled = tuple([factor * n for n in a])
    x = GradedElement(model, scaled, scaled, d1)
    y = GradedElement(model, b, b if other_shares else c, factor * d2)
    product = x.ring_mul(y)
    plus = convolution_by_loop(x.plus, y.plus)
    minus = convolution_by_loop(x.minus, y.minus)
    assert (product.plus, product.minus, product.denominator) == lowest_terms(
        plus, minus, factor * d1 * d2
    )
    assert product.denominator <= d1 * d2
    assert (product.minus is product.plus) == other_shares


def test_a_sum_of_thousands_of_terms_compiles():
    # a chain of 3 000 + overflows the compiler's recursion; the emitter nests balanced halves
    terms = [f"a[{i}] * b[{4999 - i}]" for i in range(5000)]
    degree = _compile_kernel("degree", "a, b", [f"return {_sum_source(terms)}"])
    a, b = list(range(5000)), list(range(-2500, 2500))
    assert degree(a, b) == sum(x * y for x, y in zip(a, reversed(b)))


# -- series inversion -----------------------------------------------------------


def test_series_invert_curve():
    assert elt(CURVE2, 1, 1).series_invert() == elt(CURVE2, 1, -1)


def test_series_invert_shifted():
    assert elt(CURVE2, 2, 1).series_invert() == elt(
        CURVE2, Fraction(1, 2), Fraction(-1, 4)
    )


def test_series_invert_rejects_zero_divisor_lead():
    # 1 + class of an odd line bundle: leading coefficient 1 - P
    lead = SuperScalar(1, -1)
    element = elt(CURVE2, lead, SuperScalar(0, -3))
    with pytest.raises(NotInvertible):
        element.series_invert()


def test_series_invert_round_trip():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        model = rng.choice([ChowModel.curve(0), CURVE2, P2, P3])
        x = _random_element(rng, model)
        lead = x.coeffs[0]
        if lead.body**2 == lead.soul**2:
            continue
        inv = x.series_invert()
        assert x.ring_mul(inv) == GradedElement.one(model)
        assert inv.series_invert() == x
        checked += 1


# -- exponentials -----------------------------------------------------------------


def test_exp_on_curve():
    w = GradedElement.from_coeffs(CURVE2, (0, 1))
    assert w.scale(5).exp_nilpotent() == elt(CURVE2, 1, 5)


def test_exp_on_p2():
    h = GradedElement.from_coeffs(P2, (0, 1))
    assert h.exp_nilpotent() == elt(P2, 1, 1, Fraction(1, 2))


def test_exp_on_p3():
    h = GradedElement.from_coeffs(P3, (0, 1))
    assert h.scale(2).exp_nilpotent() == elt(P3, 1, 2, 2, Fraction(4, 3))


def test_exp_requires_nilpotent():
    with pytest.raises(NotNilpotent):
        GradedElement.one(CURVE2).exp_nilpotent()


def test_exp_general_input():
    # element with parts in several degrees takes the generic route
    x = elt(P3, 0, 1, 1, 0)
    assert x.exp_nilpotent() == elt(P3, 1, 1, Fraction(3, 2), Fraction(7, 6))


def test_exp_additivity():
    rng = random.Random(13)
    for _ in range(200):
        model = rng.choice([CURVE2, P2, P3])
        x = _random_element(rng, model)
        y = _random_element(rng, model)
        x = x - GradedElement.from_coeffs(model, x.coeffs[:1])
        y = y - GradedElement.from_coeffs(model, y.coeffs[:1])
        lhs = (x + y).exp_nilpotent()
        rhs = x.exp_nilpotent().ring_mul(y.exp_nilpotent())
        assert lhs == rhs


# -- integration ---------------------------------------------------------------


def test_integrate_curve():
    assert elt(CURVE2, 3, 5).integrate() == SuperScalar(5)


def test_integrate_point():
    s = SuperScalar(Fraction(7, 2), -1)
    assert GradedElement.from_coeffs(POINT, [s]).integrate() == s


@pytest.mark.parametrize("model", models(6), ids=str)
def test_integrate_product_is_the_integral_of_the_product(model):
    # fractional bodies and souls in every coefficient
    rng = random.Random(str(model))
    for _ in range(200):
        a, b = _random_element(rng, model), _random_element(rng, model)
        assert integrate_product(a, b) == a.ring_mul(b).integrate()


def test_integrate_product_builds_no_element(monkeypatch):
    a, b = elt(P3, 1, Fraction(1, 2), 0, 3), elt(P3, SuperScalar(2, Fraction(-1, 3)), 0, 5)
    expected = a.ring_mul(b).integrate()

    def refuse(*args):
        raise AssertionError("integrate_product built a GradedElement")

    monkeypatch.setattr(GradedElement, "__init__", refuse)
    assert integrate_product(a, b) == expected


@pytest.mark.parametrize(
    "a,b",
    [(CURVE2, P2), (CURVE2, ChowModel.curve(3)), (ChowModel.curve(0), ChowModel.proj_space(1)),
     (POINT, ChowModel.curve(0))],
    ids=str,
)
def test_integrate_product_refuses_different_models(a, b):
    with pytest.raises(ModelMismatch):
        integrate_product(GradedElement.one(a), GradedElement.one(b))


# -- rendering a triple ------------------------------------------------------------


@given(st.integers(), st.integers(min_value=1))
@example(0, 1)
@example(0, 7)
@example(-12, 1)
@example(-12, 18)
@example(35, 14)
def test_scalar_json_writes_a_part_as_str_of_its_fraction(numerator, denominator):
    # plus = minus puts n/d in the body alone, plus = -minus in the soul alone
    text = str(Fraction(numerator, denominator))
    assert _scalar_json(numerator, numerator, denominator) == {"body": text, "soul": "0"}
    assert _scalar_json(numerator, -numerator, denominator) == {"body": "0", "soul": text}


@given(st.integers(), st.integers(), st.integers(min_value=1))
@example(3, -5, 4)
@example(6, 6, 3)
@example(0, 0, 5)
def test_scalar_json_is_the_json_of_the_scalar(plus, minus, denominator):
    assert _scalar_json(plus, minus, denominator) == _scalar(plus, minus, denominator).to_json()


@pytest.mark.parametrize("denominator", [1, 3], ids=["whole", "fraction"])
def test_scalar_json_refuses_a_numerator_str_refuses(denominator):
    # past 4300 digits int to str raises (CPython 3.10.7+); the triple raises the same
    numerator = 10**4400 + 1
    try:
        expected = str(Fraction(numerator, denominator))
    except ValueError as error:
        with pytest.raises(ValueError) as info:
            _scalar_json(numerator, numerator, denominator)
        assert str(info.value) == str(error)
    else:
        assert _scalar_json(numerator, numerator, denominator)["body"] == expected


# -- misc ------------------------------------------------------------------------


def test_coefficient_accessor():
    x = elt(CURVE2, 1, 2)
    assert x.coefficient(0) == SuperScalar(1)
    assert x.coefficient(1) == SuperScalar(2)
    assert x.coefficient(5) == SuperScalar(0)


def test_too_many_coefficients_rejected():
    with pytest.raises(ValueError):
        GradedElement.from_coeffs(CURVE2, [1, 2, 3])


def test_scale_refuses_bools():
    with pytest.raises(TypeError):
        GradedElement.one(CURVE2).scale(True)


def test_from_coeffs_refuses_bools():
    with pytest.raises(TypeError):
        GradedElement.from_coeffs(CURVE2, [True])


def test_json_round_trip():
    x = elt(CURVE2, SuperScalar(1, -1), SuperScalar(Fraction(1, 2), 3))
    blob = json.dumps(x.to_json())
    assert GradedElement.from_json(json.loads(blob)) == x
    assert json.loads(blob)["model"] == {"kind": "curve", "genus": 2}


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
def test_exp_additivity_on_curve_roots(a, b):
    w = GradedElement.from_coeffs(CURVE2, (0, 1))
    lhs = (w.scale(a) + w.scale(b)).exp_nilpotent()
    rhs = w.scale(a).exp_nilpotent().ring_mul(w.scale(b).exp_nilpotent())
    assert lhs == rhs


@pytest.mark.parametrize(
    "obj",
    ["curve", {"kind": "curve", "genus": 1.7}, {"kind": "curve", "genus": True},
     {"kind": "projspace", "r": "2"}, {"genus": 1}, {"kind": []}, {"kind": ["curve"]}],
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


@pytest.mark.parametrize(
    "obj,key", [({"model": {"kind": "point"}}, "coeffs"), ({"coeffs": []}, "model")], ids=repr
)
def test_element_json_names_missing_key(obj, key):
    with pytest.raises(ValueError, match=f"^missing key '{key}' in graded element$"):
        GradedElement.from_json(obj)


@pytest.mark.parametrize(
    "obj,key",
    [({"kind": "point", "genus": 0}, "genus"), ({"kind": "curve", "genus": 1, "r": 2}, "r"),
     ({"kind": "projspace", "r": 2, "dim": 2}, "dim")],
    ids=repr,
)
def test_model_json_names_unknown_key(obj, key):
    with pytest.raises(ValueError, match=f"^unknown key '{key}' in model$"):
        ChowModel.from_json(obj)


def test_element_json_names_unknown_key():
    obj = {"model": {"kind": "point"}, "coeffs": [], "coeff": [{"body": "1"}]}
    with pytest.raises(ValueError, match="^unknown key 'coeff' in graded element$"):
        GradedElement.from_json(obj)


@pytest.mark.parametrize("coeffs", [5, "1", {"body": "1"}, None], ids=repr)
def test_element_json_refuses_non_list_coeffs(coeffs):
    with pytest.raises(ValueError, match="^coeffs must be a list"):
        GradedElement.from_json({"model": {"kind": "point"}, "coeffs": coeffs})
