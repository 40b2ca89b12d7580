"""GradedElement's split integer kernel against a per-coefficient Q[P] reference.

The reference is the arithmetic of the ring taken coefficient by
coefficient: tuples of SuperScalars, one Q[P] product per pair of
degrees.  GradedElement computes the same classes as two integer
vectors (the values at P = +1 and P = -1) over a shared denominator;
every public operation and the JSON form must agree with the reference
exactly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergrr import ZERO, ChowModel, GradedElement, NotInvertible, SuperScalar

from shared import models

MODELS = models(8)


# -- the per-coefficient reference ----------------------------------------------


def ref_one(model):
    return (SuperScalar(1),) + (ZERO,) * model.top_degree


def ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def ref_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def ref_neg(x):
    return tuple(-a for a in x)


def ref_scale(x, value):
    return tuple(a * value for a in x)


def ref_mul(model, x, y):
    top = model.top_degree
    out = [ZERO] * (top + 1)
    for i, a in enumerate(x):
        for j in range(top - i + 1):
            out[i + j] = out[i + j] + a * y[j]
    return tuple(out)


def ref_invert(model, x):
    lead_inv = x[0].invert()
    one = ref_one(model)
    u = ref_sub(one, ref_scale(x, lead_inv))
    acc = power = one
    for _ in range(model.top_degree):
        power = ref_mul(model, power, u)
        acc = ref_add(acc, power)
    return ref_scale(acc, lead_inv)


def ref_exp(model, x):
    result = term = ref_one(model)
    for k in range(1, model.top_degree + 1):
        term = ref_scale(ref_mul(model, term, x), Fraction(1, k))
        result = ref_add(result, term)
    return result


def ref_json(model, x):
    return {"model": model.to_json(), "coeffs": [c.to_json() for c in x]}


# -- the check ---------------------------------------------------------------------


def check_against_reference(model, x, y, value):
    """Every operation on x, y (coefficient tuples) and the scalar value matches the reference."""
    top = model.top_degree
    ex = GradedElement.from_coeffs(model, x)
    ey = GradedElement.from_coeffs(model, y)
    assert ex.coeffs == x
    assert ex.to_json() == ref_json(model, x)
    assert ex.integrate() == x[top]
    assert (ex == ey) == (x == y)

    product = ex.ring_mul(ey)
    assert product.coeffs == ref_mul(model, x, y)
    assert (ex + ey).coeffs == ref_add(x, y)
    assert (ex - ey).coeffs == ref_sub(x, y)
    assert (-ex).coeffs == ref_neg(x)
    assert ex.scale(value).coeffs == ref_scale(x, value)

    # one class built two ways is one canonical value
    rebuilt = GradedElement.from_coeffs(model, ref_mul(model, x, y))
    assert rebuilt == product
    assert hash(rebuilt) == hash(product)

    if x[0].body**2 != x[0].soul**2:
        assert ex.series_invert().coeffs == ref_invert(model, x)
    else:
        with pytest.raises(NotInvertible):
            ex.series_invert()

    nilpotent = (ZERO,) + x[1:]
    exp = GradedElement.from_coeffs(model, nilpotent).exp_nilpotent()
    assert exp.coeffs == ref_exp(model, nilpotent)


# -- inputs ------------------------------------------------------------------------

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)
scalars = st.one_of(
    st.builds(SuperScalar, rationals, rationals),
    st.builds(SuperScalar, rationals),
    st.builds(SuperScalar, st.integers(-9, 9), st.integers(-9, 9)),
)
# zero divisors of Q[P]: soul = +-body, so one split component vanishes
zero_divisors = st.builds(
    lambda body, sign: SuperScalar(body, sign * body), rationals, st.sampled_from((1, -1))
)


@st.composite
def cases(draw):
    model = draw(st.sampled_from(MODELS))
    width = model.top_degree + 1

    def element():
        lead = draw(st.one_of(scalars, zero_divisors))
        return (lead,) + tuple(draw(st.lists(scalars, min_size=width - 1, max_size=width - 1)))

    return model, element(), element(), draw(st.one_of(scalars, zero_divisors))


@settings(deadline=None, max_examples=150)
@given(cases())
def test_split_kernel_matches_reference(case):
    check_against_reference(*case)


def _random_scalar(rng, fractional):
    def part():
        if fractional:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        return Fraction(rng.randint(-9, 9))

    roll = rng.random()
    if roll < 0.15:
        body = part()
        return SuperScalar(body, rng.choice((1, -1)) * body)
    if roll < 0.3:
        return SuperScalar(part())
    return SuperScalar(part(), part())


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_split_kernel_matches_reference_on_every_model(model):
    rng = random.Random(f"split-{model}")
    for index in range(12):
        fractional = index % 2 == 1
        x, y = (
            tuple(_random_scalar(rng, fractional) for _ in range(model.top_degree + 1))
            for _ in range(2)
        )
        check_against_reference(model, x, y, _random_scalar(rng, fractional))


def test_zero_divisor_leads_are_not_inverted():
    for model in MODELS:
        for lead in (SuperScalar(1, -1), SuperScalar(Fraction(2, 3), Fraction(2, 3))):
            coeffs = [lead, SuperScalar(0, 5)][: model.top_degree + 1]
            element = GradedElement.from_coeffs(model, coeffs)
            with pytest.raises(NotInvertible):
                element.series_invert()


def test_canonical_form():
    model = ChowModel.proj_space(3)
    half = GradedElement.from_coeffs(model, [Fraction(1, 2), SuperScalar(0, Fraction(1, 2))])
    assert half.denominator == 2
    assert (half + half) == GradedElement.from_coeffs(model, [1, SuperScalar(0, 1)])
    assert (half + half).denominator == 1
    zero = half - half
    assert zero == GradedElement.zero(model)
    assert (zero.plus, zero.minus, zero.denominator) == ((0,) * 4, (0,) * 4, 1)
    assert not zero
    two = GradedElement.from_coeffs(model, [2])
    assert len({half.ring_mul(two), half.scale(2), half + half}) == 1
