"""The closed power-sum forms of ch, c, td, sigma_1 and sigma_1**-1 against a per-root oracle.

The oracle builds every class the direct way, as a product over the
Chern roots of GradedElement series (exp_nilpotent, series_invert and
ring_mul), so it shares no arithmetic with the closed forms it checks.
"""

import pickle
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergrr import (
    PI,
    ChowModel,
    GradedElement,
    KClass,
    NormalData,
    NotPurelyOdd,
    SuperBundle,
    SuperScalar,
    ch_twisted,
    pi_power,
    sigma1_normal,
    star_product,
)
from supergrr.ktheory import _sigma1_classes

from shared import models

MODELS = models(8)


# -- the per-root oracle --------------------------------------------------------


def roots(bundle):
    """The even and odd Chern roots d*x of a bundle, as graded elements."""
    model = bundle.model

    def root(d):
        # a point has no degree-1 class, and every degree on it is 0
        if model.top_degree < 1:
            return GradedElement.zero(model)
        return GradedElement.from_coeffs(model, (0, d))

    return [root(d) for d in bundle.even_degs], [root(d) for d in bundle.odd_degs]


def product(model, factors):
    result = GradedElement.one(model)
    for factor in factors:
        result = result.ring_mul(factor)
    return result


def oracle_ch(bundle):
    model = bundle.model
    even, odd = roots(bundle)
    even_ch = sum((r.exp_nilpotent() for r in even), GradedElement.zero(model))
    odd_ch = sum((r.exp_nilpotent() for r in odd), GradedElement.zero(model))
    return even_ch - odd_ch.scale(PI)


def oracle_c(bundle):
    model = bundle.model
    one = GradedElement.one(model)
    even, odd = roots(bundle)
    numerator = product(model, (one + r for r in even))
    denominator = product(model, (one + r for r in odd))
    total = numerator.ring_mul(denominator.series_invert())
    return total.scale(pi_power(len(odd)))


def oracle_todd_even_line(root):
    """x / (1 - e**-x) as the inverse of sum_i (-x)**i / (i+1)!."""
    model = root.model
    series = GradedElement.zero(model)
    power = GradedElement.one(model)
    for i in range(model.top_degree + 1):
        series = series + power.scale(Fraction(1, factorial(i + 1)))
        power = power.ring_mul(-root)
    return series.series_invert()


def oracle_td(bundle):
    model = bundle.model
    one = GradedElement.one(model)
    even, odd = roots(bundle)
    even_td = product(model, (oracle_todd_even_line(r) for r in even))
    odd_td = product(model, (one + (-r).exp_nilpotent() for r in odd))
    return even_td.ring_mul(odd_td)


def oracle_sigma1(bundle):
    one = GradedElement.one(bundle.model)
    _, odd = roots(bundle)
    return product(bundle.model, (one + r.exp_nilpotent() for r in odd))


# -- inputs ---------------------------------------------------------------------


def degrees(rng, model, rank, fractional):
    if model.top_degree < 1:
        return [0] * rank
    if fractional:
        return [Fraction(rng.randint(-60, 60), rng.randint(1, 7)) for _ in range(rank)]
    return [rng.randint(-60, 60) for _ in range(rank)]


def bundles(model):
    """Rank 4|4 with integer and with fractional degrees, then random ranks up to 4|4."""
    rng = random.Random(f"closed-forms {model}")
    out = [
        SuperBundle.from_degrees(
            model, degrees(rng, model, 4, fractional), degrees(rng, model, 4, fractional)
        )
        for fractional in (False, True)
    ]
    for _ in range(3):
        fractional = rng.random() < 0.5
        out.append(
            SuperBundle.from_degrees(
                model,
                degrees(rng, model, rng.randint(0, 4), fractional),
                degrees(rng, model, rng.randint(0, 4), fractional),
            )
        )
    return out


# -- the closed forms equal the oracle exactly -------------------------------------


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_closed_forms_match_per_root_oracle(model):
    for bundle in bundles(model):
        assert bundle.chern_character() == oracle_ch(bundle), bundle
        assert bundle.chern_total() == oracle_c(bundle), bundle
        assert bundle.todd() == oracle_td(bundle), bundle
        odd = SuperBundle.from_degrees(model, (), bundle.odd_degs)
        sigma1 = oracle_sigma1(odd)
        assert odd.sigma1() == sigma1, odd
        assert odd.sigma1_pair()[1] == sigma1.series_invert(), odd
        assert odd.sigma1().ring_mul(odd.sigma1_pair()[1]) == GradedElement.one(model)


# an int or a fraction with a small denominator, as the bench draws them
DEGREES = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-60, max_value=60, max_denominator=7),
)


@st.composite
def summands(draw, model):
    """One rank-0..3|0..3 summand; a point takes only zero degrees."""
    degree = DEGREES if model.top_degree else st.just(0)
    even, odd = (draw(st.lists(degree, max_size=3)) for _ in range(2))
    return SuperBundle.from_degrees(model, even, odd)


@pytest.mark.parametrize("model", MODELS, ids=str)
@settings(deadline=None, max_examples=30)
@given(st.data())
def test_chern_total_of_a_sum_matches_oracle(model, data):
    """c(e + f) against the per-root oracle for ranks 0..6|0..6, the shape the bench uses."""
    bundle = data.draw(summands(model)).direct_sum(data.draw(summands(model)))
    assert bundle.chern_total() == oracle_c(bundle), bundle


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_twisting_by_normal_data_matches_oracle(model):
    rng = random.Random(f"twist {model}")
    for _ in range(3):
        fractional = rng.random() < 0.5
        nd = NormalData.from_degrees(model, degrees(rng, model, rng.randint(0, 4), fractional))
        sigma1 = oracle_sigma1(nd.conormal)
        coeffs = [
            SuperScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-9, 9))
            for _ in range(model.top_degree + 1)
        ]
        x = KClass(GradedElement.from_coeffs(model, coeffs))
        assert sigma1_normal(nd) == sigma1
        assert ch_twisted(x, nd) == x.ch_image.ring_mul(sigma1.series_invert())
        assert star_product(x, x, nd).ch_image == x.ch_image.ring_mul(x.ch_image).ring_mul(
            sigma1.series_invert()
        )


def test_sigma1_inverse_requires_purely_odd():
    with pytest.raises(NotPurelyOdd):
        SuperBundle.from_degrees(ChowModel.proj_space(2), (1,), (2,)).sigma1_pair()


def test_normal_data_is_hashable():
    model = ChowModel.proj_space(3)
    nd = NormalData.from_degrees(model, [1, "-1/2"])
    assert nd == NormalData.from_degrees(model, [Fraction(1), Fraction(-1, 2)])
    assert len({nd, NormalData.from_degrees(model, [1, "-1/2"])}) == 1


# -- each kernel's shortcuts leave its classes as the ordinary route builds them ------


def fields(x):
    return x.plus, x.minus, x.denominator


@pytest.mark.parametrize("model", MODELS, ids=str)
@pytest.mark.parametrize("rank", range(5))
@pytest.mark.parametrize("form", ["int", "p/q"])
def test_sigma1_pair_is_sigma1_and_its_inverse(model, rank, form):
    """ktheory's pair, built from one exponent, equals the two methods field for field.

    The product alone cannot tell 2**s exp(g) from 2**-s exp(g), so
    sigma_1 is also held to the per-root oracle.
    """
    rng = random.Random(f"sigma1 pair {model} {rank} {form}")
    for _ in range(3):
        degs = degrees(rng, model, rank, form == "p/q")
        if form == "p/q":
            degs = [f"{Fraction(d).numerator}/{Fraction(d).denominator}" for d in degs]
        conormal = SuperBundle.from_degrees(model, (), degs)
        sigma1, inverse = _sigma1_classes(conormal)
        assert fields(sigma1) == fields(conormal.sigma1()), conormal
        assert fields(inverse) == fields(conormal.sigma1_pair()[1]), conormal
        assert sigma1 == oracle_sigma1(conormal), conormal
        assert sigma1.ring_mul(inverse) == GradedElement.one(model), conormal


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_classes_keep_the_canonical_form(model):
    """td, sigma_1, its inverse, c (over D > 1) and a bosonic ch are what from_coeffs builds.

    Those equal at P = +1 and P = -1 share one tuple between their
    components; that must not tell them apart from two equal tuples.
    """
    rng = random.Random(f"canonical {model}")
    for fractional in (False, True):
        for _ in range(3):
            odd_degs = degrees(rng, model, rng.randint(0, 3), fractional)
            if fractional and model.top_degree:
                odd_degs.append(Fraction(2 * rng.randint(-30, 30) + 1, 2))  # so that D > 1
            bundle = SuperBundle.from_degrees(
                model, degrees(rng, model, rng.randint(0, 4), fractional), odd_degs
            )
            odd = SuperBundle.from_degrees(model, (), bundle.odd_degs)
            even = SuperBundle.from_degrees(model, bundle.even_degs)
            classes = [bundle.todd(), odd.sigma1(), odd.sigma1_pair()[1], bundle.chern_total()]
            classes += [even.chern_character(), even.chern_total()]
            for x in classes:
                ordinary = GradedElement.from_coeffs(model, x.coeffs)
                assert x == ordinary and hash(x) == hash(ordinary), bundle
                assert fields(x) == fields(ordinary) and repr(x) == repr(ordinary), bundle
                assert pickle.loads(pickle.dumps(x)) == ordinary, bundle
                assert len({x, ordinary}) == 1, bundle
