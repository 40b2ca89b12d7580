"""The closed power-sum forms of ch, c, td, sigma_1 and sigma_1**-1 against a per-root oracle.

The oracle builds every class the direct way, as a product over the
Chern roots of GradedElement series (exp_nilpotent, series_invert and
ring_mul), so it shares no arithmetic with the closed forms it checks.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

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

MODELS = (
    [ChowModel.point()]
    + [ChowModel.curve(g) for g in range(4)]
    + [ChowModel.proj_space(r) for r in range(1, 9)]
)


# -- the per-root oracle --------------------------------------------------------


def product(model, factors):
    result = GradedElement.one(model)
    for factor in factors:
        result = result.ring_mul(factor)
    return result


def oracle_ch(bundle):
    model = bundle.model
    even = sum((r.exp_nilpotent() for r in bundle.even_roots), GradedElement.zero(model))
    odd = sum((r.exp_nilpotent() for r in bundle.odd_roots), GradedElement.zero(model))
    return even - odd.scale(PI)


def oracle_c(bundle):
    model = bundle.model
    one = GradedElement.one(model)
    numerator = product(model, (one + r for r in bundle.even_roots))
    denominator = product(model, (one + r for r in bundle.odd_roots))
    total = numerator.ring_mul(denominator.series_invert())
    return total.scale(pi_power(len(bundle.odd_roots)))


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
    even = product(model, (oracle_todd_even_line(r) for r in bundle.even_roots))
    odd = product(model, (one + (-r).exp_nilpotent() for r in bundle.odd_roots))
    return even.ring_mul(odd)


def oracle_sigma1(bundle):
    one = GradedElement.one(bundle.model)
    return product(bundle.model, (one + r.exp_nilpotent() for r in bundle.odd_roots))


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
        assert odd.sigma1_inverse() == sigma1.series_invert(), odd
        assert odd.sigma1().ring_mul(odd.sigma1_inverse()) == GradedElement.one(model)


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_twisting_by_normal_data_matches_oracle(model):
    rng = random.Random(f"twist {model}")
    for _ in range(3):
        fractional = rng.random() < 0.5
        nd = NormalData.from_degrees(model, degrees(rng, model, rng.randint(0, 4), fractional))
        sigma1 = oracle_sigma1(nd.conormal_bundle())
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
        SuperBundle.from_degrees(ChowModel.proj_space(2), (1,), (2,)).sigma1_inverse()


def test_normal_data_is_hashable():
    model = ChowModel.proj_space(3)
    nd = NormalData.from_degrees(model, [1, "-1/2"])
    assert nd == NormalData.from_degrees(model, [Fraction(1), Fraction(-1, 2)])
    assert len({nd, NormalData.from_degrees(model, [1, "-1/2"])}) == 1
