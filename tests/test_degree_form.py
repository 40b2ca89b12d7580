"""SuperBundle's integer degree form against tuples of Fraction degrees.

The reference keeps every root degree as a Fraction, the way bundles
were stored before the integer form: parsing, dual, parity shift,
direct sum, tensor product, the associated graded module on a split
supercurve and classical Riemann-Roch on it.  SuperBundle keeps integer
numerators over one reduced denominator; its degree views, every
operation and the Euler characteristic must agree with the reference
exactly, and its stored form must be canonical.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergrr import (
    ChowModel,
    SplitSupercurve,
    SuperBundle,
    SuperScalar,
    chi_super,
    gr_module,
    rr_oracle,
)

MODELS = (
    [ChowModel.point()]
    + [ChowModel.curve(g) for g in range(4)]
    + [ChowModel.proj_space(r) for r in range(1, 7)]
)


# -- the tuple-of-Fraction reference ---------------------------------------------


def ref_from_degrees(even, odd):
    return tuple(Fraction(d) for d in even), tuple(Fraction(d) for d in odd)


def ref_dual(even, odd):
    return tuple(-d for d in even), tuple(-d for d in odd)


def ref_pi_shift(even, odd):
    return odd, even


def ref_direct_sum(e, f):
    return e[0] + f[0], e[1] + f[1]


def ref_tensor(e, f):
    even = tuple(a + b for a in e[0] for b in f[0]) + tuple(m + n for m in e[1] for n in f[1])
    odd = tuple(a + n for a in e[0] for n in f[1]) + tuple(m + b for m in e[1] for b in f[0])
    return even, odd


def ref_gr_module(deg_l, even, odd):
    return even + tuple(m + deg_l for m in odd), odd + tuple(a + deg_l for a in even)


def ref_rr_oracle(genus, deg_l, even, odd):
    even, odd = ref_gr_module(deg_l, even, odd)
    chi_even = sum(even, Fraction(0)) + len(even) * (1 - genus)
    chi_odd = sum(odd, Fraction(0)) + len(odd) * (1 - genus)
    return SuperScalar(chi_even, -chi_odd)


# -- the check ----------------------------------------------------------------------


def check_canonical(bundle, expected):
    """bundle is in reduced integer form and its degree views equal the reference."""
    numerators = bundle.even + bundle.odd
    assert all(type(n) is int for n in numerators)
    assert type(bundle.denominator) is int and bundle.denominator > 0
    assert gcd(bundle.denominator, *numerators) == 1
    assert (bundle.even_degs, bundle.odd_degs) == expected
    assert all(type(d) is Fraction for d in bundle.even_degs + bundle.odd_degs)
    # one value built two ways is one canonical bundle
    rebuilt = SuperBundle.from_degrees(bundle.model, *expected)
    assert rebuilt == bundle
    assert hash(rebuilt) == hash(bundle)


def check_against_reference(model, e_in, f_in, deg_l):
    """Every operation on the bundles given by degree inputs e_in, f_in matches the reference."""
    e_ref, f_ref = ref_from_degrees(*e_in), ref_from_degrees(*f_in)
    e = SuperBundle.from_degrees(model, *e_in)
    f = SuperBundle.from_degrees(model, *f_in)
    check_canonical(e, e_ref)
    check_canonical(f, f_ref)
    assert (e == f) == (e_ref == f_ref)
    assert SuperBundle.from_json(e.to_json()) == e

    check_canonical(e.dual(), ref_dual(*e_ref))
    check_canonical(e.pi_shift(), ref_pi_shift(*e_ref))
    check_canonical(e.direct_sum(f), ref_direct_sum(e_ref, f_ref))
    check_canonical(e.tensor(f), ref_tensor(e_ref, f_ref))

    if model.kind == "curve":
        curve = SplitSupercurve(model.genus, deg_l)
        check_canonical(gr_module(curve, e), ref_gr_module(deg_l, *e_ref))
        oracle = rr_oracle(curve, e)
        assert oracle == ref_rr_oracle(model.genus, deg_l, *e_ref)
        assert chi_super(curve, e) == oracle


# -- inputs ---------------------------------------------------------------------------

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def degree_input(draw, model):
    """One degree as an int, a Fraction or a "p/q" string, not always in lowest terms."""
    value = draw(fractions) if model.top_degree else Fraction(0)
    form = draw(st.sampled_from(("fraction", "string", "int")))
    if form == "fraction":
        return value
    if form == "int" and value.denominator == 1:
        return int(value)
    scale = draw(st.integers(1, 4))
    return f"{value.numerator * scale}/{value.denominator * scale}"


@st.composite
def cases(draw):
    model = draw(st.sampled_from(MODELS))

    def degrees():
        return draw(st.lists(degree_input(model), max_size=4))

    deg_l = draw(st.integers(-5, 5))
    return model, (degrees(), degrees()), (degrees(), degrees()), deg_l


@settings(deadline=None, max_examples=200)
@given(cases())
def test_degree_form_matches_reference(case):
    check_against_reference(*case)


def _random_degree(rng, model, fractional):
    if model.top_degree < 1:
        return rng.choice((0, Fraction(0), "0", "0/7"))
    if not fractional:
        return rng.randint(-30, 30)
    value = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    if rng.random() < 0.5:
        return value
    return f"{value.numerator}/{value.denominator}"


@pytest.mark.parametrize("model", MODELS, ids=str)
def test_degree_form_matches_reference_on_every_model(model):
    rng = random.Random(f"degree-form-{model}")
    for index in range(16):
        fractional = index % 2 == 1

        def degrees():
            return [_random_degree(rng, model, fractional) for _ in range(rng.randint(0, 4))]

        e_in, f_in = (degrees(), degrees()), (degrees(), degrees())
        check_against_reference(model, e_in, f_in, rng.randint(-5, 5))


def test_canonical_form():
    model = ChowModel.proj_space(2)
    half = SuperBundle.from_degrees(model, ["1/2"], ["3/2"])
    assert (half.even, half.odd, half.denominator) == ((1,), (3,), 2)
    # the sums 1/2 + 1/2 and 3/2 + 3/2 are whole: the tensor square reduces to D = 1
    square = half.tensor(half)
    assert square.denominator == 1
    assert square == SuperBundle.from_degrees(model, [1, 3], [2, 2])
    assert SuperBundle.zero(model) == SuperBundle.from_degrees(model, [], [])
    assert SuperBundle.zero(model).denominator == 1
    assert SuperBundle.from_degrees(model, [2, "4/2"], [Fraction(6, 3)]).denominator == 1
