import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from supergrr import (
    ChowModel,
    GradedElement,
    KClass,
    ModelMismatch,
    NormalData,
    SuperBundle,
    SuperScalar,
    ch_twisted,
    j_map,
    sigma1_normal,
    star_product,
)
from supergrr.chowring import integrate_product
from supergrr.ktheory import _sigma1_classes
from supergrr.suites import random_element, random_normal_data

from shared import elt, tangent_todd

C0 = ChowModel.curve(0)
C2 = ChowModel.curve(2)
P2 = ChowModel.proj_space(2)
# an ambient space equal to its bosonic reduction: no odd directions
BOSONIC = NormalData(SuperBundle.zero(C2))


# -- sigma_1 of the conormal data ------------------------------------------------


@pytest.mark.parametrize("g", range(4))
def test_sigma1_of_susy_conormal(g):
    model = ChowModel.curve(g)
    nd = NormalData.from_degrees(model, [g - 1])
    assert sigma1_normal(nd) == elt(model, 2, g - 1)


def test_sigma1_bosonic_is_one():
    assert sigma1_normal(BOSONIC) == GradedElement.one(C2)


def test_sigma1_two_zero_roots():
    nd = NormalData.from_degrees(C2, [0, 0])
    assert sigma1_normal(nd) == GradedElement.from_coeffs(C2, [4])


def test_sigma1_leading_term_is_two_to_s():
    rng = random.Random(3)
    for _ in range(50):
        model = rng.choice([C0, C2, P2])
        nd = random_normal_data(rng, model)
        lead = sigma1_normal(nd).coefficient(0)
        assert lead == SuperScalar(2 ** len(nd.conormal.odd))


# -- the map j -------------------------------------------------------------------


def test_j_of_unit_is_sigma1():
    nd = NormalData.from_degrees(C2, [1])
    assert j_map(KClass(GradedElement.one(C2)), nd).ch_image == sigma1_normal(nd)


def test_j_is_identity_on_bosonic():
    nd = BOSONIC
    x = KClass(elt(C2, SuperScalar(1, 2), SuperScalar(3, -1)))
    assert j_map(x, nd) == x


def test_j_worked_example():
    nd = NormalData.from_degrees(C0, [-1])
    x = KClass(elt(C0, 1, 1))
    assert j_map(x, nd).ch_image == elt(C0, 2, 1)


def test_j_model_mismatch():
    with pytest.raises(ModelMismatch):
        j_map(KClass(GradedElement.one(C0)), BOSONIC)


def test_star_product_model_mismatch():
    x, y = KClass(GradedElement.one(C0)), KClass(GradedElement.one(C2))
    with pytest.raises(ModelMismatch):
        star_product(x, x, BOSONIC)
    with pytest.raises(ModelMismatch):
        star_product(x, y, BOSONIC)
    with pytest.raises(ModelMismatch):
        star_product(y, x, BOSONIC)


def test_ch_twisted_model_mismatch():
    with pytest.raises(ModelMismatch):
        ch_twisted(KClass(GradedElement.one(C0)), NormalData.from_degrees(C2, [1]))


# -- star product ------------------------------------------------------------------


def test_star_is_plain_product_on_bosonic():
    rng = random.Random(7)
    nd = BOSONIC
    for _ in range(50):
        x, y = KClass(random_element(rng, C2)), KClass(random_element(rng, C2))
        assert star_product(x, y, nd) == x * y


def test_star_associative_commutative():
    rng = random.Random(13)
    for _ in range(150):
        model = rng.choice([C0, C2, P2])
        nd = random_normal_data(rng, model)
        x, y, z = (KClass(random_element(rng, model)) for _ in range(3))
        assert star_product(x, y, nd) == star_product(y, x, nd)
        lhs = star_product(star_product(x, y, nd), z, nd)
        rhs = star_product(x, star_product(y, z, nd), nd)
        assert lhs == rhs


# -- twisted character ----------------------------------------------------------------


def test_twisted_character_on_bosonic_is_plain():
    nd = BOSONIC
    x = KClass(elt(C2, SuperScalar(2, 1), SuperScalar(0, -3)))
    assert ch_twisted(x, nd) == x.ch_image


# -- pushforward identity along the canonical embedding ----------------------------------


def test_embedding_pushforward_two_routes():
    """ch_S of an embedded class equals ch(x) . td(-N) computed via Todd."""
    rng = random.Random(23)
    for _ in range(200):
        model = rng.choice([C0, C2, P2])
        nd = random_normal_data(rng, model)
        x = KClass(random_element(rng, model))
        via_sigma = x.ch_image.ring_mul(sigma1_normal(nd).series_invert())
        todd_of_normal = nd.conormal.dual().todd()
        via_todd = x.ch_image.ring_mul(todd_of_normal.series_invert())
        assert via_sigma == via_todd
        # the normal-bundle Todd class is itself the sigma_1 class
        assert todd_of_normal == sigma1_normal(nd)


def test_sigma1_cache_is_bounded():
    # conormal degrees come from outside the program, so the sigma_1 memo must not grow with them
    for q in range(1, 101):
        nd = NormalData.from_degrees(P2, [Fraction(1, q)])
        assert sigma1_normal(nd) == nd.conormal.sigma1()
    info = _sigma1_classes.cache_info()
    assert info.maxsize is not None and info.currsize <= 16


# -- Riemann-Roch on split P^{r|s}: gr O(k) = sum_j Lambda^j(O(-1)**s) (x) O(k), in parity j --


def chi_line(r, m):
    """chi(P^r, O(m)) = C(m + r, r) as a polynomial in m: prod_i (m + i) / r!."""
    return Fraction(prod(m + i for i in range(1, r + 1)), factorial(r))


def chi_split(r, s, k):
    """chi_S(gr O(k)) = sum_j C(s, j) (-P)**j chi(O(k - j)), as (body, soul)."""
    terms = [comb(s, j) * chi_line(r, k - j) for j in range(s + 1)]
    return sum(terms[0::2]), -sum(terms[1::2])


@pytest.mark.parametrize("r", range(1, 5))
@pytest.mark.parametrize("s", range(4))
def test_riemann_roch_of_a_line_on_split_projective_superspace(r, s):
    # the class route, integral ch(gr O(k)) td(T P^r), against the binomial route
    model = ChowModel.proj_space(r)
    todd = tangent_todd(r)
    for k in range(-6, 7):
        pieces = [[k - j] * comb(s, j) for j in range(s + 1)]
        graded = SuperBundle.from_degrees(model, sum(pieces[0::2], []), sum(pieces[1::2], []))
        body, soul = chi_split(r, s, k)
        assert integrate_product(graded.chern_character(), todd) == SuperScalar(body, soul)


@pytest.mark.parametrize("r", range(1, 5))
@pytest.mark.parametrize("s", range(4))
def test_j_map_of_a_line_on_split_projective_superspace_forgets_parity(r, s):
    # sigma_1 carries no P, so j(ch O(k)) integrates to body - soul of chi_S(gr O(k))
    model = ChowModel.proj_space(r)
    todd = tangent_todd(r)
    nd = NormalData.from_degrees(model, [-1] * s)
    for k in range(-6, 7):
        twisted = j_map(KClass(SuperBundle.from_degrees(model, [k]).chern_character()), nd)
        body, soul = chi_split(r, s, k)
        assert integrate_product(twisted.ch_image, todd) == SuperScalar(body - soul)
