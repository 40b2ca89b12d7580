import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from supergrr import (
    ChowModel,
    GradedElement,
    InvalidRank,
    ModelMismatch,
    ModuliParams,
    NonIntegralTwist,
    SplitSupercurve,
    SuperBundle,
    SuperScalar,
    TargetSpec,
    chi_character_form,
    chi_super,
    gr_module,
    pullback_tangent,
    rr_oracle,
)
from supergrr.chowring import _pairing, _scalar
from supergrr.grr import _curve_class, _curve_todd, _shared_curve
from supergrr.suites import random_supercurve_instance


def bundle_on(curve, even=(), odd=()):
    return SuperBundle.from_degrees(curve.model, even, odd)


# -- split supercurves -----------------------------------------------------------


def test_susy_twist_degree():
    assert SplitSupercurve.susy(2).deg_l == 1
    assert SplitSupercurve.susy(0, 4).deg_l == 1
    assert SplitSupercurve.susy(3, 2).deg_l == 3


def test_susy_rejects_odd_rr():
    for g in range(4):
        for n_rr in (1, 3, 5):
            with pytest.raises(NonIntegralTwist):
                SplitSupercurve.susy(g, n_rr)


@pytest.mark.parametrize("n_rr", [-2, -4, -1])
def test_susy_rejects_negative_rr(n_rr):
    # the same rule and text as ModuliParams: a Ramond count is a nonnegative even integer
    with pytest.raises(ValueError) as info:
        SplitSupercurve.susy(0, n_rr)
    with pytest.raises(ValueError) as other:
        ModuliParams(0, 0, n_rr)
    assert str(info.value) == str(other.value)
    assert f"n_rr={n_rr} is not a Ramond count" in str(info.value)


def test_supercurve_model_is_shared():
    curve = SplitSupercurve(2, 1)
    assert curve.model is curve.model is ChowModel.curve(2)
    assert SplitSupercurve.susy(2).model is curve.model


def test_negative_genus_rejected():
    with pytest.raises(ValueError):
        SplitSupercurve(-1, 0)


# -- gr of standard sheaves -------------------------------------------------------


def test_gr_structure_sheaf():
    # O on the supercurve restricts to O_X + (parity shift of) L
    for g in range(4):
        curve = SplitSupercurve.susy(g)
        graded = gr_module(curve, bundle_on(curve, even=(0,)))
        assert sorted(graded.even_degs) == [0]
        assert sorted(graded.odd_degs) == [g - 1]


def test_gr_odd_structure_sheaf_swaps_parities():
    curve = SplitSupercurve.susy(2)
    graded = gr_module(curve, bundle_on(curve, odd=(0,)))
    assert sorted(graded.even_degs) == [1]
    assert sorted(graded.odd_degs) == [0]


def test_gr_twist_rule():
    curve = SplitSupercurve(0, 1)
    graded = gr_module(curve, bundle_on(curve, even=(2,), odd=(3,)))
    assert sorted(graded.even_degs) == [2, 4]
    assert sorted(graded.odd_degs) == [3, 3]


@pytest.mark.parametrize("deg_l", [Fraction(1, 2), "1/2", "2"], ids=repr)
def test_supercurve_refuses_fractional_twist(deg_l):
    # the twist is an integer from construction, so gr never sees a fractional one
    with pytest.raises(ValueError):
        SplitSupercurve(1, deg_l)


def test_gr_model_mismatch():
    curve = SplitSupercurve.susy(2)
    other = SuperBundle.from_degrees(ChowModel.curve(1), (0,), ())
    with pytest.raises(ModelMismatch):
        gr_module(curve, other)


def test_curve_todd_cache_is_bounded():
    # the genus and twist come from outside the program, so the caches must not grow with them
    for genus in range(100):
        curve = SplitSupercurve.susy(genus)
        bundle = bundle_on(curve, even=(1,))
        assert chi_super(curve, bundle) == rr_oracle(curve, bundle)
    for deg_l in range(-50, 50):
        curve = SplitSupercurve(1, deg_l)
        bundle = bundle_on(curve, even=(1,), odd=(deg_l,))
        assert chi_super(curve, bundle) == rr_oracle(curve, bundle)
    assert _curve_todd.cache_info().currsize <= 64
    assert _curve_class.cache_info().currsize <= 64


def test_susy_curves_are_shared():
    assert SplitSupercurve.susy(2, 2) is SplitSupercurve.susy(2, 2)
    assert SplitSupercurve.susy(2) is SplitSupercurve.susy(2, 0)
    assert SplitSupercurve.susy(0, 4) == SplitSupercurve(0, 1)


def test_susy_cache_is_bounded():
    # the genus comes from outside the program, so the shared curves must not grow with it
    for genus in range(300):
        assert SplitSupercurve.susy(genus).deg_l == genus - 1
    info = _shared_curve.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


RAMOND_TEXT = (
    "is not a Ramond count: it must be a nonnegative even integer "
    "(an odd count makes the spin twist g - 1 + n_rr/2 non-integral)"
)


@pytest.mark.parametrize(
    "genus,n_rr,error,text",
    [
        (0, 3, NonIntegralTwist, f"n_rr=3 {RAMOND_TEXT}"),
        (0, -2, ValueError, f"n_rr=-2 {RAMOND_TEXT}"),
        (0, True, ValueError, "n_rr must be an integer, not True"),
        ("2", 0, ValueError, "genus must be an integer, not '2'"),
        (-1, 0, ValueError, "genus must be nonnegative"),
    ],
    ids=repr,
)
def test_susy_refusals_keep_their_text_and_are_not_cached(genus, n_rr, error, text):
    _shared_curve.cache_clear()
    with pytest.raises(error) as info:
        SplitSupercurve.susy(genus, n_rr)
    assert type(info.value) is error and str(info.value) == text
    assert _shared_curve.cache_info().currsize == 0


# -- gr U = U (x) gr O, and chi_super's former route -------------------------------


def chi_by_gr(curve, bundle):
    """The former route of chi_super: ch(gr U) . td(T_X), with gr U built root by root."""
    return _scalar(*_pairing(gr_module(curve, bundle).chern_character(), _curve_todd(curve.genus)))


def test_gr_module_is_the_tensor_with_gr_structure_sheaf():
    # the roots agree as multisets; the two constructions list them in different orders
    rng = random.Random(61)
    for _ in range(1000):
        curve, bundle = random_supercurve_instance(rng)
        graded = gr_module(curve, bundle)
        tensor = bundle.tensor(gr_module(curve, bundle_on(curve, even=(0,))))
        assert sorted(graded.even_degs) == sorted(tensor.even_degs), (curve, bundle)
        assert sorted(graded.odd_degs) == sorted(tensor.odd_degs), (curve, bundle)


def test_chi_super_is_its_former_route_on_random_draws():
    # the draws of the tensor test above
    rng = random.Random(61)
    for _ in range(1000):
        curve, bundle = random_supercurve_instance(rng)
        assert chi_super(curve, bundle) == chi_by_gr(curve, bundle), (curve, bundle)


def restricted_tangent_cases():
    """(curve, target) for every criterion-1 sweep point, then the 700 custom targets
    of test_vdim_assembled_is_its_definition, drawn the same way from the same seed."""
    sweep = itertools.product(range(4), range(5), (0, 2, 4, 6), range(1, 5), range(4), range(4))
    cases = [
        (SplitSupercurve.susy(g, n_rr), TargetSpec.psuper(r, s, d))
        for g, _n_ns, n_rr, r, s, d in sweep
    ]
    rng = random.Random(2026)
    for _ in range(700):
        s = rng.randint(0, 4)
        tau = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        phi_int = Fraction(rng.randint(-40, 40), rng.randint(1, 12)) if s else Fraction(0)
        params = ModuliParams(rng.randint(0, 5), rng.randint(0, 5), 2 * rng.randint(0, 4))
        target = TargetSpec(rng.randint(1, 5), s, tau, phi_int)
        cases.append((SplitSupercurve.susy(params.g, params.n_rr), target))
    return cases


def test_chi_super_is_its_former_route_on_restricted_tangents():
    cases = restricted_tangent_cases()
    assert len(cases) == 5120 + 700
    for curve, target in cases:
        bundle = pullback_tangent(curve, target)
        assert chi_super(curve, bundle) == chi_by_gr(curve, bundle), (curve, target)


def test_curve_class_is_the_integrand_of_the_structure_sheaf():
    # ch(gr O) = 1 - P e^(deg L w), so the class is (1 - P e^(deg L w)) . td(T_X)
    for g in range(4):
        for deg_l in range(-3, 4):
            model = ChowModel.curve(g)
            structure = GradedElement.from_coeffs(
                model, [SuperScalar(1, -1), SuperScalar(0, -deg_l)]
            )
            assert _curve_class(g, deg_l) == structure.ring_mul(_curve_todd(g))


def test_chi_super_refuses_a_bundle_on_another_curve():
    for g in range(4):
        curve = SplitSupercurve.susy(g)
        other = SuperBundle.from_degrees(ChowModel.curve(g + 1), (0,), (1,))
        with pytest.raises(ModelMismatch):
            chi_super(curve, other)


# -- Euler characteristics ---------------------------------------------------------


@pytest.mark.parametrize("g", range(4))
def test_chi_of_structure_sheaf(g):
    # cohomology oracle: chi(O_X) = 1 - g and chi(L) = deg L + 1 - g = 0
    curve = SplitSupercurve.susy(g)
    assert chi_super(curve, bundle_on(curve, even=(0,))) == SuperScalar(1 - g)


@pytest.mark.parametrize("g", range(4))
def test_chi_of_odd_structure_sheaf(g):
    curve = SplitSupercurve.susy(g)
    value = chi_super(curve, bundle_on(curve, odd=(0,)))
    assert value == SuperScalar(0, -(1 - g))


def test_chi_of_zero_bundle():
    curve = SplitSupercurve.susy(1)
    assert rr_oracle(curve, SuperBundle.zero(curve.model)) == SuperScalar(0)
    assert chi_super(curve, SuperBundle.zero(curve.model)) == SuperScalar(0)


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("d", range(-5, 6))
def test_oracle_on_even_line(g, d):
    # gr of an even line of degree d adds an odd line of degree d + g - 1,
    # so chi = (d + 1 - g) - P d
    curve = SplitSupercurve.susy(g)
    value = rr_oracle(curve, bundle_on(curve, even=(d,)))
    assert value == SuperScalar(d + 1 - g, -d)


def test_purely_bosonic_reduction_is_classical():
    # with no odd part and deg L = 0 both components obey plain
    # Riemann-Roch: chi = d + 1 - g on each side of the parity split
    for g in range(4):
        curve = SplitSupercurve(g, 0)
        for d in range(-5, 6):
            value = chi_super(curve, bundle_on(curve, even=(d,)))
            assert value == SuperScalar(d + 1 - g, -(d + 1 - g))


def test_even_component_is_twist_independent_for_even_lines():
    # the bosonic part of chi(O(d)) is the classical d + 1 - g no matter
    # how the odd direction is twisted
    for g in range(3):
        for deg_l in range(-3, 4):
            curve = SplitSupercurve(g, deg_l)
            for d in range(-4, 5):
                bundle = bundle_on(curve, even=(d,))
                assert chi_super(curve, bundle).body == d + 1 - g
                assert chi_super(curve, bundle) == rr_oracle(curve, bundle)


def test_integrality_of_super_euler():
    curve = SplitSupercurve.susy(2)
    chi = chi_super(curve, bundle_on(curve, even=(3, -1), odd=(2,)))
    assert chi.body.denominator == 1 and chi.soul.denominator == 1


def test_chi_additive_over_direct_sum():
    rng = random.Random(51)
    for _ in range(200):
        curve, first = random_supercurve_instance(rng)
        second = SuperBundle.from_degrees(
            curve.model,
            [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))],
            [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))],
        )
        total = chi_super(curve, first.direct_sum(second))
        assert total == chi_super(curve, first) + chi_super(curve, second)


# -- the central identity -----------------------------------------------------------


def test_sgrr_on_structure_sheaf():
    for g in range(4):
        curve = SplitSupercurve.susy(g)
        bundle = bundle_on(curve, even=(0,))
        assert chi_super(curve, bundle) == rr_oracle(curve, bundle)


def test_sgrr_randomized():
    rng = random.Random(42)
    for _ in range(500):
        curve, bundle = random_supercurve_instance(rng)
        assert chi_super(curve, bundle) == rr_oracle(curve, bundle), (curve, bundle)


def test_character_form_equals_integral_form():
    rng = random.Random(43)
    for _ in range(500):
        curve, bundle = random_supercurve_instance(rng)
        assert chi_character_form(curve, bundle) == chi_super(curve, bundle)


def test_twisted_integrand_reduces_to_plain_one():
    """The sigma_1 twists cancel in the pushforward integrand.

    ch_S(x) . td(T_X) . sigma_1(N*) equals ch(x) . td(T_X), which is why
    the engine may integrate the untwisted form.
    """
    from supergrr import KClass, NormalData, ch_twisted, sigma1_normal

    rng = random.Random(47)
    for _ in range(200):
        curve, bundle = random_supercurve_instance(rng)
        nd = NormalData.from_degrees(curve.model, (curve.deg_l,))
        x = KClass(gr_module(curve, bundle).chern_character())
        todd = _curve_todd(curve.genus)
        twisted = ch_twisted(x, nd).ring_mul(todd).ring_mul(sigma1_normal(nd))
        plain = x.ch_image.ring_mul(todd)
        assert twisted == plain


def test_normal_data_of_split_supercurve():
    from supergrr import NormalData, sigma1_normal

    curve = SplitSupercurve.susy(3)  # deg L = 2
    nd = NormalData.from_degrees(curve.model, (curve.deg_l,))
    assert nd == NormalData.from_degrees(curve.model, [2])
    expected = GradedElement.from_coeffs(curve.model, [2, 2])
    assert sigma1_normal(nd) == expected


# -- restricted target tangent ---------------------------------------------------------


def chi_restricted_tangent_oracle(g, n_rr, r, s, tau, mu):
    """Componentwise Riemann-Roch on gr of the restricted tangent sheaf.

    With twist degree m = g - 1 + n_rr/2, the even part of gr carries
    rank r + s and degree tau + mu + s m, the odd part rank r + s and
    degree tau + mu + r m; chi = deg + rank (1 - g) on each:

        chi = (1-g)(r - P s) + (n_rr/2)(s - P r) + (1 - P)(tau + mu)
    """
    half_rr = Fraction(n_rr, 2)
    return SuperScalar(
        (1 - g) * r + half_rr * s + tau + mu,
        -((1 - g) * s + half_rr * r + tau + mu),
    )


def test_pullback_tangent_shape():
    curve = SplitSupercurve.susy(0)
    target = SimpleNamespace(r=3, s=2, tau=Fraction(8), phi_int=Fraction(-2))
    bundle = pullback_tangent(curve, target)
    assert bundle.rank == (3, 2)
    assert sum(bundle.even_degs) == 8
    assert sum(bundle.odd_degs) == 2


def test_pullback_tangent_worked_example():
    curve = SplitSupercurve.susy(0, 0)
    target = SimpleNamespace(r=1, s=1, tau=Fraction(2), phi_int=Fraction(-1))
    chi = chi_super(curve, pullback_tangent(curve, target))
    assert chi == SuperScalar(4, -4)


def test_pullback_tangent_degreeless_target():
    for g in range(3):
        for n_rr in (0, 2, 4):
            for r in range(1, 4):
                for s in range(3):
                    curve = SplitSupercurve.susy(g, n_rr)
                    target = SimpleNamespace(r=r, s=s, tau=Fraction(0), phi_int=Fraction(0))
                    chi = chi_super(curve, pullback_tangent(curve, target))
                    assert chi == chi_restricted_tangent_oracle(g, n_rr, r, s, 0, 0)


def test_pullback_tangent_full_grid_against_oracle():
    for g in range(4):
        for n_rr in (0, 2, 4, 6):
            curve = SplitSupercurve.susy(g, n_rr)
            for r in range(1, 5):
                for s in range(4):
                    for tau in range(-6, 7):
                        for mu in range(-6, 7):
                            if s == 0 and mu:
                                continue
                            target = SimpleNamespace(
                                r=r, s=s, tau=Fraction(tau), phi_int=Fraction(-mu)
                            )
                            chi = chi_super(curve, pullback_tangent(curve, target))
                            expected = chi_restricted_tangent_oracle(g, n_rr, r, s, tau, mu)
                            assert chi == expected, (g, n_rr, r, s, tau, mu)


def test_pullback_tangent_invalid_ranks():
    curve = SplitSupercurve.susy(1)
    with pytest.raises(InvalidRank):
        pullback_tangent(curve, SimpleNamespace(r=0, s=0, tau=Fraction(1), phi_int=Fraction(0)))
    with pytest.raises(InvalidRank):
        pullback_tangent(curve, SimpleNamespace(r=2, s=-1, tau=Fraction(0), phi_int=Fraction(0)))
    with pytest.raises(InvalidRank):
        pullback_tangent(curve, SimpleNamespace(r=2, s=0, tau=Fraction(0), phi_int=Fraction(3)))


@pytest.mark.parametrize(
    "genus,deg_l",
    [(1, 0.5), (True, 0), (1.5, 0), (1, None), (1, True)],
    ids=repr,
)
def test_supercurve_refuses_inexact_numbers(genus, deg_l):
    with pytest.raises(ValueError):
        SplitSupercurve(genus, deg_l)


@pytest.mark.parametrize("genus,n_rr", [(1, 2.0), (True, 0), (0.0, 2)], ids=repr)
def test_susy_refuses_inexact_numbers(genus, n_rr):
    with pytest.raises(ValueError):
        SplitSupercurve.susy(genus, n_rr)


def test_supercurve_reads_exact_twist():
    deg_l = SplitSupercurve(1, -3).deg_l
    assert deg_l == -3 and type(deg_l) is int


# -- Serre duality ------------------------------------------------------------------------


def test_serre_duality_on_the_split_supercurve():
    """chi_S(U^dual (x) Ber) = -chi_S(U), with Ber = Pi(omega_C (x) L^-1) of rank 0|1.

    Its odd degree 2g - 2 - deg L pins the even-root twist of gr_module,
    which chi_super takes through _curve_class (ch(gr O) twists only the
    even root 0): one more or one less breaks the identity on some draw.
    The odd-root rule is pinned by criterion 3, where rr_oracle reads it
    from gr_module and chi_super from the tensor identity gr U = U (x) gr O.
    """
    rng = random.Random(42)
    shifted_holds = {-1: True, 1: True}
    for _ in range(1000):
        curve, bundle = random_supercurve_instance(rng)
        degree = 2 * curve.genus - 2 - curve.deg_l
        minus_chi = -chi_super(curve, bundle)
        assert chi_super(curve, bundle.dual().tensor(bundle_on(curve, odd=[degree]))) == minus_chi
        for shift in shifted_holds:
            ber = bundle_on(curve, odd=[degree + shift])
            shifted_holds[shift] &= chi_super(curve, bundle.dual().tensor(ber)) == minus_chi
    assert not any(shifted_holds.values())
