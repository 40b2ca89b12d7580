import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from supergrr import (
    ChowModel,
    GradedElement,
    ModelMismatch,
    NormalData,
    NotPurelyOdd,
    PI,
    SuperBundle,
    SuperScalar,
    pi_power,
)
from supergrr.chowring import integrate_product
from supergrr.superbundle import (
    _exp_kernel,
    _factorial_weights,
    _over_factorials,
    _power_sums,
    _scaled_exp,
    _sigma1_row,
    _todd_rows,
    _weighted_row,
)

C0 = ChowModel.curve(0)
C2 = ChowModel.curve(2)
P3 = ChowModel.proj_space(3)


def elt(model, *coeffs):
    return GradedElement.from_coeffs(model, coeffs)


def random_bundle(rng, model, max_rank=3, bound=5):
    return SuperBundle.from_degrees(
        model,
        [rng.randint(-bound, bound) for _ in range(rng.randint(0, max_rank))],
        [rng.randint(-bound, bound) for _ in range(rng.randint(0, max_rank))],
    )


# -- construction / validation --------------------------------------------------


def test_rank():
    E = SuperBundle.from_degrees(C2, (1, 2), (3,))
    assert E.rank == (2, 1)
    assert SuperBundle.zero(C2).rank == (0, 0)


def test_point_model_accepts_only_zero_degrees():
    point = ChowModel.point()
    E = SuperBundle.from_degrees(point, (0,), (0, 0))
    assert E.rank == (1, 2)
    with pytest.raises(ValueError):
        SuperBundle.from_degrees(point, (1,), ())


# -- Chern character -------------------------------------------------------------


def test_ch_structure_sheaf():
    assert SuperBundle.from_degrees(C0, (0,), ()).chern_character() == GradedElement.one(C0)


def test_ch_odd_structure_sheaf():
    expected = GradedElement.from_coeffs(C0, [-PI])
    assert SuperBundle.from_degrees(C0, (), (0,)).chern_character() == expected


def test_ch_rank_one_one():
    model = ChowModel.curve(1)
    E = SuperBundle.from_degrees(model, (3,), (5,))
    assert E.chern_character() == elt(model, SuperScalar(1, -1), SuperScalar(3, -5))


def test_ch_zero_bundle():
    assert SuperBundle.zero(C2).chern_character() == GradedElement.zero(C2)


# -- total Chern class -----------------------------------------------------------


def test_chern_total_even_line():
    E = SuperBundle.from_degrees(C2, (4,), ())
    assert E.chern_total() == elt(C2, 1, 4)
    assert E.c1() == SuperScalar(4)


def test_chern_total_odd_line():
    E = SuperBundle.from_degrees(C2, (), (4,))
    assert E.chern_total() == elt(C2, PI, SuperScalar(0, -4))
    assert E.c1() == SuperScalar(0, -4)


def test_chern_total_zero_bundle():
    assert SuperBundle.zero(C2).chern_total() == GradedElement.one(C2)


def test_chern_total_mixed_on_p3():
    # rank 1|1, roots a=2h, m=3h: P (1+2h)/(1+3h)
    E = SuperBundle.from_degrees(P3, (2,), (3,))
    quotient = elt(P3, 1, 2).ring_mul(elt(P3, 1, 3).series_invert())
    assert E.chern_total() == quotient.scale(PI)


# -- Todd character ---------------------------------------------------------------


@pytest.mark.parametrize("g", range(5))
def test_todd_of_curve_tangent(g):
    model = ChowModel.curve(g)
    tangent = SuperBundle.from_degrees(model, (2 - 2 * g,), ())
    assert tangent.todd() == elt(model, 1, 1 - g)


def test_todd_odd_line_with_zero_root_is_two():
    assert SuperBundle.from_degrees(C2, (), (0,)).todd() == GradedElement.from_coeffs(C2, [2])


def test_todd_empty_is_one():
    assert SuperBundle.zero(C2).todd() == GradedElement.one(C2)


def test_todd_series_on_p3():
    # classical expansion x/(1 - e**-x) = 1 + x/2 + x**2/12 + 0 x**3
    E = SuperBundle.from_degrees(P3, (1,), ())
    assert E.todd() == elt(P3, 1, Fraction(1, 2), Fraction(1, 12), 0)


def test_todd_odd_line_general_root():
    # 1 + e**-m with m = 2h on P^3
    E = SuperBundle.from_degrees(P3, (), (2,))
    expected = GradedElement.one(P3) + GradedElement.from_coeffs(P3, (0, -2)).exp_nilpotent()
    assert E.todd() == expected


# -- sigma_1 ------------------------------------------------------------------------


def test_sigma1_zero_root():
    assert SuperBundle.from_degrees(C2, (), (0,)).sigma1() == GradedElement.from_coeffs(C2, [2])


def test_sigma1_curve_line():
    assert SuperBundle.from_degrees(C2, (), (7,)).sigma1() == elt(C2, 2, 7)


def test_sigma1_two_lines():
    E = SuperBundle.from_degrees(C2, (), (2, 3))
    assert E.sigma1() == elt(C2, 4, 10)


def test_sigma1_requires_purely_odd():
    with pytest.raises(NotPurelyOdd):
        SuperBundle.from_degrees(C2, (1,), (2,)).sigma1()


def test_sigma1_empty():
    assert SuperBundle.zero(C2).sigma1() == GradedElement.one(C2)


# -- bundle operations ---------------------------------------------------------------


def test_pi_shift_involution():
    E = SuperBundle.from_degrees(C2, (1, -2), (3,))
    assert E.pi_shift().pi_shift() == E


def test_tensor_of_even_lines():
    L1 = SuperBundle.from_degrees(C2, (2,), ())
    L2 = SuperBundle.from_degrees(C2, (3,), ())
    expected = GradedElement.from_coeffs(C2, (0, 5)).exp_nilpotent()
    assert L1.tensor(L2).chern_character() == expected


def test_tensor_of_odd_lines_is_even():
    L1 = SuperBundle.from_degrees(C2, (), (2,))
    L2 = SuperBundle.from_degrees(C2, (), (3,))
    product = L1.tensor(L2)
    assert product.rank == (1, 0)
    expected = GradedElement.from_coeffs(C2, (0, 5)).exp_nilpotent()
    assert product.chern_character() == expected


def test_tensor_rank_bookkeeping():
    E = SuperBundle.from_degrees(C2, (1,), (2, 3))
    F = SuperBundle.from_degrees(C2, (4, 5), (6,))
    r, s = E.rank
    rp, sp = F.rank
    assert E.tensor(F).rank == (r * rp + s * sp, r * sp + s * rp)


def test_direct_sum_model_mismatch():
    with pytest.raises(ModelMismatch):
        SuperBundle.zero(C2).direct_sum(SuperBundle.zero(C0))


def test_dual_negates_degrees():
    E = SuperBundle.from_degrees(C2, (1, -2), (3,))
    assert E.dual().even_degs == (-1, 2)
    assert E.dual().odd_degs == (-3,)


# -- identity properties ----------------------------------------------------------------


def test_whitney_randomized():
    rng = random.Random(23)
    for _ in range(150):
        model = rng.choice([C0, C2, ChowModel.proj_space(2), P3])
        E, F = random_bundle(rng, model), random_bundle(rng, model)
        assert E.direct_sum(F).chern_total() == E.chern_total().ring_mul(F.chern_total())


def test_character_additive_and_multiplicative():
    rng = random.Random(29)
    for _ in range(150):
        model = rng.choice([C0, C2, ChowModel.proj_space(2)])
        E, F = random_bundle(rng, model, max_rank=2), random_bundle(rng, model, max_rank=2)
        assert E.direct_sum(F).chern_character() == E.chern_character() + F.chern_character()
        assert E.tensor(F).chern_character() == E.chern_character().ring_mul(
            F.chern_character()
        )


def test_parity_shift_character_rule():
    rng = random.Random(31)
    for _ in range(150):
        model = rng.choice([C0, C2, P3])
        E = random_bundle(rng, model)
        assert E.pi_shift().chern_character() == E.chern_character().scale(-PI)


def test_c1_parity_rule():
    rng = random.Random(37)
    for _ in range(150):
        model = rng.choice([C0, C2, P3])
        E = random_bundle(rng, model)
        r, s = E.rank
        assert E.pi_shift().c1() == -E.c1() * pi_power(r + s)


def test_c1_duality_on_lines():
    for deg in range(-5, 6):
        even_line = SuperBundle.from_degrees(C2, (deg,), ())
        odd_line = SuperBundle.from_degrees(C2, (), (deg,))
        assert even_line.dual().c1() == -even_line.c1()
        assert odd_line.dual().c1() == -odd_line.c1()


def test_todd_multiplicative():
    rng = random.Random(41)
    for _ in range(150):
        model = rng.choice([C0, C2, ChowModel.proj_space(2)])
        E, F = random_bundle(rng, model), random_bundle(rng, model)
        assert E.direct_sum(F).todd() == E.todd().ring_mul(F.todd())


def test_factorial_weights_cache_is_bounded():
    # the denominator comes from outside the program, so the weight cache must not grow with it
    model = ChowModel.proj_space(2)
    for q in range(1, 301):
        bundle = SuperBundle.from_degrees(model, [Fraction(1, q)])
        assert bundle.chern_character() == elt(model, 1, Fraction(1, q), Fraction(1, 2 * q * q))
    info = _factorial_weights.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert _factorial_weights(3, 7) == (6 * 7**3, 6 * 7**2, 3 * 7, 1)
    assert type(_factorial_weights(3, 7)) is tuple


NUMERATORS = st.lists(
    st.one_of(st.integers(-60, 60), st.integers(-(2**60), 2**60)), max_size=6
).map(tuple)


@given(st.integers(0, 24), st.lists(NUMERATORS, min_size=1, max_size=3))
@example(0, [(), (5,)])
@example(1, [(), (-(2**60),), (3, -7)])
@example(2, [(), (-1,)])
@example(8, [(2**60 - 1,), (), (-3, 4, -5)])
@example(24, [(), (-(2**90),), (2**90, -3, 4, -5, 6, 7)])
def test_power_sums_are_their_definition(top, lists):
    # both branches, top <= 1 (a point or a curve) and the compiled kernel of each
    # top >= 2 (P^r), give top + 1 sums per list
    assert _power_sums(top, *lists) == [
        [sum(n**k for n in numerators) for k in range(top + 1)] for numerators in lists
    ]


def test_todd_equals_sigma1_of_dual_on_purely_odd():
    rng = random.Random(43)
    for _ in range(150):
        model = rng.choice([C0, C2, P3])
        E = SuperBundle.from_degrees(
            model, (), [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))]
        )
        assert E.todd() == E.dual().sigma1()


# -- the compiled kernels against their definitions --------------------------------


def exp_series_by_loop(exponent, row_den, scale):
    """The recurrence the exp kernel unrolls: F_0 = scale and
    F_k = sum_j j G_j R**(j-1) (k-1)!/(k-j)! F_(k-j) for R = row_den."""
    weighted = [0]
    power = 1
    for j in range(1, len(exponent)):
        weighted.append(j * exponent[j] * power)
        power *= row_den
    series = [scale]
    for k in range(1, len(exponent)):
        total = 0
        falling = 1  # (k-1)!/(k-j)!
        for j in range(1, k + 1):
            total += weighted[j] * series[k - j] * falling
            falling *= k - j
        series.append(total)
    return series


BIG = st.integers(-(2**90), 2**90)


@st.composite
def exp_cases(draw):
    top = draw(st.integers(1, 24))
    row_den = draw(st.sampled_from([_todd_rows(top)[0], _sigma1_row(top)[0]]))
    exponent = [0] + draw(st.lists(BIG, min_size=top, max_size=top))
    return top, row_den, exponent


@given(exp_cases(), st.integers(1, 2**20), st.integers(1, 2**40), st.integers(1, 2**40))
def test_exp_kernel_is_its_recurrence(case, den, scale, divisor):
    # td and sigma_1 pass scale = 2**s, the inverse of sigma_1 passes divisor = 2**s;
    # the kernel takes the exponent weighted by j R**(j-1), as the cached rows carry it
    top, row_den, exponent = case
    series = exp_series_by_loop(exponent, row_den, scale)
    weighted = [0] + [j * row_den ** (j - 1) * exponent[j] for j in range(1, top + 1)]
    assert _exp_kernel(top + 1)(weighted, scale) == series
    model = ChowModel.proj_space(top)
    built = _scaled_exp(model, weighted, row_den * den, scale=scale, divisor=divisor)
    assert built == _over_factorials(model, series, series, row_den * den, divisor)


@st.composite
def weighted_row_cases(draw):
    top = draw(st.integers(1, 24))
    den = draw(st.sampled_from([_todd_rows(top)[0], _sigma1_row(top)[0], 1, 7]))
    return den, draw(st.lists(BIG, min_size=top + 1, max_size=top + 1))


@given(weighted_row_cases())
def test_weighted_row_is_its_definition(case):
    den, row = case
    expected = tuple([0] + [j * den ** (j - 1) * row[j] for j in range(1, len(row))])
    assert _weighted_row(den, row) == expected


def exp_of_weighted_row(den, row):
    """exp of the series sum_j row_j / den x**j, from a row weighted by _weighted_row."""
    series = _exp_kernel(len(row))(row, 1)
    return [Fraction(f, factorial(k) * den**k) for k, f in enumerate(series)]


@pytest.mark.parametrize("top", [1, 2, 5, 12, 24])
def test_cached_rows_are_the_logarithms_of_their_series(top):
    # exp(tau) = x / (1 - e**-x), exp(upsilon) = (1 + e**-x) / 2, exp(upsilon') = (1 + e**x) / 2;
    # the first is checked through its product with (1 - e**-x) / x = sum_j (-x)**j / (j+1)!
    row_den, tau, upsilon = _todd_rows(top)
    todd = exp_of_weighted_row(row_den, tau)
    shifted = [Fraction((-1) ** j, factorial(j + 1)) for j in range(top + 1)]
    product = [sum(todd[i] * shifted[k - i] for i in range(k + 1)) for k in range(top + 1)]
    assert product == [1] + [0] * top
    half = [Fraction(1)] + [Fraction(1, 2 * factorial(k)) for k in range(1, top + 1)]
    assert exp_of_weighted_row(row_den, upsilon) == [(-1) ** k * c for k, c in enumerate(half)]
    assert exp_of_weighted_row(*_sigma1_row(top)) == half


def test_td_and_sigma1_share_one_exp_kernel_per_width():
    # curves and P^1 share width 2; every name in a kernel's namespace is (k-1)!/(k-j)!
    _exp_kernel.cache_clear()
    models = [C0, C2] + [ChowModel.proj_space(r) for r in range(1, 7)]
    for model in models:
        SuperBundle.from_degrees(model, [1, Fraction(-2, 3)], [5]).todd()
        SuperBundle.from_degrees(model, [], [3, Fraction(1, 2)]).sigma1_pair()
    assert _exp_kernel.cache_info().currsize == 6
    for width in range(2, 8):
        kernel = _exp_kernel(width)
        constants = {
            name: value
            for name, value in kernel.__globals__.items()
            if name not in ("__builtins__", kernel.__name__)
        }
        assert len(constants) == (width - 1) * (width - 2) // 2
        for name, value in constants.items():
            k, j = map(int, re.fullmatch(r"c(\d+)_(\d+)", name).groups())
            assert 2 <= j <= k < width
            assert value == factorial(k - 1) // factorial(k - j)
    assert _exp_kernel.cache_info().currsize == 6


# -- large top degrees: kernel constants come from the namespace, not the source --------


@lru_cache(maxsize=2)
def tangent_todd(k):
    """td(T P^k) = td(O(1)**(k+1)), since T P^k + O = O(1)**(k+1); about 1 s at k = 100."""
    return SuperBundle.from_degrees(ChowModel.proj_space(k), [1] * (k + 1)).todd()


@pytest.mark.parametrize("k", [64, 100])
@pytest.mark.parametrize("j", [-3, 0, 7])
def test_riemann_roch_of_a_line_on_a_large_projective_space(k, j):
    # chi(O(j)) = C(j+k, k)
    line = SuperBundle.from_degrees(ChowModel.proj_space(k), [j])
    assert integrate_product(line.chern_character(), tangent_todd(k)) == SuperScalar(comb(j + k, k))


def test_sigma1_pair_inverts_on_p64():
    model = ChowModel.proj_space(64)
    sigma1, inverse = SuperBundle.from_degrees(model, [], [3, Fraction(-5, 7), 11]).sigma1_pair()
    assert sigma1.ring_mul(inverse) == GradedElement.one(model)


# -- serialization ------------------------------------------------------------------------


def test_json_round_trip():
    E = SuperBundle.from_degrees(C2, (1, -2), (Fraction(3),))
    blob = json.dumps(E.to_json())
    assert SuperBundle.from_json(json.loads(blob)) == E


def test_json_curve_shorthand():
    spec = {"even_degs": [1, -2], "odd_degs": [3]}
    E = SuperBundle.from_json(spec, default_model=C2)
    assert E == SuperBundle.from_degrees(C2, (1, -2), (3,))


def test_json_shorthand_with_model():
    spec = {"model": {"kind": "curve", "genus": 2}, "even_degs": [1], "odd_degs": []}
    assert SuperBundle.from_json(spec) == SuperBundle.from_degrees(C2, (1,), ())


@pytest.mark.parametrize(
    "degs", ["12", [0.1], [True], [None], ["1/0"], [[3]], ["1.5"], [" 3"]], ids=repr
)
def test_degrees_must_be_exact(degs):
    with pytest.raises(ValueError):
        SuperBundle.from_degrees(C2, degs, ())
    with pytest.raises(ValueError):
        SuperBundle.from_json({"odd_degs": degs}, default_model=C2)
    with pytest.raises(ValueError):
        NormalData.from_degrees(C2, degs)


def test_degree_strings_read_exactly():
    E = SuperBundle.from_degrees(C2, ["-3/4", "+2", 5], [Fraction(1, 3)])
    assert E.even_degs == (Fraction(-3, 4), Fraction(2), Fraction(5))
    assert E.odd_degs == (Fraction(1, 3),)
    assert SuperBundle.from_json(E.to_json()) == E


@pytest.mark.parametrize(
    "even,odd",
    [
        ([2, -3], [5]),
        ([Fraction(2), Fraction(-3)], [Fraction(5)]),
        (["2", "-3"], ["5"]),
        ([2, Fraction(-3)], ["5"]),
        (["2", -3], [Fraction(5)]),
    ],
    ids=["int", "Fraction", "str", "int-Fraction-str", "str-int-Fraction"],
)
def test_int_degrees_read_like_fractions_and_strings(even, odd):
    reference = SuperBundle.from_degrees(P3, ["2", "-3"], ["5"])
    E = SuperBundle.from_degrees(P3, even, odd)
    assert E == reference
    assert hash(E) == hash(reference)
    assert str(E) == str(reference) == "bundle[P^3; even=(2,-3); odd=(5)]"
    assert E.to_json() == reference.to_json()
    assert E.chern_total() == reference.chern_total()


@pytest.mark.parametrize("degree", [True, False, 1.0, None, "1.0"], ids=repr)
def test_non_int_degrees_are_refused_with_one_text(degree):
    message = f"root degree must be an int or a 'p/q' string, not {degree!r}"
    for model in (C2, P3, ChowModel.point()):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SuperBundle.from_degrees(model, [2, degree], ())
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SuperBundle.from_degrees(model, (), [degree])


@pytest.mark.parametrize("degree", [1, -2, Fraction(1, 2), "3"], ids=repr)
def test_point_model_refuses_a_nonzero_degree_of_any_type(degree):
    point = ChowModel.point()
    for even, odd in (([0, degree], ()), ((), [degree])):
        with pytest.raises(ValueError, match="^nonzero root degree on a point model$"):
            SuperBundle.from_degrees(point, even, odd)


def test_json_requires_model_somewhere():
    with pytest.raises(ValueError):
        SuperBundle.from_json({"even_degs": [1]})


@pytest.mark.parametrize("model", ["curve", {"kind": "curve", "genus": 1.7}], ids=repr)
def test_json_refuses_malformed_model(model):
    with pytest.raises(ValueError):
        SuperBundle.from_json({"model": model, "even_degs": [1]})


@pytest.mark.parametrize(
    "spec,key",
    [
        ({"even_degs": [1], "odd_deg": [2]}, "odd_deg"),
        ({"model": {"kind": "curve", "genus": 2}, "even_roots": ["1"], "odd_root": []}, "odd_root"),
        ({"even_degs": [1], "odd_roots": [2]}, "odd_roots"),
        ({"even_roots": [1], "odd_degs": [2]}, "even_roots"),
    ],
    ids=["misspelt-degs", "misspelt-roots", "mixed-degs-roots", "mixed-roots-degs"],
)
def test_json_names_unknown_key(spec, key):
    with pytest.raises(ValueError, match=f"^unknown key '{key}' in bundle spec$"):
        SuperBundle.from_json(spec, default_model=C2)


@pytest.mark.parametrize("spec", [5, "even_degs", [["even_degs", [1]]]], ids=repr)
def test_json_refuses_non_object_spec(spec):
    with pytest.raises(ValueError, match="^bundle spec must be a JSON object"):
        SuperBundle.from_json(spec, default_model=C2)
