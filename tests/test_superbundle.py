import json
import re
from fractions import Fraction
from math import comb, factorial, gcd

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
)
from supergrr.chowring import integrate_product, lowest_terms
from supergrr.superbundle import _class_kernel, _sigma1_row, _todd_rows, _weighted_row

from shared import elt, tangent_todd

C0 = ChowModel.curve(0)
C2 = ChowModel.curve(2)
P3 = ChowModel.proj_space(3)


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


def test_class_kernel_cache_is_bounded():
    # the denominator comes from outside the program, so it is a kernel argument, never a key:
    # 300 of them leave one kernel per (class, top)
    model = ChowModel.proj_space(2)
    _class_kernel.cache_clear()
    for q in range(1, 301):
        line = SuperBundle.from_degrees(model, [Fraction(1, q)])
        assert line.chern_character() == elt(model, 1, Fraction(1, q), Fraction(1, 2 * q * q))
        line.chern_total(), line.todd(), line.pi_shift().sigma1_pair()
    info = _class_kernel.cache_info()
    assert (info.currsize, info.misses) == (4, 4)
    assert info.maxsize is not None


NUMERATORS = st.lists(
    st.one_of(st.integers(-60, 60), st.integers(-(2**90), 2**90)), max_size=6
).map(tuple)


@st.composite
def kernel_inputs(draw):
    """(top, even, odd, D) for tops 0..24; D sometimes shares a factor with every numerator."""
    top = draw(st.integers(0, 24))
    factor = draw(st.sampled_from([1, 1, 2, 6, 2**40]))
    even, odd = (tuple([factor * n for n in draw(NUMERATORS)]) for _ in range(2))
    return top, even, odd, factor * draw(st.integers(1, 2**40))


def power_sums(numerators, top):
    return [sum(n**k for n in numerators) for k in range(top + 1)]


def factorial_weights(top, q):
    """top!/k! * q**(top-k) for k = 0..top, which puts every degree over top! * q**top."""
    return [factorial(top) // factorial(k) * q ** (top - k) for k in range(top + 1)]


@given(kernel_inputs())
@example((0, (), (5,), 1))
@example((1, (-(2**60),), (3, -7), 1))
@example((2, (), (-1,), 1))
@example((8, (2**60 - 1,), (), 6))
@example((24, (-(2**90),), (2**90, -3, 4, -5, 6, 7), 2**40))
def test_power_sums_are_their_definition(case):
    # the ch kernel is the power sums by definition, weighted over top! * D**top and reduced,
    # on both branches (top <= 1, a point or a curve, and the unrolled pass of each top >= 2);
    # with no odd root both components are one tuple
    top, even, odd, den = case
    weights = factorial_weights(top, den)
    a, m = power_sums(even, top), power_sums(odd, top)
    plus = [w * (x - y) for w, x, y in zip(weights, a, m)]
    minus = [w * (x + y) for w, x, y in zip(weights, a, m)] if odd else plus
    character = _class_kernel("ch", top)(even, odd, den)
    assert character == lowest_terms(plus, minus, weights[0])
    assert (character[1] is character[0]) == (not odd)


def chern_total_by_loop(even, odd, den, top):
    """c = P**s * prod(1 + a_i y) / prod(1 + m_j y) in y = x / den, over den**top, reduced."""
    c = [1] + [0] * top
    for n in even:
        for k in range(top, 0, -1):
            c[k] += n * c[k - 1]
    for n in odd:
        for k in range(1, top + 1):
            c[k] -= n * c[k - 1]
    c = [den ** (top - k) * x for k, x in enumerate(c)]
    return lowest_terms(c, [-x for x in c] if len(odd) % 2 else c, den**top)


@given(kernel_inputs())
@example((3, (2, 4), (6,), 2))
@example((3, (2, 4), (6, 8), 2))
def test_chern_total_kernel_is_its_loop(case):
    # an even number of odd roots makes the class equal at P = +1 and P = -1: one tuple
    top, even, odd, den = case
    total = _class_kernel("c", top)(even, odd, den)
    assert total == chern_total_by_loop(even, odd, den, top)
    assert (total[1] is total[0]) == (len(odd) % 2 == 0)


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


def unweighted(den, row):
    """The row over den that _weighted_row weighted into row: entry j divided by j den**(j-1)."""
    assert all(row[j] % (j * den ** (j - 1)) == 0 for j in range(1, len(row)))
    return [0] + [row[j] // (j * den ** (j - 1)) for j in range(1, len(row))]


def exp_class_by_loop(exponent, row_den, den, scale, divisor):
    """scale / divisor * exp(g), g_j = exponent[j] / (R D**j): (both, both, den) in lowest terms."""
    top = len(exponent) - 1
    weights = factorial_weights(top, row_den * den)
    terms = [w * f for w, f in zip(weights, exp_series_by_loop(exponent, row_den, scale))]
    return lowest_terms(terms, terms, weights[0] * divisor)


@given(kernel_inputs())
@example((1, (3,), (), 1))
@example((6, (2**40, 6), (2**41,), 2**40))
def test_exp_kernel_is_its_recurrence(case):
    # td = 2**s exp(tau . p(a) + upsilon . p(m)); sigma_1 = 2**s exp(upsilon' . p(m)) for sign 1
    # and 2**-s exp(-upsilon' . p(m)) for sign -1; each returns one tuple for both components
    top, even, odd, den = case
    a, m = power_sums(even, top), power_sums(odd, top)
    row_den, tau, upsilon = _todd_rows(top)
    tau, upsilon = unweighted(row_den, tau), unweighted(row_den, upsilon)
    exponent = [t * x + u * y for t, u, x, y in zip(tau, upsilon, a, m)]
    todd = _class_kernel("td", top)(even, odd, den)
    assert todd == exp_class_by_loop(exponent, row_den, den, 2 ** len(odd), 1)
    row_den, row = _sigma1_row(top)
    exponent = [u * y for u, y in zip(unweighted(row_den, row), m)]
    sigma1 = _class_kernel("sigma1", top)(odd, den, 1)
    assert sigma1 == exp_class_by_loop(exponent, row_den, den, 2 ** len(odd), 1)
    inverse = _class_kernel("sigma1", top)(odd, den, -1)
    negated = [-g for g in exponent]
    assert inverse == exp_class_by_loop(negated, row_den, den, 1, 2 ** len(odd))
    assert todd[1] is todd[0] and sigma1[1] is sigma1[0] and inverse[1] is inverse[0]


BIG = st.integers(-(2**90), 2**90)


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
    series = exp_series_by_loop(unweighted(den, row), den, 1)
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


def test_one_kernel_per_class_and_top():
    # curves and P^1 share top 1; a kernel's namespace holds gcd, its row entries over r = R
    # and each (k-1)!/(k-j)! as c{k}_{j}, nothing else
    _class_kernel.cache_clear()
    models = [C0, C2] + [ChowModel.proj_space(r) for r in range(1, 7)]
    for model in models:
        for odd in ([5], [5, Fraction(1, 2)]):
            bundle = SuperBundle.from_degrees(model, [1, Fraction(-2, 3)], odd)
            bundle.chern_character(), bundle.chern_total(), bundle.todd()
        SuperBundle.from_degrees(model, [1]).chern_character()
        SuperBundle.from_degrees(model, [], [3, Fraction(1, 2)]).sigma1_pair()
    assert _class_kernel.cache_info().currsize == 24
    for top in range(1, 7):
        row_den, tau, upsilon = _todd_rows(top)
        sigma_den, sigma_row = _sigma1_row(top)
        degrees = range(1, top + 1)
        rows = {
            "ch": {},
            "c": {},
            "td": {
                "r": row_den,
                **{f"t{j}": tau[j] for j in degrees},
                **{f"u{j}": upsilon[j] for j in degrees},
            },
            "sigma1": {"r": sigma_den, **{f"u{j}": sigma_row[j] for j in degrees}},
        }
        for name, row in rows.items():
            kernel = _class_kernel(name, top)
            assert kernel.__globals__["gcd"] is gcd
            constants = {
                key: value
                for key, value in kernel.__globals__.items()
                if key not in ("__builtins__", name, "gcd", *row)
            }
            assert {key: kernel.__globals__.get(key) for key in row} == row
            assert len(constants) == (top * (top - 1) // 2 if row else 0)
            for key, value in constants.items():
                k, j = map(int, re.fullmatch(r"c(\d+)_(\d+)", key).groups())
                assert 2 <= j <= k <= top
                assert value == factorial(k - 1) // factorial(k - j)
    assert _class_kernel.cache_info().currsize == 24


# -- large top degrees: kernel constants come from the namespace, not the source --------


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
