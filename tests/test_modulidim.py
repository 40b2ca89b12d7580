import copy
import itertools
import json
import pickle
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supergrr import (
    InvalidRank,
    ModuliParams,
    NonIntegralTwist,
    SplitSupercurve,
    SuperBundle,
    SuperScalar,
    TargetSpec,
    bosonic_dimension,
    chi_gauge,
    chi_super,
    evaluate_request,
    properness_hint,
    pullback_tangent,
    vdim_assembled,
    vdim_closed,
)
from supergrr.grr import parse_ramond_count

SWEEP = list(
    itertools.product(
        range(4), range(5), (0, 2, 4, 6), range(1, 5), range(4), range(4)
    )
)
# the (g, n_ns, n_rr) part of the sweep
SOURCES = sorted({point[:3] for point in SWEEP})
# the (r, s, d) part of the sweep
PSUPER_GRID = sorted({point[3:] for point in SWEEP})


# -- the Fraction oracle --------------------------------------------------------
#
# The three closed forms as they read before they moved to integers over one
# denominator: every term a Fraction, summed term by term.


def ref_chi_gauge(g, n_ns, n_rr):
    body = Fraction(3 - 3 * g - n_ns - n_rr)
    soul = -(Fraction(2 - 2 * g - n_ns) - Fraction(n_rr, 2))
    return SuperScalar(body, soul)


def ref_vdim_closed(g, n_ns, n_rr, r, s, tau, phi_int, alternate_odd_sign):
    integral = tau - phi_int
    body = (r - 3) * (1 - g) + n_ns + n_rr * (1 + Fraction(s, 2)) + integral
    s_term = s + 2 if alternate_odd_sign else s - 2
    soul = -((1 - g) * s_term + n_ns + Fraction(n_rr, 2) * (r + 1) + integral)
    return SuperScalar(body, soul)


def ref_bosonic_dimension(g, n_ns, n_rr, r, s, d):
    spin_dim = Fraction((r - 3) * (1 - g) + n_ns + n_rr + d * (r + 1))
    return spin_dim + s * (d + Fraction(n_rr, 2))


def _small(top):
    return st.integers(min_value=0, max_value=top)


rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**7), max_value=10**7),
    st.integers(min_value=1, max_value=10**6),
)


def _same(value, expected):
    """Equal, and equal in every rendering: str, JSON and repr."""
    assert value == expected
    assert type(value) is type(expected)
    assert str(value) == str(expected)
    assert repr(value) == repr(expected)
    if isinstance(value, SuperScalar):
        assert value.to_json() == expected.to_json()


@settings(deadline=None, max_examples=300)
@given(
    _small(6), _small(6), _small(7), _small(6), _small(6), _small(6), rationals, rationals,
    st.booleans(),
)
def test_closed_forms_match_fraction_oracle(g, n_ns, n_rr, r, s, d, tau, phi_int, alternate):
    # an odd draw is refused, and its even neighbour below is compared instead
    if n_rr % 2:
        with pytest.raises(NonIntegralTwist):
            ModuliParams(g, n_ns, n_rr)
        n_rr -= 1
    params = ModuliParams(g, n_ns, n_rr)
    _same(chi_gauge(params), ref_chi_gauge(g, n_ns, n_rr))
    custom = TargetSpec(r, s, tau, phi_int)
    _same(
        vdim_closed(params, custom, alternate_odd_sign=alternate),
        ref_vdim_closed(g, n_ns, n_rr, r, s, tau, phi_int, alternate),
    )
    psuper = TargetSpec.psuper(r + 1, s, d)
    _same(
        vdim_closed(params, psuper, alternate_odd_sign=alternate),
        ref_vdim_closed(g, n_ns, n_rr, r + 1, s, psuper.tau, psuper.phi_int, alternate),
    )
    _same(bosonic_dimension(params, psuper), ref_bosonic_dimension(g, n_ns, n_rr, r + 1, s, d))


# -- gauge sheaf Euler data ---------------------------------------------------


@pytest.mark.parametrize("g", range(6))
def test_chi_gauge_unpunctured(g):
    assert chi_gauge(ModuliParams(g)) == SuperScalar(3 - 3 * g, -(2 - 2 * g))


def test_chi_gauge_with_punctures():
    assert chi_gauge(ModuliParams(0, 3, 0)) == SuperScalar(0, 1)
    assert chi_gauge(ModuliParams(1, 0, 2)) == SuperScalar(-2, 1)
    assert chi_gauge(ModuliParams(0, 0, 2)) == SuperScalar(1, -1)
    # an odd n_rr has no half-integral gauge data: it is refused
    with pytest.raises(NonIntegralTwist):
        ModuliParams(0, 0, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        ModuliParams(-1)
    with pytest.raises(ValueError):
        ModuliParams(0, -2, 0)


# -- target specs ----------------------------------------------------------------


def test_psuper_expansion():
    t = TargetSpec.psuper(3, 2, 4)
    assert t.tau == 16
    assert t.phi_int == -8
    assert t.tau - t.phi_int == 24
    assert t.kind == "psuper"


def test_point_target():
    t = TargetSpec.point()
    assert (t.r, t.s, t.tau, t.phi_int) == (0, 0, 0, 0)
    assert t.kind == "point"


def test_custom_target_kind():
    t = TargetSpec(2, 1, Fraction(5), Fraction(-1))
    assert t.kind == "custom"


@pytest.mark.parametrize(
    "args,message",
    [
        ((2, 1, 5, 7, 1), "degree 1 on P^{2|1} needs tau = 3 and phi_int = -1, not 5 and 7"),
        ((0, 0, 0, 0, 0), "projective superspace needs r >= 1"),
        ((1, 0, 0, 0, -3), "image degree must be nonnegative"),
        ((-1, -1, 0, 0, -1), "projective superspace needs r >= 1"),
        ((1, -1, 0, 0, 0), "target ranks must be nonnegative"),
    ],
    ids=["degree-data-disagrees", "rank-zero", "negative-degree", "r-first", "ranks-after"],
)
def test_target_spec_refuses_inconsistent_psuper_data(args, message):
    with pytest.raises(ValueError) as excinfo:
        TargetSpec(*args[:4], d=args[4])
    assert str(excinfo.value) == message


@pytest.mark.parametrize("kind", [[], {}, ["point"], 1, None], ids=repr)
def test_target_json_refuses_a_kind_outside_the_table(kind):
    with pytest.raises(ValueError, match="^unknown target kind "):
        TargetSpec.from_json({"kind": kind})


def test_psuper_targets_round_trip_on_the_sweep():
    for r, s, d in PSUPER_GRID:
        target = TargetSpec.psuper(r, s, d)
        from_json = TargetSpec.from_json(json.loads(json.dumps(target.to_json())))
        for twin in (from_json, copy.copy(target), pickle.loads(pickle.dumps(target))):
            assert twin == target and twin.kind == "psuper"


def test_target_json_round_trip():
    for t in [TargetSpec.psuper(2, 1, 3), TargetSpec.point(), TargetSpec(1, 0, 7, 2)]:
        assert TargetSpec.from_json(json.loads(json.dumps(t.to_json()))) == t


# -- closed formula ----------------------------------------------------------------


def test_vdim_closed_examples():
    assert vdim_closed(ModuliParams(0), TargetSpec.psuper(3, 0, 1)) == SuperScalar(4, -2)
    assert vdim_closed(ModuliParams(0), TargetSpec.psuper(1, 1, 1)) == SuperScalar(1, -2)


def test_vdim_closed_point_target_is_curve_moduli_dimension():
    for g in range(4):
        for n_ns in range(4):
            for n_rr in range(0, 8, 2):
                params = ModuliParams(g, n_ns, n_rr)
                expected = -chi_gauge(params)
                assert vdim_closed(params, TargetSpec.point()) == expected


def test_vdim_closed_affine_slopes():
    """Unit finite differences of the closed formula are the same at every
    base point and match the slopes read off the formula."""
    bases = [
        (ModuliParams(0, 0, 0), 1, 0, 0),
        (ModuliParams(2, 1, 2), 3, 2, 1),
        (ModuliParams(3, 4, 6), 4, 3, 2),
    ]
    for params, r, s, d in bases:
        g, n_ns, n_rr = params.g, params.n_ns, params.n_rr
        target = TargetSpec.psuper(r, s, d)
        v0 = vdim_closed(params, target)

        d_ns = vdim_closed(ModuliParams(g, n_ns + 1, n_rr), target) - v0
        assert d_ns == SuperScalar(1, -1)

        d_rr = vdim_closed(ModuliParams(g, n_ns, n_rr + 2), target) - v0
        assert d_rr == SuperScalar(2 + s, -(r + 1))
        # n_rr moves in steps of 2: the unit step is no Ramond count
        with pytest.raises(NonIntegralTwist):
            ModuliParams(g, n_ns, n_rr + 1)

        d_d = vdim_closed(params, TargetSpec.psuper(r, s, d + 1)) - v0
        assert d_d == SuperScalar(r + 1 + s, -(r + 1 + s))

        custom = TargetSpec(r, s, Fraction(4), Fraction(1))
        v_custom = vdim_closed(params, custom)
        d_tau = vdim_closed(params, TargetSpec(r, s, 5, 1)) - v_custom
        assert d_tau == SuperScalar(1, -1)
        d_phi = vdim_closed(params, TargetSpec(r, s, 4, 2)) - v_custom
        assert d_phi == SuperScalar(-1, 1)

        # second differences vanish: the formula is affine, not merely local
        v2 = vdim_closed(ModuliParams(g, n_ns + 2, n_rr), target)
        assert v2 - v0 == d_ns + d_ns


def _ramond_message(n_rr):
    with pytest.raises(ValueError) as info:
        parse_ramond_count(n_rr)
    return str(info.value)


@pytest.mark.parametrize("n_rr", [1, 3, 7, -1, -2])
def test_moduli_params_refuses_odd_rr(n_rr):
    # an odd count raises NonIntegralTwist, a negative even one ValueError,
    # both with the one text of grr.parse_ramond_count and no Python warning
    error = NonIntegralTwist if n_rr % 2 else ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            ModuliParams(0, 0, n_rr)
    assert type(info.value) is error
    assert str(info.value) == _ramond_message(n_rr)
    assert f"n_rr={n_rr}" in str(info.value)


# -- assembled route ------------------------------------------------------------------


def test_assembled_equals_closed_spot_checks():
    for params, target in [
        (ModuliParams(0), TargetSpec.psuper(3, 0, 1)),
        (ModuliParams(2, 3, 4), TargetSpec.psuper(4, 3, 2)),
        (ModuliParams(1, 0, 6), TargetSpec.psuper(1, 2, 0)),
        (ModuliParams(3, 2, 0), TargetSpec(2, 1, Fraction(5), Fraction(3))),
        (ModuliParams(2, 1, 2), TargetSpec.point()),
    ]:
        assert vdim_assembled(params, target) == vdim_closed(params, target)


def test_assembled_rejects_odd_rr():
    with pytest.raises(NonIntegralTwist):
        vdim_assembled(ModuliParams(0, 0, 1), TargetSpec.psuper(2, 1, 0))


def test_assembled_rejects_degree_on_rank_zero_target():
    with pytest.raises(InvalidRank):
        vdim_assembled(ModuliParams(0), TargetSpec(0, 0, 1, 0))


def test_point_target_restricts_to_the_zero_bundle():
    # no tangent directions: the assembled route is minus the gauge term alone
    point = TargetSpec.point()
    for g, n_ns, n_rr in SOURCES:
        params, curve = ModuliParams(g, n_ns, n_rr), SplitSupercurve.susy(g, n_rr)
        assert pullback_tangent(curve, point) == SuperBundle.zero(curve.model)
        assert vdim_assembled(params, point) == -chi_gauge(params)


@pytest.mark.parametrize(
    "target,message",
    [
        (
            {"kind": "custom", "r": 0, "s": 0, "tau": 1},
            "rank 0|0 target cannot carry nonzero degree data",
        ),
        ({"kind": "custom", "r": 0, "s": 1}, "cannot realize tangent data of rank 0|1"),
        (
            {"kind": "custom", "r": 2, "s": 0, "phi_int": "3/2"},
            "odd degree data on a target with no odd directions",
        ),
    ],
    ids=["degree-on-rank-0|0", "rank-0|1", "odd-degree-on-s=0"],
)
def test_evaluate_request_invalid_rank_messages(target, message):
    for g, n_ns, n_rr in SOURCES:
        request = {"params": {"g": g, "n_ns": n_ns, "n_rr": n_rr}, "target": target}
        with pytest.raises(InvalidRank) as refusal:
            evaluate_request(request)
        assert str(refusal.value) == message


def test_closed_equals_assembled_full_sweep():
    for g, n_ns, n_rr, r, s, d in SWEEP:
        params = ModuliParams(g, n_ns, n_rr)
        target = TargetSpec.psuper(r, s, d)
        assert vdim_closed(params, target) == vdim_assembled(params, target), (
            g,
            n_ns,
            n_rr,
            r,
            s,
            d,
        )


def test_vdim_assembled_is_its_definition():
    """chi_S(restricted tangent) - chi_S(gauge), built from the public SuperScalar pieces."""
    rng = random.Random(2026)
    cases = [(ModuliParams(*point[:3]), TargetSpec.psuper(*point[3:])) for point in SWEEP]
    for _ in range(700):
        s = rng.randint(0, 4)
        tau = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        phi_int = Fraction(rng.randint(-40, 40), rng.randint(1, 12)) if s else Fraction(0)
        params = ModuliParams(rng.randint(0, 5), rng.randint(0, 5), 2 * rng.randint(0, 4))
        cases.append((params, TargetSpec(rng.randint(1, 5), s, tau, phi_int)))
    rational = [t for _, t in cases if t.tau.denominator > 1 or t.phi_int.denominator > 1]
    assert len(rational) >= 500
    for params, target in cases:
        curve = SplitSupercurve.susy(params.g, params.n_rr)
        expected = chi_super(curve, pullback_tangent(curve, target)) - chi_gauge(params)
        assert vdim_assembled(params, target) == expected, (params, target)


def test_alternate_odd_reading_breaks_identity_off_genus_one():
    """The (s+2) variant differs from the assembled route by 4(1-g)P."""
    for g, n_ns, n_rr, r, s, d in SWEEP[:: 41]:
        params = ModuliParams(g, n_ns, n_rr)
        target = TargetSpec.psuper(r, s, d)
        alt = vdim_closed(params, target, alternate_odd_sign=True)
        assembled = vdim_assembled(params, target)
        assert (alt == assembled) == (g == 1)
        assert alt - vdim_closed(params, target) == SuperScalar(0, -4 * (1 - g))


# -- bosonic reduction ------------------------------------------------------------------


def test_bosonic_dimension_example():
    params = ModuliParams(0, 1, 0)
    assert bosonic_dimension(params, TargetSpec.psuper(2, 1, 2)) == 8


def test_bosonic_dimension_equals_even_part():
    for g, n_ns, n_rr, r, s, d in SWEEP:
        params = ModuliParams(g, n_ns, n_rr)
        target = TargetSpec.psuper(r, s, d)
        assert bosonic_dimension(params, target) == vdim_closed(params, target).body


def test_bosonic_dimension_s_zero_is_spin_stack_dimension():
    for g in range(4):
        for d in range(4):
            for r in range(1, 5):
                params = ModuliParams(g, 2, 2)
                value = bosonic_dimension(params, TargetSpec.psuper(r, 0, d))
                assert value == (r - 3) * (1 - g) + 2 + 2 + d * (r + 1)


def test_bosonic_dimension_requires_psuper():
    with pytest.raises(ValueError):
        bosonic_dimension(ModuliParams(0), TargetSpec.point())


def test_s_zero_specialization_term_by_term():
    """For bosonic targets: (1-g)(r-3) - P(2g-2) + (1-P) . tangent degree."""
    for g in range(4):
        for r in range(1, 5):
            for d in range(4):
                params = ModuliParams(g)
                target = TargetSpec.psuper(r, 0, d)
                tau = Fraction(d * (r + 1))
                expected = SuperScalar((1 - g) * (r - 3), -(2 * g - 2)) + SuperScalar(
                    tau, -tau
                )
                assert vdim_closed(params, target) == expected


# -- properness -----------------------------------------------------------------------


def test_properness_cases():
    p = ModuliParams(0, 0, 0)
    assert properness_hint(TargetSpec.psuper(2, 0, 3), p) == "proper"
    assert properness_hint(TargetSpec.psuper(2, 2, 1), p) == "not_proper"
    assert properness_hint(TargetSpec.psuper(2, 3, 0), p) == "proper"
    assert properness_hint(TargetSpec.psuper(2, 3, 0), ModuliParams(0, 0, 2)) == "not_proper"


def test_properness_requires_psuper():
    with pytest.raises(ValueError):
        properness_hint(TargetSpec.point(), ModuliParams(0))


# -- JSON calculator interface -----------------------------------------------------------


def test_evaluate_request_psuper():
    request = {
        "params": {"g": 0, "n_ns": 0, "n_rr": 0},
        "target": {"kind": "psuper", "r": 3, "s": 0, "d": 1},
    }
    response = evaluate_request(request)
    assert response["closed"] == {"body": "4", "soul": "-2"}
    assert response["assembled"] == {"body": "4", "soul": "-2"}
    assert response["consistent"] is True
    assert response["bosonic_dimension"] == "4"
    assert response["properness"] == "proper"
    assert response["odd_part_reading"] == "s-2"
    json.dumps(response)


def test_evaluate_request_point_and_custom():
    response = evaluate_request(
        {"params": {"g": 2}, "target": {"kind": "point"}}
    )
    assert SuperScalar.from_json(response["closed"]) == SuperScalar(3, -2)
    assert response["bosonic_dimension"] is None
    assert response["properness"] is None

    response = evaluate_request(
        {
            "params": {"g": 1, "n_ns": 1, "n_rr": 0},
            "target": {"kind": "custom", "r": 2, "s": 1, "tau": "3", "phi_int": "-1"},
        }
    )
    assert response["consistent"] is True


@pytest.mark.parametrize("n_rr", [1, 3, -2])
def test_evaluate_request_refuses_odd_rr(n_rr):
    request = {
        "params": {"g": 0, "n_ns": 0, "n_rr": n_rr},
        "target": {"kind": "psuper", "r": 2, "s": 0, "d": 0},
    }
    with pytest.raises(NonIntegralTwist if n_rr % 2 else ValueError) as info:
        evaluate_request(request)
    assert str(info.value) == _ramond_message(n_rr)


def test_evaluate_request_answers_every_even_rr_in_full():
    # assembled is never null, consistent is always a bool, warnings always empty
    target = {"kind": "psuper", "r": 2, "s": 1, "d": 1}
    for n_rr in (0, 2, 4, 6):
        response = evaluate_request({"params": {"g": 1, "n_rr": n_rr}, "target": target})
        assert response["assembled"] == response["closed"]
        assert response["consistent"] is True
        assert response["warnings"] == []


def test_evaluate_request_alternate_reading():
    request = {
        "params": {"g": 0, "n_ns": 0, "n_rr": 0},
        "target": {"kind": "psuper", "r": 3, "s": 1, "d": 1},
    }
    response = evaluate_request(request, alternate_odd_sign=True)
    assert response["odd_part_reading"] == "s+2"
    assert response["consistent"] is False


@pytest.mark.parametrize(
    "params,target",
    [
        ({"g": 1.9}, {"kind": "point"}),
        ({"g": 0, "n_ns": True}, {"kind": "point"}),
        ({"g": 0}, {"kind": "psuper", "r": "2", "s": 0, "d": 1}),
        ({"g": 0}, {"kind": "custom", "r": 2, "s": 0, "tau": 0.1}),
        ({"g": 0}, {"kind": "custom", "r": 2, "s": 0, "tau": None}),
        ({"g": 0}, {"kind": "custom", "r": 2, "s": 1, "phi_int": "1/0"}),
    ],
    ids=["float-genus", "bool-n_ns", "string-r", "float-tau", "null-tau", "zero-denominator"],
)
def test_evaluate_request_refuses_inexact_numbers(params, target):
    with pytest.raises(ValueError):
        evaluate_request({"params": params, "target": target})


def test_targets_read_rationals_exactly():
    target = TargetSpec(2, 1, "-3/4", 5)
    assert (target.tau, target.phi_int) == (Fraction(-3, 4), Fraction(5))
    with pytest.raises(ValueError):
        TargetSpec(2, 1, 0.5, 0)


@pytest.mark.parametrize(
    "args", [(1.5,), (True,), (0, 0.0), (0, 0, 2.0), (0, None), ("1",)], ids=repr
)
def test_moduli_params_refuse_inexact_numbers(args):
    with pytest.raises(ValueError):
        ModuliParams(*args)


@pytest.mark.parametrize(
    "args",
    [
        (1.5, 0, Fraction(0), Fraction(0)),
        (1, True, Fraction(0), Fraction(0)),
        (1, 0, Fraction(0), Fraction(0), 0.5),
        (1, 0, Fraction(0), Fraction(0), False),
    ],
    ids=["float-r", "bool-s", "float-d", "bool-d"],
)
def test_target_spec_refuses_inexact_numbers(args):
    with pytest.raises(ValueError):
        TargetSpec(*args)


@pytest.mark.parametrize("args", [(1.0, 0, 1), (1, 0, 0.5), (2, True, 1)], ids=repr)
def test_psuper_refuses_inexact_numbers(args):
    with pytest.raises(ValueError):
        TargetSpec.psuper(*args)


@pytest.mark.parametrize(
    "request_obj,key,where",
    [
        ({"target": {"kind": "point"}}, "params", "request"),
        ({"params": {"g": 0}}, "target", "request"),
        ({"params": {}, "target": {"kind": "point"}}, "g", "params"),
        ({"params": {"g": 0}, "target": {"kind": "psuper", "s": 0, "d": 1}}, "r", "target"),
        ({"params": {"g": 0}, "target": {"r": 2, "s": 0}}, "d", "target"),
        ({"params": {"g": 0}, "target": {"kind": "custom", "r": 2}}, "s", "target"),
    ],
    ids=["params", "target", "g", "r", "d", "s"],
)
def test_evaluate_request_names_missing_key(request_obj, key, where):
    with pytest.raises(ValueError, match=f"^missing key '{key}' in {where}$"):
        evaluate_request(request_obj)


@pytest.mark.parametrize(
    "request_obj,key,where",
    [
        (
            {"params": {"g": 0}, "target": {"kind": "point"}, "alternate": True},
            "alternate",
            "request",
        ),
        ({"params": {"g": 0, "n_RR": 2}, "target": {"kind": "point"}}, "n_RR", "params"),
        ({"params": {"g": 0}, "target": {"kind": "point", "r": 1}}, "r", "target"),
        ({"params": {"g": 0}, "target": {"r": 2, "s": 0, "d": 1, "tau": "3"}}, "tau", "target"),
        (
            {"params": {"g": 0}, "target": {"kind": "custom", "r": 2, "s": 0, "tua": "3"}},
            "tua",
            "target",
        ),
    ],
    ids=["request", "params", "point", "psuper", "custom"],
)
def test_evaluate_request_names_unknown_key(request_obj, key, where):
    with pytest.raises(ValueError, match=f"^unknown key '{key}' in {where}$"):
        evaluate_request(request_obj)


@pytest.mark.parametrize(
    "request_obj",
    [{"params": [0], "target": {"kind": "point"}}, {"params": {"g": 0}, "target": "point"}, []],
    ids=["list-params", "string-target", "list-request"],
)
def test_evaluate_request_refuses_non_objects(request_obj):
    with pytest.raises(ValueError):
        evaluate_request(request_obj)
