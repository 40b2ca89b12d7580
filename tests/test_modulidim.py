import itertools
import json
import warnings
from fractions import Fraction

import pytest

from supergrr import (
    InvalidRank,
    ModuliParams,
    NonIntegralTwist,
    Properness,
    SuperCycleClass,
    SuperScalar,
    TargetSpec,
    bosonic_dimension,
    chi_gauge,
    evaluate_request,
    properness_hint,
    vdim_assembled,
    vdim_closed,
)

SWEEP = list(
    itertools.product(
        range(4), range(5), (0, 2, 4, 6), range(1, 5), range(4), range(4)
    )
)


# -- gauge sheaf Euler data ---------------------------------------------------


@pytest.mark.parametrize("g", range(6))
def test_chi_gauge_unpunctured(g):
    assert chi_gauge(ModuliParams(g)).value == SuperScalar(3 - 3 * g, -(2 - 2 * g))


def test_chi_gauge_with_punctures():
    assert chi_gauge(ModuliParams(0, 3, 0)).value == SuperScalar(0, 1)
    assert chi_gauge(ModuliParams(1, 0, 2)).value == SuperScalar(-2, 1)
    # odd n_rr gives a half-integral odd component: 2 - P(3/2)
    assert chi_gauge(ModuliParams(0, 0, 1)).value == SuperScalar(2, Fraction(-3, 2))


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
    assert t.degree_integral == 24
    assert t.kind == "psuper"


def test_point_target():
    t = TargetSpec.point()
    assert (t.r, t.s, t.tau, t.phi_int) == (0, 0, 0, 0)
    assert t.kind == "point"


def test_custom_target_kind():
    t = TargetSpec.custom(2, 1, Fraction(5), Fraction(-1))
    assert t.kind == "custom"


def test_target_json_round_trip():
    for t in [TargetSpec.psuper(2, 1, 3), TargetSpec.point(), TargetSpec.custom(1, 0, 7, 2)]:
        assert TargetSpec.from_json(json.loads(json.dumps(t.to_json()))) == t


def test_supercycle_class():
    beta = SuperCycleClass(3)
    assert beta.coefficient == SuperScalar(3, -3)
    assert beta.coefficient.soul == -beta.coefficient.body
    # multiplying by the parity unit flips the sign: (1 - P) P = -(1 - P)
    from supergrr import PI

    assert beta.coefficient * PI == -beta.coefficient


# -- closed formula ----------------------------------------------------------------


def test_vdim_closed_examples():
    assert vdim_closed(ModuliParams(0), TargetSpec.psuper(3, 0, 1)) == SuperScalar(4, -2)
    assert vdim_closed(ModuliParams(0), TargetSpec.psuper(1, 1, 1)) == SuperScalar(1, -2)


def test_vdim_closed_point_target_is_curve_moduli_dimension():
    for g in range(4):
        for n_ns in range(4):
            for n_rr in range(0, 8, 2):
                params = ModuliParams(g, n_ns, n_rr)
                expected = -chi_gauge(params).value
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d_rr_unit = vdim_closed(ModuliParams(g, n_ns, n_rr + 1), target) - v0
        assert d_rr_unit == SuperScalar(1 + Fraction(s, 2), -Fraction(r + 1, 2))

        d_d = vdim_closed(params, TargetSpec.psuper(r, s, d + 1)) - v0
        assert d_d == SuperScalar(r + 1 + s, -(r + 1 + s))

        custom = TargetSpec.custom(r, s, Fraction(4), Fraction(1))
        v_custom = vdim_closed(params, custom)
        d_tau = vdim_closed(params, TargetSpec.custom(r, s, 5, 1)) - v_custom
        assert d_tau == SuperScalar(1, -1)
        d_phi = vdim_closed(params, TargetSpec.custom(r, s, 4, 2)) - v_custom
        assert d_phi == SuperScalar(-1, 1)

        # second differences vanish: the formula is affine, not merely local
        v2 = vdim_closed(ModuliParams(g, n_ns + 2, n_rr), target)
        assert v2 - v0 == d_ns + d_ns


def test_vdim_closed_warns_on_odd_rr():
    with pytest.warns(UserWarning):
        value = vdim_closed(ModuliParams(0, 0, 1), TargetSpec.psuper(2, 1, 0))
    assert value.soul.denominator == 2


# -- assembled route ------------------------------------------------------------------


def test_assembled_equals_closed_spot_checks():
    for params, target in [
        (ModuliParams(0), TargetSpec.psuper(3, 0, 1)),
        (ModuliParams(2, 3, 4), TargetSpec.psuper(4, 3, 2)),
        (ModuliParams(1, 0, 6), TargetSpec.psuper(1, 2, 0)),
        (ModuliParams(3, 2, 0), TargetSpec.custom(2, 1, Fraction(5), Fraction(3))),
        (ModuliParams(2, 1, 2), TargetSpec.point()),
    ]:
        assert vdim_assembled(params, target) == vdim_closed(params, target)


def test_assembled_rejects_odd_rr():
    with pytest.raises(NonIntegralTwist):
        vdim_assembled(ModuliParams(0, 0, 1), TargetSpec.psuper(2, 1, 0))


def test_assembled_rejects_degree_on_rank_zero_target():
    with pytest.raises(InvalidRank):
        vdim_assembled(ModuliParams(0), TargetSpec.custom(0, 0, 1, 0))


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
    assert properness_hint(TargetSpec.psuper(2, 0, 3), p) == Properness.PROPER
    assert properness_hint(TargetSpec.psuper(2, 2, 1), p) == Properness.NOT_PROPER
    assert properness_hint(TargetSpec.psuper(2, 3, 0), p) == Properness.PROPER
    assert (
        properness_hint(TargetSpec.psuper(2, 3, 0), ModuliParams(0, 0, 2))
        == Properness.NOT_PROPER
    )


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


def test_evaluate_request_odd_rr_refuses_assembled():
    response = evaluate_request(
        {
            "params": {"g": 0, "n_ns": 0, "n_rr": 1},
            "target": {"kind": "psuper", "r": 2, "s": 0, "d": 0},
        }
    )
    assert response["assembled"] is None
    assert response["consistent"] is None
    assert response["warnings"]


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
    target = TargetSpec.custom(2, 1, "-3/4", 5)
    assert (target.tau, target.phi_int) == (Fraction(-3, 4), Fraction(5))
    with pytest.raises(ValueError):
        TargetSpec.custom(2, 1, 0.5, 0)


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
    "request_obj",
    [{"params": [0], "target": {"kind": "point"}}, {"params": {"g": 0}, "target": "point"}, []],
    ids=["list-params", "string-target", "list-request"],
)
def test_evaluate_request_refuses_non_objects(request_obj):
    with pytest.raises(ValueError):
        evaluate_request(request_obj)
