"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every comparison is exact rational equality (zero tolerance).  Criteria
with a stated runtime budget assert it on a wall-clock measurement of
the computational core.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import itertools
import json
import time
from fractions import Fraction
from math import factorial

from supergrr import (
    ChowModel,
    GradedElement,
    ModuliParams,
    SuperScalar,
    TargetSpec,
    bosonic_dimension,
    chi_gauge,
    vdim_assembled,
    vdim_closed,
)
from supergrr.cli import main as cli_main
from supergrr.suites import IDENTITY_SUITES, run_sgrr_sweep

SWEEP = list(
    itertools.product(range(4), range(5), (0, 2, 4, 6), range(1, 5), range(4), range(4))
)


def report(flag: bool, label: str) -> None:
    print(f"[{'PASS' if flag else 'FAIL'}] {label}")
    assert flag, label


def test_criterion_1_closed_vs_assembled_sweep():
    start = time.perf_counter()
    mismatches = [
        point
        for point in SWEEP
        if vdim_closed(ModuliParams(*point[:3]), TargetSpec.psuper(*point[3:]))
        != vdim_assembled(ModuliParams(*point[:3]), TargetSpec.psuper(*point[3:]))
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    report(
        ok,
        f"criterion 1: closed = assembled on {len(SWEEP)} sweep points "
        f"({len(mismatches)} mismatches, {elapsed:.2f}s < 10s)",
    )


def test_criterion_2_reported_formula_reproduction():
    gauge_ok = all(
        chi_gauge(ModuliParams(g)) == SuperScalar(3 - 3 * g, -(2 - 2 * g))
        for g in range(6)
    )

    bosonic_target_ok = True
    for g in range(4):
        for r in range(1, 5):
            for d in range(4):
                tau = Fraction(d * (r + 1))
                expected = SuperScalar((1 - g) * (r - 3) + tau, -(2 * g - 2) - tau)
                got = vdim_closed(ModuliParams(g), TargetSpec.psuper(r, 0, d))
                bosonic_target_ok &= got == expected

    reduction_ok = all(
        bosonic_dimension(ModuliParams(*p[:3]), TargetSpec.psuper(*p[3:]))
        == vdim_closed(ModuliParams(*p[:3]), TargetSpec.psuper(*p[3:])).body
        for p in SWEEP
    )

    ok = gauge_ok and bosonic_target_ok and reduction_ok
    report(
        ok,
        "criterion 2: gauge Euler data (g in 0..5), bosonic-target "
        f"specialization term-by-term ({gauge_ok}, {bosonic_target_ok}), "
        f"even part = reduced dimension on all sweep points ({reduction_ok})",
    )


def test_criterion_3_riemann_roch_random_sweep():
    start = time.perf_counter()
    result = run_sgrr_sweep(seed=42, cases=1000)
    elapsed = time.perf_counter() - start
    ok = result.ok and result.cases == 1000 and elapsed < 2.0
    report(
        ok,
        f"criterion 3: chi via integral = classical oracle on "
        f"{result.passed}/{result.cases} random split-supercurve instances "
        f"({elapsed:.2f}s < 2s)",
    )


def test_criterion_4_identity_suites():
    start = time.perf_counter()
    results = [fn(seed, 500) for seed, fn in enumerate(IDENTITY_SUITES.values())]
    elapsed = time.perf_counter() - start
    ok = all(r.ok for r in results) and elapsed < 5.0
    detail = ", ".join(f"{r.name} {r.passed}/{r.cases}" for r in results)
    report(ok, f"criterion 4: identity suites ({detail}) in {elapsed:.2f}s < 5s")


def test_criterion_5_bosonic_sanity_oracle():
    def binomial(k: int, r: int) -> Fraction:
        out = Fraction(1)
        for i in range(1, r + 1):
            out *= Fraction(k + i, i)
        return out

    failures = []
    for r in range(1, 5):
        model = ChowModel.proj_space(r)
        series = GradedElement.from_coeffs(
            model, [Fraction((-1) ** i, factorial(i + 1)) for i in range(r + 1)]
        )
        factor = series.series_invert()
        td = GradedElement.one(model)
        for _ in range(r + 1):
            td = td.ring_mul(factor)
        h = GradedElement.from_coeffs(model, (0, 1))
        for k in range(-3, 7):
            value = h.scale(k).exp_nilpotent().ring_mul(td).integrate()
            if value != SuperScalar(binomial(k, r)):
                failures.append((r, k))
    report(
        not failures,
        f"criterion 5: integral of e^(kh) td(P^r) = C(k+r, r) for r in 1..4, "
        f"k in -3..6 ({len(failures)} failures)",
    )


def test_criterion_6_typo_regression(capsys):
    code = cli_main(
        [
            "vdim", "--target", "psuper", "--r", "2", "--s", "1", "--d", "1",
            "--g", "0", "--use-paper-dimmod2-sign",
        ]
    )
    captured = capsys.readouterr()
    payload = json.loads("\n".join(captured.out.splitlines()[2:]))
    names_both = "(s+2)" in captured.err and "(s-2)" in captured.err
    ok = code == 2 and payload["consistent"] is False and names_both
    with capsys.disabled():
        report(
            ok,
            "criterion 6: alternate odd-part reading trips the consistency "
            f"check at g=0, s=1 (exit {code}) and the report names both "
            f"readings ({names_both})",
        )
