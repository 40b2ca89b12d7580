"""Seeded randomized identity suites shared by the CLI and the test bed.

Each suite draws cases from a deterministic PRNG, checks an exact ring
identity, and reports failures as printable counterexamples (kept
sorted so the smallest one can be shown first).  All comparisons are
exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import ktheory
from .chowring import ChowModel, GradedElement
from .grr import SplitSupercurve, chi_character_form, chi_super, rr_oracle
from .ktheory import KClass, NormalData
from .superbundle import SuperBundle
from .superscalar import PI, SuperScalar, pi_power


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return self.cases - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{self.name}: {self.passed}/{self.cases} {status}"


# -- random generators ----------------------------------------------------


def random_model(rng: random.Random) -> ChowModel:
    if rng.random() < 0.7:
        return ChowModel.curve(rng.randint(0, 3))
    return ChowModel.proj_space(rng.randint(1, 3))


def random_bundle(
    rng: random.Random,
    model: ChowModel,
    max_rank: int = 3,
    degree_bound: int = 5,
) -> SuperBundle:
    def degs(n: int):
        return [rng.randint(-degree_bound, degree_bound) for _ in range(n)]

    return SuperBundle.from_degrees(
        model, degs(rng.randint(0, max_rank)), degs(rng.randint(0, max_rank))
    )


def random_element(rng: random.Random, model: ChowModel) -> GradedElement:
    def scalar() -> SuperScalar:
        return SuperScalar(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        )

    return GradedElement.from_coeffs(
        model, [scalar() for _ in range(model.top_degree + 1)]
    )


def random_normal_data(rng: random.Random, model: ChowModel) -> NormalData:
    degs = [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))]
    return NormalData.from_degrees(model, degs)


def random_supercurve_instance(
    rng: random.Random,
    max_genus: int = 3,
    max_rank: int = 3,
    degree_bound: int = 5,
) -> tuple[SplitSupercurve, SuperBundle]:
    curve = SplitSupercurve(
        rng.randint(0, max_genus),
        Fraction(rng.randint(-degree_bound, degree_bound)),
    )
    bundle = random_bundle(rng, curve.model, max_rank, degree_bound)
    return curve, bundle


# -- suite bodies -----------------------------------------------------------


def _run(name: str, cases: int, seed: int, one_case) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult(name, cases)
    for index in range(cases):
        failure = one_case(rng)
        if failure is not None:
            result.failures.append(f"case {index}: {failure}")
    return result


def run_whitney(seed: int, cases: int) -> SuiteResult:
    """Total Chern class is multiplicative on direct sums."""

    def one(rng):
        model = random_model(rng)
        e = random_bundle(rng, model)
        f = random_bundle(rng, model)
        lhs = e.direct_sum(f).chern_total()
        rhs = e.chern_total().ring_mul(f.chern_total())
        if lhs != rhs:
            return f"c({e} + {f}) != c.c"
        return None

    return _run("whitney", cases, seed, one)


def run_tensor_character(seed: int, cases: int) -> SuiteResult:
    """ch is additive on sums and multiplicative on tensor products."""

    def one(rng):
        model = random_model(rng)
        e = random_bundle(rng, model, max_rank=2)
        f = random_bundle(rng, model, max_rank=2)
        if e.tensor(f).chern_character() != e.chern_character().ring_mul(
            f.chern_character()
        ):
            return f"ch({e} x {f}) != ch.ch"
        if e.direct_sum(f).chern_character() != e.chern_character() + f.chern_character():
            return f"ch({e} + {f}) != ch + ch"
        return None

    return _run("tensor-character", cases, seed, one)


def run_parity_rules(seed: int, cases: int) -> SuiteResult:
    """Parity shift and duality rules for ch and c_1."""

    def one(rng):
        model = random_model(rng)
        e = random_bundle(rng, model)
        shifted = e.pi_shift()
        if shifted.chern_character() != e.chern_character().scale(-PI):
            return f"ch(P.{e}) != -P ch"
        r, s = e.rank
        if shifted.c1() != -e.c1() * pi_power(r + s):
            return f"c1 parity rule fails on {e}"
        if shifted.pi_shift() != e:
            return f"parity shift not involutive on {e}"
        line = SuperBundle.from_degrees(model, (rng.randint(-5, 5),), ())
        if rng.random() < 0.5:
            line = line.pi_shift()
        if line.dual().c1() != -line.c1():
            return f"c1 duality fails on {line}"
        return None

    return _run("parity-rules", cases, seed, one)


def run_todd_multiplicativity(seed: int, cases: int) -> SuiteResult:
    def one(rng):
        model = random_model(rng)
        e = random_bundle(rng, model)
        f = random_bundle(rng, model)
        if e.direct_sum(f).todd() != e.todd().ring_mul(f.todd()):
            return f"td({e} + {f}) != td.td"
        return None

    return _run("todd-multiplicativity", cases, seed, one)


def run_todd_sigma1_duality(seed: int, cases: int) -> SuiteResult:
    """On purely odd bundles, td(E) equals the sigma_1 class of the dual."""

    def one(rng):
        model = random_model(rng)
        e = SuperBundle.from_degrees(
            model, (), [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))]
        )
        if e.todd() != e.dual().sigma1():
            return f"td != sigma1(dual) on {e}"
        return None

    return _run("todd-sigma1-duality", cases, seed, one)


def run_star_ring(seed: int, cases: int) -> SuiteResult:
    """j is a ring morphism into the star product, whose unit is sigma_1."""

    def one(rng):
        model = random_model(rng)
        nd = random_normal_data(rng, model)
        x = KClass(random_element(rng, model))
        y = KClass(random_element(rng, model))
        jx = ktheory.j_map(x, nd)
        jy = ktheory.j_map(y, nd)
        if ktheory.star_product(jx, jy, nd) != ktheory.j_map(x * y, nd):
            return f"j(x)*j(y) != j(xy) over {nd}"
        if ktheory.star_product(x, ktheory.star_identity(nd), nd) != x:
            return f"sigma_1 is not a star unit over {nd}"
        return None

    return _run("star-ring", cases, seed, one)


def run_twisted_character(seed: int, cases: int) -> SuiteResult:
    """ch_S is multiplicative for the star product and splits j."""

    def one(rng):
        model = random_model(rng)
        nd = random_normal_data(rng, model)
        x = KClass(random_element(rng, model))
        y = KClass(random_element(rng, model))
        lhs = ktheory.ch_twisted(ktheory.star_product(x, y, nd), nd)
        rhs = ktheory.ch_twisted(x, nd).ring_mul(ktheory.ch_twisted(y, nd))
        if lhs != rhs:
            return f"ch_S(x*y) != ch_S ch_S over {nd}"
        if ktheory.ch_twisted(ktheory.j_map(x, nd), nd) != x.ch_image:
            return f"ch_S(j(x)) != ch(x) over {nd}"
        return None

    return _run("twisted-character", cases, seed, one)


IDENTITY_SUITES = {
    "whitney": run_whitney,
    "tensor-character": run_tensor_character,
    "parity-rules": run_parity_rules,
    "todd-multiplicativity": run_todd_multiplicativity,
    "todd-sigma1-duality": run_todd_sigma1_duality,
    "star-ring": run_star_ring,
    "twisted-character": run_twisted_character,
}


def run_identity_suites(seed: int, cases: int) -> list[SuiteResult]:
    return [fn(seed + i, cases) for i, (name, fn) in enumerate(IDENTITY_SUITES.items())]


def run_sgrr_sweep(seed: int, cases: int) -> SuiteResult:
    """Randomized Riemann-Roch check: integral route vs classical oracle."""
    rng = random.Random(seed)
    result = SuiteResult("sgrr", cases)
    for index in range(cases):
        curve, bundle = random_supercurve_instance(rng)
        via_integral = chi_super(curve, bundle)
        via_character = chi_character_form(curve, bundle)
        oracle = rr_oracle(curve, bundle)
        if not (via_integral == oracle and via_character == oracle):
            size = sum(abs(d) for d in bundle.even_degs + bundle.odd_degs)
            result.failures.append(
                f"case {index} (size {size}): g={curve.genus} deg_l={curve.deg_l} "
                f"{bundle}: integral {via_integral}, character {via_character}, "
                f"oracle {oracle}"
            )
    return result
