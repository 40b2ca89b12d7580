"""Seeded randomized identity suites shared by the CLI and the test bed.

Each suite draws cases from a deterministic PRNG, checks an exact ring
identity, and records each failing case as (size, text).  The size is
the model's top degree plus r + s + sum |degree| over the bundles the
case drew, the conormal bundle included; minimal_failure picks the
smallest across suites.  All comparisons are exact; there are no
tolerances anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from . import ktheory
from .chowring import ChowModel, GradedElement
from .grr import SplitSupercurve, chi_character_form, chi_super, rr_oracle
from .ktheory import KClass, NormalData
from .superbundle import SuperBundle
from .superscalar import PI, SuperScalar, Value, pi_power, set_field


class SuiteResult(Value):
    """A suite's name, case count and failures, each failure a (size, text) pair."""

    __slots__ = ("name", "cases", "failures")

    def __init__(self, name: str, cases: int, failures=()) -> None:
        set_field(self, "name", name)
        set_field(self, "cases", cases)
        set_field(self, "failures", tuple(failures))

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


def _degrees(rng: random.Random, most: int) -> list[int]:
    """Up to most degrees in -5..5, the count drawn before the degrees."""
    return [rng.randint(-5, 5) for _ in range(rng.randint(0, most))]


def random_bundle(rng: random.Random, model: ChowModel, max_rank: int = 3) -> SuperBundle:
    return SuperBundle.from_degrees(model, _degrees(rng, max_rank), _degrees(rng, max_rank))


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
    return NormalData.from_degrees(model, _degrees(rng, 2))


def random_supercurve_instance(rng: random.Random) -> tuple[SplitSupercurve, SuperBundle]:
    curve = SplitSupercurve(rng.randint(0, 3), rng.randint(-5, 5))
    return curve, random_bundle(rng, curve.model)


# -- the case loop ---------------------------------------------------------


def _size(model: ChowModel, *bundles: SuperBundle) -> Fraction:
    """Top degree plus r + s + sum |degree| over the bundles a failing case drew."""
    return model.top_degree + sum(
        sum(b.rank) + sum(map(abs, b.even_degs + b.odd_degs)) for b in bundles
    )


def _run(name: str, seed: int, cases: int, one_case) -> SuiteResult:
    """The one case loop: one_case(rng) returns None or (size, text)."""
    rng = random.Random(seed)
    failures = []
    for index in range(cases):
        failure = one_case(rng)
        if failure is not None:
            size, text = failure
            failures.append((size, f"case {index} (size {size}): {text}"))
    return SuiteResult(name, cases, failures)


def minimal_failure(results: list[SuiteResult]) -> str | None:
    """The smallest failure text across all suites; ties go to suite, then case order."""
    failures = [failure for result in results for failure in result.failures]
    return min(failures, key=lambda failure: failure[0])[1] if failures else None


# -- one case of each suite ---------------------------------------------------


def _multiplicativity(method: str, symbol: str, rng):
    """SuperBundle.<method>, written symbol and looked up per case, is multiplicative on sums."""
    model = random_model(rng)
    e = random_bundle(rng, model)
    f = random_bundle(rng, model)
    total, left, right = [getattr(b, method)() for b in (e.direct_sum(f), e, f)]
    if total != left.ring_mul(right):
        return _size(model, e, f), f"{symbol}({e} + {f}) != {symbol}.{symbol}"
    return None


def _tensor_character(rng):
    """ch is additive on sums and multiplicative on tensor products."""
    model = random_model(rng)
    e = random_bundle(rng, model, max_rank=2)
    f = random_bundle(rng, model, max_rank=2)
    if e.tensor(f).chern_character() != e.chern_character().ring_mul(f.chern_character()):
        return _size(model, e, f), f"ch({e} x {f}) != ch.ch"
    if e.direct_sum(f).chern_character() != e.chern_character() + f.chern_character():
        return _size(model, e, f), f"ch({e} + {f}) != ch + ch"
    return None


def _parity_rules(rng):
    """Parity shift and duality rules for ch and c_1."""
    model = random_model(rng)
    e = random_bundle(rng, model)
    shifted = e.pi_shift()
    if shifted.chern_character() != e.chern_character().scale(-PI):
        return _size(model, e), f"ch(P.{e}) != -P ch"
    r, s = e.rank
    if shifted.c1() != -e.c1() * pi_power(r + s):
        return _size(model, e), f"c1 parity rule fails on {e}"
    if shifted.pi_shift() != e:
        return _size(model, e), f"parity shift not involutive on {e}"
    line = SuperBundle.from_degrees(model, (rng.randint(-5, 5),), ())
    if rng.random() < 0.5:
        line = line.pi_shift()
    if line.dual().c1() != -line.c1():
        return _size(model, e, line), f"c1 duality fails on {line}"
    return None


def _todd_sigma1_duality(rng):
    """On purely odd bundles, td(E) equals the sigma_1 class of the dual."""
    model = random_model(rng)
    e = SuperBundle.from_degrees(model, (), _degrees(rng, 3))
    if e.todd() != e.dual().sigma1():
        return _size(model, e), f"td != sigma1(dual) on {e}"
    return None


def _star_ring(rng):
    """j is a ring morphism into the star product, whose unit is sigma_1."""
    model = random_model(rng)
    nd = random_normal_data(rng, model)
    x = KClass(random_element(rng, model))
    y = KClass(random_element(rng, model))
    jx = ktheory.j_map(x, nd)
    jy = ktheory.j_map(y, nd)
    if ktheory.star_product(jx, jy, nd) != ktheory.j_map(x * y, nd):
        return _size(model, nd.conormal), f"j(x)*j(y) != j(xy) over {nd}"
    if ktheory.star_product(x, ktheory.star_identity(nd), nd) != x:
        return _size(model, nd.conormal), f"sigma_1 is not a star unit over {nd}"
    return None


def _twisted_character(rng):
    """ch_S is multiplicative for the star product and splits j."""
    model = random_model(rng)
    nd = random_normal_data(rng, model)
    x = KClass(random_element(rng, model))
    y = KClass(random_element(rng, model))
    lhs = ktheory.ch_twisted(ktheory.star_product(x, y, nd), nd)
    rhs = ktheory.ch_twisted(x, nd).ring_mul(ktheory.ch_twisted(y, nd))
    if lhs != rhs:
        return _size(model, nd.conormal), f"ch_S(x*y) != ch_S ch_S over {nd}"
    if ktheory.ch_twisted(ktheory.j_map(x, nd), nd) != x.ch_image:
        return _size(model, nd.conormal), f"ch_S(j(x)) != ch(x) over {nd}"
    return None


def _sgrr(rng):
    """Riemann-Roch on a random split supercurve: integral and character vs oracle."""
    curve, bundle = random_supercurve_instance(rng)
    via_integral = chi_super(curve, bundle)
    via_character = chi_character_form(curve, bundle)
    oracle = rr_oracle(curve, bundle)
    if via_integral == oracle and via_character == oracle:
        return None
    return _size(curve.model, bundle), (
        f"g={curve.genus} deg_l={curve.deg_l} {bundle}: integral {via_integral}, "
        f"character {via_character}, oracle {oracle}"
    )


# -- the suites ---------------------------------------------------------------

# name -> runner(seed, cases), each a partial of _run over one case function
IDENTITY_SUITES = {
    name: partial(_run, name, one_case=one_case)
    for name, one_case in (
        ("whitney", partial(_multiplicativity, "chern_total", "c")),
        ("tensor-character", _tensor_character),
        ("parity-rules", _parity_rules),
        ("todd-multiplicativity", partial(_multiplicativity, "todd", "td")),
        ("todd-sigma1-duality", _todd_sigma1_duality),
        ("star-ring", _star_ring),
        ("twisted-character", _twisted_character),
    )
}


def run_identity_suites(seed: int, cases: int) -> list[SuiteResult]:
    return [run(seed + i, cases) for i, run in enumerate(IDENTITY_SUITES.values())]


def run_sgrr_sweep(seed: int, cases: int) -> SuiteResult:
    """Randomized Riemann-Roch check: integral route vs classical oracle."""
    return _run("sgrr", seed, cases, _sgrr)
