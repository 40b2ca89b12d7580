"""Riemann-Roch engine for split supercurves of dimension 1|1.

A split supercurve is a genus-g curve X with structure sheaf extended by
a line bundle L (parity-shifted), so the odd ideal squares to zero and
any locally free sheaf U on it has an associated graded bundle

    gr U = [U0 + L.M1]  +  P [M1 + L.U0],    M1 = parity shift of U1,

which at the level of Chern roots twists each root of the opposite
parity by deg L.  The super Euler characteristic is then computed two
independent ways: integrating ch(gr U) . td(T_X) over the curve, and
componentwise classical Riemann-Roch (chi = deg + rank.(1-g)) on the
even and odd parts of gr U.  Both are exact and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .chowring import ChowModel, GradedElement, ModelMismatch
from .ktheory import NormalData
from .superbundle import SuperBundle
from .superscalar import SuperScalar, parse_int, parse_rational


@lru_cache(maxsize=None)
def _curve_todd(genus: int) -> GradedElement:
    """Todd class of the genus-g tangent bundle (immutable, shared)."""
    return SuperBundle(ChowModel.curve(genus), (2 - 2 * genus,), (), 1).todd()


class NonIntegralTwist(ValueError):
    """The twisting degree deg L must be an integer on the sheaf path."""


class InvalidRank(ValueError):
    """Target rank data that cannot be realized as a root bundle."""


@dataclass(frozen=True, slots=True)
class SplitSupercurve:
    """Genus-g curve with odd direction twisted by a degree deg_l line bundle."""

    genus: int
    deg_l: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "genus", parse_int(self.genus, "genus"))
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        object.__setattr__(self, "deg_l", parse_rational(self.deg_l, "deg_l"))

    @classmethod
    def susy(cls, genus: int, n_rr: int = 0) -> "SplitSupercurve":
        """Spin-structure twist deg L = g - 1 + n_rr/2 (must be integral)."""
        genus, n_rr = parse_int(genus, "genus"), parse_int(n_rr, "n_rr")
        if n_rr % 2:
            raise NonIntegralTwist(
                f"g={genus}, n_rr={n_rr} gives non-integral twist degree "
                f"{Fraction(2 * genus - 2 + n_rr, 2)}"
            )
        return cls(genus, Fraction(genus - 1 + n_rr // 2))

    @property
    def model(self) -> ChowModel:
        return ChowModel.curve(self.genus)

    def normal_data(self) -> NormalData:
        """Conormal root c_1(L) of the underlying curve in the supercurve."""
        return NormalData.from_degrees(self.model, (self.deg_l,))

    def tangent_bundle(self) -> SuperBundle:
        """Bosonic tangent bundle, one even root of degree 2 - 2g."""
        return SuperBundle(self.model, (2 - 2 * self.genus,), (), 1)

    def todd_class(self) -> GradedElement:
        return _curve_todd(self.genus)


@dataclass(frozen=True, slots=True)
class SuperEuler:
    """chi_S(x) = chi(x_even) - P * chi(x_odd), valued in Q[P]."""

    value: SuperScalar

    @property
    def body(self) -> Fraction:
        return self.value.body

    @property
    def soul(self) -> Fraction:
        return self.value.soul

    @property
    def is_integral(self) -> bool:
        return self.value.is_integral

    def __str__(self) -> str:
        return str(self.value)


def _check_curve_bundle(curve: SplitSupercurve, bundle: SuperBundle) -> None:
    if bundle.model != curve.model:
        raise ModelMismatch(f"bundle on {bundle.model}, supercurve on {curve.model}")


def gr_module(curve: SplitSupercurve, bundle: SuperBundle) -> SuperBundle:
    """Associated graded of a sheaf restricted along the odd filtration.

    Roots of each parity reappear untouched, and additionally twisted by
    deg L with the opposite parity.  The twist shifts the numerators by
    deg L times the denominator; the result keeps the bundle's
    denominator and stays reduced, since it keeps every numerator.
    """
    _check_curve_bundle(curve, bundle)
    if curve.deg_l.denominator != 1:
        raise NonIntegralTwist(f"twist degree {curve.deg_l} is not an integer")
    den = bundle.denominator
    shift = curve.deg_l.numerator * den
    even = bundle.even + tuple([m + shift for m in bundle.odd])
    odd = bundle.odd + tuple([a + shift for a in bundle.even])
    return SuperBundle(curve.model, even, odd, den)


def chi_super(curve: SplitSupercurve, bundle: SuperBundle) -> SuperEuler:
    """Euler characteristic by integration: integral of ch(gr U) . td(T_X)."""
    graded = gr_module(curve, bundle)
    integrand = graded.chern_character().ring_mul(curve.todd_class())
    return SuperEuler(integrand.integrate())


def chi_character_form(curve: SplitSupercurve, bundle: SuperBundle) -> SuperEuler:
    """Euler characteristic as (1-g) ch_0 + deg ch_1 of the graded class."""
    character = gr_module(curve, bundle).chern_character()
    ch0 = character.coefficient(0)
    ch1 = character.coefficient(1)
    return SuperEuler(ch0 * (1 - curve.genus) + ch1)


def rr_oracle(curve: SplitSupercurve, bundle: SuperBundle) -> SuperEuler:
    """Independent check: classical Riemann-Roch on each part of gr U.

    Reads root degrees directly, with no characteristic-class machinery:
    chi = deg + rank.(1-g) per part, combined as chi_even - P chi_odd,
    each part summed in integers over the bundle's denominator.
    """
    graded = gr_module(curve, bundle)
    den = graded.denominator
    rank_term = (1 - curve.genus) * den
    chi_even = sum(graded.even) + len(graded.even) * rank_term
    chi_odd = sum(graded.odd) + len(graded.odd) * rank_term
    return SuperEuler(SuperScalar(Fraction(chi_even, den), Fraction(-chi_odd, den)))


def check_sgrr(curve: SplitSupercurve, bundle: SuperBundle) -> bool:
    """True iff the integral route agrees exactly with the classical oracle."""
    return chi_super(curve, bundle) == rr_oracle(curve, bundle)


def pullback_tangent(curve: SplitSupercurve, target) -> SuperBundle:
    """Restricted tangent sheaf of a rank r|s target along a degree-beta map.

    The target supplies r, s, tau (total even tangent degree over the
    image cycle) and phi_int (integral of the odd conormal data, so the
    odd part has total degree mu = -phi_int).  Characteristic classes on
    a curve see only rank and total degree, so the canonical form puts
    the whole degree on one root per parity and zeros elsewhere.
    """
    r, s, tau, phi = target.r, target.s, target.tau, target.phi_int
    if r < 1 or s < 0:
        raise InvalidRank(f"cannot realize tangent data of rank {r}|{s}")
    if s == 0 and phi:
        raise InvalidRank("odd degree data on a target with no odd directions")
    # over the lcm of two reduced denominators the numerators stay coprime to it
    den = lcm(tau.denominator, phi.denominator)
    even = (tau.numerator * (den // tau.denominator),) + (0,) * (r - 1)
    odd = (-phi.numerator * (den // phi.denominator),) + (0,) * (s - 1) if s else ()
    return SuperBundle(curve.model, even, odd, den)
