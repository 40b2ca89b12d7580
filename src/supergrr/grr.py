"""Riemann-Roch engine for split supercurves of dimension 1|1.

A split supercurve is a genus-g curve X with structure sheaf extended by
a line bundle L (parity-shifted), so the odd ideal squares to zero and
any locally free sheaf U on it has an associated graded bundle

    gr U = [U0 + L.M1]  +  P [M1 + L.U0],    M1 = parity shift of U1,

which at the level of Chern roots twists each root of the opposite
parity by deg L.  The super Euler characteristic is then computed two
independent ways: integrating ch(gr U) . td(T_X) over the curve, and
componentwise classical Riemann-Roch (chi = deg + rank.(1-g)) on the
even and odd parts of gr U.  Both are exact and must agree, and both
return the super Euler characteristic chi_S(U) = chi(even part) -
P chi(odd part) as a SuperScalar.

The twist deg L is an integer from construction, so gr needs no check
of it.  Which bundle a moduli target restricts to is not decided here:
modulidim builds that bundle beside its target type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .chowring import ChowModel, GradedElement, check_model
from .superbundle import SuperBundle
from .superscalar import SuperScalar, Value, parse_int, set_field


@lru_cache(maxsize=64)
def _curve_todd(genus: int) -> GradedElement:
    """Todd class of the genus-g tangent bundle (immutable, shared)."""
    return SuperBundle(ChowModel.curve(genus), (2 - 2 * genus,), (), 1).todd()


class NonIntegralTwist(ValueError):
    """An odd Ramond count makes the spin twist g - 1 + n_rr/2 non-integral."""


class SplitSupercurve(Value):
    """Genus-g curve with odd direction twisted by a line bundle of integer degree deg_l."""

    __slots__ = ("genus", "deg_l")

    def __init__(self, genus: int, deg_l: int) -> None:
        genus = parse_int(genus, "genus")
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        set_field(self, "genus", genus)
        set_field(self, "deg_l", parse_int(deg_l, "deg_l"))

    @classmethod
    def susy(cls, genus: int, n_rr: int = 0) -> "SplitSupercurve":
        """Spin-structure twist deg L = g - 1 + n_rr/2 (must be integral)."""
        genus, n_rr = parse_int(genus, "genus"), parse_int(n_rr, "n_rr")
        if n_rr % 2:
            raise NonIntegralTwist(
                f"g={genus}, n_rr={n_rr} gives non-integral twist degree "
                f"{Fraction(2 * genus - 2 + n_rr, 2)}"
            )
        return cls(genus, genus - 1 + n_rr // 2)

    @property
    def model(self) -> ChowModel:
        """The genus-g curve model, shared rather than rebuilt on each access."""
        return ChowModel.curve(self.genus)


def gr_module(curve: SplitSupercurve, bundle: SuperBundle) -> SuperBundle:
    """Associated graded of a sheaf restricted along the odd filtration.

    Roots of each parity reappear untouched, and additionally twisted by
    deg L with the opposite parity.  The twist shifts the numerators by
    deg L times the denominator; the result keeps the bundle's
    denominator and stays reduced, since it keeps every numerator.
    """
    check_model(bundle, curve)
    den = bundle.denominator
    shift = curve.deg_l * den
    even = bundle.even + tuple([m + shift for m in bundle.odd])
    odd = bundle.odd + tuple([a + shift for a in bundle.even])
    return SuperBundle(bundle.model, even, odd, den)


def chi_super(curve: SplitSupercurve, bundle: SuperBundle) -> SuperScalar:
    """Euler characteristic by integration: integral of ch(gr U) . td(T_X)."""
    graded = gr_module(curve, bundle)
    integrand = graded.chern_character().ring_mul(_curve_todd(curve.genus))
    return integrand.integrate()


def chi_character_form(curve: SplitSupercurve, bundle: SuperBundle) -> SuperScalar:
    """Euler characteristic as (1-g) ch_0 + deg ch_1 of the graded class."""
    character = gr_module(curve, bundle).chern_character()
    ch0 = character.coefficient(0)
    ch1 = character.coefficient(1)
    return ch0 * (1 - curve.genus) + ch1


def rr_oracle(curve: SplitSupercurve, bundle: SuperBundle) -> SuperScalar:
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
    return SuperScalar(Fraction(chi_even, den), Fraction(-chi_odd, den))

