"""Riemann-Roch engine for split supercurves of dimension 1|1.

A split supercurve is a genus-g curve X with structure sheaf extended by
a line bundle L (parity-shifted), so the odd ideal squares to zero and
any locally free sheaf U on it has an associated graded bundle

    gr U = [U0 + L.M1]  +  P [M1 + L.U0],    M1 = parity shift of U1,

which at the level of Chern roots twists each root of the opposite
parity by deg L.  That is gr U = U (x) gr O, with gr O = O_X + P L the
graded structure sheaf, so ch(gr U) = ch(U) . ch(gr O).  The super Euler
characteristic is then computed two independent ways: integrating ch(U)
against the per-curve class ch(gr O) . td(T_X) = (1 - P e^(deg L w)) .
td(T_X), built once per curve from gr_module, and componentwise classical
Riemann-Roch (chi = deg + rank.(1-g)) on the even and odd parts of
gr U, read from gr_module's root degrees.  Both are exact and must
agree, and both return the super Euler characteristic chi_S(U) =
chi(even part) - P chi(odd part) as a SuperScalar.  chi_super pairs
ch(U), as chern_character's compiled kernel returns it in lowest terms,
with that class, so ch has one path and chi_super builds no class.

The twist deg L is an integer from construction, so gr needs no check
of it.  SplitSupercurve.susy hands out one shared curve per genus and
Ramond count, as the ChowModel named constructors do.  Which bundle a
moduli target restricts to is not decided here: modulidim builds that
bundle beside its target type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .chowring import ChowModel, GradedElement, _pairing, _scalar, _shared_model, check_model
from .superbundle import SuperBundle, _class_kernel
from .superscalar import SuperScalar, Value, parse_int, set_field


@lru_cache(maxsize=64)
def _curve_todd(genus: int) -> GradedElement:
    """Todd class of the genus-g tangent bundle (immutable, shared)."""
    return SuperBundle(ChowModel.curve(genus), (2 - 2 * genus,), (), 1).todd()


class NonIntegralTwist(ValueError):
    """An odd Ramond count makes the spin twist g - 1 + n_rr/2 non-integral."""


def parse_ramond_count(n_rr) -> int:
    """The one check of a Ramond count, for susy and ModuliParams: a nonnegative even int.

    L^2 = omega_C(R) with deg omega_C even makes the count even and deg L an
    integer.  An odd count raises NonIntegralTwist, a negative one ValueError.
    """
    n_rr = parse_int(n_rr, "n_rr")
    if n_rr < 0 or n_rr % 2:
        error = NonIntegralTwist if n_rr % 2 else ValueError
        raise error(
            f"n_rr={n_rr} is not a Ramond count: it must be a nonnegative even integer "
            "(an odd count makes the spin twist g - 1 + n_rr/2 non-integral)"
        )
    return n_rr


class SplitSupercurve(Value):
    """Genus-g curve with odd direction twisted by a line bundle of integer degree deg_l."""

    __slots__ = ("genus", "deg_l")

    def __init__(self, genus: int, deg_l: int) -> None:
        genus = parse_int(genus, "genus")
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        set_field(self, "genus", genus)
        set_field(self, "deg_l", parse_int(deg_l, "deg_l"))

    @staticmethod
    def susy(genus: int, n_rr: int = 0) -> "SplitSupercurve":
        """The shared curve with spin twist deg L = g - 1 + n_rr/2, n_rr a Ramond count."""
        return _susy_curve(parse_int(genus, "genus"), parse_ramond_count(n_rr))

    @property
    def model(self) -> ChowModel:
        """The genus-g curve model, shared rather than rebuilt on each access."""
        return _shared_model("curve", self.genus, 0)


# keyed on a parsed genus and its twist, so refused input never reaches the cache
_shared_curve = lru_cache(maxsize=64)(SplitSupercurve)


def _susy_curve(genus: int, n_rr: int) -> SplitSupercurve:
    """The shared curve of a parsed genus and Ramond count: deg L = g - 1 + n_rr/2."""
    return _shared_curve(genus, genus - 1 + n_rr // 2)


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


@lru_cache(maxsize=64)
def _curve_class(genus: int, deg_l: int) -> GradedElement:
    """ch(gr O) . td(T_X) on the curve with twist deg_l (immutable, shared).

    gr U = U (x) gr O, so this is the whole integrand of chi_super but ch(U).
    """
    structure = SuperBundle(ChowModel.curve(genus), (0,), (), 1)
    graded = gr_module(SplitSupercurve(genus, deg_l), structure)
    return graded.chern_character().ring_mul(_curve_todd(genus))


def chi_super(curve: SplitSupercurve, bundle: SuperBundle) -> SuperScalar:
    """Euler characteristic by integration: integral of ch(U) . ch(gr O) . td(T_X).

    That is the integral of ch(gr U) . td(T_X), as gr U = U (x) gr O.
    """
    return _scalar(*_chi_values(curve, bundle))


def _chi_values(curve: SplitSupercurve, bundle: SuperBundle) -> tuple[int, int, int]:
    """chi_super at P = +1 and P = -1, over one denominator: ch(U) against the curve's class.

    ch(U) is the triple of chern_character's kernel (top degree 1 on a
    curve), in lowest terms, so no class is built; the pairing is reduced
    only by _scalar, where a caller wants a SuperScalar (evaluate_request
    compares the triples as they are).
    """
    check_model(bundle, curve)
    character = _class_kernel("ch", 1)(bundle.even, bundle.odd, bundle.denominator)
    return _pairing(*character, _curve_class(curve.genus, curve.deg_l))


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

