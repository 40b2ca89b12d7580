"""Super vector bundles presented by the degrees of their formal Chern roots.

A bundle of rank r|s over a model with generator x (w on a curve, h on
P^n) is stored by the rational degrees a_1..a_r of its even Chern roots
a_i*x and the degrees m_1..m_s of the bosonic roots m_j*x of the parity
shift of its odd part.  By the splitting principle this loses no
generality for characteristic-class identities.

The degrees are kept as integer numerators over one positive
denominator D, reduced so that the gcd of D and all numerators is 1.
That form is canonical, so == and hash compare it field by field.  The
raw constructor neither parses nor reduces: from_degrees is the one
reader of degrees, and even_degs / odd_degs rebuild the Fractions at
the boundary (str, JSON).  dual and pi_shift keep D; direct_sum and
tensor bring both operands to the lcm of their denominators and reduce.

Every class below is a function of the power sums p_k(a) = sum_i a_i**k
and p_k(m), taken in integers on the stored numerators (D**k p_k), and
is built straight from its values at P = +1 and P = -1 (see chowring);
the P or 2**s factor becomes one factor per component:

* Chern character:   ch_k(E) = (p_k(a) - P * p_k(m)) / k!
* total Chern class: c(E) = P**s * exp(sum_k (-1)**(k-1) (p_k(a) - p_k(m)) / k * x**k),
  which is P**s * prod_i (1 + a_i x) / prod_j (1 + m_j x)
* Todd character:    td(E) = 2**s * exp(sum_k (tau_k p_k(a) + upsilon_k p_k(m)) x**k),
  which is prod_i a_i x / (1 - e**(-a_i x)) * prod_j (1 + e**(-m_j x))
* sigma_1 (purely odd bundles): 2**s * exp(sum_k upsilon'_k p_k(m) x**k),
  which is prod_j (1 + e**(m_j x)); its inverse negates the exponent and
  divides by 2**s

The rows tau, upsilon and upsilon' are the coefficients of the series
logarithms of x / (1 - e**-x), (1 + e**-x) / 2 and (1 + e**x) / 2.  Each
row is computed from its own defining series and cached per top degree,
as integer numerators over a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Sequence

from .chowring import ChowModel, GradedElement, ModelMismatch
from .superscalar import SuperScalar, parse_rational

Numerators = tuple[int, ...]


class NotPurelyOdd(ValueError):
    """sigma_1 is only defined here for bundles of rank 0|s."""


def root_degree(root: GradedElement) -> Fraction:
    """Degree-1 coefficient of a root (0 on a point model)."""
    if root.model.top_degree < 1:
        return Fraction(0)
    return root.coeffs[1].body


@dataclass(frozen=True, slots=True)
class SuperBundle:
    """Split super vector bundle of rank r|s given by its Chern-root degrees.

    The even root degrees are even[i] / denominator and the odd ones
    odd[j] / denominator, with integer numerators and denominator > 0
    sharing no factor with all of them.  Build bundles with from_degrees
    or zero, which produce that canonical form.
    """

    model: ChowModel
    even: Numerators
    odd: Numerators
    denominator: int

    # -- constructors --------------------------------------------------

    @classmethod
    def from_degrees(
        cls,
        model: ChowModel,
        even_degs: Sequence[Fraction | int | str] = (),
        odd_degs: Sequence[Fraction | int | str] = (),
    ) -> "SuperBundle":
        """Roots d*w (or d*h) from lists of exact degrees; a point admits only 0.

        A degree is an int, a Fraction or a ``"p/q"`` string; floats,
        bools and nulls are refused rather than rounded.
        """
        even = _parse_degrees(model, even_degs)
        odd = _parse_degrees(model, odd_degs)
        # the lcm of reduced denominators leaves the numerators coprime to it
        den, numerators = _over_common_denominator((*even, *odd))
        return cls(model, numerators[: len(even)], numerators[len(even) :], den)

    @classmethod
    def zero(cls, model: ChowModel) -> "SuperBundle":
        return cls(model, (), (), 1)

    @property
    def rank(self) -> tuple[int, int]:
        return (len(self.even), len(self.odd))

    @property
    def even_degs(self) -> tuple[Fraction, ...]:
        """The even root degrees as Fractions (boundary view)."""
        return tuple([Fraction(n, self.denominator) for n in self.even])

    @property
    def odd_degs(self) -> tuple[Fraction, ...]:
        """The odd root degrees as Fractions (boundary view)."""
        return tuple([Fraction(n, self.denominator) for n in self.odd])

    @property
    def even_roots(self) -> tuple[GradedElement, ...]:
        return _roots(self.model, self.even_degs)

    @property
    def odd_roots(self) -> tuple[GradedElement, ...]:
        return _roots(self.model, self.odd_degs)

    # -- characteristic classes -----------------------------------------

    def chern_character(self) -> GradedElement:
        """ch_k(E) = (p_k(a) - P * p_k(m)) / k!, that is (p_k(a) -+ p_k(m)) / k! at P = +-1."""
        even, odd = _power_sums(self.model.top_degree, self.even, self.odd)
        return _over_factorials(
            self.model,
            [a - m for a, m in zip(even, odd)],
            [a + m for a, m in zip(even, odd)],
            self.denominator,
        )

    def chern_total(self) -> GradedElement:
        """Total Chern class P**s * prod(1 + a_i) * prod(1 + m_j)**-1."""
        top = self.model.top_degree
        even, odd = _power_sums(top, self.even, self.odd)
        row_den, row = _log_one_plus_row(top)
        exponent = [c * (a - m) for c, a, m in zip(row, even, odd)]
        return _scaled_exp(
            self.model, exponent, row_den, self.denominator, minus=(-1) ** len(self.odd)
        )

    def chern_class(self, degree: int) -> SuperScalar:
        """Coefficient of c_degree(E) on the degree generator."""
        return self.chern_total().coefficient(degree)

    def c1(self) -> SuperScalar:
        return self.chern_class(1)

    def todd(self) -> GradedElement:
        """Multiplicative Todd character, 2**s * exp(tau . p(a) + upsilon . p(m))."""
        top = self.model.top_degree
        even, odd = _power_sums(top, self.even, self.odd)
        row_den, tau, upsilon = _todd_rows(top)
        exponent = [t * a + u * m for t, u, a, m in zip(tau, upsilon, even, odd)]
        scale = 2 ** len(self.odd)
        return _scaled_exp(
            self.model, exponent, row_den, self.denominator, plus=scale, minus=scale
        )

    def sigma1(self) -> GradedElement:
        """prod_j (1 + e**m_j); the class of O + P*Sym^1 on each odd line."""
        scale = 2 ** len(self.odd)
        return _scaled_exp(self.model, *self._sigma1_exponent(), plus=scale, minus=scale)

    def sigma1_inverse(self) -> GradedElement:
        """sigma1()**-1: the exponent negated, divided by 2**s."""
        exponent, row_den, den = self._sigma1_exponent()
        return _scaled_exp(
            self.model, [-e for e in exponent], row_den, den, divisor=2 ** len(self.odd)
        )

    def _sigma1_exponent(self) -> tuple[list[int], int, int]:
        if self.even:
            raise NotPurelyOdd(f"rank {self.rank} bundle has an even part")
        top = self.model.top_degree
        (odd,) = _power_sums(top, self.odd)
        row_den, row = _sigma1_row(top)
        return [u * m for u, m in zip(row, odd)], row_den, self.denominator

    # -- bundle operations ------------------------------------------------

    def dual(self) -> "SuperBundle":
        return SuperBundle(
            self.model,
            tuple([-n for n in self.even]),
            tuple([-n for n in self.odd]),
            self.denominator,
        )

    def pi_shift(self) -> "SuperBundle":
        """Parity shift: swaps the even and odd root lists."""
        return SuperBundle(self.model, self.odd, self.even, self.denominator)

    def direct_sum(self, other: "SuperBundle") -> "SuperBundle":
        den, a, b = self._common_denominator(other)
        return _reduced(
            self.model,
            [a * n for n in self.even] + [b * n for n in other.even],
            [a * n for n in self.odd] + [b * n for n in other.odd],
            den,
        )

    __add__ = direct_sum

    def tensor(self, other: "SuperBundle") -> "SuperBundle":
        """Pairwise root sums; matching parities are even, mixed are odd."""
        den, a, b = self._common_denominator(other)
        even = [a * x + b * y for x in self.even for y in other.even]
        even += [a * x + b * y for x in self.odd for y in other.odd]
        odd = [a * x + b * y for x in self.even for y in other.odd]
        odd += [a * x + b * y for x in self.odd for y in other.even]
        return _reduced(self.model, even, odd, den)

    def _common_denominator(self, other: "SuperBundle") -> tuple[int, int, int]:
        """The lcm of both denominators and the factors that bring each operand to it."""
        if self.model != other.model:
            raise ModelMismatch(f"{self.model} vs {other.model}")
        den = lcm(self.denominator, other.denominator)
        return den, den // self.denominator, den // other.denominator

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "even_roots": [str(d) for d in self.even_degs],
            "odd_roots": [str(d) for d in self.odd_degs],
        }

    @classmethod
    def from_json(cls, obj: dict, default_model: ChowModel | None = None) -> "SuperBundle":
        """Accepts the full root form or the curve shorthand with degree lists."""
        if "model" in obj:
            model = ChowModel.from_json(obj["model"])
        elif default_model is not None:
            model = default_model
        else:
            raise ValueError("bundle spec carries no model")
        if "even_degs" in obj or "odd_degs" in obj:
            return cls.from_degrees(model, obj.get("even_degs", []), obj.get("odd_degs", []))
        return cls.from_degrees(model, obj.get("even_roots", []), obj.get("odd_roots", []))

    def __str__(self) -> str:
        even = ",".join(str(d) for d in self.even_degs)
        odd = ",".join(str(d) for d in self.odd_degs)
        return f"bundle[{self.model}; even=({even}); odd=({odd})]"


# -- the boundary: exact degrees in, canonical numerators out -------------------


# Tuples of varying length are built from lists, never from generators:
# CPython builds a tuple from a generator by shrinking an over-allocated
# one, and when it dies it is kept on the free list of its final length,
# so every bundle rank would pin up to 2000 spare tuples (peak memory).


def _parse_degrees(model: ChowModel, values) -> list[Fraction]:
    """A list or tuple of exact degrees, read by parse_rational."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"root degrees must be given as a list, not {values!r}")
    degs = [parse_rational(v, "root degree") for v in values]
    if model.top_degree < 1 and any(degs):
        raise ValueError("nonzero root degree on a point model")
    return degs


def _reduced(model: ChowModel, even: list[int], odd: list[int], den: int) -> SuperBundle:
    """The bundle with numerators even, odd over den, divided by their common gcd."""
    common = gcd(den, *even, *odd)
    if common != 1:
        even = [n // common for n in even]
        odd = [n // common for n in odd]
        den //= common
    return SuperBundle(model, tuple(even), tuple(odd), den)


def _roots(model: ChowModel, degs: tuple[Fraction, ...]) -> tuple[GradedElement, ...]:
    if model.top_degree < 1:
        return tuple([GradedElement.zero(model) for _ in degs])
    return tuple([GradedElement.monomial(model, 1, d) for d in degs])


# -- rational series in the generator ---------------------------------------------


def _power_sums(top: int, *numerator_lists: Numerators) -> list[list[int]]:
    """Per list of degree numerators n_i, the integer power sums sum_i n_i**k for k = 0..top.

    Over the bundle's denominator D these are D**k * p_k of the degrees;
    p_0 is their count.
    """
    out = []
    for numerators in numerator_lists:
        sums = [len(numerators)]
        powers = numerators
        for k in range(1, top + 1):
            sums.append(sum(powers))
            if k < top:
                powers = [p * n for p, n in zip(powers, numerators)]
        out.append(sums)
    return out


def _over_factorials(
    model: ChowModel, plus: list[int], minus: list[int], den: int, divisor: int = 1
) -> GradedElement:
    """The element worth plus[k] / (divisor k! den**k) at P = +1 and minus[k] / (...) at P = -1."""
    # weights[k] = top!/k! * den**(top-k) puts every degree over top! * den**top
    weights = [1]
    for k in range(model.top_degree, 0, -1):
        weights.append(weights[-1] * k * den)
    weights.reverse()
    return GradedElement.from_split(
        model,
        [w * x for w, x in zip(weights, plus)],
        [w * x for w, x in zip(weights, minus)],
        weights[0] * divisor,
    )


def _scaled_exp(
    model: ChowModel,
    exponent: list[int],
    row_den: int,
    den: int,
    *,
    plus: int = 1,
    minus: int = 1,
    divisor: int = 1,
) -> GradedElement:
    """(plus at P = +1, minus at P = -1) / divisor * exp(g), in integers.

    The one place a class meets its P**s, 2**s or 2**-s factor.  The
    exponent has no constant term and is g_k = exponent[k] / (R * D**k),
    a cached row over R times power sums over D.  In y = x / D, g has
    coefficients G_j / R, so f = exp(g) is f_k = F_k / (k! (R D)**k) with
    F_0 = 1 and F_k = sum_j j G_j F_(k-j) R**(j-1) (k-1)!/(k-j)!: the
    recurrence k f_k = sum_j j g_j f_(k-j) cleared of denominators.
    """
    # weighted[j] = j G_j R**(j-1)
    weighted = [0]
    power = 1
    for j in range(1, len(exponent)):
        weighted.append(j * exponent[j] * power)
        power *= row_den
    series = [1]
    for k in range(1, len(exponent)):
        total = 0
        falling = 1  # (k-1)!/(k-j)!
        for j in range(1, k + 1):
            total += weighted[j] * series[k - j] * falling
            falling *= k - j
        series.append(total)
    return _over_factorials(
        model, [plus * f for f in series], [minus * f for f in series], row_den * den, divisor
    )


def _series_log(f: list[Fraction]) -> tuple[Fraction, ...]:
    """log of a series with constant term 1, truncated at len(f): the inverse of exp."""
    g = [Fraction(0)]
    for k in range(1, len(f)):
        g.append(f[k] - sum((j * g[j] * f[k - j] for j in range(1, k)), Fraction(0)) / k)
    return tuple(g)


def _over_common_denominator(row: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """A row of Fractions as its common denominator and integer numerators."""
    den = lcm(*[c.denominator for c in row])
    return den, tuple([c.numerator * (den // c.denominator) for c in row])


@lru_cache(maxsize=64)
def _log_one_plus_row(top: int) -> tuple[int, tuple[int, ...]]:
    """log(1 + x)."""
    row = _series_log([Fraction(1)] + [Fraction(int(k == 1)) for k in range(1, top + 1)])
    return _over_common_denominator(row)


@lru_cache(maxsize=64)
def _todd_rows(top: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """tau and upsilon over one common denominator.

    tau is log(x / (1 - e**-x)) = -log(sum_j (-x)**j / (j+1)!) and
    upsilon is log((1 + e**-x) / 2).
    """
    tau = [-c for c in _series_log([Fraction((-1) ** j, factorial(j + 1)) for j in range(top + 1)])]
    half_exp = [Fraction((-1) ** k, 2 * factorial(k)) for k in range(1, top + 1)]
    upsilon = _series_log([Fraction(1)] + half_exp)
    den, both = _over_common_denominator((*tau, *upsilon))
    return den, both[: top + 1], both[top + 1 :]


@lru_cache(maxsize=64)
def _sigma1_row(top: int) -> tuple[int, tuple[int, ...]]:
    """upsilon': log((1 + e**x) / 2)."""
    half_exp = [Fraction(1, 2 * factorial(k)) for k in range(1, top + 1)]
    return _over_common_denominator(_series_log([Fraction(1)] + half_exp))
