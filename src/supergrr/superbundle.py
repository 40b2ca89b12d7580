"""Super vector bundles presented by the degrees of their formal Chern roots.

A bundle of rank r|s over a model with generator x (w on a curve, h on
P^n) is stored as the rational degrees a_1..a_r of its even Chern roots
a_i*x and the degrees m_1..m_s of the bosonic roots m_j*x of the parity
shift of its odd part.  By the splitting principle this loses no
generality for characteristic-class identities.

Every class below is a function of the power sums p_k(a) = sum_i a_i**k
and p_k(m), computed in plain rational arithmetic up to the top degree;
the P factor is applied once, at the end:

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
row is computed from its own defining series and cached per top degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Sequence

from .chowring import ChowModel, GradedElement, ModelMismatch
from .superscalar import SuperScalar, pi_power

Degrees = tuple[Fraction, ...]

_DEGREE_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


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

    The positional form ``SuperBundle(model, even, odd)`` also accepts
    degree-1 ``GradedElement`` roots; they are validated and reduced to
    their degrees here, once.
    """

    model: ChowModel
    even_degs: Degrees
    odd_degs: Degrees

    def __post_init__(self) -> None:
        object.__setattr__(self, "even_degs", _degrees(self.model, self.even_degs))
        object.__setattr__(self, "odd_degs", _degrees(self.model, self.odd_degs))

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
        return cls(model, even_degs, odd_degs)

    @classmethod
    def zero(cls, model: ChowModel) -> "SuperBundle":
        return cls(model, (), ())

    @property
    def rank(self) -> tuple[int, int]:
        return (len(self.even_degs), len(self.odd_degs))

    @property
    def even_roots(self) -> tuple[GradedElement, ...]:
        return _roots(self.model, self.even_degs)

    @property
    def odd_roots(self) -> tuple[GradedElement, ...]:
        return _roots(self.model, self.odd_degs)

    # -- characteristic classes -----------------------------------------

    def chern_character(self) -> GradedElement:
        """ch_k(E) = (p_k(a) - P * p_k(m)) / k!."""
        top = self.model.top_degree
        even = _power_sums(self.even_degs, top)
        odd = _power_sums(self.odd_degs, top)
        factorials = _inverse_factorials(top)
        return GradedElement.from_coeffs(
            self.model, [SuperScalar(a * f, -m * f) for a, m, f in zip(even, odd, factorials)]
        )

    def chern_total(self) -> GradedElement:
        """Total Chern class P**s * prod(1 + a_i) * prod(1 + m_j)**-1."""
        top = self.model.top_degree
        row = _log_one_plus_row(top)
        even = _power_sums(self.even_degs, top)
        odd = _power_sums(self.odd_degs, top)
        exponent = [c * (a - m) for c, a, m in zip(row, even, odd)]
        return _scaled_exp(self.model, pi_power(len(self.odd_degs)), exponent)

    def chern_class(self, degree: int) -> SuperScalar:
        """Coefficient of c_degree(E) on the degree generator."""
        return self.chern_total().coefficient(degree)

    def c1(self) -> SuperScalar:
        return self.chern_class(1)

    def todd(self) -> GradedElement:
        """Multiplicative Todd character, 2**s * exp(tau . p(a) + upsilon . p(m))."""
        top = self.model.top_degree
        tau, upsilon = _todd_even_row(top), _todd_odd_row(top)
        even = _power_sums(self.even_degs, top)
        odd = _power_sums(self.odd_degs, top)
        exponent = [t * a + u * m for t, u, a, m in zip(tau, upsilon, even, odd)]
        return _scaled_exp(self.model, SuperScalar(2 ** len(self.odd_degs)), exponent)

    def sigma1(self) -> GradedElement:
        """prod_j (1 + e**m_j); the class of O + P*Sym^1 on each odd line."""
        scale = SuperScalar(2 ** len(self.odd_degs))
        return _scaled_exp(self.model, scale, self._sigma1_exponent())

    def sigma1_inverse(self) -> GradedElement:
        """sigma1()**-1: the exponent negated, divided by 2**s."""
        scale = SuperScalar(Fraction(1, 2 ** len(self.odd_degs)))
        return _scaled_exp(self.model, scale, [-e for e in self._sigma1_exponent()])

    def _sigma1_exponent(self) -> list[Fraction]:
        if self.even_degs:
            raise NotPurelyOdd(f"rank {self.rank} bundle has an even part")
        top = self.model.top_degree
        odd = _power_sums(self.odd_degs, top)
        return [u * m for u, m in zip(_sigma1_row(top), odd)]

    # -- bundle operations ------------------------------------------------

    def dual(self) -> "SuperBundle":
        return SuperBundle(
            self.model,
            tuple([-d for d in self.even_degs]),
            tuple([-d for d in self.odd_degs]),
        )

    def pi_shift(self) -> "SuperBundle":
        """Parity shift: swaps the even and odd root lists."""
        return SuperBundle(self.model, self.odd_degs, self.even_degs)

    def direct_sum(self, other: "SuperBundle") -> "SuperBundle":
        if self.model != other.model:
            raise ModelMismatch(f"{self.model} vs {other.model}")
        return SuperBundle(
            self.model,
            self.even_degs + other.even_degs,
            self.odd_degs + other.odd_degs,
        )

    __add__ = direct_sum

    def tensor(self, other: "SuperBundle") -> "SuperBundle":
        """Pairwise root sums; matching parities are even, mixed are odd."""
        if self.model != other.model:
            raise ModelMismatch(f"{self.model} vs {other.model}")
        even = (
            *(a + b for a in self.even_degs for b in other.even_degs),
            *(m + n for m in self.odd_degs for n in other.odd_degs),
        )
        odd = (
            *(a + n for a in self.even_degs for n in other.odd_degs),
            *(m + b for m in self.odd_degs for b in other.even_degs),
        )
        return SuperBundle(self.model, even, odd)

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
            return cls(model, obj.get("even_degs", []), obj.get("odd_degs", []))
        return cls(model, obj.get("even_roots", []), obj.get("odd_roots", []))

    def __str__(self) -> str:
        even = ",".join(str(d) for d in self.even_degs)
        odd = ",".join(str(d) for d in self.odd_degs)
        return f"bundle[{self.model}; even=({even}); odd=({odd})]"


# -- the boundary: exact degrees and validated roots ----------------------------


# Tuples of varying length are built from lists, never from generators:
# CPython builds a tuple from a generator by shrinking an over-allocated
# one, and when it dies it is kept on the free list of its final length,
# so every bundle rank would pin up to 2000 spare tuples (peak memory).


def _degrees(model: ChowModel, values) -> Degrees:
    """Degree tuple from a list of exact degrees or degree-1 roots."""
    if type(values) is tuple and all(type(v) is Fraction for v in values):
        # the bundle operations pass their results on without a copy
        degs = values
    elif not isinstance(values, (list, tuple)):
        raise ValueError(f"root degrees must be given as a list, not {values!r}")
    else:
        degs = tuple(
            [
                _root_to_degree(model, v) if isinstance(v, GradedElement) else _parse_degree(v)
                for v in values
            ]
        )
    if model.top_degree < 1 and any(degs):
        raise ValueError("nonzero root degree on a point model")
    return degs


def _parse_degree(value) -> Fraction:
    """An int, a Fraction or a "p/q" string, read exactly; nothing else."""
    if type(value) is Fraction:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _DEGREE_TEXT.fullmatch(value):
        numerator, _, denominator = value.partition("/")
        if denominator and not int(denominator):
            raise ValueError(f"root degree {value!r} has a zero denominator")
        return Fraction(int(numerator), int(denominator or 1))
    raise ValueError(f"a root degree is an int or a 'p/q' string, not {value!r}")


def _root_to_degree(model: ChowModel, root: GradedElement) -> Fraction:
    if root.model != model:
        raise ModelMismatch(f"root lives on {root.model}, bundle on {model}")
    if root.coeffs[0] or any(root.coeffs[2:]):
        raise ValueError("roots must be homogeneous of degree 1")
    if model.top_degree >= 1 and root.coeffs[1].soul:
        raise ValueError("roots must have soul-free coefficients")
    return root_degree(root)


def _roots(model: ChowModel, degs: Degrees) -> tuple[GradedElement, ...]:
    if model.top_degree < 1:
        return tuple([GradedElement.zero(model) for _ in degs])
    return tuple([GradedElement.monomial(model, 1, d) for d in degs])


# -- rational series in the generator ---------------------------------------------


def _power_sums(degs: Degrees, top: int) -> list[Fraction]:
    """p_0 .. p_top of the degrees, p_0 being their count.

    The degrees are put over a common denominator, so the sums are taken
    in integer arithmetic and each p_k is reduced once.
    """
    denominator = lcm(*[d.denominator for d in degs])
    numerators = [d.numerator * (denominator // d.denominator) for d in degs]
    sums = [Fraction(len(degs))]
    powers = numerators
    for k in range(1, top + 1):
        sums.append(Fraction(sum(powers), denominator**k))
        if k < top:
            powers = [p * n for p, n in zip(powers, numerators)]
    return sums


def _scaled_exp(model: ChowModel, scale: SuperScalar, exponent: list[Fraction]) -> GradedElement:
    """scale * exp(exponent): the one place a class meets its P or 2**s factor."""
    return GradedElement.from_coeffs(model, [scale * c for c in _series_exp(exponent)])


def _series_exp(g: list[Fraction]) -> list[Fraction]:
    """exp of a series with no constant term, truncated at len(g): k f_k = sum_j j g_j f_(k-j)."""
    weighted = [j * c for j, c in enumerate(g)]
    f = [Fraction(1)]
    for k in range(1, len(g)):
        f.append(sum(weighted[j] * f[k - j] for j in range(1, k + 1)) / k)
    return f


def _series_log(f: list[Fraction]) -> tuple[Fraction, ...]:
    """log of a series with constant term 1, truncated at len(f): the inverse of _series_exp."""
    g = [Fraction(0)]
    for k in range(1, len(f)):
        g.append(f[k] - sum((j * g[j] * f[k - j] for j in range(1, k)), Fraction(0)) / k)
    return tuple(g)


@lru_cache(maxsize=64)
def _inverse_factorials(top: int) -> tuple[Fraction, ...]:
    return tuple([Fraction(1, factorial(k)) for k in range(top + 1)])


@lru_cache(maxsize=64)
def _log_one_plus_row(top: int) -> tuple[Fraction, ...]:
    """log(1 + x)."""
    return _series_log([Fraction(1)] + [Fraction(int(k == 1)) for k in range(1, top + 1)])


@lru_cache(maxsize=64)
def _todd_even_row(top: int) -> tuple[Fraction, ...]:
    """tau: log(x / (1 - e**-x)) = -log(sum_j (-x)**j / (j+1)!)."""
    row = _series_log([Fraction((-1) ** j, factorial(j + 1)) for j in range(top + 1)])
    return tuple([-c for c in row])


@lru_cache(maxsize=64)
def _todd_odd_row(top: int) -> tuple[Fraction, ...]:
    """upsilon: log((1 + e**-x) / 2)."""
    half_exp = [Fraction((-1) ** k, 2 * factorial(k)) for k in range(1, top + 1)]
    return _series_log([Fraction(1)] + half_exp)


@lru_cache(maxsize=64)
def _sigma1_row(top: int) -> tuple[Fraction, ...]:
    """upsilon': log((1 + e**x) / 2)."""
    half_exp = [Fraction(1, 2 * factorial(k)) for k in range(1, top + 1)]
    return _series_log([Fraction(1)] + half_exp)
