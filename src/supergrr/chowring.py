"""Truncated graded rings with Q[P] coefficients, computed over Q x Q.

Three models cover everything downstream: a point, a smooth projective
curve of genus g (basis 1, w with w**2 = 0 and integral(w) = 1), and a
projective space of dimension r (basis 1, h, ..., h**r with h**(r+1) = 0
and integral(h**r) = 1).  Products silently truncate above the top
degree, which is exact rather than approximate since those classes
vanish.

Since P**2 = 1, the idempotents (1 + P)/2 and (1 - P)/2 split Q[P] as
Q x Q, so an element is stored as two plain rational coefficient vectors:
its values at P = +1 and at P = -1.  Both are kept as integer numerators
over one shared positive denominator, reduced so that the gcd of all
numerators and the denominator is 1.  That form is canonical, so == and
hash compare it field by field; the product is two integer convolutions
and one gcd reduction.  The SuperScalar coefficient of degree k,
body = (x+ + x-)/2 and soul = (x+ - x-)/2, is rebuilt only at the
boundary (coeffs, coefficient, integrate, str and JSON).  A coefficient
is a zero divisor of Q[P] exactly when one of its two values vanishes.

All stored classes are even-degree cohomological objects with Q[P]
coefficients, so the ring is genuinely commutative: no Koszul signs
arise in these models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .superscalar import ZERO, SuperScalar, coerce, parse_int, require_key

CoeffLike = Union[SuperScalar, int, Fraction]


class ModelMismatch(ValueError):
    """Operands live over different base models."""


class NotNilpotent(ValueError):
    """exp requires a vanishing degree-0 coefficient."""


_KINDS = ("point", "curve", "projspace")


@dataclass(frozen=True, slots=True)
class ChowModel:
    """Base variety selector: point, curve of genus g, or P^r."""

    kind: str
    genus: int = 0
    dim: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "curve" and self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if self.kind == "projspace" and self.dim < 1:
            raise ValueError("projective dimension must be positive")

    @classmethod
    def point(cls) -> "ChowModel":
        return cls("point")

    @classmethod
    def curve(cls, genus: int) -> "ChowModel":
        return cls("curve", genus=genus)

    @classmethod
    def proj_space(cls, dim: int) -> "ChowModel":
        return cls("projspace", dim=dim)

    @property
    def top_degree(self) -> int:
        if self.kind == "point":
            return 0
        if self.kind == "curve":
            return 1
        return self.dim

    @property
    def generator_name(self) -> str:
        return "w" if self.kind == "curve" else "h"

    def __str__(self) -> str:
        if self.kind == "point":
            return "point"
        if self.kind == "curve":
            return f"curve(g={self.genus})"
        return f"P^{self.dim}"

    def to_json(self) -> dict:
        if self.kind == "point":
            return {"kind": "point"}
        if self.kind == "curve":
            return {"kind": "curve", "genus": self.genus}
        return {"kind": "projspace", "r": self.dim}

    @classmethod
    def from_json(cls, obj: dict) -> "ChowModel":
        if not isinstance(obj, dict):
            raise ValueError(f"a model is a JSON object with a kind, not {obj!r}")
        kind = obj.get("kind")
        if kind == "point":
            return cls.point()
        if kind == "curve":
            return cls.curve(parse_int(require_key(obj, "genus", "model"), "genus"))
        if kind == "projspace":
            return cls.proj_space(parse_int(require_key(obj, "r", "model"), "r"))
        raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True, slots=True)
class GradedElement:
    """Ring element stored by its values at P = +1 and P = -1.

    The degree-k coefficient is plus[k] / denominator at P = +1 and
    minus[k] / denominator at P = -1, with integer numerators, one per
    degree 0..top, and denominator > 0 sharing no factor with all of
    them.  Build elements with from_coeffs, from_split or the named
    constructors, which reduce to that canonical form.
    """

    model: ChowModel
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    denominator: int

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_split(
        cls,
        model: ChowModel,
        plus: Sequence[int],
        minus: Sequence[int],
        denominator: int = 1,
    ) -> "GradedElement":
        """The element with integer numerators plus and minus over denominator, reduced."""
        width = model.top_degree + 1
        if len(plus) != width or len(minus) != width:
            raise ValueError(f"{model} needs {width} numerators per component")
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        common = gcd(denominator, *plus, *minus)
        if common != 1:
            plus = [x // common for x in plus]
            minus = [x // common for x in minus]
            denominator //= common
        # tuples are built from lists, not generators: see the note on
        # tuple free lists in superbundle
        return cls(model, tuple(plus), tuple(minus), denominator)

    @classmethod
    def from_coeffs(cls, model: ChowModel, coeffs: Iterable[CoeffLike]) -> "GradedElement":
        """The element with the given per-degree coefficients, padded with zeros."""
        values = [coerce(c) for c in coeffs]
        width = model.top_degree + 1
        if len(values) > width:
            raise ValueError(f"{len(values)} coefficients exceed top degree {width - 1}")
        values += [ZERO] * (width - len(values))
        return cls.from_split(model, *_split(values))

    @classmethod
    def zero(cls, model: ChowModel) -> "GradedElement":
        return cls.from_coeffs(model, ())

    @classmethod
    def one(cls, model: ChowModel) -> "GradedElement":
        return cls.from_coeffs(model, (1,))

    @classmethod
    def scalar(cls, model: ChowModel, value: CoeffLike) -> "GradedElement":
        return cls.from_coeffs(model, (value,))

    @classmethod
    def monomial(cls, model: ChowModel, degree: int, value: CoeffLike = 1) -> "GradedElement":
        if not 0 <= degree <= model.top_degree:
            raise ValueError(f"degree {degree} out of range for {model}")
        return cls.from_coeffs(model, [0] * degree + [value])

    @classmethod
    def generator(cls, model: ChowModel) -> "GradedElement":
        """The degree-1 generator w (curve) or h (projective space)."""
        if model.top_degree < 1:
            raise ValueError("a point has no positive-degree generator")
        return cls.monomial(model, 1)

    # -- accessors --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[SuperScalar, ...]:
        """The SuperScalar coefficients of degrees 0..top, rebuilt from the split form."""
        return tuple([self.coefficient(k) for k in range(len(self.plus))])

    def coefficient(self, degree: int) -> SuperScalar:
        if not 0 <= degree < len(self.plus):
            return ZERO
        plus, minus = self.plus[degree], self.minus[degree]
        twice = 2 * self.denominator
        return SuperScalar(Fraction(plus + minus, twice), Fraction(plus - minus, twice))

    def __bool__(self) -> bool:
        return any(self.plus) or any(self.minus)

    # -- ring structure ---------------------------------------------------

    def _check_model(self, other: "GradedElement") -> None:
        if self.model != other.model:
            raise ModelMismatch(f"{self.model} vs {other.model}")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._check_model(other)
        denominator = lcm(self.denominator, other.denominator)
        a = denominator // self.denominator
        b = denominator // other.denominator
        return GradedElement.from_split(
            self.model,
            [a * x + b * y for x, y in zip(self.plus, other.plus)],
            [a * x + b * y for x, y in zip(self.minus, other.minus)],
            denominator,
        )

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + -other

    def __neg__(self) -> "GradedElement":
        return GradedElement.from_split(
            self.model, [-x for x in self.plus], [-x for x in self.minus], self.denominator
        )

    def ring_mul(self, other: "GradedElement") -> "GradedElement":
        """Product in the truncated ring: one convolution per component."""
        self._check_model(other)
        return GradedElement.from_split(
            self.model,
            _convolve(self.plus, other.plus),
            _convolve(self.minus, other.minus),
            self.denominator * other.denominator,
        )

    def scale(self, value: CoeffLike) -> "GradedElement":
        (p,), (m,), denominator = _split([coerce(value)])
        return GradedElement.from_split(
            self.model,
            [p * x for x in self.plus],
            [m * x for x in self.minus],
            self.denominator * denominator,
        )

    def __mul__(self, other: "GradedElement | CoeffLike") -> "GradedElement":
        if isinstance(other, GradedElement):
            return self.ring_mul(other)
        return self.scale(other)

    def __rmul__(self, other: CoeffLike) -> "GradedElement":
        return self.scale(other)

    def series_invert(self) -> "GradedElement":
        """Multiplicative inverse by a truncated geometric series.

        Requires an invertible degree-0 coefficient; NotInvertible
        propagates from Q[P] otherwise.  With u = 1 - x/x_0 strictly of
        positive degree, x**-1 = (1 + u + u**2 + ...) / x_0 exactly,
        since u**(top+1) truncates to zero.
        """
        lead_inv = self.coefficient(0).invert()
        one = GradedElement.one(self.model)
        u = one - self.scale(lead_inv)
        acc = one
        power = one
        for _ in range(self.model.top_degree):
            power = power.ring_mul(u)
            acc = acc + power
        return acc.scale(lead_inv)

    def exp_nilpotent(self) -> "GradedElement":
        """exp of a strictly positive-degree (hence nilpotent) element."""
        if self.plus[0] or self.minus[0]:
            raise NotNilpotent(f"degree-0 coefficient {self.coefficient(0)} is nonzero")
        result = GradedElement.one(self.model)
        term = result
        for k in range(1, self.model.top_degree + 1):
            term = term.ring_mul(self).scale(Fraction(1, k))
            result = result + term
        return result

    def integrate(self) -> SuperScalar:
        """Pushforward to a point: the top-degree coefficient."""
        return self.coefficient(self.model.top_degree)

    # -- rendering / serialization -----------------------------------------

    def __str__(self) -> str:
        gen = self.model.generator_name if self.model.top_degree else ""
        out = ""
        for degree, c in enumerate(self.coeffs):
            if not c:
                continue
            sign = "-" if (not c.soul and c.body < 0) else "+"
            txt = str(-c if sign == "-" else c)
            if c.soul or "/" in txt:
                txt = f"({txt})"
            if degree > 0:
                power = gen if degree == 1 else f"{gen}^{degree}"
                txt = power if txt == "1" else f"{txt}*{power}"
            if not out:
                out = txt if sign == "+" else f"-{txt}"
            else:
                out += f" {sign} {txt}"
        return out or "0"

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GradedElement":
        model = ChowModel.from_json(obj["model"])
        return cls.from_coeffs(model, [SuperScalar.from_json(c) for c in obj["coeffs"]])


def _split(values: list[SuperScalar]) -> tuple[list[int], list[int], int]:
    """The values body +- soul at P = +-1, as integer numerators over the lcm of all parts."""
    denominator = lcm(*[c.body.denominator for c in values], *[c.soul.denominator for c in values])
    plus, minus = [], []
    for c in values:
        body = c.body.numerator * (denominator // c.body.denominator)
        soul = c.soul.numerator * (denominator // c.soul.denominator)
        plus.append(body + soul)
        minus.append(body - soul)
    return plus, minus, denominator


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Truncated product of two integer coefficient vectors of one length."""
    # degree k pairs a[i] with b[k - i]: zip stops at the k + 1 entries of the reversed tail
    reverse = b[::-1]
    last = len(b) - 1
    return [sum(map(mul, a, reverse[last - k :])) for k in range(len(a))]
