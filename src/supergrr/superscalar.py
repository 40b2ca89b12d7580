"""Exact arithmetic in the rank-2 coefficient ring Q[P], P**2 = 1.

SuperScalar is the boundary type of this package: the element
``body + P*soul`` with exact rational components, where P is the
parity-change involution.  Degrees, Euler characteristics and virtual
dimensions are SuperScalars, and so is every coefficient a graded class
hands out, prints or serialises.  Because P**2 = 1 the ring splits into
two eigenlines spanned by the idempotents (1 + P)/2 and (1 - P)/2, so
the graded classes themselves are stored over Q x Q, by their values at
P = +1 and P = -1 (see chowring).  An element is invertible exactly when
body**2 != soul**2.  No floating point is used anywhere.

``parse_rational`` and ``parse_int`` are the one exact reader of numbers
that arrive from JSON, the command line or a library constructor: an
int or a ``"p/q"`` string is read exactly, and floats, bools, nulls and
anything else are refused with ValueError rather than rounded.
``require_key`` reads a required JSON key, and names it when it is
missing; ``check_keys`` refuses, and names, a key that a JSON object
should not carry, so a misspelt key is never read as its default.
Inside the program, the ring operations take a SuperScalar, an int or a
Fraction operand; ``coerce`` refuses a bool, like any other non-number,
with TypeError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class NotInvertible(ArithmeticError):
    """Inversion of a zero divisor of Q[P] (body**2 == soul**2)."""


@dataclass(frozen=True, slots=True)
class SuperScalar:
    """Element body + P*soul of Q[P] with P**2 = 1."""

    body: Fraction
    soul: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if type(self.body) is not Fraction:
            object.__setattr__(self, "body", parse_rational(self.body, "body"))
        if type(self.soul) is not Fraction:
            object.__setattr__(self, "soul", parse_rational(self.soul, "soul"))

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "SuperScalar | RationalLike") -> "SuperScalar":
        other = coerce(other)
        return SuperScalar(self.body + other.body, self.soul + other.soul)

    __radd__ = __add__

    def __sub__(self, other: "SuperScalar | RationalLike") -> "SuperScalar":
        other = coerce(other)
        return SuperScalar(self.body - other.body, self.soul - other.soul)

    def __rsub__(self, other: "SuperScalar | RationalLike") -> "SuperScalar":
        return coerce(other) - self

    def __neg__(self) -> "SuperScalar":
        return SuperScalar(-self.body, -self.soul)

    def __mul__(self, other: "SuperScalar | RationalLike") -> "SuperScalar":
        # (a + P b)(a' + P b') = (aa' + bb') + P (ab' + a'b)
        other = coerce(other)
        a, b = self.body, self.soul
        c, d = other.body, other.soul
        return SuperScalar(a * c + b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other: "SuperScalar | RationalLike") -> "SuperScalar":
        return self * coerce(other).invert()

    def __bool__(self) -> bool:
        return bool(self.body) or bool(self.soul)

    @property
    def is_invertible(self) -> bool:
        return self.body * self.body != self.soul * self.soul

    def invert(self) -> "SuperScalar":
        """Multiplicative inverse (a - P b) / (a**2 - b**2).

        Raises NotInvertible on the zero divisors, e.g. 1 - P, since
        (1 - P)(1 + P) = 0.
        """
        norm = self.body * self.body - self.soul * self.soul
        if not norm:
            raise NotInvertible(f"{self} is not invertible in Q[P]")
        return SuperScalar(self.body / norm, -self.soul / norm)

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self.soul:
            return str(self.body)
        mag = abs(self.soul)
        if mag == 1:
            p_part = "P"
        elif mag.denominator == 1:
            p_part = f"{mag}*P"
        else:
            p_part = f"({mag})*P"
        sign = "-" if self.soul < 0 else "+"
        if not self.body:
            return p_part if sign == "+" else f"-{p_part}"
        return f"{self.body} {sign} {p_part}"

    def to_json(self) -> dict:
        return {"body": str(self.body), "soul": str(self.soul)}

    @classmethod
    def from_json(cls, obj: dict) -> "SuperScalar":
        check_keys(obj, ("body", "soul"), "scalar")
        return cls(
            parse_rational(obj.get("body", 0), "body"),
            parse_rational(obj.get("soul", 0), "soul"),
        )


_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(value, what: str = "value") -> Fraction:
    """An int, a Fraction or a "p/q" string, read exactly; nothing else."""
    if type(value) is Fraction:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_TEXT.fullmatch(value):
        numerator, _, denominator = value.partition("/")
        if denominator and not int(denominator):
            raise ValueError(f"{what} {value!r} has a zero denominator")
        return Fraction(int(numerator), int(denominator or 1))
    raise ValueError(f"{what} must be an int or a 'p/q' string, not {value!r}")


def parse_int(value, what: str = "value") -> int:
    """An int, exactly; bools, floats and strings are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, not {value!r}")


def require_key(obj: dict, key: str, where: str):
    """obj[key], or a ValueError naming the key that ``where`` lacks."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, not {obj!r}")
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"missing key {key!r} in {where}") from None


def check_keys(obj: dict, known: tuple[str, ...], where: str) -> None:
    """A ValueError naming the first key of obj that ``where`` does not know."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, not {obj!r}")
    for key in obj:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {where}")


def coerce(value: "SuperScalar | RationalLike") -> SuperScalar:
    if isinstance(value, SuperScalar):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return SuperScalar(Fraction(value))
    raise TypeError(f"cannot coerce {type(value).__name__} to SuperScalar")


ZERO = SuperScalar(Fraction(0))
ONE = SuperScalar(Fraction(1))
PI = SuperScalar(Fraction(0), Fraction(1))


def pi_power(exponent: int) -> SuperScalar:
    """P**n, which is 1 for even n and P for odd n."""
    return PI if exponent % 2 else ONE
