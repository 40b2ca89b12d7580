"""Exact arithmetic in the rank-2 coefficient ring Q[P], P**2 = 1.

SuperScalar is the boundary type of this package: the element
``body + P*soul`` with exact rational components, where P is the
parity-change involution.  Degrees, Euler characteristics and virtual
dimensions are SuperScalars, and so is every coefficient a graded class
hands out or serialises.  Because P**2 = 1 the ring splits into
two eigenlines spanned by the idempotents (1 + P)/2 and (1 - P)/2, so
the graded classes themselves are stored over Q x Q, by their values at
P = +1 and P = -1 (see chowring).  An element is invertible exactly when
body**2 != soul**2.  No floating point is used anywhere.

``parse_rational`` and ``parse_int`` are the one exact reader of numbers
that arrive from JSON, the command line or a library constructor: an
int or a ``"p/q"`` string is read exactly, and floats, bools, nulls and
anything else are refused with ValueError rather than rounded.  Each
integer in text passes ``is_int_text``: an optional sign, ASCII digits.
``require_key`` reads a required JSON key, and names it when it is
missing; ``check_keys`` refuses, and names, a key that a JSON object
should not carry, so a misspelt key is never read as its default.
Inside the program, the ring operations take a SuperScalar, an int or a
Fraction operand; ``coerce`` refuses a bool, like any other non-number,
with TypeError.

``Value``, the base of every record type in the package, lives here, in
the lowest layer.  A subclass names its fields in ``__slots__`` and sets
them once in ``__init__`` with ``set_field``; the base supplies ==, hash,
repr, copying and pickling over those fields and refuses any later
assignment.  Plain slotted classes generate no code at import, which
keeps the package's start-up cheap.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter


class NotInvertible(ArithmeticError):
    """Inversion of a zero divisor of Q[P] (body**2 == soul**2)."""


# sets a field of a Value inside its __init__, past the refusing __setattr__
set_field = object.__setattr__


class Value:
    """An immutable record whose fields are its ``__slots__``, in order.

    Two values are equal when they have the same class and equal fields,
    equal values hash equal, and repr lists the fields as
    ``Name(field=value, ...)``.  Assigning or deleting an attribute
    raises AttributeError.  Copies and pickles are rebuilt by calling the
    class with the fields positionally, so ``__init__`` takes them in
    that order.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the fields, read in C, for == and hash: a tuple, or the value of a lone field
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {self.__class__.__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is immutable")


class SuperScalar(Value):
    """Element body + P*soul of Q[P] with P**2 = 1."""

    __slots__ = ("body", "soul")

    def __init__(self, body: Fraction, soul: Fraction = Fraction(0)) -> None:
        set_field(self, "body", body if type(body) is Fraction else parse_rational(body, "body"))
        set_field(self, "soul", soul if type(soul) is Fraction else parse_rational(soul, "soul"))

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "SuperScalar | int | Fraction") -> "SuperScalar":
        other = coerce(other)
        return SuperScalar(self.body + other.body, self.soul + other.soul)

    __radd__ = __add__

    def __sub__(self, other: "SuperScalar | int | Fraction") -> "SuperScalar":
        other = coerce(other)
        return SuperScalar(self.body - other.body, self.soul - other.soul)

    def __rsub__(self, other: "SuperScalar | int | Fraction") -> "SuperScalar":
        return coerce(other) - self

    def __neg__(self) -> "SuperScalar":
        return SuperScalar(-self.body, -self.soul)

    def __mul__(self, other: "SuperScalar | int | Fraction") -> "SuperScalar":
        # (a + P b)(a' + P b') = (aa' + bb') + P (ab' + a'b)
        other = coerce(other)
        a, b = self.body, self.soul
        c, d = other.body, other.soul
        return SuperScalar(a * c + b * d, a * d + b * c)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.body) or bool(self.soul)

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
        return cls(obj.get("body", 0), obj.get("soul", 0))


def is_int_text(text: str) -> bool:
    """True when text is an optional + or - sign, then one or more ASCII digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isdigit() and digits.isascii()


def parse_rational(value, what: str = "value") -> Fraction:
    """An int, a Fraction or a "p/q" string, read exactly; nothing else."""
    if type(value) is Fraction:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        numerator, slash, denominator = value.partition("/")
        unsigned_denominator = not slash or denominator.isdigit() and denominator.isascii()
        if is_int_text(numerator) and unsigned_denominator:
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


def coerce(value: "SuperScalar | int | Fraction") -> SuperScalar:
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
