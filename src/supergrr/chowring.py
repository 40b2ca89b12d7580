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
hash compare it field by field; the product is one pass over the degree
pairs i + j <= top that fills both components, then one gcd reduction.
The SuperScalar coefficient of degree k, body = (x+ + x-)/2 and
soul = (x+ - x-)/2, is rebuilt only at the boundary (coeffs,
coefficient, integrate, integrate_product and JSON).
A coefficient is a zero divisor of Q[P] exactly when one of its two
values vanishes.

That integer form has one home, shared with superbundle and grr:
common_denominator puts Fractions over their least common denominator,
lowest_terms divides two integer vectors and their denominator by
their common gcd, check_model refuses operands over different models,
and align brings two operands to the lcm of their denominators.

All stored classes are even-degree cohomological objects with Q[P]
coefficients, so the ring is genuinely commutative: no Koszul signs
arise in these models.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .superscalar import (
    ZERO,
    SuperScalar,
    Value,
    check_keys,
    coerce,
    parse_int,
    require_key,
    set_field,
)


class ModelMismatch(ValueError):
    """Operands live over different base models."""


class NotNilpotent(ValueError):
    """exp requires a vanishing degree-0 coefficient."""


# the JSON keys of each model kind
_KINDS = {"point": ("kind",), "curve": ("kind", "genus"), "projspace": ("kind", "r")}


class ChowModel(Value):
    """Base variety selector: point, curve of genus g, or P^r.

    A kind uses at most one size, genus for a curve and dim for P^r; the
    size it does not use must be 0.  The named constructors point, curve
    and proj_space hand out one shared instance per size, so models
    built the same way are usually identical, not merely equal.
    """

    __slots__ = ("kind", "genus", "dim")

    def __init__(self, kind: str, genus: int = 0, dim: int = 0) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        genus, dim = parse_int(genus, "genus"), parse_int(dim, "dim")
        if kind == "curve" and genus < 0:
            raise ValueError("genus must be nonnegative")
        if kind == "projspace" and dim < 1:
            raise ValueError("projective dimension must be positive")
        if dim and kind != "projspace":
            raise ValueError(f"a {kind} model has no dim, got {dim}")
        if genus and kind != "curve":
            raise ValueError(f"a {kind} model has no genus, got {genus}")
        set_field(self, "kind", kind)
        set_field(self, "genus", genus)
        set_field(self, "dim", dim)

    @staticmethod
    def point() -> "ChowModel":
        return _shared_model("point", 0, 0)

    @staticmethod
    def curve(genus: int) -> "ChowModel":
        return _shared_model("curve", parse_int(genus, "genus"), 0)

    @staticmethod
    def proj_space(dim: int) -> "ChowModel":
        return _shared_model("projspace", 0, parse_int(dim, "dim"))

    @property
    def top_degree(self) -> int:
        if self.kind == "point":
            return 0
        if self.kind == "curve":
            return 1
        return self.dim

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
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        check_keys(obj, _KINDS[kind], "model")
        if kind == "point":
            return cls.point()
        if kind == "curve":
            return cls.curve(parse_int(require_key(obj, "genus", "model"), "genus"))
        return cls.proj_space(parse_int(require_key(obj, "r", "model"), "r"))


# keyed on sizes already read by parse_int, so True or 1.0 never finds the model of 1
_shared_model = lru_cache(maxsize=256)(ChowModel)


class GradedElement(Value):
    """Ring element stored by its values at P = +1 and P = -1.

    The degree-k coefficient is plus[k] / denominator at P = +1 and
    minus[k] / denominator at P = -1, with integer numerators, one per
    degree 0..top, and denominator > 0 sharing no factor with all of
    them.  Build elements with from_coeffs or the named constructors,
    which reduce to that canonical form.
    """

    __slots__ = ("model", "plus", "minus", "denominator")

    def __init__(
        self, model: ChowModel, plus: tuple[int, ...], minus: tuple[int, ...], denominator: int
    ) -> None:
        set_field(self, "model", model)
        set_field(self, "plus", plus)
        set_field(self, "minus", minus)
        set_field(self, "denominator", denominator)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_coeffs(
        cls, model: ChowModel, coeffs: Iterable[SuperScalar | int | Fraction]
    ) -> "GradedElement":
        """The element with the given per-degree coefficients, padded with zeros."""
        values = [coerce(c) for c in coeffs]
        width = model.top_degree + 1
        if len(values) > width:
            raise ValueError(f"{len(values)} coefficients exceed top degree {width - 1}")
        values += [ZERO] * (width - len(values))
        return cls(model, *lowest_terms(*_split(values)))

    @classmethod
    def zero(cls, model: ChowModel) -> "GradedElement":
        return cls.from_coeffs(model, ())

    @classmethod
    def one(cls, model: ChowModel) -> "GradedElement":
        return cls.from_coeffs(model, (1,))

    # -- accessors --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[SuperScalar, ...]:
        """The SuperScalar coefficients of degrees 0..top, rebuilt from the split form."""
        return tuple([self.coefficient(k) for k in range(len(self.plus))])

    def coefficient(self, degree: int) -> SuperScalar:
        if not 0 <= degree < len(self.plus):
            return ZERO
        return _scalar(self.plus[degree], self.minus[degree], self.denominator)

    def __bool__(self) -> bool:
        return any(self.plus) or any(self.minus)

    # -- ring structure ---------------------------------------------------

    def __add__(self, other: "GradedElement") -> "GradedElement":
        denominator, a, b = align(self, other)
        return GradedElement(
            self.model,
            *lowest_terms(
                [a * x + b * y for x, y in zip(self.plus, other.plus)],
                [a * x + b * y for x, y in zip(self.minus, other.minus)],
                denominator,
            ),
        )

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + -other

    def __neg__(self) -> "GradedElement":
        return GradedElement(
            self.model,
            tuple([-x for x in self.plus]),
            tuple([-x for x in self.minus]),
            self.denominator,
        )

    def ring_mul(self, other: "GradedElement") -> "GradedElement":
        """Product in the truncated ring, both components in one pass over degree pairs.

        Degree k of each component sums a[i] * b[k - i] over i = 0..k, so
        only the pairs i + j <= top are multiplied; one gcd reduction follows.
        """
        check_model(self, other)
        a_plus, a_minus, b_plus, b_minus = self.plus, self.minus, other.plus, other.minus
        plus = []
        minus = []
        for k in range(len(a_plus)):
            p = m = 0
            for i in range(k + 1):
                p += a_plus[i] * b_plus[k - i]
                m += a_minus[i] * b_minus[k - i]
            plus.append(p)
            minus.append(m)
        return GradedElement(
            self.model, *lowest_terms(plus, minus, self.denominator * other.denominator)
        )

    def scale(self, value: SuperScalar | int | Fraction) -> "GradedElement":
        (p,), (m,), denominator = _split([coerce(value)])
        return GradedElement(
            self.model,
            *lowest_terms(
                [p * x for x in self.plus],
                [m * x for x in self.minus],
                self.denominator * denominator,
            ),
        )

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

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GradedElement":
        check_keys(obj, ("model", "coeffs"), "graded element")
        model = ChowModel.from_json(require_key(obj, "model", "graded element"))
        coeffs = require_key(obj, "coeffs", "graded element")
        if not isinstance(coeffs, list):
            raise ValueError(f"coeffs must be a list of scalars, not {coeffs!r}")
        return cls.from_coeffs(model, [SuperScalar.from_json(c) for c in coeffs])


# -- the integer form: numerators over one reduced positive denominator -----------
#
# Tuples of varying length are built from lists, never from generators:
# CPython builds a tuple from a generator by shrinking an over-allocated
# one, and when it dies it is kept on the free list of its final length,
# so every length in use would pin up to 2000 spare tuples (peak memory).


def common_denominator(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """Fractions as integer numerators over their least common denominator.

    Over the lcm of reduced denominators the numerators share no factor
    with it, so the result is already in lowest terms.
    """
    denominator = lcm(*[v.denominator for v in values])
    return denominator, tuple([v.numerator * (denominator // v.denominator) for v in values])


def lowest_terms(
    a: Sequence[int], b: Sequence[int], denominator: int
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Two integer vectors over denominator, divided by the gcd of all three.

    When b is a (a class equal at P = +1 and P = -1) it is reduced once
    and both components share the one tuple.
    """
    same = b is a
    common = gcd(denominator, *a) if same else gcd(denominator, *a, *b)
    if common != 1:
        a = [x // common for x in a]
        b = a if same else [x // common for x in b]
        denominator //= common
    a = tuple(a)
    return a, a if same else tuple(b), denominator


def check_model(a, b) -> None:
    """ModelMismatch unless a and b (elements, bundles, a supercurve) share a model.

    Identity is tried first: the named model constructors share instances.
    """
    if a.model is not b.model and a.model != b.model:
        raise ModelMismatch(f"{a.model} vs {b.model}")


def integrate_product(a: GradedElement, b: GradedElement) -> SuperScalar:
    """The integral of a.ring_mul(b), paired degree by degree without building the product."""
    return _scalar(*_pairing(a, b))


def _pairing(a: GradedElement, b: GradedElement) -> tuple[int, int, int]:
    """integrate_product's sums of a_i * b_(top - i) at P = +1 and -1, over one denominator."""
    check_model(a, b)
    plus, minus = sum(map(mul, a.plus, b.plus[::-1])), sum(map(mul, a.minus, b.minus[::-1]))
    return plus, minus, a.denominator * b.denominator


def align(a, b) -> tuple[int, int, int]:
    """check_model, then the lcm of both denominators and the factors that bring a and b to it."""
    check_model(a, b)
    denominator = lcm(a.denominator, b.denominator)
    return denominator, denominator // a.denominator, denominator // b.denominator


def _scalar(plus: int, minus: int, denominator: int) -> SuperScalar:
    """The SuperScalar whose values at P = +1 and P = -1 are plus and minus over denominator."""
    twice = 2 * denominator
    return SuperScalar(Fraction(plus + minus, twice), Fraction(plus - minus, twice))


def _split(values: list[SuperScalar]) -> tuple[list[int], list[int], int]:
    """The values body +- soul at P = +-1, as integer numerators over one denominator."""
    denominator, parts = common_denominator([c.body for c in values] + [c.soul for c in values])
    pairs = list(zip(parts, parts[len(values) :]))
    return [b + s for b, s in pairs], [b - s for b, s in pairs], denominator

