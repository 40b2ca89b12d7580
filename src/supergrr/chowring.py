"""Truncated graded rings with Q[P] coefficients.

Three models cover everything downstream: a point, a smooth projective
curve of genus g (basis 1, w with w**2 = 0 and integral(w) = 1), and a
projective space of dimension r (basis 1, h, ..., h**r with h**(r+1) = 0
and integral(h**r) = 1).  Elements are stored as one coefficient per
degree; products silently truncate above the top degree, which is exact
rather than approximate since those classes vanish.

All stored classes are even-degree cohomological objects with Q[P]
coefficients, so the ring is genuinely commutative: no Koszul signs
arise in these models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from .superscalar import ONE, ZERO, SuperScalar, coerce

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
        kind = obj["kind"]
        if kind == "point":
            return cls.point()
        if kind == "curve":
            return cls.curve(int(obj["genus"]))
        if kind == "projspace":
            return cls.proj_space(int(obj["r"]))
        raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True, slots=True)
class GradedElement:
    """Ring element stored as per-degree SuperScalar coefficients."""

    model: ChowModel
    coeffs: tuple[SuperScalar, ...]

    def __post_init__(self) -> None:
        width = self.model.top_degree + 1
        # coefficient tuples are built from lists, not generators: see the
        # note on tuple free lists in superbundle
        coeffs = tuple([coerce(c) for c in self.coeffs])
        if len(coeffs) > width:
            raise ValueError(
                f"{len(coeffs)} coefficients exceed top degree {width - 1}"
            )
        if len(coeffs) < width:
            coeffs = coeffs + (ZERO,) * (width - len(coeffs))
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_coeffs(cls, model: ChowModel, coeffs: Iterable[CoeffLike]) -> "GradedElement":
        return cls(model, tuple(coeffs))

    @classmethod
    def zero(cls, model: ChowModel) -> "GradedElement":
        return cls(model, ())

    @classmethod
    def one(cls, model: ChowModel) -> "GradedElement":
        return cls(model, (ONE,))

    @classmethod
    def scalar(cls, model: ChowModel, value: CoeffLike) -> "GradedElement":
        return cls(model, (coerce(value),))

    @classmethod
    def monomial(cls, model: ChowModel, degree: int, value: CoeffLike = 1) -> "GradedElement":
        if not 0 <= degree <= model.top_degree:
            raise ValueError(f"degree {degree} out of range for {model}")
        coeffs = [ZERO] * (degree + 1)
        coeffs[degree] = coerce(value)
        return cls(model, tuple(coeffs))

    @classmethod
    def generator(cls, model: ChowModel) -> "GradedElement":
        """The degree-1 generator w (curve) or h (projective space)."""
        if model.top_degree < 1:
            raise ValueError("a point has no positive-degree generator")
        return cls.monomial(model, 1)

    # -- accessors --------------------------------------------------------

    def coefficient(self, degree: int) -> SuperScalar:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return ZERO

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # -- ring structure ---------------------------------------------------

    def _check_model(self, other: "GradedElement") -> None:
        if self.model != other.model:
            raise ModelMismatch(f"{self.model} vs {other.model}")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._check_model(other)
        return _raw(
            self.model, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)])
        )

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        self._check_model(other)
        return _raw(
            self.model, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)])
        )

    def __neg__(self) -> "GradedElement":
        return _raw(self.model, tuple([-a for a in self.coeffs]))

    def ring_mul(self, other: "GradedElement") -> "GradedElement":
        """Product in the truncated ring (convolution of coefficients)."""
        self._check_model(other)
        top = self.model.top_degree
        rhs = other.coeffs
        out = [ZERO] * (top + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(top - i + 1):
                b = rhs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return _raw(self.model, tuple(out))

    def scale(self, value: CoeffLike) -> "GradedElement":
        value = coerce(value)
        if not value.soul and value.body == 1:
            return self
        return _raw(self.model, tuple([a * value for a in self.coeffs]))

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
        lead_inv = self.coeffs[0].invert()
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
        if self.coeffs[0]:
            raise NotNilpotent(f"degree-0 coefficient {self.coeffs[0]} is nonzero")
        top = self.model.top_degree
        if not any(self.coeffs[2:]):
            # pure degree-1 input (the Chern-root case): exp is the row
            # of powers c**k / k! on the generator powers
            out = [ONE]
            if top >= 1:
                acc = self.coeffs[1]
                out.append(acc)
                for k in range(2, top + 1):
                    acc = acc * _reciprocal(k) * self.coeffs[1]
                    out.append(acc)
            return _raw(self.model, tuple(out))
        result = GradedElement.one(self.model)
        term = GradedElement.one(self.model)
        for k in range(1, top + 1):
            term = term.ring_mul(self).scale(_reciprocal(k))
            result = result + term
        return result

    def integrate(self) -> SuperScalar:
        """Pushforward to a point: the top-degree coefficient."""
        return self.coeffs[self.model.top_degree]

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
        coeffs = tuple(SuperScalar.from_json(c) for c in obj["coeffs"])
        return cls(model, coeffs)


def _raw(model: ChowModel, coeffs: tuple[SuperScalar, ...]) -> GradedElement:
    """Internal constructor for arithmetic results of already-valid shape."""
    out = object.__new__(GradedElement)
    object.__setattr__(out, "model", model)
    object.__setattr__(out, "coeffs", coeffs)
    return out


@lru_cache(maxsize=64)
def _reciprocal(k: int) -> Fraction:
    return Fraction(1, k)
