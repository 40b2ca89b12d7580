"""Virtual dimension of the moduli superstack of stable supermaps.

Two independent routes are implemented and cross-checked:

* a closed formula in the discrete data (genus, punctures, target rank
  r|s and tangent/conormal degree integrals), and
* an assembled route chi_S(restricted tangent) - chi_S(gauge sheaf)
  computed through the Riemann-Roch engine on a split supercurve with
  spin twist deg L = g - 1 + n_rr/2.

The closed formula's odd part carries a coefficient (1-g)(s-2).  An
alternate (1-g)(s+2) reading of that factor exists in print; the two
differ by 4(1-g)P, so the alternate breaks the cross-check for every
g != 1.  The regression flag exists to demonstrate exactly that.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .grr import (
    InvalidRank,
    NonIntegralTwist,
    SplitSupercurve,
    SuperEuler,
    chi_super,
    pullback_tangent,
)
from .superbundle import SuperBundle
from .superscalar import SuperScalar, parse_int, parse_rational, require_key


@dataclass(frozen=True, slots=True)
class ModuliParams:
    """Genus and puncture counts of the source supercurves."""

    g: int
    n_ns: int = 0
    n_rr: int = 0

    def __post_init__(self) -> None:
        for name in ("g", "n_ns", "n_rr"):
            object.__setattr__(self, name, parse_int(getattr(self, name), name))
        if self.g < 0 or self.n_ns < 0 or self.n_rr < 0:
            raise ValueError("genus and puncture counts must be nonnegative")

    def to_json(self) -> dict:
        return {"g": self.g, "n_ns": self.n_ns, "n_rr": self.n_rr}

    @classmethod
    def from_json(cls, obj: dict) -> "ModuliParams":
        return cls(require_key(obj, "g", "params"), obj.get("n_ns", 0), obj.get("n_rr", 0))


@dataclass(frozen=True, slots=True)
class TargetSpec:
    """Smooth target of dimension r|s with degree data over the image cycle.

    tau is the even tangent degree integral; phi_int the integral of the
    odd conormal data.  For projective superspace P^{r|s} with image
    degree d these specialize to tau = d(r+1) and phi_int = -s d.
    """

    r: int
    s: int
    tau: Fraction
    phi_int: Fraction
    d: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", parse_int(self.r, "r"))
        object.__setattr__(self, "s", parse_int(self.s, "s"))
        if self.d is not None:
            object.__setattr__(self, "d", parse_int(self.d, "d"))
        if self.r < 0 or self.s < 0:
            raise ValueError("target ranks must be nonnegative")
        if type(self.tau) is not Fraction:
            object.__setattr__(self, "tau", parse_rational(self.tau, "tau"))
        if type(self.phi_int) is not Fraction:
            object.__setattr__(self, "phi_int", parse_rational(self.phi_int, "phi_int"))

    @classmethod
    def psuper(cls, r: int, s: int, d: int) -> "TargetSpec":
        """Projective superspace P^{r|s}, image class d times a line."""
        r, s, d = parse_int(r, "r"), parse_int(s, "s"), parse_int(d, "d")
        if r < 1:
            raise ValueError("projective superspace needs r >= 1")
        if d < 0:
            raise ValueError("image degree must be nonnegative")
        return cls(r, s, Fraction(d * (r + 1)), Fraction(-s * d), d=d)

    @classmethod
    def custom(cls, r: int, s: int, tau, phi_int) -> "TargetSpec":
        """tau and phi_int are each an int, a Fraction or a "p/q" string."""
        return cls(r, s, tau, phi_int)

    @classmethod
    def point(cls) -> "TargetSpec":
        return cls(0, 0, Fraction(0), Fraction(0))

    @property
    def kind(self) -> str:
        if self.d is not None:
            return "psuper"
        if (self.r, self.s) == (0, 0) and not self.tau and not self.phi_int:
            return "point"
        return "custom"

    @property
    def degree_integral(self) -> Fraction:
        """integral over the image cycle of ch_1(tangent) - ch_1(odd conormal)."""
        return self.tau - self.phi_int

    def to_json(self) -> dict:
        if self.kind == "psuper":
            return {"kind": "psuper", "r": self.r, "s": self.s, "d": self.d}
        if self.kind == "point":
            return {"kind": "point"}
        return {
            "kind": "custom",
            "r": self.r,
            "s": self.s,
            "tau": str(self.tau),
            "phi_int": str(self.phi_int),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TargetSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"target must be a JSON object, not {obj!r}")
        kind = obj.get("kind", "psuper")
        if kind == "point":
            return cls.point()
        if kind not in ("psuper", "custom"):
            raise ValueError(f"unknown target kind {kind!r}")
        r, s = require_key(obj, "r", "target"), require_key(obj, "s", "target")
        if kind == "psuper":
            return cls.psuper(r, s, require_key(obj, "d", "target"))
        return cls.custom(r, s, obj.get("tau", 0), obj.get("phi_int", 0))


@dataclass(frozen=True, slots=True)
class SuperCycleClass:
    """Image cycle of a 1|1-dimensional source: beta = (1 - P) d beta_0."""

    d: int

    @property
    def coefficient(self) -> SuperScalar:
        return SuperScalar(Fraction(self.d), Fraction(-self.d))

    def to_json(self) -> dict:
        return {"d": self.d, "coefficient": self.coefficient.to_json()}


class Properness(enum.Enum):
    PROPER = "proper"
    NOT_PROPER = "not_proper"


def chi_gauge(params: ModuliParams) -> SuperEuler:
    """Euler data of the gauge sheaf of infinitesimal deformations.

    Its h^0 vanishes and h^1 is known in closed form, so
    chi = (3 - 3g - n_ns - n_rr) - P (2 - 2g - n_ns - n_rr/2).
    """
    g, n_ns, n_rr = params.g, params.n_ns, params.n_rr
    body = Fraction(3 - 3 * g - n_ns - n_rr)
    soul = -(Fraction(2 - 2 * g - n_ns) - Fraction(n_rr, 2))
    return SuperEuler(SuperScalar(body, soul))


def vdim_closed(
    params: ModuliParams,
    target: TargetSpec,
    *,
    alternate_odd_sign: bool = False,
) -> SuperScalar:
    """Closed-form virtual dimension.

    Even part (r-3)(1-g) + n_ns + n_rr (1 + s/2) + I and odd-part
    coefficient -[(1-g)(s-2) + n_ns + (n_rr/2)(r+1) + I], with I the
    degree integral of the target.  ``alternate_odd_sign`` switches the
    (s-2) factor to the printed variant (s+2).
    """
    g, n_ns, n_rr = params.g, params.n_ns, params.n_rr
    r, s = target.r, target.s
    if n_rr % 2:
        warnings.warn(
            f"odd n_rr={n_rr}: closed formula evaluated with rational "
            "arithmetic; the assembled route requires an even count",
            stacklevel=2,
        )
    integral = target.degree_integral
    body = (r - 3) * (1 - g) + n_ns + n_rr * (1 + Fraction(s, 2)) + integral
    s_term = s + 2 if alternate_odd_sign else s - 2
    soul = -((1 - g) * s_term + n_ns + Fraction(n_rr, 2) * (r + 1) + integral)
    return SuperScalar(body, soul)


def vdim_assembled(params: ModuliParams, target: TargetSpec) -> SuperScalar:
    """Virtual dimension assembled as chi_S(restricted tangent) - chi_S(gauge)."""
    if params.n_rr % 2:
        raise NonIntegralTwist(
            f"n_rr={params.n_rr} is odd: spin twist degree g-1+n_rr/2 is not integral"
        )
    curve = SplitSupercurve.susy(params.g, params.n_rr)
    if target.r == 0 and target.s == 0:
        if target.tau or target.phi_int:
            raise InvalidRank("rank 0|0 target cannot carry nonzero degree data")
        tangent = SuperBundle.zero(curve.model)
    else:
        tangent = pullback_tangent(curve, target)
    chi_tangent = chi_super(curve, tangent)
    return chi_tangent.value - chi_gauge(params).value


def bosonic_dimension(params: ModuliParams, target: TargetSpec) -> Fraction:
    """Dimension of the bosonic reduction for a projective-superspace target.

    Spin-map stack dimension plus the linear-fiber term s (d + n_rr/2);
    equals the even part of the closed formula.
    """
    if target.kind != "psuper":
        raise ValueError("bosonic dimension is defined for projective-superspace targets")
    g, n_ns, n_rr = params.g, params.n_ns, params.n_rr
    r, s, d = target.r, target.s, target.d
    spin_dim = Fraction((r - 3) * (1 - g) + n_ns + n_rr + d * (r + 1))
    return spin_dim + s * (d + Fraction(n_rr, 2))


def properness_hint(target: TargetSpec, params: ModuliParams) -> Properness:
    """Proper iff s = 0, or both the image degree and n_rr vanish."""
    if target.kind != "psuper":
        raise ValueError("properness hint is defined for projective-superspace targets")
    if target.s == 0 or (target.d == 0 and params.n_rr == 0):
        return Properness.PROPER
    return Properness.NOT_PROPER


def evaluate_request(request: dict, *, alternate_odd_sign: bool = False) -> dict:
    """Evaluate the JSON calculator request and return the JSON response.

    The response carries the closed and assembled values, a consistency
    flag, and (for projective-superspace targets) the bosonic dimension
    and properness hint.  With an odd n_rr the assembled route is
    refused and reported as null.
    """
    params = ModuliParams.from_json(require_key(request, "params", "request"))
    target = TargetSpec.from_json(require_key(request, "target", "request"))
    response_warnings: list[str] = []

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        closed = vdim_closed(params, target, alternate_odd_sign=alternate_odd_sign)
    response_warnings.extend(str(w.message) for w in caught)

    assembled: Optional[SuperScalar] = None
    consistent: Optional[bool] = None
    if params.n_rr % 2 == 0:
        assembled = vdim_assembled(params, target)
        consistent = assembled == closed
    else:
        response_warnings.append(
            "assembled route skipped: odd n_rr gives a non-integral spin twist"
        )

    response = {
        "params": params.to_json(),
        "target": target.to_json(),
        "odd_part_reading": "s+2" if alternate_odd_sign else "s-2",
        "closed": closed.to_json(),
        "assembled": assembled.to_json() if assembled is not None else None,
        "consistent": consistent,
        "bosonic_dimension": None,
        "properness": None,
        "warnings": response_warnings,
    }
    if target.kind == "psuper":
        response["bosonic_dimension"] = str(bosonic_dimension(params, target))
        response["properness"] = properness_hint(target, params).value
    return response
