"""Virtual dimension of the moduli superstack of stable supermaps.

Two independent routes are implemented and cross-checked:

* a closed formula in the discrete data (genus, punctures, target rank
  r|s and tangent/conormal degree integrals), and
* an assembled route chi_S(restricted tangent) - chi_S(gauge sheaf)
  computed through the Riemann-Roch engine on a split supercurve with
  spin twist deg L = g - 1 + n_rr/2.

TargetSpec owns a target's invariants.  A P^{r|s} target keeps its image
degree d beside its degree data (tau, phi_int), and the constructor
refuses the two when they disagree, so bosonic_dimension (read from d)
and the closed formula (read from tau and phi_int) always describe the
same target.  TargetSpec.from_json is the one reader of a target kind,
for requests and the vdim command alike.  TARGET_KEYS lists the JSON
keys of each kind once: TargetSpec's codec and the vdim flags both read
it, so a new kind is one row there plus one constructor.

A target's rank and degree data become the restricted tangent bundle in
pullback_tangent, beside TargetSpec, and only there: it decides which
data a bundle can realize and raises InvalidRank for the rest.

The closed route computes in integers over one denominator q, the common
denominator of the target's degree data, and builds a Fraction only for each
part of its result; the assembled route, in integers at P = +1 and -1,
builds one SuperScalar.  chi_gauge and bosonic_dimension compute in integers
alone.  The closed route stays independent: it reads neither the assembled
route nor chi_gauge, and bosonic_dimension does not read it.

The closed formula's odd part carries a coefficient (1-g)(s-2).  An
alternate (1-g)(s+2) reading of that factor exists in print; the two
differ by 4(1-g)P, so the alternate breaks the cross-check for every
g != 1.  The regression flag exists to demonstrate exactly that.

Both routes return a SuperScalar.  ModuliParams holds only an even
count n_rr of Ramond punctures (grr.parse_ramond_count), so n_rr/2 is
an integer on both routes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .chowring import _scalar, common_denominator
from .grr import SplitSupercurve, _chi_values, parse_ramond_count
from .superbundle import SuperBundle
from .superscalar import (
    SuperScalar,
    Value,
    check_keys,
    parse_int,
    parse_rational,
    require_key,
    set_field,
)


class ModuliParams(Value):
    """Genus and puncture counts of the source supercurves; the Ramond count is even."""

    __slots__ = ("g", "n_ns", "n_rr")

    def __init__(self, g: int, n_ns: int = 0, n_rr: int = 0) -> None:
        g, n_ns = parse_int(g, "g"), parse_int(n_ns, "n_ns")
        if g < 0 or n_ns < 0:
            raise ValueError("genus and puncture counts must be nonnegative")
        n_rr = parse_ramond_count(n_rr)
        set_field(self, "g", g)
        set_field(self, "n_ns", n_ns)
        set_field(self, "n_rr", n_rr)

    def to_json(self) -> dict:
        return {"g": self.g, "n_ns": self.n_ns, "n_rr": self.n_rr}

    @classmethod
    def from_json(cls, obj: dict) -> "ModuliParams":
        check_keys(obj, ("g", "n_ns", "n_rr"), "params")
        return cls(require_key(obj, "g", "params"), obj.get("n_ns", 0), obj.get("n_rr", 0))


# the JSON keys of each target kind after "kind", in order; the vdim flags read the same keys
TARGET_KEYS = {"psuper": ("r", "s", "d"), "custom": ("r", "s", "tau", "phi_int"), "point": ()}


class TargetSpec(Value):
    """Smooth target of dimension r|s with degree data over the image cycle.

    tau is the even tangent degree integral; phi_int the integral of the
    odd conormal data.  Giving an image degree d makes the target
    projective superspace P^{r|s}: then r >= 1, d >= 0 and the degree
    data must be tau = d(r+1) and phi_int = -s d, so d and (tau, phi_int)
    never disagree.
    """

    __slots__ = ("r", "s", "tau", "phi_int", "d")

    def __init__(
        self, r: int, s: int, tau: Fraction, phi_int: Fraction, d: int | None = None
    ) -> None:
        r, s = parse_int(r, "r"), parse_int(s, "s")
        if d is not None:
            d = parse_int(d, "d")
            if r < 1:
                raise ValueError("projective superspace needs r >= 1")
            if d < 0:
                raise ValueError("image degree must be nonnegative")
        if r < 0 or s < 0:
            raise ValueError("target ranks must be nonnegative")
        tau, phi_int = parse_rational(tau, "tau"), parse_rational(phi_int, "phi_int")
        if d is not None and (tau, phi_int) != (d * (r + 1), -s * d):
            raise ValueError(
                f"degree {d} on P^{{{r}|{s}}} needs tau = {d * (r + 1)} and "
                f"phi_int = {-s * d}, not {tau} and {phi_int}"
            )
        set_field(self, "r", r)
        set_field(self, "s", s)
        set_field(self, "tau", tau)
        set_field(self, "phi_int", phi_int)
        set_field(self, "d", d)

    @classmethod
    def psuper(cls, r: int, s: int, d: int) -> "TargetSpec":
        """Projective superspace P^{r|s}, image class d times a line."""
        r, s, d = parse_int(r, "r"), parse_int(s, "s"), parse_int(d, "d")
        return cls(r, s, d * (r + 1), -s * d, d)

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

    def to_json(self) -> dict:
        kind = self.kind
        out = {"kind": kind}
        for key in TARGET_KEYS[kind]:
            value = getattr(self, key)
            out[key] = str(value) if type(value) is Fraction else value
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "TargetSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"target must be a JSON object, not {obj!r}")
        kind = obj.get("kind", "psuper")
        if not isinstance(kind, str) or kind not in TARGET_KEYS:
            raise ValueError(f"unknown target kind {kind!r}")
        check_keys(obj, ("kind", *TARGET_KEYS[kind]), "target")
        if kind == "point":
            return cls.point()
        r, s = require_key(obj, "r", "target"), require_key(obj, "s", "target")
        if kind == "psuper":
            return cls.psuper(r, s, require_key(obj, "d", "target"))
        return cls(r, s, obj.get("tau", 0), obj.get("phi_int", 0))


class InvalidRank(ValueError):
    """Target rank data that cannot be realized as a root bundle."""


def pullback_tangent(curve: SplitSupercurve, target: TargetSpec) -> SuperBundle:
    """Restricted tangent sheaf of a rank r|s target along a degree-beta map.

    The target supplies r, s, tau (total even tangent degree over the
    image cycle) and phi_int (integral of the odd conormal data, so the
    odd part has total degree mu = -phi_int).  Characteristic classes on
    a curve see only rank and total degree, so the canonical form puts
    the whole degree on one root per parity and zeros elsewhere.  A
    rank 0|0 target restricts to the zero bundle.
    """
    r, s, tau, phi = target.r, target.s, target.tau, target.phi_int
    if r == 0 and s == 0:
        if tau or phi:
            raise InvalidRank("rank 0|0 target cannot carry nonzero degree data")
        return SuperBundle.zero(curve.model)
    if r < 1 or s < 0:
        raise InvalidRank(f"cannot realize tangent data of rank {r}|{s}")
    if s == 0 and phi:
        raise InvalidRank("odd degree data on a target with no odd directions")
    den, (tau_n, phi_n) = common_denominator((tau, phi))
    even = (tau_n,) + (0,) * (r - 1)
    odd = (-phi_n,) + (0,) * (s - 1) if s else ()
    return SuperBundle(curve.model, even, odd, den)


def _gauge_counts(params: ModuliParams) -> tuple[int, int]:
    """The integers E and O of chi_gauge = E - P O, which vdim_assembled reads too."""
    g, n_ns, n_rr = params.g, params.n_ns, params.n_rr
    return 3 - 3 * g - n_ns - n_rr, 2 - 2 * g - n_ns - n_rr // 2


def chi_gauge(params: ModuliParams) -> SuperScalar:
    """Euler data of the gauge sheaf of infinitesimal deformations.

    Its h^0 vanishes and h^1 is known in closed form, so chi = E - P O
    with E = 3 - 3g - n_ns - n_rr and O = 2 - 2g - n_ns - n_rr/2.
    """
    even, odd = _gauge_counts(params)
    return SuperScalar(Fraction(even), Fraction(-odd))


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
    half = n_rr // 2
    r, s = target.r, target.s
    tau, phi = target.tau, target.phi_int
    # I = tau - phi_int = integral / q; every term is then an integer over q
    q = lcm(tau.denominator, phi.denominator)
    integral = tau.numerator * (q // tau.denominator) - phi.numerator * (q // phi.denominator)
    s_term = s + 2 if alternate_odd_sign else s - 2
    body = q * ((r - 3) * (1 - g) + n_ns + n_rr + half * s) + integral
    soul = q * ((1 - g) * s_term + n_ns + half * (r + 1)) + integral
    return SuperScalar(Fraction(body, q), Fraction(-soul, q))


def vdim_assembled(params: ModuliParams, target: TargetSpec) -> SuperScalar:
    """Virtual dimension assembled as chi_S(restricted tangent) - chi_S(gauge).

    Both in integers at P = +1 and -1 (chi_gauge = E - P O is E - O and E + O)
    until one SuperScalar; target data no bundle realizes raises InvalidRank.
    """
    curve = SplitSupercurve.susy(params.g, params.n_rr)
    plus, minus, den = _chi_values(curve, pullback_tangent(curve, target))
    even, odd = _gauge_counts(params)
    return _scalar(plus - den * (even - odd), minus - den * (even + odd), den)


def bosonic_dimension(params: ModuliParams, target: TargetSpec) -> Fraction:
    """Dimension of the bosonic reduction for a projective-superspace target.

    Spin-map stack dimension plus the linear-fiber term s (d + n_rr/2);
    equals the even part of the closed formula.
    """
    if target.kind != "psuper":
        raise ValueError("bosonic dimension is defined for projective-superspace targets")
    g, n_ns, n_rr = params.g, params.n_ns, params.n_rr
    r, s, d = target.r, target.s, target.d
    spin_dim = (r - 3) * (1 - g) + n_ns + n_rr + d * (r + 1)
    return Fraction(spin_dim + s * (d + n_rr // 2))


def properness_hint(target: TargetSpec, params: ModuliParams) -> str:
    """Return "proper" iff s = 0 or d = n_rr = 0, else "not_proper" (generic spin structure).

    At d = 0, n_rr = 0, g >= 1 and s >= 1 the odd spin structures have
    h0(L) >= 1 (Atiyah 1971; Mumford 1971): on those components the fibre
    contains A^s, and the hint still reads proper.
    """
    if target.kind != "psuper":
        raise ValueError("properness hint is defined for projective-superspace targets")
    if target.s == 0 or (target.d == 0 and params.n_rr == 0):
        return "proper"
    return "not_proper"


def evaluate_request(request: dict, *, alternate_odd_sign: bool = False) -> dict:
    """Evaluate the JSON calculator request and return the JSON response.

    The response carries the closed and assembled values, a consistency
    flag (always a bool), and (for projective-superspace targets) the
    bosonic dimension and properness hint.  An odd or negative n_rr is
    refused, as is a key that the request, its params or its target does
    not know.  The "warnings" key is always an empty list, kept so that
    the response keeps its keys and its bytes.
    """
    check_keys(request, ("params", "target"), "request")
    params = ModuliParams.from_json(require_key(request, "params", "request"))
    target = TargetSpec.from_json(require_key(request, "target", "request"))
    closed = vdim_closed(params, target, alternate_odd_sign=alternate_odd_sign)
    assembled = vdim_assembled(params, target)
    response = {
        "params": params.to_json(),
        "target": target.to_json(),
        "odd_part_reading": "s+2" if alternate_odd_sign else "s-2",
        "closed": closed.to_json(),
        "assembled": assembled.to_json(),
        "consistent": assembled == closed,
        "bosonic_dimension": None,
        "properness": None,
        "warnings": [],
    }
    if target.kind == "psuper":
        response["bosonic_dimension"] = str(bosonic_dimension(params, target))
        response["properness"] = properness_hint(target, params)
    return response
