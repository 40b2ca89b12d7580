"""Super vector bundles presented by the degrees of their formal Chern roots.

A bundle of rank r|s over a model with generator x (w on a curve, h on
P^n) is stored by the rational degrees a_1..a_r of its even Chern roots
a_i*x and the degrees m_1..m_s of the bosonic roots m_j*x of the parity
shift of its odd part.  By the splitting principle this loses no
generality for characteristic-class identities.

The degrees are kept as integer numerators over one positive
denominator D, reduced so that the gcd of D and all numerators is 1:
the integer form of a graded class (chowring's common_denominator and
lowest_terms).  That form is canonical, so == and hash compare it field
by field.  The raw constructor neither parses nor reduces: from_degrees
is the one reader of degrees, and even_degs / odd_degs rebuild the
Fractions at the boundary (str, JSON).  dual and pi_shift keep D;
direct_sum and tensor bring both operands to the lcm of their
denominators (chowring's align) and reduce.  A purely odd bundle (rank 0|s) is also the
conormal data of ktheory.

Every class below is computed in integers on the stored numerators and
built straight from its values at P = +1 and P = -1 (see chowring); the
P or 2**s factor becomes one factor per component.  The total Chern
class is a product over the roots, in y = x / D:

* total Chern class: c(E) = P**s * prod_i (1 + a_i x) / prod_j (1 + m_j x);
  a root of degree n / D gives the factor 1 + n y, so each even root
  multiplies by an integer factor and each odd root divides by one
  exactly: every coefficient stays an integer

The others are functions of the power sums p_k(a) = sum_i a_i**k and
p_k(m), taken as D**k p_k:

* Chern character:   ch_k(E) = (p_k(a) - P * p_k(m)) / k!
* Todd character:    td(E) = 2**s * exp(sum_k (tau_k p_k(a) + upsilon_k p_k(m)) x**k),
  which is prod_i a_i x / (1 - e**(-a_i x)) * prod_j (1 + e**(-m_j x))
* sigma_1 (purely odd bundles): 2**s * exp(sum_k upsilon'_k p_k(m) x**k),
  which is prod_j (1 + e**(m_j x)); its inverse negates the exponent and
  divides by 2**s

The rows tau, upsilon and upsilon' are the coefficients of the series
logarithms of x / (1 - e**-x), (1 + e**-x) / 2 and (1 + e**x) / 2.  Each
row is computed from its own defining series and cached per top degree,
as integer numerators over a common denominator R, entry j already
multiplied by j R**(j-1), the weight the exp recurrence takes it with.

Each class runs as one straight-line kernel per top degree, generated
by _class_kernel and compiled by chowring's _compile_kernel on first
use.  It takes the numerators and D as arguments and does everything in
one call: the power sums, the weights that put every degree over one
denominator (top! * D**top for ch, D**top for c, top! * (R D)**top for
td and sigma_1), the exp recurrence or the product of c, and the final
gcd.  No cache is keyed by D or by a bundle; R and the rows are
namespace constants.  A class equal at P = +1 and P = -1 (td, sigma_1,
ch for s = 0, c for even s) is reduced once and returned as one tuple
for both components.  sigma_1 and its inverse share one kernel through
a sign argument.  grr's chi_super pairs the ch kernel's result as it is
with its cached curve class, so ch has one path and builds no element
there.  The power sums take one pass per root on P^r, adding n, n**2,
.., n**top into one sum per degree; a point or a curve (top <= 1) keeps
the count and one C-level sum, at half the cost on the calculator's
hot path.
A kernel costs O(top**2) once (chowring's docstring gives the figure
for P^1..P^6), and stays below the cost of the rows it is built for:
at top 256, td and sigma_1 compile in about 0.3 s each, the rows take
about 1.5-1.9 s.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from .chowring import (
    ChowModel,
    GradedElement,
    _compile_kernel,
    _lowest_terms_source,
    _sum_source,
    align,
    common_denominator,
    lowest_terms,
)
from .superscalar import SuperScalar, Value, check_keys, parse_rational, set_field

Numerators = tuple[int, ...]


class NotPurelyOdd(ValueError):
    """sigma_1 is only defined here for bundles of rank 0|s."""


class SuperBundle(Value):
    """Split super vector bundle of rank r|s given by its Chern-root degrees.

    The even root degrees are even[i] / denominator and the odd ones
    odd[j] / denominator, with integer numerators and denominator > 0
    sharing no factor with all of them.  Build bundles with from_degrees
    or zero, which produce that canonical form.
    """

    __slots__ = ("model", "even", "odd", "denominator")

    def __init__(
        self, model: ChowModel, even: Numerators, odd: Numerators, denominator: int
    ) -> None:
        set_field(self, "model", model)
        set_field(self, "even", even)
        set_field(self, "odd", odd)
        set_field(self, "denominator", denominator)

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
        den, numerators = common_denominator(even + _parse_degrees(model, odd_degs))
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

    # -- characteristic classes -----------------------------------------

    def chern_character(self) -> GradedElement:
        """ch_k(E) = (p_k(a) - P * p_k(m)) / k!, that is (p_k(a) -+ p_k(m)) / k! at P = +-1."""
        kernel = _class_kernel("ch", self.model.top_degree)
        return GradedElement(self.model, *kernel(self.even, self.odd, self.denominator))

    def chern_total(self) -> GradedElement:
        """Total Chern class P**s * prod(1 + a_i) * prod(1 + m_j)**-1."""
        kernel = _class_kernel("c", self.model.top_degree)
        return GradedElement(self.model, *kernel(self.even, self.odd, self.denominator))

    def c1(self) -> SuperScalar:
        return self.chern_total().coefficient(1)

    def todd(self) -> GradedElement:
        """Multiplicative Todd character, 2**s * exp(tau . p(a) + upsilon . p(m))."""
        kernel = _class_kernel("td", self.model.top_degree)
        return GradedElement(self.model, *kernel(self.even, self.odd, self.denominator))

    def sigma1(self) -> GradedElement:
        """prod_j (1 + e**m_j); the class of O + P*Sym^1 on each odd line."""
        return self._sigma1(1)

    def sigma1_pair(self) -> tuple[GradedElement, GradedElement]:
        """sigma1() = 2**s * exp(g) and its inverse 2**-s * exp(-g), from one kernel."""
        return self._sigma1(1), self._sigma1(-1)

    def _sigma1(self, sign: int) -> GradedElement:
        """2**s * exp(g) for sign 1, 2**-s * exp(-g) for sign -1."""
        if self.even:
            raise NotPurelyOdd(f"rank {self.rank} bundle has an even part")
        kernel = _class_kernel("sigma1", self.model.top_degree)
        return GradedElement(self.model, *kernel(self.odd, self.denominator, sign))

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
        den, a, b = align(self, other)
        return SuperBundle(
            self.model,
            *lowest_terms(
                [a * n for n in self.even] + [b * n for n in other.even],
                [a * n for n in self.odd] + [b * n for n in other.odd],
                den,
            ),
        )

    __add__ = direct_sum

    def tensor(self, other: "SuperBundle") -> "SuperBundle":
        """Pairwise root sums; matching parities are even, mixed are odd."""
        den, a, b = align(self, other)
        even = [a * x + b * y for x in self.even for y in other.even]
        even += [a * x + b * y for x in self.odd for y in other.odd]
        odd = [a * x + b * y for x in self.even for y in other.odd]
        odd += [a * x + b * y for x in self.odd for y in other.even]
        return SuperBundle(self.model, *lowest_terms(even, odd, den))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "even_roots": [str(d) for d in self.even_degs],
            "odd_roots": [str(d) for d in self.odd_degs],
        }

    @classmethod
    def from_json(cls, obj: dict, default_model: ChowModel | None = None) -> "SuperBundle":
        """Accepts the full root form or the curve shorthand with degree lists.

        The keys are model (optional given default_model) and either
        even_roots / odd_roots or even_degs / odd_degs; any other key,
        including one of the other spelling, is refused by name.
        """
        even, odd = "even_roots", "odd_roots"
        if isinstance(obj, dict) and ("even_degs" in obj or "odd_degs" in obj):
            even, odd = "even_degs", "odd_degs"
        check_keys(obj, ("model", even, odd), "bundle spec")
        if "model" in obj:
            model = ChowModel.from_json(obj["model"])
        elif default_model is not None:
            model = default_model
        else:
            raise ValueError("bundle spec carries no model")
        return cls.from_degrees(model, obj.get(even, []), obj.get(odd, []))

    def __str__(self) -> str:
        even = ",".join(str(d) for d in self.even_degs)
        odd = ",".join(str(d) for d in self.odd_degs)
        return f"bundle[{self.model}; even=({even}); odd=({odd})]"


# -- the boundary: exact degrees in ---------------------------------------------------


def _parse_degrees(model: ChowModel, values) -> list[Fraction | int]:
    """A list or tuple of exact degrees: an int as is, anything else read by parse_rational."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"root degrees must be given as a list, not {values!r}")
    degs = [v if type(v) is int else parse_rational(v, "root degree") for v in values]
    if model.top_degree < 1 and any(degs):
        raise ValueError("nonzero root degree on a point model")
    return degs


# -- rational series in the generator ---------------------------------------------


@lru_cache(maxsize=128)
def _class_kernel(name: str, top: int):
    """The compiled kernel of class name (ch, c, td or sigma1) at top degree top.

    ch, c and td take (even, odd, D), sigma1 takes (odd, D, sign); each
    returns (plus, minus, den) in lowest terms, plus and minus one tuple
    where the class is equal at P = +1 and P = -1.  Compiled on first use
    at O(top**2) cost: td at top 64 in 20-30 ms, at top 256 in 0.3 s.
    """
    params, lines, constants = _CLASS_SOURCES[name](top)
    return _compile_kernel(name, params, lines, {"gcd": gcd, **constants})


def _power_sum_source(top: int, roots: str, out: str, first: int = 1) -> list[str]:
    """Lines setting {out}k to sum n**k over the numerators roots, for k = first..top.

    Over D these are D**k * p_k.  One pass per root multiplies its powers
    up once each; a point or a curve (top <= 1) takes the count and one
    C-level sum instead, at half the cost on the calculator's hot path.
    """
    if top < 2:
        return [f"{out}0 = len({roots})", f"{out}1 = sum({roots})"][first : top + 1]
    sums = [f"{out}{k}" for k in range(1, top + 1)]
    lines = [" = ".join(sums) + " = 0", f"for n in {roots}:"]
    lines += [f"    {out}1 += n", "    p = n * n", f"    {out}2 += p"]
    for k in range(3, top + 1):
        lines += ["    p *= n", f"    {out}{k} += p"]
    return lines + [f"{out}0 = len({roots})"] * (first == 0)


def _weights_source(top: int, q: str) -> list[str]:
    """Lines setting v{k} = top!/k! * q**(top-k) for 0 < k < top, each from the next, and den = v0.

    The weight of degree top is 1 and never multiplied in.
    """
    if not top:
        return ["den = 1"]
    weights = ["den"] + [f"v{k}" for k in range(1, top)]
    factors = [q] + [f"{k} * {q}" for k in range(2, top + 1)]  # k * q, the factor 1 left out
    lines = [f"{weights[top - 1]} = {factors[top - 1]}"]
    for k in range(top - 1, 0, -1):
        lines.append(f"{weights[k - 1]} = {weights[k]} * {factors[k - 1]}")
    return lines


def _weigh_source(top: int, out: str) -> list[str]:
    """Lines multiplying {out}k by its weight v{k} (den for k = 0), in place, for k < top."""
    return [f"{out}{k} *= {f'v{k}' if k else 'den'}" for k in range(top)]


def _ch_source(top: int):
    """ch over top! * D**top: degree k is (a_k -+ m_k) * top!/k! * D**(top-k), a_k the power sums.

    With no odd root both components are one tuple.
    """
    split = _power_sum_source(top, "odd", "m", 0)
    for out, sign in (("p", "-"), ("q", "+")):
        split += [f"{out}{k} = a{k} {sign} m{k}" for k in range(top + 1)] + _weigh_source(top, out)
    split += _lowest_terms_source([[f"{out}{k}" for k in range(top + 1)] for out in "pq"])
    lines = _power_sum_source(top, "even", "a", 0) + _weights_source(top, "D")
    lines += ["if odd:", *[f"    {line}" for line in split]] + _weigh_source(top, "a")
    lines += _lowest_terms_source([[f"a{k}" for k in range(top + 1)]], twice=True)
    return "even, odd, D", lines, {}


def _c_source(top: int):
    """c over D**top: the product over the roots in y = x / D, then c_k y**k = c_k D**(top-k) x**k.

    Multiplying by 1 + n y runs k downwards; dividing by 1 + n y runs k
    upwards, each c_k taking the new c_(k-1).  Every coefficient stays an
    integer.  At P = -1 the class is (-1)**s times its value at P = +1.
    """
    if top < 2:
        lines = ["c1 = sum(even) - sum(odd)"] if top else []
    else:
        lines = [" = ".join([f"c{k}" for k in range(1, top + 1)]) + " = 0", "for n in even:"]
        lines += [f"    c{k} += n * c{k - 1}" for k in range(top, 1, -1)] + ["    c1 += n"]
        lines += ["for n in odd:", "    c1 -= n"]
        lines += [f"    c{k} -= n * c{k - 1}" for k in range(2, top + 1)]
    power = ["1", "D"] + [f"d{i}" for i in range(2, top + 1)]  # D**i
    lines += [f"d{i} = {power[i - 1]} * D" for i in range(2, top + 1)]
    lines += [f"c{k} *= {power[top - k]}" for k in range(1, top)] + [f"den = c0 = {power[top]}"]
    every = ", ".join([f"c{k}" for k in range(top + 1)])
    divided = ", ".join([f"c{k} // g" for k in range(top + 1)])
    lines += [f"g = gcd(den, {every})", "if g != 1:", f"    {every}, den = {divided}, den // g"]
    negated = ", ".join([f"-c{k}" for k in range(top + 1)])
    lines += [f"t = ({every},)", "if len(odd) % 2:", f"    return t, ({negated},), den"]
    return "even, odd, D", lines + ["return t, t, den"], {}


def _exp_source(top: int, row_den: int, constants: dict) -> list[str]:
    """f0 times exp of the weighted exponent w1..w_top, over top! * q**top = den, into f0..f_top.

    In y = x / D the exponent g has coefficients G_j / R: a cached row over
    R times power sums over D.  The exponent is W_j = j R**(j-1) G_j, as the
    rows carry it, and q = R * D.  Then f = exp(g) is f_k = F_k / (k! q**k)
    with F_0 = f0 and F_k = sum_j (k-1)!/(k-j)! W_j F_(k-j): the recurrence
    k f_k = sum_j j g_j f_(k-j) cleared of denominators, the factor 1 of
    j = 1 left out.  Each F_k is then weighted by top!/k! q**(top-k).
    R is added to constants as r, and each (k-1)!/(k-j)! as c{k}_{j}.
    """
    if not top:
        return ["den = 1"]
    constants["r"] = row_den
    lines = ["q = r * D"]
    for k in range(1, top + 1):
        terms = [f"w1 * f{k - 1}"]
        falling = 1  # (k-1)!/(k-j)!
        for j in range(2, k + 1):
            falling *= k - j + 1
            constants[f"c{k}_{j}"] = falling
            terms.append(f"c{k}_{j} * w{j} * f{k - j}")
        lines.append(f"f{k} = {_sum_source(terms)}")
    return lines + _weights_source(top, "q") + _weigh_source(top, "f")


def _td_source(top: int):
    """td = 2**s * exp(tau . p(a) + upsilon . p(m)), the rows tau and upsilon named t_j and u_j."""
    row_den, tau, upsilon = _todd_rows(top)
    constants = {}
    lines = _power_sum_source(top, "even", "a") + _power_sum_source(top, "odd", "m")
    for j in range(1, top + 1):
        constants[f"t{j}"], constants[f"u{j}"] = tau[j], upsilon[j]
        lines.append(f"w{j} = t{j} * a{j} + u{j} * m{j}")
    lines += ["f0 = 1 << len(odd)"] + _exp_source(top, row_den, constants)
    lines += _lowest_terms_source([[f"f{k}" for k in range(top + 1)]], twice=True)
    return "even, odd, D", lines, constants


def _sigma1_source(top: int):
    """sigma_1 = 2**s * exp(g) for sign 1, its inverse 2**-s * exp(-g) for sign -1, g = u . p(m)."""
    row_den, row = _sigma1_row(top)
    constants = {}
    lines = _power_sum_source(top, "odd", "m")
    for j in range(1, top + 1):
        constants[f"u{j}"] = row[j]
        lines.append(f"w{j} = u{j} * m{j}")
    lines += ["if sign < 0:", *[f"    w{j} = -w{j}" for j in range(1, top + 1)]]
    lines += ["    f0, divisor = 1, 1 << len(odd)", "else:", "    f0, divisor = 1 << len(odd), 1"]
    lines += _exp_source(top, row_den, constants) + ["den *= divisor"]
    lines += _lowest_terms_source([[f"f{k}" for k in range(top + 1)]], twice=True)
    return "odd, D, sign", lines, constants


_CLASS_SOURCES = {"ch": _ch_source, "c": _c_source, "td": _td_source, "sigma1": _sigma1_source}


def _weighted_row(den: int, row: Sequence[int]) -> tuple[int, ...]:
    """j * den**(j-1) * row[j] for each j: a row over den as the exp recurrence takes it."""
    weighted, power = [0], 1  # a log row has no constant term
    for j in range(1, len(row)):
        weighted.append(j * power * row[j])
        power *= den
    return tuple(weighted)


def _series_log(f: list[Fraction]) -> tuple[Fraction, ...]:
    """log of a series with constant term 1, truncated at len(f): the inverse of exp."""
    g = [Fraction(0)]
    for k in range(1, len(f)):
        g.append(f[k] - sum((j * g[j] * f[k - j] for j in range(1, k)), Fraction(0)) / k)
    return tuple(g)


@lru_cache(maxsize=64)
def _todd_rows(top: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """tau and upsilon over one common denominator R, weighted by _weighted_row.

    tau is log(x / (1 - e**-x)) = -log(sum_j (-x)**j / (j+1)!) and
    upsilon is log((1 + e**-x) / 2).
    """
    tau = [-c for c in _series_log([Fraction((-1) ** j, factorial(j + 1)) for j in range(top + 1)])]
    half_exp = [Fraction((-1) ** k, 2 * factorial(k)) for k in range(1, top + 1)]
    upsilon = _series_log([Fraction(1)] + half_exp)
    den, both = common_denominator([*tau, *upsilon])
    return den, _weighted_row(den, both[: top + 1]), _weighted_row(den, both[top + 1 :])


@lru_cache(maxsize=64)
def _sigma1_row(top: int) -> tuple[int, tuple[int, ...]]:
    """upsilon': log((1 + e**x) / 2), over its denominator R, weighted by _weighted_row."""
    half_exp = [Fraction(1, 2 * factorial(k)) for k in range(1, top + 1)]
    den, row = common_denominator(_series_log([Fraction(1)] + half_exp))
    return den, _weighted_row(den, row)
