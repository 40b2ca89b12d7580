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

Each kernel does its arithmetic once: sigma1_pair builds sigma_1 and
its inverse from one exponent; a class equal at P = +1 and P = -1 (td,
sigma_1, ch for s = 0, c for even s) is reduced once, its components
sharing one tuple, td and sigma_1 inside their exp kernel and ch and c
by lowest_terms; the weights top!/k! * D**(top-k) of ch, td
and sigma_1 are cached per (top, D); c needs only D**(top-k), none at D = 1.
ch's weighted numerators come from one helper, _character_numerators:
chern_character reduces them into a class, and grr's chi_super pairs
them unreduced with its cached curve class, so the calculator's path
builds no ch and makes no gcd reduction.
The power sums take one pass per root on P^r, adding n, n**2, .., n**top
into one sum per degree.  A point or a curve (top <= 1) keeps the count
and one sum: there the per-root loop would cost twice the C-level sum it
replaces, on the calculator's hot path.

The power sums and the exp recurrence of td, sigma_1 and its inverse
run as straight-line kernels, generated and compiled by chowring's
_compile_kernel on first use, once per size alone: per top degree for
the power sums, per width for the recurrence; R lives in the rows.  A
kernel costs O(top**2) once (chowring's docstring gives the figure for
P^1..P^6), and stays below the cost of the rows it is built for: at top
256 the recurrence compiles in 0.21 s, _todd_rows takes about 0.9 s.
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
        return GradedElement(self.model, *lowest_terms(*self._character_numerators()))

    def _character_numerators(self) -> tuple[list[int], list[int], int]:
        """ch at P = +1 and P = -1 as integer numerators over top! * D**top, unreduced.

        Degree k is (p_k(a) -+ p_k(m)) * top!/k! * D**(top-k).  With no odd
        root both components are one list.  chern_character reduces them;
        chi_super pairs them as they are.
        """
        top = self.model.top_degree
        weights = _factorial_weights(top, self.denominator)
        power_sums = _power_sum_kernel(top)
        even = power_sums(self.even)
        if not self.odd:  # equal at P = +1 and P = -1
            plus = [w * a for w, a in zip(weights, even)]
            return plus, plus, weights[0]
        odd = power_sums(self.odd)
        return (
            [w * (a - m) for w, a, m in zip(weights, even, odd)],
            [w * (a + m) for w, a, m in zip(weights, even, odd)],
            weights[0],
        )

    def chern_total(self) -> GradedElement:
        """Total Chern class P**s * prod(1 + a_i) * prod(1 + m_j)**-1.

        c[k] is the coefficient of y**k = (x / D)**k.  Multiplying by 1 + n y
        runs k downwards; dividing by 1 + n y runs k upwards, each c[k]
        taking the new c[k - 1].  Over D**top, c[k] y**k is c[k] D**(top-k) x**k.
        """
        top = self.model.top_degree
        c = [1] + [0] * top
        for n in self.even:
            for k in range(top, 0, -1):
                c[k] += n * c[k - 1]
        for n in self.odd:
            for k in range(1, top + 1):
                c[k] -= n * c[k - 1]
        den = self.denominator
        if den != 1:
            c = [den ** (top - k) * x for k, x in enumerate(c)]
        minus = [-x for x in c] if len(self.odd) % 2 else c
        return GradedElement(self.model, *lowest_terms(c, minus, den**top))

    def c1(self) -> SuperScalar:
        return self.chern_total().coefficient(1)

    def todd(self) -> GradedElement:
        """Multiplicative Todd character, 2**s * exp(tau . p(a) + upsilon . p(m))."""
        top = self.model.top_degree
        power_sums = _power_sum_kernel(top)
        even, odd = power_sums(self.even), power_sums(self.odd)
        row_den, tau, upsilon = _todd_rows(top)
        exponent = [t * a + u * m for t, u, a, m in zip(tau, upsilon, even, odd)]
        den = row_den * self.denominator
        return _scaled_exp(self.model, exponent, den, scale=2 ** len(self.odd))

    def sigma1(self) -> GradedElement:
        """prod_j (1 + e**m_j); the class of O + P*Sym^1 on each odd line."""
        exponent, den = self._sigma1_exponent()
        return _scaled_exp(self.model, exponent, den, scale=2 ** len(self.odd))

    def sigma1_pair(self) -> tuple[GradedElement, GradedElement]:
        """sigma1() = 2**s * exp(g) and its inverse 2**-s * exp(-g), from one exponent g."""
        exponent, den = self._sigma1_exponent()
        power = 2 ** len(self.odd)
        inverse = _scaled_exp(self.model, [-e for e in exponent], den, divisor=power)
        return _scaled_exp(self.model, exponent, den, scale=power), inverse

    def _sigma1_exponent(self) -> tuple[list[int], int]:
        """The weighted exponent g of sigma1 and its denominator R * D (see _scaled_exp)."""
        if self.even:
            raise NotPurelyOdd(f"rank {self.rank} bundle has an even part")
        top = self.model.top_degree
        odd = _power_sum_kernel(top)(self.odd)
        row_den, row = _sigma1_row(top)
        return [u * m for u, m in zip(row, odd)], row_den * self.denominator

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


@lru_cache(maxsize=64)
def _power_sum_kernel(top: int):
    """power_sums(numerators): [count, sum n, sum n**2, .., sum n**top], unrolled.

    Over a bundle's denominator D these are D**k * p_k of its degrees.
    One pass per root multiplies its powers up once each.  A point or a
    curve (top <= 1) takes the count and one C-level sum instead, at half
    the cost of the pass on the calculator's hot path.  Compiled on first
    use at O(top) cost: 3 ms at top 256.
    """
    if top < 2:
        sums = ["len(numerators)", "sum(numerators)"][: top + 1]
        return _compile_kernel("power_sums", "numerators", [f"return [{', '.join(sums)}]"])
    sums = [f"s{k}" for k in range(1, top + 1)]
    lines = [" = ".join(sums) + " = 0", "for n in numerators:"]
    lines += ["    s1 += n", "    p = n * n", "    s2 += p"]
    for k in range(3, top + 1):
        lines += ["    p *= n", f"    s{k} += p"]
    lines.append(f"return [len(numerators), {', '.join(sums)}]")
    return _compile_kernel("power_sums", "numerators", lines)


@lru_cache(maxsize=64)
def _factorial_weights(top: int, den: int) -> tuple[int, ...]:
    """weights[k] = top!/k! * den**(top-k), which puts every degree over top! * den**top."""
    weights = [1]
    for k in range(top, 0, -1):
        weights.append(weights[-1] * k * den)
    weights.reverse()
    return tuple(weights)


def _scaled_exp(
    model: ChowModel, exponent: list[int], den: int, *, scale: int = 1, divisor: int = 1
) -> GradedElement:
    """scale / divisor * exp(g), in integers; equal at P = +1 and P = -1.

    Where td and sigma_1 meet their 2**s or 2**-s factor.  In y = x / D,
    g has no constant term and coefficients G_j / R: a cached row over R
    times power sums over D.  The exponent is W_j = j R**(j-1) G_j, as
    the rows carry it, and den is R * D.  Then f = exp(g) is
    f_k = F_k / (k! (R D)**k) with F_0 = 1 and
    F_k = sum_j (k-1)!/(k-j)! W_j F_(k-j): the recurrence
    k f_k = sum_j j g_j f_(k-j) cleared of denominators, put over
    divisor top! (R D)**top by the cached factorial weights and reduced.
    """
    weights = _factorial_weights(model.top_degree, den)
    series, den = _exp_kernel(len(exponent))(exponent, scale, weights, weights[0] * divisor)
    return GradedElement(model, series, series, den)


@lru_cache(maxsize=64)
def _exp_kernel(width: int):
    """exp(w, f0, weights, den): _scaled_exp's series, weighted, over den in lowest terms.

    The series is F_0 = f0 and F_k = sum_j (k-1)!/(k-j)! W_j F_(k-j),
    the factor 1 of j = 1 left out: linear, so f0 scales every F_k.  The
    kernel returns each weights[k] * F_k, and den, in lowest terms.  It
    depends on its width alone, so td, sigma_1 and its inverse share it.
    Each (k-1)!/(k-j)! is a name in its namespace, which holds nothing
    else but gcd.  Compiled on first use at O(width**2) cost: 12 ms at
    width 65, 0.21 s at width 257.
    """
    constants = {"gcd": gcd}
    lines = [", ".join([f"w{j}" for j in range(width)]) + ", = w"]
    for k in range(1, width):
        terms = [f"w1 * f{k - 1}"]
        falling = 1  # (k-1)!/(k-j)!
        for j in range(2, k + 1):
            falling *= k - j + 1
            constants[f"c{k}_{j}"] = falling
            terms.append(f"c{k}_{j} * w{j} * f{k - j}")
        lines.append(f"f{k} = {_sum_source(terms)}")
    lines.append(", ".join([f"v{k}" for k in range(width)]) + ", = weights")
    lines += [f"e{k} = v{k} * f{k}" for k in range(width)]
    lines += _lowest_terms_source([[f"e{k}" for k in range(width)]])
    return _compile_kernel("exp", "w, f0, weights, den", lines, constants)


def _weighted_row(den: int, row: Sequence[int]) -> tuple[int, ...]:
    """j * den**(j-1) * row[j] for each j: a row over den as the exp kernel takes it."""
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
