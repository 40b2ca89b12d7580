"""ch, c, td, sigma_1, sigma_1**-1 and the integral of ch td on P^r against torus localization.

A torus acts on P^r with distinct integer weights w_0..w_r.  At the
fixed point p_i the hyperplane class h restricts to -w_i t, and the
tangent space has weights w_j - w_i (j != i).  By the Bott residue
formula (Atiyah-Bott, *The moment map and equivariant cohomology*,
1984; Ellingsrud-Stromme, *Bott's formula and enumerative geometry*,
1996), the coefficient of h**k in a class alpha, which is the integral
of alpha h**(r-k), is

    sum_i [t**r] alpha(-w_i t) (-w_i t)**(r-k) / prod_(j != i) (w_j - w_i).

At p_i a root of degree a restricts to -a w_i t, so the oracle builds
each class at each fixed point as a power series in t over plain
Fractions, at P = +1 and at P = -1.  The oracle reads only the degree
lists and uses nothing from chowring or superbundle, so it shares no
arithmetic with the truncated ring or the integer form.  The sum cannot
depend on the weights, so every case draws two weight sets and requires
one answer from both.  The integral of ch td(T) multiplies in, at p_i,
td of the tangent weights.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest

from supergrr import ChowModel, SuperBundle
from supergrr.chowring import integrate_product

# -- power series in t, truncated after t**r, over Fractions ----------------------------


def mul(f, g):
    return [sum(f[j] * g[k - j] for j in range(k + 1)) for k in range(len(f))]


def inverse(f):
    g = [1 / Fraction(f[0])]
    for k in range(1, len(f)):
        g.append(-sum(f[j] * g[k - j] for j in range(1, k + 1)) * g[0])
    return g


def product(n, factors):
    result = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for factor in factors:
        result = mul(result, factor)
    return result


def at(series, b):
    """series(b t) from the coefficients of series(t)."""
    return [c * b**k for k, c in enumerate(series)]


@lru_cache
def exp_series(n):
    return tuple(Fraction(1, factorial(k)) for k in range(n))


@lru_cache
def todd_line(n):
    """x / (1 - e**-x), the inverse of sum_k (-x)**k / (k+1)!."""
    return tuple(inverse([Fraction((-1) ** k, factorial(k + 1)) for k in range(n)]))


def restricted_classes(r, even, odd, weight):
    """Per P in (+1, -1): ch, c, td, sigma_1(odd) and its inverse at the fixed point of weight w.

    A root of degree a restricts to -a w t there.
    """
    n = r + 1
    e, one = exp_series(n), [Fraction(1)] + [Fraction(0)] * r
    ev = [-a * weight for a in even]
    od = [-m * weight for m in odd]
    even_ch = [c * sum(b**k for b in ev) for k, c in enumerate(e)]
    odd_ch = [c * sum(b**k for b in od) for k, c in enumerate(e)]
    linear = [[Fraction(1), b] + [Fraction(0)] * (r - 1) for b in ev]
    linear += [inverse([Fraction(1), b] + [Fraction(0)] * (r - 1)) for b in od]
    c = product(n, linear)
    odd_td = [[x + y for x, y in zip(one, at(e, -b))] for b in od]
    td = product(n, [at(todd_line(n), b) for b in ev] + odd_td)
    sigma1 = product(n, [[x + y for x, y in zip(one, at(e, b))] for b in od])
    sigma1_inverse = inverse(sigma1)
    classes = {}
    for parity in (1, -1):
        ch = [a - parity * m for a, m in zip(even_ch, odd_ch)]
        sign = parity ** len(odd)
        classes[parity] = (ch, [sign * x for x in c], td, sigma1, sigma1_inverse)
    return classes


def localized_coefficients(r, even, odd, weights):
    """Per P in (+1, -1): each class's coefficients of h**0..h**r, and the integral of ch td(T).

    [t**r] alpha(-w t) (-w t)**(r-k) is alpha's coefficient of t**k times (-w)**(r-k).
    """
    sums = {parity: [[Fraction(0)] * (r + 1) for _ in range(5)] for parity in (1, -1)}
    chi = {1: Fraction(0), -1: Fraction(0)}
    for i, w in enumerate(weights):
        tangent = [v - w for j, v in enumerate(weights) if j != i]
        euler = prod(tangent)
        tangent_td = product(r + 1, [at(todd_line(r + 1), v) for v in tangent])
        for parity, classes in restricted_classes(r, even, odd, w).items():
            for total, alpha in zip(sums[parity], classes):
                for k in range(r + 1):
                    total[k] += alpha[k] * (-w) ** (r - k) / euler
            chi[parity] += mul(classes[0], tangent_td)[r] / euler
    return sums, chi


# -- the check ----------------------------------------------------------------------------

NAMES = ("ch", "c", "td", "sigma1", "sigma1**-1")


def degree(rng):
    if rng.random() < 0.5:
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 4))


@pytest.mark.parametrize("r", range(1, 9))
def test_classes_match_bott_sum(r):
    rng = random.Random(f"localization P^{r}")
    model = ChowModel.proj_space(r)
    tangent_td = SuperBundle.from_degrees(model, [1] * (r + 1)).todd()  # T = O(1)**(r+1) - O
    for _ in range(5):
        even = [degree(rng) for _ in range(rng.randint(0, 3))]
        odd = [degree(rng) for _ in range(rng.randint(0, 3))]
        bundle = SuperBundle.from_degrees(model, even, odd)
        classes = [bundle.chern_character(), bundle.chern_total(), bundle.todd()]
        classes += SuperBundle.from_degrees(model, (), odd).sigma1_pair()
        first, second = (
            localized_coefficients(r, even, odd, rng.sample(range(-12, 13), r + 1))
            for _ in range(2)
        )
        assert first == second, bundle
        expected, chi = first
        value = integrate_product(classes[0], tangent_td)
        for parity in (1, -1):
            for name, x, coeffs in zip(NAMES, classes, expected[parity]):
                values = [a.body + parity * a.soul for a in x.coeffs]
                assert values == coeffs, (name, bundle, parity)
            assert value.body + parity * value.soul == chi[parity], bundle
