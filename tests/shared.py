"""Test data and helpers that more than one test module reads, each defined once.

Imported by name (``from shared import SWEEP``); pytest collects no
tests from it.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from supergrr import ChowModel, GradedElement, ModuliParams, SuperBundle, TargetSpec

# the criterion-1 sweep: every (g, n_ns, n_rr, r, s, d), 5120 points
SWEEP = list(
    itertools.product(range(4), range(5), (0, 2, 4, 6), range(1, 5), range(4), range(4))
)


def _custom_targets() -> list:
    rng = random.Random(2026)
    cases = []
    for _ in range(700):
        s = rng.randint(0, 4)
        tau = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        phi_int = Fraction(rng.randint(-40, 40), rng.randint(1, 12)) if s else Fraction(0)
        params = ModuliParams(rng.randint(0, 5), rng.randint(0, 5), 2 * rng.randint(0, 4))
        cases.append((params, TargetSpec(rng.randint(1, 5), s, tau, phi_int)))
    return cases


# 700 (params, custom target) pairs from Random(2026), most with fractional tau or phi_int
CUSTOM_TARGETS = _custom_targets()


def models(top_r: int) -> list:
    """A point, the curves of genus 0..3 and P^1..P^top_r."""
    return (
        [ChowModel.point()]
        + [ChowModel.curve(g) for g in range(4)]
        + [ChowModel.proj_space(r) for r in range(1, top_r + 1)]
    )


def elt(model, *coeffs):
    return GradedElement.from_coeffs(model, coeffs)


@lru_cache(maxsize=16)
def tangent_todd(r: int):
    """td(T P^r) = td(O(1)**(r+1)), since T P^r + O = O(1)**(r+1); about 1 s at r = 100."""
    return SuperBundle.from_degrees(ChowModel.proj_space(r), [1] * (r + 1)).todd()
