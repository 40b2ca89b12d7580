"""Exact characteristic-class calculus over the parity ring Q[P].

Building blocks: SuperScalar coefficients, truncated graded rings over
a point, a curve, or projective space, super vector bundles given by
the degrees of their formal Chern roots, twisted K-classes, a
Riemann-Roch engine for split supercurves, and virtual-dimension
calculators for moduli of stable supermaps.  Euler characteristics and
virtual dimensions are returned as SuperScalars.
"""

from .superscalar import ONE, PI, ZERO, NotInvertible, SuperScalar, pi_power
from .chowring import ChowModel, GradedElement, ModelMismatch, NotNilpotent
from .superbundle import NotPurelyOdd, SuperBundle
from .ktheory import (
    KClass,
    NormalData,
    ch_twisted,
    j_map,
    sigma1_normal,
    star_identity,
    star_product,
)
from .grr import (
    NonIntegralTwist,
    SplitSupercurve,
    chi_character_form,
    chi_super,
    gr_module,
    rr_oracle,
)
from .modulidim import (
    InvalidRank,
    ModuliParams,
    TargetSpec,
    bosonic_dimension,
    chi_gauge,
    evaluate_request,
    properness_hint,
    pullback_tangent,
    vdim_assembled,
    vdim_closed,
)

__version__ = "0.1.0"

__all__ = [
    "ONE",
    "PI",
    "ZERO",
    "SuperScalar",
    "pi_power",
    "NotInvertible",
    "ChowModel",
    "GradedElement",
    "ModelMismatch",
    "NotNilpotent",
    "SuperBundle",
    "NotPurelyOdd",
    "KClass",
    "NormalData",
    "sigma1_normal",
    "j_map",
    "star_product",
    "star_identity",
    "ch_twisted",
    "SplitSupercurve",
    "NonIntegralTwist",
    "gr_module",
    "chi_super",
    "chi_character_form",
    "rr_oracle",
    "ModuliParams",
    "TargetSpec",
    "InvalidRank",
    "pullback_tangent",
    "chi_gauge",
    "vdim_closed",
    "vdim_assembled",
    "bosonic_dimension",
    "properness_hint",
    "evaluate_request",
]
