"""K-classes on a superscheme through their Chern-character images.

On the bosonic reductions in scope the Chern character is injective, so
a K-class is stored faithfully as a graded element.  The embedding of
the bosonic reduction X into the ambient superscheme contributes the
purely odd conormal data N*, stored like a bundle's degrees (see
superbundle): the root degrees nu_j as integer numerators over one
reduced positive denominator, so equal data compare and hash equal on
ints alone.  Its class

    sigma_1(N*) = prod_j (1 + e**nu_j) = 2**s * exp(sum_k upsilon'_k p_k(nu) x**k)

has invertible leading coefficient 2**s and twists everything: the map
j multiplies by sigma_1(N*), the star product divides one copy back
out, and the twisted character ch_S divides by sigma_1(N*).  The inverse
is the same closed form with the exponent negated and 2**-s in front
(see superbundle), so no series inversion is needed.  Both classes are
memoised per normal datum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chowring import ChowModel, GradedElement, ModelMismatch
from .superbundle import SuperBundle
from .superscalar import SuperScalar


@dataclass(frozen=True, slots=True)
class NormalData:
    """Bosonic root degrees of the parity-shifted conormal sheaf of X in the ambient superscheme.

    The degrees are normal[j] / denominator, in the canonical form of a
    SuperBundle's odd part; the raw constructor neither parses nor
    reduces, so build normal data with from_degrees or bosonic.
    """

    model: ChowModel
    normal: tuple[int, ...]
    denominator: int

    @classmethod
    def bosonic(cls, model: ChowModel) -> "NormalData":
        """Ambient space equal to its bosonic reduction: no odd directions."""
        return cls(model, (), 1)

    @classmethod
    def from_degrees(cls, model: ChowModel, degrees) -> "NormalData":
        """Normal data from a list of exact degrees (int, Fraction or "p/q")."""
        conormal = SuperBundle.from_degrees(model, (), degrees)
        return cls(model, conormal.odd, conormal.denominator)

    @property
    def normal_degs(self) -> tuple[Fraction, ...]:
        """The conormal root degrees as Fractions (boundary view)."""
        return self.conormal_bundle().odd_degs

    @property
    def normal_roots(self) -> tuple[GradedElement, ...]:
        return self.conormal_bundle().odd_roots

    def conormal_bundle(self) -> SuperBundle:
        """N* as a purely odd bundle (rank 0|s)."""
        return SuperBundle(self.model, (), self.normal, self.denominator)

    def normal_bundle(self) -> SuperBundle:
        return self.conormal_bundle().dual()

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "normal_roots": [str(d) for d in self.normal_degs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NormalData":
        model = ChowModel.from_json(obj["model"])
        return cls.from_degrees(model, obj.get("normal_roots", []))


@dataclass(frozen=True, slots=True)
class KClass:
    """K-theory class identified with its Chern-character image."""

    ch_image: GradedElement

    @property
    def model(self) -> ChowModel:
        return self.ch_image.model

    @classmethod
    def unit(cls, model: ChowModel) -> "KClass":
        return cls(GradedElement.one(model))

    @classmethod
    def from_bundle(cls, bundle: SuperBundle) -> "KClass":
        return cls(bundle.chern_character())

    def __mul__(self, other: "KClass") -> "KClass":
        """Untwisted product, i.e. the product of character images."""
        return KClass(self.ch_image.ring_mul(other.ch_image))

    def to_json(self) -> dict:
        return {"ch_image": self.ch_image.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "KClass":
        return cls(GradedElement.from_json(obj["ch_image"]))


def _check_model(x_model: ChowModel, nd: NormalData) -> None:
    if x_model != nd.model:
        raise ModelMismatch(f"{x_model} vs {nd.model}")


@lru_cache(maxsize=16)
def _sigma1_classes(nd: NormalData) -> tuple[GradedElement, GradedElement]:
    """sigma_1(N*) and its inverse, shared by every call on the same normal data."""
    conormal = nd.conormal_bundle()
    return conormal.sigma1(), conormal.sigma1_inverse()


def sigma1_normal(nd: NormalData) -> GradedElement:
    """sigma_1(N*) = prod (1 + e**nu_j); equals 1 on a bosonic ambient space."""
    return _sigma1_classes(nd)[0]


def j_map(x: KClass, nd: NormalData) -> KClass:
    """Multiplication by sigma_1(N*): the class of the twisted graded module."""
    _check_model(x.model, nd)
    return KClass(x.ch_image.ring_mul(sigma1_normal(nd)))


def star_product(x: KClass, y: KClass, nd: NormalData) -> KClass:
    """x * y = x . y . sigma_1(N*)**-1, with identity sigma_1(N*)."""
    _check_model(x.model, nd)
    _check_model(y.model, nd)
    product = x.ch_image.ring_mul(y.ch_image)
    return KClass(product.ring_mul(_sigma1_classes(nd)[1]))


def star_identity(nd: NormalData) -> KClass:
    return KClass(sigma1_normal(nd))


def ch_twisted(x: KClass, nd: NormalData) -> GradedElement:
    """Twisted character ch_S(x) = ch(x . sigma_1(N*)**-1)."""
    _check_model(x.model, nd)
    return x.ch_image.ring_mul(_sigma1_classes(nd)[1])


def pullback_from_point(value: SuperScalar, nd: NormalData) -> KClass:
    """Pullback of a point class along the structure morphism.

    A class on the point is a scalar; its pullback is the corresponding
    constant class in the twisted ring, so its twisted character is the
    constant again.
    """
    constant = KClass(GradedElement.scalar(nd.model, value))
    return j_map(constant, nd)
