"""K-classes on a superscheme through their Chern-character images.

On the bosonic reductions in scope the Chern character is injective, so
a K-class is stored faithfully as a graded element.  The embedding of
the bosonic reduction X into the ambient superscheme contributes the
purely odd conormal sheaf N*, held as the rank 0|s SuperBundle with
bosonic root degrees nu_j, so equal data compare and hash equal as
bundles do.  Its class

    sigma_1(N*) = prod_j (1 + e**nu_j) = 2**s * exp(sum_k upsilon'_k p_k(nu) x**k)

has invertible leading coefficient 2**s and twists everything: the map
j multiplies by sigma_1(N*), the star product divides one copy back
out, and the twisted character ch_S divides by sigma_1(N*).  The inverse
is the same closed form with the exponent negated and 2**-s in front
(see superbundle), so no series inversion is needed.  The memo here
wraps SuperBundle.sigma1_pair, which builds both with one kernel.

On split P^{r|s}, gr O(k) = sum_j Lambda^j(O(-1)**s) (x) O(k), in parity
j, has chi_S = sum_j C(s, j) (-P)**j chi(O(k - j)).  For N* = O(-1)**s,
integral(j(ch O(k)) td) is body - soul of that value: sigma_1 carries no
P, so j forgets parity.  Whether MPV's twist should carry P is open.

A KClass is built from its character image, and normal data from exact
degrees with NormalData.from_degrees; neither has a JSON form.
"""

from __future__ import annotations

from functools import lru_cache

from .chowring import ChowModel, GradedElement
from .superbundle import SuperBundle
from .superscalar import Value, set_field


class NormalData(Value):
    """The conormal sheaf N* of X in the ambient superscheme, as a rank 0|s bundle.

    Build normal data with from_degrees; the raw constructor
    NormalData(conormal) takes the SuperBundle as it is, so
    NormalData(SuperBundle.zero(model)) is an ambient space with no odd
    directions.
    """

    __slots__ = ("conormal",)

    def __init__(self, conormal: SuperBundle) -> None:
        set_field(self, "conormal", conormal)

    @classmethod
    def from_degrees(cls, model: ChowModel, degrees) -> "NormalData":
        """Normal data from a list of exact degrees (int, Fraction or "p/q")."""
        return cls(SuperBundle.from_degrees(model, (), degrees))


class KClass(Value):
    """K-theory class identified with its Chern-character image."""

    __slots__ = ("ch_image",)

    def __init__(self, ch_image: GradedElement) -> None:
        set_field(self, "ch_image", ch_image)

    def __mul__(self, other: "KClass") -> "KClass":
        """Untwisted product, i.e. the product of character images."""
        return KClass(self.ch_image.ring_mul(other.ch_image))


# sigma_1(N*) and its inverse, shared by calls on the same conormal bundle
_sigma1_classes = lru_cache(maxsize=16)(SuperBundle.sigma1_pair)


def sigma1_normal(nd: NormalData) -> GradedElement:
    """sigma_1(N*) = prod (1 + e**nu_j); equals 1 on a bosonic ambient space."""
    return _sigma1_classes(nd.conormal)[0]


def j_map(x: KClass, nd: NormalData) -> KClass:
    """Multiplication by sigma_1(N*): the class of the twisted graded module."""
    return KClass(x.ch_image.ring_mul(sigma1_normal(nd)))


def star_product(x: KClass, y: KClass, nd: NormalData) -> KClass:
    """x * y = x . y . sigma_1(N*)**-1, with identity sigma_1(N*)."""
    product = x.ch_image.ring_mul(y.ch_image)
    return KClass(product.ring_mul(_sigma1_classes(nd.conormal)[1]))


def star_identity(nd: NormalData) -> KClass:
    return KClass(sigma1_normal(nd))


def ch_twisted(x: KClass, nd: NormalData) -> GradedElement:
    """Twisted character ch_S(x) = ch(x . sigma_1(N*)**-1)."""
    return x.ch_image.ring_mul(_sigma1_classes(nd.conormal)[1])
