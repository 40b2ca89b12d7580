import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supergrr import ONE, PI, ZERO, NotInvertible, SuperScalar, pi_power

scalars = st.builds(
    SuperScalar,
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
)


def test_pi_squares_to_one():
    assert PI * PI == ONE


def test_one_is_identity():
    x = SuperScalar(Fraction(3, 7), Fraction(-2, 5))
    assert ONE * x == x
    assert x * ONE == x


def test_product_rule_example():
    assert SuperScalar(1, -1) * SuperScalar(1, -1) == SuperScalar(2, -2)


def test_mixed_product():
    # (2 + 3P)(1 - P) = (2 - 3) + P(-2 + 3)
    assert SuperScalar(2, 3) * SuperScalar(1, -1) == SuperScalar(-1, 1)


def test_invert_rational():
    assert SuperScalar(2).invert() == SuperScalar(Fraction(1, 2))


def test_invert_pi():
    assert PI.invert() == PI


@pytest.mark.parametrize("body,soul", [(1, -1), (1, 1), (0, 0), (3, 3), (-2, 2)])
def test_zero_divisors_not_invertible(body, soul):
    with pytest.raises(NotInvertible):
        SuperScalar(body, soul).invert()


def test_one_minus_pi_annihilates_one_plus_pi():
    assert (ONE - PI) * (ONE + PI) == ZERO


def test_idempotents():
    half = Fraction(1, 2)
    e_plus = (ONE + PI) * half
    e_minus = (ONE - PI) * half
    assert e_plus * e_plus == e_plus
    assert e_minus * e_minus == e_minus
    assert e_plus * e_minus == ZERO
    assert e_plus + e_minus == ONE


def test_pi_power():
    assert pi_power(0) == ONE
    assert pi_power(1) == PI
    assert pi_power(2) == ONE
    assert pi_power(7) == PI


@given(scalars, scalars)
def test_commutativity(x, y):
    assert x * y == y * x
    assert x + y == y + x


@given(scalars, scalars, scalars)
def test_associativity_and_distributivity(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars)
def test_invert_is_involutive(x):
    if x.body**2 != x.soul**2:
        assert x.invert().invert() == x
        assert x * x.invert() == ONE
    else:
        with pytest.raises(NotInvertible):
            x.invert()


def test_ring_axioms_bulk():
    """Deterministic sweep of the ring axioms, at least 10**4 cases."""
    rng = random.Random(20240915)

    def draw():
        return SuperScalar(
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
        )

    for _ in range(10_000):
        x, y, z = draw(), draw(), draw()
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)
        assert x + ZERO == x and x * ONE == x
        if x.body**2 != x.soul**2:
            inv = x.invert()
            assert x * inv == ONE
            assert inv.invert() == x


# -- rendering and parsing ---------------------------------------------------


@pytest.mark.parametrize(
    "value,text",
    [
        (SuperScalar(4, -2), "4 - 2*P"),
        (SuperScalar(Fraction(1, 2), Fraction(3, 4)), "1/2 + (3/4)*P"),
        (PI, "P"),
        (SuperScalar(0, -1), "-P"),
        (SuperScalar(0, Fraction(-1, 3)), "-(1/3)*P"),
        (ZERO, "0"),
        (SuperScalar(Fraction(-7, 3)), "-7/3"),
    ],
)
def test_text_rendering(value, text):
    assert str(value) == text


@given(scalars)
def test_json_round_trip(x):
    blob = json.dumps(x.to_json())
    assert SuperScalar.from_json(json.loads(blob)) == x


def test_coercion_in_arithmetic():
    assert SuperScalar(1) + 2 == SuperScalar(3)
    assert 2 * PI == SuperScalar(0, 2)
    assert Fraction(1, 2) * SuperScalar(4) == SuperScalar(2)
    with pytest.raises(TypeError):
        SuperScalar(1) + 1.5


def test_multiplication_refuses_bools():
    with pytest.raises(TypeError):
        SuperScalar(2) * True


def test_addition_refuses_bools():
    with pytest.raises(TypeError):
        True + SuperScalar(2)


@pytest.mark.parametrize(
    "obj",
    [{"body": 0.1}, {"body": "1", "soul": 0.5}, {"body": True}, {"soul": None}, {"body": "1/0"},
     {"body": "0.1"}, ["1", "0"]],
    ids=repr,
)
def test_json_refuses_inexact_numbers(obj):
    with pytest.raises(ValueError):
        SuperScalar.from_json(obj)


@pytest.mark.parametrize("key", ["sould", "Body", "value"])
def test_json_names_unknown_key(key):
    with pytest.raises(ValueError, match=f"^unknown key '{key}' in scalar$"):
        SuperScalar.from_json({"body": "1", key: "2"})


@pytest.mark.parametrize(
    "body,soul",
    [(0.1, 0), (True, 0), (None, 0), (1, 0.5), (1, False), ("1.5", 0)],
    ids=repr,
)
def test_constructor_refuses_inexact_numbers(body, soul):
    with pytest.raises(ValueError):
        SuperScalar(body, soul)


def test_constructor_reads_exact_numbers():
    assert SuperScalar("-3/4", 2) == SuperScalar(Fraction(-3, 4), Fraction(2))
