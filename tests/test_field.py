"""Field layer: prime checks, modular/rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from combnull import (
    InputError,
    NotPrime,
    PrimeField,
    RationalField,
    is_prime,
)
from combnull.field import MAX_PRIME_EXCLUSIVE

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_is_prime_against_sieve():
    limit = 500
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


def test_is_prime_against_trial_division():
    for n in range(-2, 10**5):
        assert is_prime(n) == oracles.is_prime_trial(n), n


def test_is_prime_large():
    # strong pseudoprimes to the bases 2..7, 2..13 and 2..23, and to all of
    # 2..37: each base set alone would call it prime
    for n in (3215031751, 3474749660383, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    for n in ((1 << 61) - 1, (1 << 31) - 1):
        assert is_prime(n), n
    assert not is_prime((1 << 61) + 1)
    with pytest.raises(InputError):  # past the range where the test is exact
        is_prime(3317044064679887385961981)
    # the field refuses a large modulus before testing it
    for p in ((1 << 61) - 1, 10**30):
        with pytest.raises(InputError, match="2\\*\\*31"):
            PrimeField(p)


def test_prime_field_rejects_nonprimes():
    for bad in (-1, 0, 1, 4, 9, 100):
        with pytest.raises(NotPrime):
            PrimeField(bad)
    with pytest.raises(InputError):
        PrimeField(MAX_PRIME_EXCLUSIVE + 7)


def test_element_coercion():
    f = PrimeField(7)
    assert f.element(-1) == 6
    assert f.element(Fraction(1, 2)) == f.div(1, 2)
    with pytest.raises(ZeroDivisionError):
        f.element(Fraction(1, 7))  # denominator divisible by p
    with pytest.raises(InputError):
        f.element(2.5)
    with pytest.raises(InputError):
        f.element(True)
    q = RationalField()
    assert q.element(3) == Fraction(3)
    with pytest.raises(InputError):
        q.element(0.5)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_inverses_exhaustive(p):
    f = PrimeField(p)
    for x in range(1, p):
        inv = f.inv(x)
        assert f.mul(x, inv) == 1
        assert inv == oracles.inv_mod(x, p)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_rational_division_by_zero():
    q = RationalField()
    with pytest.raises(ZeroDivisionError):
        q.inv(0)
    with pytest.raises(ZeroDivisionError):
        q.div(1, 0)


@given(
    p=st.sampled_from(SMALL_PRIMES),
    a=st.integers(-50, 50),
    b=st.integers(-50, 50),
    c=st.integers(-50, 50),
)
def test_prime_field_ring_axioms(p, a, b, c):
    f = PrimeField(p)
    a, b, c = f.element(a), f.element(b), f.element(c)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    assert f.sub(a, b) == f.add(a, f.neg(b))


@given(
    a=st.fractions(max_denominator=20),
    b=st.fractions(max_denominator=20),
)
def test_rational_field_ops(a, b):
    q = RationalField()
    assert q.add(a, b) == a + b
    assert q.mul(a, b) == a * b
    assert q.sub(a, b) == a - b
    if b != 0:
        assert q.div(a, b) == a / b


def test_power_conventions():
    f = PrimeField(5)
    assert f.power(0, 0) == 1
    assert f.power(2, 0) == 1
    assert f.power(0, 3) == 0
    assert f.power(2, -1) == f.inv(2)  # negative powers invert
    q = RationalField()
    assert q.power(Fraction(0), 0) == 1
    assert q.power(Fraction(2), -2) == Fraction(1, 4)


def test_known_inverse_values():
    assert PrimeField(5).inv(2) == 3  # 2*3 = 6 = 1
    assert PrimeField(7).inv(3) == 5  # 3*5 = 15 = 1
    assert PrimeField(5).add(3, 4) == 2
    assert PrimeField(5).mul(2, 3) == 1
    assert RationalField().add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_field_equality_and_format():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert PrimeField(5) != RationalField()
    assert PrimeField(5).format(3) == "3"
    assert RationalField().format(Fraction(-1, 2)) == "-1/2"
