"""Exact scalar arithmetic over Z_p (p prime) and over the rationals.

Scalars are plain Python values: canonical residues in ``[0, p)`` for a prime
field and ``fractions.Fraction`` (lowest terms, positive denominator) for the
rational field.  The field objects supply the arithmetic, which keeps the hot
grid-enumeration loops free of per-element wrapper objects.  All operations
are exact; nothing here is suitable for cryptographic use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import BadInput, NotPrime

Scalar = Union[int, Fraction]

# Residues of admissible primes fit in a machine word even after one product.
MAX_PRIME_EXCLUSIVE = 1 << 31


# Miller-Rabin bases: the first 13 primes.  No composite below
# _MILLER_RABIN_LIMIT is a strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 2017), so below it the test is exact; the first 12
# alone are all fooled by 318665857834031151167461.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below about 3.3 * 10**24.

    Larger n raise BadInput instead of risking a wrong answer.
    """
    if n < 2:
        return False
    if n >= _MILLER_RABIN_LIMIT:
        raise BadInput(f"primality is decided only below {_MILLER_RABIN_LIMIT}, got {n}")
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # a composite this small has a prime factor up to 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z_p.  Elements are canonical residues in ``[0, p)``."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        # the bound comes first, so a huge modulus is refused without a
        # primality test
        if isinstance(p, int) and p >= MAX_PRIME_EXCLUSIVE:
            raise BadInput(f"prime modulus must be < 2**31, got {p}")
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise NotPrime(f"modulus must be a prime >= 2, got {p!r}")
        self.p = p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def element(self, x: Scalar) -> int:
        """Coerce an integer (or an invertible fraction) to its residue."""
        if isinstance(x, bool):
            raise BadInput(f"not a scalar: {x!r}")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        raise BadInput(f"cannot coerce {x!r} into Z_{self.p}")

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.p

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.p

    def neg(self, x: int) -> int:
        return -x % self.p

    def inv(self, x: int) -> int:
        # pow(x, -1, p) is the stdlib extended-Euclid inverse, not Fermat.
        if x % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in Z_{self.p}")
        return pow(x, -1, self.p)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def power(self, x: int, k: int) -> int:
        """x**k mod p with the 0**0 = 1 convention (pow already obeys it)."""
        if k < 0:
            return self.inv(pow(x, -k, self.p))
        return pow(x, k, self.p)

    def is_zero(self, x: int) -> bool:
        return x % self.p == 0

    def format(self, x: int) -> str:
        return str(x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class RationalField:
    """Exact rational numbers, the stand-in here for a characteristic-0 field."""

    __slots__ = ()

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def element(self, x: Scalar) -> Fraction:
        if isinstance(x, bool):
            raise BadInput(f"not a scalar: {x!r}")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise BadInput(f"cannot coerce {x!r} into the rationals")

    def add(self, x: Fraction, y: Fraction) -> Fraction:
        return x + y

    def sub(self, x: Fraction, y: Fraction) -> Fraction:
        return x - y

    def mul(self, x: Fraction, y: Fraction) -> Fraction:
        return x * y

    def neg(self, x: Fraction) -> Fraction:
        return -x

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return 1 / Fraction(x)

    def div(self, x: Fraction, y: Fraction) -> Fraction:
        if y == 0:
            raise ZeroDivisionError("division by 0")
        return Fraction(x) / y

    def power(self, x: Fraction, k: int) -> Fraction:
        return Fraction(x) ** k

    def is_zero(self, x: Fraction) -> bool:
        return x == 0

    def format(self, x: Fraction) -> str:
        return str(x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "RationalField()"


FieldSpec = Union[PrimeField, RationalField]
