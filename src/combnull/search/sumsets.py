"""Sumsets A + B and A +' B in Z_p, and the Erdos-Heilbronn bound: the CLI's
``sumset``.  The Cauchy-Davenport certificate builds a polynomial and lives
in ``combinatorics``."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..errors import EmptyInput, FieldMismatch, RequiresDistinctSets, TheoremViolation
from ..field import PrimeField
from . import _Value, _members


def _binom_mod(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) % p


def _as_residue_set(field: PrimeField, elements: Sequence[int], name: str) -> tuple[int, ...]:
    if not isinstance(field, PrimeField):
        raise FieldMismatch("sumsets are defined over a prime field")
    out = sorted({field.element(x) for x in elements})
    if not out:
        raise EmptyInput(f"set {name} is empty")
    return tuple(out)


# The rotations route pays when p <= 3 |A| |B|.  Restricted sums on a 2-CPU
# x86_64 VM, Python 3.11, best of 5, rotations / pairs:
#   p = 997,     15 x 15   (p / |A||B| = 4.4)   0.039 / 0.043 ms
#   p = 10007,   50 x 50   (4.0)                0.43 / 0.36 ms
#   p = 100003,  200 x 200 (2.5)                5.7 / 6.1 ms
#   p = 100003,  150 x 150 (4.4)                4.9 / 3.5 ms
#   p = 1000003, 700 x 700 (2.0)                104 / 172 ms
#   p = 1000003, 50 x 50   (400)                35 / 0.6 ms
# A rotation costs p / 64 words and the read-back O(p), so a huge p with small
# sets keeps the pair set and never builds a p-bit int.
_ROTATION_BITS_PER_PAIR = 3


def _sumset(p: int, a: tuple[int, ...], b: tuple[int, ...], restricted: bool) -> tuple[int, ...]:
    """A + B, or A +' B (x != y) when restricted, of residue tuples, sorted."""
    if p <= _ROTATION_BITS_PER_PAIR * len(a) * len(b):
        return _sumset_by_rotations(p, a, b, restricted)
    if restricted:
        return tuple(sorted({(x + y) % p for x in a for y in b if x != y}))
    return tuple(sorted({(x + y) % p for x in a for y in b}))


def _sumset_by_rotations(
    p: int, a: tuple[int, ...], b: tuple[int, ...], restricted: bool
) -> tuple[int, ...]:
    """The sumset as one p-bit mask: the longer set's mask shifted by each
    element of the shorter (its own bit cleared first when restricted), ORed,
    folded mod p once and read back as residues in one pass."""
    if len(a) > len(b):  # both sums are symmetric in A and B
        a, b = b, a
    bits = bytearray(b"0") * p
    for y in b:
        bits[y] = ord("1")
    mask = int(bits[::-1], 2)
    reach = 0
    for x in a:
        reach |= (mask & ~(1 << x) if restricted else mask) << x
    reach = (reach | reach >> p) & ((1 << p) - 1)  # x + y < 2p wraps at most once
    return tuple(_members(range(p), reach))


def sumset(field: PrimeField, a_set: Sequence[int], b_set: Sequence[int]) -> tuple[int, ...]:
    """A + B = {x + y : x in A, y in B} in Z_p, sorted."""
    a = _as_residue_set(field, a_set, "A")
    b = _as_residue_set(field, b_set, "B")
    return _sumset(field.p, a, b, False)


def restricted_sumset(
    field: PrimeField, a_set: Sequence[int], b_set: Sequence[int]
) -> tuple[int, ...]:
    """A +' B = {x + y : x in A, y in B, x != y} in Z_p, sorted."""
    a = _as_residue_set(field, a_set, "A")
    b = _as_residue_set(field, b_set, "B")
    return _sumset(field.p, a, b, True)


class SumsetReport(_Value):
    """Outcome of a sumset lower-bound check, with optional certificate."""

    __slots__ = ("kind", "a_set", "b_set", "result", "bound", "satisfied", "certificate")

    def __init__(self, kind: str, a_set: tuple[int, ...], b_set: tuple[int, ...],
                 result: tuple[int, ...], bound: int, satisfied: bool,
                 certificate: Optional[int] = None):
        super().__init__(kind, a_set, b_set, result, bound, satisfied, certificate)


def erdos_heilbronn_check(
    field: PrimeField, a_set: Sequence[int], b_set: Sequence[int] | None = None
) -> SumsetReport:
    """Restricted-sumset lower bounds.

    Two-set form: for A != B, |A +' B| >= min(|A| + |B| - 2, p).
    One-set form (b_set omitted): |A +' A| >= min(2|A| - 3, p), reported
    as 0 for a singleton, where A +' A is empty.  Of any
    x != y in A one exceeds min A, so A +' A = (A minus min A) +' A, and the
    one-set form is computed as that pair: the same sumset, bound and
    certificate, reported with kind erdos-heilbronn-self and B = A.
    The certificate is the difference C(a+b-3, a-2) - C(a+b-3, a-1) mod p,
    the top coefficient of (x - y) * prod(x + y - c); it is nonzero exactly
    because the set sizes a and b differ.
    """
    a = _as_residue_set(field, a_set, "A")
    p = field.p
    if b_set is None:
        kind, left, b = "erdos-heilbronn-self", a[1:], a
    else:
        kind, left, b = "erdos-heilbronn", a, _as_residue_set(field, b_set, "B")
        if a == b:
            raise RequiresDistinctSets("the two-set form needs A != B")
    na, nb = len(left), len(b)
    result = _sumset(p, left, b, True)
    bound = max(min(na + nb - 2, p), 0)
    satisfied = len(result) >= bound
    if not satisfied:
        raise TheoremViolation(
            f"Erdos-Heilbronn bound violated: |{kind}| = {len(result)} < {bound} "
            f"for A = {a}, B = {b} over Z_{p}"
        )
    certificate = None
    if na != nb and 3 <= na + nb <= p + 2:
        m = na + nb - 3
        value = (_binom_mod(m, na - 2, p) - _binom_mod(m, na - 1, p)) % p
        if value == 0:
            raise TheoremViolation(
                f"Erdos-Heilbronn certificate vanished: C({m},{na - 2}) - "
                f"C({m},{na - 1}) = 0 mod {p} despite unequal sizes"
            )
        certificate = value
    return SumsetReport(kind, a, b, result, bound, satisfied, certificate)
