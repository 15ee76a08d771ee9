"""Erdos-Ginzburg-Ziv and Olson zero sums, one packed bitset DP over Z_p^k:
the CLI's ``egz`` and ``olson``."""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import (
    BadInput,
    BadLength,
    NotPrime,
    ResourceLimit,
    SizeMismatch,
    TheoremViolation,
    _check_grid_cap,
    _check_positive_int,
)
from ..field import is_prime
from . import _PackedStates


def _distinct_indices(indices: Sequence[int], size: int) -> bool:
    return len(set(indices)) == len(indices) and all(0 <= i < size for i in indices)


def egz_valid(nums: Sequence[int], p: int, indices: Sequence[int]) -> bool:
    """True iff indices name p distinct positions of nums summing to 0 mod p."""
    return (
        len(indices) == p > 0
        and _distinct_indices(indices, len(nums))
        and sum(nums[i] for i in indices) % p == 0
    )


def egz_inputs(nums: Sequence[int], p: int) -> list[int]:
    """The input checks of egz_solve: a prime p and exactly 2p - 1 integers."""
    if not is_prime(p):
        raise NotPrime(f"EGZ needs a prime modulus, got {p!r}")
    nums = list(nums)
    if len(nums) != 2 * p - 1:
        raise BadLength(f"EGZ needs exactly {2 * p - 1} integers for p = {p}, got {len(nums)}")
    return nums


def egz_solve(nums: Sequence[int], p: int) -> tuple[int, ...]:
    """Erdos-Ginzburg-Ziv: among 2p - 1 integers, p of them sum to 0 mod p.

    Returns the lexicographically smallest index set.  These are exactly the
    nonempty zero-sum subsets of the vectors (1, a_i) in Z_p^2 (a count that
    is 0 mod p and below 2p is p), so Olson's search finds it; p <= 1021.
    """
    nums = egz_inputs(nums, p)
    chosen = _lexmin_zero_sum([(1, x % p) for x in nums], p, 2)
    if not egz_valid(nums, p, chosen):
        raise TheoremViolation(
            f"EGZ guarantee violated: no p-subset with zero sum among {nums} mod {p}"
        )
    return chosen


def olson_valid(vectors: Sequence[Sequence[int]], p: int, indices: Sequence[int]) -> bool:
    """True iff indices name a nonempty set of distinct vectors whose sum is
    0 mod p in every coordinate."""
    return (
        bool(indices)
        and _distinct_indices(indices, len(vectors))
        and not any(sum(column) % p for column in zip(*(vectors[i] for i in indices)))
    )


def olson_inputs(
    vectors: Sequence[Sequence[int]], p: int, k: int | None = None
) -> tuple[list[tuple[int, ...]], int | None]:
    """The input checks of olson_solve: (vectors as tuples, dimension).

    The modulus must be prime; a nonempty family needs k >= 1 (taken from
    the first vector when omitted) and every vector of length k.
    """
    if not is_prime(p):
        raise NotPrime(f"zero-sum search needs a prime modulus, got {p!r}")
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return vecs, k
    if k is None:
        k = len(vecs[0])
    if k < 1:
        raise BadInput(f"dimension must be >= 1, got {k}")
    for v in vecs:
        if len(v) != k:
            raise SizeMismatch(f"vector {v} does not have dimension {k}")
    return vecs, k


def olson_solve(
    vectors: Sequence[Sequence[int]], p: int, k: int | None = None
) -> Optional[tuple[int, ...]]:
    """Nonempty subset of vectors in Z_p^k summing to zero, if one exists.

    Any family of k(p - 1) + 1 or more vectors must contain one (Davenport
    constant of Z_p^k); below that threshold None is a legitimate answer.
    Returns the lexicographically smallest index subset.
    """
    vecs, k = olson_inputs(vectors, p, k)
    if not vecs:
        return None
    chosen = _lexmin_zero_sum([tuple(x % p for x in v) for v in vecs], p, k)
    if not chosen:
        if len(vecs) >= k * (p - 1) + 1:
            raise TheoremViolation(
                f"Davenport bound violated: {len(vecs)} >= {k * (p - 1) + 1} vectors in "
                f"Z_{p}^{k} admit no nonempty zero-sum subset"
            )
        return None
    if not olson_valid(vecs, p, chosen):
        raise TheoremViolation(f"zero-sum witness {chosen} failed re-validation")
    return chosen


def _lexmin_zero_sum(vecs: Sequence[tuple[int, ...]], p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest nonempty index set of vecs (residue
    k-tuples) summing to zero in Z_p^k; () when there is none.

    reach[i] holds the subset sums of vecs[i:] as one packed set of p^k
    bits; the forward pass takes i whenever the state after it can still
    reach zero from i + 1.  ResourceLimit past 2^20 states, or past 2^31
    bits (256 MiB) for the m + 1 sets together.
    """
    if p**k > 1 << 20:  # 128 KiB per suffix set
        raise ResourceLimit(f"state space Z_{p}^{k} too large to search")
    if (len(vecs) + 1) * p**k > 1 << 31:
        raise ResourceLimit(f"{len(vecs) + 1} suffix sets of {p**k} states exceed 2^31 bits")
    space = _PackedStates([p] * k, [True] * k)
    reach = [1]  # the empty sum, state 0
    for v in reversed(vecs):
        reach.append(reach[-1] | space.add(reach[-1], [(d, x) for d, x in enumerate(v) if x]))
    reach.reverse()
    chosen, state = [], (0,) * k
    for i, v in enumerate(vecs):
        nxt = tuple((a + b) % p for a, b in zip(state, v))
        # completion may be empty once something is chosen
        if reach[i + 1] >> sum(-x % p * step for x, step in zip(nxt, space.steps)) & 1:
            chosen.append(i)
            state = nxt
            if not any(state):
                break
    return tuple(chosen)


def olson_lower_witness(
    k: int, p: int, max_points: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """k(p - 1) vectors with no nonempty zero-sum subset: each basis vector
    of Z_p^k repeated p - 1 times.  Its k·k(p - 1) entries are counted
    against the grid cap before the prime and dimension checks."""
    _check_grid_cap(max(k, 0) ** 2 * (p - 1), max_points,
                    "the extremal family has {count} entries, cap is {cap}")
    if not is_prime(p):
        raise NotPrime(f"need a prime modulus, got {p!r}")
    _check_positive_int(k, "dimension", BadInput)
    basis = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return tuple(e for e in basis for _ in range(p - 1))
