"""Permutations making pairwise sums distinct (Snevily and its mod-n form),
by an iterative search with a step budget: the CLI's ``snevily``."""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import (
    BadInput,
    EmptyInput,
    ResourceLimit,
    SizeMismatch,
    TheoremViolation,
    _check_positive_int,
)
from ..field import is_prime


def snevily_solve(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """Snevily-type pairing in Z_p, p an odd prime.

    Given a_1..a_k (arbitrary) and pairwise distinct b_1..b_k with k < p,
    returns the lexicographically smallest permutation sigma (1-based, as
    positions into b) making a_i + b_sigma(i) pairwise distinct.  Existence
    is guaranteed, so exhausting the search raises TheoremViolation; a search
    that outgrows its node budget raises ResourceLimit.
    """
    if not is_prime(p) or p == 2:
        raise BadInput(f"need an odd prime, got {p!r}")
    if len(a) != len(b):
        raise SizeMismatch(f"{len(a)} left elements vs {len(b)} right elements")
    k = len(a)
    if k < 1:
        raise EmptyInput("need at least one element per side")
    if k >= p:
        raise BadInput(f"need k < p, got k = {k}, p = {p}")
    ares = [x % p for x in a]
    bres = [x % p for x in b]
    if len(set(bres)) != k:
        raise BadInput("right-side elements must be pairwise distinct mod p")

    perm = _distinct_sum_permutation(ares, bres, p)
    if perm is None:
        raise TheoremViolation(
            f"Snevily guarantee violated for a = {ares}, b = {bres} over Z_{p}"
        )
    return _check_distinct_sums(perm, ares, bres, p)


def snevily_mod_n(
    a: Sequence[int], n: int, force_search: bool = False
) -> Optional[tuple[int, ...]]:
    """Permutation sigma of {1..k} with a_i + sigma(i) pairwise distinct mod n.

    Guaranteed whenever 2k <= n + 1; inputs beyond that are rejected unless
    force_search is set, in which case None reports a fruitless search.  A
    search that outgrows its node budget raises ResourceLimit.
    """
    _check_positive_int(n, "modulus", BadInput)
    k = len(a)
    if k < 1:
        raise EmptyInput("need at least one element")
    hypothesis = 2 * k <= n + 1
    if not hypothesis and not force_search:
        raise BadInput(f"need 2k <= n + 1, got k = {k}, n = {n}")
    ares = [x % n for x in a]
    b = list(range(1, k + 1))
    perm = _distinct_sum_permutation(ares, b, n)
    if perm is None:
        if hypothesis:
            raise TheoremViolation(
                f"distinct-sum guarantee violated for a = {ares} mod {n}"
            )
        return None
    return _check_distinct_sums(perm, ares, b, n)


def _check_distinct_sums(sigma, a: list[int], b: list[int], modulus: int) -> tuple[int, ...]:
    """sigma, once it is a permutation of 1..k with a_i + b[sigma(i)-1]
    pairwise distinct mod the modulus; TheoremViolation otherwise."""
    k = len(a)
    is_perm = sorted(sigma) == list(range(1, k + 1))
    if not is_perm or len({(x + b[j - 1]) % modulus for x, j in zip(a, sigma)}) != k:
        raise TheoremViolation(f"distinct-sum permutation {sigma} failed re-validation")
    return sigma


# Steps the distinct-sum search may take, counting each candidate position
# it tests and each level it backs out of, before giving up with
# ResourceLimit (about a second of search).
_SEARCH_NODE_CAP = 1 << 24


def _distinct_sum_permutation(
    a: list[int], b: list[int], modulus: int
) -> Optional[tuple[int, ...]]:
    """Backtracking core: smallest sigma with a_i + b[sigma(i)-1] distinct.

    Depth-first over an explicit stack of chosen positions, trying positions
    in ascending order, so the first complete sigma is the lexicographically
    smallest.  None when the search is exhausted; ResourceLimit once it has
    taken more than _SEARCH_NODE_CAP steps.
    """
    k = len(a)
    used_pos = [False] * k
    used_val: set[int] = set()
    stack: list[int] = []  # 0-based positions into b, one per placed a_i
    j = 0  # next candidate position for a[len(stack)]
    tried = 0
    while len(stack) < k:
        ai = a[len(stack)]
        first = j
        while j < k and (used_pos[j] or (ai + b[j]) % modulus in used_val):
            j += 1
        tried += j - first + 1
        if tried > _SEARCH_NODE_CAP:
            raise ResourceLimit(
                f"distinct-sum search passed its budget of {_SEARCH_NODE_CAP} steps"
            )
        if j < k:
            used_pos[j] = True
            used_val.add((ai + b[j]) % modulus)
            stack.append(j)
            j = 0
        elif not stack:
            return None
        else:
            j = stack.pop()
            used_pos[j] = False
            used_val.remove((a[len(stack)] + b[j]) % modulus)
            j += 1
    return tuple(j + 1 for j in stack)
