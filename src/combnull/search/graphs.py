"""Nonempty p-regular subgraphs, searched on the p-core by a packed bitset
DP: the CLI's ``regular-subgraph``."""

from __future__ import annotations

import collections
from typing import Iterable, Optional, Sequence

from ..errors import (
    BadInput,
    GridTooLarge,
    HypothesisViolated,
    NotPrime,
    TheoremViolation,
    _check_positive_int,
)
from ..field import is_prime
from . import _PackedStates, _Value


class Graph(_Value):
    """Simple undirected graph on vertices 0..n_vertices-1, edges sorted (a
    tuple of (u, v) with u < v)."""

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: Iterable[Sequence[int]]):
        _check_positive_int(n_vertices, "vertex count", BadInput)
        seen = set()
        canon = []
        for raw in edges:
            e = tuple(raw)
            if len(e) != 2:
                raise BadInput(f"an edge is a pair of vertices, got {raw!r}")
            u, v = e
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v)):
                raise BadInput(f"edge endpoints must be integers, got {raw!r}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise BadInput(f"edge {e} references a vertex outside 0..{n_vertices - 1}")
            if u == v:
                raise BadInput(f"loop at vertex {u} not allowed")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise BadInput(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        super().__init__(n_vertices, tuple(sorted(canon)))

    def degrees(self) -> list[int]:
        out = [0] * self.n_vertices
        for u, v in self.edges:
            out[u] += 1
            out[v] += 1
        return out


def regular_subgraph_valid(graph: Graph, p: int, edges: Iterable[Sequence[int]]) -> bool:
    """True iff edges are distinct edges of graph, in either orientation, and
    form a nonempty subgraph in which every vertex has degree 0 or p."""
    claimed = [tuple(sorted(e)) for e in edges]
    if not claimed or len(set(claimed)) != len(claimed) or not set(claimed) <= set(graph.edges):
        return False
    return all(d in (0, p) for d in Graph(graph.n_vertices, claimed).degrees())


def regular_subgraph_inputs(p: int) -> None:
    """The input check of regular_subgraph_find that a claim also takes: a
    prime p."""
    if not is_prime(p):
        raise NotPrime(f"need a prime p, got {p!r}")


_REGULAR_EDGE_CAP = 24  # the one work bound of the regular-subgraph search


def regular_subgraph_find(
    graph: Graph, p: int, force_search: bool = False
) -> Optional[tuple[tuple[int, int], ...]]:
    """Find a nonempty edge subset whose induced subgraph is p-regular.

    Hypotheses (checked unless force_search): every degree < 2p and average
    degree > 2p - 2.  Under them a nonempty selection exists whose vertex
    degrees are all 0 mod p (Alon-Friedland-Kalai); sub-2p degrees then force
    exactly p on touched vertices.  Returns the subset with the numerically
    smallest edge mask over the sorted edge list (bit j = edge j), or None.
    The search (_min_regular_mask) runs on the p-core and takes at most 24
    edges, so at most 3^16 packed degree states (16 cubic vertices, p = 3).
    """
    regular_subgraph_inputs(p)
    m = len(graph.edges)
    if m > _REGULAR_EDGE_CAP:
        raise GridTooLarge(f"{m} edges exceeds the search cap of {_REGULAR_EDGE_CAP}")
    degrees = graph.degrees()
    big = next((v for v, d in enumerate(degrees) if d >= 2 * p), None)
    sparse = 2 * m <= (2 * p - 2) * graph.n_vertices
    if big is not None and not force_search:
        raise HypothesisViolated(f"vertex {big} has degree {degrees[big]} >= 2p = {2 * p}")
    if sparse and not force_search:
        raise HypothesisViolated(
            f"average degree {2 * m}/{graph.n_vertices} is not above 2p - 2 = {2 * p - 2}")
    mask = _min_regular_mask(graph.edges, p)
    if mask is None and big is None and not sparse:
        raise TheoremViolation(f"regular-subgraph guarantee violated: degrees {degrees} "
                               f"admit no {p}-regular edge subset")
    if mask is None:
        return None
    selected = tuple(graph.edges[j] for j in range(m) if mask >> j & 1)
    if not regular_subgraph_valid(graph, p, selected):
        raise TheoremViolation(f"selected edge subset {selected} is not {p}-regular on its support")
    return selected


def _min_regular_mask(edges: Sequence[tuple[int, int]], p: int) -> Optional[int]:
    """Smallest nonzero bitmask (bit j = edges[j]) whose edges meet every
    vertex 0 or p times; None when there is none.

    Such a subgraph has degree p on its support, so it lies in the p-core,
    and only core edges are searched.  A core vertex is one digit of a packed
    state: its degree mod p when its core degree is below 2p (0 mod p then
    means 0 or p), else its exact degree 0..p.  reach[j] holds the degree
    states of the subsets of core edges before j.  The highest edge of the
    answer is the first j for which edge j takes reach[j] onto a target;
    below it, edge i is kept only when reach[i] cannot complete the sum.
    """
    core, kept = None, list(enumerate(edges))
    while kept != core:  # peel the vertices of degree below p
        core, degree = kept, collections.Counter(v for _, e in kept for v in e)
        kept = [(j, e) for j, e in core if min(degree[e[0]], degree[e[1]]) >= p]
    slot = {v: d for d, v in enumerate(degree)}
    exact = [degree[v] >= 2 * p for v in degree]
    space = _PackedStates([p + 1 if x else p for x in exact], [not x for x in exact])

    def completions(chosen: Sequence[int]) -> int:
        """The states s with s + chosen on a target: residue digits at 0,
        exact digits at 0 or p."""
        states = 1 << sum(-c % p * step for c, step in zip(chosen, space.steps))
        for c, x, step in zip(chosen, exact, space.steps):
            if x and not c:
                states |= states << p * step
        return states

    target, reach = completions([0] * len(exact)), [1]  # the empty subset
    for top, (_, (u, v)) in enumerate(core):
        states = space.add(reach[-1], ((slot[u], 1), (slot[v], 1)))
        if states & target:
            break
        reach.append(reach[-1] | states)
    else:
        return None
    mask, chosen = 0, [0] * len(exact)
    for i in reversed(range(top + 1)):
        if i == top or not reach[i] & completions(chosen):
            mask |= 1 << core[i][0]
            for w in core[i][1]:
                chosen[slot[w]] += 1
    return mask
