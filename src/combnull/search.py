"""Witness solvers that build no polynomial.

Sumsets and the Erdos-Heilbronn bound, Erdos-Ginzburg-Ziv and Olson zero
sums, plane coverings of the cube, cycle labelings, p-regular subgraphs,
distinct-sum permutations and symmetric differences.  Each is a search, a
packed bitset DP or a direct count over its input, so this module imports
only ``errors`` and ``field``: a process that runs only these solvers (the
CLI's egz, olson, planes, regular-subgraph, snevily, symdiff and plain
sumset requests) never compiles ``mpoly``, ``nullstellensatz`` or
``combinatorics``.  The applications whose certificate is a polynomial live
in ``combinatorics``, which re-exports every public name defined here.

Each solver validates the hypotheses of the theorem it executes, searches in
a fixed deterministic order, and re-checks any witness before returning it.
Wherever a theorem guarantees existence unconditionally, failure to find a
witness raises TheoremViolation rather than returning None: such a failure
can only mean the arithmetic is broken.

Witness ordering convention: searches enumerate candidates so that the first
hit is the lexicographically smallest witness, reading a witness as its
sorted index (or position-by-position value) sequence.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    BadCount,
    BadGridShape,
    BadInput,
    BadLength,
    EmptyInput,
    FieldMismatch,
    GridTooLarge,
    HypothesisViolated,
    MonochromaticInput,
    NotPrime,
    OddCycle,
    RequiresDistinctSets,
    ResourceLimit,
    SizeMismatch,
    TheoremViolation,
    _check_grid_cap,
    _check_positive_int,
)
from .field import PrimeField, is_prime


class _Value:
    """An immutable record.  Its fields are the subclass's ``__slots__``, set
    once by ``__init__``, which takes them in that order.  As for a frozen
    dataclass: equality and hash go field by field within one class, the
    repr reads ``Name(field=value, ...)``, and assignment raises
    AttributeError.  A pickle holds the fields and rebuilds through
    ``__init__``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _binom_mod(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) % p


# -------------------------------------------------------------------- sumsets


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
_BITS = bytes.maketrans(b"01", b"\0\1")


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
    flags = format(reach, f"0{p}b")[::-1].encode().translate(_BITS)  # byte i = bit i
    return tuple(itertools.compress(range(p), flags))


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


# ------------------------------------------------------------------- zero sums


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


class _PackedStates:
    """Sets of digit vectors, each one int with state s at bit s: digit d has
    place value steps[d] and runs over 0..radices[d] - 1.  Adding x > 0 to a
    digit is two masked shifts; a residue digit (wrap[d]) turns mod its
    radix, an exact digit drops the states that would pass its top.
    """

    def __init__(self, radices: Sequence[int], wrap: Sequence[bool]):
        self.radices, self.wrap = list(radices), list(wrap)
        self.steps = [math.prod(self.radices[:d]) for d in range(len(self.radices))]
        self.size = math.prod(self.radices)
        self._low: dict[tuple[int, int], int] = {}  # (d, x): digit d below radix - x

    def add(self, states: int, moves: Iterable[tuple[int, int]]) -> int:
        """The set of s + x e_d over s in states, for each (d, x) in moves."""
        for d, x in moves:
            radix, step = self.radices[d], self.steps[d]
            if (d, x) not in self._low:
                foot, block = 1, radix * step  # a 1 at the foot of each block
                while block < self.size:
                    foot, block = foot | foot << block, 2 * block
                self._low[d, x] = (foot << (radix - x) * step) - foot
            stay = states & self._low[d, x]
            wrapped = (states ^ stay) >> (radix - x) * step if self.wrap[d] else 0
            states = stay << x * step | wrapped
        return states


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


# ------------------------------------------------------------ plane coverings


class PlaneSet(_Value):
    """Affine planes a*x + b*y + c*z + d = 0 with integer coefficients, as
    a tuple of (a, b, c, d) in ``planes``."""

    __slots__ = ("planes",)

    def __init__(self, planes: Iterable[Sequence[int]]):
        canon = []
        for raw in planes:
            t = tuple(raw)
            if len(t) != 4 or any(not isinstance(x, int) or isinstance(x, bool) for x in t):
                raise BadInput(f"a plane is 4 integers (a, b, c, d), got {raw!r}")
            if t[0] == 0 and t[1] == 0 and t[2] == 0:
                raise BadInput(f"degenerate plane {t}: a, b, c all zero")
            canon.append(t)
        super().__init__(tuple(canon))

    def __len__(self) -> int:
        return len(self.planes)


class PlaneCoverReport(_Value):
    __slots__ = ("covers", "origin_free", "missed")

    def __init__(self, covers: bool, origin_free: bool, missed: tuple[tuple[int, int, int], ...]):
        super().__init__(covers, origin_free, missed)


def plane_cover_construct(n: int, max_points: int | None = None) -> PlaneSet:
    """3n planes avoiding the origin and covering the rest of {0..n}^3:
    x = a, y = a, z = a for a = 1..n.  No smaller origin-free family works.
    A cube over the grid cap is refused before any plane is built."""
    _check_positive_int(n, "n", BadInput)
    _check_grid_cap((n + 1) ** 3, max_points, "cube has {count} points, cap is {cap}")
    axes = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    return PlaneSet(axis + (-a,) for axis in axes for a in range(1, n + 1))


def plane_cover_verify(
    planes: PlaneSet, n: int, max_points: int | None = None
) -> PlaneCoverReport:
    """Check coverage of {0..n}^3 minus the origin.

    The cube is one flag per point, open until a plane marks it.  Each plane
    marks its points column by column: over each (x, y) it meets the z-axis
    in at most one integer z, or, when c = 0, in the whole column or not at
    all.  The grid cap bounds that work, |planes| * (n + 1)^2 marks plus the
    (n + 1)^3 points.  ``missed`` lists the open points in grid order.

    Any origin-free family of fewer than 3n planes must miss a point; if one
    ever covered everything, that would contradict the lower bound and
    TheoremViolation is raised.
    """
    _check_positive_int(n, "n", BadInput)
    side = n + 1
    _check_grid_cap(len(planes) * side**2 + side**3, max_points,
                    "{count} plane marks and cube points exceed the cap of {cap}")
    origin_free = all(d != 0 for (_, _, _, d) in planes.planes)
    open_points = bytearray(b"\x01") * side**3
    open_points[0] = 0  # the origin is not asked for
    column = bytes(side)
    for a, b, c, d in planes.planes:
        for x, y in itertools.product(range(side), repeat=2):
            rest = a * x + b * y + d
            base = (x * side + y) * side
            if c:
                z, r = divmod(-rest, c)
                if not r and 0 <= z <= n:
                    open_points[base + z] = 0
            elif not rest:
                open_points[base:base + side] = column
    missed = list(itertools.compress(itertools.product(range(side), repeat=3), open_points))
    covers = not missed
    if origin_free and len(planes) < 3 * n and covers:
        raise TheoremViolation(
            f"plane covering lower bound violated: {len(planes)} < {3 * n} "
            "origin-free planes covered every other point"
        )
    return PlaneCoverReport(covers, origin_free, tuple(missed))


# ------------------------------------------------------------- cycle labeling


class CycleLabels(_Value):
    """A two-element label set per vertex of a cycle, each pair sorted: a
    tuple of (Fraction, Fraction) in ``pairs``."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Sequence]):
        canon = []
        for i, raw in enumerate(pairs):
            t = tuple(x if type(x) is Fraction else Fraction(x) for x in raw)
            if len(t) != 2:
                shown = ", ".join(map(str, t))
                raise BadGridShape(f"vertex {i} needs exactly 2 labels, got ({shown})")
            lo, hi = t
            if lo < hi:
                canon.append(t)
            elif hi < lo:
                canon.append((hi, lo))
            else:
                raise BadInput(f"vertex {i} has equal labels {lo}")
        if not canon:
            raise EmptyInput("a cycle needs at least one vertex")
        super().__init__(tuple(canon))

    def __len__(self) -> int:
        return len(self.pairs)


def cycle_selection_valid(labels: CycleLabels, selection: Sequence) -> bool:
    """True iff selection takes one label of each vertex's pair and no two
    neighbors on the cycle (of length at least 2) share a label."""
    n = len(labels)
    return (
        n > 1
        and len(selection) == n
        and all(x in pair for x, pair in zip(selection, labels.pairs))
        and all(selection[i - 1] != selection[i] for i in range(n))
    )


def cycle_selection(
    labels: CycleLabels, force_search: bool = False
) -> Optional[tuple[Fraction, ...]]:
    """Pick one label per vertex of the cycle so neighbors always differ.

    Guaranteed possible for an even cycle (the coefficient of x_1*...*x_n in
    prod(x_i - x_{i+1}) is 2, which is nonzero).  Odd cycles are rejected
    unless force_search is set, in which case None reports a fruitless search.
    Returns the lexicographically smallest selection, vertex by vertex; its
    labels are the objects of labels.pairs.

    One forward pass gives each vertex its first label that differs from its
    predecessor's.  Only the closing vertex, which must also differ from
    vertex 0, can reject both of its labels; then ``_closing_selection``
    decides, for each label of vertex 0 in turn, which labels can still close
    the cycle.
    """
    n = len(labels)
    if n % 2 == 1 and not force_search:
        raise OddCycle(f"cycle length {n} is odd; pass force_search to try anyway")
    pairs = labels.pairs
    chosen: Optional[list[Fraction]] = None
    if n > 1:  # a 1-cycle vertex is its own neighbor
        start = pairs[0][0]
        chosen = _forward(start, itertools.islice(pairs, 1, n - 1))
        prev = chosen[-1]
        lo, hi = pairs[-1]
        if lo != prev and lo != start:
            chosen.append(lo)
        elif hi != prev and hi != start:
            chosen.append(hi)
        else:
            chosen = _closing_selection(pairs, start) or _closing_selection(pairs, pairs[0][1])
    if chosen is not None:
        if not cycle_selection_valid(labels, chosen):
            raise TheoremViolation(f"cycle selection {chosen} failed re-validation")
        return tuple(chosen)
    if n % 2 == 0:
        raise TheoremViolation(
            f"even-cycle selection guarantee violated for labels {labels.pairs}"
        )
    return None


def _closing_selection(
    pairs: tuple[tuple[Fraction, Fraction], ...], start: Fraction
) -> Optional[list[Fraction]]:
    """The lexicographically smallest proper selection with vertex 0 on
    start, or None, in O(n).

    A backward pass keeps, at each vertex, the labels from which the rest of
    the path can still reach a closing label other than start; the forward
    pass then takes the first kept label that differs from its predecessor's.
    Two labels kept ahead let a vertex keep both of its own, since each of
    them differs from one of the two; a single label w kept ahead rules out
    w only.
    """
    n = len(pairs)
    kept: list[Sequence[Fraction]] = list(pairs)
    ahead = kept[-1] = [v for v in pairs[-1] if v != start]
    for i in range(n - 2, 0, -1):
        if len(ahead) == 1:
            ahead = kept[i] = [v for v in pairs[i] if v != ahead[0]]
        else:
            ahead = pairs[i]
    if len(ahead) == 1 and ahead[0] == start:
        return None
    # each kept label has one unlike it kept at the next vertex, so no row runs out
    return _forward(start, itertools.islice(kept, 1, None))


def _forward(start: Fraction, rows: Iterable[Sequence[Fraction]]) -> list[Fraction]:
    """start, then from each row its first label unlike the label before; a
    row of one label must differ from it."""
    prev = start
    chosen = [start]
    for row in rows:
        prev = row[1] if row[0] == prev else row[0]
        chosen.append(prev)
    return chosen


# ------------------------------------------------------------- regular graphs


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
    if not is_prime(p):
        raise NotPrime(f"need a prime p, got {p!r}")
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


# ------------------------------------------------------- distinct-sum shuffles


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


# ------------------------------------------------------- symmetric differences


# XOR work symdiff_check may do, counted as |first|·|second| pairs times the
# 64-bit words of one mask, before giving up with ResourceLimit: the most
# pairs n = 12 can have.  With one-word masks they take 0.8 s over 16
# elements and about 2 s when the differences fill 17 bits (2-CPU x86_64,
# Python 3.11).
_SYMDIFF_WORK_CAP = 2048 * 2049
# Size of symdiff_check's answer, counted as one cell per distinct difference
# plus one per element in it, past which it gives up with ResourceLimit
# before building any frozenset.  The whole power set of 16 elements, the
# most n = 12 can answer over the sets of the benchmark's shape, is 589,824
# cells.
_SYMDIFF_ANSWER_CAP = 1 << 20


def symdiff_check(
    sets: Sequence[Iterable], colors: Sequence
) -> set[frozenset]:
    """Distinct symmetric differences across a two-coloring of 2^n + 1 sets.

    Checks the lower bound: at least 2^n pairwise distinct symmetric
    differences of opposite-colored sets.  Each color class must consist of
    pairwise distinct sets (the same set may appear once per color); with a
    repeat inside one class the bound is simply false -- three copies of one
    set leave a single empty difference -- so such input is rejected.  Within
    the stated hypotheses the bound is a theorem and a shortfall raises
    TheoremViolation.  Returns the set of differences.

    Each distinct element is one bit, so a difference is the XOR of two
    int masks; a frozenset is built only once per distinct difference.  The
    pairs are bounded by ``_SYMDIFF_WORK_CAP`` before any is formed, and the
    distinct differences by ``_SYMDIFF_ANSWER_CAP`` before any frozenset is
    built; past either, ResourceLimit.
    """
    families = [frozenset(s) for s in sets]
    count = len(families)
    if len(colors) != count:
        raise SizeMismatch(f"{count} sets but {len(colors)} colors")
    n = (count - 1).bit_length() - 1
    if count < 2 or count != (1 << n) + 1:
        raise BadCount(f"need 2^n + 1 sets for some n >= 0, got {count}")
    palette = sorted(set(colors), key=repr)
    if len(palette) == 1:
        raise MonochromaticInput("both colors must be present")
    if len(palette) != 2:
        raise BadInput(f"need exactly two colors, got {len(palette)}")
    first = [s for s, c in zip(families, colors) if c == palette[0]]
    second = [s for s, c in zip(families, colors) if c == palette[1]]
    for label, cls in zip(palette, (first, second)):
        if len(set(cls)) != len(cls):
            raise BadInput(f"color {label!r} repeats a set; classes must be distinct")
    elements = list(frozenset().union(*families))
    work = len(first) * len(second) * max(1, -(-len(elements) // 64))
    if work > _SYMDIFF_WORK_CAP:
        raise ResourceLimit(
            f"{len(first)} x {len(second)} differences over {len(elements)} elements "
            f"exceed the work cap of {_SYMDIFF_WORK_CAP} pair words"
        )
    bit = {x: 1 << i for i, x in enumerate(elements)}
    # sorted, so the XORs of one row land near each other in the set's table
    first_masks, second_masks = (sorted(sum(map(bit.__getitem__, s)) for s in cls)
                                 for cls in (first, second))
    # rows in chunks of at most a sixteenth of the cap in pairs, each chunk's
    # new differences counted before they join the rest
    step = max(1, _SYMDIFF_ANSWER_CAP // 16 // len(second_masks))
    masks: set[int] = set()
    cells = 0
    for i in range(0, len(first_masks), step):
        new = {s ^ t for s in first_masks[i:i + step] for t in second_masks}
        new -= masks
        cells += len(new) + sum(map(int.bit_count, new))
        if cells > _SYMDIFF_ANSWER_CAP:
            raise ResourceLimit(
                f"the distinct differences reach {cells} cells (one per difference and "
                f"one per element in it), past the answer cap of {_SYMDIFF_ANSWER_CAP}"
            )
        masks |= new
    if len(masks) < (1 << n):
        raise TheoremViolation(
            f"symmetric-difference lower bound violated: {len(masks)} < {1 << n} "
            f"distinct differences across the coloring"
        )
    # byte i of a mask's reversed binary digits is bit i
    return {frozenset(itertools.compress(elements, format(m, "b")[::-1].encode().translate(_BITS)))
            for m in masks}
