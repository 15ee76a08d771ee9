"""One label per vertex of a cycle with neighbors distinct: the CLI's
``cycle-labels``.  The even-cycle certificate builds a polynomial and lives
in ``combinatorics``."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ..errors import BadGridShape, BadInput, EmptyInput, OddCycle, TheoremViolation
from . import _Value


# the largest cycle whose certificate (combinatorics.cycle_selection_certificate)
# is recomputed: both routes cost 2^n
_CERTIFICATE_VERTEX_CAP = 10


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
