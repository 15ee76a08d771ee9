"""Distinct symmetric differences across a two-coloring of 2^n + 1 sets: the
CLI's ``symdiff``."""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import (
    BadCount,
    BadInput,
    MonochromaticInput,
    ResourceLimit,
    SizeMismatch,
    TheoremViolation,
)
from . import _members


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
    return {frozenset(_members(elements, m)) for m in masks}
