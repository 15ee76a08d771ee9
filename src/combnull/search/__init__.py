"""Witness solvers that build no polynomial, one family module per command.

Sumsets and the Erdos-Heilbronn bound (``sumsets``), Erdos-Ginzburg-Ziv and
Olson zero sums (``zero_sums``), plane coverings of the cube (``planes``),
cycle labelings (``cycles``), p-regular subgraphs (``graphs``), distinct-sum
permutations (``shuffles``) and symmetric differences (``symdiff``).  Each is
a search, a packed bitset DP or a direct count over its input.  A family
imports only ``errors``, ``field`` and this package, which holds what the
families share: the record base ``_Value``, the packed state sets of the
zero-sum and regular-subgraph searches and a bit-set reader.  So a CLI request
compiles the one family its command runs, and never ``mpoly``,
``nullstellensatz`` or ``combinatorics``.  The applications whose
certificate is a polynomial live in ``combinatorics``, which re-exports
every public name of the families, each resolved on first access.

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

import itertools
import math
from typing import Iterable, Iterator, Sequence


def __getattr__(name: str):
    """A family module, imported on first access: ``search.sumsets``.
    ``combinatorics`` names the families' value classes this way in its
    annotations, so that ``typing.get_type_hints`` resolves them while
    loading ``combinatorics`` imports no family."""
    from .. import _EXPORTS

    if f"search.{name}" not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return import_module(f"{__name__}.{name}")


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


# the digits of a binary numeral as flag bytes 0 and 1, as itertools.compress
# reads them
_BITS = bytes.maketrans(b"01", b"\0\1")


def _members(items: Sequence, mask: int) -> Iterator:
    """items[i] for each bit i set in mask, in order: the reversed binary
    digits, byte i = bit i, read in one pass as compress flags."""
    return itertools.compress(items, format(mask, "b")[::-1].encode().translate(_BITS))


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
