"""Evaluation of ``MultiPoly``: its plan, its memo, its power tables and the
generated kernel that answers ``MultiPoly.evaluate``.

At a polynomial's first ``evaluate`` this module seeds its memo
(``first_memo``): it builds the evaluation plan and the kernel's shape key
together (``_eval_plan``), compiles the kernel of that field kind and shape
or reuses it, and binds it to the plan.  The kernel answers every call from
then on, the first one included.

Evaluation is partial.  The memo holds the last evaluation in four slots:
the kernel, the coordinates before the last as passed (the raw head), the
levels, and the deepest depth's products summed per distinct last exponent
(the slot sums).  Level k holds the products that head depth k takes: level
0 is the coefficients, and level k the per-term products
c * x_0^e_0 * ... * x_(k-1)^e_(k-1).  The first memo's head is placeholders
(``_UNSET``), which no point matches, and its level 0 and slot sums are the
coefficients, which the slot sums are with one variable; with more, the
first call replaces them.  The memo is O(terms * variables).  The plan,
bound into the kernel, holds a power table for every variable, from a
coerced coordinate to its powers at that variable's distinct exponents.  The
tables only gain entries, each complete before it is inserted, and one
polynomial's tables hold at most ``_POWER_TABLE_CELLS`` cells
(``_power_row``); past that, powers are computed and not kept.  A new memo
replaces the old one in one attribute store, so a concurrent call on a
shared polynomial at worst recomputes.  Matching a head by identity rather
than ``==``, and looking a table up only by a coerced coordinate, keeps
every refusal of ``field.element``: ``True`` or ``1.0`` never stands in for
``1``.  Over Q the coefficients are integer numerators over their least
common denominator, so integral coordinates cost int arithmetic and each
value is divided once.

The kernel is a small function generated from the field and the shape of
the plan.  The shape is the variable count, the number of slots (distinct
last exponents), and for the deepest head variable the power each term
picks, the slots' spans and where products are reduced; the source is built
from these ints alone, never from a coefficient, exponent or coordinate.  It
is compiled once per field kind and shape and bound to each polynomial's
plan: its modulus or denominator, coordinate coercion, power tables and
budget, and the depths above the deepest.

The kernel does the three cases of grid order without per-call set-up.
Identity tests find the first head coordinate that moved.  With none moved,
as when ``itertools.product`` yields the point, the value is one table
lookup for the last coordinate and a dot product with the memo's slot sums.
With a move at depth k, the depths from k on are redone from the memo's
level k, each one C-level multiply by its picked powers, reduced where the
plan reduces it, and the slot sums are taken anew: one rule at every depth.
The new levels go into a new list, and the new memo into one attribute
store, so the memo's lists are never changed in place.  Each coordinate is
coerced by the plan's ``coordinate`` unless it is an int, so
``field.element`` keeps every refusal, and a row not yet in its table is
computed and inserted by ``_power_row`` under the same budget; a point of
the wrong length raises ``ArityMismatch``.  Over Z_p every int coordinate,
power and sum is reduced mod p; over Q the value is ``Fraction(value)``
divided once by the coefficients' common denominator.

Within ``_MAX_TERMS`` terms and ``_MAX_VARS`` variables the code is unrolled:
the head tests, the deepest head depth's products and slot sums, and the dot
product.  Past either bound, and for the zero polynomial, the kernel takes
the wide form: the same template with C-level forms in their place
(``list(map(is_, point, head)).index(False)``, every depth in the depth
loop, ``map(sum, ...)`` over the slots and ``sum(map(mul, ...))``), with the
picks bound from the plan, so its source grows with neither terms nor
variables and one wide source serves each field kind.  On the benchmark's
seed-0 instances (2-CPU x86_64 VM, Python 3.11) the unrolled kernel made the
full Z_p^n sums 2.5 times faster than the C-level forms, the Boolean sums
2.4, the signed two-element sums 2.0, the Z_101 weighted sums 1.9 and
``second_nonvanish`` 1.7.

Bounds, measured on a 2-CPU x86_64 VM with Python 3.11: at the bound shape,
32 variables and 64 terms, compiling took 1.5 ms with four slots and 2.2 ms
with a slot per term (medians of 15), and a shape kept about 5 and 9 KB once
compiled; the depths above the deepest run as a loop, so the source grows by
a few lines per variable, not per term and variable.  A slot's width needs
no bound of its own: at 64 terms in one slot the unrolled kernel still ran
1.9 times as fast as the C-level forms, and every unrolled sum has at most
``_MAX_TERMS`` operands, far below the 3,000 at which a sum's compile raised
RecursionError.  Each source is compiled in a new thread, whose stack starts
empty: at depth 980 of a recursion limit of 1,000, compiling the bound-shape
source directly raised RecursionError, and in a new thread it did not.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .errors import ArityMismatch
from .field import PrimeField, Scalar
from .mpoly import _numerators

_MAX_VARS = 32
_MAX_TERMS = 64
# compiled shapes kept
_SHAPES = 256
# the first memo's head coordinates, which no coordinate is
_UNSET = object()
# Cells the power tables of one polynomial may hold (``_power_row``), every
# variable's rows counted alike.  The 120 x 120 Cauchy-Davenport certificate
# over Z_1009 takes 28,800 for each of its two variables, 57,600 in all; as a
# process, its peak RSS went from 23.1 to 24.1 MB when its first variable got
# a table, at 0.65-0.74 s either way (2-CPU x86_64, Python 3.11).
_POWER_TABLE_CELLS = 1 << 16


def first_memo(f) -> tuple:
    """The memo of f's first ``evaluate``: its kernel bound to a new plan, a
    head of placeholders, and the coefficients as level 0 and as the slot
    sums."""
    plan, shape = _eval_plan(f)
    return (_compile_shape(plan[0] is None, shape)(plan), (_UNSET,) * (f.n_vars - 1), [plan[4]],
            plan[4])


def _eval_plan(f) -> tuple:
    """f's evaluation plan, the static half of its memo, with the power
    tables it fills, and the shape key of its kernel.

    The terms are taken in the order of their slot, the place of the term's
    last exponent among the distinct last exponents in descending order, so
    each slot is one ``slice`` of the per-term products (``slots`` is None
    when every slot holds one term).  Each leading variable is stored as its
    distinct exponents in descending order and ``picks``, an
    ``operator.itemgetter`` that maps a row of its powers at those exponents
    to one power per term, so each term's prefix product takes one multiply.
    The coefficients are level 0 of the memo, the products the first depth
    takes; over Q they are integer numerators over their least common
    denominator (``mpoly._numerators``).  Over Z_p a depth's products, and
    the slot sums, are reduced only where one more multiply could pass 60
    bits.  ``coordinate`` coerces one coordinate: a residue over Z_p, and
    over Q an int when it is integral.  Every variable has a power table, a
    dict from a coerced coordinate to its power row, and ``room`` holds the
    cells the tables may still take (``_power_row``).  The plan is (modulus
    or None, denominator, coordinate, depths as (exponents, picks, reduce,
    table), coefficients, slots, reduce the slot sums, last exponents, last
    table, room).  The shape is the key ``_source`` takes, None for the
    wide form: past ``_MAX_VARS`` variables or ``_MAX_TERMS`` terms, or
    with no terms.
    """
    order = sorted(f.terms, key=lambda exps: -exps[-1])
    rows = []
    for column in list(zip(*order)) or [()] * f.n_vars:
        exponents = sorted(set(column), reverse=True)
        pick = {e: j for j, e in enumerate(exponents)}
        rows.append((exponents, [pick[e] for e in column]))
    last, slot_of = rows.pop()
    bounds = [0] + [j for j in range(1, len(slot_of)) if slot_of[j] != slot_of[j - 1]]
    bounds.append(len(slot_of))
    spans = None if len(bounds) > len(slot_of) else tuple(zip(bounds, bounds[1:]))
    element = f.field.element
    reduce = [False] * (len(rows) + 1)
    if isinstance(f.field, PrimeField):
        mod, den = f.field.p, 1
        coefficients = list(map(f.terms.__getitem__, order))
        # a bound on each depth's products, then on the slot sums
        bound = mod - 1
        widest = max(b - a for a, b in zip(bounds, bounds[1:]))
        for k, factor in enumerate([mod - 1] * len(rows) + [widest]):
            bound *= factor
            reduce[k] = (bound * (mod - 1)).bit_length() > 60
            if reduce[k]:
                bound = mod - 1

        def coordinate(x):
            return x % mod if type(x) is int else element(x)
    else:
        mod, (numerators, den) = None, _numerators(f.terms)
        coefficients = list(map(numerators.__getitem__, order))

        def coordinate(x):
            if type(x) is int:
                return x
            if type(x) is not Fraction:
                x = element(x)
            return x.numerator if x.denominator == 1 else x
    depths = [(exponents, _picks(indices), reduce[k], {})
              for k, (exponents, indices) in enumerate(rows)]
    # for the deepest head variable: the row index each term picks, the row
    # width, its reduce flag, the slots and the slot sums' flag
    deep = (tuple(rows[-1][1]), len(rows[-1][0]), reduce[-2], spans, reduce[-1]) if rows else None
    wide = not order or f.n_vars > _MAX_VARS or len(order) > _MAX_TERMS
    slots = None if spans is None else [slice(*span) for span in spans]
    return ((mod, den, coordinate, depths, coefficients, slots, reduce[-1], last, {},
             [_POWER_TABLE_CELLS]), None if wide else (f.n_vars, len(last), deep))


def _picks(indices: list[int]):
    """``operator.itemgetter`` over the indices, returning a sequence also for
    one index or none."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: [row[j] for j in indices]


def _power_row(x: Scalar, exponents: list[int], table: dict, room: list, mod: int | None) -> tuple:
    """x's powers at the exponents, inserted whole into the power table while
    its polynomial's budget has room: a cell per power and one for the key,
    and over Q a cell per 64 bits of each power's numerator and denominator."""
    row = tuple([pow(x, e, mod) for e in exponents])
    cells = len(row) + 1
    if not mod:
        cells += sum(v.numerator.bit_length() + v.denominator.bit_length() for v in row) // 64
    if cells <= room[0]:
        room[0] -= cells
        table[x] = row
    return row


@lru_cache(maxsize=_SHAPES)
def _compile_shape(rational: bool, shape: tuple | None):
    """``build(plan)``, which binds the kernel of this field kind and shape to
    a polynomial's evaluation plan; compiled from ``_source`` once per key,
    in a new thread, so the caller's stack depth does not matter."""
    namespace: dict = {"ArityMismatch": ArityMismatch, "Fraction": Fraction, "power_row": _power_row}
    source = _source(rational, shape)
    compiling = threading.Thread(
        target=lambda: exec(compile(source, "<grid-order kernel>", "exec"), namespace))
    compiling.start()
    compiling.join()
    return namespace["build"]


def _source(rational: bool, shape: tuple | None) -> str:
    """Python source of the kernel over Q (rational) or Z_p.  shape is None
    for the wide form, else (n, width, deep): n variables, ``width`` distinct
    last exponents and ``deep``: None, or for the deepest head variable the
    row index each term picks, the row width, whether its products are
    reduced, the slots as (start, stop) or None for a term each, and whether
    the slot sums are reduced."""
    def names(stem: str, count: int) -> str:
        return "".join(f"{stem}{i}, " for i in range(count))

    def indent(block: list[str], depth: int) -> list[str]:
        return [" " * depth + line for line in block]

    def row(v: str, get: str, exponents: str, table: str) -> list[str]:
        # coerce the coordinate named v and set r to its power row, computed
        # and inserted when not yet in its table; an int, the usual
        # coordinate, is only reduced mod p, and over Q is its own key
        key = v if rational else f"{v} % mod"
        return [f"if type({v}) is not int:",
                f"    {v} = coordinate({v})",
                f"r = {get}({key})",
                "if r is None:",
                f"    r = power_row({key}, {exponents}, {table}, room, mod)"]

    wide = shape is None
    n, width, deep = shape or (0, 0, None)
    # the value from the slot sums and the last coordinate x
    if wide:
        value = ["sums = memo[3]", *row("x", "last", "last_exponents", "last_table")]
        dot = "sum(map(mul, sums, r))"
    else:
        value = [f"{names('c', width)}= memo[3]",
                 *row("x", "last", "last_exponents", "last_table"), f"{names('r', width)}= r"]
        dot = " + ".join(f"c{k} * r{k}" for k in range(width))
    if rational:
        value += [f"value = {dot}",
                  "if type(value) is int:",
                  "    value = Fraction(value)",
                  "return value / den if den > 1 else value"]
    else:
        value.append(f"return ({dot}) % mod")
    lines = ["from operator import is_, mul",
             "def build(plan):",
             "    mod, den, coordinate, depths, _, slots, reduce_sums, last_exponents, last_table, "
             "room = plan",
             "    last = last_table.get",
             "    n = len(depths) + 1",
             # over Q no product is reduced
             "    rmod = mod and mod.__rmod__"]
    if deep:
        lines += ["    deep_exponents, _, _, deep_table = depths[-1]",
                  "    deep = deep_table.get",
                  "    middle = depths[:-1]"]
    lines += ["    def kernel(self, point, memo):",
              "        if len(point) != n:",
              "            raise ArityMismatch(f'point of length {len(point)}, expected {n}')"]
    # the first head coordinate that moved is k; with none moved, the value
    # comes from the memo's slot sums
    if wide:
        lines += ["        x = point[-1]",
                  "        if all(map(is_, point, memo[1])):", *indent(value, 12),
                  "        k = list(map(is_, point, memo[1])).index(False)",
                  "        head = tuple(point[:-1])"]
    elif not deep:
        return "\n".join(lines + ["        x, = point"] + indent(value, 8) + ["    return kernel\n"])
    else:
        lines += [f"        {names('a', n - 1)}x, = point",
                  f"        {names('h', n - 1)}= memo[1]"]
        for i in range(n - 1):
            lines += [f"        {'elif' if i else 'if'} a{i} is not h{i}:",
                      f"            k = {i}"]
        lines += ["        else:", *indent(value, 12), f"        head = ({names('a', n - 1)})"]
    # the depths from k on, in the wide form every one and else those above
    # the deepest, into a new list of levels; levels[k] holds the products
    # depth k takes
    loop = ["products = levels[k]",
            "levels = levels[:k]",
            "for v, (exponents, picks, reduce, table) in "
            + ("zip(head[k:], depths[k:]):" if wide else f"zip(head[k:{n - 2}], middle[k:]):"),
            *indent(row("v", "table.get", "exponents", "table"), 4),
            "    levels.append(products)",
            "    products = list(map(mul, products, picks(r)))",
            "    if reduce:",
            "        products = list(map(rmod, products))"]
    lines.append("        levels = memo[2]")
    if wide:
        lines += indent(loop, 8)
        lines += ["        sums = list(map(sum, map(products.__getitem__, slots))) if slots "
                  "else products",
                  "        if reduce_sums:",
                  "            sums = list(map(rmod, sums))",
                  "        self._memo = (memo[0], head, levels, sums)"]
        return "\n".join(lines + indent(value[1:], 8) + ["    return kernel\n"])
    lines += [f"        if k < {n - 2}:", *indent(loop + ["levels.append(products)"], 12)]
    picks, row_width, reduce, spans, reduce_sums = deep
    lines += indent(row(f"a{n - 2}", "deep", "deep_exponents", "deep_table"), 8)
    lines += [f"        {names('r', row_width)}= r",
              f"        {names('b', len(picks))}= levels[-1]"]
    mod_products = " % mod" if reduce else ""
    lines += [f"        t{k} = b{k} * r{j}{mod_products}" for k, j in enumerate(picks)]
    for k, (start, stop) in enumerate(spans or [(k, k + 1) for k in range(len(picks))]):
        total = " + ".join(f"t{i}" for i in range(start, stop))
        lines.append(f"        c{k} = " + (f"({total}) % mod" if reduce_sums else total))
    lines.append(f"        self._memo = (memo[0], head, levels, [{names('c', width)}])")
    return "\n".join(lines + indent(value[1:], 8) + ["    return kernel\n"])
