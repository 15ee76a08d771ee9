"""Grid-order kernels: ``MultiPoly.evaluate`` as generated code.

Every polynomial, over Z_p and over Q, gets a kernel when its evaluation plan
(``mpoly._eval_plan``) is built, at its first ``evaluate``, and the kernel
answers every call from then on, the first one included.  The kernel is a
small function generated from the field and the shape of the plan and kept
in the memo.  The shape is the variable count, the number of slots (distinct
last exponents), and for the deepest head variable the power each term
picks, the slots' spans and where products are reduced; the source is built
from these ints alone, never from a coefficient, exponent or coordinate.  It
is compiled once per field kind and shape and bound to each polynomial's
plan: its modulus or denominator, coordinate coercion, power tables and
budget, and the depths above the deepest.

The kernel does the three cases of grid order without per-call set-up.
Identity tests find the first head coordinate that moved.  With none moved,
the value is one table lookup for the last coordinate and a dot product with
the memo's slot sums.  With a move at depth k, the depths from k on are
redone from the memo's level k, each one C-level multiply by its picked
powers, reduced where the plan reduces it, and the slot sums are taken
anew.  The new levels go into a new list, and the new memo into one
attribute store, so the memo's lists are never changed in place.  Each
coordinate is coerced by the plan's ``coordinate`` unless it is an int, so
``field.element`` keeps every refusal, and a row not yet in its table is
computed and inserted by ``mpoly._power_row`` under the same budget; a point
of the wrong length raises ``ArityMismatch``.  Over Z_p every int coordinate,
power and sum is reduced mod p; over Q the coefficients are integer
numerators, so the value is ``Fraction(value)`` divided once by their
common denominator.

Within ``_MAX_TERMS`` terms and ``_MAX_VARS`` variables the code is unrolled:
the head tests, the deepest head depth's products and slot sums, and the dot
product.  Past either bound, and for the zero polynomial, the kernel takes
the wide form: the same template with C-level forms in their place
(``list(map(is_, point, head)).index(False)``, every depth in the depth
loop, ``map(sum, ...)`` over the slots and ``sum(map(mul, ...))``), with the
picks bound from the plan, so its source grows with neither terms nor
variables and one wide source serves each field kind.

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

from .errors import ArityMismatch
from .mpoly import _power_row

_MAX_VARS = 32
_MAX_TERMS = 64
# compiled shapes kept
_SHAPES = 256


def kernel_for(plan: tuple):
    """The kernel ``kernel(poly, point, memo)`` of the polynomial with this
    evaluation plan: unrolled within the bounds, the wide form past them or
    with no terms."""
    mod, _, _, depths, coefficients, slots, reduce_sums, last, _, _ = plan
    n = len(depths) + 1
    shape = None
    if coefficients and n <= _MAX_VARS and len(coefficients) <= _MAX_TERMS:
        deep = None
        if depths:
            exponents, picks, reduce, _ = depths[-1]
            spans = None if slots is None else tuple((s.start, s.stop) for s in slots)
            # picks maps a row to one entry per term, so a row of indices to
            # the index each term picks
            deep = (tuple(picks(range(len(exponents)))), len(exponents), reduce, spans,
                    reduce_sums)
        shape = (n, len(last), deep)
    return _compile_shape(mod is None, shape)(plan)


@lru_cache(maxsize=_SHAPES)
def _compile_shape(rational: bool, shape: tuple | None):
    """``build(plan)``, which binds the kernel of this field kind and shape to
    a polynomial's evaluation plan; compiled from ``_source`` once per key,
    in a new thread, so the caller's stack depth does not matter."""
    namespace: dict = {"ArityMismatch": ArityMismatch, "Fraction": Fraction,
                       "power_row": _power_row}
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
