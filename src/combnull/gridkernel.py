"""Grid-order kernels: ``MultiPoly.evaluate`` in straight-line code.

A polynomial over Z_p gets a kernel when its evaluation plan
(``mpoly._eval_plan``) is built, at its first ``evaluate``, and the kernel
answers every call from then on, the first one included.  The kernel is a
small function generated from the shape of the plan and kept in the memo.
The shape is the variable count, the number of slots (distinct last
exponents), and for the deepest head variable the power each term picks, the
slots' spans and where products are reduced; the source is built from these
ints alone, never from a coefficient, exponent or coordinate.  It is compiled
once per shape and bound to each polynomial's plan: its modulus, coordinate
coercion, power tables and budget, and the depths above the deepest.  The
generic route of ``evaluate`` stays only where it is the sole route: over Q,
past ``_MAX_TERMS`` terms or ``_MAX_VARS`` variables, with no terms, and when
a compile fails.

The kernel does the three cases of grid order without the generic route's
per-call set-up.  Unrolled identity tests find the first head coordinate
that moved.  With none moved, the value is one table lookup for the last
coordinate and an unrolled dot product mod p.  With only the deepest head
coordinate moved, its per-term products and the slot sums are redone,
unrolled, from the memo's last level.  With a move at any depth k above the
deepest, the first coordinate's included, the depths from k to the one above
the deepest are redone first, from the memo's level k, each one C-level
multiply by its picked powers, reduced where the plan reduces it: the
generic route's rule, at every depth.  The new levels go into a new list,
and the new memo into one attribute store, so the memo's lists are never
changed in place.  Each coordinate is taken as the generic route takes it: a
non-int is coerced by the plan's ``coordinate``, so ``field.element`` keeps
every refusal, and a row not yet in its table is computed and inserted by
``mpoly._power_row`` under the same budget; a point of the wrong length
raises ``ArityMismatch``.

Bounds, measured on a 2-CPU x86_64 VM with Python 3.11: at the bound shape,
32 variables and 64 terms, compiling took 1.5 ms with four slots and 2.2 ms
with a slot per term (medians of 15), and a shape kept about 5 and 9 KB once
compiled; the depths above the deepest run as a loop, so the source grows by
a few lines per variable, not per term and variable.  A slot's width needs
no bound of its own: at 64 terms in one slot the kernel still ran 1.9 times
as fast as the generic route, and every unrolled sum has at most
``_MAX_TERMS`` operands, far below the 3,000 at which a sum's compile raised
RecursionError.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ArityMismatch
from .mpoly import _power_row

_MAX_VARS = 32
_MAX_TERMS = 64
# compiled shapes kept
_SHAPES = 256


def kernel_for(plan: tuple):
    """The kernel ``kernel(poly, point, memo)`` of a polynomial over Z_p with
    this evaluation plan, or None when it has no terms, is past the bounds or
    its shape fails to compile."""
    _, _, _, depths, coefficients, slots, reduce_sums, last, _, _ = plan
    n = len(depths) + 1
    if not coefficients or n > _MAX_VARS or len(coefficients) > _MAX_TERMS:
        return None
    deep = None
    if depths:
        exponents, picks, reduce, _ = depths[-1]
        spans = None if slots is None else tuple((s.start, s.stop) for s in slots)
        # picks maps a row to one entry per term, so a row of indices to the
        # index each term picks
        deep = (tuple(picks(range(len(exponents)))), len(exponents), reduce, spans, reduce_sums)
    try:
        build = _compile_shape(n, len(last), deep)
    except RecursionError:  # compiled from a stack near the recursion limit
        return None
    return build(plan)


@lru_cache(maxsize=_SHAPES)
def _compile_shape(n: int, width: int, deep: tuple | None):
    """``build(plan)``, which binds the kernel of this shape to a
    polynomial's evaluation plan; compiled from ``_source`` once per shape."""
    namespace: dict = {"ArityMismatch": ArityMismatch, "power_row": _power_row}
    exec(compile(_source(n, width, deep), "<grid-order kernel>", "exec"), namespace)
    return namespace["build"]


def _row(v: str, get: str, exponents: str, table: str) -> list[str]:
    """Lines that coerce the coordinate named v as the generic route does and
    set r to its power row, computed and inserted when not yet in its table;
    an int, the usual coordinate, is only reduced."""
    return [f"if type({v}) is not int:",
            f"    {v} = coordinate({v})",
            f"r = {get}({v} % mod)",
            "if r is None:",
            f"    r = power_row({v} % mod, {exponents}, {table}, room, mod)"]


def _source(n: int, width: int, deep: tuple | None) -> str:
    """Python source of the kernel for n variables, ``width`` distinct last
    exponents and ``deep``: None, or for the deepest head variable the row
    index each term picks, the row width, whether its products are reduced,
    the slots as (start, stop) or None for a term each, and whether the slot
    sums are reduced."""
    def names(stem: str, count: int) -> str:
        return "".join(f"{stem}{i}, " for i in range(count))

    def indent(block: list[str], depth: int) -> list[str]:
        return [" " * depth + line for line in block]

    head = n - 1
    # the value from the slot sums c0, c1, ... and the last coordinate x
    value = [f"{names('c', width)}= memo[3]",
             *_row("x", "last", "last_exponents", "last_table"),
             f"{names('r', width)}= r",
             "return (" + " + ".join(f"c{k} * r{k}" for k in range(width)) + ") % mod"]
    lines = ["from operator import mul",
             "def build(plan):",
             "    mod, _, coordinate, depths, _, _, _, last_exponents, last_table, room = plan",
             "    last = last_table.get"]
    if deep:
        lines += ["    deep_exponents, _, _, deep_table = depths[-1]",
                  "    deep = deep_table.get",
                  "    middle = depths[:-1]",
                  "    rmod = mod.__rmod__"]
    lines += ["    def kernel(self, point, memo):",
              f"        if len(point) != {n}:",
              f"            raise ArityMismatch(f'point of length {{len(point)}}, expected {n}')",
              f"        {names('a', head)}x, = point"]
    if not deep:
        return "\n".join(lines + indent(value, 8) + ["    return kernel\n"])
    # the first head coordinate that moved is k; with none moved, the value
    # comes from the memo's slot sums
    picks, row_width, reduce, spans, reduce_sums = deep
    d = head - 1
    lines.append(f"        {names('h', head)}= memo[1]")
    for i in range(head):
        lines += [f"        {'elif' if i else 'if'} a{i} is not h{i}:",
                  f"            k = {i}"]
    lines += ["        else:"] + indent(value, 12)
    # the generic route's loop, from depth k to the one above the deepest,
    # into a new list of levels; levels[k] holds the products depth k takes
    lines += [f"        head = ({names('a', head)})",
              "        levels = memo[2]",
              f"        if k < {d}:",
              "            products = levels[k]",
              "            levels = levels[:k]",
              f"            for v, (exponents, picks, reduce, table) in zip(head[k:{d}],",
              "                                                            middle[k:]):"]
    lines += indent(_row("v", "table.get", "exponents", "table"), 16)
    lines += ["                levels.append(products)",
              "                products = list(map(mul, products, picks(r)))",
              "                if reduce:",
              "                    products = list(map(rmod, products))",
              "            levels.append(products)"]
    lines += indent(_row(f"a{d}", "deep", "deep_exponents", "deep_table"), 8)
    lines += [f"        {names('r', row_width)}= r",
              f"        {names('b', len(picks))}= levels[-1]"]
    mod_products = " % mod" if reduce else ""
    lines += [f"        t{k} = b{k} * r{j}{mod_products}" for k, j in enumerate(picks)]
    for k, (start, stop) in enumerate(spans or [(k, k + 1) for k in range(len(picks))]):
        total = " + ".join(f"t{i}" for i in range(start, stop))
        lines.append(f"        c{k} = " + (f"({total}) % mod" if reduce_sums else total))
    lines.append(f"        self._memo = (memo[0], head, levels, [{names('c', width)}], memo[4])")
    lines += indent(value[1:], 8)
    return "\n".join(lines + ["    return kernel\n"])
