"""Grid-order kernels: ``MultiPoly.evaluate`` in straight-line code.

A polynomial over Z_p that has been evaluated ``mpoly._KERNEL_CALLS`` times
gets a kernel, a small function generated from the shape of its evaluation
plan (``mpoly._eval_plan``) and kept in its memo.  The shape is the variable
count, the number of slots (distinct last exponents), and for the deepest
head variable the power each term picks, the slots' spans and where products
are reduced; the source is built from these ints alone, never from a
coefficient, exponent or coordinate.  It is compiled once per shape and bound
to each polynomial's modulus, its power tables, and the picks and reduce
flags of the depths above the deepest.

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
changed in place.  A non-int coordinate or a row not yet in its table
returns None, a miss, and ``evaluate`` takes its generic route, the only one
that coerces, refuses or inserts into a power table; once the tables hold a
polynomial's grid, its kernel answers every point.

Bounds, measured on a 2-CPU x86_64 VM with Python 3.11: at the bound shape,
32 variables and 64 terms, compiling took 1.5 ms with four slots and 2.2 ms
with a slot per term (medians of 15), and a shape kept about 5 and 9 KB once
compiled; the depths above the deepest run as a loop, so the source grows by
a few lines per variable, not per term and variable.  A kernel saves about
1 us per grid point, so ``mpoly._KERNEL_CALLS`` calls come first.  A slot's
width needs no bound of its own: at 64 terms in one slot the kernel still ran
1.9 times as fast as the generic route, and every unrolled sum has at most
``_MAX_TERMS`` operands, far below the 3,000 at which a sum's compile raised
RecursionError.
"""

from __future__ import annotations

from functools import lru_cache

_MAX_VARS = 32
_MAX_TERMS = 64
# compiled shapes kept
_SHAPES = 256


def kernel_for(plan: tuple):
    """The kernel ``kernel(poly, point, memo)`` of a polynomial with this
    evaluation plan, or None when the plan is over Q, has no terms or is past
    the bounds."""
    mod, _, _, depths, coefficients, slots, reduce_sums, last, table, _ = plan
    n = len(depths) + 1
    if not mod or not coefficients or n > _MAX_VARS or len(coefficients) > _MAX_TERMS:
        return None
    deep = deep_get = middle = None
    if depths:
        exponents, picks, reduce, deep_table = depths[-1]
        deep_get = deep_table.get
        spans = None if slots is None else tuple((s.start, s.stop) for s in slots)
        # picks maps a row to one entry per term, so a row of indices to the
        # index each term picks
        deep = (tuple(picks(range(len(exponents)))), len(exponents), reduce, spans, reduce_sums)
        # the depths above the deepest, which the kernel runs as the generic route does
        middle = tuple((picks, reduce, depth_table.get)
                       for _, picks, reduce, depth_table in depths[:-1])
    try:
        build = _compile_shape(n, len(last), deep)
    except RecursionError:  # compiled from a stack near the recursion limit
        return None
    return build(mod, table.get, deep_get, middle)


@lru_cache(maxsize=_SHAPES)
def _compile_shape(n: int, width: int, deep: tuple | None):
    """``build(mod, last, deep, middle)``, which binds the kernel of this
    shape to a modulus, the ``get`` of the last and the deepest head
    variable's power tables, and for each depth above the deepest its
    picks, reduce flag and table ``get``; compiled from ``_source`` once per
    shape."""
    namespace: dict = {}
    exec(compile(_source(n, width, deep), "<grid-order kernel>", "exec"), namespace)
    return namespace["build"]


def _source(n: int, width: int, deep: tuple | None) -> str:
    """Python source of the kernel for n variables, ``width`` distinct last
    exponents and ``deep``: None, or for the deepest head variable the row
    index each term picks, the row width, whether its products are reduced,
    the slots as (start, stop) or None for a term each, and whether the slot
    sums are reduced."""
    def names(stem: str, count: int) -> str:
        return "".join(f"{stem}{i}, " for i in range(count))

    head = n - 1
    # the value from the slot sums c0, c1, ... and the last coordinate x
    value = [f"{names('c', width)}= memo[3]",
             "if type(x) is not int:",
             "    return None",
             "r = last(x % mod)",
             "if r is None:",
             "    return None",
             f"{names('r', width)}= r",
             "return (" + " + ".join(f"c{k} * r{k}" for k in range(width)) + ") % mod"]
    lines = ["from operator import mul",
             "def build(mod, last, deep, middle):",
             "    rmod = mod.__rmod__",
             "    def kernel(self, point, memo):",
             f"        if len(point) != {n}:",
             "            return None",
             f"        {names('a', head)}x, = point"]
    if not deep:
        return "\n".join(lines + ["        " + line for line in value] + ["    return kernel\n"])
    # the first head coordinate that moved is k; with none moved, the value
    # comes from the memo's slot sums
    picks, row_width, reduce, spans, reduce_sums = deep
    d = head - 1
    lines.append(f"        {names('h', head)}= memo[1]")
    for i in range(head):
        lines += [f"        {'elif' if i else 'if'} a{i} is not h{i}:",
                  f"            k = {i}"]
    lines += ["        else:"] + ["            " + line for line in value]
    # the generic route's loop, from depth k to the one above the deepest,
    # into a new list of levels; levels[k] holds the products depth k takes
    lines += [f"        head = ({names('a', head)})",
              "        levels = memo[2]",
              f"        if k < {d}:",
              "            products = levels[k]",
              "            levels = levels[:k]",
              f"            for v, (picks, reduce, get) in zip(head[k:{d}], middle[k:]):",
              "                if type(v) is not int:",
              "                    return None",
              "                row = get(v % mod)",
              "                if row is None:",
              "                    return None",
              "                levels.append(products)",
              "                products = list(map(mul, products, picks(row)))",
              "                if reduce:",
              "                    products = list(map(rmod, products))",
              "            levels.append(products)"]
    lines += [f"        if type(a{d}) is not int:",
              "            return None",
              f"        r = deep(a{d} % mod)",
              "        if r is None:",
              "            return None",
              f"        {names('r', row_width)}= r",
              f"        {names('b', len(picks))}= levels[-1]"]
    mod_products = " % mod" if reduce else ""
    lines += [f"        t{k} = b{k} * r{j}{mod_products}" for k, j in enumerate(picks)]
    for k, (start, stop) in enumerate(spans or [(k, k + 1) for k in range(len(picks))]):
        total = " + ".join(f"t{i}" for i in range(start, stop))
        lines.append(f"        c{k} = " + (f"({total}) % mod" if reduce_sums else total))
    lines.append(f"        self._memo = (memo[0], head, levels, [{names('c', width)}], memo[4], 0)")
    lines += ["        " + line for line in value[1:]]
    return "\n".join(lines + ["    return kernel\n"])
