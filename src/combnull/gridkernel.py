"""Grid-order kernels: ``MultiPoly.evaluate`` in straight-line code.

A polynomial over Z_p that has been evaluated ``mpoly._KERNEL_CALLS`` times
gets a kernel, a small function generated from the shape of its evaluation
plan (``mpoly._eval_plan``) and kept in its memo.  The shape is the variable
count, the number of slots (distinct last exponents), and for the deepest
head variable the power each term picks, the slots' spans and where products
are reduced; the source is built from these ints alone, never from a
coefficient, exponent or coordinate.  It is compiled once per shape and bound
to each polynomial's modulus and power tables.

The kernel does the two cases of grid order without the generic route's
per-call set-up.  With the head the memo holds (unrolled identity tests), the
value is one table lookup for the last coordinate and an unrolled dot product
mod p.  With only the deepest head coordinate moved, the slot sums are first
redone from the memo's deepest level and that coordinate's power row,
reduced exactly where the plan reduces, and stored as a new memo in one
attribute store.  Anything else, a non-int coordinate, a row not yet in its
table or a deeper head change, returns None, a miss, and ``evaluate`` takes
its generic route, the only one that coerces, refuses or inserts into a power
table.

Bounds, measured on a 2-CPU x86_64 VM with Python 3.11: compiling took
0.7-1.1 ms up to 16 terms, 2.0 ms at 64, 3.4 ms at 128 and 5.3 ms at 256,
and a shape kept 4-11 KB once compiled; a kernel saves about 1 us per grid
point, so ``mpoly._KERNEL_CALLS`` calls come first.  The gain shrinks with the
variables, since a head change deeper than the deepest coordinate misses: on
{0,1}^n it was 1.42x at 16 variables, 1.19x at 32 and 1.11x at 48.  A slot's
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
    deep = deep_get = None
    if n > 2:  # the first variable keeps no table, so with two a head change misses
        exponents, picks, reduce, deep_table = depths[-1]
        deep_get = deep_table.get
        spans = None if slots is None else tuple((s.start, s.stop) for s in slots)
        # picks maps a row to one entry per term, so a row of indices to the
        # index each term picks
        deep = (tuple(picks(range(len(exponents)))), len(exponents), reduce, spans, reduce_sums)
    try:
        build = _compile_shape(n, len(last), deep)
    except RecursionError:  # compiled from a stack near the recursion limit
        return None
    return build(mod, table.get, deep_get)


@lru_cache(maxsize=_SHAPES)
def _compile_shape(n: int, width: int, deep: tuple | None):
    """``build(mod, last, deep)``, which binds the kernel of this shape to a
    modulus and the ``get`` of the last and the deepest head variable's power
    tables; compiled from ``_source`` once per shape."""
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
    lines = ["def build(mod, last, deep):",
             "    def kernel(self, point, memo):",
             f"        if len(point) != {n}:",
             "            return None",
             f"        {names('a', head)}x, = point"]
    if head:
        lines.append(f"        {names('h', head)}= memo[1]")
        fixed = head - 1 if deep else head  # coordinates that must match
        if fixed:
            lines += ["        if " + " or ".join(f"a{i} is not h{i}" for i in range(fixed)) + ":",
                      "            return None"]
    if deep:
        picks, row_width, reduce, spans, reduce_sums = deep
        d = head - 1
        lines += [f"        if a{d} is h{d}:",
                  f"            {names('c', width)}= memo[3]",
                  "        else:",
                  f"            if type(a{d}) is not int:",
                  "                return None",
                  f"            r = deep(a{d} % mod)",
                  "            if r is None:",
                  "                return None",
                  f"            {names('r', row_width)}= r",
                  f"            {names('b', len(picks))}= memo[2][-1]"]
        mod_products = " % mod" if reduce else ""
        lines += [f"            t{k} = b{k} * r{j}{mod_products}" for k, j in enumerate(picks)]
        for k, (start, stop) in enumerate(spans or [(k, k + 1) for k in range(len(picks))]):
            total = " + ".join(f"t{i}" for i in range(start, stop))
            lines.append(f"            c{k} = " + (f"({total}) % mod" if reduce_sums else total))
        lines.append(f"            self._memo = (memo[0], ({names('a', head)}), memo[2], "
                     f"[{names('c', width)}], memo[4], 0)")
    else:
        lines.append(f"        {names('c', width)}= memo[3]")
    lines += ["        if type(x) is not int:",
              "            return None",
              "        r = last(x % mod)",
              "        if r is None:",
              "            return None",
              f"        {names('r', width)}= r",
              "        return (" + " + ".join(f"c{k} * r{k}" for k in range(width)) + ") % mod",
              "    return kernel"]
    return "\n".join(lines) + "\n"
