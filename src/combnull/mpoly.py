"""Sparse multivariate polynomials over a prime field or the rationals.

A polynomial is a dict from exponent tuples to nonzero coefficients, with the
variable count fixed at construction.  Zero coefficients are pruned eagerly so
the invariant "every stored coefficient is nonzero" holds after every
operation.  ``terms`` must not be changed once a polynomial is built:
``__hash__`` and the evaluation memo both assume it never changes.

Evaluation is partial.  Each polynomial keeps a memo of its last evaluation
in six slots: the static plan, the coordinates before the last as passed
(the raw head), the levels, the deepest depth's products summed per distinct
last exponent (the slot sums), the kernel, and the calls left before the
kernel is compiled.  Level k holds the products that head depth k takes:
level 0 is the coefficients, and level k the per-term products
c * x_0^e_0 * ... * x_(k-1)^e_(k-1).  The plan also holds a power table for
every variable, from a coerced coordinate to its powers at that variable's
distinct exponents.  The tables only gain entries, each complete before it
is inserted, and one polynomial's tables hold at most ``_POWER_TABLE_CELLS``
cells; past that, powers are computed and not kept.  When a point's head is
the raw head object for object, as ``itertools.product`` yields it, only the
last coordinate is coerced, and the value is the slot sums times its power
row, one C-level dot product.  Otherwise, with k the first head coordinate
object that differs, the head is coerced from k on and each depth from k on
is redone from its level, one C-level multiply by the picked powers: one
rule at every depth.  Matching by identity rather than ``==``, and looking a
table up only by a coerced coordinate, keeps every refusal of
``field.element``: ``True`` or ``1.0`` never stands in for ``1``.  Over Q
the coefficients are integer numerators over their least common
denominator, so integral coordinates cost int arithmetic and each value is
divided once.

Over Z_p a polynomial evaluated often gets a kernel (``gridkernel``):
straight-line code for the same head and for a move of any head coordinate,
by the same rule, tried before the route above.  It misses only on the
first call, on a non-int coordinate and on a row not yet in its table, and
the route above takes every miss; once the tables hold a polynomial's grid,
the kernel answers every point.  On the benchmark's seed-0 instances (2-CPU
x86_64 VM, Python 3.11) it made the full Z_p^n sums 2.5 times faster, the
Boolean sums 2.4, the signed two-element sums 2.0, the Z_101 weighted sums
1.9 and ``second_nonvanish`` 1.7.

Multiplication is one Kronecker substitution for both fields: in the mixed
radix D_i = deg_i(a) + deg_i(b) + 1 each exponent vector is one int key, and
a product of terms is a sum of keys.  Raw int products are summed per key in
a dict (packed keys).  Over Z_p, when each slot fits a machine word and the
packed range prod D_i is small next to the term pairs, the coefficients go
into slots of one big int instead, one int product (Karatsuba in CPython)
does all the pairs, and the product is read back as one array of machine
words, visiting only its nonzero slots.  Over Q each operand is cleared to
integer numerators over its least common denominator and always takes packed
keys, since signed slots of one big int would borrow from each other; each
surviving sum is divided once by the two denominators.  A product of many
factors is one balanced product tree (``_product``).

The textual format is a sum of terms ``c*x1^e1*...*xn^en`` with
``+`` / ``-`` separators; variables are 1-based in the text and 0-based in the
programmatic API.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from array import array
from operator import is_, itemgetter, mul
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import (ArityMismatch, BadInput, FieldMismatch, ResourceLimit, SchemaError,
                     _check_positive_int)
from .field import FieldSpec, PrimeField, Scalar

NEG_INF = float("-inf")
_UNSET = object()
# Cells the power tables of one polynomial may hold (``_power_row``), every
# variable's rows counted alike.  The 120 x 120 Cauchy-Davenport certificate
# over Z_1009 takes 28,800 for each of its two variables, 57,600 in all; as a
# process, its peak RSS went from 23.1 to 24.1 MB when its first variable got
# a table, at 0.65-0.74 s either way (2-CPU x86_64, Python 3.11).
_POWER_TABLE_CELLS = 1 << 16
# A polynomial over Z_p asks ``gridkernel`` for its grid-order kernel at this
# call, so a small one-shot grid, as in a command-line request, never imports
# that module.  A new shape's compile (1-2 ms, once per process) is repaid
# within a few thousand more points; a compiled one costs only its binding.
# The benchmark's common_roots, whose slice polynomials are built anew per
# call, ran 1.31 times as fast with 128 here and 1.11 times with 1,024
# (in-process passes, 2-CPU x86_64 VM, Python 3.11).
_KERNEL_CALLS = 1 << 8

_TermsLike = Union[Mapping[tuple, Scalar], Iterable[tuple]]


class MultiPoly:
    """Polynomial in ``n_vars`` variables with exact coefficients."""

    # _memo: the evaluation memo (see ``evaluate``); not part of the value, so
    # __eq__, __hash__ and __repr__ ignore it
    __slots__ = ("field", "n_vars", "terms", "_memo")

    def __init__(self, field: FieldSpec, n_vars: int, terms: _TermsLike = ()):
        _check_positive_int(n_vars, "n_vars", ArityMismatch)
        clean: dict[tuple[int, ...], Scalar] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != n_vars:
                raise ArityMismatch(
                    f"exponent vector {exps} has length {len(exps)}, expected {n_vars}"
                )
            for e in exps:
                if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                    raise BadInput(f"exponents must be integers >= 0, got {e!r}")
            c = field.element(coeff)
            if exps in clean:
                c = field.add(clean[exps], c)
            if field.is_zero(c):
                clean.pop(exps, None)
            else:
                clean[exps] = c
        self.field = field
        self.n_vars = n_vars
        self.terms = clean
        self._memo = None

    # ---------------------------------------------------------------- builders

    @classmethod
    def zero(cls, field: FieldSpec, n_vars: int) -> "MultiPoly":
        return cls(field, n_vars)

    @classmethod
    def constant(cls, field: FieldSpec, n_vars: int, value: Scalar) -> "MultiPoly":
        return cls(field, n_vars, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, field: FieldSpec, n_vars: int, index: int) -> "MultiPoly":
        """The monomial x_index (0-based index)."""
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < n_vars:
            raise ArityMismatch(
                f"variable index {index!r} out of range for {n_vars} variables"
            )
        exps = tuple(1 if i == index else 0 for i in range(n_vars))
        return cls(field, n_vars, {exps: field.one})

    # ------------------------------------------------------------- arithmetic

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.field != self.field:
                raise FieldMismatch(f"{other.field!r} vs {self.field!r}")
            if other.n_vars != self.n_vars:
                raise ArityMismatch(f"{other.n_vars} variables vs {self.n_vars}")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return MultiPoly.constant(self.field, self.n_vars, other)
        return NotImplemented

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = fld.add(out.get(exps, fld.zero), c)
            if fld.is_zero(s):
                out.pop(exps, None)
            else:
                out[exps] = s
        return self._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        fld = self.field
        return self._raw({e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "MultiPoly":
        """Product by Kronecker substitution (``_mul_terms``) over either field."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._raw(_mul_terms(self.terms, other.terms, self.field))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        """Repeated squaring; k must be a nonnegative integer."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise BadInput(f"polynomial exponent must be an integer >= 0, got {k!r}")
        if k == 0:
            return MultiPoly.constant(self.field, self.n_vars, self.field.one)
        result = None  # no multiplication by the constant 1
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _raw(self, terms: dict) -> "MultiPoly":
        # internal: terms already canonical (right arity, nonzero, reduced)
        p = MultiPoly.__new__(MultiPoly)
        p.field = self.field
        p.n_vars = self.n_vars
        p.terms = terms
        p._memo = None
        return p

    # ---------------------------------------------------------------- queries

    def total_degree(self) -> Union[int, float]:
        """Max term degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def coefficient_of(self, exps: Sequence[int]) -> Scalar:
        exps = tuple(exps)
        if len(exps) != self.n_vars:
            raise ArityMismatch(
                f"exponent vector of length {len(exps)}, expected {self.n_vars}"
            )
        return self.terms.get(exps, self.field.zero)

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Value at a point, using the 0**0 = 1 convention.

        Partial evaluation against the previous call's memo (see the module
        docstring): a head that is the previous raw head object for object
        costs one lookup of the last coordinate's power row and one C-level
        dot product with the slot sums; otherwise, with k the first
        coordinate object that differs, the head is coerced from k on and
        each depth from k on is redone from its level, by one rule at every
        depth.  Over Z_p, from the ``_KERNEL_CALLS``-th call on, a kernel
        (``gridkernel``) is tried first, and a miss (the first call, a
        non-int coordinate, a row not yet in its table) takes the route
        above.  The value is a residue over Z_p and a ``Fraction`` over
        Q.  The memo is O(terms * n_vars) plus power tables of at most
        ``_POWER_TABLE_CELLS`` cells.  It is replaced by one attribute store,
        and the tables only gain complete entries, so a concurrent call on a
        shared polynomial at worst recomputes.  ``terms`` must not be
        mutated in place.
        """
        memo = self._memo
        if memo is not None and (kernel := memo[4]) is not None:
            value = kernel(self, point, memo)
            if value is not None:
                return value
        if len(point) != self.n_vars:
            raise ArityMismatch(f"point of length {len(point)}, expected {self.n_vars}")
        if memo is None:
            # a head of n_vars placeholders, which no point matches, and
            # level 0, the coefficients
            plan = _eval_plan(self)
            memo = (plan, (_UNSET,) * self.n_vars, [plan[4]], None, None, _KERNEL_CALLS if plan[0] else 0)
        plan, head, levels, coeffs, kernel, calls = memo
        mod, den, coordinate, depths, _, slots, reduce_sums, last, table, room = plan
        stale = calls
        if calls:  # counted down to the call that compiles the kernel
            calls -= 1
            if not calls:
                from .gridkernel import kernel_for

                kernel = kernel_for(plan)
        if not all(map(is_, point, head)):  # in grid order, only when a head coordinate moves
            first = list(map(is_, point, head)).index(False)
            head = tuple(point[:self.n_vars - 1])
            products = levels[first]
            levels = levels[:first]
            for (exponents, picks, reduce, powers), x in zip(depths[first:],
                                                             map(coordinate, head[first:])):
                row = powers.get(x)
                if row is None:
                    row = _power_row(x, exponents, powers, room, mod)
                levels.append(products)
                products = list(map(mul, products, picks(row)))
                if reduce:
                    products = list(map(mod.__rmod__, products))
            if slots:
                products = list(map(sum, map(products.__getitem__, slots)))
            if reduce_sums:
                products = list(map(mod.__rmod__, products))
            coeffs = products
            stale = True
        if stale:
            self._memo = (plan, head, levels, coeffs, kernel, calls)
        x = point[-1]
        if type(x) is not int:
            x = coordinate(x)
        elif mod:
            x %= mod
        row = table.get(x)
        if row is None:
            row = _power_row(x, last, table, room, mod)
        if mod:
            return sum(map(mul, coeffs, row)) % mod
        value = sum(map(mul, coeffs, row))
        # a Fraction value is already reduced: dividing it by den takes
        # gcds against den only, never over the whole value
        if type(value) is int:
            value = Fraction(value)
        if den > 1:
            value /= den
        return value

    def is_restricted(self, d: Sequence[int]) -> bool:
        """True iff no monomial other than x^d itself dominates d coordinatewise."""
        d = tuple(d)
        if len(d) != self.n_vars:
            raise ArityMismatch(f"degree vector of length {len(d)}, expected {self.n_vars}")
        for exps in self.terms:
            if exps == d:
                continue
            if all(k >= di for k, di in zip(exps, d)):
                return False
        return True

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.field!r}, {self.n_vars}, {format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def sorted_terms(f: MultiPoly) -> list[tuple[tuple[int, ...], Scalar]]:
    """Terms in descending graded-lexicographic order (the global ordering)."""
    return [
        (e, f.terms[e]) for e in sorted(f.terms, key=lambda e: (sum(e), e), reverse=True)
    ]


def _eval_plan(f: MultiPoly) -> tuple:
    """The static half of the evaluation memo, built once per polynomial,
    with the power tables it fills.

    The terms are taken in the order of their slot, the place of the term's
    last exponent among the distinct last exponents in descending order, so
    each slot is one ``slice`` of the per-term products (``slots`` is None
    when every slot holds one term).  Each leading variable is stored as its
    distinct exponents in descending order and ``picks``, an
    ``operator.itemgetter`` that maps a row of its powers at those exponents
    to one power per term, so each term's prefix product takes one multiply.
    The coefficients are level 0 of the memo, the products the first depth
    takes; over Q they are integer numerators over their least common
    denominator (``_numerators``).  Over Z_p a depth's products, and the
    slot sums, are reduced only where one more multiply could pass 60 bits.
    ``coordinate`` coerces one coordinate: a residue over Z_p, and over Q an
    int when it is integral.  Every variable has a power table, a dict from
    a coerced coordinate to its power row, and ``room`` holds the cells the
    tables may still take (``_power_row``).  Returns (modulus or None,
    denominator, coordinate, depths as (exponents, picks, reduce, table),
    coefficients, slots, reduce the slot sums, last exponents, last table,
    room).
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
    slots = None if len(bounds) > len(slot_of) else [slice(*ab) for ab in zip(bounds, bounds[1:])]
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
    return (mod, den, coordinate, depths, coefficients, slots, reduce[-1], last, {},
            [_POWER_TABLE_CELLS])


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


def _suffix_slices(f: MultiPoly, s: int) -> dict:
    """f split by the exponents of its last s variables.

    Maps each suffix exponent key to its coefficient, so that f is the sum of
    coefficient * x_(n-s)^key_0 * ... * x_(n-1)^key_(s-1).  A coefficient
    that involves none of the first n - s variables, as every one does when
    n <= s, is a plain constant; any other is a ``MultiPoly`` in those
    variables.
    """
    cut = max(f.n_vars - s, 0)
    origin = (0,) * cut
    groups: dict[tuple[int, ...], dict] = {}
    for exps, c in f.terms.items():
        groups.setdefault(exps[cut:], {})[exps[:cut]] = c
    return {key: terms[origin] if terms.keys() == {origin} else MultiPoly(f.field, cut, terms)
            for key, terms in groups.items()}


# ----------------------------------------------------------- multiplication

# The big-int product's Karatsuba multiply grows faster than linearly in its
# bytes and its read-back copies each slot into a machine word; the packed-key
# loop does one dict step per term pair.  A product takes the big int while
# prod D_i * word is at most this many times |a| * |b|.  Timed on random
# products (p = 3, 31 and 65521, 1 to 6 variables, 20 to 600 terms), the big
# int took 0.4 to 0.7 times the packed-key time below 3, the two routes tied
# between 3 and 6, and past 8 packed keys were 2 to 4 times faster.
_DENSE_BYTES_PER_PAIR = 4

# array typecodes by item size; "Q" (8 bytes) is the widest slot
_WORD_TYPECODES = {array(t).itemsize: t for t in "BHILQ"}


def _radix(a: dict, b: dict) -> list[int]:
    """D_i = deg_i(a) + deg_i(b) + 1 for two nonzero term dicts: in this mixed
    radix the exponent vectors of a * b add digit by digit, with no carry."""
    return [da + db + 1 for da, db in zip(map(max, zip(*a)), map(max, zip(*b)))]


def _keys(terms: dict, radix: Sequence[int]) -> list[int]:
    """Each exponent vector as one int in the mixed radix, last digit lowest."""
    weights, w = [], 1
    for d in reversed(radix):
        weights.append(w)
        w *= d
    weights.reverse()
    return [sum(map(int.__mul__, exps, weights)) for exps in terms]


def _slots(a_len: int, b_len: int, p: int) -> tuple[int, int]:
    """(width, word) of a big-int product slot in bytes.  A slot sums at most
    min(|a|, |b|) products below p^2, so at this width no slot carries; word
    is the width rounded up to a power of two, the machine word (1, 2, 4 or
    8 bytes) it is read back in when it is at most 8."""
    width = ((min(a_len, b_len) * (p - 1) ** 2).bit_length() + 7) // 8
    return width, 1 << (width - 1).bit_length()


def _mul_route(a_len: int, b_len: int, span: int, p: int):
    """The product routine for |a|, |b|, the packed range span = prod D_i and
    Z_p: one big-int product when a slot fits a machine word and the range in
    words is dense in term pairs, else packed keys, so neither a
    huge-exponent product nor a huge p builds a range-sized int."""
    _, word = _slots(a_len, b_len, p)
    if word <= 8 and span * word <= _DENSE_BYTES_PER_PAIR * a_len * b_len:
        return _mul_bigint
    return _mul_packed


def _mul_terms(a: dict, b: dict, field: FieldSpec) -> dict:
    """The terms of a * b, by Kronecker substitution: each exponent vector
    becomes one int key in the radix of ``_radix``, so a product of terms is a
    sum of keys.  Over Q the keyed coefficients are integer numerators over
    each operand's least common denominator (a square clears once)."""
    if not a or not b:
        return {}
    radix = _radix(a, b)
    if isinstance(field, PrimeField):
        return _mul_route(len(a), len(b), math.prod(radix), field.p)(a, b, field.p, radix)
    num_a, den_a = _numerators(a)
    num_b, den_b = (num_a, den_a) if b is a else _numerators(b)
    den = den_a * den_b
    return {e: Fraction(c, den) for e, c in _mul_packed(num_a, num_b, None, radix).items()}


def _product(field: FieldSpec, n_vars: int, factors: Iterable[MultiPoly]) -> MultiPoly:
    """The product of the factors as a balanced product tree (``_pairwise``),
    so each multiply meets operands of like size; the constant 1 when there
    are none."""
    level = list(factors)
    if not level:
        return MultiPoly.constant(field, n_vars, field.one)
    return _pairwise(level, mul)


def _pairwise(level: list, merge: Callable) -> object:
    """A nonempty list merged as a balanced tree: neighbours pair up level by
    level, and an odd last item waits a level."""
    while len(level) > 1:
        level = [merge(a, b) for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1:]
    return level[0]


def _numerators(terms: dict) -> tuple[dict, int]:
    """Rational terms as integer numerators over their least common denominator."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _mul_packed(a: dict, b: dict, p: int | None, radix: Sequence[int]) -> dict:
    """Packed keys: raw int products summed per key, one ``% p`` per key (none
    when p is None, for integer coefficients), and only the nonzero keys
    unpacked.  Any sparsity and any sign."""
    acc: dict[int, int] = {}
    get = acc.get
    b_items = list(zip(_keys(b, radix), b.values()))
    for k1, c1 in zip(_keys(a, radix), a.values()):
        for k2, c2 in b_items:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    out = {}
    low_first = radix[:0:-1]
    for k, c in acc.items():
        if p:
            c %= p
        if c:
            digits = []
            for d in low_first:
                k, e = divmod(k, d)
                digits.append(e)
            digits.append(k)
            out[tuple(reversed(digits))] = c
    return out


def _mul_bigint(a: dict, b: dict, p: int, radix: Sequence[int]) -> dict:
    """One int product: each operand's coefficients sit at their keys in
    slots of the width ``_slots`` gives, so the slots never carry into each
    other.  The product is read back in one pass: each slot is widened to the
    next machine word (1, 2, 4 or 8 bytes; ``_mul_route`` sends nothing wider)
    and the whole range becomes one ``array``, whose nonzero slots are paired
    with their exponent vectors by ``itertools.compress`` and reduced once.
    A square packs its operand once."""
    span = math.prod(radix)
    width, word = _slots(len(a), len(b), p)

    def pack(terms: dict) -> int:
        buf = bytearray(span * width)
        for k, c in zip(_keys(terms, radix), terms.values()):
            buf[k * width:(k + 1) * width] = c.to_bytes(width, "little")
        return int.from_bytes(buf, "little")

    x = pack(a)
    data = (x * (x if b is a else pack(b))).to_bytes(span * width, "little")
    if word != width:
        wide = bytearray(span * word)
        for j in range(width):
            wide[j::word] = data[j::width]
        data = wide
    slots = array(_WORD_TYPECODES[word], data)
    if sys.byteorder == "big":
        slots.byteswap()
    # itertools.product counts through the radix in key order
    nonzero = itertools.compress(itertools.product(*map(range, radix)), slots)
    return {exps: c for exps, c in zip(nonzero, map(p.__rmod__, filter(None, slots))) if c}


# --------------------------------------------------------------------- text IO

_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_NUM_RE = re.compile(r"^(\d+)(?:/(\d+))?$")


def _literal(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # past Python's int/str digit limit
        raise SchemaError(f"number too long in polynomial text: {exc}") from exc


def parse_poly(text: str, field: FieldSpec, n_vars: int | None = None) -> MultiPoly:
    """Parse the ``c*x1^e1*...*xn^en`` sum-of-terms format.

    Variable indices in the text are 1-based.  When ``n_vars`` is omitted it
    is inferred as the largest index present (at least 1).
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise SchemaError("empty polynomial text")
    chunks: list[str] = []
    start = 0
    for i in range(1, len(s)):
        if s[i] in "+-":
            chunks.append(s[start:i])
            start = i
    chunks.append(s[start:])

    parsed: list[tuple[Scalar, dict[int, int]]] = []
    max_index = 1
    for chunk in chunks:
        sign = 1
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise SchemaError(f"dangling sign in polynomial text {text!r}")
        coeff: Scalar = Fraction(sign)
        exps: dict[int, int] = {}
        for factor in body.split("*"):
            m = _VAR_RE.match(factor)
            if m:
                idx = _literal(m.group(1))
                if idx < 1:
                    raise SchemaError(f"variable indices start at x1, got {factor!r}")
                e = _literal(m.group(2)) if m.group(2) is not None else 1
                exps[idx] = exps.get(idx, 0) + e
                max_index = max(max_index, idx)
                continue
            m = _NUM_RE.match(factor)
            if m:
                num = _literal(m.group(1))
                den = _literal(m.group(2)) if m.group(2) is not None else 1
                if den == 0:
                    raise SchemaError(f"zero denominator in {factor!r}")
                coeff = coeff * Fraction(num, den)
                continue
            raise SchemaError(f"cannot parse factor {factor!r} in {text!r}")
        parsed.append((coeff, exps))

    if n_vars is None:
        n_vars = max_index
    elif max_index > n_vars:
        raise ArityMismatch(
            f"polynomial text uses x{max_index} but only {n_vars} variables declared"
        )
    terms = []
    for coeff, exps in parsed:
        vec = tuple(exps.get(i + 1, 0) for i in range(n_vars))
        terms.append((vec, coeff))
    return MultiPoly(field, n_vars, terms)


def _format_coeff(field: FieldSpec, c: Scalar) -> tuple[str, str]:
    """(sign, magnitude-text); prime-field residues are always nonnegative."""
    try:
        if isinstance(field, PrimeField):
            return "+", str(c)
        return ("-", str(-c)) if c < 0 else ("+", str(c))
    except ValueError as exc:  # past Python's int/str digit limit
        raise ResourceLimit(f"coefficient too long to print: {exc}") from exc


def format_poly(f: MultiPoly) -> str:
    """Deterministic rendering, graded-lex descending; inverse of parse_poly."""
    if not f.terms:
        return "0"
    pieces: list[tuple[str, str]] = []
    for exps, coeff in sorted_terms(f):
        sign, mag = _format_coeff(f.field, coeff)
        vars_txt = "*".join(
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(exps)
            if e > 0
        )
        if not vars_txt:
            pieces.append((sign, mag))
        elif mag == "1":
            pieces.append((sign, vars_txt))
        else:
            pieces.append((sign, f"{mag}*{vars_txt}"))
    head_sign, head = pieces[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
