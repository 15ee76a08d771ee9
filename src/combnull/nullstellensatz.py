"""Weighted grid sums and the coefficient identities behind them.

For finite sets A_1, ..., A_n in a field, write d_i = |A_i| - 1 and, for
a in A_i, let ``denom(A_i, a)`` be the product of (a - b) over b in A_i other
than a (the Lagrange denominator).  The weight of a grid point alpha is the
product P(alpha) of its coordinate denominators.  The central facts executed
here, for f a polynomial in n variables:

* if ``total_degree(f) < d_1 + ... + d_n`` then the sum of f(alpha)/P(alpha)
  over the grid is 0;
* if ``total_degree(f) <= d_1 + ... + d_n`` the same sum equals the
  coefficient of x_1^{d_1} * ... * x_n^{d_n} in f;
* the previous point still holds whenever no monomial of f other than x^d
  dominates d coordinatewise (``is_restricted``), regardless of total degree.

Every grid point is drawn from one capped iterator, ``_points``, and every
weighted sum runs through one loop, ``_weighted_sum_of_values``.  The
specializations with their own entry points are exact reductions to that
weighted sum: over all of Z_2^n every weight is 1; over all of Z_p^n every
weight is (-1)^n by Wilson's theorem; over two-element grids the alternating
sum is the weighted sum times the product of (a_i0 - a_i1).

Results depend on the arguments alone and never on iteration order.  The
grid cap is the exception: without an explicit ``max_points`` it reads the
environment (``resolve_max_points``).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import (
    ArityMismatch,
    BadGridShape,
    BadInput,
    EmptyInput,
    FieldMismatch,
    NotAMember,
    OutOfRange,
    ResourceLimit,
    SizeMismatch,
    TheoremViolation,
    _check_grid_cap,
)
# the grid cap is defined in errors; its names also resolve here
from .errors import DEFAULT_MAX_GRID_POINTS, MAX_GRID_POINTS_ENV, resolve_max_points  # noqa: F401
from .field import FieldSpec, PrimeField, Scalar
from .mpoly import MultiPoly, _pairwise

# Bit size allowed for a value over Q (``_check_poly_grid``).  At this size one
# evaluation took about 50 ms at an integral coordinate and 1.3-1.9 s at a
# fractional one, and at twice it 0.08 s and 4.9-6.3 s (2-CPU x86_64 VM,
# Python 3.11); the README's 100,000-bit x1^100000 over 0,1/2 fits.
MAX_RATIONAL_HEIGHT_BITS = 1 << 20
# Longest run of tail weights the weighted sum tabulates, unless the last
# coordinate set alone is longer: about 2 multiplications per entry to build,
# against one head product per run.
_MAX_RUN_TABLE = 1 << 8
# Most points ``second_nonvanish`` returns; one more raises ResourceLimit.
# As a process, ``witness --p 2 --poly 1`` took 0.7 s and 40 MB RSS on
# {0,1}^16 and 2.3 s and 117 MB on {0,1}^18 (2-CPU x86_64 VM, Python 3.11),
# so the 2^24 grid cap alone would allow about 7 GB.
_WITNESS_ANSWER_CAP = 1 << 18
_VALUE = operator.itemgetter(1)


class Grid:
    """A product A_1 x ... x A_n of finite sets, each stored sorted."""

    __slots__ = ("field", "sets")

    def __init__(self, field: FieldSpec, sets: Sequence[Sequence[Scalar]]):
        if not sets:
            raise EmptyInput("a grid needs at least one coordinate set")
        canon = []
        for i, raw in enumerate(sets):
            elems = sorted(field.element(x) for x in raw)
            if not elems:
                raise EmptyInput(f"coordinate set {i} is empty")
            for a, b in zip(elems, elems[1:]):
                if a == b:
                    raise BadInput(
                        f"coordinate set {i} has repeated element {field.format(a)}"
                    )
            canon.append(tuple(elems))
        self.field = field
        self.sets = tuple(canon)

    @property
    def n_vars(self) -> int:
        return len(self.sets)

    def point_count(self) -> int:
        n = 1
        for s in self.sets:
            n *= len(s)
        return n

    def degree_bound(self) -> int:
        """d_1 + ... + d_n with d_i = |A_i| - 1."""
        return sum(len(s) - 1 for s in self.sets)

    def target_exponents(self) -> tuple[int, ...]:
        return tuple(len(s) - 1 for s in self.sets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.field == other.field and self.sets == other.sets

    def __hash__(self) -> int:
        return hash((self.field, self.sets))

    def __repr__(self) -> str:
        return f"Grid({self.field!r}, {list(map(list, self.sets))!r})"


class GridPoint(NamedTuple):
    """A grid point: the field values of its coordinates."""

    value: tuple[Scalar, ...]


def _points(sets: Sequence[Sequence], max_points: int | None = None) -> Iterator[tuple]:
    """Every point of sets[0] x ... x sets[-1], last coordinate varying fastest.

    The point count is taken from len() alone, so a range can stand for all
    of Z_p and a grid above the cap is refused before anything of its size
    is built.
    """
    count = math.prod(len(s) for s in sets)
    _check_grid_cap(count, max_points, "grid has {count} points, cap is {cap}")
    return itertools.product(*sets)


def lagrange_denominator(field: FieldSpec, elements: Sequence[Scalar], a: Scalar) -> Scalar:
    """Product of (a - b) over b != a in the set; nonzero by distinctness."""
    elems = [field.element(x) for x in elements]
    if not elems:
        raise EmptyInput("denominator over an empty set")
    a = field.element(a)
    if a not in elems:
        raise NotAMember(f"{field.format(a)} is not in the set")
    out = field.one
    for b in elems:
        if b != a:
            out = field.mul(out, field.sub(a, b))
    return out


def weighted_power_sum(
    field: FieldSpec, elements: Sequence[Scalar], m: int, max_points: int | None = None
) -> Scalar:
    """Sum of a**m / denom(A, a) over a in A, for 0 <= m <= |A| - 1.

    Equals 0 for m < |A| - 1 and 1 for m = |A| - 1; this is the univariate
    kernel that makes the grid identities work.
    """
    grid = Grid(field, [elements])
    top = len(grid.sets[0]) - 1
    if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m <= top:
        raise OutOfRange(f"exponent must lie in [0, {top}], got {m!r}")
    return _weighted_sum_of_values(lambda point: field.power(point[0], m), grid, max_points)


def lagrange_interpolate(
    field: FieldSpec, points: Sequence[Scalar], values: Sequence[Scalar]
) -> MultiPoly:
    """Unique univariate polynomial of degree < len(points) through the data.

    It is the sum over the points a of w_a * y_a * M(x) / (x - a), with M the
    master polynomial, the product of (x - b) over all points b, and
    w_a = 1/denom(A, a) the weights the grid sums use.  Both are built on one
    balanced tree (``_pairwise``): a leaf is (x - a, w_a * y_a), and two
    neighbours (M_L, N_L), (M_R, N_R) merge into (M_L * M_R, N_L * M_R +
    N_R * M_L), so each node's N is the sum over its own points and the
    root's N is the interpolant.  Only the denominators stay quadratic.
    """
    xs = [field.element(x) for x in points]
    if not xs:
        raise EmptyInput("interpolation needs at least one point")
    if len(set(xs)) != len(xs):
        raise BadInput("interpolation points must be distinct")
    if len(values) != len(xs):
        raise SizeMismatch(f"{len(values)} values for {len(xs)} points")
    ys = [field.element(y) for y in values]
    x = MultiPoly.variable(field, 1, 0)
    leaves = [(x - a, MultiPoly.constant(field, 1, field.mul(w, y)))
              for a, y, w in zip(xs, ys, _inverse_denominators(field, tuple(xs)))]
    return _pairwise(leaves, _merge_interpolants)[1]


def _merge_interpolants(left: tuple[MultiPoly, MultiPoly],
                        right: tuple[MultiPoly, MultiPoly]) -> tuple[MultiPoly, MultiPoly]:
    """(M, N) of two neighbouring runs of points, from the (M, N) of each."""
    (m_left, n_left), (m_right, n_right) = left, right
    return m_left * m_right, n_left * m_right + n_right * m_left


def _check_poly_grid(f: MultiPoly, grid: Grid) -> None:
    """f and grid share field and arity, and over Q no value f takes on the
    grid can exceed ``MAX_RATIONAL_HEIGHT_BITS`` (ResourceLimit)."""
    if f.field != grid.field:
        raise FieldMismatch(f"polynomial over {f.field!r}, grid over {grid.field!r}")
    if f.n_vars != grid.n_vars:
        raise ArityMismatch(
            f"polynomial in {f.n_vars} variables, grid has {grid.n_vars} coordinates"
        )
    if not isinstance(f.field, PrimeField):
        # a term's value at a grid point has at most sum_i e_i * log2 H(A_i)
        # bits, H the largest |numerator| or denominator in A_i; 0 and +-1 add none
        bits = [(max(max(abs(a.numerator), a.denominator) for a in s) - 1).bit_length()
                for s in grid.sets]
        height = max((sum(map(int.__mul__, exps, bits)) for exps in f.terms), default=0)
        if height > MAX_RATIONAL_HEIGHT_BITS:
            raise ResourceLimit(f"values over Q reach {height} bits on this grid, "
                                f"cap is {MAX_RATIONAL_HEIGHT_BITS}")


def _inverse_denominators(fld: FieldSpec, elems: tuple[Scalar, ...]) -> list[Scalar]:
    """1/denom(A, a) for each a in the set A, in the order of A."""
    if isinstance(fld, PrimeField) and len(elems) == fld.p:
        # all of Z_p is invariant under translation, so every denominator is
        # (p - 1)! (= -1 by Wilson's theorem); one stands for all p of them
        return [fld.inv(lagrange_denominator(fld, elems, elems[0]))] * fld.p
    return [fld.inv(lagrange_denominator(fld, elems, a)) for a in elems]


def _weighted_sum_of_values(
    value_at: Callable[[tuple[Scalar, ...]], Scalar],
    grid: Grid,
    max_points: int | None = None,
) -> Scalar:
    """Sum of value_at(alpha) / P(alpha) over the grid, by direct enumeration.

    1/P(alpha) is a product of per-coordinate inverse denominators.  Its
    products over a tail of the coordinates are tabulated once, and the
    product over the other (head) coordinates is applied once per run through
    the tail, so the weight costs a point one multiplication.  A run sums
    value * weight as plain numbers and is reduced into the field once.
    """
    points = _points(grid.sets, max_points)
    fld = grid.field
    mul, add, element = fld.mul, fld.add, fld.element
    inverse = {s: _inverse_denominators(fld, s) for s in set(grid.sets)}
    tables = [inverse[s] for s in grid.sets]
    cut, run_length = len(tables) - 1, len(tables[-1])
    while cut and run_length * len(tables[cut - 1]) <= _MAX_RUN_TABLE:
        cut -= 1
        run_length *= len(tables[cut])
    tail = [fld.one]
    for table in tables[cut:]:
        tail = [mul(w, d) for w in tail for d in table]
    total = fld.zero
    values = map(value_at, points)
    exact = not isinstance(fld, PrimeField)
    for head in itertools.product(*tables[:cut]):
        # `tail` first: map and zip stop on it without drawing a point of the
        # next run; over Q a zero value skips its Fraction multiply
        if exact:
            run = sum(itertools.starmap(operator.mul, filter(_VALUE, zip(tail, values))))
        else:
            run = sum(map(operator.mul, tail, values))
        total = add(total, reduce(mul, head, element(run)))
    return total


def grid_weighted_sum(f: MultiPoly, grid: Grid, max_points: int | None = None) -> Scalar:
    """Sum of f(alpha)/P(alpha) over the grid.

    Vanishes when total_degree(f) < grid.degree_bound(); equals the
    coefficient of the top monomial x^d when total_degree(f) <= the bound, or
    more generally whenever ``f.is_restricted(grid.target_exponents())``.
    """
    _check_poly_grid(f, grid)
    return _weighted_sum_of_values(f.evaluate, grid, max_points)


def boolean_sum(f: MultiPoly) -> Scalar:
    """Sum of f over all of {0,1}^n; the field must be Z_2.

    Over Z_2 every grid weight is 1, so this is the weighted sum over
    {0,1}^n: for total_degree(f) <= n it equals the coefficient of
    x_1*...*x_n.
    """
    if not isinstance(f.field, PrimeField) or f.field.p != 2:
        raise FieldMismatch("boolean_sum needs a polynomial over Z_2")
    return _weighted_sum_of_values(f.evaluate, Grid(f.field, [(0, 1)] * f.n_vars))


def zp_full_sum(f: MultiPoly, max_points: int | None = None) -> Scalar:
    """Sum of f over all of Z_p^n.

    Every weight of the full grid Z_p^n is (-1)^n by Wilson's theorem, so this
    is (-1)^n times the weighted sum over Z_p^n, and (-1)^n times this sum is
    the coefficient of x_1^{p-1}*...*x_n^{p-1} whenever
    total_degree(f) <= n(p-1).
    """
    if not isinstance(f.field, PrimeField):
        raise FieldMismatch("zp_full_sum needs a polynomial over a prime field")
    fld = f.field
    full = [range(fld.p)] * f.n_vars
    _points(full, max_points)  # refuse before building p elements per coordinate
    sign = fld.element((-1) ** f.n_vars)
    return fld.mul(sign, _weighted_sum_of_values(f.evaluate, Grid(fld, full), max_points))


def signed_two_element_sum(f: MultiPoly, grid: Grid) -> Scalar:
    """Alternating sum over a grid of two-element sets.

    With A_i = {a_i0, a_i1} (sorted, a_i0 < a_i1), returns the sum over all
    selectors s in {0,1}^n of (-1)^(s_1+...+s_n) * f(a_1s_1, ..., a_ns_n).
    The denominator of a_i1 is the negative of the denominator a_i0 - a_i1 of
    a_i0, so this is the weighted grid sum times the product of (a_i0 - a_i1).
    """
    _check_poly_grid(f, grid)
    if any(len(s) != 2 for s in grid.sets):
        raise BadGridShape("signed sum needs every coordinate set of size exactly 2")
    fld = f.field
    scale = fld.one
    for lo, hi in grid.sets:
        scale = fld.mul(scale, fld.sub(lo, hi))
    return fld.mul(scale, _weighted_sum_of_values(f.evaluate, grid))


def _alon_furedi_bound(sizes: Sequence[int], degree: int) -> int:
    """The fewest points of a grid with sets of these sizes at which a
    polynomial of total degree ``degree`` is nonzero, unless it vanishes on
    the whole grid (Alon and Furedi, Eur. J. Combin. 1993, Thm. 5).

    The bound is the minimum of y_1 * ... * y_n over 1 <= y_i <= |A_i| with
    y_1 + ... + y_n >= |A_1| + ... + |A_n| - degree.  It is found greedily:
    the excess over y_i = 1 goes to the largest sets first, each filled to
    its size.  Below the degree bound it is at least 2, which is the
    vanishing identity's "never exactly one"; it holds over every field.
    """
    excess = sum(sizes) - len(sizes) - degree
    bound = 1
    for size in sorted(sizes, reverse=True):
        if excess <= 0:
            break
        y = min(size, 1 + excess)
        bound *= y
        excess -= y - 1
    return bound


def second_nonvanish(
    f: MultiPoly, grid: Grid, max_points: int | None = None
) -> list[GridPoint]:
    """All grid points where f is nonzero, in enumeration order, each as a
    ``GridPoint`` whose ``value`` is the point.

    If there are any, there are at least ``_alon_furedi_bound`` of them; a
    shorter list raises TheoremViolation.  Below the degree bound that rules
    out a count of one, since a lone nonvanishing point alpha would make the
    weighted sum f(alpha)/P(alpha) != 0, contradicting the vanishing
    identity.  More than ``_WITNESS_ANSWER_CAP`` of them raise
    ResourceLimit, and the scan stops at the first point past the cap.
    """
    _check_poly_grid(f, grid)
    # evaluate returns a reduced residue or a Fraction, so its truth is
    # "nonzero"; each hit becomes GridPoint((point,)) at C level
    hits = list(map(tuple.__new__, itertools.repeat(GridPoint),
                    zip(itertools.islice(filter(f.evaluate, _points(grid.sets, max_points)),
                                         _WITNESS_ANSWER_CAP + 1))))
    if len(hits) > _WITNESS_ANSWER_CAP:
        raise ResourceLimit(f"more than {_WITNESS_ANSWER_CAP} nonvanishing points, "
                            "past the answer cap")
    if hits:
        bound = _alon_furedi_bound([len(s) for s in grid.sets], f.total_degree())
        if len(hits) < bound:
            raise TheoremViolation(
                "Alon-Furedi bound violated: a polynomial of total degree "
                f"{f.total_degree()} is nonzero at {len(hits)} grid points, "
                f"fewer than {bound}"
            )
    return hits


def nonvanishing_valid(f: MultiPoly, grid: Grid, points: Sequence[Sequence[Scalar]]) -> bool:
    """True iff every claimed point lies on the grid and f is nonzero there.

    Decided by evaluating f at the claimed points alone, so unlike
    ``second_nonvanish`` it enumerates nothing and has no grid cap; the
    height budget over Q applies to it all the same.
    Coordinates are field elements, as ``Grid`` stores them.
    """
    _check_poly_grid(f, grid)
    return all(
        len(pt) == grid.n_vars
        and all(x in s for x, s in zip(pt, grid.sets))
        and f.evaluate(pt)
        for pt in points
    )
