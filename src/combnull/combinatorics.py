"""The applications whose certificate is a polynomial, and every solver name.

Defined here: the Chevalley-Warning system (``PolySystem``, ``chevalley_g``,
``common_roots``), the Cauchy-Davenport certificate, the even-cycle
certificate and the squared Vandermonde coefficient.  Each builds a
polynomial with ``mpoly`` or sums over a grid with ``nullstellensatz``.

The solvers that build no polynomial are defined in the family modules of
``search`` and re-exported here, so every solver is ``combinatorics.<name>``.
This module imports no family: a re-exported name is looked up in the
package's ``_EXPORTS`` table on first access and bound here, and the two
certificates that use a family's code import it when they run.  So
``chevalley`` and ``vandermonde`` compile no search family, and a process
that needs only the searches imports its family and none of the polynomial
layers.

Each solver validates the hypotheses of the theorem it executes and
re-checks its answer; where a theorem holds unconditionally, a failure
raises TheoremViolation, since it can only mean the arithmetic is broken.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    ArityMismatch,
    BadInput,
    FieldMismatch,
    OddCycle,
    ResourceLimit,
    TheoremViolation,
    _check_grid_cap,
    _check_positive_int,
)
from .field import PrimeField, RationalField, Scalar
from .mpoly import MultiPoly, _product, _suffix_slices
from .nullstellensatz import Grid, _points, _weighted_sum_of_values, grid_weighted_sum
from . import search
from .search import _Value, _members


def __getattr__(name: str):
    """A search solver's name, from its family module, bound here once resolved."""
    from . import _HOME

    module = _HOME.get(name, "")
    if not module.startswith("search."):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__package__}.{module}"), name)
    globals()[name] = value
    return value


# ----------------------------------------------------------- polynomial systems


class PolySystem(_Value):
    """A finite family of polynomials over one prime field, shared arity:
    field (a PrimeField), n_vars and polys (a tuple of MultiPoly)."""

    __slots__ = ("field", "n_vars", "polys")

    def __init__(self, field: PrimeField, n_vars: int, polys: Iterable[MultiPoly] = ()):
        if not isinstance(field, PrimeField):
            raise FieldMismatch("polynomial systems are defined over a prime field")
        _check_positive_int(n_vars, "n_vars", ArityMismatch)
        polys = tuple(polys)
        for f in polys:
            if f.field != field:
                raise FieldMismatch(f"system over {field!r} contains {f.field!r} member")
            if f.n_vars != n_vars:
                raise ArityMismatch(
                    f"system in {n_vars} variables contains a {f.n_vars}-variable member"
                )
        super().__init__(field, n_vars, polys)

    def degree_sum(self) -> int:
        """The total degrees of the nonzero members, summed: a zero member
        imposes no constraint, and its formal degree of -infinity would claim
        the Chevalley-Warning guarantee for systems it does not cover."""
        return sum(f.total_degree() for f in self.polys if f.terms)


def chevalley_g(system: PolySystem, max_points: int | None = None) -> MultiPoly:
    """The product of (f_j^(p-1) - 1); empty systems give the constant 1.

    At a common root every factor is -1; anywhere else some f_j is nonzero,
    its (p-1)-th power is 1 by Fermat, and the product vanishes.  Before any
    multiplication the packed range of g, prod_i (1 + (p-1) * sum_j
    deg_i f_j), is counted against the grid cap (GridTooLarge above it).
    """
    p = system.field.p
    degrees = [0] * system.n_vars
    for f in system.polys:
        for i, column in enumerate(zip(*f.terms)):
            degrees[i] += max(column)
    span = math.prod(1 + (p - 1) * d for d in degrees)
    _check_grid_cap(span, max_points, "g ranges over {count} exponent vectors, cap is {cap}")
    return _product(system.field, system.n_vars, (f ** (p - 1) - 1 for f in system.polys))


# A slice's root set is one int of p^s bits, s the largest with p^s at most
# this bound, capped at n.  Over the benchmark's root systems (Z_3 to Z_11, 2
# to 6 variables) a bound of 16 searched 2.7 times faster than point by point,
# 64 12.8 times and 128 14 times, the last with tables of up to 121 bits
# (2-CPU x86_64 VM, Python 3.11).  A field of more than this many elements
# gets s = 0, one zero test per point: no benchmark workload has such a
# field, and with one variable a one-coordinate table is the whole grid.
_SLICE_TABLE_BOUND = 64

# Slice root sets cached per member; past this many a slice is recomputed.
# Over Z_11^6, with slices of 5 coefficients that nearly all differ, the
# search peaked at 8.5 MB traced with this bound and at 15.6 MB without it
# (161,051 prefixes); at the default grid cap a member can meet 1.5 million.
_SLICE_CACHE_ENTRIES = 1 << 16


def _slice_roots(values: tuple, columns: list[list[int]], p: int) -> int:
    """The root set of one suffix slice as a bitmask: bit j is set when
    sum_k values[k] * columns[k][j] is 0 mod p, where columns[k][j] is the
    k-th suffix monomial at the j-th suffix point."""
    sums = [0] * len(columns[0])
    for c, column in zip(values, columns):
        if c:
            sums = [t + c * m for t, m in zip(sums, column)]
    # built as text, which costs time linear in the table, not quadratic
    return int("".join("0" if t % p else "1" for t in reversed(sums)), 2)


def _roots_by_slices(polys: list[MultiPoly], p: int, n: int, s: int) -> list[tuple[int, ...]]:
    """The common roots of nonzero ``polys`` over Z_p^n, in ascending order,
    searched one suffix slice of the last s coordinates at a time.

    At each prefix of the first n - s coordinates, in grid order, a member
    restricted to the suffix is fixed by the values of its coefficient
    polynomials (``mpoly._suffix_slices``), and the slice's root set is cached
    under that tuple of values as a bitmask over the p^s suffix points.  A
    coefficient that is constant in the prefix stands in the tuple as its
    value, so only the others are evaluated per prefix.  The members' masks
    are ANDed, stopping at the first 0, and the set bits are emitted in order.
    """
    suffixes = list(itertools.product(range(p), repeat=s))
    members = []
    for f in polys:
        slices = _suffix_slices(f, s)
        columns = [[math.prod(pow(y, e, p) for y, e in zip(point, key)) % p
                    for point in suffixes] for key in slices]
        members.append((tuple(slices.values()), columns, {}))
    roots = []
    everything = (1 << len(suffixes)) - 1
    for prefix in itertools.product(range(p), repeat=n - s):
        mask = everything
        for coeffs, columns, cache in members:
            values = tuple(c.evaluate(prefix) if isinstance(c, MultiPoly) else c for c in coeffs)
            bits = cache.get(values)
            if bits is None:
                bits = _slice_roots(values, columns, p)
                if len(cache) < _SLICE_CACHE_ENTRIES:
                    cache[values] = bits
            mask &= bits
            if not mask:
                break
        if mask:
            roots += [prefix + suffix for suffix in _members(suffixes, mask)]
    return roots


def common_roots(
    system: PolySystem, max_points: int | None = None
) -> list[tuple[int, ...]]:
    """All points of Z_p^n where every member vanishes, in ascending order.

    The grid is searched by suffix slices of the last s coordinates, p^s at
    most ``_SLICE_TABLE_BOUND`` (``_roots_by_slices``), or point by point when
    p alone exceeds that bound.

    When d = ``system.degree_sum()`` is below n, the count must be divisible
    by p (Chevalley-Warning), if the system has a root at least p^(n-d)
    (Warning's second theorem, 1935), and divisible by p^mu with
    mu = ceil((n - d) / D), D the largest degree of the nonzero members
    (Ax, Amer. J. Math. 1964, for one polynomial; Katz, Amer. J. Math. 1971,
    for systems).  A violation raises TheoremViolation.  When every nonzero
    member is a constant there are no roots, and no divisibility to check.
    """
    fld = system.field
    p, n = fld.p, system.n_vars
    points = _points([range(p)] * n, max_points)  # the cap, before anything is built
    polys = [f for f in system.polys if f.terms]
    s = 0
    while s < n and p ** (s + 1) <= _SLICE_TABLE_BOUND:
        s += 1
    if s:
        roots = _roots_by_slices(polys, p, n, s)
    else:
        roots = [x for x in points if not any(f.evaluate(x) for f in polys)]
    degree_sum = system.degree_sum()
    if degree_sum < n:
        if len(roots) % p != 0:
            raise TheoremViolation(
                "Chevalley-Warning root count violated: degree sum "
                f"{degree_sum} < {n} but {len(roots)} common roots "
                f"found over Z_{p}"
            )
        if roots and len(roots) < p ** (n - degree_sum):
            raise TheoremViolation(
                "Warning's second theorem violated: degree sum "
                f"{degree_sum} < {n} but {len(roots)} common roots, fewer than "
                f"{p}^{n - degree_sum}, found over Z_{p}"
            )
        top = max((f.total_degree() for f in polys), default=0)
        if top:
            mu = -(-(n - degree_sum) // top)
            if len(roots) % p**mu:
                raise TheoremViolation(
                    f"Ax-Katz divisibility violated: degree sum {degree_sum} < {n} and "
                    f"largest degree {top}, but {len(roots)} common roots, not "
                    f"divisible by {p}^{mu}, found over Z_{p}"
                )
    return roots


# ------------------------------------------------------ sumset certificates

# The Cauchy-Davenport certificate's work, counted before its product is
# built.  The product of m factors x + y - c has (m + 1)(m + 2)/2 terms; the
# grid sum over A x B costs about one step per term and point, the balanced
# product about 32 per term and factor (_CD_PRODUCT_STEPS).  A step is about
# a nanosecond (2-CPU x86_64 VM, Python 3.11).
_CD_PRODUCT_STEPS = 32
_CD_WORK_CAP = 1 << 31


def _cd_certificate_work(a_size: int, b_size: int) -> int:
    m = a_size + b_size - 2
    return (m + 1) * (m + 2) // 2 * (a_size * b_size + _CD_PRODUCT_STEPS * m)


def cauchy_davenport_check(
    field: PrimeField, a_set: Sequence[int], b_set: Sequence[int], max_points: int | None = None
) -> search.sumsets.SumsetReport:
    """|A + B| >= min(|A| + |B| - 1, p), with a coefficient certificate.

    When |A| + |B| - 1 <= p the certificate replays the contradiction behind
    the bound: pick any C' of size |A| + |B| - 2 (here: the first elements of
    A + B), form f = prod_{c in C'}(x + y - c), and extract the coefficient of
    x^(|A|-1) y^(|B|-1) via the weighted sum over A x B.  It must equal the
    binomial C(|A|+|B|-2, |A|-1), which has no factor p.  Were A + B contained
    in such a C', f would vanish on the whole grid and the sum would be 0.
    The grid A x B counts against the grid cap, and the work of building f
    and summing it against ``_CD_WORK_CAP``, before f is built.
    """
    from .search.sumsets import SumsetReport, _as_residue_set, _binom_mod, _sumset

    a = _as_residue_set(field, a_set, "A")
    b = _as_residue_set(field, b_set, "B")
    p = field.p
    result = _sumset(p, a, b, False)
    bound = min(len(a) + len(b) - 1, p)
    satisfied = len(result) >= bound
    if not satisfied:
        raise TheoremViolation(
            f"Cauchy-Davenport bound violated: |A+B| = {len(result)} < {bound} "
            f"for A = {a}, B = {b} over Z_{p}"
        )
    certificate = None
    if len(a) + len(b) - 1 <= p:
        _points([a, b], max_points)  # the caps, before the product is built
        work = _cd_certificate_work(len(a), len(b))
        if work > _CD_WORK_CAP:
            raise ResourceLimit(
                f"Cauchy-Davenport certificate capped at {_CD_WORK_CAP} steps, "
                f"got {work} for |A| = {len(a)}, |B| = {len(b)}"
            )
        m = len(a) + len(b) - 2
        expected = _binom_mod(m, len(a) - 1, p)
        x_plus_y = MultiPoly.variable(field, 2, 0) + MultiPoly.variable(field, 2, 1)
        f = _product(field, 2, (x_plus_y - c for c in result[:m]))
        actual = grid_weighted_sum(f, Grid(field, [a, b]), max_points)
        if actual != expected or actual == 0:
            raise TheoremViolation(
                "Cauchy-Davenport certificate mismatch: weighted sum gave "
                f"{actual}, binomial C({m},{len(a) - 1}) mod {p} is {expected}"
            )
        certificate = actual
    return SumsetReport("cauchy-davenport", a, b, result, bound, satisfied, certificate)


# ----------------------------------------------------- even-cycle certificate


def cycle_selection_certificate(
    labels: search.cycles.CycleLabels, max_points: int | None = None
) -> Fraction:
    """Recompute the coefficient of x_1*...*x_n in prod(x_i - x_{i+1}) as the
    weighted sum of the factored product over the grid of label pairs; direct
    expansion is the independent second route.

    Must equal 2 for an even cycle, independently of the labels.  The two
    routes share nothing but scalar arithmetic: the first never expands the
    product, the second never evaluates it.
    """
    from .search.cycles import _CERTIFICATE_VERTEX_CAP

    n = len(labels)
    if n % 2 == 1:
        raise OddCycle(f"certificate is for even cycles, got length {n}")
    if n > _CERTIFICATE_VERTEX_CAP:
        raise ResourceLimit(
            f"certificate recomputation capped at {_CERTIFICATE_VERTEX_CAP} vertices, got {n}"
        )

    def product_at(point: tuple[Scalar, ...]) -> Fraction:
        value = Fraction(1)
        for i in range(n):
            value *= point[i] - point[(i + 1) % n]
        return value

    fld = RationalField()
    via_sum = _weighted_sum_of_values(product_at, Grid(fld, labels.pairs), max_points)
    xs = [MultiPoly.variable(fld, n, i) for i in range(n)]
    f = _product(fld, n, (xs[i] - xs[(i + 1) % n] for i in range(n)))
    via_expansion = f.coefficient_of((1,) * n)
    if via_sum != via_expansion or via_sum != 2:
        raise TheoremViolation(
            f"even-cycle coefficient must be 2: weighted sum gave {via_sum}, "
            f"expansion gave {via_expansion}"
        )
    return via_sum


# --------------------------------------------------- Vandermonde-squared check


def vandermonde_sq_coefficient(k: int, verify: bool = True, max_points: int | None = None) -> int:
    """Coefficient of (x_1*...*x_k)^(k-1) in the squared Vandermonde product
    prod_{i<j}(x_j - x_i)^2, namely k! * (-1)^C(k,2).

    With verify (capped at k <= 6), the closed form is checked against direct
    expansion and against the weighted sum over the rational grid {0..k-1}^k,
    where the factored form is evaluated pointwise so the two routes share
    nothing but the arithmetic core.  The grid is summed first, so a grid
    past the grid cap is refused before the expansion.  Without verify, a k!
    of more digits than Python converts to text (sys.get_int_max_str_digits,
    when nonzero) raises ResourceLimit before it is computed.
    """
    _check_positive_int(k, "k", BadInput)
    if verify and k > 6:
        raise ResourceLimit(f"verification paths are capped at k <= 6, got {k}")
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits and math.lgamma(k + 1) / math.log(10) > digits:
        raise ResourceLimit(f"{k}! has more than the {digits} digits Python converts to text")
    closed = math.factorial(k) * (-1) ** (k * (k - 1) // 2)
    if not verify:
        return closed
    fld = RationalField()
    zero = fld.zero

    def squared_at(point: tuple[Scalar, ...]) -> Fraction:
        # the grid holds the integers 0..k-1, so the numerators are the
        # coordinates; a repeated one (all but k! of the k^k points) gives 0
        xs = [a.numerator for a in point]
        if len(set(xs)) < k:
            return zero
        out = 1
        for i in range(k):
            for j in range(i + 1, k):
                out *= (xs[j] - xs[i]) ** 2
        return Fraction(out)

    grid = Grid(fld, [list(range(k))] * k)
    via_grid = _weighted_sum_of_values(squared_at, grid, max_points)
    xs = [MultiPoly.variable(fld, k, i) for i in range(k)]
    vandermonde = _product(fld, k, (xs[j] - xs[i] for i in range(k) for j in range(i + 1, k)))
    squared = vandermonde * vandermonde
    via_expansion = squared.coefficient_of((k - 1,) * k)
    if not (via_expansion == closed and via_grid == closed):
        raise TheoremViolation(
            f"Vandermonde-squared coefficient disagreement at k = {k}: closed form "
            f"{closed}, expansion {via_expansion}, grid sum {via_grid}"
        )
    return closed


