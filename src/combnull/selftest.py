"""Built-in invariant suites, runnable offline via ``combnull selftest``.

Each suite re-derives a handful of known values at reduced scale and raises
on any mismatch; the runner turns that into per-suite pass/fail lines.  With
fault injection active the runner first replaces the Lagrange-denominator
kernel by one that doubles every denominator, and a healthy build is expected
to FAIL the coefficient suites loudly; that the failure actually happens is
what the --inject-fault flag demonstrates.  The kernel is put back when the
run ends, however it ends.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Optional

from . import nullstellensatz
from .combinatorics import (
    CycleLabels,
    Graph,
    PlaneSet,
    PolySystem,
    cauchy_davenport_check,
    chevalley_g,
    common_roots,
    cycle_selection,
    cycle_selection_certificate,
    egz_solve,
    erdos_heilbronn_check,
    olson_lower_witness,
    olson_solve,
    olson_valid,
    plane_cover_construct,
    plane_cover_verify,
    regular_subgraph_find,
    restricted_sumset,
    snevily_mod_n,
    snevily_solve,
    sumset,
    symdiff_check,
    vandermonde_sq_coefficient,
)
from .errors import SchemaError
from .field import PrimeField, RationalField
from .mpoly import MultiPoly, format_poly, parse_poly
from .nullstellensatz import (
    Grid,
    boolean_sum,
    grid_weighted_sum,
    lagrange_interpolate,
    second_nonvanish,
    signed_two_element_sum,
    weighted_power_sum,
    zp_full_sum,
)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _suite_fields() -> None:
    f7 = PrimeField(7)
    for x in range(1, 7):
        _expect(f7.mul(x, f7.inv(x)) == 1, f"inverse of {x} mod 7 broken")
        _expect(f7.power(x, 6) == 1, f"Fermat failed at {x} mod 7")
    _expect(f7.power(0, 0) == 1, "0^0 must be 1")
    seen = {f7.power(3, e) for e in range(6)}
    _expect(len(seen) == 6, "3 does not generate Z_7*")
    fq = RationalField()
    _expect(fq.div(Fraction(1), Fraction(3)) * 3 == 1, "rational division broken")


def _suite_polys() -> None:
    f5 = PrimeField(5)
    text = "2*x1^2*x2 + 4*x2 + 3"
    f = parse_poly(text, f5)
    _expect(format_poly(f) == text, f"round trip changed {text!r} to {format_poly(f)!r}")
    _expect(f.evaluate((1, 1)) == (2 + 4 + 3) % 5, "evaluation mismatch")
    x = MultiPoly.variable(f5, 2, 0)
    y = MultiPoly.variable(f5, 2, 1)
    _expect((x + y) * (x - y) == x * x - y * y, "difference of squares broken")
    _expect((x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3,
            "cube expansion broken")
    _expect(MultiPoly.zero(f5, 2).total_degree() == float("-inf"),
            "zero polynomial degree convention broken")


def _suite_coefficients() -> None:
    f5 = PrimeField(5)
    elements = [0, 1, 2, 4]
    for m in range(len(elements)):
        expected = 1 if m == len(elements) - 1 else 0
        got = weighted_power_sum(f5, elements, m)
        _expect(got == expected, f"kernel value at m = {m}: {got} != {expected}")
    grid = Grid(f5, [[0, 1, 2], [0, 1]])
    f = parse_poly("x1^2*x2 + 3*x1*x2 + 2*x1 + 1", f5)
    top = f.coefficient_of(grid.target_exponents())
    via_sum = grid_weighted_sum(f, grid)
    _expect(via_sum == top, f"coefficient identity broken: {via_sum} != {top}")
    low = parse_poly("x1*x2 + 4*x1 + 2", f5)
    _expect(grid_weighted_sum(low, grid) == 0, "below-bound sum must vanish")

    f2 = PrimeField(2)
    g2 = Grid(f2, [[0, 1]] * 3)
    h = parse_poly("x1*x2*x3 + x1*x2 + x3", f2, 3)
    _expect(boolean_sum(h) == grid_weighted_sum(h, g2),
            "boolean shortcut disagrees with the general sum")
    _expect(boolean_sum(h) == h.coefficient_of((1, 1, 1)),
            "boolean shortcut disagrees with the expanded top coefficient")
    f3 = PrimeField(3)
    g3 = Grid(f3, [[0, 1, 2]] * 2)
    q = parse_poly("x1^2*x2^2 + x1 + 2", f3, 2)
    sign = f3.element((-1) ** 2)
    _expect(zp_full_sum(q) == f3.mul(sign, grid_weighted_sum(q, g3)),
            "full-grid shortcut disagrees with the general sum")
    _expect(f3.mul(sign, zp_full_sum(q)) == q.coefficient_of((2, 2)),
            "full-grid shortcut disagrees with the expanded top coefficient")
    fq = RationalField()
    gq = Grid(fq, [[0, 1], [2, 5]])
    r = parse_poly("x1*x2 + 3", fq, 2)
    signed = signed_two_element_sum(r, gq)
    denom = Fraction(1)
    for lo, hi in gq.sets:
        denom *= lo - hi
    _expect(signed / denom == grid_weighted_sum(r, gq),
            "two-element alternating sum disagrees with the general sum")
    _expect(signed / denom == r.coefficient_of((1, 1)),
            "two-element alternating sum disagrees with the expanded top coefficient")
    pts = [0, 1, 3]
    vals = [1, 2, 0]
    poly = lagrange_interpolate(f5, pts, vals)
    for a, b in zip(pts, vals):
        _expect(poly.evaluate((a,)) == b, f"interpolant wrong at {a}")
    witnesses = second_nonvanish(parse_poly("x1*x2", f5, 2), Grid(f5, [[0, 1], [0, 1]]))
    _expect(len(witnesses) == 1 and witnesses[0].value == (1, 1),
            "nonvanishing-point scan broken on x1*x2")


def _suite_sumsets() -> None:
    f7 = PrimeField(7)
    report = cauchy_davenport_check(f7, [0, 1, 2], [0, 3])
    _expect(report.satisfied and report.bound == 4, "Cauchy-Davenport check broken")
    _expect(report.certificate not in (None, 0), "missing Cauchy-Davenport certificate")
    _expect(sumset(f7, [0, 1, 2], [0, 3]) == (0, 1, 2, 3, 4, 5), "sumset values wrong")
    _expect(restricted_sumset(f7, [0, 1], [0, 1]) == (1,), "restricted sumset wrong")
    report = erdos_heilbronn_check(f7, [0, 1, 2, 3])
    _expect(report.kind == "erdos-heilbronn-self" and report.satisfied,
            "one-set restricted bound broken")
    report = erdos_heilbronn_check(f7, [0, 1, 2], [1, 5])
    _expect(report.satisfied and report.bound == 3, "two-set restricted bound broken")


def _suite_zerosum() -> None:
    # the solvers re-check their own witnesses; only exact values are pinned here
    picked = egz_solve([1, 1, 1, 2, 2], 3)
    _expect(picked == (0, 1, 2), f"EGZ picked {picked}, expected (0, 1, 2)")
    picked = egz_solve([4, 3, 9, 2, 7], 3)
    _expect(picked == (0, 1, 3), f"EGZ picked {picked}, expected (0, 1, 3)")
    free = olson_lower_witness(2, 3)
    _expect(len(free) == 4, "extremal family has k(p-1) vectors")
    # no solver checks this construction: try every subset
    for r in range(1, len(free) + 1):
        for combo in itertools.combinations(range(len(free)), r):
            _expect(not olson_valid(free, 3, combo), f"extremal family not zero-sum-free: {combo}")
    _expect(olson_solve(list(free), 3, 2) is None, "zero-sum reported on extremal family")
    subset = olson_solve(list(free) + [(1, 2)], 3, 2)
    _expect(subset == (0, 1, 2, 4), f"zero-sum subset {subset}, expected (0, 1, 2, 4)")


def _suite_chevalley() -> None:
    f2 = PrimeField(2)
    system = PolySystem(f2, 2, [parse_poly("x1 + x2", f2, 2)])
    g = chevalley_g(system)
    _expect(format_poly(g) == "x1 + x2 + 1", f"g construction wrong: {format_poly(g)}")
    roots = common_roots(system)
    _expect(roots == [(0, 0), (1, 1)], f"roots wrong: {roots}")
    f3 = PrimeField(3)
    system = PolySystem(f3, 3, [parse_poly("x1 + x2 + x3", f3, 3)])
    roots = common_roots(system)
    _expect(len(roots) % 3 == 0 and (0, 0, 0) in roots, "root count not divisible by p")


def _suite_geometry() -> None:
    planes = plane_cover_construct(2)
    report = plane_cover_verify(planes, 2)
    _expect(report.covers and report.origin_free, "3n-plane construction broken")
    short = plane_cover_construct(2).planes[:-1]
    report = plane_cover_verify(PlaneSet(short), 2)
    _expect(not report.covers and report.missed, "short family cannot cover everything")


def _suite_graphs() -> None:
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    edges = regular_subgraph_find(k4, 2)
    _expect(edges == ((0, 1), (0, 2), (1, 2)), f"K4 selection {edges}, expected the triangle 012")
    labels = CycleLabels([(1, 2), (3, 4), (1, 2), (3, 4)])
    picked = cycle_selection(labels)
    _expect(picked == (1, 3, 1, 3), f"even-cycle selection {picked}, expected (1, 3, 1, 3)")
    _expect(cycle_selection_certificate(labels) == 2, "even-cycle coefficient must be 2")


def _suite_permutations() -> None:
    sigma = snevily_solve([0, 0], [1, 2], 5)
    _expect(sigma == (1, 2), f"Snevily permutation {sigma}, expected (1, 2)")
    sigma = snevily_mod_n([3, 3], 4)
    _expect(sigma == (1, 2), f"mod-n distinct-sum permutation {sigma}, expected (1, 2)")
    _expect(vandermonde_sq_coefficient(3) == -6, "Vandermonde-squared value wrong at k = 3")


def _suite_symdiff() -> None:
    diffs = symdiff_check([[1], [2], [1, 2]], ["red", "blue", "blue"])
    _expect(len(diffs) >= 2, "symmetric-difference lower bound missed at n = 1")
    sets = [[1], [2], [3], [1, 2], []]
    diffs = symdiff_check(sets, [0, 0, 1, 1, 0])
    _expect(len(diffs) >= 4, "symmetric-difference lower bound missed at n = 2")


_SUITES: dict[str, Callable[[], None]] = {
    "fields": _suite_fields,
    "polys": _suite_polys,
    "coefficients": _suite_coefficients,
    "sumsets": _suite_sumsets,
    "zerosum": _suite_zerosum,
    "chevalley": _suite_chevalley,
    "geometry": _suite_geometry,
    "graphs": _suite_graphs,
    "permutations": _suite_permutations,
    "symdiff": _suite_symdiff,
}


def run_suites(
    only: Optional[str] = None, inject_fault: bool = False
) -> list[tuple[str, bool, str]]:
    """Run the named suite (or all), returning (name, passed, detail) rows."""
    if only is not None and only not in _SUITES:
        raise SchemaError(f"unknown suite {only!r}; choose from {sorted(_SUITES)}")
    names = [only] if only else list(_SUITES)
    results = []
    denominator = nullstellensatz.lagrange_denominator
    if inject_fault:
        def doubled(field, elements, a):
            return field.mul(denominator(field, elements, a), field.element(2))

        nullstellensatz.lagrange_denominator = doubled
    try:
        for name in names:
            try:
                _SUITES[name]()
            except Exception as exc:  # noqa: BLE001 - report, do not crash
                results.append((name, False, f"{type(exc).__name__}: {exc}"))
            else:
                results.append((name, True, ""))
    finally:
        nullstellensatz.lagrange_denominator = denominator
    return results
