"""Acceptance gate: one test per top-level guarantee, exact arithmetic only.

Each test prints a single [acceptance] PASS/FAIL line so the gate can be read
off the terminal; every comparison is exact (integers, residues, Fractions),
never within-epsilon.
"""

import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracles
from combnull import (
    BadInput,
    CycleLabels,
    Grid,
    Graph,
    MultiPoly,
    PlaneSet,
    PolySystem,
    PrimeField,
    RationalField,
    boolean_sum,
    cauchy_davenport_check,
    common_roots,
    cycle_selection,
    cycle_selection_certificate,
    egz_solve,
    erdos_heilbronn_check,
    grid_weighted_sum,
    olson_lower_witness,
    olson_solve,
    plane_cover_construct,
    plane_cover_verify,
    regular_subgraph_find,
    signed_two_element_sum,
    snevily_solve,
    sumset,
    symdiff_check,
    vandermonde_sq_coefficient,
    weighted_power_sum,
    zp_full_sum,
)

Q = RationalField()


@contextmanager
def criterion(report, number: int, name: str):
    try:
        yield
    except BaseException:
        report(f"[acceptance] {number:02d} {name}: FAIL")
        raise
    report(f"[acceptance] {number:02d} {name}: PASS")


def _nonempty_subsets(p):
    for r in range(1, p + 1):
        yield from itertools.combinations(range(p), r)


def test_01_coefficient_extraction(report, rng):
    with criterion(report, 1, "weighted sum equals top coefficient"):
        checked = 0
        for p in (2, 3, 5, 7):
            fld = PrimeField(p)
            for _ in range(150):
                n = rng.randint(1, 3)
                grid = Grid(fld, oracles.random_grid_sets(rng, n, p))
                terms = oracles.random_terms_zp(rng, n, p, grid.degree_bound())
                f = MultiPoly(fld, n, terms)
                assert grid_weighted_sum(f, grid) == f.coefficient_of(
                    grid.target_exponents()
                )
                checked += 1
        assert checked >= 500


def test_02_vanishing_below_bound(report, rng):
    with criterion(report, 2, "weighted sum vanishes below the degree bound"):
        checked = 0
        for p in (2, 3, 5, 7):
            fld = PrimeField(p)
            for _ in range(150):
                n = rng.randint(1, 3)
                grid = Grid(fld, oracles.random_grid_sets(rng, n, p))
                terms = oracles.random_terms_zp(
                    rng, n, p, grid.degree_bound(), strict=True
                )
                f = MultiPoly(fld, n, terms)
                assert grid_weighted_sum(f, grid) == 0
                checked += 1
        assert checked >= 500
        # restricted polynomials may exceed the bound freely
        restricted = 0
        while restricted < 200:
            p = rng.choice((2, 3, 5, 7))
            fld = PrimeField(p)
            n = rng.randint(1, 3)
            grid = Grid(fld, oracles.random_grid_sets(rng, n, p))
            d = grid.target_exponents()
            if sum(d) == 0:
                continue
            f = MultiPoly(fld, n, oracles.random_restricted_terms_zp(rng, d, p))
            if not f.terms or f.total_degree() <= sum(d):
                continue
            assert f.is_restricted(d)
            assert grid_weighted_sum(f, grid) == f.coefficient_of(d)
            restricted += 1


def test_03_power_sum_kernel(report):
    with criterion(report, 3, "power-sum kernel exhaustive through p = 11"):
        for p in (2, 3, 5, 7, 11):
            fld = PrimeField(p)
            for size in range(1, min(5, p) + 1):
                for subset in itertools.combinations(range(p), size):
                    for m in range(size):
                        expected = 1 if m == size - 1 else 0
                        assert weighted_power_sum(fld, subset, m) == expected


def test_04_special_case_sums(report, rng):
    # each shortcut against its brute-force oracle, and against the top
    # coefficient of the expansion wherever the degree allows
    with criterion(report, 4, "boolean, full-residue and signed sums consistent"):
        fld2 = PrimeField(2)
        for _ in range(200):
            n = rng.randint(1, 8)
            terms = oracles.random_terms_zp(rng, n, 2, 2 * n)
            f = MultiPoly(fld2, n, terms)
            assert boolean_sum(f) == oracles.boolean_sum(terms, n)
            if f.total_degree() <= n:
                assert boolean_sum(f) == f.coefficient_of((1,) * n)
        for _ in range(200):
            p = rng.choice((2, 3, 5))
            n = rng.randint(1, {2: 8, 3: 5, 5: 3}[p])
            fld = PrimeField(p)
            terms = oracles.random_terms_zp(rng, n, p, n * (p - 1))
            f = MultiPoly(fld, n, terms)
            assert zp_full_sum(f) == oracles.zp_full_sum(terms, n, p)
            sign = fld.element((-1) ** n)
            assert fld.mul(sign, zp_full_sum(f)) == f.coefficient_of((p - 1,) * n)
        for _ in range(200):
            n = rng.randint(1, 7)
            if rng.random() < 0.5:
                fld = PrimeField(rng.choice((3, 5, 7)))
                sets = [rng.sample(range(fld.p), 2) for _ in range(n)]
                terms = oracles.random_terms_zp(rng, n, fld.p, n + 2)
                expected = oracles.signed_two_element_sum(terms, sets, fld.p)
            else:
                fld = Q
                sets = []
                for _ in range(n):
                    lo = Fraction(rng.randint(-6, 5), rng.randint(1, 4))
                    sets.append([lo, lo + rng.randint(1, 3)])
                terms = oracles.random_terms_q(rng, n, n + 2)
                expected = oracles.signed_two_element_sum(terms, sets)
            f = MultiPoly(fld, n, terms)
            grid = Grid(fld, sets)
            assert signed_two_element_sum(f, grid) == expected
            if f.total_degree() <= n:
                scale = fld.one
                for lo, hi in grid.sets:
                    scale = fld.mul(scale, fld.sub(lo, hi))
                assert expected == fld.mul(f.coefficient_of((1,) * n), scale)


def test_05_chevalley_warning(report, rng):
    with criterion(report, 5, "low-degree system root counts divisible by p"):
        for p, n in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
            fld = PrimeField(p)
            for _ in range(200):
                budget = n - 1
                polys = []
                for _ in range(rng.randint(1, 2)):
                    b = rng.randint(0, budget)
                    budget -= b
                    polys.append(
                        MultiPoly(fld, n, oracles.random_terms_zp(rng, n, p, b))
                    )
                system = PolySystem(fld, n, polys)
                roots = common_roots(system)
                assert sum(f.total_degree() for f in polys if f.terms) < n
                assert len(roots) % p == 0
                assert len(roots) != 1


def test_06_sumset_bounds_exhaustive(report, rng):
    with criterion(report, 6, "Cauchy-Davenport and Erdos-Heilbronn bounds"):
        for p in (2, 3, 5):
            fld = PrimeField(p)
            subsets = list(_nonempty_subsets(p))
            for a in subsets:
                for b in subsets:
                    rep = cauchy_davenport_check(fld, a, b)
                    assert len(rep.result) >= min(len(a) + len(b) - 1, p)
        fld7 = PrimeField(7)
        subsets7 = list(_nonempty_subsets(7))
        for a in subsets7:
            for b in subsets7:
                assert len(sumset(fld7, a, b)) >= min(len(a) + len(b) - 1, 7)
        for _ in range(300):
            a = rng.sample(range(7), rng.randint(1, 7))
            b = rng.sample(range(7), rng.randint(1, 7))
            rep = cauchy_davenport_check(fld7, a, b)
            assert rep.satisfied
        for p in (2, 3, 5, 7):
            fld = PrimeField(p)
            subsets = list(_nonempty_subsets(p))
            for a in subsets:
                rep = erdos_heilbronn_check(fld, a)
                assert len(rep.result) >= min(2 * len(a) - 3, p)
            for a in subsets:
                for b in subsets:
                    if a == b:
                        continue
                    rep = erdos_heilbronn_check(fld, a, b)
                    assert len(rep.result) >= min(len(a) + len(b) - 2, p)


def test_07_egz(report, rng):
    with criterion(report, 7, "EGZ zero-sum p-subsets on random instances"):
        for p in (2, 3, 5, 7):
            for _ in range(500):
                nums = [rng.randrange(-20, 50) for _ in range(2 * p - 1)]
                chosen = egz_solve(nums, p)
                assert len(chosen) == p
                assert len(set(chosen)) == p
                assert sum(nums[i] for i in chosen) % p == 0
                if p <= 5:
                    assert chosen == oracles.egz_first(nums, p)


def test_08_olson_threshold(report, rng):
    with criterion(report, 8, "zero-sum threshold and extremal witness"):
        for k, p in [(1, 2), (1, 3), (2, 2), (2, 3)]:
            for _ in range(200):
                m = k * (p - 1) + 1
                vectors = [
                    tuple(rng.randrange(p) for _ in range(k)) for _ in range(m)
                ]
                subset = olson_solve(vectors, p)
                assert subset is not None
                for j in range(k):
                    assert sum(vectors[i][j] for i in subset) % p == 0
            witness = olson_lower_witness(k, p)
            assert len(witness) == k * (p - 1)
            assert oracles.zero_sum_subsets(witness, p, k) == []
            assert olson_solve(witness, p) is None


def test_09_plane_covering(report, rng):
    with criterion(report, 9, "3n-plane construction and short-family misses"):
        for n in range(1, 5):
            family = plane_cover_construct(n)
            assert len(family) == 3 * n
            rep = plane_cover_verify(family, n)
            assert rep.covers and rep.origin_free
        for n in (1, 2, 3):
            for _ in range(100):
                count = rng.randint(1, 3 * n - 1)
                planes = []
                for _ in range(count):
                    while True:
                        coeffs = tuple(rng.randint(-2, 2) for _ in range(3))
                        if any(coeffs):
                            break
                    d = rng.choice([x for x in range(-3, 4) if x])
                    planes.append(coeffs + (d,))
                rep = plane_cover_verify(PlaneSet(planes), n)
                assert rep.origin_free
                assert not rep.covers
                assert rep.missed


def test_10_vandermonde_coefficient(report):
    with criterion(report, 10, "squared Vandermonde coefficient, three routes"):
        assert [vandermonde_sq_coefficient(k) for k in range(1, 6)] == [
            1, -2, -6, 24, 120,
        ]
        for k in range(1, 6):
            assert vandermonde_sq_coefficient(k) == math.factorial(k) * (-1) ** (
                k * (k - 1) // 2
            )


def test_11_cycle_selection(report, rng):
    with criterion(report, 11, "even-cycle label selection and certificate"):
        for _ in range(200):
            n = rng.choice((2, 4, 6, 8, 10, 12))
            pairs = []
            for _ in range(n):
                lo = Fraction(rng.randint(-18, 18), rng.randint(1, 9))
                hi = lo + Fraction(rng.randint(1, 12), rng.randint(1, 9))
                pairs.append((lo, hi))
            labels = CycleLabels(pairs)
            chosen = cycle_selection(labels)
            assert chosen is not None
            for i in range(n):
                assert chosen[i] in labels.pairs[i]
                assert chosen[i] != chosen[(i + 1) % n]
        for n in (2, 4, 6, 8, 10):
            pairs = []
            for _ in range(n):
                lo = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                hi = lo + Fraction(rng.randint(1, 9), rng.randint(1, 5))
                pairs.append((lo, hi))
            assert cycle_selection_certificate(CycleLabels(pairs)) == 2


def test_12_regular_subgraph(report, rng):
    with criterion(report, 12, "p-regular subgraphs under the degree hypotheses"):
        # p = 2: every labeled graph on up to 6 vertices meeting the hypotheses
        for n in range(1, 7):
            all_edges = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(all_edges)):
                degs = [0] * n
                edges = []
                for j, (u, v) in enumerate(all_edges):
                    if bits >> j & 1:
                        degs[u] += 1
                        degs[v] += 1
                        edges.append((u, v))
                if any(d >= 4 for d in degs) or 2 * len(edges) <= 2 * n:
                    continue
                chosen = regular_subgraph_find(Graph(n, edges), 2)
                sub = [0] * n
                for u, v in chosen:
                    sub[u] += 1
                    sub[v] += 1
                assert chosen
                assert all(d in (0, 2) for d in sub)
        # p = 3: random graphs meeting the hypotheses, |E| <= 20
        produced = 0
        possible = list(itertools.combinations(range(7), 2))
        while produced < 50:
            edges = rng.sample(possible, rng.choice((15, 16, 17)))
            graph = Graph(7, edges)
            if any(d >= 6 for d in graph.degrees()):
                continue
            chosen = regular_subgraph_find(graph, 3)
            sub = [0] * 7
            for u, v in chosen:
                sub[u] += 1
                sub[v] += 1
            assert chosen
            assert all(d in (0, 3) for d in sub)
            produced += 1


def test_13_snevily(report, rng):
    with criterion(report, 13, "distinct-sum permutations, exhaustive and random"):
        for p in (3, 5):
            for k in range(1, p):
                for a in itertools.product(range(p), repeat=k):
                    for b in itertools.permutations(range(p), k):
                        sigma = snevily_solve(a, b, p)
                        assert sorted(sigma) == list(range(1, k + 1))
                        sums = {(a[i] + b[sigma[i] - 1]) % p for i in range(k)}
                        assert len(sums) == k
        for _ in range(500):
            k = rng.randint(1, 6)
            a = [rng.randrange(7) for _ in range(k)]
            b = rng.sample(range(7), k)
            sigma = snevily_solve(a, b, 7)
            sums = {(a[i] + b[sigma[i] - 1]) % 7 for i in range(k)}
            assert len(sums) == k


def test_14_symmetric_differences(report):
    with criterion(report, 14, "cross-color symmetric differences reach 2^n"):
        universe = [
            frozenset(s) for r in range(5) for s in itertools.combinations(range(4), r)
        ]
        for n in (0, 1, 2):
            count = (1 << n) + 1
            for combo in itertools.combinations_with_replacement(universe, count):
                for bits in range(1, (1 << count) - 1):
                    colors = ["r" if bits >> i & 1 else "b" for i in range(count)]
                    reds = [s for s, c in zip(combo, colors) if c == "r"]
                    blues = [s for s, c in zip(combo, colors) if c == "b"]
                    if len(set(reds)) < len(reds) or len(set(blues)) < len(blues):
                        with pytest.raises(BadInput):
                            symdiff_check(combo, colors)
                        continue
                    diffs = symdiff_check(combo, colors)
                    assert len(diffs) >= 1 << n
