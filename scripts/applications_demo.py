#!/usr/bin/env python3
"""Guided tour: one worked instance per solver, each witness re-checked.

Every section builds a concrete input, asks the library for a witness or a
certificate, then re-verifies the claimed property (with the library's
witness predicate where it has one) so the printout doubles as a smoke test.  Run with --seed to vary the random
instances.

Usage:
    python3 scripts/applications_demo.py [--seed N]
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from fractions import Fraction

from combnull import (
    CycleLabels,
    Graph,
    Grid,
    PlaneSet,
    PolySystem,
    PrimeField,
    common_roots,
    cycle_selection,
    cycle_selection_certificate,
    egz_solve,
    egz_valid,
    grid_weighted_sum,
    olson_lower_witness,
    olson_solve,
    olson_valid,
    parse_poly,
    plane_cover_construct,
    plane_cover_verify,
    regular_subgraph_find,
    regular_subgraph_valid,
    second_nonvanish,
    snevily_solve,
    symdiff_check,
    vandermonde_sq_coefficient,
)


@dataclass(frozen=True)
class DemoConfig:
    seed: int = 7
    prime: int = 7


def banner(title: str) -> None:
    print(f"\n== {title} " + "=" * max(0, 66 - len(title)))


def demo_coefficient(cfg: DemoConfig) -> None:
    banner("coefficient identity and nonvanishing witness")
    fld = PrimeField(5)
    f = parse_poly("x1^2*x2 + 3*x1*x2 + 4", fld)
    grid = Grid(fld, [[0, 1, 2], [1, 3]])
    total = grid_weighted_sum(f, grid)
    print(f"f = {f},  grid = {{0,1,2}} x {{1,3}} over Z_5")
    print(f"weighted sum over grid      = {total}")
    print(f"coefficient of x1^2*x2      = {f.coefficient_of((2, 1))}")
    hits = second_nonvanish(f, grid)
    print(f"nonvanishing points ({len(hits)}): {[pt.value for pt in hits]}")
    for pt in hits:
        assert f.evaluate(pt.value) != 0


def demo_chevalley(cfg: DemoConfig) -> None:
    banner("Chevalley-Warning root counting")
    fld = PrimeField(3)
    f = parse_poly("x1*x2 + 2*x3", fld, 3)
    system = PolySystem(fld, 3, [f])
    roots = common_roots(system)
    print(f"system: {f} = 0 over Z_3^3 (degree 2 < 3 variables)")
    print(f"root count = {len(roots)}  (divisible by 3: {len(roots) % 3 == 0})")
    print(f"first roots: {roots[:4]}")


def demo_egz(cfg: DemoConfig, rng: random.Random) -> None:
    banner("Erdos-Ginzburg-Ziv zero-sum subset")
    p = cfg.prime
    nums = [rng.randrange(100) for _ in range(2 * p - 1)]
    chosen = egz_solve(nums, p)
    picked = [nums[i] for i in chosen]
    print(f"{2 * p - 1} integers: {nums}")
    print(f"indices {chosen} pick {picked}, sum {sum(picked)} = 0 mod {p}")
    assert egz_valid(nums, p, chosen)


def demo_olson(cfg: DemoConfig, rng: random.Random) -> None:
    banner("zero-sum vectors: threshold witness and extremal family")
    k, p = 2, 3
    m = k * (p - 1) + 1
    vectors = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(m)]
    subset = olson_solve(vectors, p)
    print(f"{m} vectors in Z_{p}^{k}: {vectors}")
    print(f"nonempty zero-sum subset: indices {subset}")
    assert subset is not None and olson_valid(vectors, p, subset)
    extremal = olson_lower_witness(k, p)
    print(f"extremal family of size {len(extremal)} with no zero-sum subset:")
    print(f"  {extremal}  ->  olson_solve returns {olson_solve(extremal, p)}")


def demo_planes(cfg: DemoConfig) -> None:
    banner("covering the punctured cube with 3n planes")
    n = 2
    family = plane_cover_construct(n)
    rep = plane_cover_verify(family, n)
    print(f"n = {n}: {len(family.planes)} planes cover {{0..{n}}}^3 \\ {{0}}:")
    for plane in family.planes:
        a, b, c, d = plane
        print(f"  {a}x + {b}y + {c}z + {d} = 0")
    print(f"covers = {rep.covers}, origin_free = {rep.origin_free}")
    short = plane_cover_verify(PlaneSet(family.planes[1:]), n)
    print(f"dropping one plane: covers = {short.covers}, missed = {short.missed[:3]}")


def demo_cycle(cfg: DemoConfig) -> None:
    banner("even cycle: picking labels so neighbours differ")
    labels = CycleLabels(
        [(1, 2), (2, 3), (1, 3), (Fraction(1, 2), 2), (0, 1), (1, 4)]
    )
    chosen = cycle_selection(labels)
    cert = cycle_selection_certificate(labels)
    print(f"label pairs: {labels.pairs}")
    print(f"selection with all adjacent entries distinct: {chosen}")
    print(f"normalised alternating certificate (always 2): {cert}")


def demo_regular(cfg: DemoConfig) -> None:
    banner("2-regular subgraph in a dense small graph")
    graph = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    chosen = regular_subgraph_find(graph, 2)
    print(f"graph K4 minus one edge, edges = {graph.edges}")
    print(f"edge subset inducing a 2-regular subgraph: {chosen}")
    print(f"induced degrees: {Graph(4, chosen).degrees()}")
    assert regular_subgraph_valid(graph, 2, chosen)


def demo_snevily(cfg: DemoConfig, rng: random.Random) -> None:
    banner("distinct-sum permutation (Snevily)")
    p = cfg.prime
    k = 4
    a = [rng.randrange(p) for _ in range(k)]
    b = rng.sample(range(p), k)
    sigma = snevily_solve(a, b, p)
    sums = [(a[i] + b[sigma[i] - 1]) % p for i in range(k)]
    print(f"a = {a}, b = {b} over Z_{p}")
    print(f"sigma = {sigma} gives pairwise distinct sums {sums}")
    assert len(set(sums)) == k


def demo_symdiff(cfg: DemoConfig) -> None:
    banner("two-coloured families: many cross-colour symmetric differences")
    sets = [frozenset({1}), frozenset(), frozenset({2})]
    colors = ["r", "b", "b"]
    diffs = symdiff_check(sets, colors)
    print(f"sets = {[set(s) for s in sets]}, colours = {colors}  (2^1 + 1 sets)")
    print(f"distinct red/blue symmetric differences: {[set(d) for d in diffs]}")
    print(f"count {len(diffs)} >= 2^1")


def demo_vandermonde(cfg: DemoConfig) -> None:
    banner("squared Vandermonde: the diagonal coefficient")
    values = {k: vandermonde_sq_coefficient(k) for k in range(1, 7)}
    print("coefficient of (x1*...*xk)^(k-1) in V(x)^2, next to k!(-1)^C(k,2):")
    for k, v in values.items():
        print(f"  k = {k}: {v}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DemoConfig.seed)
    args = parser.parse_args()
    cfg = DemoConfig(seed=args.seed)
    rng = random.Random(cfg.seed)

    demo_coefficient(cfg)
    demo_chevalley(cfg)
    demo_egz(cfg, rng)
    demo_olson(cfg, rng)
    demo_planes(cfg)
    demo_cycle(cfg)
    demo_regular(cfg)
    demo_snevily(cfg, rng)
    demo_symdiff(cfg)
    demo_vandermonde(cfg)
    print("\nall sections verified.")


if __name__ == "__main__":
    main()
