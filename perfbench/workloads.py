"""Seeded instances of the three in-process workloads.

A workload is a *pass*: a fixed schedule of instance kinds and sizes.  The
seed only fills in the random content (polynomials, sets, integers), so every
seed costs about the same and figures from different seeds are comparable.

Every instance carries its raw inputs as plain Python data, which the checks
in checks.py read.  The raw-polynomial helpers here serve those checks: they
recompute weighted sums with the separable formula
sum_terms c * prod_i S_i(e_i), S_i(e) = sum_{a in A_i} a^e / denom_i(a),
which needs no grid enumeration and no ``MultiPoly.evaluate``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import combnull
from combnull import combinatorics as comb
from combnull import mpoly
from combnull import nullstellensatz as ns

# Known defects: valid instances that fail at the seed commit.  They stay in
# the mix so that a fix shows up as a higher ok_ratio.  The recursive
# backtracking in cycle_selection exceeds the default recursion limit (1000)
# on cycles of about 1000 vertices or more.
KNOWN_DEFECTS = {"cycle_selection": RecursionError}


@dataclass
class Instance:
    name: str  # unique within a pool: "<kind>#<position>"
    kind: str
    inputs: dict  # raw inputs as plain Python data
    call: Callable[[], Any]
    defect: type | None = None


# ------------------------------------------------------------- raw polynomials


def random_terms(rng, n_vars, count, max_deg, coeff, min_deg=0):
    """count distinct monomials of total degree in [min_deg, max_deg]."""
    count = min(count, math.comb(n_vars + max_deg, n_vars) - math.comb(n_vars + min_deg - 1, n_vars))
    terms = {}
    while len(terms) < count:
        exps = [0] * n_vars
        for _ in range(rng.randint(min_deg, max_deg)):
            exps[rng.randrange(n_vars)] += 1
        terms[tuple(exps)] = coeff()
    return terms


def poly_text(terms) -> str:
    """Render a raw {exponents: coefficient} dict in the parse_poly format."""
    pieces = []
    for exps, c in terms.items():
        c = Fraction(c)
        factors = [str(abs(c))] + [f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
        pieces.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(pieces).lstrip("+ ") if pieces else "0"


def raw_eval(terms, point, p=None):
    total = 0
    for exps, c in terms.items():
        v = c
        for x, e in zip(point, exps):
            if e:
                v *= x**e
        total += v
    return total % p if p else total


def _inv(x, p):
    return pow(x % p, p - 2, p) if p else 1 / Fraction(x)


def separable_sum(terms, kernels, p=None):
    """sum_terms c * prod_i kernels[i](e_i), reduced mod p when p is given."""
    memo = [dict() for _ in kernels]
    total = 0
    for exps, c in terms.items():
        v = c
        for i, e in enumerate(exps):
            if e not in memo[i]:
                memo[i][e] = kernels[i](e)
            v *= memo[i][e]
        total += v
    return total % p if p else total


def grid_kernel(elements, p=None):
    """e -> sum over a in A of a^e / denom(A, a), exact or mod p."""
    weights = []
    for a in elements:
        d = 1
        for b in elements:
            if b != a:
                d *= a - b
        weights.append((a, _inv(d, p)))
    if p:
        return lambda e: sum(pow(a, e, p) * w for a, w in weights) % p
    return lambda e: sum(Fraction(a) ** e * w for a, w in weights)


def weighted_sum_separable(terms, sets, p=None):
    return separable_sum(terms, [grid_kernel(s, p) for s in sets], p)


# ------------------------------------------------------------------ generators


def _zp_coeff(rng, p):
    return lambda: rng.randrange(1, p)


def _q_coeff(rng):
    return lambda: Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.choice([1, 1, 2, 3]))


def _field(p):
    return combnull.RationalField() if p is None else combnull.PrimeField(p)


def gen_grid_sum(rng, sides, p, n_terms, above):
    """A polynomial and grid; above=True puts some terms past the degree bound."""
    sets = [sorted(rng.sample(range(p) if p else range(-30, 31), s)) for s in sides]
    bound = sum(s - 1 for s in sides)
    coeff = _zp_coeff(rng, p) if p else _q_coeff(rng)
    terms = random_terms(rng, len(sides), n_terms - 1, bound, coeff)
    if above:
        terms.update(random_terms(rng, len(sides), 1, bound + 3, coeff, min_deg=bound + 1))
    else:
        terms[tuple(s - 1 for s in sides)] = coeff()
    return {"p": p, "sets": sets, "terms": terms}


def gen_product_poly(rng, sides, p, cut):
    """For each of the first `cut` axes, the product of (x - a) over all but one
    element a of that axis's set: the polynomial is nonzero only where each cut
    coordinate takes its kept element, so the hit ratio is low."""
    sets = [sorted(rng.sample(range(p), s)) for s in sides]
    f = {(0,) * len(sides): 1}
    for axis in range(cut):
        keep = rng.choice(sets[axis])
        for a in sets[axis]:
            if a == keep:
                continue
            nxt = {}
            for exps, c in f.items():
                up = list(exps)
                up[axis] += 1
                nxt[tuple(up)] = (nxt.get(tuple(up), 0) + c) % p
                nxt[exps] = (nxt.get(exps, 0) - a * c) % p
            f = {e: c for e, c in nxt.items() if c}
    return {"p": p, "sets": sets, "terms": f}


def build_poly(inputs, n_vars=None):
    fld = _field(inputs["p"])
    n = n_vars or len(inputs["sets"])
    return mpoly.parse_poly(poly_text(inputs["terms"]), fld, n)


def _grid(inputs):
    return ns.Grid(_field(inputs["p"]), inputs["sets"])


# (kind, full-scale sizes, tiny sizes); one entry per instance in a pass.
#
# A pass is laid out in cost tiers so that the median and the p90 of the
# latency samples fall inside a block of alike instances, not in the gap
# between two kinds: about 40% cheap instances, a middle tier of 4-6 alike
# instances that holds the median, an upper group, a p90 tier of 2-4 alike
# instances, and the 1-2 most expensive instances.  With N instances per
# pass, 0.1 N of them lie beyond p90; the tier sizes put p90 near the middle
# of its tier, where one slow sample cannot move it much.  The tier members
# are marked below.
GRID_SUMS = [
    ("signed_two_element_sum", [6, 7, 8, 9, 10, 11], [3]),
    ("cauchy_davenport_check", [10, 12], [3]),
    ("grid_weighted_sum_zp", [(6, 6, 6, 6)], [(2, 2, 3, 3)]),
    ("grid_weighted_sum_q", [(6, 7, 8), (4, 4, 4, 4)], [(2, 3, 2)]),
    ("boolean_sum", [12], [4]),
    ("grid_weighted_sum_zp", [(6, 6, 7, 8)] * 5, [(3, 2, 3, 2)]),  # median tier
    ("grid_weighted_sum_q", [(8, 8, 8), (4, 5, 5, 5)], [(2, 2, 2)]),
    ("boolean_sum", [13], [5]),
    ("grid_weighted_sum_zp", [(8, 8, 8, 8), (6, 6, 8, 12)], [(2, 2, 2, 2)]),
    ("cauchy_davenport_check", [16], [4]),
    ("vandermonde_sq_coefficient", [5], [3]),
    ("zp_full_sum", [(7, 5, 8)], [(3, 3, 4)]),
    ("boolean_sum", [14], [6]),
    ("cauchy_davenport_check", [20, 20, 20, 20], [5]),  # p90 tier
    ("zp_full_sum", [(7, 6, 2)], [(3, 4, 2)]),
]

GRID_SEARCH = [
    ("plane_cover_verify", [10, 12, 14, 16, 18, 20], [2, 3]),
    # (shape, density): density is "sparse" (4 terms), "dense" (30 terms),
    # or the number of axes cut down by a product of linear factors (low hits)
    ("second_nonvanish", [((6, 6, 6, 6), "sparse"), ((8, 8, 8, 8), "sparse")], [((2, 3, 2), "sparse")]),
    ("common_roots", [(7, 4), (11, 3)], [(3, 3)]),
    ("second_nonvanish", [((6, 6, 6, 6), "dense")] * 4, [((3, 3, 3), "dense")]),  # median tier
    ("second_nonvanish", [((8, 8, 8, 8), 1), ((10, 10, 10, 10), "sparse"), ((6, 6, 8, 8), 2),
                          ((8, 8, 8, 8), "dense")], [((3, 3, 3), 1)]),
    ("common_roots", [(11, 4), (7, 5)], [(5, 2)]),
    ("chevalley_g", [11], [3]),
    ("chevalley_g", [13, 13], [5]),  # p90 tier
    ("common_roots", [(7, 6)], [(3, 4)]),
    ("chevalley_g", [17], [7]),
]

ADDITIVE = [
    ("snevily_solve", [(101, 40), (53, 30)], [(7, 4)]),
    ("snevily_mod_n", [(61, 31), (41, 21)], [(9, 5)]),
    ("cycle_selection", [100, 400, 800, 1200, 2000], [6, 10]),
    # (p, k, family size): at/above the Davenport threshold k(p-1)+1 and below it
    ("olson_solve", [(5, 3, 8)], [(3, 2, 3)]),
    ("sumset", [(997, 150, 200), (1009, 200, 120)], [(7, 3, 3)]),
    ("erdos_heilbronn_check", [(997, 180, None)], [(7, 3, None)]),
    ("symdiff_check", [6], [2]),
    ("restricted_sumset", [(997, 150, 200)] * 6, [(7, 3, 3)]),  # median tier
    ("erdos_heilbronn_check", [(1009, 150, 170)], [(7, 3, 4)]),
    ("olson_solve", [(5, 3, 13), (7, 3, 19), (7, 4, 12), (7, 4, 25)], [(3, 2, 5)]),
    ("symdiff_check", [8], [3]),
    # (p, vertices, edges, forest): p = 3 takes the residue-state DP; the
    # forest on 20 vertices takes the plain scan with force_search and has no
    # 2-regular subgraph, so the scan always covers all 2^17 edge subsets
    ("regular_subgraph_find", [(3, 9, 20, False), (3, 9, 20, False)], [(3, 6, 13, False)]),
    ("egz_solve", [53, 79], [5]),
    ("egz_solve", [101, 101, 101], [7]),  # p90 tier
    ("regular_subgraph_find", [(2, 20, 17, True)], [(2, 6, 4, True)]),
    ("egz_solve", [211], [11]),
]


def _gen(kind, size, rng, tiny):
    """(inputs, call-factory) for one instance of `kind`."""
    if kind in ("grid_weighted_sum_zp", "grid_weighted_sum_q"):
        p = 101 if kind.endswith("zp") else None
        inputs = gen_grid_sum(rng, size, p, 6 if tiny else (30 if p else 12), rng.random() < 0.5)
        f, grid = build_poly(inputs), _grid(inputs)
        return inputs, lambda: ns.grid_weighted_sum(f, grid)
    if kind == "zp_full_sum":
        p, n, count = size
        inputs = {"p": p, "n": n, "terms": random_terms(rng, n, count, n * (p - 1), _zp_coeff(rng, p))}
        f = build_poly(inputs, n)
        return inputs, lambda: ns.zp_full_sum(f)
    if kind == "boolean_sum":
        inputs = {"p": 2, "n": size, "terms": random_terms(rng, size, 6, size, lambda: 1)}
        f = build_poly(inputs, size)
        return inputs, lambda: ns.boolean_sum(f)
    if kind == "signed_two_element_sum":
        inputs = gen_grid_sum(rng, (2,) * size, 101, 10, rng.random() < 0.5)
        f, grid = build_poly(inputs), _grid(inputs)
        return inputs, lambda: ns.signed_two_element_sum(f, grid)
    if kind == "cauchy_davenport_check":
        p = 7 if tiny else 101
        inputs = {"p": p, "a": rng.sample(range(p), size), "b": rng.sample(range(p), size)}
        fld = combnull.PrimeField(p)
        return inputs, lambda: comb.cauchy_davenport_check(fld, inputs["a"], inputs["b"])
    if kind == "vandermonde_sq_coefficient":
        return {"k": size}, lambda: comb.vandermonde_sq_coefficient(size, verify=True)
    if kind == "second_nonvanish":
        shape, density = size
        if isinstance(density, int):
            inputs = gen_product_poly(rng, shape, 101, density)
        else:
            inputs = gen_grid_sum(rng, shape, 101, 4 if density == "sparse" else 30, False)
        f, grid = build_poly(inputs), _grid(inputs)
        return inputs, lambda: ns.second_nonvanish(f, grid)
    if kind == "common_roots":
        p, n = size
        polys = [random_terms(rng, n, 3, 1, _zp_coeff(rng, p)) for _ in range(2)]
        for t in polys:
            t.update(random_terms(rng, n, 1, 2, _zp_coeff(rng, p), min_deg=2))
        inputs = {"p": p, "n": n, "polys": polys}
        fld = combnull.PrimeField(p)
        system = comb.PolySystem(fld, n, [build_poly({"p": p, "terms": t}, n) for t in polys])
        return inputs, lambda: comb.common_roots(system)
    if kind == "chevalley_g":
        p = size
        inputs = {"p": p, "n": 3, "polys": [random_terms(rng, 3, 10, 2, _zp_coeff(rng, p))]}
        fld = combnull.PrimeField(p)
        system = comb.PolySystem(fld, 3, [build_poly({"p": p, "terms": inputs["polys"][0]}, 3)])
        return inputs, lambda: comb.chevalley_g(system)
    if kind == "plane_cover_verify":
        n = size
        planes = list(comb.plane_cover_construct(n).planes)
        if rng.random() < 0.5:  # an origin-free family one plane short: must miss
            planes.pop(rng.randrange(len(planes)))
            rng.shuffle(planes)
        inputs = {"n": n, "planes": planes}
        plane_set = comb.PlaneSet(planes)
        return inputs, lambda: comb.plane_cover_verify(plane_set, n)
    if kind == "egz_solve":
        p = size
        inputs = {"p": p, "nums": [rng.randrange(10**6) for _ in range(2 * p - 1)]}
        return inputs, lambda: comb.egz_solve(inputs["nums"], p)
    if kind == "olson_solve":
        p, k, m = size
        inputs = {"p": p, "k": k, "vectors": [tuple(rng.randrange(p) for _ in range(k)) for _ in range(m)]}
        return inputs, lambda: comb.olson_solve(inputs["vectors"], p, k)
    if kind in ("sumset", "restricted_sumset", "erdos_heilbronn_check"):
        p, na, nb = size
        a = rng.sample(range(p), na)
        b = None if nb is None else rng.sample(range(p), nb)
        inputs = {"p": p, "a": a, "b": b}
        fld = combnull.PrimeField(p)
        return inputs, lambda: getattr(comb, kind)(fld, a, b)
    if kind == "regular_subgraph_find":
        p, n, m, forest = size
        edges = _forest(rng, n, m) if forest else _capped_graph(rng, n, m, 2 * p - 1)
        inputs = {"p": p, "n": n, "edges": edges}
        graph = comb.Graph(n, edges)
        return inputs, lambda: comb.regular_subgraph_find(graph, p, force_search=forest)
    if kind == "snevily_solve":
        p, k = size
        inputs = {"p": p, "a": [rng.randrange(p) for _ in range(k)], "b": rng.sample(range(p), k)}
        return inputs, lambda: comb.snevily_solve(inputs["a"], inputs["b"], p)
    if kind == "snevily_mod_n":
        n, k = size
        inputs = {"n": n, "a": [rng.randrange(n) for _ in range(k)]}
        return inputs, lambda: comb.snevily_mod_n(inputs["a"], n)
    if kind == "cycle_selection":
        pairs = [tuple(rng.sample(range(6), 2)) for _ in range(size)]
        inputs = {"pairs": pairs}
        labels = comb.CycleLabels(pairs)
        return inputs, lambda: comb.cycle_selection(labels)
    if kind == "symdiff_check":
        count = (1 << size) + 1
        universe = size + 4
        sets = [sorted(i for i in range(universe) if mask >> i & 1)
                for mask in rng.sample(range(1 << universe), count)]
        colors = ["r", "b"] + [rng.choice("rb") for _ in range(count - 2)]
        rng.shuffle(colors)
        inputs = {"sets": sets, "colors": colors}
        return inputs, lambda: comb.symdiff_check(sets, colors)
    raise KeyError(kind)


def _forest(rng, n, m):
    """Random forest with m edges and no isolated vertex among n."""
    while True:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        while len(edges) > m:
            spare = sorted(e for e in edges if deg[e[0]] > 1 and deg[e[1]] > 1)
            if not spare:
                break
            u, v = rng.choice(spare)
            edges.remove((u, v))
            deg[u] -= 1
            deg[v] -= 1
        if len(edges) == m:
            return sorted(edges)


def _capped_graph(rng, n, m, cap):
    """Random simple graph with m edges and every degree <= cap."""
    while True:
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        deg = [0] * n
        edges = []
        for u, v in pairs:
            if deg[u] < cap and deg[v] < cap:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
                if len(edges) == m:
                    return sorted(edges)


SCHEDULES = {"grid_sums": GRID_SUMS, "grid_search": GRID_SEARCH, "additive": ADDITIVE}


def build_pool(workload: str, seed: str, tiny: bool = False) -> list[Instance]:
    """Every instance of one pass, with its library objects built."""
    rng = random.Random(f"{workload}:{seed}")
    pool = []
    for kind, full, small in SCHEDULES[workload]:
        for size in small if tiny else full:
            inputs, call = _gen(kind, size, rng, tiny)
            pool.append(Instance(f"{kind}#{len(pool)}", kind, inputs, call, KNOWN_DEFECTS.get(kind)))
    return pool
