#!/usr/bin/env python3
"""Regenerate perfbench/expected_seed0.json from brute force.

    python3 perfbench/make_expected.py

For the default seed (0) this builds every input set of the three
in-process workloads and answers each instance with the brute-force
references in tests/oracles.py (or, for plane coverings, a direct scan),
which share no code with the package.  Only the digest of each answer's
canonical form is stored; run.py compares it with the digest of the
library's answer.  Searches that return "the lexicographically smallest
witness" are thereby pinned byte for byte.  Kinds with no feasible brute
force at benchmark sizes are left out: chevalley_g, snevily_solve,
snevily_mod_n, cycle_selection, the 24-edge regular_subgraph_find graphs
and olson_solve families of more than 14 vectors.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]

import oracles  # noqa: E402
import run  # noqa: E402
from checks import _binom, digest  # noqa: E402


def _signed(terms, sets, p):
    total = 0
    for sel in itertools.product((0, 1), repeat=len(sets)):
        pt = tuple(s[i] for s, i in zip(sets, sel))
        total += (-1) ** sum(sel) * oracles.eval_terms(terms, pt)
    return total % p


NO_ORACLE = object()


def answer(kind, inp):
    """Canonical brute-force answer, or NO_ORACLE when none is feasible."""
    if kind == "grid_weighted_sum_zp":
        return oracles.weighted_sum_zp(inp["terms"], inp["sets"], inp["p"])
    if kind == "grid_weighted_sum_q":
        return oracles.weighted_sum_q(inp["terms"], inp["sets"])
    if kind == "zp_full_sum":
        p = inp["p"]
        return sum(oracles.eval_terms(inp["terms"], pt) for pt in itertools.product(range(p), repeat=inp["n"])) % p
    if kind == "boolean_sum":
        return sum(oracles.eval_terms(inp["terms"], pt) for pt in itertools.product((0, 1), repeat=inp["n"])) % 2
    if kind == "signed_two_element_sum":
        return _signed(inp["terms"], inp["sets"], inp["p"])
    if kind == "cauchy_davenport_check":
        p, a, b = inp["p"], inp["a"], inp["b"]
        m = len(a) + len(b) - 2
        return (tuple(oracles.sumset(a, b, p)), min(m + 1, p), math.comb(m, len(a) - 1) % p if m + 1 <= p else None)
    if kind == "erdos_heilbronn_check":
        p, a, b = inp["p"], inp["a"], inp["b"]
        if b is None:
            bound, ca, cb, usable = min(2 * len(a) - 3, p), len(a) - 1, len(a), len(a) >= 2
        else:
            bound, ca, cb = min(len(a) + len(b) - 2, p), len(a), len(b)
            usable = ca != cb and ca + cb >= 3
        m = ca + cb - 3
        cert = (_binom(m, ca - 2) - _binom(m, ca - 1)) % p if usable and m <= p - 1 else None
        return (tuple(oracles.restricted_sumset(a, a if b is None else b, p)), bound, cert)
    if kind == "vandermonde_sq_coefficient":
        k = inp["k"]
        return math.factorial(k) * (-1) ** (k * (k - 1) // 2)
    if kind == "second_nonvanish":
        return [pt for pt in itertools.product(*inp["sets"]) if oracles.eval_terms(inp["terms"], pt) % inp["p"]]
    if kind == "common_roots":
        return oracles.common_roots(inp["polys"], inp["p"], inp["n"])
    if kind == "plane_cover_verify":
        n, planes = inp["n"], inp["planes"]
        missed = tuple(pt for pt in itertools.product(range(n + 1), repeat=3) if pt != (0, 0, 0)
                       and not any(a * pt[0] + b * pt[1] + c * pt[2] + d == 0 for a, b, c, d in planes))
        return (not missed, all(d != 0 for *_, d in planes), missed)
    if kind == "egz_solve":
        return oracles.egz_first(inp["nums"], inp["p"])
    if kind == "olson_solve" and len(inp["vectors"]) <= 14:
        return oracles.lex_min_zero_sum(inp["vectors"], inp["p"], inp["k"])
    if kind in ("sumset", "restricted_sumset"):
        return tuple(getattr(oracles, kind)(inp["a"], inp["b"], inp["p"]))
    if kind == "regular_subgraph_find" and len(inp["edges"]) <= 20:
        edges = inp["edges"]
        mask = oracles.first_regular_mask(edges, inp["n"], inp["p"])
        return None if mask is None else tuple(e for j, e in enumerate(edges) if mask >> j & 1)
    if kind == "symdiff_check":
        return sorted(tuple(sorted(d)) for d in oracles.cross_symdiffs(inp["sets"], inp["colors"]))
    return NO_ORACLE


def main():
    out = {}
    for workload in ("grid_sums", "grid_search", "additive"):
        table = out[workload] = {}
        for v, pool in enumerate(run.build(workload, run.DEFAULT_SEED)):
            for inst in pool:
                want = answer(inst.kind, inst.inputs)
                if want is not NO_ORACLE:
                    table[run._key(v, inst)] = digest(want)
        print(f"{workload}: {len(table)} answers")
    (HERE / "expected_seed0.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
