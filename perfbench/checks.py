"""Answer checks for the in-process workloads, run after the timed loop.

``check(inst, result)`` returns None when the answer is right and a reason
otherwise.  Each check recomputes the answer from the instance's raw inputs by
a route that avoids the layer under test (see workloads.py), or tests the
defining predicate of the witness.  ``canon(inst, result)`` gives the plain
form of a result whose digest is compared with the stored expected answers.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

from workloads import raw_eval, separable_sum, weighted_sum_separable


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def canon(inst, result):
    kind = inst.kind
    if kind == "second_nonvanish":
        return [pt.value for pt in result]
    if kind in ("cauchy_davenport_check", "erdos_heilbronn_check"):
        return (result.result, result.bound, result.certificate)
    if kind == "plane_cover_verify":
        return (result.covers, result.origin_free, result.missed)
    if kind == "chevalley_g":
        return sorted(result.terms.items())
    if kind == "symdiff_check":
        return sorted(tuple(sorted(d)) for d in result)
    return result


def _binom(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def _residue_sumset(a, b, p):
    """A + B in Z_p as an OR of rotations of the bit set of B."""
    full = (1 << p) - 1
    bits = sum(1 << (y % p) for y in set(b))
    acc = 0
    for x in set(a):
        s = x % p
        acc |= ((bits << s) | (bits >> (p - s))) & full
    return tuple(i for i in range(p) if acc >> i & 1)


def _restricted(a, b, p):
    bs = {y % p for y in b}
    return tuple(
        s for s in _residue_sumset(a, b, p)
        if any((s - x) % p in bs and (s - x) % p != x % p for x in {v % p for v in a})
    )


def _acyclic(edges, n):
    """For p = 2 a nonempty subgraph with degrees 0 or 2 is a union of cycles."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return True


def _plane_misses(planes, n):
    """Points of {0..n}^3 minus the origin on no plane, by solving each plane
    for one coordinate instead of testing every point against every plane."""
    covered = set()
    rng = range(n + 1)
    for a, b, c, d in planes:
        coeffs = (a, b, c)
        axis = max(i for i in range(3) if coeffs[i])
        others = [i for i in range(3) if i != axis]
        for u, v in itertools.product(rng, rng):
            num = -(d + coeffs[others[0]] * u + coeffs[others[1]] * v)
            if num % coeffs[axis] == 0 and 0 <= num // coeffs[axis] <= n:
                pt = [0, 0, 0]
                pt[others[0]], pt[others[1]], pt[axis] = u, v, num // coeffs[axis]
                covered.add(tuple(pt))
    return tuple(pt for pt in itertools.product(rng, repeat=3) if pt != (0, 0, 0) and pt not in covered)


def _hits_ok(inputs, points):
    """Every returned point is a nonvanishing grid point, in enumeration
    order, and the weighted sum over the returned points alone equals the
    full weighted sum (f vanishes off them), recomputed separably."""
    p, sets, terms = inputs["p"], inputs["sets"], inputs["terms"]
    index = [{a: j for j, a in enumerate(s)} for s in sets]
    try:
        keys = [tuple(index[i][x] for i, x in enumerate(pt)) for pt in points]
    except KeyError:
        return "a returned point lies off the grid"
    if keys != sorted(set(keys)):
        return "points are not in enumeration order"
    inv_den = []
    for s in sets:
        table = {}
        for a in s:
            d = 1
            for b in s:
                if b != a:
                    d = d * (a - b) % p
            table[a] = pow(d, p - 2, p)
        inv_den.append(table)
    total = 0
    for pt in points:
        v = raw_eval(terms, pt, p)
        if v == 0:
            return f"f vanishes at returned point {pt}"
        w = 1
        for i, x in enumerate(pt):
            w = w * inv_den[i][x] % p
        total = (total + v * w) % p
    if total != weighted_sum_separable(terms, sets, p):
        return "weighted sum over the returned points differs from the full sum"
    return None


def check(inst, result) -> str | None:
    kind, inp = inst.kind, inst.inputs
    if kind in ("grid_weighted_sum_zp", "grid_weighted_sum_q", "signed_two_element_sum"):
        p, sets, terms = inp["p"], inp["sets"], inp["terms"]
        if kind == "signed_two_element_sum":
            want = separable_sum(terms, [lambda e, s=s: s[0] ** e - s[1] ** e for s in sets], p)
        else:
            want = weighted_sum_separable(terms, sets, p)
            target = tuple(len(s) - 1 for s in sets)
            top = terms.get(target, 0) % p if p else terms.get(target, 0)
            if max(map(sum, terms)) <= sum(target) and want != top:
                return "identity applies but the sum differs from the top coefficient"
        return None if result == want else f"got {result}, separable formula gives {want}"
    if kind == "zp_full_sum":
        p = inp["p"]
        want = separable_sum(inp["terms"], [lambda e: sum(pow(a, e, p) for a in range(p)) % p] * inp["n"], p)
        return None if result == want else f"got {result}, separable formula gives {want}"
    if kind == "boolean_sum":
        want = separable_sum(inp["terms"], [lambda e: 1 if e else 2] * inp["n"], 2)
        return None if result == want else f"got {result}, separable formula gives {want}"
    if kind in ("cauchy_davenport_check", "erdos_heilbronn_check"):
        p, a, b = inp["p"], inp["a"], inp["b"]
        if kind == "cauchy_davenport_check":
            want = _residue_sumset(a, b, p)
            bound = min(len(a) + len(b) - 1, p)
            m = len(a) + len(b) - 2
            cert = math.comb(m, len(a) - 1) % p if m + 1 <= p else None
        else:
            want = _restricted(a, a if b is None else b, p)
            if b is None:
                bound, (ca, cb) = min(2 * len(a) - 3, p), (len(a) - 1, len(a))
            else:
                bound, (ca, cb) = min(len(a) + len(b) - 2, p), (len(a), len(b))
            # top coefficient of (x - y) * prod(x + y - c): C(m, ca-2) - C(m, ca-1)
            m = ca + cb - 3
            usable = len(a) >= 2 if b is None else ca != cb and ca + cb >= 3
            cert = (_binom(m, ca - 2) - _binom(m, ca - 1)) % p if usable and m <= p - 1 else None
        if (result.result, result.bound, result.certificate) != (want, bound, cert):
            return "sumset, bound or certificate differs from the direct computation"
        return None if len(want) >= bound else "bound fails"
    if kind == "vandermonde_sq_coefficient":
        k = inp["k"]
        want = math.factorial(k) * (-1) ** (k * (k - 1) // 2)
        return None if result == want else f"got {result}, closed form {want}"
    if kind == "second_nonvanish":
        return _hits_ok(inp, [pt.value for pt in result])
    if kind == "common_roots":
        p, n, polys = inp["p"], inp["n"], inp["polys"]
        if list(result) != sorted(set(result)):
            return "roots are not ascending and distinct"
        if any(raw_eval(t, pt, p) for pt in result for t in polys):
            return "a returned point is not a common root"
        if sum(max(map(sum, t)) for t in polys) < n and len(result) % p:
            return "Chevalley-Warning: root count not divisible by p"
        return None
    if kind == "chevalley_g":
        p, n, polys = inp["p"], inp["n"], inp["polys"]
        grid = itertools.product(range(p), repeat=n)
        roots = [pt for pt in grid if all(raw_eval(t, pt, p) == 0 for t in polys)][:3]
        sample = [tuple((i * (j + 2) + j) % p for j in range(n)) for i in range(8)]
        for pt in roots + sample:
            want = 1
            for t in polys:
                want = want * (pow(raw_eval(t, pt, p), p - 1, p) - 1) % p
            if raw_eval(result.terms, pt, p) != want:
                return f"g({pt}) differs from prod(f^(p-1) - 1)"
        return None
    if kind == "plane_cover_verify":
        missed = _plane_misses(inp["planes"], inp["n"])
        origin_free = all(d != 0 for *_, d in inp["planes"])
        if (result.covers, result.origin_free, result.missed) != (not missed, origin_free, missed):
            return "coverage report differs from the direct computation"
        return None
    if kind == "egz_solve":
        p, nums = inp["p"], inp["nums"]
        ok = len(result) == p and list(result) == sorted(set(result)) and all(0 <= i < len(nums) for i in result)
        return None if ok and sum(nums[i] for i in result) % p == 0 else "not p distinct indices summing to 0 mod p"
    if kind == "olson_solve":
        p, k, vecs = inp["p"], inp["k"], inp["vectors"]
        if result is None:
            if len(vecs) >= k * (p - 1) + 1:
                return "no witness at or above the Davenport threshold"
            if len(vecs) <= 14 and any(
                all(sum(vecs[i][j] for i in c) % p == 0 for j in range(k))
                for r in range(1, len(vecs) + 1) for c in itertools.combinations(range(len(vecs)), r)
            ):
                return "no witness reported but a zero-sum subset exists"
            return None
        ok = result and list(result) == sorted(set(result)) and all(0 <= i < len(vecs) for i in result)
        return None if ok and all(sum(vecs[i][j] for i in result) % p == 0 for j in range(k)) else "not a zero-sum subset"
    if kind in ("sumset", "restricted_sumset"):
        p, a, b = inp["p"], inp["a"], inp["b"]
        want = _residue_sumset(a, b, p) if kind == "sumset" else _restricted(a, b, p)
        return None if result == want else "differs from the direct computation"
    if kind == "regular_subgraph_find":
        p, n, edges = inp["p"], inp["n"], inp["edges"]
        if result is None:
            return None if p == 2 and _acyclic(edges, n) else "no witness reported"
        degs = [0] * n
        for u, v in result:
            degs[u] += 1
            degs[v] += 1
        ok = result and set(result) <= set(edges) and len(set(result)) == len(result)
        return None if ok and all(d in (0, p) for d in degs) else "edge subset is not p-regular on its support"
    if kind in ("snevily_solve", "snevily_mod_n"):
        a = inp["a"]
        k = len(a)
        b, mod = (inp["b"], inp["p"]) if kind == "snevily_solve" else (list(range(1, k + 1)), inp["n"])
        if sorted(result) != list(range(1, k + 1)):
            return "not a permutation of 1..k"
        return None if len({(a[i] + b[result[i] - 1]) % mod for i in range(k)}) == k else "sums not distinct"
    if kind == "cycle_selection":
        pairs = inp["pairs"]
        n = len(pairs)
        ok = len(result) == n and all(Fraction(result[i]) in map(Fraction, pairs[i]) for i in range(n))
        return None if ok and all(result[i] != result[(i + 1) % n] for i in range(n)) else "not a proper selection"
    if kind == "symdiff_check":
        sets, colors = inp["sets"], inp["colors"]
        masks = [sum(1 << x for x in s) for s in sets]
        ones = [m for m, c in zip(masks, colors) if c == "b"]
        others = [m for m, c in zip(masks, colors) if c == "r"]
        want = sorted({x ^ y for x in ones for y in others})
        got = sorted(sum(1 << x for x in d) for d in result)
        return None if got == want and len(got) >= (len(sets) - 1) else "differences differ from the direct computation"
    raise KeyError(kind)
