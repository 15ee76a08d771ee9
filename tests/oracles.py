"""Brute-force reference implementations used to cross-check the library.

Everything here recomputes answers from first principles with plain int or
Fraction arithmetic and naive enumeration.  No code is shared with the
package: polynomials are raw {exponents: coefficient} dicts, modular
inverses go through Fermat exponentiation (the package uses extended
Euclid), primes come from trial division (the package uses Miller-Rabin),
and searches are flat scans in lexicographic order.  The mid-size zero-sum
oracles are the exception: greedy passes over suffix tables of lists or
tuple sets, where the package packs its state sets into ints.  So is the
reference evaluator, ``GenericRoute``: it reads the evaluation plan of
``combnull.gridkernel`` and fills its power tables, as the generated kernels
do, but applies the plan's rule as loops and C-level forms, so it pins the
code generation while ``eval_terms`` pins the plan.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import is_, mul

from combnull import gridkernel
from combnull.errors import ArityMismatch


# --------------------------------------------------------------------- primes


def is_prime_trial(n: int) -> bool:
    """Trial division by every odd d with d * d <= n."""
    if n < 4:
        return n >= 2
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ------------------------------------------------------------ raw polynomials


def eval_terms(terms: dict, point) -> int | Fraction:
    total = 0
    for exps, coeff in terms.items():
        val = coeff
        for x, e in zip(point, exps):
            val *= x**e
        total += val
    return total


class GenericRoute:
    """``MultiPoly.evaluate`` by the rule its kernel unrolls, as one loop over
    the depths: the reference evaluator of ``combnull.gridkernel``.

    It builds f's plan anew (``gridkernel._eval_plan``), with tables of its
    own, and keeps the kernel's memo layout, the kernel's slot holding the
    plan.  ``evaluate`` gives the value, or raises the error, that f's
    kernel gives, and fills the plan's power tables with the same rows
    under the same budget.
    """

    def __init__(self, f):
        self.n_vars = f.n_vars
        self.plan = plan = gridkernel._eval_plan(f)[0]
        self._memo = (plan, (gridkernel._UNSET,) * (f.n_vars - 1), [plan[4]], plan[4])

    def evaluate(self, point):
        if len(point) != self.n_vars:
            raise ArityMismatch(f"point of length {len(point)}, expected {self.n_vars}")
        plan, head, levels, coeffs = self._memo
        mod, den, coordinate, depths, _, slots, reduce_sums, last, table, room = plan
        if not all(map(is_, point, head)):  # in grid order, only when a head coordinate moves
            first = list(map(is_, point, head)).index(False)
            head = tuple(point[:self.n_vars - 1])
            products = levels[first]
            levels = levels[:first]
            for (exponents, picks, reduce, powers), x in zip(depths[first:],
                                                             map(coordinate, head[first:])):
                row = powers.get(x)
                if row is None:
                    row = gridkernel._power_row(x, exponents, powers, room, mod)
                levels.append(products)
                products = list(map(mul, products, picks(row)))
                if reduce:
                    products = list(map(mod.__rmod__, products))
            if slots:
                products = list(map(sum, map(products.__getitem__, slots)))
            if reduce_sums:
                products = list(map(mod.__rmod__, products))
            coeffs = products
            self._memo = (plan, head, levels, coeffs)
        x = point[-1]
        if type(x) is not int:
            x = coordinate(x)
        elif mod:
            x %= mod
        row = table.get(x)
        if row is None:
            row = gridkernel._power_row(x, last, table, room, mod)
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


def mul_terms(a: dict, b: dict, p: int | None = None) -> dict:
    """Schoolbook product: one exponent tuple per pair of terms, reduced mod p
    when p is given (exact otherwise), zero coefficients dropped."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    if p:
        out = {e: c % p for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def product_terms(factors, n_vars: int, p: int | None = None) -> dict:
    """The product of raw term dicts, left to right from the constant 1, one
    schoolbook multiply per factor; mod p when p is given, exact otherwise."""
    out = {(0,) * n_vars: 1}
    for terms in factors:
        out = mul_terms(out, terms, p)
    return out


def master_coefficients(points, p: int | None = None) -> list:
    """The coefficients of the product of (x - b) over the points, highest
    degree first, as a dense list extended by one linear factor at a time;
    mod p when p is given, exact otherwise."""
    master = [1]
    for b in points:
        master = [hi - b * lo for hi, lo in zip(master + [0], [0] + master)]
        if p:
            master = [c % p for c in master]
    return master


def inv_mod(x: int, p: int) -> int:
    # Fermat route, deliberately different from the package's pow(x, -1, p)
    x %= p
    if x == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(x, p - 2, p)


def weighted_sum_zp(terms: dict, sets, p: int) -> int:
    """Direct sum of f(alpha)/P(alpha) over the grid, everything mod p."""
    total = 0
    for point in itertools.product(*sets):
        den = 1
        for i, a in enumerate(point):
            for b in sets[i]:
                if b != a:
                    den = den * (a - b) % p
        total = (total + eval_terms(terms, point) * inv_mod(den, p)) % p
    return total


def weighted_sum_q(terms: dict, sets) -> Fraction:
    total = Fraction(0)
    for point in itertools.product(*sets):
        den = Fraction(1)
        for i, a in enumerate(point):
            for b in sets[i]:
                if b != a:
                    den *= Fraction(a) - Fraction(b)
        total += Fraction(eval_terms(terms, point)) / den
    return total


def boolean_sum(terms: dict, n: int) -> int:
    """Sum of f over all of {0,1}^n, mod 2."""
    return sum(eval_terms(terms, pt) for pt in itertools.product((0, 1), repeat=n)) % 2


def zp_full_sum(terms: dict, n: int, p: int) -> int:
    """Sum of f over all of Z_p^n, mod p."""
    return sum(eval_terms(terms, pt) for pt in itertools.product(range(p), repeat=n)) % p


def alon_furedi_minimum(sizes, degree: int) -> int:
    """min of y_1 * ... * y_n over every 1 <= y_i <= sizes[i] with
    y_1 + ... + y_n >= sum(sizes) - degree, by trying them all."""
    need = sum(sizes) - degree
    return min(math.prod(ys) for ys in itertools.product(*(range(1, a + 1) for a in sizes))
               if sum(ys) >= need)


def signed_two_element_sum(terms: dict, pairs, p: int | None = None):
    """Sum over selectors s of (-1)^(s_1+...+s_n) f(a_1s_1, ..., a_ns_n), each
    pair sorted ascending; mod p when p is given, an exact Fraction otherwise."""
    pairs = [sorted(pair) for pair in pairs]
    total = 0
    for selector in itertools.product((0, 1), repeat=len(pairs)):
        value = eval_terms(terms, [pair[s] for pair, s in zip(pairs, selector)])
        total += -value if sum(selector) % 2 else value
    return total % p if p else Fraction(total)


def lagrange_interpolate(points, values, p: int | None = None) -> dict:
    """The basis-product route: the sum over a of y_a times the product of
    (x - b) / (a - b) over b != a, multiplied out one linear factor at a time;
    mod p when p is given (points as residues in [0, p)), exact otherwise.
    Returns the univariate {(e,): coefficient} dict without zero terms."""
    total: dict = {}
    for a, y in zip(points, values):
        basis, den = {(0,): 1}, 1
        for b in points:
            if b != a:
                basis = mul_terms(basis, {(1,): 1, (0,): -b}, p)
                den *= a - b
        weight = y * inv_mod(den, p) if p else Fraction(y) / den
        for e, c in basis.items():
            total[e] = total.get(e, 0) + c * weight
    if p:
        total = {e: c % p for e, c in total.items()}
    return {e: c for e, c in total.items() if c}


# -------------------------------------------------------------------- sumsets


def sumset(a, b, p: int):
    return sorted({(x + y) % p for x in a for y in b})


def restricted_sumset(a, b, p: int):
    return sorted({(x + y) % p for x in a for y in b if x % p != y % p})


# ------------------------------------------------------------------ zero sums


def egz_first(nums, p: int):
    """First (lexicographically smallest) p-subset of indices with zero sum."""
    for combo in itertools.combinations(range(len(nums)), p):
        if sum(nums[i] for i in combo) % p == 0:
            return combo
    return None


def zero_sum_subsets(vectors, p: int, k: int):
    out = []
    for r in range(1, len(vectors) + 1):
        for combo in itertools.combinations(range(len(vectors)), r):
            if all(sum(vectors[i][j] for i in combo) % p == 0 for j in range(k)):
                out.append(combo)
    return out


def lex_min_zero_sum(vectors, p: int, k: int):
    subsets = zero_sum_subsets(vectors, p, k)
    return min(subsets) if subsets else None


# Mid-size zero-sum oracles: table and tuple-set searches, polynomial in p,
# for sizes where the brute force above (about p = 7) no longer finishes.
# Both take the same greedy forward pass as the package's packed-int search,
# over a different state representation.


def egz_table(nums, p: int):
    """First p-subset with zero sum, greedily against a suffix table:
    feas[i][c][r] says some c-subset of positions i.. sums to r mod p."""
    m = len(nums)
    res = [x % p for x in nums]
    feas = [[[False] * p for _ in range(p + 1)] for _ in range(m + 1)]
    feas[m][0][0] = True
    for i in range(m - 1, -1, -1):
        for c in range(p + 1):
            for r in range(p):
                feas[i][c][r] = feas[i + 1][c][r] or (
                    c >= 1 and feas[i + 1][c - 1][(r - res[i]) % p]
                )
    if not feas[0][p][0]:
        return None
    chosen, need, target = [], p, 0
    for i in range(m):
        if need and feas[i + 1][need - 1][(target - res[i]) % p]:
            chosen.append(i)
            need -= 1
            target = (target - res[i]) % p
    return tuple(chosen)


def zero_sum_reach(vectors, p: int, k: int):
    """First nonempty zero-sum index set, greedily against the suffix sets of
    subset sums, each a set of k-tuples."""
    vecs = [tuple(x % p for x in v) for v in vectors]
    m = len(vecs)
    zero = (0,) * k

    def vadd(s, v):
        return tuple((a + b) % p for a, b in zip(s, v))

    reach = [set() for _ in range(m + 1)]
    nonempty = [set() for _ in range(m + 1)]
    reach[m] = {zero}
    for i in range(m - 1, -1, -1):
        shifted = {vadd(s, vecs[i]) for s in reach[i + 1]}
        reach[i] = reach[i + 1] | shifted
        nonempty[i] = nonempty[i + 1] | shifted
    if zero not in nonempty[0]:
        return None
    chosen, state = [], zero
    for i in range(m):
        nxt = vadd(state, vecs[i])
        if tuple(-x % p for x in nxt) in reach[i + 1]:
            chosen.append(i)
            state = nxt
            if state == zero:
                break
    return tuple(chosen)


# -------------------------------------------------------- witness definitions
# Each lists every witness of a small instance, as sets (or, for cycles, as
# label tuples), found by trying all candidates against the theorem's wording.


def egz_witnesses(nums, p: int) -> set:
    """Every p-set of positions whose entries sum to 0 mod p."""
    return {
        frozenset(combo)
        for combo in itertools.combinations(range(len(nums)), p)
        if sum(nums[i] for i in combo) % p == 0
    }


def proper_selections(pairs) -> set:
    """Every choice of one label per vertex in which no two cycle neighbours
    agree; a cycle of one vertex is its own neighbour and has none."""
    n = len(pairs)
    return {
        choice
        for choice in itertools.product(*pairs)
        if n > 1 and all(choice[i] != choice[(i + 1) % n] for i in range(n))
    }


def regular_edge_sets(edges, n_vertices: int, p: int) -> set:
    """Every nonempty set of edges in which each vertex meets 0 or p of them."""
    out = set()
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            degrees = [sum(v in e for e in combo) for v in range(n_vertices)]
            if all(d in (0, p) for d in degrees):
                out.add(frozenset(combo))
    return out


# ---------------------------------------------------------------- root counts


def common_roots(terms_list, p: int, n: int):
    roots = []
    for point in itertools.product(range(p), repeat=n):
        if all(eval_terms(t, point) % p == 0 for t in terms_list):
            roots.append(point)
    return roots


# ----------------------------------------------------------- graphs and cycles


def first_cycle_selection(pairs):
    """First valid choice in lexicographic order, pairs pre-sorted ascending."""
    n = len(pairs)
    if n == 1:
        return None
    for choice in itertools.product(*(sorted(p) for p in pairs)):
        if all(choice[i] != choice[(i + 1) % n] for i in range(n)):
            return choice
    return None


def first_regular_mask(edges, n_vertices: int, p: int):
    """Smallest nonzero bitmask whose edges give degrees 0 or p everywhere."""
    for mask in range(1, 1 << len(edges)):
        degs = [0] * n_vertices
        for j, (u, v) in enumerate(edges):
            if mask >> j & 1:
                degs[u] += 1
                degs[v] += 1
        if all(d in (0, p) for d in degs):
            return mask
    return None


# --------------------------------------------------------------- permutations


def first_distinct_sum_perm(a, b, modulus: int):
    """First permutation (1-based positions into b) with distinct sums."""
    k = len(a)
    for perm in itertools.permutations(range(1, k + 1)):
        sums = {(a[i] + b[perm[i] - 1]) % modulus for i in range(k)}
        if len(sums) == k:
            return perm
    return None


# -------------------------------------------------------- symmetric differences


def cross_symdiffs(sets, colors):
    fams = [frozenset(s) for s in sets]
    palette = sorted(set(colors), key=repr)
    first = [f for f, c in zip(fams, colors) if c == palette[0]]
    second = [f for f, c in zip(fams, colors) if c == palette[1]]
    return {f ^ g for f in first for g in second}


# ------------------------------------------------------------ plane coverings


def plane_misses(planes, n: int):
    """(origin_free, missed): every point of {0..n}^3 but the origin tested
    against every plane a*x + b*y + c*z + d = 0, misses in grid order."""
    origin_free = all(d != 0 for (_, _, _, d) in planes)
    missed = [
        (x, y, z)
        for x, y, z in itertools.product(range(n + 1), repeat=3)
        if (x, y, z) != (0, 0, 0)
        and not any(a * x + b * y + c * z + d == 0 for (a, b, c, d) in planes)
    ]
    return origin_free, tuple(missed)


# ---------------------------------------------------------- random generators


def random_terms_zp(rng, n_vars: int, p: int, max_total, max_terms: int = 5,
                    strict: bool = False) -> dict:
    """Random sparse polynomial over Z_p as a raw terms dict.

    Total degree is capped at max_total (strictly below it when strict is
    set).  Duplicate exponent draws accumulate and zero coefficients are
    pruned, mirroring collected form; the result may be the zero polynomial.
    """
    limit = max_total - 1 if strict else max_total
    if limit < 0:
        return {}
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exps = tuple(rng.randint(0, limit) for _ in range(n_vars))
            if sum(exps) <= limit:
                break
        coeff = rng.randrange(1, p) if p > 1 else 0
        terms[exps] = (terms.get(exps, 0) + coeff) % p
    return {e: c for e, c in terms.items() if c}


def random_terms_q(rng, n_vars: int, max_total, max_terms: int = 5,
                   strict: bool = False) -> dict:
    limit = max_total - 1 if strict else max_total
    if limit < 0:
        return {}
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exps = tuple(rng.randint(0, limit) for _ in range(n_vars))
            if sum(exps) <= limit:
                break
        num = rng.choice([x for x in range(-9, 10) if x])
        coeff = Fraction(num, rng.randint(1, 9))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return {e: c for e, c in terms.items() if c}


def random_restricted_terms_zp(rng, d, p: int, extra: int = 3,
                               max_terms: int = 5) -> dict:
    """Terms where nothing but x^d dominates d coordinatewise.

    Every generated monomial is clamped strictly below d in one random
    coordinate, so its total degree may exceed sum(d) freely; the x^d term
    itself is added with a random (possibly zero) coefficient.
    """
    n_vars = len(d)
    live = [i for i in range(n_vars) if d[i] >= 1]
    assert live, "need at least one coordinate with d_i >= 1"
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        pick = rng.choice(live)
        exps = tuple(
            rng.randint(0, d[i] - 1) if i == pick else rng.randint(0, d[i] + extra)
            for i in range(n_vars)
        )
        coeff = rng.randrange(1, p)
        terms[exps] = (terms.get(exps, 0) + coeff) % p
    terms[tuple(d)] = rng.randrange(0, p)
    return {e: c for e, c in terms.items() if c}


def random_grid_sets(rng, n_vars: int, p: int, max_size: int = 4):
    """Per-coordinate subsets of Z_p, each of size 1..min(max_size, p)."""
    sets = []
    for _ in range(n_vars):
        size = rng.randint(1, min(max_size, p))
        sets.append(sorted(rng.sample(range(p), size)))
    return sets
