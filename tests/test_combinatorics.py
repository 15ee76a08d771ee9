"""Witness solvers: sumsets, zero sums, coverings, graphs, permutations."""

import itertools
import math
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from combnull import (
    BadCount,
    BadInput,
    BadLength,
    CycleLabels,
    EmptyInput,
    FieldMismatch,
    Graph,
    GridTooLarge,
    HypothesisViolated,
    MonochromaticInput,
    MultiPoly,
    NotPrime,
    OddCycle,
    PlaneSet,
    PolySystem,
    PrimeField,
    RationalField,
    RequiresDistinctSets,
    ResourceLimit,
    SizeMismatch,
    SumsetReport,
    TheoremViolation,
    cauchy_davenport_check,
    cycle_selection,
    cycle_selection_certificate,
    cycle_selection_valid,
    chevalley_g,
    common_roots,
    egz_solve,
    egz_valid,
    erdos_heilbronn_check,
    olson_lower_witness,
    olson_solve,
    olson_valid,
    parse_poly,
    plane_cover_construct,
    plane_cover_verify,
    regular_subgraph_find,
    regular_subgraph_valid,
    restricted_sumset,
    snevily_mod_n,
    snevily_solve,
    sumset,
    symdiff_check,
    vandermonde_sq_coefficient,
)
from combnull.errors import ArityMismatch
from combnull import combinatorics
from combnull.search import shuffles, sumsets, symdiff, zero_sums

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
Q = RationalField()


def _nonempty_subsets(p):
    universe = range(p)
    for r in range(1, p + 1):
        yield from itertools.combinations(universe, r)


# ---------------------------------------------------------------- value classes

# (constructor, repr) pairs; each repr is the one the frozen dataclasses these
# classes replaced printed for the same value
_VALUES = [
    (lambda: PolySystem(F5, 2, [parse_poly("x1+2*x2", F5, 2)]),
     "PolySystem(field=PrimeField(5), n_vars=2, polys=(MultiPoly(PrimeField(5), 2, 'x1 + 2*x2'),))"),
    (lambda: PolySystem(F5, 1), "PolySystem(field=PrimeField(5), n_vars=1, polys=())"),
    (lambda: SumsetReport("cauchy-davenport", (0, 1), (2,), (2, 3), 2, True),
     "SumsetReport(kind='cauchy-davenport', a_set=(0, 1), b_set=(2,), result=(2, 3), bound=2, "
     "satisfied=True, certificate=None)"),
    (lambda: cauchy_davenport_check(F5, [0, 1], [0, 3]),
     "SumsetReport(kind='cauchy-davenport', a_set=(0, 1), b_set=(0, 3), result=(0, 1, 3, 4), "
     "bound=3, satisfied=True, certificate=2)"),
    (lambda: PlaneSet([(1, 0, 0, -1), (0, 1, 0, -2)]), "PlaneSet(planes=((1, 0, 0, -1), (0, 1, 0, -2)))"),
    (lambda: plane_cover_verify(PlaneSet([(1, 0, 0, -1)]), 1),
     "PlaneCoverReport(covers=False, origin_free=True, missed=((0, 0, 1), (0, 1, 0), (0, 1, 1)))"),
    (lambda: CycleLabels([(1, 2), (Fraction(3, 4), 0)]),
     "CycleLabels(pairs=((Fraction(1, 1), Fraction(2, 1)), (Fraction(0, 1), Fraction(3, 4))))"),
    (lambda: Graph(3, [(1, 0), (2, 1)]), "Graph(n_vertices=3, edges=((0, 1), (1, 2)))"),
]


@pytest.mark.parametrize("make, shown", _VALUES, ids=[shown.split("(")[0] for _, shown in _VALUES])
def test_value_classes_behave_as_frozen_records(make, shown):
    value, twin = make(), make()
    assert repr(value) == shown
    assert value == twin and hash(value) == hash(twin) and value is not twin
    assert value != object() and not value == shown
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):  # PrimeField needs 2
        clone = pickle.loads(pickle.dumps(value, protocol))
        assert type(clone) is type(value) and clone == value and repr(clone) == shown
    for name in (*value.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, value.__slots__[0])
    assert repr(value) == shown


def test_value_classes_compare_field_by_field():
    report = SumsetReport("erdos-heilbronn", (0, 1), (0, 1), (1,), 1, True)
    assert report.certificate is None
    assert report == SumsetReport("erdos-heilbronn", (0, 1), (0, 1), (1,), 1, True, None)
    assert report != SumsetReport("erdos-heilbronn", (0, 1), (0, 1), (1,), 1, True, 4)
    assert SumsetReport("k", (), (), (), 0, True, certificate=3).certificate == 3
    assert Graph(2, [(0, 1)]) != Graph(3, [(0, 1)])


# ----------------------------------------------------------- polynomial systems


def test_poly_system_validation():
    f = parse_poly("x1 + x2", F3)
    sys_ok = PolySystem(F3, 2, [f])
    assert sys_ok.polys == (f,)
    with pytest.raises(FieldMismatch):
        PolySystem(Q, 2, [])
    with pytest.raises(FieldMismatch):
        PolySystem(F5, 2, [f])
    with pytest.raises(ArityMismatch):
        PolySystem(F3, 3, [f])
    with pytest.raises(ArityMismatch):
        PolySystem(F3, 0, [])
    with pytest.raises(ArityMismatch):
        PolySystem(F3, True, [])


def test_chevalley_g_known_values():
    # empty system: the constant 1
    empty = chevalley_g(PolySystem(F3, 2, []))
    assert empty == MultiPoly.constant(F3, 2, 1)
    # single member x1 over Z_3: x1^2 - 1 = x1^2 + 2
    g = chevalley_g(PolySystem(F3, 1, [parse_poly("x1", F3)]))
    assert g == parse_poly("x1^2 + 2", F3)


def test_chevalley_g_indicator_property():
    rng = random.Random(11)
    for p, n in [(2, 2), (3, 2), (3, 3), (5, 2)]:
        fld = PrimeField(p)
        polys = [
            MultiPoly(fld, n, oracles.random_terms_zp(rng, n, p, max_total=2))
            for _ in range(rng.randint(1, 3))
        ]
        system = PolySystem(fld, n, polys)
        g = chevalley_g(system)
        k = len(polys)
        for point in itertools.product(range(p), repeat=n):
            is_root = all(f.evaluate(point) == 0 for f in polys)
            expected = pow(-1, k, p) if is_root else 0
            assert g.evaluate(point) == expected


def test_chevalley_g_matches_schoolbook_oracle():
    # a quadratic with all ten monomials over Z_17, the benchmark's shape, and
    # systems of two or three members over small fields; g built by the
    # schoolbook product of the raw terms
    rng = random.Random(17)
    dense = {e: rng.randrange(1, 17) for e in itertools.product(range(3), repeat=3) if sum(e) <= 2}
    systems = [(17, 3, [dense])] + [
        (p, n, [oracles.random_terms_zp(rng, n, p, max_total=2, max_terms=10) for _ in range(members)])
        for p, n, members in [(5, 3, 2), (3, 3, 3), (2, 4, 3)]
    ]
    for p, n, members in systems:
        fld = PrimeField(p)
        polys = [MultiPoly(fld, n, terms) for terms in members]
        want = {(0,) * n: 1}
        for f in polys:
            power = {(0,) * n: 1}
            for _ in range(p - 1):
                power = oracles.mul_terms(power, f.terms, p)
            factor = {**power, (0,) * n: (power.get((0,) * n, 0) - 1) % p}
            want = oracles.mul_terms(want, {e: c for e, c in factor.items() if c}, p)
        assert chevalley_g(PolySystem(fld, n, polys)).terms == want


def test_chevalley_g_range_is_capped():
    # g of x1^2 + x2 over Z_3 ranges over (1 + 2*2) * (1 + 2*1) = 15 vectors
    system = PolySystem(F3, 2, [parse_poly("x1^2 + x2", F3)])
    assert chevalley_g(system, max_points=15) == chevalley_g(system)
    with pytest.raises(GridTooLarge):
        chevalley_g(system, max_points=14)
    # the range is counted before any multiplication: 61^3 > 1000 at once
    f = parse_poly("x1^2+x2^2+x3^2+x1*x2+x2*x3+x1+x3+1", PrimeField(31))
    started = time.monotonic()
    with pytest.raises(GridTooLarge):
        chevalley_g(PolySystem(PrimeField(31), 3, [f]), max_points=1000)
    assert time.monotonic() - started < 0.1


def test_common_roots_known_values():
    # x1*x2 - 1 over Z_3: the two units paired with their inverses
    f = parse_poly("x1*x2 + 2", F3)
    roots = common_roots(PolySystem(F3, 2, [f]))
    assert roots == [(1, 1), (2, 2)]
    # x1 + x2 + x3 over Z_2: degree 1 < 3 so the count is even
    g = parse_poly("x1 + x2 + x3", F2)
    roots = common_roots(PolySystem(F2, 3, [g]))
    assert len(roots) == 4
    assert all(sum(r) % 2 == 0 for r in roots)


def test_common_roots_excludes_zero_polys_from_degree_sum():
    # [x1*x2, 0] over Z_2 has 3 roots; the zero member must not drag the
    # degree sum below n and trigger a bogus divisibility complaint
    zero = MultiPoly(F2, 2, {})
    f = parse_poly("x1*x2", F2)
    roots = common_roots(PolySystem(F2, 2, [f, zero]))
    assert roots == [(0, 0), (0, 1), (1, 0)]


def test_degree_sum_skips_zero_members():
    zero = MultiPoly(F2, 2, {})
    f = parse_poly("x1*x2 + x1", F2)
    assert PolySystem(F2, 2, [f, zero, f]).degree_sum() == 4
    assert PolySystem(F2, 2, [zero]).degree_sum() == 0
    assert PolySystem(F2, 2).degree_sum() == 0


def test_common_roots_matches_oracle():
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        fld = PrimeField(p)
        terms_list = [
            oracles.random_terms_zp(rng, n, p, max_total=3)
            for _ in range(rng.randint(1, 2))
        ]
        system = PolySystem(fld, n, [MultiPoly(fld, n, t) for t in terms_list])
        roots = common_roots(system)
        assert roots == oracles.common_roots(terms_list, p, n)
        degree_sum = sum(
            max(sum(e) for e in t) for t in terms_list if t
        ) if any(terms_list) else 0
        if degree_sum < n:
            assert len(roots) % p == 0


def _suffix_length(p, n):
    """The s that common_roots splits off: largest with p^s <= 64, capped at n."""
    s = 0
    while s < n and p ** (s + 1) <= 64:
        s += 1
    return s


@st.composite
def _root_systems(draw):
    """(p, n, member term dicts) with p^n at most 20,000 points; members are
    random, zero, a nonzero constant, or only in the suffix or prefix
    variables that the slice search splits at."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]), label="p")
    n = draw(st.integers(1, max(k for k in range(1, 6) if p**k <= 20_000)), label="n")
    cut = n - _suffix_length(p, n)
    members = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "constant", "suffix", "prefix"]),
                              max_size=3), label="kinds"):
        if kind == "zero":
            members.append({})
            continue
        if kind == "constant":
            members.append({(0,) * n: draw(st.integers(1, p - 1))})
            continue
        live = {"random": range(n), "suffix": range(cut, n), "prefix": range(cut)}[kind]
        exps = st.tuples(*(st.integers(0, 3) if i in live else st.just(0) for i in range(n)))
        terms = {}
        for e, c in draw(st.lists(st.tuples(exps, st.integers(0, p - 1)), min_size=1, max_size=5)):
            terms[e] = (terms.get(e, 0) + c) % p
        members.append({e: c for e, c in terms.items() if c})
    return p, n, members


@given(_root_systems())
@example((2, 3, [{(1, 0, 0): 1, (0, 1, 1): 1}]))  # n <= s: one empty prefix
@example((7, 5, [{(1, 0, 0, 0, 0): 1, (0, 0, 0, 2, 0): 3}, {(0, 0, 0, 1, 1): 1}, {}]))  # n > s
@settings(max_examples=60)
def test_common_roots_suffix_slices_match_oracle(system):
    p, n, members = system
    fld = PrimeField(p)
    roots = common_roots(PolySystem(fld, n, [MultiPoly(fld, n, t) for t in members]))
    assert roots == oracles.common_roots(members, p, n)


def test_common_roots_past_the_table_bound():
    # p > 64: no slices (s = 0), every point is tested on its own
    f101 = PrimeField(101)
    circle = {(2, 0): 1, (0, 2): 1, (0, 0): 100}
    line = {(1, 0): 1, (0, 1): 3}
    for members in ([circle], [circle, line], [{}], [line, {}]):
        roots = common_roots(PolySystem(f101, 2, [MultiPoly(f101, 2, t) for t in members]))
        assert roots == oracles.common_roots(members, 101, 2)
    f1009 = PrimeField(1009)
    square = MultiPoly(f1009, 1, {(2,): 1, (0,): 1005})
    assert common_roots(PolySystem(f1009, 1, [square])) == [(2,), (1007,)]
    assert common_roots(PolySystem(f1009, 1, [MultiPoly(f1009, 1, {})])) == [
        (x,) for x in range(1009)]


def test_common_roots_evaluates_only_prefix_dependent_coefficients(monkeypatch):
    # x1 + x2^2 + 3*x3 over Z_7^3 splits at s = 2 into the coefficients x1,
    # 1 and 3 of 1, x2^2 and x3.  The constants stand in the slice key as
    # values, so each of the 7 prefixes evaluates x1 alone
    calls = []
    evaluate = MultiPoly.evaluate

    def counted(self, point):
        calls.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(MultiPoly, "evaluate", counted)
    f = parse_poly("x1 + x2^2 + 3*x3", F7, 3)
    assert common_roots(PolySystem(F7, 3, [f])) == oracles.common_roots([f.terms], 7, 3)
    assert calls == [(x,) for x in range(7)]


def test_common_roots_past_the_slice_cache_bound(monkeypatch):
    # a full cache stops growing and later slices are recomputed, with the
    # same roots: Z_7^5 with s = 2 has 343 prefixes and many distinct slices
    rng = random.Random(5)
    members = [oracles.random_terms_zp(rng, 5, 7, max_total=3, max_terms=8) for _ in range(2)]
    system = PolySystem(F7, 5, [MultiPoly(F7, 5, t) for t in members])
    want = common_roots(system)
    assert want == oracles.common_roots(members, 7, 5)
    monkeypatch.setattr(combinatorics, "_SLICE_CACHE_ENTRIES", 3)
    assert common_roots(system) == want


def test_common_roots_huge_suffix_exponents():
    # x1^(10^9) - x2^(10^9 + 2) over Z_7: the suffix monomials are reduced
    # mod p as they are built, never as integers of 10^9 digits
    e = 10**9
    f = MultiPoly(F7, 2, {(e, 0): 1, (0, e + 2): 6})
    started = time.monotonic()
    roots = common_roots(PolySystem(F7, 2, [f]))
    assert time.monotonic() - started < 1.0
    assert roots == [(x, y) for x in range(7) for y in range(7)
                     if (pow(x, e, 7) - pow(y, e + 2, 7)) % 7 == 0]


def test_common_roots_dropped_root_trips_chevalley_warning(monkeypatch):
    # degree 1 < n, so p divides the root count.  A mask step that loses one
    # root must raise, on one empty prefix (Z_2^3, s = 3) and on the prefix
    # path (Z_3^4, s = 3), where each prefix has its own slice values
    real = combinatorics._slice_roots
    seen = []

    def lossy(values, columns, p):
        bits = real(values, columns, p)
        if bits and not seen:
            seen.append(values)
            return bits & (bits - 1)
        return bits

    monkeypatch.setattr(combinatorics, "_slice_roots", lossy)
    for p, n in ((2, 3), (3, 4)):
        fld = PrimeField(p)
        seen.clear()
        with pytest.raises(TheoremViolation, match="Chevalley-Warning"):
            common_roots(PolySystem(fld, n, [parse_poly("x1 + x2 + x3", fld, n)]))
        assert seen


def test_common_roots_dropped_roots_trip_warnings_second_theorem(monkeypatch):
    # x1 + x2 + x3 has degree 1 < n and p^(n-1) common roots, exactly the
    # bound of Warning's second theorem.  A mask step that loses p roots of
    # one slice keeps the count divisible by p, so only that bound catches
    # it: on one empty prefix (Z_2^3, s = 3) and on the prefix path (Z_3^4,
    # s = 3), where each prefix has its own slice values
    real = combinatorics._slice_roots
    seen = []

    def lossy(values, columns, p):
        bits = real(values, columns, p)
        if bits.bit_count() >= p and not seen:
            seen.append(values)
            for _ in range(p):
                bits &= bits - 1
        return bits

    for p, n in ((2, 3), (3, 4)):
        fld = PrimeField(p)
        system = PolySystem(fld, n, [parse_poly("x1 + x2 + x3", fld, n)])
        assert len(common_roots(system)) == p ** (n - 1)
        with monkeypatch.context() as patched:
            patched.setattr(combinatorics, "_slice_roots", lossy)
            seen.clear()
            with pytest.raises(TheoremViolation, match="Warning's second theorem"):
                common_roots(system)
            assert seen


@st.composite
def _low_degree_systems(draw):
    """(p, n, member term dicts) over Z_p^n, p <= 11 and n <= 3, each member
    of total degree at most 2, so that the degree sum often falls below n."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]), label="p")
    n = draw(st.integers(1, 3), label="n")
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    members = []
    for terms in draw(st.lists(st.lists(st.tuples(exps, st.integers(0, p - 1)), max_size=4),
                               max_size=2), label="members"):
        merged = {}
        for e, c in terms:
            merged[e] = (merged.get(e, 0) + c) % p
        members.append({e: c for e, c in merged.items() if c})
    return p, n, members


@given(_low_degree_systems())
@example((3, 3, [{(1, 0, 0): 1, (0, 1, 0): 1}, {(0, 0, 1): 2}]))  # d = 2: p^1 roots
@example((5, 3, [{(1, 1, 0): 1}]))  # d = 2: x1*x2 has 2p - 1 roots per x3
@example((2, 3, [{}]))  # d = 0: the zero member is no constraint
@settings(derandomize=True, max_examples=200)
def test_common_roots_meet_warnings_second_bound(system):
    # with a common root and degree sum d < n there are at least p^(n-d)
    # roots; the bound is pinned on the oracle's roots, which common_roots
    # lists exactly
    p, n, members = system
    fld = PrimeField(p)
    polys = PolySystem(fld, n, [MultiPoly(fld, n, t) for t in members])
    want = oracles.common_roots(members, p, n)
    assert common_roots(polys) == want
    d = polys.degree_sum()
    if want and d < n:
        assert len(want) >= p ** (n - d)


@st.composite
def _ax_katz_systems(draw):
    """(p, n, member term dicts) over Z_p^n with up to 6 variables and one or
    two members of degree at most 2, so that n - d often exceeds the largest
    degree and mu = ceil((n - d) / D) reaches 2 or 3."""
    p = draw(st.sampled_from([2, 3, 5]), label="p")
    n = draw(st.integers(1, {2: 6, 3: 5, 5: 3}[p]), label="n")
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    members = [{e: c % p for e, c in terms if c % p}
               for terms in draw(st.lists(st.lists(st.tuples(exps, st.integers(1, p - 1)),
                                                   max_size=4, unique_by=lambda t: t[0]),
                                          min_size=1, max_size=2), label="members")]
    return p, n, members


@given(_ax_katz_systems())
@example((2, 5, [{(1, 1, 0, 0, 0): 1}]))  # d = D = 2: mu = 2, 24 roots
@example((2, 6, [{(1, 0, 0, 0, 0, 0): 1}]))  # d = D = 1: mu = 5, 32 roots
@example((3, 3, [{(0, 0, 0): 2}]))  # a nonzero constant: no roots, nothing to divide
@settings(derandomize=True, max_examples=150)
def test_common_roots_meet_ax_katz_divisibility(system):
    # with degree sum d < n and largest member degree D, p^ceil((n-d)/D)
    # divides the root count (Ax-Katz); pinned on the oracle's roots, which
    # common_roots lists exactly
    p, n, members = system
    fld = PrimeField(p)
    polys = PolySystem(fld, n, [MultiPoly(fld, n, t) for t in members])
    want = oracles.common_roots(members, p, n)
    assert common_roots(polys) == want
    d = polys.degree_sum()
    top = max((f.total_degree() for f in polys.polys if f.terms), default=0)
    if d < n and top:
        assert len(want) % p ** -(-(n - d) // top) == 0


def test_common_roots_dropped_roots_trip_ax_katz(monkeypatch):
    # x1*x2 has degree 2 and 5 - 2 = 3 > 2, so mu = 2: over Z_2^5 its 24
    # roots are divisible by 4 and over Z_3^5 its 135 by 9.  A mask step that
    # loses p roots of one slice keeps the count divisible by p and above
    # p^(n-d), so only Ax-Katz catches it: on one empty prefix (Z_2^5, s = 5)
    # and on the prefix path (Z_3^5, s = 3)
    real = combinatorics._slice_roots
    seen = []

    def lossy(values, columns, p):
        bits = real(values, columns, p)
        if bits.bit_count() >= p and not seen:
            seen.append(values)
            for _ in range(p):
                bits &= bits - 1
        return bits

    for p, count in ((2, 24), (3, 135)):
        fld = PrimeField(p)
        system = PolySystem(fld, 5, [parse_poly("x1*x2", fld, 5)])
        assert len(common_roots(system)) == count
        with monkeypatch.context() as patched:
            patched.setattr(combinatorics, "_slice_roots", lossy)
            seen.clear()
            with pytest.raises(TheoremViolation, match="Ax-Katz"):
                common_roots(system)
            assert seen


def test_type_hints_of_every_public_function_resolve():
    # combinatorics names two value classes of the families in its
    # annotations, as attributes of the search package, which imports a
    # family when its hints are resolved, not when combinatorics loads; so
    # every hint of a public function or method resolves
    code = """
import inspect, sys, typing
import combnull, combnull.combinatorics
assert not [m for m in sys.modules if m.startswith("combnull.search.")]
hints = typing.get_type_hints(combnull.combinatorics.cauchy_davenport_check)
assert hints["return"] is combnull.SumsetReport
hints = typing.get_type_hints(combnull.combinatorics.cycle_selection_certificate)
assert hints["labels"] is combnull.CycleLabels
assert not hasattr(combnull.search, "no_such_family")
checked = 0
for name in combnull.__all__:
    value = getattr(combnull, name)
    members = vars(value).values() if inspect.isclass(value) else [value]
    for function in filter(inspect.isfunction, members):
        typing.get_type_hints(function)
        checked += 1
print(checked)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 40


def test_common_roots_grid_cap():
    system = PolySystem(F3, 3, [parse_poly("x1", F3, 3)])
    with pytest.raises(GridTooLarge):
        common_roots(system, max_points=10)
    # Z_(2^31 - 1)^2 is refused from its size alone, before any coordinate
    # range is enumerated or stored
    big = PrimeField(2**31 - 1)
    system = PolySystem(big, 2, [parse_poly("x1 + x2", big, 2)])
    start = time.perf_counter()
    with pytest.raises(GridTooLarge):
        common_roots(system)
    assert time.perf_counter() - start < 1.0


# -------------------------------------------------------------------- sumsets


def test_sumset_known_values():
    assert sumset(F5, [0, 1], [0, 1]) == (0, 1, 2)
    assert sumset(F5, [6, 1], [0]) == (1,)  # reduced mod 5 and deduplicated
    assert restricted_sumset(F5, [0, 1, 2], [0, 1, 2]) == (1, 2, 3)
    # a singleton restricted to x != y has nothing left
    assert restricted_sumset(F5, [2], [2]) == ()


def test_sumset_validation():
    with pytest.raises(EmptyInput):
        sumset(F5, [], [0])
    with pytest.raises(EmptyInput):
        restricted_sumset(F5, [0], [])
    with pytest.raises(FieldMismatch):
        sumset(Q, [0], [1])


@given(st.integers(0, 120))
def test_sumset_matches_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5, 7, 11, 13])
    a = rng.sample(range(p), rng.randint(1, p))
    b = rng.sample(range(p), rng.randint(1, p))
    assert list(sumset(PrimeField(p), a, b)) == oracles.sumset(a, b, p)
    assert list(restricted_sumset(PrimeField(p), a, b)) == oracles.restricted_sumset(
        a, b, p
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_sumset_routes_match_pair_oracle(data):
    # each example lands on a drawn side of the rotations guard p <= k |A| |B|
    # (Z_2 and Z_3 have only the rotations side); the inputs are unreduced,
    # with repeated residues, and oracles.sumset is the pair route
    k = sumsets._ROTATION_BITS_PER_PAIR
    p = data.draw(st.sampled_from([2, 3, 5, 7, 101, 997, 10007, 100003]), "p")
    shapes = ["sets", "A = B", "singleton"] + (["all of Z_p"] if p <= 10007 else [])
    shape = data.draw(st.sampled_from(shapes), "shape")
    rotations = p <= k or shape == "all of Z_p" or data.draw(st.booleans(), "rotations")
    if shape == "all of Z_p":
        na, nb = p, data.draw(st.integers(1, min(p, 20)), "|B|")
    elif shape == "A = B":
        edge = math.isqrt((p - 1) // k)  # the largest n with k n^2 < p
        na = nb = data.draw(st.integers(edge + 1, min(p, edge + 40)) if rotations
                            else st.integers(1, edge), "|A|")
    else:
        na = 1 if shape == "singleton" else data.draw(
            st.integers(1, min(p, 300) if rotations else min(200, (p - 1) // k)), "|A|")
        least = -(-p // (k * na))  # the smallest |B| with p <= k |A| |B|
        nb = data.draw(st.integers(least, min(p, least + 40)) if rotations
                       else st.integers(1, min(200, least - 1)), "|B|")
    assert (p <= k * na * nb) == rotations
    rng = random.Random(data.draw(st.integers(0, 2**32), "seed"))
    a_res = rng.sample(range(p), na)
    b_res = rng.sample(a_res, nb) if shape == "A = B" else rng.sample(range(p), nb)

    def unreduced(residues):
        out = [x + p * rng.randrange(-2, 3) for x in residues]
        out += [x + p * rng.randrange(-2, 3) for x in rng.sample(residues, min(3, len(residues)))]
        rng.shuffle(out)
        return out

    a, b = unreduced(a_res), unreduced(b_res)
    fld = PrimeField(p)
    assert sumset(fld, a, b) == tuple(oracles.sumset(a, b, p))
    assert restricted_sumset(fld, a, b) == tuple(oracles.restricted_sumset(a, b, p))


def test_sumset_rotations_guard(monkeypatch):
    # the guard itself, rotations while p <= 3 |A| |B|: at p = 61, 3 * 3 * 7 =
    # 63 takes the rotations and 3 * 4 * 5 = 60 the pair set; at p = 3 two
    # singletons sit on the boundary.  Both routes give the pair oracle's answer
    calls = []
    rotate = sumsets._sumset_by_rotations
    monkeypatch.setattr(sumsets, "_sumset_by_rotations",
                        lambda *args: calls.append(args) or rotate(*args))
    for p, a, b, routed in [(61, [0, 5, 60], [1, 2, 3, 5, 8, 13, 21], True),
                            (61, [0, 5, 60, 61 + 7], [7, 9, 30, 40, 59], False),
                            (3, [1], [4], True)]:
        calls.clear()
        fld = PrimeField(p)
        assert list(sumset(fld, a, b)) == oracles.sumset(a, b, p)
        assert list(restricted_sumset(fld, a, b)) == oracles.restricted_sumset(a, b, p)
        assert len(calls) == (2 if routed else 0)


def test_sumset_over_a_huge_prime_builds_no_mask():
    # a p-bit mask at p = 10^9 + 7 would be a 125 MB int; the pair set of
    # two small sets takes microseconds and a few hundred bytes
    fld = PrimeField(1_000_000_007)
    tracemalloc.start()
    try:
        started = time.perf_counter()
        plain = sumset(fld, [1, 2, 3], [4, 5, -1])
        restricted = restricted_sumset(fld, [1, 2, 3], [3, 2, 10**9 + 6])
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plain == (0, 1, 2, 5, 6, 7, 8)
    assert restricted == (0, 1, 2, 3, 4, 5)
    assert elapsed < 0.1
    assert peak < 1 << 20


def test_sumset_checks_coerce_each_set_once(monkeypatch):
    seen = []
    coerce = sumsets._as_residue_set
    # cauchy_davenport_check and erdos_heilbronn_check both call it from sumsets
    monkeypatch.setattr(sumsets, "_as_residue_set",
                        lambda field, elements, name: seen.append(name) or coerce(field, elements, name))
    cauchy_davenport_check(F7, [0, 1, 2], [0, 3])
    assert seen == ["A", "B"]
    seen.clear()
    erdos_heilbronn_check(F7, [0, 1, 2])
    assert seen == ["A"]
    seen.clear()
    erdos_heilbronn_check(F7, [0, 1, 2], [0, 3])
    assert seen == ["A", "B"]


def test_cauchy_davenport_known_report():
    report = cauchy_davenport_check(F7, [0, 1, 2], [0, 3])
    assert report.kind == "cauchy-davenport"
    assert report.a_set == (0, 1, 2)
    assert report.b_set == (0, 3)
    assert report.result == (0, 1, 2, 3, 4, 5)
    assert report.bound == 4
    assert report.satisfied
    assert report.certificate == math.comb(3, 2) % 7


def test_cauchy_davenport_certificate_skipped_beyond_field():
    # |A| + |B| - 1 > p: the bound clamps to p and no certificate applies
    report = cauchy_davenport_check(F5, range(5), [0, 1])
    assert report.bound == 5
    assert report.result == (0, 1, 2, 3, 4)
    assert report.certificate is None


def test_cauchy_davenport_exhaustive_tiny():
    for p in (2, 3):
        fld = PrimeField(p)
        for a in _nonempty_subsets(p):
            for b in _nonempty_subsets(p):
                report = cauchy_davenport_check(fld, a, b)
                assert list(report.result) == oracles.sumset(a, b, p)
                assert len(report.result) >= min(len(a) + len(b) - 1, p)
                if len(a) + len(b) - 1 <= p:
                    m = len(a) + len(b) - 2
                    assert report.certificate == math.comb(m, len(a) - 1) % p
                    assert report.certificate != 0
                else:
                    assert report.certificate is None


@given(st.integers(0, 100))
def test_cauchy_davenport_random_larger_fields(seed):
    rng = random.Random(seed)
    p = rng.choice([5, 7, 11])
    fld = PrimeField(p)
    a = rng.sample(range(p), rng.randint(1, p))
    b = rng.sample(range(p), rng.randint(1, p))
    report = cauchy_davenport_check(fld, a, b)
    assert list(report.result) == oracles.sumset(a, b, p)
    assert report.satisfied


def test_cauchy_davenport_work_cap_boundary(monkeypatch):
    # |A| = 6 and |B| = 7: a product of 11 factors with 78 terms, over 42 points
    a, b, field = range(6), range(0, 14, 2), PrimeField(101)
    work = combinatorics._cd_certificate_work(6, 7)
    assert work == 78 * (42 + combinatorics._CD_PRODUCT_STEPS * 11)
    monkeypatch.setattr(combinatorics, "_CD_WORK_CAP", work)
    assert cauchy_davenport_check(field, a, b).certificate == math.comb(11, 5) % 101
    monkeypatch.setattr(combinatorics, "_CD_WORK_CAP", work - 1)
    with pytest.raises(ResourceLimit, match=f"got {work} for [|]A[|] = 6, [|]B[|] = 7"):
        cauchy_davenport_check(field, a, b)


def test_cauchy_davenport_work_cap_placement():
    # 120 x 120 over Z_1009 (the CI's certificate) is within the cap, a
    # square of side 168 is past it and refused before its product is built
    work, cap = combinatorics._cd_certificate_work, combinatorics._CD_WORK_CAP
    assert work(120, 120) <= work(167, 167) <= cap < work(168, 168)
    started = time.perf_counter()
    with pytest.raises(ResourceLimit):
        cauchy_davenport_check(PrimeField(1009), range(168), range(168))
    assert time.perf_counter() - started < 0.5
    # the benchmark's sides are at most 20
    assert work(20, 20) * 1000 < cap


def test_erdos_heilbronn_known_reports():
    self_report = erdos_heilbronn_check(F5, [0, 1, 2])
    assert self_report.kind == "erdos-heilbronn-self"
    assert self_report.result == (1, 2, 3)
    assert self_report.bound == 3
    assert self_report.certificate == (math.comb(2, 0) - math.comb(2, 1)) % 5
    pair_report = erdos_heilbronn_check(F7, [0, 1, 2], [0, 3])
    assert pair_report.kind == "erdos-heilbronn"
    assert pair_report.result == (1, 2, 3, 4, 5)
    assert pair_report.bound == 3
    assert pair_report.certificate == (math.comb(2, 1) - math.comb(2, 2)) % 7


def test_erdos_heilbronn_singleton_and_distinctness():
    report = erdos_heilbronn_check(F5, [3])
    assert report.result == ()
    assert report.bound == 0
    assert report.satisfied
    assert report.certificate is None
    with pytest.raises(RequiresDistinctSets):
        erdos_heilbronn_check(F5, [0, 1], [5, 6])


def test_erdos_heilbronn_exhaustive_tiny():
    for p in (2, 3, 5):
        fld = PrimeField(p)
        subsets = list(_nonempty_subsets(p))
        for a in subsets:
            report = erdos_heilbronn_check(fld, a)
            assert list(report.result) == oracles.restricted_sumset(a, a, p)
            assert len(report.result) >= min(2 * len(a) - 3, p)
        for a in subsets:
            for b in subsets:
                if a == b:
                    continue
                report = erdos_heilbronn_check(fld, a, b)
                assert list(report.result) == oracles.restricted_sumset(a, b, p)
                assert len(report.result) >= min(len(a) + len(b) - 2, p)
                if len(a) != len(b) and 3 <= len(a) + len(b) <= p + 2:
                    assert report.certificate is not None
                    assert report.certificate != 0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_erdos_heilbronn_forms_agree(data):
    # A +' A = (A minus min A) +' A, so the one-set report carries the
    # two-set report's sumset, bound and certificate; |A| is drawn on either
    # side of the rotations guard p <= k |A|^2 where Z_p has room for both
    k = sumsets._ROTATION_BITS_PER_PAIR
    p = data.draw(st.sampled_from([2, 3, 5, 7, 13, 101, 997]), "p")
    edge = math.isqrt((p - 1) // k)  # the largest n with k n^2 < p
    if edge >= 2 and data.draw(st.booleans(), "pair route"):
        n = data.draw(st.integers(2, edge), "|A|")
    else:
        n = data.draw(st.integers(max(2, edge + 1), min(p, edge + 60)), "|A|")
    rng = random.Random(data.draw(st.integers(0, 2**32), "seed"))
    a = rng.sample(range(p), n)
    fld = PrimeField(p)
    one = erdos_heilbronn_check(fld, a)
    two = erdos_heilbronn_check(fld, sorted(a)[1:], a)
    assert list(one.result) == oracles.restricted_sumset(a, a, p) == list(two.result)
    assert (one.bound, one.certificate) == (two.bound, two.certificate)
    assert (one.kind, one.a_set, one.b_set) == ("erdos-heilbronn-self", two.b_set, two.b_set)


# ------------------------------------------------------------------- zero sums


def test_egz_known_witnesses():
    assert egz_solve([0, 0, 1], 2) == (0, 1)
    assert egz_solve([0, 1, 2, 4, 5], 3) == (0, 1, 2)


def test_egz_validation():
    with pytest.raises(BadLength):
        egz_solve([0, 1, 2], 3)
    with pytest.raises(NotPrime):
        egz_solve([0] * 7, 4)


@given(st.integers(0, 150))
def test_egz_matches_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 2, 3, 3, 5])
    nums = [rng.randrange(-10, 30) for _ in range(2 * p - 1)]
    chosen = egz_solve(nums, p)
    assert chosen == oracles.egz_first(nums, p)
    assert len(chosen) == p
    assert list(chosen) == sorted(set(chosen))
    assert sum(nums[i] for i in chosen) % p == 0


def test_egz_larger_prime():
    rng = random.Random(7)
    for _ in range(3):
        nums = [rng.randrange(50) for _ in range(13)]
        chosen = egz_solve(nums, 7)
        assert chosen == oracles.egz_first(nums, 7)


_PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@given(st.integers(0, 10**6))
def test_egz_matches_table_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice(_PRIMES_TO_31)
    nums = [rng.randrange(-3 * p, 3 * p) for _ in range(2 * p - 1)]
    assert egz_solve(nums, p) == oracles.egz_table(nums, p)


@given(st.integers(0, 10**6))
def test_olson_matches_reach_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5, 7])
    k = rng.randint(1, 4)
    m = rng.randint(1, k * (p - 1) + 3)
    zero_bias = rng.random()  # sparse families make long witnesses
    vectors = [tuple(0 if rng.random() < zero_bias else rng.randrange(-p, 2 * p)
                     for _ in range(k)) for _ in range(m)]
    assert olson_solve(vectors, p, k) == oracles.zero_sum_reach(vectors, p, k)


@given(st.integers(0, 10**6))
def test_egz_is_olson_over_count_and_residue(seed):
    rng = random.Random(seed)
    p = rng.choice(_PRIMES_TO_31)
    nums = [rng.randrange(-3 * p, 3 * p) for _ in range(2 * p - 1)]
    assert egz_solve(nums, p) == olson_solve([(1, x) for x in nums], p, 2)


def test_egz_state_cap():
    assert len(egz_solve(list(range(2 * 31 - 1)), 31)) == 31
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):
        egz_solve([1] * (2 * 1031 - 1), 1031)  # 1031^2 states > 2^20
    assert time.perf_counter() - start < 1


def test_zero_sum_search_bounds_the_memory_of_its_sets(monkeypatch):
    rng = random.Random(5)
    vectors = [(rng.randrange(1021), rng.randrange(1021)) for _ in range(2100)]
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):  # 2,101 sets of 1021^2 bits > 2^31
        olson_solve(vectors, 1021)
    assert time.perf_counter() - start < 1

    class Searched(Exception):
        pass

    def no_search(*args):
        raise Searched

    monkeypatch.setattr(zero_sums, "_PackedStates", no_search)
    with pytest.raises(ResourceLimit):
        olson_solve(vectors, 1021)
    with pytest.raises(Searched):  # EGZ at p = 1021: 2,042 sets of 1021^2 bits
        egz_solve([1] * (2 * 1021 - 1), 1021)
    with pytest.raises(Searched):  # 2,048 sets of 2^20 bits are exactly 2^31
        olson_solve([(1,) * 20] * 2047, 2)
    with pytest.raises(ResourceLimit):
        olson_solve([(1,) * 20] * 2048, 2)


def test_olson_known_witnesses():
    assert olson_solve([(1,), (1,)], 2) == (0, 1)
    assert olson_solve([(1,), (1,), (1,)], 3) == (0, 1, 2)
    assert olson_solve([(1, 0), (0, 1)], 2) is None
    assert olson_solve([], 3) is None


def test_olson_validation():
    with pytest.raises(NotPrime):
        olson_solve([(1,)], 6)
    with pytest.raises(SizeMismatch):
        olson_solve([(1, 0), (1,)], 2)
    with pytest.raises(SizeMismatch):
        olson_solve([(1, 0)], 2, k=1)
    with pytest.raises(BadInput):
        olson_solve([()], 2, k=0)
    with pytest.raises(ResourceLimit):
        olson_solve([(0,) * 21], 2)


@given(st.integers(0, 150))
def test_olson_matches_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    k = rng.randint(1, 3)
    m = rng.randint(1, 8)
    vectors = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(m)]
    expected = oracles.lex_min_zero_sum(vectors, p, k)
    got = olson_solve(vectors, p)
    assert got == expected
    if got is not None:
        sums = [sum(vectors[i][j] for i in got) % p for j in range(k)]
        assert sums == [0] * k


def test_olson_threshold_always_finds_witness():
    rng = random.Random(31)
    for p, k in [(2, 1), (2, 3), (3, 2), (5, 1), (5, 2), (3, 3)]:
        m = k * (p - 1) + 1
        for _ in range(5):
            vectors = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(m)]
            got = olson_solve(vectors, p)
            assert got is not None
            sums = [sum(vectors[i][j] for i in got) % p for j in range(k)]
            assert sums == [0] * k


def test_olson_lower_witness_is_zero_sum_free():
    assert olson_lower_witness(1, 3) == ((1,), (1,))
    assert olson_lower_witness(2, 2) == ((1, 0), (0, 1))
    for k, p in [(1, 2), (1, 5), (2, 3), (3, 2), (2, 5)]:
        witness = olson_lower_witness(k, p)
        assert len(witness) == k * (p - 1)
        assert oracles.zero_sum_subsets(witness, p, k) == []
        assert olson_solve(witness, p) is None
    with pytest.raises(NotPrime):
        olson_lower_witness(2, 6)
    with pytest.raises(BadInput):
        olson_lower_witness(0, 3)
    with pytest.raises(BadInput):
        olson_lower_witness(True, 3)


def test_olson_lower_witness_counts_its_entries_against_the_grid_cap():
    start = time.perf_counter()
    with pytest.raises(GridTooLarge):
        olson_lower_witness(1, 1_000_000_007)
    assert time.perf_counter() - start < 0.5
    assert len(olson_lower_witness(2, 3, max_points=8)) == 4  # 4 vectors of length 2
    with pytest.raises(GridTooLarge):
        olson_lower_witness(2, 3, max_points=7)
    with pytest.raises(GridTooLarge):  # the count comes before the prime check
        olson_lower_witness(2, 6, max_points=7)


# ------------------------------------------------------------ plane coverings


def test_plane_construct_known_family():
    family = plane_cover_construct(1)
    assert family.planes == ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))


def test_plane_construct_covers_for_small_n():
    for n in range(1, 5):
        family = plane_cover_construct(n)
        assert len(family) == 3 * n
        report = plane_cover_verify(family, n)
        assert report.covers
        assert report.origin_free
        assert report.missed == ()


def test_plane_short_families_miss_points():
    # the empty family misses everything, in particular (0, 0, 1)
    report = plane_cover_verify(PlaneSet([]), 1)
    assert not report.covers
    assert report.origin_free  # vacuously: no plane passes the origin
    assert (0, 0, 1) in report.missed
    # dropping any single plane from the construction leaves a hole
    for n in (1, 2, 3):
        full = plane_cover_construct(n).planes
        for skip in range(len(full)):
            trimmed = PlaneSet(full[:skip] + full[skip + 1:])
            report = plane_cover_verify(trimmed, n)
            assert not report.covers
            assert report.missed


def test_plane_cover_through_origin_may_be_small():
    # x = 0 and x = 1 cover all of {0,1}^3, but x = 0 passes the origin,
    # so two planes do not contradict the 3n lower bound
    family = PlaneSet([(1, 0, 0, 0), (1, 0, 0, -1)])
    report = plane_cover_verify(family, 1)
    assert report.covers
    assert not report.origin_free


@st.composite
def _plane_families(draw):
    """n in 1..6 and planes with coefficients in -3..3, c = 0 and b = c = 0
    among them, and d anywhere from far below to far above the grid, so that
    z may be a non-integer or fall off the cube."""
    n = draw(st.integers(1, 6))
    coeff = st.integers(-3, 3)
    normal = st.one_of(
        st.tuples(coeff, coeff, coeff),
        st.tuples(coeff, coeff, st.just(0)),
        st.tuples(coeff, st.just(0), st.just(0)),
    ).filter(any)
    plane = st.tuples(normal, st.integers(-9 * n - 3, 9 * n + 3)).map(lambda t: t[0] + (t[1],))
    return n, draw(st.lists(plane, max_size=3 * n + 1))


@given(_plane_families())
def test_plane_cover_verify_matches_point_scan(family):
    n, planes = family
    report = plane_cover_verify(PlaneSet(planes), n)
    origin_free, missed = oracles.plane_misses(planes, n)
    assert report.origin_free == origin_free
    assert report.missed == missed  # in grid order
    assert report.covers == (not missed)


def test_plane_validation():
    with pytest.raises(BadInput):
        PlaneSet([(0, 0, 0, 1)])
    with pytest.raises(BadInput):
        PlaneSet([(1, 0, 0)])
    with pytest.raises(BadInput):
        PlaneSet([(1, 0, 0, True)])
    with pytest.raises(BadInput):
        plane_cover_construct(0)
    with pytest.raises(BadInput):
        plane_cover_construct(True)
    with pytest.raises(BadInput):
        plane_cover_verify(PlaneSet([]), 0)


def test_plane_cover_construct_counts_the_cube_against_the_grid_cap():
    start = time.perf_counter()
    with pytest.raises(GridTooLarge):
        plane_cover_construct(10**7)
    assert time.perf_counter() - start < 0.5
    assert len(plane_cover_construct(3, max_points=64)) == 9  # a 64-point cube
    with pytest.raises(GridTooLarge):
        plane_cover_construct(3, max_points=63)


def test_plane_cover_verify_counts_tests_against_cap():
    family = plane_cover_construct(3)  # 9 planes * 4^2 marks + 4^3 points = 208
    assert plane_cover_verify(family, 3, max_points=208).covers
    with pytest.raises(GridTooLarge):
        plane_cover_verify(family, 3, max_points=207)
    with pytest.raises(GridTooLarge):  # the empty family still tests every point
        plane_cover_verify(PlaneSet([]), 3, max_points=63)
    start = time.perf_counter()
    with pytest.raises(GridTooLarge):  # 162^2 * (4 * 161 + 1), over the default 2^24
        plane_cover_verify(plane_cover_construct(161), 161)
    assert time.perf_counter() - start < 1


# ------------------------------------------------------------- cycle labeling


def test_cycle_selection_known_values():
    assert cycle_selection(CycleLabels([(1, 2)] * 4)) == (1, 2, 1, 2)
    assert cycle_selection(CycleLabels([(1, 2), (3, 4)])) == (1, 3)


def test_cycle_labels_canonicalize_and_validate():
    labels = CycleLabels([(2, 1), (Fraction(1, 2), Fraction(1, 3))])
    assert labels.pairs == ((1, 2), (Fraction(1, 3), Fraction(1, 2)))
    with pytest.raises(BadInput):
        CycleLabels([(1, 1)])
    with pytest.raises(EmptyInput):
        CycleLabels([])
    with pytest.raises(Exception):
        CycleLabels([(1, 2, 3)])


def _label_spellings(value: Fraction) -> list:
    """The raw forms a label of this value can take: the Fraction, its text,
    and an int, a bool, a float or a decimal text where one is exact."""
    out = [value, str(value)]
    if value.denominator == 1:
        out.append(int(value))
    if value in (0, 1):
        out.append(bool(value))
    if float(value) == value:
        out += [float(value), repr(float(value))]
    return out


# a small pool of values, so that labels and whole rows repeat
_LABEL_VALUES = [Fraction(v) for v in (0, 1, 2, -3, "3/4", "-1/2", "1/3")]
_raw_label = st.sampled_from(_LABEL_VALUES).flatmap(lambda v: st.sampled_from(_label_spellings(v)))
# two labels as a tuple or a list, or a bad row: one or three labels, or a
# label that is not a number
_raw_row = st.one_of(
    st.tuples(_raw_label, _raw_label),
    st.lists(_raw_label, min_size=2, max_size=2),
    st.lists(_raw_label, min_size=1, max_size=3),
    st.tuples(_raw_label, st.sampled_from(["x", None, [1]])),
)


@st.composite
def _raw_rows(draw):
    """A cycle's rows drawn from a few distinct ones, with repeats and swapped
    orders; maybe none."""
    rows = draw(st.lists(_raw_row, min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.booleans()), max_size=12))
    return [rows[i][::-1] if swap else rows[i] for i, swap in picks]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_raw_rows())
@example([(2 * i, 2 * i + 1) for i in range(30)])  # every label distinct
@example([(1, 2), ("3/4", 0.75), (1, 2)])
@example([])
def test_cycle_labels_match_the_per_pair_oracle(rows):
    try:
        expected = oracles.cycle_label_pairs(rows)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            CycleLabels(rows)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    labels = CycleLabels(rows)
    assert labels.pairs == expected
    # interned: a label equal to one seen before is that same object
    one_of_each: dict = {}
    for x in itertools.chain.from_iterable(labels.pairs):
        assert type(x) is Fraction
        assert one_of_each.setdefault(x, x) is x


def test_cycle_selection_odd_handling():
    odd = CycleLabels([(1, 2)] * 3)
    with pytest.raises(OddCycle):
        cycle_selection(odd)
    # an all-equal odd labeling genuinely has no proper selection
    assert cycle_selection(odd, force_search=True) is None
    # distinct labels make odd cycles easy
    easy = CycleLabels([(1, 2), (3, 4), (5, 6)])
    assert cycle_selection(easy, force_search=True) == (1, 3, 5)
    # a 1-cycle vertex neighbors itself
    assert cycle_selection(CycleLabels([(1, 2)]), force_search=True) is None


@given(st.integers(0, 120))
def test_cycle_selection_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 4, 6])
    pairs = []
    for _ in range(n):
        lo = rng.randint(-3, 2)
        hi = lo + rng.randint(1, 3)
        pairs.append((lo, hi))
    got = cycle_selection(CycleLabels(pairs))
    expected = oracles.first_cycle_selection([tuple(sorted(p)) for p in pairs])
    assert got == expected
    assert got is not None
    for i in range(n):
        assert got[i] != got[(i + 1) % n]


def test_cycle_selection_long_cycles():
    # far deeper than the interpreter's recursion limit
    n = 3000
    assert cycle_selection(CycleLabels([(1, 2)] * n)) == (1, 2) * (n // 2)
    # the closing vertex rejects both of its labels until vertex n - 2 takes
    # its second one, so the search has to back up from depth n
    pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 2)]
    assert cycle_selection(CycleLabels(pairs)) == (*range(n - 2), n - 1, n - 2)
    rng = random.Random(11)
    pairs = [tuple(rng.sample(range(4), 2)) for _ in range(n)]
    got = cycle_selection(CycleLabels(pairs))
    assert all(got[i] in pairs[i] and got[i] != got[(i + 1) % n] for i in range(n))


def _greedy_close(pairs):
    """The label vertex n - 2 takes on the forward pass from vertex 0's
    smaller label, each vertex taking its first label unlike its predecessor's."""
    prev = min(pairs[0])
    for pair in pairs[1:-1]:
        lo, hi = sorted(pair)
        prev = hi if lo == prev else lo
    return prev


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_cycle_forward_pass_matches_oracle(data):
    # even and odd cycles up to 12 vertices, integer and fractional labels
    # from a small pool so neighbors collide; "closing" rebuilds the last
    # pair from vertex 0's smaller label and the label the forward pass
    # leaves on vertex n - 2, so the closing vertex rejects both of its
    # labels and the search has to back up
    n = data.draw(st.integers(1, 12), "n")
    pool = data.draw(st.sampled_from([
        [0, 1], [0, 1, 2], [-2, -1, 0, 1, 2, 3],
        [Fraction(-1, 2), Fraction(1, 3), 1, Fraction(3, 2)],
    ]), "pool")
    rng = random.Random(data.draw(st.integers(0, 2**32), "seed"))
    pairs = [tuple(rng.sample(pool, 2)) for _ in range(n)]
    if n > 2 and data.draw(st.booleans(), "closing"):
        start, prev = min(pairs[0]), _greedy_close(pairs)
        if start != prev:
            pairs[-1] = (prev, start)
    labels = CycleLabels(pairs)
    expected = oracles.first_cycle_selection(labels.pairs)
    if n % 2:
        with pytest.raises(OddCycle):
            cycle_selection(labels)
    got = cycle_selection(labels, force_search=True)
    assert got == expected
    if n % 2 == 0:
        assert cycle_selection(labels) == expected is not None
    if got is not None:
        # the very label objects of labels.pairs, not equal copies
        assert all(any(x is y for y in pair) for x, pair in zip(got, labels.pairs))


def test_cycle_forward_pass_backs_up_past_vertex_zero():
    # from 0 the path is forced, 0 -> 2 -> 3, and the closing vertex (0, 3)
    # rejects both labels; no vertex has a second choice, so vertex 0 takes 1
    assert cycle_selection(CycleLabels([(0, 1), (0, 2), (2, 3), (0, 3)])) == (1, 0, 2, 0)
    # the same forced path on an odd cycle fails from both labels of vertex 0
    assert cycle_selection(CycleLabels([(0, 1), (0, 1), (0, 1)]), force_search=True) is None


def test_cycle_selection_matches_oracle_on_every_small_cycle():
    # every sequence of pairs from {0, 1, 2} up to 8 vertices and from
    # {0, 1, 2, 3} up to 5 vertices: 19,170 cycles, each closing conflict and
    # each odd cycle without a proper selection among them
    checked = 0
    for pool, most in ((range(3), 8), (range(4), 5)):
        rows = list(itertools.combinations(pool, 2))
        for n in range(1, most + 1):
            for pairs in itertools.product(rows, repeat=n):
                labels = CycleLabels(pairs)
                expected = oracles.first_cycle_selection(labels.pairs)
                if n % 2:
                    with pytest.raises(OddCycle):
                        cycle_selection(labels)
                    assert cycle_selection(labels, force_search=True) == expected
                else:
                    assert cycle_selection(labels) == expected is not None
                checked += 1
    assert checked == 19_170


def test_cycle_selection_two_hundred_thousand_vertices():
    n = 200_000
    rng = random.Random(7)
    labels = CycleLabels([tuple(rng.sample(range(6), 2)) for _ in range(n)])
    started = time.perf_counter()
    got = cycle_selection(labels)
    assert time.perf_counter() - started < 1.5
    assert cycle_selection_valid(labels, got)
    assert all(any(x is y for y in pair) for x, pair in zip(got, labels.pairs))
    # the closing vertex rejects both labels, and the answer differs from the
    # forward pass only at vertices n - 2 and n - 1
    labels = CycleLabels([(i, i + 1) for i in range(n - 1)] + [(0, n - 2)])
    started = time.perf_counter()
    got = cycle_selection(labels)
    assert time.perf_counter() - started < 1.5
    assert got == (*range(n - 2), n - 1, n - 2)


def test_cycle_certificate_is_two():
    rng = random.Random(5)
    for n in (2, 4, 6, 8):
        pairs = []
        for _ in range(n):
            lo = Fraction(rng.randint(-4, 3), rng.randint(1, 3))
            hi = lo + Fraction(rng.randint(1, 5), rng.randint(1, 2))
            pairs.append((lo, hi))
        assert cycle_selection_certificate(CycleLabels(pairs)) == 2


def test_cycle_certificate_guards():
    with pytest.raises(OddCycle):
        cycle_selection_certificate(CycleLabels([(1, 2)] * 3))
    with pytest.raises(ResourceLimit):
        cycle_selection_certificate(CycleLabels([(1, 2)] * 12))


# ------------------------------------------------------------- regular graphs


def _mask_of(graph, selected):
    index = {e: j for j, e in enumerate(graph.edges)}
    mask = 0
    for e in selected:
        mask |= 1 << index[e]
    return mask


def test_graph_validation():
    g = Graph(3, [(2, 1), (0, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.degrees() == [1, 2, 1]
    with pytest.raises(BadInput):
        Graph(0, [])
    with pytest.raises(BadInput):
        Graph(3, [(0, 0)])
    with pytest.raises(BadInput):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(BadInput):
        Graph(3, [(0, 3)])
    with pytest.raises(BadInput):
        Graph(3, [(0, 1, 2)])
    with pytest.raises(BadInput):
        Graph(3, [(0, True)])


def _complete_graph(n):
    return Graph(n, itertools.combinations(range(n), 2))


def test_regular_subgraph_k4():
    k4 = _complete_graph(4)
    selected = regular_subgraph_find(k4, 2)
    degrees = [0] * 4
    for u, v in selected:
        degrees[u] += 1
        degrees[v] += 1
    assert all(d in (0, 2) for d in degrees)
    assert _mask_of(k4, selected) == oracles.first_regular_mask(k4.edges, 4, 2)


def test_regular_subgraph_k6_p3():
    k6 = _complete_graph(6)
    selected = regular_subgraph_find(k6, 3)
    degrees = [0] * 6
    for u, v in selected:
        degrees[u] += 1
        degrees[v] += 1
    assert all(d in (0, 3) for d in degrees)
    assert _mask_of(k6, selected) == oracles.first_regular_mask(k6.edges, 6, 3)


def test_regular_subgraph_hypothesis_rejections():
    # triangle plus pendant edge: average degree exactly 2p - 2 for p = 2
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    with pytest.raises(HypothesisViolated):
        regular_subgraph_find(g, 2)
    # K4 at p = 3: average degree 3 is not above 2p - 2 = 4
    with pytest.raises(HypothesisViolated):
        regular_subgraph_find(_complete_graph(4), 3)
    # degree cap: a 4-star has a vertex of degree 4 >= 2p = 4
    star = Graph(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(HypothesisViolated):
        regular_subgraph_find(star, 2)


def test_regular_subgraph_force_search():
    # the same rejected inputs still contain (or lack) solutions
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert regular_subgraph_find(g, 2, force_search=True) == ((0, 1), (0, 2), (1, 2))
    assert regular_subgraph_find(_complete_graph(4), 3, force_search=True) == tuple(
        _complete_graph(4).edges
    )
    # a single edge has no 2-regular subgraph
    lonely = Graph(2, [(0, 1)])
    assert regular_subgraph_find(lonely, 2, force_search=True) is None
    # no edges at all: nothing to select
    assert regular_subgraph_find(Graph(3, []), 2, force_search=True) is None


def test_regular_subgraph_guards():
    with pytest.raises(NotPrime):
        regular_subgraph_find(_complete_graph(4), 4)
    big = Graph(8, list(itertools.combinations(range(8), 2))[:25])
    with pytest.raises(GridTooLarge):
        regular_subgraph_find(big, 2)


def _capped_edges(rng, n, cap):
    """Random edges on n vertices, taken greedily while both ends have degree < cap."""
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    degree = [0] * n
    edges = []
    for u, v in pairs:
        if degree[u] < cap and degree[v] < cap:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return edges


def _oracle_case(rng):
    """(graph, p, force_search): one of seven kinds of graph, often with
    isolated vertices beyond the ones its edges use."""
    kind = rng.choice(["random", "hypotheses", "hub", "wheel", "clique", "forest", "matching"])
    p = rng.choice([2, 3, 5, 7])
    spare = rng.randint(0, 3)
    if kind == "hypotheses":  # degrees below 2p and average above 2p - 2
        p = rng.choice([2, 3])  # p >= 5 needs more than 24 edges
        while True:
            n = rng.randint(4, 9) if p == 2 else rng.randint(6, 7)
            edges = _capped_edges(rng, n, 2 * p - 1)
            if 2 * len(edges) > (2 * p - 2) * n:
                return Graph(n, edges), p, False
    if kind == "random":
        n = rng.randint(2, 8)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, min(12, len(pairs))))
    elif kind == "hub":  # vertex 0 has degree >= 2p
        n = 2 * p + rng.randint(1, 2)
        pairs = list(itertools.combinations(range(1, n), 2))
        extra = rng.randint(0, min(len(pairs), max(0, 15 - n)))
        edges = [(0, v) for v in range(1, n)] + rng.sample(pairs, extra)
    elif kind == "wheel":  # hub 0 of degree >= 2p on a rim cycle, with a chord or none
        p = min(p, 3)
        n = 2 * p + rng.randint(1, 2)
        edges = [(0, v) for v in range(1, n)] + [(v, v % (n - 1) + 1) for v in range(1, n)]
        rim_pairs = itertools.combinations(range(1, n), 2)
        chords = [(u, v) for u, v in rim_pairs if v - u not in (1, n - 2)]
        edges += rng.sample(chords, rng.randint(0, 1))
    elif kind == "clique":  # K_{p+1}, p-regular itself; K_8 has 28 edges
        p = min(p, 5)
        n = p + 2  # vertex p + 1 is a pendant or isolated
        edges = list(itertools.combinations(range(p + 1), 2))
        edges += [(p, p + 1)] if rng.random() < 0.5 else []
    elif kind == "forest":
        n = rng.randint(1, 12)
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
    else:
        n = 2 * rng.randint(1, 8)
        edges = [(2 * i, 2 * i + 1) for i in range(n // 2)]
    return Graph(n + spare, edges), p, True


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_regular_subgraph_matches_oracle(seed):
    graph, p, force_search = _oracle_case(random.Random(seed))
    got = regular_subgraph_find(graph, p, force_search=force_search)
    expected = oracles.first_regular_mask(graph.edges, graph.n_vertices, p)
    if got is None:
        assert expected is None
    else:
        assert _mask_of(graph, got) == expected


def test_regular_subgraph_exact_degrees():
    # A rim vertex of a wheel has degree 3, so a 3-regular subgraph that
    # touches it takes the whole rim and gives the hub degree 6 or 7: 0 mod 3
    # and 3 mod 4, yet neither is 3.
    for rim in (6, 7):
        wheel = Graph(rim + 1, [(0, v) for v in range(1, rim + 1)]
                      + [(v, v % rim + 1) for v in range(1, rim + 1)])
        assert oracles.first_regular_mask(wheel.edges, rim + 1, 3) is None
        assert regular_subgraph_find(wheel, 3, force_search=True) is None


def test_regular_subgraph_work_bound():
    # 16 cubic vertices at p = 3: 3^16 states, and the answer is every edge
    cubic = Graph(16, [(i, (i + 1) % 16) for i in range(16)] + [(i, i + 8) for i in range(8)])
    started = time.monotonic()
    assert regular_subgraph_find(cubic, 3, force_search=True) == cubic.edges
    assert time.monotonic() - started < 5.0
    # a 24-edge matching has an empty 2-core
    matching = Graph(48, [(2 * i, 2 * i + 1) for i in range(24)])
    started = time.monotonic()
    assert regular_subgraph_find(matching, 2, force_search=True) is None
    assert time.monotonic() - started < 1.0
    with pytest.raises(GridTooLarge):
        regular_subgraph_find(Graph(50, [(2 * i, 2 * i + 1) for i in range(25)]), 2,
                              force_search=True)


# ------------------------------------------------------- distinct-sum shuffles


def test_snevily_known_values():
    assert snevily_solve([0, 0], [1, 2], 5) == (1, 2)
    assert snevily_solve([0, 1], [1, 0], 5) == (2, 1)
    assert snevily_solve([0, 0, 0], [1, 2, 3], 7) == (1, 2, 3)


def test_snevily_validation():
    with pytest.raises(BadInput):
        snevily_solve([0], [1], 2)
    with pytest.raises(BadInput):
        snevily_solve([0], [1], 9)
    with pytest.raises(SizeMismatch):
        snevily_solve([0, 1], [1], 5)
    with pytest.raises(EmptyInput):
        snevily_solve([], [], 5)
    with pytest.raises(BadInput):
        snevily_solve([0] * 5, [0, 1, 2, 3, 4], 5)  # k = p
    with pytest.raises(BadInput):
        snevily_solve([0, 0], [1, 6], 5)  # 1 and 6 collide mod 5


def test_distinct_sum_witnesses_are_revalidated(monkeypatch):
    # a search that returns a broken permutation must not get past its solver
    for bad in ((1, 1, 2), (1, 2), (0, 1, 2), (1, 2, 4)):  # not permutations of 1..3
        monkeypatch.setattr(shuffles, "_distinct_sum_permutation", lambda a, b, m, bad=bad: bad)
        with pytest.raises(TheoremViolation):
            snevily_solve([0, 0, 0], [1, 2, 3], 7)
        with pytest.raises(TheoremViolation):
            snevily_mod_n([0, 0, 0], 5)
    # the identity permutation, but a_1 + b_1 = a_2 + b_2 in both cases
    monkeypatch.setattr(shuffles, "_distinct_sum_permutation", lambda a, b, m: (1, 2, 3))
    with pytest.raises(TheoremViolation):
        snevily_solve([1, 0, 0], [1, 2, 3], 7)
    with pytest.raises(TheoremViolation):
        snevily_mod_n([1, 0, 2], 5)


@given(st.integers(0, 150))
def test_snevily_matches_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice([3, 5, 7])
    k = rng.randint(1, p - 1)
    a = [rng.randrange(p) for _ in range(k)]
    b = rng.sample(range(p), k)
    sigma = snevily_solve(a, b, p)
    assert sigma == oracles.first_distinct_sum_perm(a, b, p)
    assert sorted(sigma) == list(range(1, k + 1))
    sums = [(a[i] + b[sigma[i] - 1]) % p for i in range(k)]
    assert len(set(sums)) == k



def test_snevily_deep_search_is_iterative():
    # 1500 levels of search depth, past the interpreter's recursion limit
    k = 1500
    assert snevily_solve([0] * k, list(range(k)), 1511) == tuple(range(1, k + 1))
    assert snevily_mod_n([0] * k, 2 * k - 1) == tuple(range(1, k + 1))


def test_distinct_sum_search_budget(monkeypatch):
    # sigma = (1, 2, 3), (1, 3, 2) and (2, 1, 3) all collide before (2, 3, 1):
    # the search takes 22 steps (candidates tested plus levels backed out of)
    monkeypatch.setattr(shuffles, "_SEARCH_NODE_CAP", 22)
    assert snevily_solve([0, 0, 4], [1, 2, 3], 5) == (2, 3, 1)
    monkeypatch.setattr(shuffles, "_SEARCH_NODE_CAP", 21)
    with pytest.raises(ResourceLimit):
        snevily_solve([0, 0, 4], [1, 2, 3], 5)
    # six sums in Z_5 cannot be distinct: a fruitless search that is
    # exhausted within the budget reports None, one that is not raises
    monkeypatch.undo()
    assert snevily_mod_n([0] * 6, 5, force_search=True) is None
    monkeypatch.setattr(shuffles, "_SEARCH_NODE_CAP", 100)
    with pytest.raises(ResourceLimit):
        snevily_mod_n([0] * 6, 5, force_search=True)


def test_snevily_mod_n_known_values():
    assert snevily_mod_n([0], 1) == (1,)
    assert snevily_mod_n([0, 0, 0], 5) == (1, 2, 3)


def test_snevily_mod_n_bounds_and_force():
    with pytest.raises(BadInput):
        snevily_mod_n([0, 0], 2)
    # beyond the guarantee a search may still succeed...
    assert snevily_mod_n([0, 0], 2, force_search=True) == (1, 2)
    # ...or genuinely fail
    assert snevily_mod_n([0, 1], 2, force_search=True) is None
    with pytest.raises(EmptyInput):
        snevily_mod_n([], 5)
    with pytest.raises(BadInput):
        snevily_mod_n([0], 0)


@given(st.integers(0, 100))
def test_snevily_mod_n_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    k = rng.randint(1, (n + 1) // 2)
    a = [rng.randrange(n) for _ in range(k)]
    sigma = snevily_mod_n(a, n)
    assert sigma == oracles.first_distinct_sum_perm(a, list(range(1, k + 1)), n)
    sums = [(a[i] + sigma[i]) % n for i in range(k)]
    assert len(set(sums)) == k


# --------------------------------------------------- Vandermonde-squared check


def test_vandermonde_known_values():
    assert vandermonde_sq_coefficient(1) == 1
    assert vandermonde_sq_coefficient(2) == -2
    assert vandermonde_sq_coefficient(3) == -6
    assert vandermonde_sq_coefficient(4) == 24


def test_vandermonde_verified_matches_closed_form():
    for k in range(1, 7):  # k = 6, the cap, gives -720
        expected = math.factorial(k) * (-1) ** (k * (k - 1) // 2)
        assert vandermonde_sq_coefficient(k) == expected
        assert vandermonde_sq_coefficient(k, verify=False) == expected


def test_vandermonde_closed_only_beyond_cap():
    assert vandermonde_sq_coefficient(7, verify=False) == -math.factorial(7)
    assert vandermonde_sq_coefficient(8, verify=False) == math.factorial(8)
    with pytest.raises(ResourceLimit):
        vandermonde_sq_coefficient(7)
    with pytest.raises(BadInput):
        vandermonde_sq_coefficient(0)
    with pytest.raises(BadInput):
        vandermonde_sq_coefficient(True)


# ------------------------------------------------------- symmetric differences


def test_symdiff_known_values():
    diffs = symdiff_check([set(), {1}, {2}], ["r", "b", "b"])
    assert diffs == {frozenset({1}), frozenset({2})}
    diffs = symdiff_check([{1}, {1}, {2}], ["r", "b", "b"])
    assert diffs == {frozenset(), frozenset({1, 2})}


def test_symdiff_validation():
    with pytest.raises(MonochromaticInput):
        symdiff_check([{1}, {2}, {3}], ["r", "r", "r"])
    with pytest.raises(SizeMismatch):
        symdiff_check([{1}, {2}], ["r"])
    with pytest.raises(BadCount):
        symdiff_check([{1}, {2}, {3}, {4}], ["r", "b", "b", "b"])
    with pytest.raises(BadInput):
        symdiff_check([{1}, {2}, {3}], ["r", "b", "g"])


def test_symdiff_rejects_repeats_within_a_color():
    # a same-color repeat breaks the bound (three copies of one set leave
    # only the empty difference), so the hypothesis check must catch it
    with pytest.raises(BadInput):
        symdiff_check([{1}, {1}, {2}], ["r", "r", "b"])
    with pytest.raises(BadInput):
        symdiff_check([{7}, {7}, {7}], ["r", "b", "b"])


@given(st.integers(0, 150))
def test_symdiff_matches_oracle_and_bound(seed):
    rng = random.Random(seed)
    n = rng.choice([0, 1, 2, 3])
    count = (1 << n) + 1
    universe = [frozenset(s) for r in range(5) for s in itertools.combinations(range(4), r)]
    colors = [rng.choice("rb") for _ in range(count)]
    colors[0] = "r"
    colors[-1] = "b"
    # distinct within each color class; a set may recur across the two classes
    red = rng.sample(universe, colors.count("r"))
    blue = rng.sample(universe, colors.count("b"))
    sets, ri, bi = [], 0, 0
    for c in colors:
        if c == "r":
            sets.append(red[ri])
            ri += 1
        else:
            sets.append(blue[bi])
            bi += 1
    diffs = symdiff_check(sets, colors)
    assert diffs == oracles.cross_symdiffs(sets, colors)
    assert len(diffs) >= (1 << n)


def _universe(kind, size):
    """size distinct elements of one kind, each a fresh object."""
    if kind == "ints":
        return list(range(size))
    if kind == "negative ints":
        return [-(10**12) - i for i in range(size)]
    if kind == "strings":
        return ["".join(("e", str(i))) for i in range(size)]
    return [("t", i, Fraction(i, 3)) for i in range(size)]


def _distinct_subsets(rng, universe, k):
    """k distinct subsets of universe, in draw order; past 20 elements each
    has at most 12."""
    if len(universe) <= 20:
        return [frozenset(x for i, x in enumerate(universe) if m >> i & 1)
                for m in rng.sample(range(1 << len(universe)), k)]
    out, seen = [], set()
    while len(out) < k:
        s = frozenset(rng.sample(universe, rng.randint(0, 12)))
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_symdiff_masks_match_oracle(data):
    # the int-mask route against the frozenset pairs of oracles.cross_symdiffs:
    # n up to 8, universes past 64 elements (masks wider than a machine word),
    # non-int elements, the empty set in both classes, sets in both classes
    n = data.draw(st.integers(0, 8), "n")
    kind = data.draw(st.sampled_from(["ints", "negative ints", "strings", "tuples"]), "kind")
    size = data.draw(st.sampled_from([n + 1, n + 4, 70, 130]), "universe size")
    rng = random.Random(data.draw(st.integers(0, 2**32), "seed"))
    universe = _universe(kind, size)
    count = (1 << n) + 1
    colors = ["r", "b"] + [rng.choice("rb") for _ in range(count - 2)]
    rng.shuffle(colors)
    red = _distinct_subsets(rng, universe, colors.count("r"))
    blue = _distinct_subsets(rng, universe, colors.count("b"))
    if data.draw(st.booleans(), "empty set in both"):
        for cls in (red, blue):
            if frozenset() not in cls:
                cls[0] = frozenset()
    if data.draw(st.booleans(), "sets in both"):
        for j in range(min(len(red), len(blue)) // 2 + 1):
            if red[j] not in blue:
                blue[j] = red[j]
    reds, blues = iter(red), iter(blue)
    sets = [set(next(reds)) if c == "r" else list(next(blues)) for c in colors]
    diffs = symdiff_check(sets, colors)
    assert diffs == oracles.cross_symdiffs(sets, colors)
    assert len(diffs) >= (1 << n)
    assert all(type(d) is frozenset for d in diffs)
    # every element of an answer is one of the caller's own objects
    mine = {id(x) for s in sets for x in s}
    assert all(id(x) in mine for d in diffs for x in d)


def _bench_like(n, seed=0):
    """2^n + 1 distinct subsets of n + 4 elements, randomly two-colored."""
    rng = random.Random(seed)
    count = (1 << n) + 1
    sets = [[i for i in range(n + 4) if m >> i & 1] for m in rng.sample(range(1 << (n + 4)), count)]
    colors = ["r", "b"] + [rng.choice("rb") for _ in range(count - 2)]
    rng.shuffle(colors)
    return sets, colors


def test_symdiff_eleven_within_a_second():
    # 1,049,570 cross-color pairs: about 2 s as one frozenset per pair
    sets, colors = _bench_like(11)
    started = time.perf_counter()
    diffs = symdiff_check(sets, colors)
    assert time.perf_counter() - started < 1
    # all nonempty subsets of the 15 elements; no set is in both classes
    assert len(diffs) == (1 << 15) - 1


def test_symdiff_work_cap_both_sides(monkeypatch):
    cap = symdiff._SYMDIFF_WORK_CAP
    assert cap == 2048 * 2049  # the most pairs n = 12 can have
    # n = 12, colored 2048 / 2049: exactly the cap, still answered
    sets, _ = _bench_like(12)
    colors = ["r", "b"] * 2048 + ["b"]
    assert len(symdiff_check(sets, colors)) >= 1 << 12
    # n = 14 is refused before any pair is formed
    sets, colors = _bench_like(14)
    started = time.perf_counter()
    with pytest.raises(ResourceLimit):
        symdiff_check(sets, colors)
    assert time.perf_counter() - started < 0.5
    # the input checks still come first
    with pytest.raises(BadInput):
        symdiff_check([[1]] * len(sets), colors)
    # the cap counts pairs times the 64-bit words of a mask: 3 x 6 pairs of
    # 64 elements are 18 pair words, of 65 elements 36
    monkeypatch.setattr(symdiff, "_SYMDIFF_WORK_CAP", 18)
    colors = ["r", "b", "b", "r", "b", "b", "r", "b", "b"]
    narrow = [set(range(i, 64, 9)) for i in range(9)]
    assert symdiff_check(narrow, colors) == oracles.cross_symdiffs(narrow, colors)
    wide = narrow[:-1] + [narrow[-1] | {64}]
    with pytest.raises(ResourceLimit):
        symdiff_check(wide, colors)
    monkeypatch.setattr(symdiff, "_SYMDIFF_WORK_CAP", 17)
    with pytest.raises(ResourceLimit):
        symdiff_check(narrow, colors)


def _random_subsets(n, universe, seed=0):
    """2^n + 1 distinct random subsets of the universe, alternately colored."""
    rng = random.Random(seed)
    count = (1 << n) + 1
    sets = [[i for i in range(universe) if m >> i & 1] for m in rng.sample(range(1 << universe), count)]
    return sets, ["rb"[i % 2] for i in range(count)]


def test_symdiff_answer_cap_refuses_before_any_frozenset():
    # n = 12 over 40 elements is within the work cap, but its 4.2M distinct
    # differences would take over 10^8 cells; the first chunk of them passes
    # the answer cap
    sets, colors = _random_subsets(12, 40)
    started = time.perf_counter()
    with pytest.raises(ResourceLimit, match="past the answer cap of 1048576"):
        symdiff_check(sets, colors)
    assert time.perf_counter() - started < 1
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            symdiff_check(sets, colors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20  # measured 13 MB, inputs included


def test_symdiff_answer_cap_both_sides(monkeypatch):
    # the cap counts one cell per distinct difference and one per element in
    # it; an answer of exactly the cap is given, one cell more is refused
    sets, colors = _random_subsets(5, 9)
    want = oracles.cross_symdiffs(sets, colors)
    cells = len(want) + sum(map(len, want))
    monkeypatch.setattr(symdiff, "_SYMDIFF_ANSWER_CAP", cells)
    assert symdiff_check(sets, colors) == want
    monkeypatch.setattr(symdiff, "_SYMDIFF_ANSWER_CAP", cells - 1)
    with pytest.raises(ResourceLimit, match=f"reach {cells} cells"):
        symdiff_check(sets, colors)


# ------------------------------------------------------------ witness predicates


def _index_subsets(size):
    for r in range(size + 1):
        yield from itertools.combinations(range(size), r)


def _malformed(claim, size):
    """Claims built from a valid-looking one that no predicate may accept:
    a repeated entry, a negative index, an index past the end."""
    return [claim + claim[:1], claim + (-1,), claim + (size,), (-1,) + claim[1:]]


def test_egz_valid_matches_brute_force():
    rng = random.Random(41)
    for p in (3, 5):
        m = 2 * p - 1
        inputs = [[0] * m] + [[rng.randrange(-20, 20) for _ in range(m)] for _ in range(12)]
        for nums in inputs:
            witnesses = oracles.egz_witnesses(nums, p)
            for claim in _index_subsets(m):
                expected = frozenset(claim) in witnesses
                assert egz_valid(nums, p, claim) == expected, (nums, claim)
                assert egz_valid(nums, p, claim[::-1]) == expected
                for bad in _malformed(claim, m):
                    assert not egz_valid(nums, p, bad), (nums, bad)
            assert frozenset(egz_solve(nums, p)) in witnesses


def test_olson_valid_matches_brute_force():
    rng = random.Random(43)
    free = list(olson_lower_witness(2, 3))
    families = [free + [(1, 2)], free + [(0, 0)]]
    families += [[(rng.randrange(3), rng.randrange(3)) for _ in range(5)] for _ in range(40)]
    for vectors in families:
        witnesses = set(oracles.zero_sum_subsets(vectors, 3, 2))
        for claim in _index_subsets(5):
            assert olson_valid(vectors, 3, claim) == (claim in witnesses), (vectors, claim)
            assert olson_valid(vectors, 3, claim[::-1]) == (claim in witnesses)
            for bad in _malformed(claim, 5):
                assert not olson_valid(vectors, 3, bad), (vectors, bad)


def test_cycle_selection_valid_matches_brute_force():
    rng = random.Random(47)
    for n in range(1, 7):
        for _ in range(6):
            labels = CycleLabels(rng.sample(range(4), 2) for _ in range(n))
            witnesses = oracles.proper_selections(labels.pairs)
            # each vertex's two labels plus one outside every pair
            for claim in itertools.product(*(pair + (9,) for pair in labels.pairs)):
                assert cycle_selection_valid(labels, claim) == (claim in witnesses), (labels, claim)
                assert not cycle_selection_valid(labels, claim + claim[:1])
                assert not cycle_selection_valid(labels, claim[:-1])
            if n % 2 == 0:
                assert cycle_selection(labels) in witnesses


def test_regular_subgraph_valid_matches_brute_force():
    for n, p in itertools.product((4, 5), (2, 3)):
        graph = _complete_graph(n)
        witnesses = oracles.regular_edge_sets(graph.edges, n, p)
        for mask in range(1 << len(graph.edges)):
            claim = [e for j, e in enumerate(graph.edges) if mask >> j & 1]
            expected = frozenset(claim) in witnesses
            assert regular_subgraph_valid(graph, p, claim) == expected, (n, p, claim)
            flipped = [(v, u) for u, v in reversed(claim)]
            assert regular_subgraph_valid(graph, p, flipped) == expected
            if claim:
                assert not regular_subgraph_valid(graph, p, claim + flipped[:1])
                assert not regular_subgraph_valid(graph, p, claim + [(0, n)])
                assert not regular_subgraph_valid(graph, p, claim + [(-1, 0)])
    # an edge missing from the graph, in either orientation
    path = Graph(3, [(0, 1), (1, 2)])
    assert not regular_subgraph_valid(path, 1, [(0, 2)])
    assert not regular_subgraph_valid(path, 1, [(2, 0)])
    assert regular_subgraph_valid(path, 1, [(1, 0)])


@given(st.lists(st.integers(-8, 12), max_size=12))
def test_witness_predicates_never_raise(claim):
    vectors = [(1, 0), (0, 1), (1, 1), (2, 2), (1, 2)]
    assert isinstance(egz_valid([1, 1, 1, 2, 2], 3, claim), bool)
    assert isinstance(olson_valid(vectors, 3, claim), bool)
    assert isinstance(cycle_selection_valid(CycleLabels([(1, 2), (3, 4)] * 2), claim), bool)
    edges = list(zip(claim[::2], claim[1::2]))
    assert isinstance(regular_subgraph_valid(_complete_graph(4), 2, edges), bool)
