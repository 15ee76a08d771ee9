"""Grid machinery and the coefficient/vanishing identities."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import oracles
from combnull import (
    ArityMismatch,
    BadGridShape,
    FieldMismatch,
    Grid,
    GridTooLarge,
    InputError,
    MultiPoly,
    OutOfRange,
    PrimeField,
    RationalField,
    ResourceLimit,
    TheoremViolation,
    boolean_sum,
    grid_weighted_sum,
    lagrange_denominator,
    lagrange_interpolate,
    parse_poly,
    second_nonvanish,
    signed_two_element_sum,
    weighted_power_sum,
    zp_full_sum,
)
from combnull import nullstellensatz, selftest
from combnull.errors import EmptyInput, NotAMember
from combnull.nullstellensatz import (
    DEFAULT_MAX_GRID_POINTS,
    MAX_GRID_POINTS_ENV,
    MAX_RATIONAL_HEIGHT_BITS,
    nonvanishing_valid,
    resolve_max_points,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
Q = RationalField()


# ----------------------------------------------------------------------- grid


def test_grid_canonicalizes_and_validates():
    g = Grid(F5, [[3, 1], [0]])
    assert g.sets == ((1, 3), (0,))
    assert g.n_vars == 2
    assert g.point_count() == 2
    assert g.degree_bound() == 1
    assert g.target_exponents() == (1, 0)
    with pytest.raises(EmptyInput):
        Grid(F5, [])
    with pytest.raises(EmptyInput):
        Grid(F5, [[1], []])
    with pytest.raises(InputError):
        Grid(F5, [[1, 6]])  # 6 = 1 mod 5, repeated after coercion
    assert Grid(F5, [[0, 1]]) == Grid(F5, [[1, 0]])
    assert Grid(F5, [[0, 1]]) != Grid(F3, [[0, 1]])


def test_iter_points_order():
    # the constant 1 vanishes nowhere, so its witness list is every grid
    # point in enumeration order, last coordinate fastest
    g = Grid(F5, [[0, 1], [2, 3]])
    pts = second_nonvanish(parse_poly("1", F5, 2), g)
    assert [p.value for p in pts] == [(0, 2), (0, 3), (1, 2), (1, 3)]
    # over Q as well, in the order of the sorted sets
    gq = Grid(Q, [[Fraction(1, 2), -1], [3]])
    pts = second_nonvanish(parse_poly("1", Q, 2), gq)
    assert [p.value for p in pts] == [(-1, 3), (Fraction(1, 2), 3)]


def test_resolve_max_points(monkeypatch):
    monkeypatch.delenv(MAX_GRID_POINTS_ENV, raising=False)
    assert resolve_max_points() == DEFAULT_MAX_GRID_POINTS
    assert resolve_max_points(10) == 10
    monkeypatch.setenv(MAX_GRID_POINTS_ENV, "123")
    assert resolve_max_points() == 123
    assert resolve_max_points(7) == 7  # explicit argument wins
    monkeypatch.setenv(MAX_GRID_POINTS_ENV, "zero")
    with pytest.raises(InputError):
        resolve_max_points()
    monkeypatch.setenv(MAX_GRID_POINTS_ENV, "-3")
    with pytest.raises(InputError):
        resolve_max_points()


def test_grid_cap_enforced(monkeypatch):
    g = Grid(F5, [[0, 1, 2], [0, 1, 2]])  # 9 points
    f = parse_poly("x1*x2", F5, 2)
    with pytest.raises(GridTooLarge):
        grid_weighted_sum(f, g, 8)
    monkeypatch.setenv(MAX_GRID_POINTS_ENV, "8")
    with pytest.raises(GridTooLarge):
        grid_weighted_sum(f, g)
    assert grid_weighted_sum(f, g, 9) is not None  # explicit override unblocks



@pytest.mark.parametrize(
    "name, call, points",
    [
        ("grid_weighted_sum", lambda f: grid_weighted_sum(f, Grid(F7, [[0, 1, 3], [2, 5], [1, 4, 6]])), 18),
        ("second_nonvanish", lambda f: second_nonvanish(f, Grid(F7, [[0, 1, 3], [2, 5], [1, 4, 6]])), 18),
        ("zp_full_sum", lambda f: zp_full_sum(f), 7**3),
        ("signed_two_element_sum", lambda f: signed_two_element_sum(f, Grid(F7, [[0, 1]] * 3)), 8),
    ],
)
def test_one_evaluate_call_per_grid_point(monkeypatch, name, call, points):
    # the grid kernels evaluate each point through MultiPoly.evaluate exactly
    # once; a value stream that bypasses it, or evaluates twice, breaks this
    calls = []
    evaluate = MultiPoly.evaluate

    def counted(self, point):
        calls.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(MultiPoly, "evaluate", counted)
    call(parse_poly("x1^2*x2 + 3*x1*x3 + x2*x3^2 + 1", F7, 3))
    assert len(calls) == points, name


def test_weighted_sum_over_two_thousand_singleton_coordinates():
    # one grid point in 2000 coordinates: nothing in the sum or in the
    # evaluation may recurse per coordinate
    n = 2000
    f = MultiPoly(F7, n, {(1,) * n: 1, (0,) * n: 3})
    assert grid_weighted_sum(f, Grid(F7, [[2]] * n)) == (pow(2, n, 7) + 3) % 7


# ---------------------------------------------------------------- denominators


def test_lagrange_denominator_oracle():
    elems = [0, 1, 3]
    for a in elems:
        expected = 1
        for b in elems:
            if b != a:
                expected = expected * (a - b) % 7
        assert lagrange_denominator(F7, elems, a) == expected
    assert lagrange_denominator(Q, [0, 2], 2) == Fraction(2)
    with pytest.raises(NotAMember):
        lagrange_denominator(F7, elems, 2)
    with pytest.raises(EmptyInput):
        lagrange_denominator(F7, [], 0)
    # singleton set: empty product
    assert lagrange_denominator(F7, [4], 4) == 1


def test_lagrange_denominator_known_values():
    assert lagrange_denominator(F5, [0, 1, 2], 1) == 4  # (1-0)(1-2) = -1
    # full residue set at 0: Wilson's theorem, (p-1)! = -1
    assert lagrange_denominator(F5, [0, 1, 2, 3, 4], 0) == 4


def test_singleton_grid_weights_are_one():
    # a one-point grid has the empty product as its only weight
    g = Grid(F5, [[2], [4], [1]])
    assert grid_weighted_sum(parse_poly("1", F5, 3), g) == 1
    assert grid_weighted_sum(parse_poly("3", F5, 3), g) == 3


def test_grid_weights_tables():
    # The Lagrange indicator of alpha, prod_i prod_{b != alpha_i} (x_i - b),
    # is P(alpha) at alpha and 0 at every other grid point, so its weighted
    # sum is 1 exactly when the weight of alpha is 1/P(alpha).
    for g in (Grid(F7, [[0, 1, 3], [2, 5]]),
              Grid(Q, [[Fraction(-1, 2), 0, 4], [1, 3], [Fraction(2, 3)]])):
        fld, n = g.field, g.n_vars
        for alpha in itertools.product(*g.sets):
            indicator = MultiPoly.constant(fld, n, fld.one)
            for i, a in enumerate(alpha):
                for b in g.sets[i]:
                    if b != a:
                        indicator = indicator * (MultiPoly.variable(fld, n, i) - b)
            assert grid_weighted_sum(indicator, g) == 1


# ------------------------------------------------------------------ the kernel


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_weighted_power_sum_kernel_exhaustive(p):
    import itertools

    field = PrimeField(p)
    for size in range(1, min(5, p) + 1):
        for elems in itertools.combinations(range(p), size):
            for m in range(size):
                expected = 1 if m == size - 1 else 0
                assert weighted_power_sum(field, elems, m) == expected, (p, elems, m)


def test_weighted_power_sum_rational_and_errors():
    elems = [Fraction(1, 2), 3, -2]
    assert weighted_power_sum(Q, elems, 0) == 0
    assert weighted_power_sum(Q, elems, 1) == 0
    assert weighted_power_sum(Q, elems, 2) == 1
    with pytest.raises(OutOfRange):
        weighted_power_sum(Q, elems, 3)
    with pytest.raises(OutOfRange):
        weighted_power_sum(Q, elems, -1)
    with pytest.raises(InputError):
        weighted_power_sum(F5, [1, 6], 0)  # repeated residue
    with pytest.raises(EmptyInput):
        weighted_power_sum(F5, [], 0)


# ------------------------------------------------------------- interpolation


def test_lagrange_interpolate_recovers_data():
    pts, vals = [0, 1, 3, 4], [2, 2, 5, 0]
    f = lagrange_interpolate(F7, pts, vals)
    assert f.n_vars == 1
    assert f.total_degree() <= len(pts) - 1
    for x, y in zip(pts, vals):
        assert f.evaluate((x,)) == y


def test_lagrange_interpolate_uniqueness():
    # feeding a low-degree polynomial's own values back recovers it exactly
    g = parse_poly("3*x1^2 + x1 + 4", F7)
    pts = [0, 1, 2, 5]
    vals = [g.evaluate((x,)) for x in pts]
    assert lagrange_interpolate(F7, pts, vals) == g


def test_lagrange_interpolate_rational():
    f = lagrange_interpolate(Q, [0, 1, 2], [Fraction(1), Fraction(0), Fraction(1)])
    assert f == parse_poly("x1^2 - 2*x1 + 1", Q)


@given(data=st.data())
@settings(max_examples=130)
def test_lagrange_interpolate_matches_basis_product_oracle(data):
    # with up to 40 points over Z_1000003 and 20 over Q, odd counts wait at
    # several levels of the tree; one point is a lone leaf
    p = data.draw(st.sampled_from([None, 2, 3, 5, 7, 13, 1000003]), label="p")
    if p is None or p > 13:
        field = Q if p is None else PrimeField(p)
        scalars = st.fractions(-5, 5, max_denominator=4) if p is None else st.integers(0, p - 1)
        # the count first, so the large trees are drawn as often as the small
        n = data.draw(st.integers(1, 20 if p is None else 40), label="n")
        points = data.draw(st.lists(scalars, min_size=n, max_size=n, unique=True), label="points")
    else:
        field, scalars = PrimeField(p), st.integers(0, p - 1)
        # all p residues take the Wilson branch of the inverse denominators
        points = data.draw(st.one_of(st.permutations(range(p)),
                                     st.lists(scalars, min_size=1, max_size=p, unique=True)),
                           label="points")
    _assert_interpolant_matches_basis_product_oracle(data, field, p, points, scalars)


@given(data=st.data())
@settings(max_examples=20, phases=[phase for phase in Phase if phase is not Phase.shrink])
def test_lagrange_interpolate_large_trees_match_basis_product_oracle(data):
    # 41 to 70 points over Z_1000003: deeper trees, with odd counts waiting
    # at several levels.  A failure here is reported as drawn, unshrunk,
    # since shrinking lists of residues this long against the quadratic
    # oracle takes minutes
    p = 1000003
    scalars = st.integers(0, p - 1)
    n = data.draw(st.integers(41, 70), label="n")
    points = data.draw(st.lists(scalars, min_size=n, max_size=n, unique=True), label="points")
    _assert_interpolant_matches_basis_product_oracle(data, PrimeField(p), p, points, scalars)


def _assert_interpolant_matches_basis_product_oracle(data, field, p, points, scalars):
    """Draws a value per point, zeros included, and checks the interpolant
    term for term against the basis-product oracle."""
    values = data.draw(st.lists(st.one_of(st.just(0), scalars),
                                min_size=len(points), max_size=len(points)), label="values")
    got = lagrange_interpolate(field, points, values)
    assert got.terms == oracles.lagrange_interpolate(points, values, p)


@given(data=st.data())
@settings(max_examples=100, derandomize=True)
def test_lagrange_master_is_the_list_oracle(data):
    # x^n minus the interpolant of a^n through n points is the master
    # polynomial, the product of (x - a) over the points
    p = data.draw(st.sampled_from([None, 1000003]), label="p")
    if p is None:
        field, scalars = Q, st.fractions(-20, 20, max_denominator=9)
    else:
        field, scalars = PrimeField(p), st.integers(0, p - 1)
    points = data.draw(st.lists(scalars, min_size=1, max_size=40, unique=True), label="points")
    n = len(points)
    got = MultiPoly(field, 1, {(n,): 1}) - lagrange_interpolate(field, points, [a**n for a in points])
    master = oracles.master_coefficients(points, p)
    assert got.terms == {(n - i,): c for i, c in enumerate(master) if c}


def test_lagrange_interpolate_two_hundred_points_with_one_product_tree(monkeypatch):
    # the 200 leaves (x - a, w_a * y_a) merge on one balanced tree, 199
    # merges of three multiplies each; one basis product per point took about 9 s
    products = []
    multiply = MultiPoly.__mul__

    def counted(a, b):
        products.append((a.total_degree(), b.total_degree()))
        return multiply(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    fld = PrimeField(1000003)
    started = time.perf_counter()
    f = lagrange_interpolate(fld, range(200), range(200))
    assert time.perf_counter() - started < 1.0
    assert f.terms == {(1,): 1}
    assert len(products) == 3 * 199
    # pairwise level by level the root joins degrees 128 and 72; left to
    # right the last merge would take an operand of degree 199
    assert max(products) == (128, 72)


def test_lagrange_interpolate_errors():
    with pytest.raises(InputError):
        lagrange_interpolate(F7, [0, 0], [1, 2])
    with pytest.raises(InputError):
        lagrange_interpolate(F7, [0, 1], [1])
    with pytest.raises(EmptyInput):
        lagrange_interpolate(F7, [], [])


# --------------------------------------------------------- the grid identities


def test_frozen_coefficient_example():
    f = parse_poly("x1*x2", F3, 2)
    assert grid_weighted_sum(f, Grid(F3, [[0, 1], [0, 1]])) == 1


def test_poly_grid_compatibility():
    f = parse_poly("x1*x2", F3, 2)
    with pytest.raises(FieldMismatch):
        grid_weighted_sum(f, Grid(F5, [[0, 1], [0, 1]]))
    with pytest.raises(ArityMismatch):
        grid_weighted_sum(f, Grid(F3, [[0, 1]]))


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=150)
def test_weighted_sum_equals_top_coefficient(p, seed):
    rng = random.Random(seed)
    field = PrimeField(p)
    n = rng.randint(1, 3)
    sets = oracles.random_grid_sets(rng, n, p)
    bound = sum(len(s) - 1 for s in sets)
    terms = oracles.random_terms_zp(rng, n, p, bound)
    f = MultiPoly(field, n, terms)
    grid = Grid(field, sets)
    got = grid_weighted_sum(f, grid)
    # route 1: the raw-arithmetic oracle with Fermat inverses
    assert got == oracles.weighted_sum_zp(terms, [tuple(s) for s in sets], p)
    # route 2: direct coefficient lookup
    assert got == terms.get(grid.target_exponents(), 0)


@given(
    p=st.sampled_from([3, 5, 7]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=100)
def test_weighted_sum_vanishes_below_bound(p, seed):
    rng = random.Random(seed)
    field = PrimeField(p)
    n = rng.randint(1, 3)
    sets = oracles.random_grid_sets(rng, n, p)
    bound = sum(len(s) - 1 for s in sets)
    terms = oracles.random_terms_zp(rng, n, p, bound, strict=True)
    f = MultiPoly(field, n, terms)
    assert grid_weighted_sum(f, Grid(field, sets)) == 0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_weighted_sum_restricted_beyond_bound(seed):
    rng = random.Random(seed)
    p = rng.choice([3, 5, 7])
    field = PrimeField(p)
    n = rng.randint(1, 3)
    sets = [sorted(rng.sample(range(p), rng.randint(2, min(4, p)))) for _ in range(n)]
    grid = Grid(field, sets)
    d = grid.target_exponents()
    terms = oracles.random_restricted_terms_zp(rng, d, p)
    f = MultiPoly(field, n, terms)
    assert f.is_restricted(d)
    assert grid_weighted_sum(f, grid) == terms.get(d, 0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40)
def test_weighted_sum_rational_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 2)
    sets = []
    for _ in range(n):
        size = rng.randint(1, 3)
        pool = [Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)]
        sets.append(sorted(rng.sample(sorted(set(pool)), size)))
    bound = sum(len(s) - 1 for s in sets)
    terms = oracles.random_terms_q(rng, n, bound)
    f = MultiPoly(Q, n, terms)
    grid = Grid(Q, sets)
    got = grid_weighted_sum(f, grid)
    assert got == oracles.weighted_sum_q(terms, [tuple(s) for s in sets])
    assert got == terms.get(grid.target_exponents(), Fraction(0))


@given(data=st.data())
@settings(max_examples=60)
def test_rational_route_on_mixed_coordinates(data):
    # over Q, evaluate works on integer numerators: integral coordinates as
    # ints, fractional ones as Fractions.  Sets that mix both switch one
    # evaluation sequence between the two, with terms past the degree bound
    n = data.draw(st.integers(1, 4), label="n")
    scalars = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=4))
    sets = data.draw(st.lists(st.lists(scalars, min_size=1, max_size=3, unique=True),
                              min_size=n, max_size=n), label="sets")
    bound = sum(len(s) - 1 for s in sets)
    exps = st.tuples(*[st.integers(0, bound + 2)] * n)
    coeffs = st.fractions(-5, 5, max_denominator=6)
    f = MultiPoly(Q, n, data.draw(st.dictionaries(exps, coeffs, max_size=6), label="terms"))
    grid = Grid(Q, sets)
    assert grid_weighted_sum(f, grid) == oracles.weighted_sum_q(f.terms, grid.sets)
    for point in itertools.chain(itertools.product(*sets), itertools.product(*grid.sets)):
        value = f.evaluate(point)
        assert type(value) is Fraction and value == oracles.eval_terms(f.terms, point)


# ------------------------------------------------------------- special cases


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_boolean_sum_consistency(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    terms = oracles.random_terms_zp(rng, n, 2, max_total=n + 2)
    f = MultiPoly(F2, n, terms)
    assert boolean_sum(f) == oracles.boolean_sum(terms, n)
    if f.total_degree() <= n:
        assert boolean_sum(f) == f.coefficient_of((1,) * n)


def test_boolean_sum_needs_z2():
    with pytest.raises(FieldMismatch):
        boolean_sum(parse_poly("x1", F3))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40)
def test_zp_full_sum_consistency(seed):
    rng = random.Random(seed)
    p = rng.choice([2, 3, 5])
    n = rng.randint(1, 2)
    field = PrimeField(p)
    terms = oracles.random_terms_zp(rng, n, p, max_total=n * (p - 1))
    f = MultiPoly(field, n, terms)
    sign = field.element((-1) ** n)
    assert zp_full_sum(f) == oracles.zp_full_sum(terms, n, p)
    # and the coefficient form within the degree window
    assert field.mul(sign, zp_full_sum(f)) == f.coefficient_of((p - 1,) * n)


def test_zp_full_sum_validation():
    with pytest.raises(FieldMismatch):
        zp_full_sum(parse_poly("x1", Q))
    with pytest.raises(GridTooLarge):
        zp_full_sum(parse_poly("x1*x2*x3", F7, 3), max_points=300)
    # Z_(2^31 - 1) is refused from its size alone, before its residues are built
    big = PrimeField(2**31 - 1)
    start = time.perf_counter()
    with pytest.raises(GridTooLarge):
        zp_full_sum(parse_poly("x1", big, 1))
    assert time.perf_counter() - start < 1.0


def test_shortcut_sums_obey_the_environment_cap(monkeypatch):
    # every shortcut is a weighted grid sum, so every one is capped
    cube = parse_poly("x1*x2*x3", F2, 3)
    pairs = Grid(Q, [[0, 1], [2, 5], [-1, 3]])
    cubic = parse_poly("x1*x2*x3", Q, 3)
    monkeypatch.setenv(MAX_GRID_POINTS_ENV, "7")
    with pytest.raises(GridTooLarge):
        boolean_sum(cube)
    with pytest.raises(GridTooLarge):
        signed_two_element_sum(cubic, pairs)
    with pytest.raises(GridTooLarge):
        zp_full_sum(parse_poly("x1*x2", F3, 2))
    monkeypatch.setenv(MAX_GRID_POINTS_ENV, "8")  # exactly the grid size
    assert boolean_sum(cube) == 1
    assert signed_two_element_sum(cubic, pairs) == (0 - 1) * (2 - 5) * (-1 - 3)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_signed_two_element_sum_consistency(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    sets = [sorted(rng.sample(range(-5, 6), 2)) for _ in range(n)]
    terms = oracles.random_terms_q(rng, n, max_total=n + 2)
    f = MultiPoly(Q, n, terms)
    grid = Grid(Q, sets)
    signed = signed_two_element_sum(f, grid)
    assert signed == oracles.signed_two_element_sum(terms, sets)
    if f.total_degree() <= n:
        denom = Fraction(1)
        for lo, hi in grid.sets:
            denom *= lo - hi
        assert signed == f.coefficient_of((1,) * n) * denom


def test_signed_sum_needs_pairs():
    f = parse_poly("x1", F5, 1)
    with pytest.raises(BadGridShape):
        signed_two_element_sum(f, Grid(F5, [[0, 1, 2]]))


# --------------------------------------------------------- second nonvanishing


def test_second_nonvanish_lists_hits():
    f = parse_poly("x1*x2", F3, 2)
    hits = second_nonvanish(f, Grid(F3, [[0, 1], [0, 1]]))
    assert [h.value for h in hits] == [(1, 1)]
    # degree 2 equals the bound here, so a single hit is legitimate

    low = parse_poly("x1 + x2", F3, 2)  # degree 1 < bound 2: never one hit
    hits = second_nonvanish(low, Grid(F3, [[0, 1], [0, 1]]))
    assert [h.value for h in hits] == [(0, 1), (1, 0), (1, 1)]

    zero = parse_poly("0", F3, 2)
    assert second_nonvanish(zero, Grid(F3, [[0, 1], [0, 1]])) == []


@pytest.mark.parametrize("field, text, sets", [
    (F3, "x1*x2 + x1 + 2", [[0, 1], [0, 2]]),
    (F7, "x1^2 - x2*x3 + 3", [[0, 1, 5], [2, 6], [1, 3, 4]]),
    (Q, "1/2*x1 - x2^2", [[0, Fraction(1, 2), 1], [-1, 0, 1]]),
])
def test_nonvanishing_valid_agrees_with_enumeration(field, text, sets):
    # the --check predicate decides a claim at its own points; on every one-
    # and two-point claim over a slightly larger box it must agree with the
    # enumerated hits, and it rejects points off the grid or of wrong arity
    grid = Grid(field, sets)
    f = parse_poly(text, field, grid.n_vars)
    hits = {h.value for h in second_nonvanish(f, grid)}
    box = list(itertools.product(*[sorted(set(s) | {field.element(3)}) for s in grid.sets]))
    for claim in itertools.chain(([pt] for pt in box), itertools.combinations(box, 2)):
        assert nonvanishing_valid(f, grid, claim) == (set(claim) <= hits), claim
    assert not nonvanishing_valid(f, grid, [box[-1][:-1]])
    with pytest.raises(ArityMismatch):
        nonvanishing_valid(parse_poly("x1", field, 1), grid, [box[0]])


def test_rational_height_budget_boundary():
    # a value over Q has at most sum_i e_i * ceil(log2 H(A_i)) bits: H = 2
    # costs one bit per unit of exponent, so x1^cap fits on {0, 2} and
    # x1^(cap + 1) does not, while 0 and +-1 cost nothing at any exponent
    cap = MAX_RATIONAL_HEIGHT_BITS
    grid = Grid(Q, [[0, 2]])
    assert grid_weighted_sum(MultiPoly(Q, 1, {(cap,): 1}), grid) == 2 ** (cap - 1)
    over = MultiPoly(Q, 1, {(cap + 1,): 1, (0,): 1})
    for call in (grid_weighted_sum, second_nonvanish, signed_two_element_sum,
                 lambda f, g: nonvanishing_valid(f, g, [(2,)])):
        with pytest.raises(ResourceLimit):
            call(over, grid)
    units = Grid(Q, [[-1, 0, 1], [0, 2]])
    assert grid_weighted_sum(MultiPoly(Q, 2, {(10**9, 1): 1}), units) == 1


def test_second_nonvanish_guard_trips_on_inconsistency():
    # a deliberately lying polynomial: claims degree 1 but evaluates nonzero
    # at exactly one grid point, which the vanishing identity forbids
    class LyingPoly(MultiPoly):
        def evaluate(self, point):
            return 1 if tuple(point) == (1, 1) else 0

    liar = LyingPoly(F3, 2, {(1, 0): 1})
    with pytest.raises(TheoremViolation):
        second_nonvanish(liar, Grid(F3, [[0, 1], [0, 1]]))


@settings(derandomize=True, max_examples=300)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4), data=st.data())
def test_alon_furedi_greedy_minimum_matches_brute_force(sizes, data):
    degree = data.draw(st.integers(0, sum(sizes) + 1), label="degree")
    assert nullstellensatz._alon_furedi_bound(sizes, degree) == \
        oracles.alon_furedi_minimum(sizes, degree)


@settings(derandomize=True, max_examples=150)
@given(data=st.data())
def test_alon_furedi_bound_holds_on_random_polynomials(data):
    # a nonzero count of hits is at least the bound, over Z_p and Q, past the
    # degree bound too; second_nonvanish lists exactly the oracle's hits
    field = data.draw(st.sampled_from([F2, F3, F5, F7, Q]), label="field")
    n = data.draw(st.integers(1, 3), label="n")
    elements = st.integers(-3, 3) if field is Q else st.integers(0, field.p - 1)
    sets = data.draw(st.lists(st.lists(elements, min_size=1, max_size=4, unique=True),
                              min_size=n, max_size=n), label="sets")
    grid = Grid(field, sets)
    exps = st.tuples(*[st.integers(0, 4)] * n)
    coeffs = st.integers(1, 6) if field is not Q else st.fractions(-3, 3, max_denominator=3)
    f = MultiPoly(field, n, data.draw(st.lists(st.tuples(exps, coeffs), max_size=4), label="f"))
    want = [pt for pt in itertools.product(*grid.sets)
            if field.element(oracles.eval_terms(f.terms, pt))]
    assert [h.value for h in second_nonvanish(f, grid)] == want
    if want:
        sizes = [len(s) for s in grid.sets]
        assert len(want) >= nullstellensatz._alon_furedi_bound(sizes, f.total_degree())


@pytest.mark.parametrize("field", [F7, Q], ids=["Z7", "Q"])
def test_second_nonvanish_dropped_hit_trips_alon_furedi(monkeypatch, field):
    # (x1 - 1)(x1 - 2) on {0,1,2} x {0,1,2,3} is nonzero only at x1 = 0: four
    # hits, exactly the bound min{y1*y2 : y1 + y2 >= 7 - 2} = 4 * 1.  An
    # evaluate that loses one of them must raise
    f = parse_poly("x1^2 - 3*x1 + 2", field, 2)
    grid = Grid(field, [[0, 1, 2], [0, 1, 2, 3]])
    assert len(second_nonvanish(f, grid)) == 4
    assert nullstellensatz._alon_furedi_bound([3, 4], 2) == 4
    evaluate = MultiPoly.evaluate
    dropped = []

    def lossy(self, point):
        value = evaluate(self, point)
        if value and not dropped:
            dropped.append(point)
            return field.zero
        return value

    monkeypatch.setattr(MultiPoly, "evaluate", lossy)
    with pytest.raises(TheoremViolation, match="Alon-Furedi"):
        second_nonvanish(f, grid)
    assert dropped == [(0, 0)]


@pytest.mark.parametrize("field", [F7, Q], ids=["Z7", "Q"])
def test_second_nonvanish_answer_cap(monkeypatch, field):
    # the four hits of (x1 - 1)(x1 - 2) are the grid's first four points.
    # At a cap of four they are the answer; at three the fourth hit raises
    # ResourceLimit, not the Alon-Furedi TheoremViolation that three hits
    # would, and the scan stops there
    f = parse_poly("x1^2 - 3*x1 + 2", field, 2)
    grid = Grid(field, [[0, 1, 2], [0, 1, 2, 3]])
    monkeypatch.setattr(nullstellensatz, "_WITNESS_ANSWER_CAP", 4)
    assert [h.value for h in second_nonvanish(f, grid)] == [(0, 0), (0, 1), (0, 2), (0, 3)]
    monkeypatch.setattr(nullstellensatz, "_WITNESS_ANSWER_CAP", 3)
    evaluate = MultiPoly.evaluate
    calls = []
    monkeypatch.setattr(MultiPoly, "evaluate",
                        lambda self, point: calls.append(point) or evaluate(self, point))
    with pytest.raises(ResourceLimit, match="more than 3 nonvanishing points"):
        second_nonvanish(f, grid)
    assert len(calls) == 4


# -------------------------------------------------------------- fault injection


def test_fault_injection_breaks_the_identity(monkeypatch):
    # the runner doubles every Lagrange denominator for the length of one run
    original = nullstellensatz.lagrange_denominator
    failed = {name for name, ok, _ in selftest.run_suites(inject_fault=True) if not ok}
    assert failed == {"coefficients", "sumsets", "graphs", "permutations"}
    assert nullstellensatz.lagrange_denominator is original
    assert all(ok for _, ok, _ in selftest.run_suites())

    # a suite that raises past the runner still leaves the original in place
    seen = []

    def interrupted():
        seen.append(nullstellensatz.lagrange_denominator(F5, [0, 1], 1))
        raise KeyboardInterrupt

    monkeypatch.setitem(selftest._SUITES, "fields", interrupted)
    with pytest.raises(KeyboardInterrupt):
        selftest.run_suites("fields", inject_fault=True)
    assert seen == [2]  # (1 - 0), doubled
    assert nullstellensatz.lagrange_denominator is original
    assert lagrange_denominator(F5, [0, 1], 1) == 1
