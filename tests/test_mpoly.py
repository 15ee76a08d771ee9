"""Sparse polynomial layer: construction, ring ops, text round-trips."""

import itertools
import math
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from combnull import (
    ArityMismatch,
    BadInput,
    FieldMismatch,
    InputError,
    MultiPoly,
    NEG_INF,
    PrimeField,
    RationalField,
    SchemaError,
    format_poly,
    parse_poly,
    sorted_terms,
)
from combnull import mpoly

F5 = PrimeField(5)
F2 = PrimeField(2)
F3 = PrimeField(3)
F31 = PrimeField(31)
Q = RationalField()


def poly_strategy(field, n_vars, max_exp=3, max_terms=4):
    if isinstance(field, PrimeField):
        coeffs = st.integers(0, field.p - 1)
    else:
        coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=7)
    exps = st.tuples(*([st.integers(0, max_exp)] * n_vars))
    return st.lists(st.tuples(exps, coeffs), max_size=max_terms).map(
        lambda ts: MultiPoly(field, n_vars, ts)
    )


points2 = st.tuples(st.integers(-10, 10), st.integers(-10, 10))


# ---------------------------------------------------------------- construction


def test_constructor_validation():
    with pytest.raises(ArityMismatch):
        MultiPoly(F5, 0)
    with pytest.raises(ArityMismatch):
        MultiPoly(F5, 2, {(1,): 1})
    with pytest.raises(InputError):
        MultiPoly(F5, 1, {(-1,): 1})
    with pytest.raises(InputError):
        MultiPoly(F5, 1, {(1.5,): 1})


def test_constructor_accumulates_and_prunes():
    f = MultiPoly(F5, 1, [((1,), 2), ((1,), 3)])  # 2 + 3 = 0 mod 5
    assert f.terms == {}
    g = MultiPoly(F5, 1, [((1,), 2), ((1,), 4)])
    assert g.terms == {(1,): 1}
    assert MultiPoly(F5, 2, {(0, 0): 10}).terms == {}  # 10 = 0 mod 5


def test_builders():
    assert MultiPoly.zero(F5, 3).terms == {}
    assert MultiPoly.constant(F5, 2, 7).terms == {(0, 0): 2}
    x2 = MultiPoly.variable(F5, 3, 1)
    assert x2.terms == {(0, 1, 0): 1}
    with pytest.raises(ArityMismatch):
        MultiPoly.variable(F5, 3, 3)
    with pytest.raises(ArityMismatch):
        MultiPoly.variable(F5, 3, -1)


# ------------------------------------------------------------------- ring ops


@given(f=poly_strategy(F5, 2), g=poly_strategy(F5, 2), h=poly_strategy(F5, 2))
def test_ring_axioms_mod5(f, g, h):
    zero = MultiPoly.zero(F5, 2)
    one = MultiPoly.constant(F5, 2, 1)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == zero
    assert f - g == f + (-g)
    assert one * f == f
    assert zero * f == zero
    assert f + 0 == f and 1 * f == f  # scalar coercion


@given(f=poly_strategy(Q, 2, max_exp=2, max_terms=3),
       g=poly_strategy(Q, 2, max_exp=2, max_terms=3))
def test_ring_axioms_rational(f, g):
    assert f * g == g * f
    assert (f + g) - g == f


@given(f=poly_strategy(F5, 2, max_terms=4))
def test_scalar_minus_polynomial(f):
    # int - MultiPoly goes through __rsub__
    assert 3 - f == -(f - 3)
    assert (3 - f).evaluate((1, 2)) == F5.sub(3, f.evaluate((1, 2)))


@given(f=poly_strategy(F5, 2), g=poly_strategy(F5, 2), pt=points2)
def test_evaluate_is_a_homomorphism(f, g, pt):
    fv, gv = f.evaluate(pt), g.evaluate(pt)
    assert (f + g).evaluate(pt) == F5.add(fv, gv)
    assert (f * g).evaluate(pt) == F5.mul(fv, gv)
    assert (-f).evaluate(pt) == F5.neg(fv)


@given(f=poly_strategy(F5, 2), pt=points2)
def test_evaluate_matches_raw_oracle(f, pt):
    assert f.evaluate(pt) == oracles.eval_terms(f.terms, pt) % 5


@given(f=poly_strategy(F5, 2, max_exp=2, max_terms=3), k=st.integers(0, 5))
def test_pow_is_iterated_multiplication(f, k):
    direct = MultiPoly.constant(F5, 2, 1)
    for _ in range(k):
        direct = direct * f
    assert f**k == direct


def test_pow_rejects_negative():
    with pytest.raises(InputError):
        MultiPoly.variable(F5, 1, 0) ** -1


# -------------------------------------------------------------- multiplication


def _assert_product_matches_oracle(f, g):
    """f * g gives the schoolbook oracle's terms; over Z_p so do both
    Kronecker routes called directly, and over Q so do the packed keys on the
    cleared integer numerators, and every coefficient is in lowest terms."""
    p = getattr(f.field, "p", None)
    want = oracles.mul_terms(f.terms, g.terms, p)
    product = (f * g).terms
    assert product == want
    if not (f.terms and g.terms):
        return
    radix = mpoly._radix(f.terms, g.terms)
    if p:
        assert mpoly._mul_packed(f.terms, g.terms, p, radix) == want
        assert mpoly._mul_bigint(f.terms, g.terms, p, radix) == want
        return
    (num_f, den_f), (num_g, den_g) = mpoly._numerators(f.terms), mpoly._numerators(g.terms)
    assert all(isinstance(c, int) for c in [*num_f.values(), *num_g.values()])
    numerators = mpoly._mul_packed(num_f, num_g, None, radix)
    assert numerators == oracles.mul_terms(num_f, num_g)
    assert {e: Fraction(c, den_f * den_g) for e, c in numerators.items()} == want
    for c in product.values():
        assert type(c) is Fraction and c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1


@st.composite
def _factor_pairs(draw):
    field = draw(st.sampled_from([F2, F3, F31, Q]))
    n_vars = draw(st.sampled_from([1, 2, 3, 6]))
    f = draw(poly_strategy(field, n_vars, max_exp=3, max_terms=6))
    g = f if draw(st.booleans()) else draw(poly_strategy(field, n_vars, max_exp=3, max_terms=6))
    return f, g


@given(_factor_pairs())
def test_mul_routes_match_schoolbook_oracle(pair):
    _assert_product_matches_oracle(*pair)


@pytest.mark.parametrize("field", [F2, F3, F31, Q], ids=["Z2", "Z3", "Z31", "Q"])
@pytest.mark.parametrize("left, right, n_vars", [
    ("0", "x1 + 1", 1),
    ("3", "x1*x2 + 2*x2^3", 2),
    ("x1 + 1", "x1 + 1", 1),  # (x1 + 1)^2 = x1^2 + 1 over Z_2
    ("x1 - x2", "x1 + x2", 2),
    ("x1 + 2*x2^2*x6 + x3*x4*x5 + 1", "x6^3 - x1 + 5", 6),
])
def test_mul_named_cases(field, left, right, n_vars):
    f, g = parse_poly(left, field, n_vars), parse_poly(right, field, n_vars)
    _assert_product_matches_oracle(f, g)
    _assert_product_matches_oracle(f, f)
    if (left, right) == ("x1 - x2", "x1 + x2"):
        assert not f * g - parse_poly("x1^2", field, 2) + parse_poly("x2^2", field, 2)


@pytest.mark.parametrize("left, right", [
    ("1/3*x1 + 2/7", "1/1180591620717411303424*x2 - 5"),  # coprime 3, 7 and 2^70
    # denominators that share factors, and a numerator of 3^50
    ("5/6*x1^2 - 7/10*x1*x2 + 717897987691852588770249/15", "1/4*x2^2 - 9/14*x1"),
    ("1/2*x1 + 1/3*x2", None),  # a square: its lcm 6 clears once
    ("1/3*x1 - 1/5*x2", "1/3*x1 + 1/5*x2"),
])
def test_mul_named_rational_cases(left, right):
    f = parse_poly(left, Q, 2)
    g = f if right is None else parse_poly(right, Q, 2)
    _assert_product_matches_oracle(f, g)
    _assert_product_matches_oracle(g, f)
    if right == "1/3*x1 + 1/5*x2":  # the cross terms cancel, and so does the rest
        assert (f * g).terms == {(2, 0): Fraction(1, 9), (0, 2): Fraction(-1, 25)}
        assert not f * g - parse_poly("1/9*x1^2 - 1/25*x2^2", Q, 2)


@given(f=poly_strategy(Q, 2, max_exp=2, max_terms=4), k=st.integers(0, 6))
def test_rational_pow_is_the_iterated_oracle(f, k):
    want = {(0, 0): Fraction(1)}
    for _ in range(k):
        want = oracles.mul_terms(want, f.terms)
    assert (f**k).terms == want


F65521 = PrimeField(65521)


@st.composite
def _factor_lists(draw):
    # univariate factors, drawn dense, meet the big-int product over both
    # prime fields; sparse ones in more variables take packed keys over Z_65521
    field = draw(st.sampled_from([F5, F65521, Q]))
    n_vars = draw(st.sampled_from([1, 2, 3]))
    if n_vars == 1:
        nonzero = st.integers(1, field.p - 1) if field is not Q else st.fractions(1, 10)
        factor = st.lists(nonzero, min_size=2, max_size=8).map(
            lambda cs: MultiPoly(field, 1, {(e,): c for e, c in enumerate(cs)}))
    else:
        factor = poly_strategy(field, n_vars)
    return field, n_vars, draw(st.lists(factor, max_size=7))


@settings(derandomize=True, max_examples=150)
@given(_factor_lists())
def test_product_is_the_sequential_oracle(case):
    field, n_vars, factors = case
    want = oracles.product_terms([f.terms for f in factors], n_vars, getattr(field, "p", None))
    assert mpoly._product(field, n_vars, iter(factors)).terms == want


@pytest.mark.parametrize("field", [F5, F65521, Q], ids=["Z5", "Z65521", "Q"])
def test_product_of_none_and_of_one(field):
    assert mpoly._product(field, 2, []) == MultiPoly.constant(field, 2, 1)
    f = parse_poly("x1^2 - x2 + 3", field, 2)
    assert mpoly._product(field, 2, [f]) == f


def _dense_quadratic(p):
    """All ten monomials of degree <= 2 in 3 variables, random nonzero
    coefficients: the shape of the chevalley_g benchmark instances."""
    rng = random.Random(p)
    monomials = [e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
    return MultiPoly(PrimeField(p), 3, {e: rng.randrange(1, p) for e in monomials})


@pytest.mark.parametrize("p", [5, 7, 11])
def test_pow_p_minus_1_of_dense_quadratics(p):
    f = _dense_quadratic(p)
    want = {(0, 0, 0): 1}
    for _ in range(p - 1):
        want = oracles.mul_terms(want, f.terms, p)
    assert (f ** (p - 1)).terms == want


def test_mul_huge_exponents_take_packed_keys(monkeypatch):
    # prod D_i is about 4 * 10^18 here: the big-int route would need an int of
    # that many slots, so the guard must send these to the packed keys
    def no_bigint(*args):
        raise AssertionError("big-int route taken for a sparse product")

    monkeypatch.setattr(mpoly, "_mul_bigint", no_bigint)
    for field, p, left, right in [
        (F31, 31, "x1^1000000000*x2^999999999 + x1", "x2^3 + 1"),
        (Q, None, "x1^1000000000*x2^999999999 + 1/7*x1", "x2^3 - 1/2"),
    ]:
        f, g = parse_poly(left, field, 2), parse_poly(right, field, 2)
        started = time.perf_counter()
        assert (f * f).terms == oracles.mul_terms(f.terms, f.terms, p)
        assert (f * g).terms == oracles.mul_terms(f.terms, g.terms, p)
        assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("width, p", [(1, 3), (2, 31), (3, 257), (4, 4093), (5, 65521),
                                      (6, 1048573), (7, 16777213), (8, 268435399)])
def test_mul_bigint_every_slot_width(width, p):
    # operands of 12 and 14 terms in 2 variables of degree <= 3: a slot sums
    # up to 12 products below p^2, which for this p takes `width` bytes, and
    # the range is dense enough that the product itself takes the big int.
    # Widths 3, 5, 6 and 7 are widened to the next machine word on read-back
    rng = random.Random(p)
    field = PrimeField(p)
    box = list(itertools.product(range(4), repeat=2))
    f, g = (MultiPoly(field, 2, {e: rng.choice([1, p - 1, rng.randrange(1, p)])
                                 for e in rng.sample(box, size)}) for size in (12, 14))
    for left, right in [(f, g), (f, f)]:
        assert mpoly._slots(len(left.terms), len(right.terms), p)[0] == width
        radix = mpoly._radix(left.terms, right.terms)
        span = math.prod(radix)
        assert mpoly._mul_route(len(left.terms), len(right.terms), span, p) is mpoly._mul_bigint
        want = oracles.mul_terms(left.terms, right.terms, p)
        assert mpoly._mul_bigint(left.terms, right.terms, p, radix) == want
        assert (left * right).terms == want


def test_mul_route_guard():
    # all four squarings inside f^16 of chevalley_g at p = 17 take the big-int
    # product, the first (100 term pairs over 5^3 two-byte slots) too.  At
    # p = 65521 the same shapes have 5-byte slots read back as 8-byte words,
    # and the first two squarings take packed keys
    for p, routes in [(17, [mpoly._mul_bigint] * 4),
                      (65521, [mpoly._mul_packed] * 2 + [mpoly._mul_bigint] * 2)]:
        f = base = _dense_quadratic(p)
        for route in routes:
            span = math.prod(mpoly._radix(base.terms, base.terms))
            assert mpoly._mul_route(len(base.terms), len(base.terms), span, p) is route
            base = base * base
        assert base == f**16
    huge = parse_poly("x1^1000000000*x2^999999999 + x1", F31, 2)
    span = math.prod(mpoly._radix(huge.terms, huge.terms))
    assert mpoly._mul_route(2, 2, span, 31) is mpoly._mul_packed
    # the guard itself: dense while prod D_i * word <= 4 |a| |b|, with one-byte
    # slots at p = 3 and 8-byte words at p = 65521
    assert mpoly._mul_route(3, 5, 60, 3) is mpoly._mul_bigint
    assert mpoly._mul_route(3, 5, 61, 3) is mpoly._mul_packed
    assert mpoly._mul_route(3, 5, 7, 65521) is mpoly._mul_bigint
    assert mpoly._mul_route(3, 5, 8, 65521) is mpoly._mul_packed
    # a slot past 8 bytes never takes the big int, however dense the range:
    # at p = 2^61 - 1 a slot needs 16 bytes, and at the largest field,
    # Z_(2^31 - 1), ten terms need 9
    assert mpoly._mul_route(10, 10, 1, 2**61 - 1) is mpoly._mul_packed
    p = 2**31 - 1
    assert mpoly._mul_route(10, 10, 1, p) is mpoly._mul_packed
    f = _dense_quadratic(p)
    assert (f * f).terms == oracles.mul_terms(f.terms, f.terms, p)


def test_cross_field_and_cross_arity_ops_fail():
    with pytest.raises(FieldMismatch):
        MultiPoly.variable(F5, 1, 0) + MultiPoly.variable(F2, 1, 0)
    with pytest.raises(ArityMismatch):
        MultiPoly.variable(F5, 1, 0) + MultiPoly.variable(F5, 2, 0)


# -------------------------------------------------------------------- queries


def test_total_degree():
    assert MultiPoly.zero(F5, 2).total_degree() == NEG_INF
    assert MultiPoly.constant(F5, 2, 1).total_degree() == 0
    assert parse_poly("x1^2*x2 + x2^2", F5).total_degree() == 3
    assert parse_poly("x1*x2 + x3", F5).total_degree() == 2


def test_known_expansions():
    x = MultiPoly.variable(F5, 2, 0)
    y = MultiPoly.variable(F5, 2, 1)
    assert (x + y) ** 2 == parse_poly("x1^2 + 2*x1*x2 + x2^2", F5)
    assert ((x + y) ** 2).coefficient_of((1, 1)) == 2
    xq = MultiPoly.variable(Q, 2, 0)
    yq = MultiPoly.variable(Q, 2, 1)
    assert ((yq - xq) ** 2).coefficient_of((1, 1)) == -2
    assert x**0 == MultiPoly.constant(F5, 2, 1)
    f = parse_poly("x1 + 3*x2", F5)
    assert f + (-1) * f == MultiPoly.zero(F5, 2)


def test_fermat_vanishing_evaluation():
    f = parse_poly("x1^2 - x1", F2, 1)
    assert f.evaluate((0,)) == 0 and f.evaluate((1,)) == 0
    g = parse_poly("x1*x2", PrimeField(7), 2)
    assert g.evaluate((2, 3)) == 6


def test_coefficient_of():
    f = parse_poly("2*x1^2*x2 + 4*x2 + 3", F5)
    assert f.coefficient_of((2, 1)) == 2
    assert f.coefficient_of((0, 0)) == 3
    assert f.coefficient_of((5, 5)) == 0
    with pytest.raises(ArityMismatch):
        f.coefficient_of((1,))


def test_evaluate_zero_power_convention():
    # 0**0 = 1: the constant term survives evaluation at the origin
    f = parse_poly("x1^2 + 3", F5)
    assert f.evaluate((0,)) == 3
    with pytest.raises(ArityMismatch):
        f.evaluate((0, 0))


def _oracle_value(f, point):
    """oracles.eval_terms reduced into f's field (exact over Q)."""
    value = Fraction(oracles.eval_terms(f.terms, point))
    if isinstance(f.field, PrimeField):
        p = f.field.p
        return value.numerator * oracles.inv_mod(value.denominator, p) % p
    return value


def _assert_evaluations_match_oracle(f, points):
    for point in points:
        assert f.evaluate(point) == _oracle_value(f, point), (f, point)


@given(data=st.data())
def test_evaluate_memo_matches_oracle_on_point_sequences(data):
    # one polynomial, many calls in a row: every value must be what the
    # term-by-term oracle gives, whatever the previous call left in the memo
    field = data.draw(st.sampled_from([F5, PrimeField(7), Q]), label="field")
    n = data.draw(st.integers(1, 4), label="n_vars")
    f = data.draw(poly_strategy(field, n, max_exp=4, max_terms=8), label="f")
    sets = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True),
                              min_size=n, max_size=n), label="sets")
    points = list(itertools.product(*sets))
    order = data.draw(st.sampled_from(["product", "shuffled", "repeated", "alternating"]),
                      label="order")
    if order == "shuffled":
        points = data.draw(st.permutations(points))
    elif order == "repeated":
        points = [pt for pt in points for _ in range(2)]
    elif order == "alternating":
        heads = [data.draw(st.sampled_from(points))[:-1] for _ in range(2)]
        points = [head + (v,) for v in sets[-1] for head in heads]
    rnd = data.draw(st.randoms(use_true_random=False))
    form = data.draw(st.sampled_from(["canonical", "shifted", "fraction"]), label="form")
    if form == "shifted" and isinstance(field, PrimeField):
        # x and x + k*p are the same coordinate of Z_p
        points = [tuple(x + field.p * rnd.randint(-1, 2) for x in pt) for pt in points]
    elif form == "fraction":
        points = [tuple(Fraction(x, rnd.randint(1, 4)) for x in pt) for pt in points]
    _assert_evaluations_match_oracle(f, points)


@pytest.mark.parametrize("field", [F5, Q], ids=["Z5", "Q"])
@pytest.mark.parametrize(
    "text, n_vars",
    [
        ("0", 3),  # the zero polynomial
        ("3", 2),  # a constant
        ("1/2", 1),
        ("x1^3 + 2*x1 + 1", 1),  # one variable
        ("x1^2*x2 + 3", 2),  # 0**0 = 1 keeps the constant at the origin
        ("x1*x2^3 + x2^5", 2),  # lowest last exponent above 0
        ("x1*x3 + x2^2*x3 + x1^4 + 2", 3),
    ],
)
def test_evaluate_memo_named_cases(field, text, n_vars):
    f = parse_poly(text, field, n_vars)
    coords = [0, 1, -2, Fraction(1, 3), 5]
    points = list(itertools.product(coords, repeat=n_vars))
    _assert_evaluations_match_oracle(f, points + points[::-1] + points)


def test_evaluate_huge_sparse_exponents():
    # the last variable's polynomial is kept sparse: Horner steps by the gaps
    # between exponents, so a degree of 10^9 costs a few steps, not 10^9
    f = parse_poly("x1^1000000000*x2^999999999 + 4*x2^3 + x1", F5, 2)
    started = time.perf_counter()
    for point in [(2, 3), (2, 4), (3, 4), (0, 0), (0, 0)]:
        x, y = point
        want = (pow(x, 10**9, 5) * pow(y, 10**9 - 1, 5) + 4 * y**3 + x) % 5
        assert f.evaluate(point) == want
    assert time.perf_counter() - started < 1.0


def test_evaluate_two_thousand_variables():
    # the memo is built without recursion, whatever the variable count
    n = 2000
    f = MultiPoly(F5, n, {(1,) * n: 1, (0,) * (n - 1) + (2,): 3})
    for point in [(2,) * n, (2,) * (n - 1) + (3,), (3,) + (2,) * (n - 1), (3,) * n]:
        want = (math.prod(point) + 3 * point[-1] ** 2) % 5
        assert f.evaluate(point) == want


def test_evaluate_shared_polynomial_across_threads():
    # two threads walk one grid in opposite directions through one shared
    # polynomial; a memo updated in place instead of replaced whole would
    # let one thread read the other's products half-way through
    f = parse_poly("x1^3*x2*x6 + 2*x1*x2^2*x3*x5 + x2*x3^4*x4 + x4^2*x5^3*x6"
                   " + 3*x1*x5 + x3*x4*x6^2 + 1", PrimeField(101), 6)
    grid = list(itertools.product([1, 2], range(3), range(3), range(3), range(3), range(4)))
    start = threading.Barrier(2, timeout=60)
    wrong: list = []

    def work(points):
        start.wait()
        try:
            for _ in range(10):
                for point in points:
                    if f.evaluate(point) != _oracle_value(f, point):
                        wrong.append(point)
        except Exception as exc:  # a thread's exception would only warn
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(g,)) for g in (grid, grid[::-1])]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def _table_cells(f):
    """Cells of f's power tables, counted as ``mpoly._power_row`` counts them."""
    plan = f._memo[0]
    depths, last_table = plan[3], plan[8]
    tables = [table for *_, table in depths if table is not None] + [last_table]
    rows = [row for table in tables for row in table.values()]
    if not isinstance(f.field, PrimeField):
        return sum(len(row) + 1 + sum(v.numerator.bit_length() + v.denominator.bit_length()
                                      for v in row) // 64 for row in rows)
    return sum(len(row) + 1 for row in rows)


@settings(derandomize=True, max_examples=200)
@given(data=st.data())
def test_evaluate_power_tables_match_oracle(data):
    # grid-order runs, then revisits of earlier points whose rows sit in the
    # tables, against the term-by-term oracle: x and x + p as one coordinate,
    # p near 2^31 in 8 to 10 variables (each product passes 60 bits and is
    # reduced at every depth) and p = 65521 (reduced every other depth), Q on
    # ints mixed with Fractions, the zero polynomial and one term, and cell
    # budgets from none to the default, so that tables fill up
    field = data.draw(st.sampled_from([F5, PrimeField(65521), PrimeField(2**31 - 1), Q]),
                      label="field")
    big = isinstance(field, PrimeField) and field.p > 2**30
    n = data.draw(st.integers(8, 10) if big else st.integers(1, 4), label="n_vars")
    max_terms = data.draw(st.sampled_from([0, 1, 6]), label="max_terms")
    f = data.draw(poly_strategy(field, n, max_exp=5, max_terms=max_terms), label="f")
    pools = []
    for _ in range(n):
        if isinstance(field, PrimeField):
            values = data.draw(st.lists(st.integers(0, field.p - 1), min_size=1,
                                        max_size=2 if big else 3, unique=True))
            pools.append(values + [values[0] + field.p])  # one coordinate, two objects
        else:
            # a power of a 2^70 coordinate takes over 64 bits, so a cell per word
            values = data.draw(st.lists(st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
                                        | st.just(Fraction(2**70 + 1, 3)),
                                        min_size=1, max_size=3, unique=True))
            pools.append(values)
    points = list(itertools.islice(itertools.product(*pools), 300))
    points += data.draw(st.lists(st.sampled_from(points), max_size=40), label="revisits")
    budget = data.draw(st.sampled_from([0, 3, 40, mpoly._POWER_TABLE_CELLS]), label="budget")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpoly, "_POWER_TABLE_CELLS", budget)
        _assert_evaluations_match_oracle(f, points)
    room = f._memo[0][-1][0]
    assert 0 <= room and _table_cells(f) == budget - room


def test_power_tables_bound_the_certificate_memo():
    # the 120 x 120 Cauchy-Davenport certificate over Z_1009 has 28,680 terms
    # of degree 238 in x and y.  Only the last variable keeps a table, 120
    # rows of 239 powers and a key; per-term columns would take 3.4M cells.
    # Evaluated over its grid, the memo peaked at 2.7 MB (2.5 MB when every
    # head change recomputed its powers and kept the deepest products).  The table is full after the first
    # run over y, and each later run only replaces the products, so three
    # runs are traced (tracing every allocation of all 120 takes 25 s)
    field = PrimeField(1009)
    x_plus_y = MultiPoly.variable(field, 2, 0) + MultiPoly.variable(field, 2, 1)
    f = mpoly._product(field, 2, (x_plus_y - c for c in range(1, 477, 2)))
    grid = list(itertools.product(range(0, 240, 2), range(1, 240, 2)))
    tracemalloc.start()
    try:
        values = list(map(f.evaluate, grid[:360]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 << 19  # 3.5 MB
    assert _table_cells(f) == 120 * 240
    values += map(f.evaluate, grid[360:])
    assert _table_cells(f) == 120 * 240
    for i in (0, 7000, len(grid) - 1):
        assert values[i] == _oracle_value(f, grid[i])


def test_evaluate_memo_is_not_part_of_the_value():
    f = parse_poly("x1*x2 + 1", F5)
    g = parse_poly("1 + x1*x2", F5)
    text, code = repr(f), hash(f)
    f.evaluate((1, 2))
    assert f == g and hash(f) == code == hash(g) and repr(f) == text


@pytest.mark.parametrize("field", [PrimeField(7), Q], ids=["Z7", "Q"])
def test_evaluate_fast_path_contract(field):
    # the memo matches a head by object identity, never by ==: what the field
    # refuses stays refused whatever the memo holds, a list point is copied,
    # and the type of a value does not depend on the route that computed it
    f = parse_poly("x1^2*x2 + 3*x1*x2^3 + 1/2", field, 2)
    for bad in [(True, 2), (1.0, 2), (1, True), (1, 2.0)]:
        for point in (bad, list(bad)):
            f.evaluate((1, 2))
            with pytest.raises(BadInput):
                f.evaluate(point)
    point = [4, 5]
    f.evaluate(point)
    point[0] = 3
    assert f.evaluate(point) == _oracle_value(f, (3, 5))
    coords = [0, 1, 2, -4, 10**20 + 3, Fraction(5, 2), Fraction(-3, 4)]
    points = list(itertools.product(coords, repeat=2))
    as_tuples = [f.evaluate(pt) for pt in points]
    mixed = [f.evaluate(list(pt) if i % 2 else pt) for i, pt in enumerate(points)]
    assert mixed == as_tuples == [_oracle_value(f, pt) for pt in points]
    for g in (f, MultiPoly.zero(field, 2), MultiPoly.constant(field, 2, 3)):
        for pt in points + [(0, 0), (7, -7), (10**20, 1)]:
            value = g.evaluate(pt)
            if isinstance(field, PrimeField):
                assert type(value) is int and 0 <= value < field.p
            else:
                assert type(value) is Fraction and value == _oracle_value(g, pt)


def test_rational_value_is_divided_by_gcds_against_den_only():
    # x1^262144 at 7/11 has about 2^20 bits on each side of the fraction; a
    # gcd over the whole value took most of a second per call.  Over the
    # common denominator 15 of the second polynomial only gcds against 15
    # are taken
    x = Fraction(7, 11)
    for text, want in [("x1^262144", x**262144),
                       ("1/3*x1^262144 + 1/5", x**262144 / 3 + Fraction(1, 5))]:
        f = parse_poly(text, Q, 1)
        started = time.perf_counter()
        value = f.evaluate((x,))
        assert time.perf_counter() - started < 0.4
        assert type(value) is Fraction and value == want


@given(data=st.data())
def test_suffix_slices_rebuild_the_polynomial(data):
    # each coefficient times its suffix monomial, summed, is f again: term for
    # term and in value.  A coefficient free of the prefix variables (every
    # one, when n <= s) is a plain constant, any other a nonconstant MultiPoly
    field = data.draw(st.sampled_from([F2, F3, F5, PrimeField(7)]), label="field")
    n = data.draw(st.integers(1, 5), label="n")
    s = data.draw(st.integers(1, 6), label="s")
    f = data.draw(poly_strategy(field, n, max_terms=8), label="f")
    cut = max(n - s, 0)
    slices = mpoly._suffix_slices(f, s)
    total = MultiPoly.zero(field, n)
    for key, coeff in slices.items():
        assert len(key) == n - cut
        if isinstance(coeff, MultiPoly):
            assert (coeff.field, coeff.n_vars) == (field, cut)
            assert coeff.terms.keys() - {(0,) * cut}
            terms = coeff.terms
        else:
            assert coeff
            terms = {(0,) * cut: coeff}
        lifted = MultiPoly(field, n, {e + (0,) * len(key): c for e, c in terms.items()})
        total = total + lifted * MultiPoly(field, n, {(0,) * cut + key: 1})
    assert total.terms == f.terms
    for point in data.draw(st.lists(st.tuples(*[st.integers(0, field.p - 1)] * n), max_size=5),
                           label="points"):
        value = sum((c.evaluate(point[:cut]) if isinstance(c, MultiPoly) else c)
                    * math.prod(map(pow, point[cut:], key))
                    for key, c in slices.items())
        assert value % field.p == f.evaluate(point)


def test_is_restricted():
    f = parse_poly("x1^2*x2 + x1^5 + x2^4", F5)
    # neither x1^5 nor x2^4 dominates (2, 1) in both coordinates
    assert f.is_restricted((2, 1))
    g = parse_poly("x1^2*x2 + x1^2*x2^2", F5)
    assert not g.is_restricted((2, 1))
    assert parse_poly("x1^2*x2 + x1*x2^2", F5).is_restricted((2, 2))
    assert not parse_poly("x1^3*x2^2 + 1", F5).is_restricted((2, 2))
    with pytest.raises(ArityMismatch):
        f.is_restricted((2,))


@given(f=poly_strategy(F5, 2, max_exp=3))
def test_degree_within_bound_implies_restricted(f):
    # dominating d with total degree <= sum(d) forces equality with d
    d = (2, 2)
    if f.total_degree() <= sum(d):
        assert f.is_restricted(d)


def test_sorted_terms_graded_lex():
    f = parse_poly("x1 + x2^2 + x1^2 + 1", F5)
    order = [e for e, _ in sorted_terms(f)]
    assert order == [(2, 0), (0, 2), (1, 0), (0, 0)]


# --------------------------------------------------------------------- text IO


def test_parse_known_forms():
    f = parse_poly("2*x1^2*x2 + 4*x2 + 3", F5)
    assert f.terms == {(2, 1): 2, (0, 1): 4, (0, 0): 3}
    assert parse_poly("x1 - x2", F5).terms == {(1, 0): 1, (0, 1): 4}
    assert parse_poly("-x1", F5).terms == {(1,): 4}
    assert parse_poly("x1*x1", F5).terms == {(2,): 1}  # repeated factors add
    assert parse_poly("2*3", F5).terms == {(0,): 1}  # 6 mod 5
    assert parse_poly("1/2*x1", Q).terms == {(1,): Fraction(1, 2)}
    assert parse_poly("1/2*x1", F5).terms == {(1,): 3}  # 2^-1 = 3 mod 5
    assert parse_poly("0", F5).terms == {}
    assert parse_poly(" x1 + x2 ", F5) == parse_poly("x1+x2", F5)


def test_parse_infers_or_checks_arity():
    assert parse_poly("x3", F5).n_vars == 3
    assert parse_poly("5", F5).n_vars == 1
    assert parse_poly("x1", F5, 4).n_vars == 4
    with pytest.raises(ArityMismatch):
        parse_poly("x4", F5, 3)


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "x0", "x1^", "2**x1", "1/0", "y1", "+", "x1 + + ", "x1^-2", "x-1"],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(SchemaError):
        parse_poly(bad, F5)


def test_format_known_forms():
    assert format_poly(MultiPoly.zero(F5, 2)) == "0"
    assert format_poly(parse_poly("x1 - x2", Q)) == "x1 - x2"
    assert format_poly(parse_poly("x1 - x2", F5)) == "x1 + 4*x2"
    assert format_poly(parse_poly("-1/2 + x1", Q)) == "x1 - 1/2"
    assert format_poly(parse_poly("3*x2*x1", F5)) == "3*x1*x2"


@given(f=poly_strategy(F5, 3))
def test_parse_format_round_trip_mod5(f):
    assert parse_poly(format_poly(f), F5, 3) == f


@given(f=poly_strategy(Q, 2, max_exp=4))
def test_parse_format_round_trip_rational(f):
    assert parse_poly(format_poly(f), Q, 2) == f


@given(f=poly_strategy(F5, 2))
def test_format_is_deterministic_and_idempotent(f):
    text = format_poly(f)
    assert format_poly(parse_poly(text, F5, 2)) == text


def test_polys_are_hashable():
    f = parse_poly("x1 + 1", F5)
    g = parse_poly("1 + x1", F5)
    assert hash(f) == hash(g) and f == g
    assert {f: "a"}[g] == "a"
