"""Sparse polynomial layer: construction, ring ops, text round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from combnull import (
    ArityMismatch,
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

F5 = PrimeField(5)
F2 = PrimeField(2)
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


def test_cross_field_and_cross_arity_ops_fail():
    with pytest.raises(FieldMismatch):
        MultiPoly.variable(F5, 1, 0) + MultiPoly.variable(F2, 1, 0)
    with pytest.raises(ArityMismatch):
        MultiPoly.variable(F5, 1, 0) + MultiPoly.variable(F5, 2, 0)


def test_scale():
    f = parse_poly("x1 + 2", F5)
    assert f.scale(3) == parse_poly("3*x1 + 6", F5)
    assert f.scale(0) == MultiPoly.zero(F5, 1)


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
