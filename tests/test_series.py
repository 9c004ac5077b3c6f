from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from sfuncs.catalog import polylog
from sfuncs.errors import BadConstantTerm, FieldMismatch, NotInvertible
from sfuncs.mseries import MSeries
from sfuncs.numfield import make_field, rationals
from sfuncs.series import (
    Series,
    compose,
    delta,
    dint,
    exp_series,
    log_series,
    power,
    revert,
    shift_down,
    shift_up,
)

from oracles import revert_by_fixed_point, series_arith_by_coefficients

Q = rationals()
CUBIC = make_field([-1, -2, 1, 1])  # discriminant 49


def _ser(coeffs, const=0, field=Q):
    return Series(field, len(coeffs), field.elem(const),
                  tuple(field.elem(c) for c in coeffs))


def test_coeff_access_and_truncation():
    v = _ser([1, 2, 3], const=5)
    assert v.coeff(0) == 5
    assert v.coeff(2) == 2
    with pytest.raises(ValueError):
        v.coeff(4)
    assert v.truncate(2).order == 2
    assert v.truncate(2).coeff(2) == 2


def test_repr_lists_each_nonzero_term_and_the_order():
    v = Series.from_coeffs(CUBIC, 3, [CUBIC.gen(), 0, Fraction(1, 3)])
    assert repr(v) == "Series[(1*x)*z^1 + (1/3)*z^3 + O(z^4)]"
    assert repr(Series.from_coeffs(CUBIC, 2, [])) == "Series[0 + O(z^3)]"


def test_from_coeffs_refuses_a_negative_order_first():
    # the coefficient count was compared with the order first, so a short
    # list at order -5 was blamed for "more coefficients than the stated order"
    for coeffs in ([], [1, 2]):
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            Series.from_coeffs(Q, -5, coeffs)


def test_arithmetic_truncates_to_min_order():
    a = _ser([1, 1, 1, 1])
    b = _ser([2, 0])
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert (a - b).coeff(1) == -1


def test_product_is_cauchy_convolution():
    a = _ser([1, 2, 3, 4], const=1)
    b = _ser([5, 6, 7, 8], const=2)
    c = a * b
    assert c.coeff(0) == 1 * 2
    assert c.coeff(1) == 1 * 5 + 1 * 2  # a0 b1 + a1 b0
    assert c.coeff(3) == 1 * 7 + 1 * 6 + 2 * 5 + 3 * 2  # sum over i+j=3
    assert c.coeff(4) == 1 * 8 + 1 * 7 + 2 * 6 + 3 * 5 + 4 * 2


def test_delta_dint_roundtrip():
    v = _ser([3, -2, Fraction(1, 5), 7])
    assert dint(delta(v)) == v
    assert delta(dint(v)) == v
    w = _ser([1, 1], const=9)
    assert delta(w).coeff(0) == 0  # constant drops
    with pytest.raises(BadConstantTerm):
        dint(w)


def test_exp_log_inverse_pair():
    v = _ser([1, Fraction(-1, 2), 3, 0, Fraction(2, 7), 1])
    assert log_series(exp_series(v)) == v
    u = exp_series(v)
    assert exp_series(log_series(u)) == u


def test_exp_of_log_of_geometric():
    # -log(1-z) integrates the geometric series
    n = 8
    one_minus = _ser([-1] + [0] * (n - 1), const=1)
    v = -log_series(one_minus)
    assert [v.coeff(k) for k in range(1, n + 1)] == [Fraction(1, k) for k in range(1, n + 1)]
    assert exp_series(v) * one_minus == _ser([0] * n, const=1)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
             min_size=4, max_size=4),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
             min_size=4, max_size=4),
)
def test_exp_turns_sums_into_products(a, b):
    u, v = _ser(a), _ser(b)
    assert exp_series(u + v) == exp_series(u) * exp_series(v)


def test_compose_geometric_pair():
    n = 7
    f = _ser([1] * n)  # z/(1-z)
    g = _ser([(-1) ** (k - 1) for k in range(1, n + 1)])  # z/(1+z)
    z = Series.var(Q, n)
    assert compose(f, g) == z
    assert compose(g, f) == z


def test_compose_refuses_an_inner_constant_term():
    with pytest.raises(BadConstantTerm, match="^inner series must have zero constant term$"):
        compose(_ser([1, 1]), _ser([1, 1], const=2))


def test_compose_matches_direct_powers():
    f = _ser([2, -1, 3], const=4)
    g = _ser([1, 1, 0])
    n = 3
    acc = _ser([0] * n, const=4)
    gp = _ser([0] * n, const=1)
    for k in range(1, n + 1):
        gp = gp * g
        acc = acc + gp * f.coeff(k)
    assert compose(f, g) == acc


def test_power_and_inverse():
    v = _ser([1, 2, 3], const=1)
    assert power(v, 3) == v * v * v
    assert power(v, -2) * v * v == _ser([0, 0, 0], const=1)
    assert power(v, 0) == _ser([0, 0, 0], const=1)



def test_negative_power_of_any_invertible_constant():
    y = exp_series(-delta(polylog(2, 6)))
    assert power(-y, -3) * (-y) ** 3 == _ser([0] * 6, const=1)
    v = _ser([1, 2, 3], const=Fraction(2, 3))
    assert power(v, -1) * v == _ser([0, 0, 0], const=1)


def test_negative_power_needs_a_unit_constant():
    with pytest.raises(NotInvertible, match="^cannot invert 0$"):
        power(_ser([1, 2, 3]), -1)
    ring = make_field([-1, 0, 1])  # x^2 - 1: x - 1 is a zero divisor
    v = Series.from_coeffs(ring, 3, [1, 2, 3], const=ring.gen() - 1)
    with pytest.raises(NotInvertible, match="shares a factor"):
        power(v, -2)

def test_revert_signed_catalan():
    n = 8
    f = _ser([1, -1] + [0] * (n - 2))  # z - z^2
    g = revert(f)
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    assert [g.coeff(k) for k in range(1, n + 1)] == catalan
    assert compose(f, g) == Series.var(Q, n)
    assert compose(g, f) == Series.var(Q, n)


def test_revert_signed_catalan_plus():
    g = revert(_ser([1, 1, 0, 0]))  # z + z^2
    assert [g.coeff(k) for k in range(1, 5)] == [1, -1, 2, -5]


def test_revert_needs_unit_linear_term():
    with pytest.raises(NotInvertible, match="^cannot invert 0$"):
        revert(_ser([0, 1, 1]))
    with pytest.raises(NotInvertible):
        revert(_ser([]))
    with pytest.raises(BadConstantTerm):
        revert(_ser([1, 1], const=3))
    # any nonzero linear coefficient is a unit over a field
    v = _ser([2, 1, 1])
    assert compose(v, revert(v)) == Series.var(Q, 3)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=5, max_size=5),
       st.sampled_from([1, -1, 2]))
def test_revert_matches_fixed_point_oracle(tail, lead):
    f = _ser([lead] + tail)
    assert revert(f) == revert_by_fixed_point(f)


def test_revert_over_number_field():
    field = make_field([3, 0, 1])
    x = field.gen()
    f = Series(field, 6, field.zero(),
               (field.one(), x, field.elem(2), x * x, field.one(), x))
    g = revert(f)
    assert compose(f, g) == Series.var(field, 6)


def test_shift_up_down():
    v = _ser([1, 2], const=7)
    up = shift_up(v)
    assert up.order == 3
    assert [up.coeff(k) for k in range(0, 4)] == [0, 7, 1, 2]
    assert shift_down(up) == v
    # shifting a unit up keeps full precision, as needed by coordinate changes
    assert shift_up(_ser([5], const=1)).order == 2


# --- every Series operation goes through MSeries; a dense oracle checks it


_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _elems(field):
    return st.lists(_FRACTIONS, min_size=field.degree,
                    max_size=field.degree).map(field.elem)


def _series_over(field):
    return st.builds(
        lambda cs, c0: Series.from_coeffs(field, len(cs), cs, c0),
        st.lists(_elems(field), max_size=6), _elems(field))


_ANY_SERIES = st.sampled_from([Q, CUBIC]).flatmap(_series_over)


@st.composite
def _series_and_operand(draw):
    v = draw(_ANY_SERIES)
    field = v.field
    other = draw(st.one_of(_series_over(field), st.integers(-5, 5), _FRACTIONS,
                           _elems(field)))
    return v, other


@settings(max_examples=150, deadline=None)
@given(_series_and_operand(), st.booleans())
def test_series_arithmetic_matches_the_dense_oracle(data, swap):
    v, other = data
    a, b = (other, v) if swap else (v, other)
    assert a + b == series_arith_by_coefficients("+", a, b)
    assert a - b == series_arith_by_coefficients("-", a, b)
    assert a * b == series_arith_by_coefficients("*", a, b)
    assert -v == series_arith_by_coefficients("neg", v)
    d = delta(v)
    assert d.order == v.order and d.const == 0
    assert d.coeffs == tuple(c * k for k, c in enumerate(v.coeffs, 1))


@settings(max_examples=60, deadline=None)
@given(_ANY_SERIES, st.booleans())
def test_series_arithmetic_refuses_a_foreign_field_or_a_foreign_type(v, swap):
    other_field = CUBIC if v.field == Q else Q
    mseries = MSeries.from_univariate(v)
    for foreign, error in ((Series.zero(other_field, 2), FieldMismatch),
                           (other_field.elem(1), FieldMismatch),
                           (other_field.zero(), FieldMismatch),
                           ("1", TypeError), (mseries, TypeError)):
        a, b = (foreign, v) if swap else (v, foreign)
        for op in (add, sub, mul):
            with pytest.raises(error):
                op(a, b)
