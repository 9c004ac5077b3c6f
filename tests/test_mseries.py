from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sfuncs.errors import BadConstantTerm, DimensionMismatch, FieldMismatch, NotInvertible
from sfuncs.mseries import MSeries, _sum_of_products, delta_i, exp_m, log_m, power_m
from sfuncs.numfield import make_field, rationals
from sfuncs.series import Series, exp_series, log_series, power

from oracles import (
    BadLinearPart,
    exp_by_powers,
    inverse_by_powers,
    invert_map,
    log_by_powers,
    mseries_mul_by_fractions,
    same_as_checked,
    substitute,
)

Q = rationals()


def _m(d, nvars=2, order=6, field=Q):
    return MSeries.from_dict(field, nvars, order, d)


def test_from_dict_drops_zeros_and_overflow():
    v = _m({(1, 0): 1, (0, 2): 0, (5, 2): 3}, order=6)
    assert v.coeff((0, 2)) == 0
    assert v.coeff((1, 0)) == 1
    assert len(v.terms) == 1  # degree-7 key dropped, zero dropped
    with pytest.raises(ValueError):
        v.coeff((5, 2))  # beyond the truncation order


def test_exponent_length_checked():
    with pytest.raises(DimensionMismatch):
        _m({(1, 0, 0): 1})


@pytest.mark.parametrize("key", [(1.9, 0), (True, 0), (1, Fraction(1))])
def test_from_dict_refuses_an_exponent_that_is_not_an_int(key):
    # int() would read (1.9, 0) and (True, 0) as the term z1
    with pytest.raises(TypeError):
        _m({key: 1})


@pytest.mark.parametrize("key", [(1.9, 0), (True, 0), (1.0, 0)])
def test_coeff_refuses_an_exponent_that_is_not_an_int(key):
    v = _m({(1, 0): 1, (2, 0): 5})
    assert v.coeff([1, 0]) == 1  # a list of ints is an exponent vector
    with pytest.raises(TypeError):
        v.coeff(key)


def test_arithmetic_and_min_order():
    a = _m({(1, 0): 1, (0, 1): 2}, order=6)
    b = _m({(1, 1): 3}, order=4)
    s = a + b
    assert s.order == 4
    assert s.coeff((1, 1)) == 3
    p = a * b
    assert p.order == 4
    assert p.coeff((2, 1)) == 3
    assert p.coeff((1, 2)) == 6
    assert (a - a).is_zero()
    assert (a * Fraction(1, 2)).coeff((0, 1)) == 1


def test_product_truncates_by_total_degree():
    a = _m({(2, 1): 1}, order=4)
    assert (a * a).is_zero()  # degree 6 > 4


def test_substitute_matches_hand_expansion():
    # f(u, v) = u*v + u^2 under u = y1 + y2, v = y2
    f = _m({(1, 1): 1, (2, 0): 1}, order=3)
    u = _m({(1, 0): 1, (0, 1): 1}, order=3)
    v = _m({(0, 1): 1}, order=3)
    g = substitute(f, (u, v))
    # (y1+y2) y2 + (y1+y2)^2 = y1^2 + 3 y1 y2 + 2 y2^2
    assert g.coeff((2, 0)) == 1
    assert g.coeff((1, 1)) == 3
    assert g.coeff((0, 2)) == 2


def test_substitute_rejects_constant_inner():
    f = _m({(1, 0): 1})
    bad = _m({(0, 0): 1, (1, 0): 1})
    with pytest.raises(BadConstantTerm):
        substitute(f, (bad, _m({(0, 1): 1})))


def test_delta_i_weights_by_exponent():
    v = _m({(3, 2): 5, (1, 0): 1})
    assert delta_i(v, 0).coeff((3, 2)) == 15
    assert delta_i(v, 1).coeff((3, 2)) == 10
    assert delta_i(v, 1).coeff((1, 0)) == 0


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-4, 4), max_size=5))
def test_delta_i_product_rule(d):
    d = {k: v for k, v in d.items() if sum(k) > 0}
    u = _m(d, order=5)
    v = _m({(1, 0): 2, (0, 2): 3}, order=5)
    assert delta_i(u * v, 0) == delta_i(u, 0) * v + u * delta_i(v, 0)


def test_exp_log_roundtrip():
    v = _m({(1, 0): 1, (0, 1): Fraction(-1, 2), (1, 1): 3}, order=5)
    assert log_m(exp_m(v)) == v
    u = exp_m(v)
    assert exp_m(log_m(u)) == u
    assert exp_m(_m({})).constant_term == 1


def test_power_m_matches_products():
    v = _m({(1, 0): 2, (0, 1): 1, (0, 0): 1}, order=4)
    assert power_m(v, 3) == v * v * v
    assert power_m(v, -1) * v == _m({(0, 0): 1}, order=4)


def test_to_univariate_roundtrip():
    v = Series.from_coeffs(Q, 5, [1, 2, 3, 4, 5])
    m = MSeries.from_univariate(v)
    assert m.nvars == 1
    assert m.to_univariate() == v


def test_invert_map_closed_form():
    # G with G1 = -y1 exp(y2), G2 = y2 inverts (z1 e^{z2} with sign, z2)
    order = 6
    z1 = _m({(1, 0): 1}, order=order)
    z2 = _m({(0, 1): 1}, order=order)
    comp1 = z1 * exp_m(z2) * -1
    comp2 = z2
    g = invert_map((comp1, comp2))
    assert g[1] == z2
    assert g[0] == z1 * exp_m(-z2) * -1  # G1 = -y1 e^(-y2)
    # two-sided identity
    back = tuple(substitute(c, g) for c in (comp1, comp2))
    assert back[0] == z1 and back[1] == z2
    fwd = tuple(substitute(c, (comp1, comp2)) for c in g)
    assert fwd[0] == z1 and fwd[1] == z2


def test_invert_map_rejects_bad_linear_part():
    z1 = _m({(1, 0): 1})
    z2 = _m({(0, 1): 1})
    with pytest.raises(BadLinearPart):
        invert_map((z1 * 2, z2))
    with pytest.raises(BadLinearPart):
        invert_map((z2, z2))
    with pytest.raises(DimensionMismatch):
        invert_map((z1,))


def test_invert_map_respects_signs():
    order = 5
    z1 = _m({(1, 0): 1}, order=order)
    z2 = _m({(0, 1): 1}, order=order)
    comp = (-z1 + z1 * z2, z2 - z2 * z1 * z1)
    g = invert_map(comp)
    back = tuple(substitute(c, g) for c in comp)
    assert back[0] == z1 and back[1] == z2


def test_invert_map_components_divisible_by_own_variable():
    z1 = _m({(1, 0): 1})
    z2 = _m({(0, 1): 1})
    with pytest.raises(BadLinearPart):
        invert_map((z1, z2 - z1 * z1))


def test_negative_power_m_of_any_invertible_constant():
    y = exp_m(_m({(1, 0): -1, (0, 1): 2, (1, 1): Fraction(1, 4)}, order=5))
    one = _m({(0, 0): 1}, order=5)
    assert power_m(-y, -3) * (-y) ** 3 == one
    v = _m({(0, 0): Fraction(-2, 3), (1, 0): 1, (1, 1): 5}, order=5)
    assert power_m(v, -1) * v == one


def test_negative_power_m_needs_a_unit_constant():
    with pytest.raises(NotInvertible, match="^cannot invert 0$"):
        power_m(_m({(1, 0): 1}), -1)
    ring = make_field([-1, 0, 1])  # x^2 - 1: x - 1 is a zero divisor
    v = _m({(0, 0): ring.gen() - 1, (0, 1): 1}, field=ring)
    with pytest.raises(NotInvertible, match="shares a factor"):
        power_m(v, -2)


# --- the graded core against the sum-of-powers bodies it replaced

F = make_field([1, 1, 1])  # x^2 + x + 1


@st.composite
def _zero_constant_series(draw, nvars_range=(1, 2)):
    field = draw(st.sampled_from([Q, F]))
    nvars = draw(st.integers(*nvars_range))
    order = draw(st.integers(0, 6))
    coords = st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=field.degree,
        max_size=field.degree,
    )
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * nvars), coords, max_size=8))
    d = {k: field.elem(c) for k, c in terms.items() if any(k)}
    return MSeries.from_dict(field, nvars, order, d)


_unit_constants = st.sampled_from([1, -1, 2, Fraction(-3, 5)])


@settings(max_examples=60, deadline=None)
@given(_zero_constant_series(), _unit_constants)
def test_graded_core_matches_sum_of_powers(v, c):
    assert exp_m(v) == exp_by_powers(v)
    assert log_m(v + 1) == log_by_powers(v + 1)
    assert power_m(v + c, -1) == inverse_by_powers(v + c)


@pytest.mark.parametrize("field", [Q, F], ids=["Q", "x2+x+1"])
def test_graded_core_on_sparse_grades_matches_sum_of_powers(field):
    # grades 3 and 7 only, and grade 5 alone: the recurrences skip the zero grades
    x = field.gen()
    for terms in ({(3, 0): 1, (1, 2): x, (4, 3): Fraction(-2, 3)}, {(0, 5): x + 1}):
        v = MSeries.from_dict(field, 2, 13, terms)
        assert exp_m(v) == exp_by_powers(v)
        assert log_m(v + 1) == log_by_powers(v + 1)
        assert power_m(v + 2, -1) == inverse_by_powers(v + 2)
        assert power_m(v + 2, -3) == power_m(power_m(v + 2, 3), -1)


@settings(max_examples=40, deadline=None)
@given(_zero_constant_series(nvars_range=(1, 1)), _unit_constants, st.data())
def test_one_variable_wrappers_match_series(w, c, data):
    # exp_series, log_series, power and Series.__mul__ run on the MSeries
    # core, so each is checked against an oracle outside it: sums of powers
    # and the Fraction convolution
    x = data.draw(_zero_constant_series(nvars_range=(1, 1)).filter(
        lambda s: s.field == w.field))
    v, u = w.to_univariate(), x.to_univariate() + 1
    m = w + c
    assert exp_series(v) == exp_by_powers(w).to_univariate()
    assert log_series(v + 1) == log_by_powers(w + 1).to_univariate()
    inv = inverse_by_powers(m)
    assert power(v + c, -1) == inv.to_univariate()
    assert power(v + c, -2) == mseries_mul_by_fractions(inv, inv).to_univariate()
    cube = mseries_mul_by_fractions(mseries_mul_by_fractions(m, m), m)
    assert power(v + c, 3) == cube.to_univariate()
    assert (v + c) * u == mseries_mul_by_fractions(m, x + 1).to_univariate()
    const = MSeries.from_dict(x.field, 1, x.order, {(0,): c})
    assert u * c == c * u == mseries_mul_by_fractions(x + 1, const).to_univariate()


# --- the series product against a dict convolution on Fraction coordinates

CUBIC = make_field([-1, -2, 1, 1])  # disc 49


@st.composite
def _product_operands(draw, count=2):
    """count series in 1-3 variables over one field, each sparse (a few keys
    of any degree) or dense (every key up to a degree), at unequal orders,
    with constant terms and denominators 1..12 that need an lcm."""
    field = draw(st.sampled_from([Q, F, CUBIC]))
    nvars = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 4, 5, 7, 12]))
    elem = st.lists(coord, min_size=field.degree, max_size=field.degree).map(field.elem)
    keys = st.tuples(*[st.integers(0, 5)] * nvars)

    def operand():
        order = draw(st.integers(0, 6))
        if draw(st.booleans()):
            terms = draw(st.dictionaries(keys, elem, max_size=6))
        else:
            top = draw(st.integers(0, min(order, 4)))
            dense = list(_keys_up_to(nvars, top))
            terms = dict(zip(dense, draw(st.lists(elem, min_size=len(dense),
                                                  max_size=len(dense)))))
        return MSeries.from_dict(field, nvars, order, terms)

    return tuple(operand() for _ in range(count))


def _keys_up_to(nvars, top):
    if nvars == 0:
        yield ()
        return
    for first in range(top + 1):
        for rest in _keys_up_to(nvars - 1, top - first):
            yield (first,) + rest


@settings(max_examples=150, deadline=None)
@given(_product_operands())
def test_product_matches_the_fraction_convolution(operands):
    a, b = operands
    assert a * b == mseries_mul_by_fractions(a, b)
    assert b * a == mseries_mul_by_fractions(b, a)
    # (a + b)(a - b): the cross terms a b and -b a cancel key by key
    s, d = a + b, a - b
    assert s * d == mseries_mul_by_fractions(s, d)
    assert s * d == mseries_mul_by_fractions(a, a) - mseries_mul_by_fractions(b, b)


@settings(max_examples=100, deadline=None)
@given(_product_operands(count=6), st.integers(1, 3), st.sampled_from([1, -1, 2, -6]))
def test_sum_of_products_matches_the_fraction_convolutions(ops, n, scale):
    # the rows of each key are gathered across the pairs, at unequal orders
    pairs = list(zip(ops[0:2 * n:2], ops[1:2 * n:2]))
    want = mseries_mul_by_fractions(*pairs[0])
    for x, y in pairs[1:]:
        want = want + mseries_mul_by_fractions(x, y)
    assert _sum_of_products(pairs, scale) == want * Fraction(1, scale)


def test_sum_of_products_refuses_a_foreign_operand():
    # operands over the first's own field object skip the check; any other
    # field or variable count is still refused, in either place of a pair
    x = MSeries.var(Q, 2, 3, 0)
    for foreign, error in ((MSeries.var(F, 2, 3, 1), FieldMismatch),
                           (MSeries.var(Q, 3, 3, 1), DimensionMismatch)):
        for pair in ((x, foreign), (foreign, x)):
            with pytest.raises(error):
                _sum_of_products([(x, x), pair])
    y = MSeries.var(Q, 2, 3, 1)
    assert _sum_of_products([(x, x), (x, y)]) == x * x + x * y


def test_products_that_cancel_to_zero():
    for field in (Q, F, CUBIC):
        x = field.gen()
        for nvars in (1, 2, 3):
            e = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
            p = MSeries.from_dict(field, nvars, 5, {e[0]: x + 2, e[-1]: Fraction(1, 3)})
            q = MSeries.from_dict(
                field, nvars, 4, {e[0]: 2 * x - 1, tuple(3 * c for c in e[-1]): 1})
            zero = MSeries.zero(field, nvars, 4)
            # p q - q p: every coefficient of the sum is zero
            got = p * q - q * p
            by_fractions = mseries_mul_by_fractions(p, q) - mseries_mul_by_fractions(q, p)
            assert got == zero == by_fractions
            # (1 + p)(1 - p) = 1 - p^2: the linear terms cancel
            one_p = p * 0 + 1
            u, v = one_p + p, one_p - p
            assert u * v == mseries_mul_by_fractions(u, v) == one_p - p * p
            assert not (u * v).coeff(e[0])
            # (z1 + c z_n)(z1 - c z_n) = z1^2 - c^2 z_n^2: the z1 z_n key cancels
            if nvars > 1:
                mixed = tuple(a + b for a, b in zip(e[0], e[-1]))
                u = MSeries.from_dict(field, nvars, 3, {e[0]: 1, e[-1]: x + 2})
                v = MSeries.from_dict(field, nvars, 3, {e[0]: 1, e[-1]: -x - 2})
                assert u * v == mseries_mul_by_fractions(u, v)
                assert (u * v).coeff(mixed) == 0 and len((u * v).terms) == 2
            # degrees above the order drop, and so does everything else
            high = MSeries.from_dict(field, nvars, 4, {tuple(3 * c for c in e[0]): x})
            assert (high * high).is_zero() and mseries_mul_by_fractions(high, high).is_zero()
            assert (p * zero).is_zero() and (zero * p).is_zero()


def test_products_are_the_checked_elements():
    # _sum_of_products builds each coefficient with FieldElem._normalized
    for field in (Q, F, CUBIC, make_field([1] * 7)):
        g = field.gen() + Fraction(2, 3)
        p = MSeries.from_dict(field, 2, 5, {(1, 0): g, (0, 1): Fraction(5, 4), (1, 1): g * g})
        q = MSeries.from_dict(field, 2, 5, {(0, 0): 1, (2, 0): g / 7, (0, 1): -g})
        pq, qq = mseries_mul_by_fractions(p, q), mseries_mul_by_fractions(q, q)
        for got, want in ((p * q, pq), (p * p, mseries_mul_by_fractions(p, p)),
                          (_sum_of_products([(p, q), (q, q)], -6), (pq + qq) * Fraction(-1, 6))):
            assert got == want and got.terms
            assert all(same_as_checked(c) for _, c in got.terms)


# --- the constant term is terms[0] when present


@pytest.mark.parametrize("coeffs", [{}, {(1, 0): 1}, {(0, 0): Fraction(2, 3), (0, 2): 5},
                                    {(0, 0): CUBIC.gen(), (1, 1): 1}, {(0, 1): 1, (3, 0): 2}])
def test_constant_term_is_the_zero_key_without_a_dict(coeffs):
    w = MSeries.from_dict(CUBIC, 2, 3, coeffs)
    got = w.constant_term
    assert "as_dict" not in vars(w)
    assert got == w.coeff((0, 0)) == coeffs.get((0, 0), 0)


def test_repr_lists_each_term_and_the_order():
    w = MSeries.from_dict(CUBIC, 2, 3, {(0, 0): 2, (1, 2): CUBIC.gen()})
    assert repr(w) == "MSeries[(2)*z^[0, 0] + (1*x)*z^[1, 2]; order 3]"
    assert repr(MSeries.zero(CUBIC, 2, 1)) == "MSeries[0; order 1]"
