from __future__ import annotations

import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from sfuncs.catalog import CyclotomicSpec, abelian_generator, from_log_poly, polylog
from sfuncs.errors import (
    BadConstantTerm,
    DimensionMismatch,
    NotSymmetric,
    TooLarge,
)
from sfuncs import framing, numfield
from sfuncs.framing import MAX_WORK, Kappa, frame_elementary, frame_f, frame_multi
from sfuncs.mseries import MSeries
from sfuncs.numfield import make_field, rationals
from sfuncs.series import Series, compose, delta, dint, exp_series, revert, shift_up
from sfuncs.sfunc import check_sfunction, generate_crt

from oracles import (
    frame_f_by_reversion,
    frame_multi_by_determinant,
    frame_multi_by_inversion,
    same_as_checked,
)

Q = rationals()
F = make_field([1, 1, 1])  # x^2 + x + 1
CUBIC = make_field([-1, -2, 1, 1])  # disc 49


def _field_series(order=7):
    x = F.gen()
    return Series.from_coeffs(
        F, order, [x, 1 - x, Fraction(3, 2) * x, F.elem(2), x * x, F.one(), x][:order]
    )


def test_framed_dilog_signed_central_binomials():
    wt = frame_elementary(polylog(2, 12))
    for k in range(1, 13):
        expect = Fraction((-1) ** (k - 1) * comb(2 * k - 1, k - 1))
        assert wt.coeff(k) * k * k == expect


def test_two_paths_agree():
    for w in (polylog(2, 10), _field_series()):
        assert frame_elementary(w) == frame_elementary(w, via_reversion=True)


def test_transport_oracle():
    # the framed series is -dint(delta(w) composed with the inverted coordinate)
    w = _field_series()
    y = exp_series(-delta(w))
    g = revert(-shift_up(y))
    assert frame_elementary(w) == -dint(compose(delta(w), g))


def test_frame_f_zero_is_identity():
    for w in (polylog(2, 9), _field_series()):
        assert frame_f(w, 0) == w


def test_elementary_is_minus_frame_one():
    for w in (polylog(2, 9), _field_series()):
        assert frame_elementary(w) == -frame_f(w, 1)


def test_frame_f_independent_expansion_oracle():
    # expand W - (delta W)^2 directly, then substitute the reverted coordinate
    w = polylog(2, 5)
    y = exp_series(-delta(w))
    zf = shift_up(y * y)  # (-Y)^2 = Y^2
    back = revert(zf)
    dw = delta(w)
    direct = compose(w - dw * dw, back)
    assert frame_f(w, 2) == direct


def _generic_series(field, order):
    # non-integral coefficients with every basis coordinate in play
    x = field.gen()
    coeffs = [(x * k + 1 - x * x) * Fraction(1, k * k) for k in range(1, order + 1)]
    return Series.from_coeffs(field, order, coeffs)


@pytest.mark.parametrize("f", range(-3, 4))
@pytest.mark.parametrize("order", [1, 2, 7, 12])
def test_frame_f_matches_reversion_framing(f, order):
    cubic_w = from_log_poly(CUBIC, [1, -CUBIC.gen(), 1], 2, order)
    for w in (
        polylog(2, order),
        _generic_series(Q, order),
        cubic_w,
        _generic_series(CUBIC, order),
        _generic_series(F, order),
    ):
        assert frame_f(w, f) == frame_f_by_reversion(w, f)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=9
    ),
    st.integers(-3, 3),
)
def test_frame_f_matches_reversion_framing_random_integral(coords, f):
    w = Series.from_coeffs(F, len(coords), [F.elem(list(c)) for c in coords])
    assert frame_f(w, f) == frame_f_by_reversion(w, f)


def test_elementary_framing_is_an_involution():
    for w in (polylog(2, 8), _field_series()):
        assert frame_elementary(frame_elementary(w)) == w


def test_framing_preserves_two_function_property():
    w = polylog(2, 12)
    for f in (-1, 2):
        assert check_sfunction(frame_f(w, f), 2).passed


def test_framing_requires_zero_constant():
    w = polylog(2, 6) + 1
    with pytest.raises(BadConstantTerm):
        frame_f(w, 1)
    with pytest.raises(BadConstantTerm):
        frame_elementary(w)


# --- kappa matrices


def test_kappa_parse_add_sigma():
    k = Kappa.parse("1,0;0,-2")
    assert k.n == 2
    assert k.sigma(0) == -1 and k.sigma(1) == 1
    s = k + Kappa.parse("0,1;1,0")
    assert s.entries == ((1, 1), (1, -2))


def test_kappa_validation():
    with pytest.raises(NotSymmetric):
        Kappa.parse("1,2;3,4")
    with pytest.raises(DimensionMismatch):
        Kappa(((1, 0),))
    with pytest.raises(DimensionMismatch):
        Kappa.parse("1") + Kappa.parse("1,0;0,1")


@pytest.mark.parametrize("entries", [
    ((2.7,),), ((1.0,),), ((True,),), ((1, 0.0), (0.0, 1)), ((0, True), (True, 0)),
    ((Fraction(1),),), (("1",),),
])
def test_kappa_refuses_entries_that_are_not_ints(entries):
    # Kappa(((2.7,),)) once read as ((2,),)
    with pytest.raises(TypeError):
        Kappa(entries)


def test_frame_f_refuses_a_float_or_bool_framing():
    # frame_f(w, 1.5) and frame_f(w, True) once framed by 1
    w = polylog(2, 5)
    for f in (1.5, 1.0, True, False):
        with pytest.raises(TypeError):
            frame_f(w, f)
    assert Kappa(([1, -2], [-2, 0])).entries == ((1, -2), (-2, 0))


# --- multivariate framing


def _dilog_monomial(e, order, weight=1):
    n = len(e)
    d = {}
    k = 1
    while sum(e) * k <= order:
        d[tuple(ei * k for ei in e)] = Fraction(weight, k * k)
        k += 1
    return MSeries.from_dict(Q, n, order, d)


def test_single_variable_matrix_framing_matches_frame_f():
    v = polylog(2, 8)
    mv = MSeries.from_univariate(v)
    for entry in (1, -2):
        out = frame_multi(mv, Kappa(((entry,),)))
        assert out.to_univariate() == frame_f(v, entry)
        assert out.to_univariate() == frame_f_by_reversion(v, entry)


def test_matrix_framings_compose_additively():
    w = (_dilog_monomial((1, 0), 6) + _dilog_monomial((0, 1), 6) * 2
         + _dilog_monomial((1, 1), 6) * 3)
    ka = Kappa.parse("1,0;0,1")
    kb = Kappa.parse("0,1;1,-2")
    assert frame_multi(frame_multi(w, ka), kb) == frame_multi(w, ka + kb)
    assert frame_multi(w, Kappa.parse("0,0;0,0")) == w


def test_frame_multi_guards():
    w = _dilog_monomial((1, 1), 6)
    with pytest.raises(DimensionMismatch):
        frame_multi(w, Kappa.parse("1"))
    with pytest.raises(BadConstantTerm):
        frame_multi(w + 1, Kappa.parse("1,0;0,1"))


def test_frame_multi_preserves_two_function_property():
    w = _dilog_monomial((1, 0), 8) + _dilog_monomial((1, 1), 8)
    out = frame_multi(w, Kappa.parse("1,1;1,0"))
    assert check_sfunction(out, 2).passed


def _symmetric_kappa(upper, n):
    # upper lists the entries (i, j), i <= j, row by row
    it = iter(upper)
    ent = {(i, j): next(it) for i in range(n) for j in range(i, n)}
    return Kappa(tuple(
        tuple(ent[min(i, j), max(i, j)] for j in range(n)) for i in range(n)
    ))


@st.composite
def _multi_framing_case(draw):
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 6))
    field = draw(st.sampled_from([Q, F, CUBIC]))
    key = st.tuples(*[st.integers(0, order)] * n).filter(
        lambda k: 0 < sum(k) <= order
    )
    # equal, dividing and coprime denominators, so that the rows of
    # frame_multi are aligned to a common lcm
    coord = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 4, 5, 7, 9, 12]))
    coords = st.lists(coord, min_size=field.degree, max_size=field.degree)
    terms = draw(st.dictionaries(key, coords, min_size=1, max_size=6))
    w = MSeries.from_dict(
        field, n, order, {k: field.elem(c) for k, c in terms.items()}
    )
    upper = draw(st.lists(st.integers(-2, 2), min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    return w, _symmetric_kappa(upper, n)


@settings(max_examples=60, deadline=None)
@given(_multi_framing_case())
def test_frame_multi_matches_inversion_framing_random(case):
    w, kappa = case
    assert frame_multi(w, kappa) == frame_multi_by_inversion(w, kappa)


def _criterion_4_series(order):
    # the first W of acceptance criterion 4, at another order
    rng = random.Random(20240)
    w = MSeries.zero(Q, 2, order)
    for e in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)):
        c = rng.randint(-3, 3) or 1
        w = w + _dilog_monomial(e, order, c)
    return w


def _criterion_4_kappas():
    # the three generators and their six sums of two (a generator twice too)
    gens = [Kappa.parse("1,0;0,0"), Kappa.parse("0,0;0,1"), Kappa.parse("0,1;1,0")]
    return gens + [a + b for i, a in enumerate(gens) for b in gens[i:]]


def test_frame_multi_matches_inversion_framing_on_criterion_4_kappas():
    kappas = _criterion_4_kappas()
    assert len(set(kappas)) == 9
    w = _criterion_4_series(8)
    for kappa in kappas:
        assert frame_multi(w, kappa) == frame_multi_by_inversion(w, kappa), kappa


def test_frame_multi_walk_with_terms_above_m_and_holes_in_e():
    # No term of W has degree 1, so for each k the box below k holds m with
    # E_m = 0 (m = (1, 0), (0, 1), (1, 1), ... are no sums of terms), and
    # terms j with some j_i > m_i (j = (3, 0) against m = (2, 2)); kappa
    # "0,1;1,0" gives <k, kappa j> = 0 for some j and k as well
    for field in (Q, CUBIC):
        g = field.gen() + 2  # nonzero over Q too, where gen() is 0
        w = MSeries.from_dict(field, 2, 7, {
            (3, 0): g, (0, 2): 1 - g, (2, 1): -g * g, (1, 3): Fraction(2, 3)})
        assert len(w.terms) == 4
        for text in ("1,0;0,1", "0,1;1,0", "2,-1;-1,0", "1,1;1,1"):
            kappa = Kappa.parse(text)
            assert frame_multi(w, kappa) == frame_multi_by_inversion(w, kappa), text
    w = MSeries.from_dict(Q, 3, 5, {(2, 0, 1): 1, (0, 3, 0): -2, (1, 1, 0): Fraction(1, 2)})
    for upper in ([1, 0, 1, 0, 0, 1], [0, 1, -1, 2, 0, 1]):
        kappa = _symmetric_kappa(upper, 3)
        assert frame_multi(w, kappa) == frame_multi_by_inversion(w, kappa), kappa


def test_frame_multi_zero_kappa_returns_w_exactly():
    x = F.gen()
    terms = {(1, 0, 0): x, (0, 2, 1): 1 - x, (1, 1, 1): Fraction(3, 4), (0, 0, 5): 2}
    w = MSeries.from_dict(F, 3, 5, terms)
    assert frame_multi(w, _symmetric_kappa([0] * 6, 3)) == w


def test_frame_multi_of_zero_is_zero():
    zero = MSeries.zero(F, 2, 5)
    for kappa in (Kappa.parse("1,2;2,-1"), Kappa.parse("-3,0;0,2")):
        assert frame_multi(zero, kappa) == zero


def test_frame_multi_order_one_only_signs_the_linear_part():
    w = MSeries.from_dict(Q, 3, 1, {(1, 0, 0): 2, (0, 1, 0): -3, (0, 0, 1): 5})
    kappa = _symmetric_kappa([1, 2, -2, 0, 1, 3], 3)  # sigma = (-1, 1, -1)
    expect = MSeries.from_dict(Q, 3, 1, {(1, 0, 0): -2, (0, 1, 0): -3, (0, 0, 1): -5})
    assert frame_multi(w, kappa) == expect
    assert frame_multi_by_inversion(w, kappa) == expect


def test_frame_multi_with_a_variable_absent_from_w():
    # W lacks z_2, so y_1 = z_1 / phi_1(z_1) and the output is frame_f in z_1
    v = polylog(2, 7)
    w = MSeries.from_dict(Q, 2, 7, {(k, 0): v.coeff(k) for k in range(1, 8)})
    kappa = Kappa.parse("2,1;1,-1")
    out = frame_multi(w, kappa)
    assert out == frame_multi_by_inversion(w, kappa)
    framed = frame_f(v, 2).coeffs
    assert out.as_dict == {(k, 0): c for k, c in enumerate(framed, 1) if c}
    framed = frame_f_by_reversion(v, 2).coeffs
    assert out.as_dict == {(k, 0): c for k, c in enumerate(framed, 1) if c}


# --- one live variable: D = delta**2 W, and each c_k is divided by |k|**2


def _one_variable_series(draw, field, order):
    # a 2-function (the integral walk) or a series that is none: Li2 + z/2
    # and ((g + 2)/3) z fail the denominator test, W_k = 1/k passes it and falls
    # back (the fixed path over Q below _FIXED_BITS, the rows path else)
    small = st.integers(-2, 2)
    x = field.gen() * draw(small) + draw(small)
    z = Series.var(field, order)
    return draw(st.sampled_from([
        lambda: polylog(2, order, field) * draw(small.filter(bool)),
        lambda: from_log_poly(field, [1, x, draw(small)], 2, order),
        lambda: generate_crt(field, x, 2, order),
        lambda: polylog(2, order, field) + z * Fraction(1, 2),
        lambda: polylog(1, order, field),
        lambda: Series.from_coeffs(field, order, [(field.gen() + 2) / 3]),
    ]))()


@st.composite
def _separated_case(draw):
    field = draw(st.sampled_from([Q, F, CUBIC]))
    order = draw(st.integers(1, 6))
    w1, w2 = (_one_variable_series(draw, field, order) for _ in range(2))
    f, g = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    return w1, w2, f, g, draw(st.sampled_from([framing._FIXED_BITS, 0]))


@settings(max_examples=80, deadline=None)
@given(_separated_case())
def test_one_live_variable_equals_the_determinant_form(case):
    # W1(z1) + W2(z2) with kappa = diag(f, g) has two live variables and
    # takes D = ad - bc; W1 alone takes D = delta**2 W.  The keys of z1
    # alone in the first are the framing of W1 by f
    w1, w2, f, g, bits = case
    assume(not w1.is_zero() and not w2.is_zero())
    w = _at_monomial(w1, (1, 0), w1.order) + _at_monomial(w2, (0, 1), w1.order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(framing, "_FIXED_BITS", bits)  # 0: the rows path over Q too
        both, alone = frame_multi(w, Kappa(((f, 0), (0, g)))), frame_f(w1, f)
    assert {k[0]: c for k, c in both.terms if not k[1]} == {
        k: c for k, c in enumerate(alone.coeffs, 1) if c}
    assert alone == frame_f_by_reversion(w1, f)


def test_one_live_variable_ignores_the_kappa_entries_off_its_variable():
    # W in z2 alone: delta_1 W = 0, so only kappa_11 enters, and the output
    # is frame_f(W, kappa_11) in z2, with kappa_01 != 0
    g = CUBIC.gen()
    for v in (from_log_poly(CUBIC, [1, -g, 1], 2, 7), _generic_series(CUBIC, 7)):
        w = _at_monomial(v, (0, 1), 7)
        for text in ("1,-2;-2,3", "0,1;1,-1"):
            kappa = Kappa.parse(text)
            out = frame_multi(w, kappa)
            assert out == frame_multi_by_inversion(w, kappa), text
            want = frame_f(v, kappa.entries[1][1])
            assert want == frame_f_by_reversion(v, kappa.entries[1][1])
            assert out.as_dict == {(0, k): c for k, c in enumerate(want.coeffs, 1) if c}


def test_frame_f_builds_no_series_product(monkeypatch):
    # frame-uni's three series at order 28: M = (delta**2 W) is built from
    # the terms of W, and its determinant is its one entry, so no product
    # or inverse is made, charged or not
    ws = [from_log_poly(CUBIC, [1, -CUBIC.gen(), 1], 2, 28),
          abelian_generator(CyclotomicSpec(5, {1: 1, 4: 1}, 2), 28), polylog(2, 28)]
    fs = (-2, -1, 1, 2, 3)
    want = [frame_f_by_reversion(w, f) for w in ws for f in fs]

    def refuse(*args):
        raise AssertionError("a one-variable framing built a series product")

    for name in ("_sum_of_products", "power_m"):
        monkeypatch.setattr(framing, name, refuse)
    for name in ("mul", "sum_of_products", "inverse"):
        monkeypatch.setattr(framing._Budget, name, refuse)
    assert [frame_f(w, f) for w in ws for f in fs] == want


def test_frame_f_of_li2_at_order_225_is_under_the_cap():
    # with one variable only the walk is charged: 7,951,810 units at order
    # 225, under the cap (order 226 is refused before any work, see
    # test_frame_multi_refuses_a_walk_above_the_cap).  frame_f(Li2, 1) is
    # minus the elementary framing: k**2 c_k = (-1)**k C(2k - 1, k - 1)
    assert framing._walk_cost(Q, 225, 1, list(range(1, 226))) == 7_951_810
    framed = frame_f(polylog(2, 225), 1)
    assert [framed.coeff(k) * k * k for k in range(1, 226)] == [
        (-1) ** k * comb(2 * k - 1, k - 1) for k in range(1, 226)]


# --- one set-up formula at every variable count: D = det M


@st.composite
def _bordered_minor_case(draw):
    # W in 1 to 4 live variables, one part per variable, each a one-variable
    # 2-function or a series that is none (_one_variable_series) at z_i; with
    # cross, z_n enters W only through z_1 z_n.  kappa has zero, negative and
    # odd diagonal entries, and with a zero row one row and column of zeros
    field = draw(st.sampled_from([Q, F, CUBIC]))
    n = draw(st.integers(1, 4))
    order = draw(st.integers(1, 5 if n < 3 else 3))
    monomials = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if n > 1 and draw(st.booleans()):
        monomials[-1] = (1,) + (0,) * (n - 2) + (1,)
    w = MSeries.zero(field, n, order)
    for e in monomials:
        w = w + _at_monomial(_one_variable_series(draw, field, order), e, order)
    upper = draw(st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    rows = [list(row) for row in _symmetric_kappa(upper, n).entries]
    if draw(st.integers(0, 3)) == 0:
        zero = draw(st.integers(0, n - 1))
        for i in range(n):
            rows[zero][i] = rows[i][zero] = 0
    kappa = Kappa(tuple(map(tuple, rows)))
    return w, kappa, draw(st.sampled_from([framing._FIXED_BITS, 0]))


@settings(max_examples=80, deadline=None)
@given(_bordered_minor_case())
def test_the_bordered_minor_equals_both_oracles(case):
    # D = det M against D = B det(I - kappa S) and against inverting the
    # coordinate map; _FIXED_BITS = 0 sends Q to the rows path as well
    w, kappa, bits = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(framing, "_FIXED_BITS", bits)
        out = frame_multi(w, kappa)
    assert out == frame_multi_by_determinant(w, kappa)
    assert out == frame_multi_by_inversion(w, kappa)


def test_two_live_variables_take_no_series_inverse(monkeypatch):
    # with two live variables D = ad - bc: two products and no inverse, on
    # the nine criterion-4 framings at order 11
    w, kappas = _criterion_4_series(11), _criterion_4_kappas()
    want = [frame_multi_by_determinant(w, kappa) for kappa in kappas]

    def refuse(*args):
        raise AssertionError("two live variables took a series inverse")

    monkeypatch.setattr(framing._Budget, "inverse", refuse)
    monkeypatch.setattr(framing, "power_m", refuse)
    assert [frame_multi(w, kappa) for kappa in kappas] == want


def test_frame_multi_walks_only_the_variables_of_w():
    # W = z1 in 7 variables with kappa = 0: the keys of z2..z7 are never
    # walked, so order 12 frames at once instead of walking 13**7 keys
    w = MSeries.from_dict(Q, 7, 12, {(1,) + (0,) * 6: 1})
    t0 = time.monotonic()
    out = frame_multi(w, Kappa(((0,) * 7,) * 7))
    assert time.monotonic() - t0 < 2
    assert out == w


def _sum_of_variables(nvars, order):
    return MSeries.from_dict(
        Q, nvars, order, {tuple(int(i == j) for j in range(nvars)): 1 for i in range(nvars)})


def test_frame_multi_walks_the_simplex_of_sixteen_variables():
    # W = z1 + ... + z16 at order 2 with kappa = 0: 152 output keys, where
    # the box walk visited 3**16
    w = _sum_of_variables(16, 2)
    t0 = time.monotonic()
    out = frame_multi(w, Kappa(((0,) * 16,) * 16))
    assert time.monotonic() - t0 < 2
    assert out == w


def test_frame_multi_refuses_a_walk_above_the_cap():
    ones = Kappa(((1,) * 16,) * 16)
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        frame_multi(_sum_of_variables(16, 5), ones)
    # one variable: the walk of Li2 at order N costs 10 C(N + 2, 2) +
    # 4 C(N + 2, 3) units, above the cap from N = 226 on
    assert 10 * comb(227, 2) + 4 * comb(227, 3) < MAX_WORK
    assert 10 * comb(228, 2) + 4 * comb(228, 3) > MAX_WORK
    with pytest.raises(TooLarge):
        frame_f(polylog(2, 226), 1)
    assert time.monotonic() - t0 < 1  # refused before any series work
    # a variable absent from W does not count
    w = MSeries.from_dict(Q, 2, 150, {(1, 0): 1})
    assert frame_multi(w, Kappa.parse("1,0;0,1")).as_dict[(1, 0)] == -1


def test_frame_multi_charges_the_determinant_to_the_cap(monkeypatch):
    # W = z1 + ... + z16 at order 3, kappa_ij = (i j mod 5) + [i = j]: the
    # walk costs about 0.42 M units and the elimination of M about 0.69 M (with
    # kappa all ones every row J_i - J_i0 is constant, and it costs 87 units)
    assert framing._walk_cost(Q, 3, 16, [1] * 16) < 500_000
    monkeypatch.setattr(framing, "MAX_WORK", 500_000)
    kappa = Kappa(tuple(tuple(i * j % 5 + (i == j) for j in range(1, 17)) for i in range(1, 17)))
    with pytest.raises(TooLarge):
        frame_multi(_sum_of_variables(16, 3), kappa)


def test_one_sum_of_products_costs_its_products_separately():
    # ad - bc in _unit_det is one call; it is charged what its products cost
    # one at a time, so every refusal point stays where it was
    g = CUBIC.gen()
    v = MSeries.from_dict(CUBIC, 3, 4, {(1, 0, 0): g, (0, 1, 0): 1, (0, 1, 1): g / 2})
    w = v * v + 1
    pairs = [(w, v * k) for k in (1, g, 3)] + [(w, w), (v, w)]
    apart, together = framing._Budget(CUBIC, 4, 3), framing._Budget(CUBIC, 4, 3)
    want = sum((apart.mul(a, b) for a, b in pairs), MSeries.zero(CUBIC, 3, 4))
    assert together.sum_of_products(pairs) == want
    assert together.left == apart.left == MAX_WORK - sum(
        3 * len(a.terms) * len(b.terms) for a, b in pairs)


def test_frame_multi_keeps_the_scaling_inputs_under_the_cap():
    # the walks of frame_f(w, 3) over the cubic at order 144 and of
    # W = z1 + z2 with kappa = I at order 48 (0.71 s on the integral walk and
    # 0.45 s on the fixed path, CPU medians of 3 on a 2-core x86-64 KVM guest)
    assert framing._walk_cost(CUBIC, 144, 1, list(range(1, 145))) < 0.9 * MAX_WORK
    assert framing._walk_cost(Q, 48, 2, [1, 1]) < 0.9 * MAX_WORK



def test_frame_multi_odd_negative_diagonal():
    v = _generic_series(F, 6)
    mv = MSeries.from_univariate(v)
    for entry in (-1, -3):
        out = frame_multi(mv, Kappa(((entry,),))).to_univariate()
        assert out == frame_f(v, entry)
        assert out == frame_f_by_reversion(v, entry)
    w = _criterion_4_series(6)
    for text in ("-1,0;0,0", "-3,1;1,2", "-1,-2;-2,-1"):
        kappa = Kappa.parse(text)
        assert kappa.sigma(0) == -1
        assert frame_multi(w, kappa) == frame_multi_by_inversion(w, kappa), kappa


def test_frame_multi_outputs_are_the_checked_elements():
    # frame_multi builds each output coefficient with FieldElem._normalized
    for field in (Q, F, CUBIC, make_field([1] * 7)):
        g = field.gen() + Fraction(1, 3)
        w = MSeries.from_dict(field, 2, 4, {
            (1, 0): g, (0, 1): Fraction(-3, 2), (1, 1): g * g, (2, 1): 1})
        for text in ("1,0;0,1", "0,1;1,-2"):
            out = frame_multi(w, Kappa.parse(text))
            assert out.terms and all(same_as_checked(c) for _, c in out.terms)


def test_framings_over_q_never_convolve(monkeypatch):
    # over Q every sum of products is one integer sum: a change that sends
    # degree 1 back through the convolution and fold fails here, in numfield
    # and in framing, which binds both names when it loads
    li2, w = polylog(2, 12), _criterion_4_series(8)
    kappas = [Kappa.parse(t) for t in ("1,0;0,0", "0,1;1,0", "1,1;1,1", "2,-1;-1,0")]
    want = [frame_f_by_reversion(li2, 2)] + [frame_multi_by_inversion(w, k) for k in kappas]

    def refuse(*args):
        raise AssertionError("a product over Q went through the convolution")

    for module in (numfield, framing):
        monkeypatch.setattr(module, "_convolve_into", refuse, raising=False)
        monkeypatch.setattr(module, "_fold", refuse, raising=False)
    assert [frame_f(li2, 2)] + [frame_multi(w, k) for k in kappas] == want


# --- over Q the walk runs on integers over one fixed denominator, or on rows


@st.composite
def _q_framing_case(draw):
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 8))
    key = st.tuples(*[st.integers(0, order)] * n).filter(lambda k: 0 < sum(k) <= order)
    coef = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 60))
    w = MSeries.from_dict(Q, n, order, draw(st.dictionaries(key, coef, min_size=1, max_size=7)))
    # the first diagonal entry is odd, so that sigma = -1 is in every case
    upper = [draw(st.sampled_from([-3, -1, 1, 3]))] + draw(st.lists(
        st.integers(-3, 3), min_size=n * (n + 1) // 2 - 1, max_size=n * (n + 1) // 2 - 1))
    return w, _symmetric_kappa(upper, n)


def _forced(bits, w, kappa):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(framing, "_FIXED_BITS", bits)
        return frame_multi(w, kappa)


@settings(max_examples=80, deadline=None)
@given(_q_framing_case())
def test_frame_multi_fixed_denominator_and_rows_paths_agree(case):
    w, kappa = case
    fixed, rows = _forced(float("inf"), w, kappa), _forced(0, w, kappa)
    assert fixed.terms == rows.terms
    assert all(same_as_checked(c) for _, c in fixed.terms)


def test_frame_multi_rows_path_over_q_matches_the_oracles():
    w = _criterion_4_series(6)
    for text in ("1,0;0,0", "-1,2;2,1"):
        kappa = Kappa.parse(text)
        assert _forced(0, w, kappa) == frame_multi_by_inversion(w, kappa)
    li2 = MSeries.from_univariate(polylog(2, 9))
    assert _forced(0, li2, Kappa(((3,),))).to_univariate() == frame_f_by_reversion(
        polylog(2, 9), 3)


class _Path(Exception):
    pass


def _paths(w, kappa, stop=("integral", "fixed", "rows")) -> list:
    """The paths of the exp tables frame_multi walks for (w, kappa), with a
    second "rows" for a walk that continued on rows, up to the first one on
    a path in stop, where the call is stopped."""
    paths, real = [], framing._exp_table

    def record(field, k, sk, dots, below, path):
        paths.append(path)
        if path in stop:
            raise _Path(path)
        table, how = real(field, k, sk, dots, below, path)
        if how != path:
            paths.append(how)
            if how in stop:
                raise _Path(how)
        return table, how

    with pytest.MonkeyPatch.context() as mp, pytest.raises(_Path):
        mp.setattr(framing, "_exp_table", record)
        frame_multi(w, kappa)
    return paths


def test_frame_multi_chooses_the_path_from_field_degree_and_denominators():
    # 2-functions walk integral over every field: the criterion-4 W at order
    # 11, framed once and twice, and Li2 below and above the fixed bound
    # (Dw = lcm(1..224) has 313 bits: 224 * 313 bits is above it)
    c4, gens = _criterion_4_series(11), ("1,0;0,0", "0,0;0,1", "0,1;1,0")
    steps = [frame_multi(c4, Kappa.parse(text)) for text in gens]
    for w in [c4, *steps]:
        for text in gens:
            assert _paths(w, Kappa.parse(text)) == ["integral"]
    for order in (28, 224):
        li2 = MSeries.from_univariate(polylog(2, order))
        assert _paths(li2, Kappa(((2,),))) == ["integral"]
    # z1 + z2 passes the denominator test, but E_(0,2) of k = (0,3) is 9/2:
    # that key continues on rows from its remainder, and over Q below the
    # bound the rest of the call walks fixed
    z1z2, eye = MSeries.from_dict(Q, 2, 54, {(1, 0): 1, (0, 1): 1}), Kappa.parse("1,0;0,1")
    assert _paths(z1z2, eye, stop=("fixed", "rows")) == ["integral"] * 3 + ["rows"]
    # over a larger field the keys that are not integral fall back to rows
    for field in (F, CUBIC, make_field([1] * 5)):
        for w, kappa in ((MSeries.from_dict(field, 2, 6, {(1, 0): 1, (0, 1): field.gen()}), eye),
                         (MSeries.from_univariate(_generic_series(field, 5)), Kappa(((2,),)))):
            walked = _paths(w, kappa, stop=("fixed", "rows"))
            assert walked[-1] == "rows" and set(walked[:-1]) == {"integral"}


def test_the_fixed_path_takes_order_times_log2_dw_below_the_bound(monkeypatch):
    # W = z/3 with f = 1: 1261 log2 3 = 1998.6 bits is below _FIXED_BITS =
    # 2000, 1262 log2 3 = 2000.2 is not; 1067 log2 5 = 2477.5.  The cap is
    # lifted, as the walk stops at its first table
    monkeypatch.setattr(framing, "MAX_WORK", 10**12)
    for den, order, path in ((3, 1261, "fixed"), (3, 1262, "rows"), (5, 1067, "rows")):
        w = MSeries.from_univariate(Series.from_coeffs(Q, order, [Fraction(1, den)]))
        assert _paths(w, Kappa(((1,),))) == [path], (den, order)


def test_a_huge_denominator_is_sent_to_rows_without_its_power():
    # Dw has 10,000 digits: Dw**1000 would have 33 million bits
    den = 10**9999 + 7
    w = MSeries.from_univariate(Series.from_coeffs(Q, 1000, [Fraction(1, den)]))
    t0 = time.monotonic()
    assert _paths(w, Kappa(((1,),))) == ["rows"]
    assert time.monotonic() - t0 < 0.1


def test_frame_multi_switches_to_the_fixed_path_after_the_first_remainder(monkeypatch):
    # z1 + z2 at order 12: k = (0,1) and (0,2) are integral; (0,3), (0,4) and
    # (0,5) continue on rows from their remainders at m = 2, 3 and 2, and the
    # first of these past half its degree, (0,5), sends every later key to
    # the fixed walk; the result equals the oracle
    w, kappa = MSeries.from_dict(Q, 2, 12, {(1, 0): 1, (0, 1): 1}), Kappa.parse("1,0;0,1")
    calls = _exp_tables(monkeypatch)
    assert frame_multi(w, kappa) == frame_multi_by_inversion(w, kappa)
    assert [p for _, p in calls] == (["integral"] * 3 + ["rows", "integral"] * 2 + ["rows"]
                                     + ["fixed"] * (comb(14, 2) - 6))


def test_frame_multi_without_terms_in_the_exp_takes_no_factorial(monkeypatch):
    # no term of W has kappa j != 0: no walk, and the rows path at any order
    def refuse(*args):
        raise _Path("fixed")

    monkeypatch.setattr(framing, "perm", refuse)
    monkeypatch.setattr(framing, "factorial", refuse)
    z = Series.var(Q, 100_000)
    t0 = time.monotonic()
    assert frame_f(z, 0) == z
    for kappa in (Kappa(((2,),)), Kappa.parse("1,0;0,1")):
        assert frame_multi(MSeries.from_dict(Q, kappa.n, 10**7, {}), kappa).terms == ()
    assert time.monotonic() - t0 < 2


def test_frame_multi_fixed_path_builds_no_factorial_table():
    # W = z with f = 1 walks at order 300 on the fixed path in 0.3 MB; a
    # table of every a! / (a - b)! with b <= a <= 300 takes 6 MB more
    tracemalloc.start()
    try:
        framed = frame_f(Series.var(Q, 300), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert framed.truncate(30) == frame_f(Series.var(Q, 30), 1)


# --- the integral walk: E_m on integer coordinates, one exact division per entry


def _exp_tables(mp, refuse_integral=False) -> list:
    """Record the (k, path) of every exp table frame_multi walks, and a
    second (k, "rows") for a walk that continued on rows from a remainder.
    With refuse_integral the rows path is forced: every integral walk runs
    on rows from its start and is recorded as "rows", and _FIXED_BITS = 0
    keeps the call off the fixed walk."""
    calls, real = [], framing._exp_table
    if refuse_integral:
        mp.setattr(framing, "_FIXED_BITS", 0)

    def record(field, k, sk, dots, below, path):
        path = "rows" if refuse_integral and path == "integral" else path
        calls.append((k, path))
        table, how = real(field, k, sk, dots, below, path)
        if how != path:
            calls.append((k, how))
        return table, how

    mp.setattr(framing, "_exp_table", record)
    return calls


def _per_key(mp) -> None:
    """Force the walk per key on one live variable: the path that frames every
    k at once returns None, as it does when phi's walk meets a remainder."""
    mp.setattr(framing, "_one_variable", lambda *args: None)


def _at_monomial(v: Series, e: tuple, order: int) -> MSeries:
    # v(z**e) in len(e) variables
    return MSeries.from_dict(v.field, len(e), order, {
        tuple(ei * k for ei in e): v.coeff(k) for k in range(1, order // sum(e) + 1)})


@st.composite
def _two_function_case(draw):
    field = draw(st.sampled_from([Q, F, CUBIC]))
    n, order = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    small = st.integers(-2, 2)
    w = MSeries.zero(field, n, order)
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: 0 < sum(e) <= order))
        top, x = order // sum(e), field.gen() * draw(small) + draw(small)
        v = draw(st.sampled_from([
            lambda: polylog(2, top, field) * draw(small.filter(bool)),
            lambda: from_log_poly(field, [1, x, draw(small)], 2, top),
            lambda: generate_crt(field, x, 2, top),
        ]))()
        w = w + _at_monomial(v, e, order)
    # the first diagonal entry is odd, so that sigma = -1 is in every case
    upper = [draw(st.sampled_from([-3, -1, 1, 3]))] + draw(st.lists(
        small, min_size=n * (n + 1) // 2 - 1, max_size=n * (n + 1) // 2 - 1))
    return w, _symmetric_kappa(upper, n)


@settings(max_examples=25, deadline=None)
@given(_two_function_case())
def test_integral_walk_equals_the_rows_path_and_the_oracles(case):
    w, kappa = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(framing, "_FIXED_BITS", 0)  # over Q too
        calls = _exp_tables(mp)
        integral = frame_multi(w, kappa)
        walked = {path for _, path in calls}
        _exp_tables(mp, refuse_integral=True)
        rows = frame_multi(w, kappa)
    # each g |j| W_j is an integer row, so every walk starts integral
    in_exp = any(any(sum(map(int.__mul__, row, j)) for row in kappa.entries) for j, _ in w.terms)
    assert ("integral" in walked) == in_exp and "fixed" not in walked
    assert integral.terms == rows.terms
    assert all(same_as_checked(c) for _, c in integral.terms)
    if w.nvars == 1:
        v = w.to_univariate()
        assert integral.to_univariate() == frame_f_by_reversion(v, kappa.entries[0][0])
    else:
        assert integral == frame_multi_by_inversion(w, kappa)


def _raised(order, j):
    # Li2 with c_j raised by 1/j**2: g |j| W_j = 2 at j, still an integer row
    return Series.from_coeffs(Q, order, [
        Fraction(1 + (k == j), k * k) for k in range(1, order + 1)])


def test_integral_walk_redoes_only_the_key_whose_table_is_not_integral(monkeypatch):
    # E_29 of k = 30 holds 2 * 30 / 29 from the raised term: k = 30 alone
    # falls back, after its integral walk met the remainder (the walk per key)
    w = _raised(30, 29)
    monkeypatch.setattr(framing, "_FIXED_BITS", 0)
    _per_key(monkeypatch)
    calls = _exp_tables(monkeypatch)
    assert frame_f(w, 2) == frame_f_by_reversion(w, 2)
    assert [k for k, path in calls if path == "rows"] == [(30,)]
    assert [k for k, path in calls if path == "integral"] == [(k,) for k in range(1, 31)]


def test_each_key_is_walked_once(monkeypatch):
    # a key that meets a remainder continues on rows in the same walk: z1 + z2
    # over Q at order 12, and the raised Li2 with f = 2 at the default bound
    # (30 log2 lcm(1..30) = 1,233 bits, so the fixed path is eligible), where
    # k = 30 ends on rows (the walk per key)
    keys, real = [], framing._exp_table
    _per_key(monkeypatch)

    def count(field, k, *args):
        keys.append(k)
        return real(field, k, *args)

    monkeypatch.setattr(framing, "_exp_table", count)
    w, kappa = MSeries.from_dict(Q, 2, 12, {(1, 0): 1, (0, 1): 1}), Kappa.parse("1,0;0,1")
    assert frame_multi(w, kappa) == frame_multi_by_inversion(w, kappa)
    assert len(keys) == len(set(keys)) == comb(14, 2) - 1
    keys.clear()
    v = _raised(30, 29)
    assert frame_f(v, 2) == frame_f_by_reversion(v, 2)
    assert keys == [(k,) for k in range(1, 31)]


def test_integral_walk_falls_back_per_key_on_a_series_that_is_no_two_function(monkeypatch):
    # z1 + z2 over the cubic with kappa = I: E_m = k**m / m!, integral for
    # some k only
    w = MSeries.from_dict(CUBIC, 2, 6, {(1, 0): 1, (0, 1): 1})
    kappa = Kappa.parse("1,0;0,1")
    calls = _exp_tables(monkeypatch)
    assert frame_multi(w, kappa) == frame_multi_by_inversion(w, kappa)
    assert len([k for k, path in calls if path == "rows"]) == 19
    assert len([k for k, path in calls if path == "integral"]) == comb(8, 2) - 1


def test_a_denominator_not_dividing_gcd_j_sends_the_call_to_rows(monkeypatch):
    # |j| W_j at j = (2, 2) is 4 c: with c = 1/8 its denominator 2 divides
    # g = 2, with c = 1/16 the denominator 4 does not
    kappa = Kappa.parse("1,1;1,2")
    for c, path in ((Fraction(1, 8), "integral"), (Fraction(1, 16), "rows")):
        w = MSeries.from_dict(CUBIC, 2, 5, {(1, 0): CUBIC.gen(), (0, 2): 1, (2, 2): c})
        with pytest.MonkeyPatch.context() as mp:
            calls = _exp_tables(mp)
            assert frame_multi(w, kappa) == frame_multi_by_inversion(w, kappa)
        assert calls[0][1] == path
        if path == "rows":
            assert {p for _, p in calls} == {"rows"}
    # over Q above the bound: Li2 + z/2 has |j| W_j = 3/2 at j = 1
    w = polylog(2, 12) + Series.var(Q, 12) * Fraction(1, 2)
    monkeypatch.setattr(framing, "_FIXED_BITS", 0)
    calls = _exp_tables(monkeypatch)
    assert frame_f(w, -1) == frame_f_by_reversion(w, -1)
    assert {p for _, p in calls} == {"rows"}


def test_frame_uni_series_walk_integral_without_fallback(monkeypatch):
    # the criterion-3 series over the cubic, Q(zeta_5) and Q at order 28, on
    # the walk per key
    g = CUBIC.gen()
    series = {
        "integral": [from_log_poly(CUBIC, [1, -g, 1], 2, 28),
                     abelian_generator(CyclotomicSpec(5, {1: 1, 4: 1}, 2), 28),
                     polylog(2, 28)],
    }
    for path, ws in series.items():
        for w in ws:
            for f in (-2, 3):
                with pytest.MonkeyPatch.context() as mp:
                    _per_key(mp)
                    calls = _exp_tables(mp)
                    frame_f(w, f)
                assert [p for _, p in calls] == [path] * 28, (path, f)


def test_integral_walk_over_q_sums_integers_only(monkeypatch):
    # Li2 with f = 2 at order 40, off the fixed path: no convolution or fold
    li2 = polylog(2, 40)
    want = frame_f(li2, 2)

    def refuse(*args):
        raise AssertionError("the integral walk over Q went through the convolution")

    monkeypatch.setattr(framing, "_FIXED_BITS", 0)
    monkeypatch.setattr(framing, "_convolve_into", refuse, raising=False)
    monkeypatch.setattr(framing, "_fold", refuse, raising=False)
    calls = _exp_tables(monkeypatch)
    assert frame_f(li2, 2) == want
    assert {p for _, p in calls} == {"integral"}


def _sum_rows_scales(mp) -> list:
    """Record the scale of every framing._sum_rows call: |m| for a step of
    the rows walk, the sign of the output key times |k|**2 for an output
    sum."""
    scales, real = [], framing._sum_rows

    def record(field, rows, scale=1):
        scales.append(scale)
        return real(field, rows, scale)

    mp.setattr(framing, "_sum_rows", record)
    return scales


def test_a_key_that_falls_back_resumes_the_rows_walk_at_the_remainder(monkeypatch):
    # c_29 raised by 1/29**2, over Q and over the cubic: the table of k = 30
    # first fails at m = 29, and its rows walk starts there from the integer
    # entries E_0..E_28: one rows step (|m| = 29) and one output sum, where
    # walking the table again would take 29 steps.  _FIXED_BITS = 0 keeps
    # the call over Q off the fixed path.  The walk per key.
    monkeypatch.setattr(framing, "_FIXED_BITS", 0)
    _per_key(monkeypatch)
    g = CUBIC.gen()
    for w in (_raised(30, 29), from_log_poly(CUBIC, [1, -g, 1], 2, 30) + Series.from_coeffs(
            CUBIC, 30, [0] * 28 + [CUBIC.elem(Fraction(1, 29 * 29)), 0])):
        with pytest.MonkeyPatch.context() as mp:
            calls, scales = _exp_tables(mp), _sum_rows_scales(mp)
            framed = frame_f(w, 2)
        assert framed == frame_f_by_reversion(w, 2)
        assert [k for k, path in calls if path == "rows"] == [(30,)]
        assert scales == [29, 900]


# --- the packed walk: over a field of degree >= 2, E_m in signed slots of b bits


def _packed_sum(d, dots, a, e, b):
    """The packed sum of dot * a * e over the terms, its 2d - 1 slots read
    back, and the exact convolution they must equal."""
    packed = sum(dot * framing._pack(x, b) * framing._pack(y, b) for dot, x, y in zip(dots, a, e))
    want = [sum(dot * x[i] * y[slot - i] for dot, x, y in zip(dots, a, e)
                for i in range(d) if 0 <= slot - i < d) for slot in range(2 * d - 1)]
    return framing._unpack(packed, b, 2 * d - 1), want


@pytest.mark.parametrize("d, terms, top", [(3, 3, 1), (3, 7, 5), (4, 31, 63), (5, 255, 51)])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_slots_hold_the_largest_sum_the_head_allows(d, terms, top, sign):
    # every weight, coordinate and entry at the largest size _head allows
    # them, all of one sign: the sum fills its middle slot to within a
    # factor of 2 of the signed slot's range, and reads back exactly
    abits, ebits = 40, 70
    dots = [sign * top] * terms
    b = framing._head(abits, dots, d) + ebits
    a = [[2**abits - 1] * d] * terms
    e = [[2**ebits - 1] * d] * terms
    got, want = _packed_sum(d, dots, a, e, b)
    assert got == want
    assert abs(want[d - 1]) >= 2 ** (b - 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 30), st.integers(1, 80), st.integers(1, 90), st.data())
def test_packed_sums_read_back_exactly(d, terms, abits, ebits, data):
    dots = data.draw(st.lists(st.integers(-50, 50), min_size=terms, max_size=terms))
    b = framing._head(abits, dots, d) + ebits
    a, e = (data.draw(st.lists(st.lists(st.integers(1 - 2**bits, 2**bits - 1), min_size=d,
                                        max_size=d), min_size=terms, max_size=terms))
            for bits in (abits, ebits))
    got, want = _packed_sum(d, dots, a, e, b)
    assert got == want
    assert framing._unpack(framing._pack(a[0], b), b, d) == a[0]


Z5 = make_field([1] * 5)  # Q(zeta_5)
WIDE = make_field([1, -1000, 1])  # x^2 - 1000x + 1: a fold adds 1000 x_2 to x_1


def _walk_slots(field, abits, dots, sk, t):
    """The packed walk's slot width b for a key of degree sk whose entries
    lie in [-2**t, 2**t), and its constants (P(2**b), bias, keep)."""
    b = framing._walk_head(field, abits, dots, sk) + t
    return b, framing._slots(field, b, t)


@pytest.mark.parametrize("field", [Z5, CUBIC, WIDE])
@pytest.mark.parametrize("terms, top, sk", [(1, 1, 1), (7, 5, 30), (31, 63, 1000)])
@pytest.mark.parametrize("t", [70, 700])
@pytest.mark.parametrize("sign", [1, -1])
def test_reduction_mod_p_at_2_to_the_b_is_the_fold(field, terms, top, sk, t, sign):
    # every weight, coordinate and entry at the largest size the walk's head
    # allows, all of one sign: the balanced residue of the packed sum mod
    # P(2**b) holds the folded coordinates in its d slots, with % alone and,
    # past _PADDED_BITS, after the linear steps
    d, abits = field.degree, 40
    dots = [sign * top] * terms
    b, (modulus, _, _) = _walk_slots(field, abits, dots, sk, t)
    assert modulus == sum(c * 2 ** (i * b) for i, c in enumerate(field.minpoly))
    packed = framing._pack([2**abits - 1] * d, b) * framing._pack([-(2**t)] * d, b)
    s = sum(dot * packed for dot in dots)
    want = numfield._fold(framing._unpack(s, b, 2 * d - 1), field._reduction)
    assert framing._unpack(framing._reduce(s, b, field.minpoly, modulus), b, d) == list(want)


@pytest.mark.parametrize("field", [F, Z5, CUBIC, WIDE])
@pytest.mark.parametrize("sk", [3, 1000, 10**6 + 1])
def test_the_packed_check_passes_exactly_the_divisible_entries_in_bounds(field, sk):
    # the d balanced slots of f, the top one unbounded, are its coordinates:
    # the check passes exactly when |m| <= |k| divides each and every
    # quotient lies in [-2**t, 2**t), and then returns them packed.  The
    # last case carries: |m| v = 2**b + r, with r < |m| and v = ceil(2**b / |m|),
    # which the head's bits(|k|) keep above 2**t
    d, t = field.degree, 20
    b, (_, bias, keep) = _walk_slots(field, 1, [1], sk, t)
    edges = [-(2**t) - 1, -(2**t), 1 - 2**t, -1, 0, 1, 2**t - 1, 2**t, 2**b, -(2**b)]
    for sm in sorted({1, 2, 3, sk - 1, sk}):
        cases = [[sm * v + r if j == i else sm * u for j in range(d)]
                 for i in range(d) for v in edges for u in (0, 2**t - 1, -(2**t)) for r in (0, 1)]
        cases.append([sm * -(-(2**b) // sm) - 2**b, 1] + [0] * (d - 2))
        for c in cases:
            f = framing._pack(c, b)
            coords = framing._unpack(f, b, d)
            passes = all(x % sm == 0 and -(2**t) <= x // sm < 2**t for x in coords)
            q = framing._quotient(f, sm, bias, keep)
            assert (q is not None) == passes, (sm, c)
            assert q is None or q == framing._pack([x // sm for x in coords], b)


def test_the_packed_check_at_its_edges_and_on_a_divisible_sum_of_slots():
    # quotients -2**t and 2**t - 1 pass, 2**t and -2**t - 1 widen; and the
    # coordinates (1, 2) with |m| = 3 at an even width b, where 3 divides
    # 1 + 2 * 2**b but not the coordinate 1, fail
    t = next(t for t in (20, 21) if _walk_slots(F, 1, [1], 3, t)[0] % 2 == 0)
    b, (_, bias, keep) = _walk_slots(F, 1, [1], 3, t)
    for v, passes in ((-(2**t), True), (2**t - 1, True), (2**t, False), (-(2**t) - 1, False)):
        for c in ([v, 0], [0, v], [v, v]):
            q = framing._quotient(3 * framing._pack(c, b), 3, bias, keep)
            assert q == (framing._pack(c, b) if passes else None), (v, c)
    f = framing._pack([1, 2], b)
    assert f % 3 == 0 and framing._quotient(f, 3, bias, keep) is None


def test_the_packed_walk_over_degree_two_and_more_never_folds(monkeypatch):
    # the criterion-3 series over the disc-49 cubic and Q(zeta_5) at order 28
    # with the five f on the walk per key: no fold or convolution anywhere, at
    # least 99% of the entries pass the packed check, and the result is the
    # rows path's
    _per_key(monkeypatch)
    g = CUBIC.gen()
    ws = [from_log_poly(CUBIC, [1, -g, 1], 2, 28),
          abelian_generator(CyclotomicSpec(5, {1: 1, 4: 1}, 2), 28)]
    fs = (-2, -1, 1, 2, 3)
    with pytest.MonkeyPatch.context() as mp:
        _exp_tables(mp, refuse_integral=True)
        want = [frame_f(w, f) for w in ws for f in fs]
    checks, real = [], framing._quotient

    def check(*args):
        checks.append(real(*args))
        return checks[-1]

    def refuse(*args):
        raise AssertionError("the packed walk went through the convolution or the fold")

    for module in (numfield, framing):
        monkeypatch.setattr(module, "_convolve_into", refuse, raising=False)
        monkeypatch.setattr(module, "_fold", refuse, raising=False)
    monkeypatch.setattr(framing, "_quotient", check)
    assert [frame_f(w, f) for w in ws for f in fs] == want
    assert sum(q is not None for q in checks) >= 0.99 * len(checks) > 0


_UNBALANCED = textwrap.dedent("""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))
    from sfuncs import framing
    from sfuncs.catalog import from_log_poly
    from sfuncs.errors import TooLarge
    from sfuncs.numfield import make_field

    def unbalanced(s, b, minpoly, modulus):  # _reduce without its balancing step
        while b > framing._PADDED_BITS and not -1 <= (hi := s >> (len(minpoly) - 1) * b) <= 0:
            s -= sum(p * hi << i * b for i, p in enumerate(minpoly) if p)
        return s % modulus

    framing._reduce = unbalanced
    cubic = make_field([-1, -2, 1, 1])
    try:
        framing.frame_f(from_log_poly(cubic, [1, -cubic.gen(), 1], 2, 28), -2)
    except TooLarge as e:
        print("refused:", e)
""")


def test_a_planted_fold_fault_is_refused_at_the_widest_slot():
    # with the balancing step of _reduce removed, the slots of the
    # criterion-3 cubic series framed with f = -2 read as garbage that keeps
    # widening; past the width a correct walk can reach, 2 (|k| + 1) head
    # bits, the walk raises TooLarge at once, under 512 MB of address space
    r = subprocess.run([sys.executable, "-c", _UNBALANCED], capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0 and r.stdout.startswith("refused: "), r.stderr[-2000:]


@st.composite
def _large_two_function_case(draw):
    # 2-functions over fields of degree >= 2 times integers of up to 64
    # bits, mostly negative, so that slots widen in mid-table (an algebraic
    # integer times a 2-function need not be one)
    field = draw(st.sampled_from([F, CUBIC, Z5]))
    n, order = draw(st.integers(1, 2)), draw(st.integers(4, 7))
    big = st.builds(lambda bits, r, sign: sign * (2**bits + r), st.integers(16, 64),
                    st.integers(0, 999), st.sampled_from([-1, -1, -1, 1]))
    w = MSeries.zero(field, n, order)
    for _ in range(draw(st.integers(1, 2))):
        e = draw(st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: 0 < sum(e) <= order))
        top, x = order // sum(e), field.gen() * draw(st.integers(-2, 2)) + draw(st.integers(-2, 2))
        v = draw(st.sampled_from([
            lambda: polylog(2, top, field),
            lambda: from_log_poly(field, [1, x, draw(st.integers(-2, 2))], 2, top),
            lambda: generate_crt(field, x, 2, top),
        ]))()
        w = w + _at_monomial(v, e, order) * draw(big)
    upper = [draw(st.sampled_from([-3, -1, 1, 3]))] + draw(st.lists(
        st.integers(-2, 2), min_size=n * (n + 1) // 2 - 1, max_size=n * (n + 1) // 2 - 1))
    return w, _symmetric_kappa(upper, n)


@settings(max_examples=30, deadline=None)
@given(_large_two_function_case())
def test_packed_walk_equals_the_rows_path_and_the_oracles(case):
    # each product form alone (by the crossover at 0 and at any width) and
    # the measured crossover give the rows path's result and the oracles'
    w, kappa = case
    in_exp = any(any(sum(map(int.__mul__, row, j)) for row in kappa.entries) for j, _ in w.terms)
    framed = []
    for crossover in (framing._PADDED_BITS, 0, 2**30):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(framing, "_PADDED_BITS", crossover)
            calls = _exp_tables(mp)
            framed.append(frame_multi(w, kappa))
        assert ("integral" in {path for _, path in calls}) == in_exp
    with pytest.MonkeyPatch.context() as mp:
        _exp_tables(mp, refuse_integral=True)
        rows = frame_multi(w, kappa)
    assert all(f.terms == rows.terms for f in framed)
    if w.nvars == 1:
        assert rows.to_univariate() == frame_f_by_reversion(w.to_univariate(), kappa.entries[0][0])
    else:
        assert rows == frame_multi_by_inversion(w, kappa)


def test_packed_walk_widens_its_slots_in_mid_table(monkeypatch):
    # the disc-49 cubic series times -(2**60 - 1), f = 3 at order 8: some
    # table widens its slots past the crossover in mid-walk, every table is
    # integral, and the framing equals the oracle
    w = from_log_poly(CUBIC, [1, -CUBIC.gen(), 1], 2, 8) * -(2**60 - 1)
    widths, table, multipliers = [], framing._exp_table, framing._Index.multipliers

    def walk(field, k, sk, dots, below, path):
        widths.append([])
        return table(field, k, sk, dots, below, path)

    def record(below, dots, b):
        widths[-1].append(b)
        return multipliers(below, dots, b)

    monkeypatch.setattr(framing._Index, "multipliers", record)
    monkeypatch.setattr(framing, "_exp_table", walk)
    calls = _exp_tables(monkeypatch)
    assert frame_f(w, 3) == frame_f_by_reversion(w, 3)
    assert {path for _, path in calls} == {"integral"}
    assert any(b <= framing._PADDED_BITS < c for t in widths for b, c in zip(t, t[1:]))


# --- one table of W: a_j = g |j| W_j over its reduced denominator for every walk


@st.composite
def _near_two_function_case(draw):
    # a 2-function plus c z**j with c of denominator 2, 3 or 6, or Li2 with
    # one coefficient raised early or late: Dw = 1 or small, so over Q the
    # fixed walk runs from the start or after a remainder
    field = draw(st.sampled_from([Q, Q, CUBIC, Z5]))  # Q twice: its fixed walk and switch
    n, order = draw(st.integers(1, 2)), draw(st.integers(4, 8))
    small = st.integers(-2, 2)
    e = draw(st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: 0 < sum(e) <= order // 2))
    top, x = order // sum(e), field.gen() * draw(small) + draw(small)
    if draw(st.booleans()):
        v = draw(st.sampled_from([
            lambda: polylog(2, top, field) * draw(small.filter(bool)),
            lambda: from_log_poly(field, [1, x, draw(small)], 2, top),
            lambda: generate_crt(field, x, 2, top),
        ]))()
        w = _at_monomial(v, e, order)
        j = draw(st.tuples(*[st.integers(0, 2)] * n).filter(lambda j: 0 < sum(j) <= order))
        c = (x + draw(small.filter(bool))) * Fraction(1, draw(st.sampled_from([2, 3, 6])))
        w = w + MSeries.from_dict(field, n, order, {j: c})
    else:
        at = draw(st.sampled_from([2, 3, top - 1, top]))
        by = draw(st.sampled_from([Fraction(1, at * at), Fraction(1, 4), 1]))
        w = _at_monomial(polylog(2, top, field) + Series.from_coeffs(
            field, top, [by if k == at else 0 for k in range(1, top + 1)]), e, order)
    upper = [draw(st.sampled_from([-3, -1, 1, 2, 3]))] + draw(st.lists(
        small, min_size=n * (n + 1) // 2 - 1, max_size=n * (n + 1) // 2 - 1))
    return w, _symmetric_kappa(upper, n)


@settings(max_examples=60, deadline=None)
@given(_near_two_function_case())
def test_one_table_equals_the_rows_walk_and_the_oracle(case):
    w, kappa = case
    framed = frame_multi(w, kappa)
    with pytest.MonkeyPatch.context() as mp:
        calls = _exp_tables(mp, refuse_integral=True)
        rows = frame_multi(w, kappa)
    assert {p for _, p in calls} <= {"rows"}  # an integral walk is refused: all on rows
    assert framed.terms == rows.terms
    assert framed == frame_multi_by_inversion(w, kappa)


def test_li2_plus_z_over_2_walks_fixed_at_every_key(monkeypatch):
    # g |j| W_j is 3/2 at j = 1 and 1 at every other j: Dw = 2, 96 bits,
    # where the unscaled |j| W_j have lcm(1..96) for Dw, far past the bound
    w = polylog(2, 96) + Series.var(Q, 96) * Fraction(1, 2)
    with pytest.MonkeyPatch.context() as mp:
        calls = _exp_tables(mp)
        framed = frame_f(w, 2)
    assert [p for _, p in calls] == ["fixed"] * 96
    monkeypatch.setattr(framing, "_FIXED_BITS", 0)
    assert framed == frame_f(w, 2)


def test_a_late_remainder_does_not_send_the_call_to_the_fixed_walk(monkeypatch):
    # Li2 with c_211 raised by 1/211**2 at order 224: Dw = 1, and the keys
    # 212..224 meet their remainder at m = 211, past half their degree, so
    # each goes on on rows and no key walks fixed (the walk per key)
    _per_key(monkeypatch)
    calls = _exp_tables(monkeypatch)
    frame_f(_raised(224, 211), 2)
    assert [k for k, p in calls if p == "rows"] == [(k,) for k in range(212, 225)]
    assert [p for _, p in calls if p != "rows"] == ["integral"] * 224


# --- one live variable on the integral path: every k at once by baby and
# giant steps over the powers of phi = exp(f delta W)


def _every_k_at_once(mp) -> list:
    """Record what each framing._one_variable call returned: None where it
    sent the call to the walk per key."""
    got, real = [], framing._one_variable

    def record(*args):
        got.append(real(*args))
        return got[-1]

    mp.setattr(framing, "_one_variable", record)
    return got


@st.composite
def _one_variable_case(draw):
    # 2-functions over Q, Q(zeta_5) and the disc-49 cubic, at orders 1-40
    # with n < 4 and the perfect squares drawn often
    field = draw(st.sampled_from([Q, Z5, CUBIC]))
    order = draw(st.one_of(st.integers(1, 4), st.sampled_from([9, 16, 25, 36]), st.integers(1, 40)))
    small = st.integers(-2, 2)
    x = field.gen() * draw(small) + draw(small)
    w = draw(st.sampled_from([
        lambda: polylog(2, order, field) * draw(small.filter(bool)),
        lambda: from_log_poly(field, [1, x, draw(small)], 2, order),
        lambda: generate_crt(field, x, 2, order),
    ]))()
    return w, draw(st.integers(-3, 3))


@settings(max_examples=30, deadline=None)
@given(_one_variable_case())
def test_every_k_at_once_equals_the_walk_per_key_and_the_reversion(case):
    w, f = case
    framed = frame_f(w, f)
    with pytest.MonkeyPatch.context() as mp:
        _per_key(mp)
        assert framed == frame_f(w, f) == frame_f_by_reversion(w, f)
    assert all(same_as_checked(c) for c in framed.coeffs)


def test_every_k_at_once_takes_the_frame_uni_series_without_the_walk_per_key(monkeypatch):
    # the criterion-3 series at order 40 with the five f: phi's walk is the
    # one table walked, and the framing is the walk per key's
    g = CUBIC.gen()
    ws = [from_log_poly(CUBIC, [1, -g, 1], 2, 40),
          abelian_generator(CyclotomicSpec(5, {1: 1, 4: 1}, 2), 40), polylog(2, 40)]
    for w in ws:
        for f in (-2, -1, 1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                _per_key(mp)
                want = frame_f(w, f)
            with pytest.MonkeyPatch.context() as mp:
                got, calls = _every_k_at_once(mp), _exp_tables(mp)
                assert frame_f(w, f) == want
            assert got[0] is not None and calls == [((41,), "integral")], (w.field, f)


@pytest.mark.parametrize("order, f", [(224, 2), (100, 3), (60, -3)])
def test_every_k_at_once_gives_the_li2_closed_form(monkeypatch, order, f):
    # k**2 c_k = (-1)**(f k) C((f + 1) k - 1, k - 1), read as a polynomial in f
    # (for f = -3: (-1)**k (-2k - 1)...(-3k + 1) / (k - 1)!)
    calls = _every_k_at_once(monkeypatch)
    framed = frame_f(polylog(2, order), f)
    assert calls[0] is not None
    for k in range(1, order + 1):
        top = (f + 1) * k - 1
        want = (-1) ** (f * k % 2) * prod(top - i for i in range(k - 1)) // factorial(k - 1)
        assert framed.coeff(k) * k * k == want, k


def test_a_series_that_is_no_two_function_returns_the_walk_per_key(monkeypatch):
    # Li2 with c_29 raised by 1/29**2 at order 40: phi's walk stops at its
    # first remainder, at m = 29, and the call is the walk per key's
    w, tables, real = _raised(40, 29), [], framing._exp_table

    def table(*args):
        tables.append(real(*args))
        return tables[-1]

    with pytest.MonkeyPatch.context() as mp:
        calls = _every_k_at_once(mp)
        mp.setattr(framing, "_exp_table", table)
        framed = frame_f(w, 2)
    assert calls == [None]
    e, how = tables[0]
    assert how == "rows" and len(e) == 29  # the entries at the positions m = 0..28
    with pytest.MonkeyPatch.context() as mp:
        _per_key(mp)
        assert framed == frame_f(w, 2) == frame_f_by_reversion(w, 2)


def test_every_k_at_once_multiplies_packed_entries_without_fold_or_convolution(monkeypatch):
    # the criterion-3 series over the cubic and Q(zeta_5) at order 28: the
    # products and dot products of packed entries reduce mod P(2**b) only
    g = CUBIC.gen()
    ws = [from_log_poly(CUBIC, [1, -g, 1], 2, 28),
          abelian_generator(CyclotomicSpec(5, {1: 1, 4: 1}, 2), 28)]
    with pytest.MonkeyPatch.context() as mp:
        _per_key(mp)
        want = [frame_f(w, f) for w in ws for f in (-2, 3)]

    def refuse(*args):
        raise AssertionError("every k at once went through the convolution or the fold")

    for module in (numfield, framing):
        monkeypatch.setattr(module, "_convolve_into", refuse, raising=False)
        monkeypatch.setattr(module, "_fold", refuse, raising=False)
    calls = _every_k_at_once(monkeypatch)
    assert [frame_f(w, f) for w in ws for f in (-2, 3)] == want
    assert None not in calls


def test_the_entries_too_large_for_every_k_at_once_take_the_walk_per_key(monkeypatch):
    # 4 degree order (bits(f) + bits of the rows a)**4 at _FIXED_BITS**2 and
    # above, the measured crossover: the products of big entries cost more
    # than the walk's small weights.  Li2 with f = 2**47 at order 40 and the
    # cubic series with f = 2**16 + 1 at order 28 took 1.7 and 1.2 times the
    # walk's time every k at once
    calls = _every_k_at_once(monkeypatch)
    cubic = from_log_poly(CUBIC, [1, -CUBIC.gen(), 1], 2, 28)  # its rows a have 2 bits
    frame_f(polylog(2, 40), 2**48)  # 4 * 40 * (49 + 1)**4
    frame_f(cubic, 2**21)  # 4 * 3 * 28 * (22 + 2)**4
    frame_f(polylog(2, 40), 2**47)  # 4 * 40 * 49**4
    frame_f(cubic, 2**16 + 1)  # 4 * 3 * 28 * 19**4
    frame_f(polylog(2, 40), 2**11)  # 4 * 40 * 13**4 = 4,569,760
    frame_f(cubic, 2**8)  # 4 * 3 * 28 * 11**4 = 4,919,376
    frame_f(polylog(2, 40), 2**10)  # 4 * 40 * 12**4 = 3,317,760
    frame_f(cubic, -(2**7))  # 4 * 3 * 28 * 10**4 = 3,360,000
    assert calls[:6] == [None] * 6 and None not in calls[6:]


# --- the framing theorem in several variables over number fields, on each path


def _walked_as(mp, path) -> list:
    """Walk on path every exp table that would start on the integral walk,
    and record the path each table starts on."""
    paths, real = [], framing._exp_table

    def walk(field, k, sk, dots, below, start):
        paths.append(path if start == "integral" else start)
        return real(field, k, sk, dots, below, paths[-1])

    mp.setattr(framing, "_exp_table", walk)
    return paths


@st.composite
def _several_variable_case(draw):
    # a 2-function g over Q (Li2), Q(zeta_5) (abelian_generator) or the disc-49
    # cubic (generate_crt); W = sum_e g(z**e) over 2-3 monomials e in 2-3
    # variables, with 2 |e| <= order, so that the lowest key j of W has 2 j
    # within the order; a symmetric kappa with entries in [-2, 2]
    n, order = draw(st.integers(2, 3)), draw(st.integers(4, 6))
    es = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n).filter(
        lambda e: 0 < 2 * sum(e) <= order), min_size=2, max_size=3))
    kind, seed = draw(st.sampled_from(["Q", "zeta5", "cubic"])), draw(st.integers(-2, 2))
    w = None
    for e in es:
        top = order // sum(e)
        g = (polylog(2, top) if kind == "Q" else
             abelian_generator(CyclotomicSpec(5, {1: 1, 4: 1}, 2), top) if kind == "zeta5" else
             generate_crt(CUBIC, CUBIC.gen() + seed, 2, top))
        w = _at_monomial(g, e, order) if w is None else w + _at_monomial(g, e, order)
    upper = draw(st.lists(st.integers(-2, 2), min_size=n * (n + 1) // 2,
                          max_size=n * (n + 1) // 2))
    return w, _symmetric_kappa(upper, n)


@settings(max_examples=25, deadline=None)
@given(_several_variable_case())
def test_framing_in_several_variables_over_number_fields_keeps_two_functions(case):
    # on the integral (over Q) or packed walk, the fixed walk over Q and the
    # rows walk: the oracle's series, a 2-function; and the control, W with
    # 1 added at its lowest key, framed alike, is none
    w, kappa = case
    want = frame_multi_by_inversion(w, kappa)
    in_exp = any(any(sum(map(int.__mul__, row, j)) for row in kappa.entries) for j, _ in w.terms)
    for path in ["integral", "rows"] + ["fixed"] * (w.field.degree == 1):
        with pytest.MonkeyPatch.context() as mp:
            paths = _walked_as(mp, path)
            if path == "rows":
                mp.setattr(framing, "_FIXED_BITS", 0)
            framed = frame_multi(w, kappa)
        assert set(paths) == {path if in_exp else "rows"}, paths
        assert framed == want
    assert check_sfunction(framed, 2).passed
    control = w + MSeries.from_dict(w.field, w.nvars, w.order, {w.terms[0][0]: 1})
    assert not check_sfunction(frame_multi(control, kappa), 2).passed


def test_a_diagonal_kappa_frames_sixteen_variables_one_at_a_time():
    # W = z1 + ... + z16 with kappa = I at order 4: a separable W under a
    # diagonal kappa is framed one variable at a time, so the framing is the
    # sum over i of frame_f(z, 1) at z_i; the index numbers 4,845 positions
    # and each box holds at most 16
    w, one = _sum_of_variables(16, 4), frame_f(Series.var(Q, 4), 1)
    eye = Kappa(tuple(tuple(int(i == j) for j in range(16)) for i in range(16)))
    want = MSeries.zero(Q, 16, 4)
    for e in eye.entries:
        want = want + _at_monomial(one, e, 4)
    t0 = time.process_time()
    assert frame_multi(w, eye) == want
    assert time.process_time() - t0 < 2


def test_z1_plus_z2_at_order_40_equals_the_oracle():
    # boxes of up to 441 positions, where each key reads D's terms j <= k
    w, kappa = MSeries.from_dict(Q, 2, 40, {(1, 0): 1, (0, 1): 1}), Kappa.parse("1,0;0,1")
    assert frame_multi(w, kappa) == frame_multi_by_inversion(w, kappa)
