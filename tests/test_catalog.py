from __future__ import annotations

import json
import time
from fractions import Fraction
from math import comb, factorial, inf

import pytest
from hypothesis import given, settings, strategies as st

from sfuncs.catalog import (
    BINOMIAL_MAX_COST,
    CyclotomicSpec,
    _binomials_cost,
    _framed_log_h,
    _jk_cost,
    _solve_rational,
    abelian_generator,
    cyclotomic_field,
    cyclotomic_polynomial,
    from_log_poly,
    jk_check,
    polylog,
    polylog_frame_table,
)
from sfuncs.errors import (
    BadConductor, BadConstantTerm, DescentFailed, FieldMismatch, NotPrime, SmallPrime,
)
from sfuncs.intutil import divisors, moebius
from sfuncs.numfield import make_field, rationals
from sfuncs.serialize import _rational, dump_obj
from sfuncs.sfunc import check_sfunction

from oracles import cyclotomic_by_division, framed_log_column_by_framing, solve_by_fractions

Q = rationals()
CUBIC = make_field([-1, -2, 1, 1])

# d = 1..7 rows for f = 2..5, frozen reference values
TABLE = {
    2: [-2, 1, Fraction(-2, 3), 1, -2, Fraction(13, 3), -10],
    3: [3, Fraction(3, 2), 3, Fraction(15, 2), 24, Fraction(171, 2), 339],
    4: [-4, 4, -8, 28, -124, 624, -3452],
    5: [5, 5, Fraction(50, 3), 75, 425, Fraction(8240, 3), 19605],
}


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(7) == (1,) * 7
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first conductor with a coefficient outside {-1, 0, 1}
    assert cyclotomic_polynomial(105)[7] == -2
    with pytest.raises(BadConductor):
        cyclotomic_polynomial(0)


def test_cyclotomic_polynomials_match_repeated_division():
    # the Moebius product of the (x**d - 1) against x**n - 1 divided by every
    # Phi_d of a proper divisor
    for n in range(1, 151):
        assert cyclotomic_polynomial(n) == tuple(cyclotomic_by_division(n)), n


def test_cyclotomic_field_degrees():
    assert cyclotomic_field(1).degree == 1
    assert cyclotomic_field(7).degree == 6
    assert cyclotomic_field(12).degree == 4


def test_abelian_conductor_one_is_scaled_polylog():
    v = abelian_generator(CyclotomicSpec(1, {0: 5}, 2), 8)
    li = polylog(2, 8)
    for k in range(1, 9):
        assert v.coeff(k).coords == (li.coeff(k).coords[0] * 5,)


@pytest.mark.parametrize("pairs, mapping", [
    (((1, 1), (1, 2)), {1: 3}),
    (((1, 1), (2, 4), (1, -1)), {2: 4}),  # the index-1 pair cancels
    (((3, Fraction(1, 2)), (3, Fraction(-1, 2))), {}),
])
def test_cyclotomic_spec_sums_a_repeated_index(pairs, mapping):
    spec = CyclotomicSpec(5, pairs, 2)
    assert spec == CyclotomicSpec(5, mapping, 2)
    assert spec.coeffs == tuple(sorted((i, Fraction(c)) for i, c in mapping.items()))
    assert abelian_generator(spec, 10) == abelian_generator(CyclotomicSpec(5, mapping, 2), 10)


def test_abelian_root_of_unity_tower():
    spec = CyclotomicSpec(3, {1: 1}, 2)
    v = abelian_generator(spec, 9)
    field = cyclotomic_field(3)
    for k in (3, 6, 9):
        assert v.coeff(k) * k**2 == 1  # zeta^k = 1 when 3 | k
    assert v.coeff(2) * 4 == field.gen() ** 2
    assert check_sfunction(v, 2).passed


@pytest.mark.parametrize("conductor, coeffs, s, order", [
    (7, {1: 1, 6: 1}, 2, 3),  # an order below the conductor
    (7, {1: 1, 6: 1}, 2, 30),
    (12, {1: Fraction(1, 2), 5: -3, 7: Fraction(2, 3)}, 3, 40),
    (5, {}, 2, 6),
])
def test_abelian_coefficients_are_the_sum_at_each_index(conductor, coeffs, s, order):
    # a_k is built once per residue k mod N; here it is summed at every k
    field = cyclotomic_field(conductor)
    zeta = field.gen()
    v = abelian_generator(CyclotomicSpec(conductor, coeffs, s), order)
    assert v.order == order and v.field == field
    for k in range(1, order + 1):
        a = sum((zeta ** (i * k) * c for i, c in coeffs.items()), field.zero())
        assert v.coeff(k) == a * Fraction(1, k**s), k


def test_abelian_negative_order_names_the_order():
    spec = CyclotomicSpec(7, {1: 1, 6: 1}, 2)
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        abelian_generator(spec, -5)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_abelian_generator_passes_check(s):
    spec = CyclotomicSpec(5, {1: 1, 4: 1}, s)
    assert check_sfunction(abelian_generator(spec, 40), s).passed


def test_abelian_index_permutation_under_frobenius():
    # replacing i by p*i mod N in the c's matches a_k -> a_pk
    spec = CyclotomicSpec(7, {1: 1, 6: 1}, 2)
    v = abelian_generator(spec, 21)
    for p in (2, 3, 5):
        permuted = CyclotomicSpec(7, {(p * i) % 7: c for i, c in spec.coeffs}, 2)
        vp = abelian_generator(permuted, 21)
        for k in range(1, 21 // p + 1):
            assert v.coeff(p * k) * (p * k) ** 2 == vp.coeff(k) * k**2


def test_descent_to_real_cubic_subfield():
    spec = CyclotomicSpec(7, {1: 1, 6: 1}, 2)
    big = cyclotomic_field(7)
    zeta = big.gen()
    w = abelian_generator(spec, 10, subfield=CUBIC, x_expr=zeta + zeta**6)
    assert w.field == CUBIC
    x = CUBIC.gen()
    assert w.coeff(1) == x
    assert w.coeff(2) * 4 == x * x - 2
    assert w.coeff(3) * 9 == x**3 - 3 * x
    assert check_sfunction(w, 2).passed


def test_descent_is_the_coefficient_read_back_at_every_index():
    # each residue k mod 7 is solved once; every coefficient, read back
    # through x_expr, is the cyclotomic one
    spec = CyclotomicSpec(7, {1: 1, 6: 1, 2: Fraction(1, 3), 5: Fraction(1, 3), 0: 2}, 3)
    zeta = cyclotomic_field(7).gen()
    x_expr = zeta + zeta**6
    full = abelian_generator(spec, 40)
    w = abelian_generator(spec, 40, subfield=CUBIC, x_expr=x_expr)
    for k in range(1, 41):
        c = w.coeff(k).coords
        assert sum((x_expr**j * cj for j, cj in enumerate(c)), 0 * zeta) == full.coeff(k), k


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_fraction_free_elimination_solves_as_fractions_do(data):
    # rows > columns, so some right-hand sides have no solution
    field = data.draw(st.sampled_from([CUBIC, make_field([1, 0, 0, 0, 1])]))  # x^4 + 1
    rat = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    elems = st.lists(rat, min_size=field.degree, max_size=field.degree).map(field.elem)
    sub = make_field([0, 1] if field.degree == 3 else [1, 0, 1])
    columns = data.draw(st.lists(elems, min_size=sub.degree, max_size=sub.degree))
    combos = st.lists(rat, min_size=sub.degree, max_size=sub.degree).map(
        lambda x: sum((e * c for e, c in zip(columns, x)), field.zero()))
    rhss = data.draw(st.lists(st.one_of(elems, combos), min_size=1, max_size=6))
    try:
        want = [solve_by_fractions([e.coords for e in columns], rhs.coords) for rhs in rhss]
    except ValueError:
        with pytest.raises(DescentFailed, match="linearly dependent"):
            _solve_rational(sub, columns, rhss)
        return
    assert _solve_rational(sub, columns, rhss) == [None if x is None else sub.elem(x) for x in want]


def test_descent_at_a_prime_conductor_near_the_bound_reads_back():
    # Q(zeta_53) by zeta + 1: a 52 x 52 elimination with 53 right-hand sides
    n = 53
    field = cyclotomic_field(n)
    x_expr = field.gen() + 1
    minpoly = [0] * n  # Phi_n(y - 1), the minimal polynomial of zeta + 1
    for j, c in enumerate(cyclotomic_polynomial(n)):
        for i in range(j + 1):
            minpoly[i] += c * comb(j, i) * (-1) ** (j - i)
    spec = CyclotomicSpec(n, {i: i for i in range(n)}, 2)
    full = abelian_generator(spec, 60)
    w = abelian_generator(spec, 60, subfield=make_field(minpoly), x_expr=x_expr)
    powers = [field.one()]
    for _ in range(n - 2):
        powers.append(powers[-1] * x_expr)
    for k in (1, 2, 52, 53, 54, 60):
        back = sum((p * c for p, c in zip(powers, w.coeff(k).coords)), field.zero())
        assert back == full.coeff(k), k


def test_descent_names_the_first_index_outside_the_subfield():
    # over Q(zeta_6), zeta - zeta^2 = 1 but zeta^2 - zeta^4 = 2 zeta - 1
    zero = cyclotomic_field(6).zero()
    with pytest.raises(DescentFailed, match="^coefficient at index 2 lies outside the subfield$"):
        abelian_generator(CyclotomicSpec(6, {1: 1, 2: -1}, 2), 20, subfield=Q, x_expr=zero)


def test_descent_failures():
    big = cyclotomic_field(7)
    zeta = big.gen()
    x_expr = zeta + zeta**6
    # zeta itself does not live in the real subfield
    with pytest.raises(DescentFailed):
        abelian_generator(
            CyclotomicSpec(7, {1: 1}, 2), 4, subfield=CUBIC, x_expr=x_expr
        )
    # wrong defining polynomial for the supplied element
    with pytest.raises(DescentFailed):
        abelian_generator(
            CyclotomicSpec(7, {1: 1, 6: 1}, 2), 4,
            subfield=make_field([1, 0, 1]), x_expr=x_expr,
        )
    with pytest.raises(DescentFailed):
        abelian_generator(CyclotomicSpec(7, {1: 1, 6: 1}, 2), 4, subfield=CUBIC)


def test_descent_refuses_an_expression_of_another_field():
    x_expr = cyclotomic_field(9).gen()  # degree 6, like Q(zeta_7)
    with pytest.raises(FieldMismatch, match="^generator expression lives in the wrong field$"):
        abelian_generator(CyclotomicSpec(7, {1: 1, 6: 1}, 2), 4, subfield=CUBIC, x_expr=x_expr)


def test_cyclotomic_spec_validation():
    with pytest.raises(BadConductor):
        CyclotomicSpec(0, {}, 2)
    with pytest.raises(BadConductor):
        CyclotomicSpec(3, {5: 1}, 2)
    with pytest.raises(ValueError):
        CyclotomicSpec(3, {1: 1}, 0)


@pytest.mark.parametrize("coeffs", [{1.9: 1, True: 2}, {1.0: 1}, {True: 1}, ((2.5, 1),)])
def test_cyclotomic_spec_refuses_an_index_that_is_not_an_int(coeffs):
    # int() would keep {1.9: 1, True: 2} as two entries at index 1
    with pytest.raises(TypeError):
        CyclotomicSpec(5, coeffs, 2)


# --- log-of-polynomial series


def test_from_log_poly_geometric():
    assert from_log_poly(Q, [1, -1], 2, 10) == polylog(2, 10)


@pytest.mark.parametrize("n", [0, 1, 2, 57, 600])
def test_from_log_poly_of_one_minus_z_is_the_dilogarithm(n):
    # the log recurrence meets one nonzero grade of 1 - z at each step
    assert from_log_poly(Q, [1, -1], 2, n) == polylog(2, n)


def test_from_log_poly_cubic_coefficients():
    x = CUBIC.gen()
    v = from_log_poly(CUBIC, [1, -x, 1], 2, 12)
    assert v.coeff(1) == x
    assert v.coeff(2) * 4 == x * x - 2
    assert check_sfunction(v, 2).passed


def test_from_log_poly_failing_example():
    v = from_log_poly(Q, [1, -2], 2, 6)
    rep = check_sfunction(v, 2)
    assert not rep.passed
    first = rep.violations[0]
    # a_k = 2^k: 2 - 4 has valuation 1
    assert (first.index, first.p, first.valuation) == (2, 2, 1)


def test_from_log_poly_refuses_a_coefficient_of_another_field():
    # both calls used to return a series whose tail mixed the two fields
    g = CUBIC.gen()
    with pytest.raises(FieldMismatch):
        from_log_poly(Q, [1, g + 2], 2, 4)
    with pytest.raises(FieldMismatch):
        from_log_poly(CUBIC, [1, Q.elem(3)], 2, 4)
    assert from_log_poly(CUBIC, [1, 3], 2, 4) == from_log_poly(CUBIC, [1, CUBIC.elem(3)], 2, 4)


def test_from_log_poly_constant_guard():
    with pytest.raises(BadConstantTerm):
        from_log_poly(Q, [2, 1], 2, 4)
    with pytest.raises(BadConstantTerm):
        from_log_poly(Q, [], 2, 4)


def test_floats_are_refused_as_coefficients():
    with pytest.raises(TypeError):
        from_log_poly(Q, [1, 0.1], 1, 4)
    with pytest.raises(TypeError):
        CyclotomicSpec(3, {1: 0.1}, 2)
    assert CyclotomicSpec(3, {1: Fraction(1, 10)}, 2).coeffs == ((1, Fraction(1, 10)),)


# --- framed polylog table


def test_table_matches_frozen_values():
    t = polylog_frame_table(range(2, 6), range(1, 8))
    for f in range(2, 6):
        for d in range(1, 8):
            assert t.entry(d, f) == TABLE[f][d - 1]
    assert t.nonintegral == ()
    assert t.to_obj()["six_over_f_integral"] is True


def test_table_f_zero_vanishes():
    t = polylog_frame_table([0], range(1, 5))
    assert all(t.entry(d, 0) == 0 for d in range(1, 5))


def _binomial(n: int, k: int) -> int:
    # generalized binomial n(n-1)...(n-k+1)/k!, for any integer n
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


def test_log_column_closed_form():
    # the closed form, with its corrected sign, is the reference for the
    # column, which is read off the framed dilogarithm frame_f(Li2, -f)
    for f in range(-5, 6):
        for k in range(1, 13):
            sign = -1 if ((f + 1) * k) % 2 else 1
            assert Fraction(_framed_log_h(f, k), k) == Fraction(
                sign * _binomial(f * k, k), k
            ), (f, k)


def test_log_column_binomial_form_to_order_30():
    # an engine-free closed form: -(f/k) (-1)**(fk+k-1) binom(fk-1, k-1)
    for f in range(1, 7):
        for k in range(1, 31):
            sign = -1 if (f * k + k - 1) % 2 else 1
            want = -Fraction(f, k) * sign * comb(f * k - 1, k - 1)
            assert Fraction(_framed_log_h(f, k), k) == want, (f, k)


def test_log_column_matches_the_framing_engine():
    # the integers the table reads, k [z^k] log Y_f, against
    # log Y_f = -f delta frame_f(Li2, -f)
    for f in range(-7, 8):
        col = framed_log_column_by_framing(f, 30)
        assert [_framed_log_h(f, k) for k in range(1, 31)] == [
            k * c for k, c in enumerate(col, 1)
        ], f


def test_table_matches_moebius_over_the_engine_column():
    # the table as it was built from the engine column, in Fractions
    t = polylog_frame_table(range(-4, 5), range(1, 13))
    for f in range(-4, 5):
        col = framed_log_column_by_framing(f, 12)
        for d in range(1, 13):
            h = sum(moebius(d // e) * e * col[e - 1] for e in divisors(d))
            assert t.entry(d, f) == h / d**3, (d, f)


def test_six_n_over_f_integral_past_the_papers_range():
    # a measurement, not a theorem: 4,000 cells with f != 0
    t = polylog_frame_table(range(-10, 11), range(1, 201))
    assert t.nonintegral == ()
    assert t.entry(1, -10) == 10 and t.entry(200, 0) == 0


def test_table_csv_layout():
    t = polylog_frame_table(range(2, 6), range(1, 8))
    lines = t.to_csv().splitlines()
    assert lines[0] == "d,f=2,f=3,f=4,f=5"
    assert lines[1] == "1,-2,3,-4,5"
    assert lines[3] == "3,-2/3,3,-8,50/3"
    assert len(lines) == 8


def test_table_cells_of_any_size_round_trip_in_json_and_csv():
    # binom(2f, 2) at f = 10**3000 gives a cell of about 6,000 digits,
    # past CPython's int/str limit of 4,300
    t = polylog_frame_table([10**3000], [1, 2])
    big = t.entry(2, 10**3000)
    assert abs(big.numerator) > 10**5000
    entries = json.loads(dump_obj(t.to_obj()))["entries"]
    assert [[_rational(x) for x in row] for row in entries] == [list(r) for r in t.cells]
    rows = [line.split(",")[1:] for line in t.to_csv().splitlines()[1:]]
    assert [[_rational(x) for x in row] for row in rows] == [list(r) for r in t.cells]


def test_table_refuses_a_shape_above_the_cost_bound():
    # refused before any binomial: each of these runs for seconds or more
    t0 = time.monotonic()
    for f_range, d_range in (([5], range(1, 4001)), ([5], range(1, 8001)),
                             (range(2, 6), range(1, 3001)), ([10**4200], range(1, 101))):
        with pytest.raises(ValueError, match="too large"):
            polylog_frame_table(f_range, d_range)
    assert time.monotonic() - t0 < 1.0
    # the tables of the bench, the README, the CLI and the tests stay accepted
    for f_range, d_max in ((range(2, 6), 24), (range(-7, 8), 7), (range(-10, 11), 200),
                           ([10**3000], 2), ([10**20], 300)):
        bits = max(map(abs, f_range)).bit_length() + 1
        assert _binomials_cost(len(f_range), d_max, bits) <= BINOMIAL_MAX_COST


def test_table_rejects_bad_d():
    with pytest.raises(ValueError):
        polylog_frame_table([2], [0, 1])


def test_table_rejects_empty_ranges():
    # an empty table checks nothing, so it must not report integrality
    with pytest.raises(ValueError, match="f range"):
        polylog_frame_table(range(3, 3), range(1, 3))
    with pytest.raises(ValueError, match="d range"):
        polylog_frame_table([2], [])


# --- binomial congruence sweep


def test_jk_examples():
    r = jk_check(5, 1, 2)
    rec = next(q for q in r.records if q.k == 1 and q.f == 2)
    assert rec.required == 3 and rec.valuation == 3 and rec.ok

    r7 = jk_check(7, 1, 1)
    assert r7.records[0].valuation == inf  # both binomials are 1

    r55 = jk_check(5, 5, 2)
    rec55 = next(q for q in r55.records if q.k == 5 and q.f == 2)
    assert rec55.alpha == 1 and rec55.required == 6 and rec55.valuation >= 6
    assert r55.passed


def test_jk_guards():
    with pytest.raises(SmallPrime):
        jk_check(3, 1, 1)
    with pytest.raises(NotPrime):
        jk_check(9, 1, 1)
    # an empty sweep would report a pass with no records
    for k_max, f_max in ((0, 0), (0, 3), (3, 0), (-2, 1), (1, -1)):
        with pytest.raises(ValueError, match="k_max"):
            jk_check(7, k_max, f_max)


def test_jk_refuses_a_sweep_above_the_cost_bound():
    # refused before any binomial: each of these runs for seconds or more
    t0 = time.monotonic()
    for args in ((100003, 5, 5), (100003, 1, 2), (10007, 5, 5), (5, 2000, 3),
                 (10**30 + 57, 1, 1)):
        with pytest.raises(ValueError, match="too large"):
            jk_check(*args)
    assert time.monotonic() - t0 < 1.0
    # the sweeps of the acceptance test, the README and the CLI stay accepted
    for args in ((7, 21, 5), (13, 39, 5), (5, 100, 100)):
        assert _jk_cost(*args) <= BINOMIAL_MAX_COST


def test_jk_report_serialization():
    obj = jk_check(7, 1, 1).to_obj()
    assert obj["pass"] is True
    assert obj["records"][0]["valuation"] == "inf"
