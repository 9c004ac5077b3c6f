from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sfuncs.catalog import CyclotomicSpec, abelian_generator, cyclotomic_field, polylog
from sfuncs.errors import (BadConstantTerm, FieldMismatch, LiftFailed, NotIntegral, NotPrime,
                           SfuncError)
from sfuncs.intutil import is_prime, ord_p, primes_up_to
from sfuncs.mseries import MSeries
from sfuncs.numfield import denominator_support, make_field, rationals
from sfuncs.serialize import load_series
from sfuncs import padic, sfunc
from sfuncs.series import Series, delta, dint
from sfuncs.sfunc import (
    _check_obj,
    _prime_pass,
    check_sfunction,
    dwork_factor,
    generate_crt,
)

from oracles import (
    check_multi_by_dense_scan,
    check_uni_by_dense_scan,
    congruence_by_fractions,
    dwork_series_by_product,
    frobenius_residues,
)

Q = rationals()
QI3 = make_field([3, 0, 1])
EISENSTEIN = make_field([1, 1, 1])  # x^2 + x + 1, discriminant -3
CUBIC = make_field([-1, -2, 1, 1])
FIELDS = (Q, EISENSTEIN, CUBIC)


def _judge(field, prev, cur, index, p, required):
    """The check of frob_p(prev) against cur at (index, p), judged alone
    by the checker's pass at p; both sides count as present."""
    (check,), error = _prime_pass(field, p, [(index, prev, cur, required)],
                                  lambda key: key, object())
    assert error is None
    return check


def _series(coeffs, field=Q):
    return Series.from_coeffs(field, len(coeffs), [Fraction(c) for c in coeffs])


def test_polylogs_pass_their_own_strength():
    for s in (1, 2, 3):
        rep = check_sfunction(polylog(s, 20), s)
        assert rep.passed
        assert rep.skipped_primes == ()


def test_li1_fails_strength_two():
    rep = check_sfunction(polylog(1, 8), 2)
    assert not rep.passed
    v = rep.violations[0]
    # a_k = k: at k=2, Frob(a_1) - a_2 = 1 - 2, odd
    assert (v.index, v.p, v.required, v.valuation) == (2, 2, 2, 0)


def test_perturbed_dilog_single_violation():
    # a_4 = 3 instead of 1, order kept below 8 so no downstream echo
    coeffs = [Fraction(1, k * k) for k in range(1, 8)]
    coeffs[3] = Fraction(3, 16)
    rep = check_sfunction(_series(coeffs), 2)
    bad = rep.violations
    assert len(bad) == 1
    v = bad[0]
    assert (v.index, v.p, v.required, v.valuation) == (4, 2, 4, 1)


def test_perturbation_echoes_at_double_index():
    coeffs = [Fraction(1, k * k) for k in range(1, 9)]
    coeffs[3] = Fraction(3, 16)
    rep = check_sfunction(_series(coeffs), 2)
    spots = {(v.index, v.p) for v in rep.violations}
    assert spots == {(4, 2), (8, 2)}


def test_constant_term_must_vanish():
    v = Series(Q, 4, Q.one(), tuple(Q.elem(Fraction(1, k * k)) for k in range(1, 5)))
    with pytest.raises(BadConstantTerm):
        check_sfunction(v, 2)


def test_scaled_input_checked_through_denominators():
    # half a dilogarithm: congruences still hold, only 2-integrality breaks
    half = [Fraction(1, 2 * k * k) for k in range(1, 13)]
    rep = check_sfunction(_series(half), 2)
    assert not rep.passed
    assert all(v.kind == "integrality" for v in rep.violations)
    assert {v.p for v in rep.violations} == {2}
    assert all(c.ok for c in rep.checks if c.kind == "congruence")


def test_dilation_preserves():
    # Li2(z**3) = sum z**(3k) / k**2
    li2_z3 = _series([Fraction(9, k * k) if k % 3 == 0 else 0 for k in range(1, 9)])
    rep = check_sfunction(li2_z3, 2)
    assert rep.passed


def test_a_large_strength_costs_few_divisions_per_valuation():
    # valuations near s * ord_p(k) were read one division at a time: Li2 at
    # order 60 checked with s = 10000 took 4.7 s, with s = 30000 41 s
    li2 = polylog(2, 60)
    start = time.perf_counter()
    rep = check_sfunction(li2, 10_000)
    assert time.perf_counter() - start <= 2
    got = {(c.index, c.p): c.valuation for c in rep.violations}
    # a_(q**e) = q**(e*(s-2)): the step from q**(e-1) has valuation (e-1)(s-2)
    for q, e in [(2, 2), (2, 5), (3, 3), (7, 2)]:
        assert got[q**e, q] == (e - 1) * (10_000 - 2)


def test_delta_lowers_strength():
    li3 = polylog(3, 16)
    assert check_sfunction(delta(li3), 2).passed
    assert check_sfunction(delta(delta(li3)), 1).passed
    assert check_sfunction(dint(polylog(2, 16)), 3).passed


def test_good_primes_beyond_order_covered_by_integrality():
    # every prime > order divides no index, so integrality is the whole claim
    v = _series([Fraction(1, 101)] + [0] * 5)
    rep = check_sfunction(v, 2)
    assert not rep.passed
    assert any(v_.p == 101 and v_.kind == "integrality" for v_ in rep.violations)


def test_bad_primes_skipped_and_reported():
    # constant tower a_k = 1/7: only the ramified prime shows up, and it is
    # excluded from the verdict rather than judged
    coeffs = [CUBIC.elem(Fraction(1, 7 * k * k)) for k in range(1, 7)]
    rep = check_sfunction(Series.from_coeffs(CUBIC, 6, coeffs), 2)
    assert rep.skipped_primes == (7,)
    assert rep.passed
    assert rep.violations == []


def test_bad_primes_with_pairs_are_skipped():
    # integral series: no bad prime is in a denominator, but pairs at the
    # bad primes 2 and 5 of x**2 - 5, and at 7 over Q(zeta_7), go unjudged;
    # over Q no prime is bad
    root5 = make_field([-5, 0, 1])
    ab7 = abelian_generator(CyclotomicSpec(7, {1: 1, 2: -1, 3: 2}, 2), 30)
    for v, skipped in ((polylog(2, 16, root5), (2, 5)), (ab7, (7,)), (polylog(2, 16), ())):
        rep = check_sfunction(v, 2)
        assert rep.passed
        assert rep.skipped_primes == skipped
        assert check_uni_by_dense_scan(v, 2).skipped_primes == skipped


# --- dwork factorization


def test_dwork_factor_log_geometric():
    # -log(1-z): b_1 = 1, rest 0
    b = dwork_factor(polylog(1, 8))
    assert b[0] == 1
    assert all(x.is_zero() for x in b[1:])


def test_dwork_factor_example():
    # a = (1, 3, ...): b_2 = a_2/2 - b_1^2/2 = 1
    v = _series([1, Fraction(3, 2), 0, 0])
    b = dwork_factor(v)
    assert b[0] == 1 and b[1] == 1


def test_dwork_assemble_roundtrip():
    rng = random.Random(3)
    for field in (Q, QI3):
        b = [field.elem(rng.randrange(-9, 10)) for _ in range(10)]
        v = dwork_series_by_product(b, 10)
        assert dwork_factor(v) == b


def test_dwork_three_way_equivalence_smoke():
    rng = random.Random(11)
    from sfuncs.series import exp_series

    for _ in range(25):
        coeffs = [Fraction(rng.randrange(-6, 7), rng.choice((1, 1, 1, 2, 3)))
                  for _ in range(12)]
        v = _series(coeffs)
        b = dwork_factor(v)
        ev = exp_series(v)
        b_integral = all(not denominator_support(x) for x in b)
        e_integral = all(
            not denominator_support(ev.coeff(k)) for k in range(1, 13)
        )
        verdict = check_sfunction(v, 1).passed
        assert verdict == b_integral == e_integral


# --- congruence-tower generator


def test_generate_crt_rationals_tower():
    # x = 4, s = 3: the canonical representative stays 4 at every index
    v = generate_crt(Q, Q.elem(4), 3, 12)
    for k in range(1, 13):
        assert v.coeff(k) * k**3 == 4
    assert check_sfunction(v, 3).passed


def test_generate_crt_smallest_representative():
    # s = 2: at k = 2 the representative of 4 mod 4 is 0
    v = generate_crt(Q, Q.elem(4), 2, 4)
    assert v.coeff(1) == 4
    assert v.coeff(2) == 0
    assert check_sfunction(v, 2).passed


def test_generate_crt_number_field():
    x = QI3.gen()
    v = generate_crt(QI3, x, 2, 10)
    assert v.coeff(1) == x
    # indices sharing a factor with the discriminant produce zero
    assert (v.coeff(2) * 4).is_zero()
    assert (v.coeff(6) * 36).is_zero()
    a5 = v.coeff(5) * 25
    assert a5 == x * 24  # Frob_5(x) = -x = 24x mod 25
    assert check_sfunction(v, 2).passed
    assert check_sfunction(generate_crt(QI3, x, 3, 10), 3).passed


def test_generate_crt_needs_integral_seed():
    with pytest.raises(NotIntegral):
        generate_crt(Q, Q.elem(Fraction(1, 2)), 2, 4)


def test_generate_crt_refuses_a_seed_of_another_field():
    with pytest.raises(FieldMismatch, match="^seed element must belong to the field$"):
        generate_crt(Q, QI3.gen(), 2, 4)


# --- multivariate checking


def _dilog_monomial(e1, e2, order, weight=1):
    d = {}
    k = 1
    while e1 * k + e2 * k <= order:
        d[(e1 * k, e2 * k)] = Fraction(weight, k * k)
        k += 1
    return MSeries.from_dict(Q, 2, order, d)


def test_multivariate_dilog_passes():
    w = _dilog_monomial(1, 0, 8) + _dilog_monomial(0, 1, 8) + _dilog_monomial(1, 1, 8) * 3
    rep = check_sfunction(w, 2)
    assert rep.passed
    assert rep.checks  # congruences were actually exercised


def test_multivariate_perturbation_detected():
    w = _dilog_monomial(1, 1, 6)
    bad = w + MSeries.from_dict(Q, 2, 6, {(2, 2): Fraction(1, 2)})
    rep = check_sfunction(bad, 2)
    assert not rep.passed
    assert any(tuple(v.index) == (2, 2) and v.p == 2 for v in rep.violations)


def test_multivariate_constant_rejected():
    w = MSeries.from_dict(Q, 2, 4, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(BadConstantTerm):
        check_sfunction(w, 2)


def test_extra_primes_reported_not_judged():
    # 7 ramifies for this field; once an index needs precision 2 the lift
    # does not exist and the exploration says so without failing the check
    coeffs = [CUBIC.elem(Fraction(1, k * k)) for k in range(1, 15)]
    v = Series.from_coeffs(CUBIC, 14, coeffs)
    rep = check_sfunction(v, 2, extra_primes=(7,))
    assert rep.passed  # exploration never affects the verdict
    extra = rep.to_obj()["extra_primes"]
    assert extra[0]["p"] == 7
    assert extra[0]["bad"] is True
    assert extra[0]["frobenius_defined"] is False
    assert "LiftFailed" in extra[0]["error"]


def test_extra_primes_good_prime_checks():
    v = polylog(2, 10)
    rep = check_sfunction(v, 2, extra_primes=(3,))
    extra = rep.to_obj()["extra_primes"]
    assert extra[0]["frobenius_defined"] is True
    assert all(c["ok"] for c in extra[0]["checks"])


@pytest.mark.parametrize("q", [0, 1, 4, -3])
def test_extra_primes_must_be_prime(q):
    # ord_p(k, 1) never ends and ord_p(k, 0) divides by zero, so every
    # non-prime is refused before any check runs
    univariate = polylog(2, 8)
    multivariate = MSeries.from_dict(Q, 2, 4, {(1, 0): 1, (2, 2): Fraction(1, 4)})
    for v in (univariate, multivariate):
        with pytest.raises(NotPrime):
            check_sfunction(v, 2, extra_primes=(3, q))


@pytest.mark.parametrize("q", [318665857834031151167461, 2**89 - 1])
def test_extra_primes_must_be_below_the_proven_bound(q):
    # the strong pseudoprime psi_12 to the bases 2..37, and a prime above
    # PRIME_TEST_BOUND, where is_prime is not proven
    with pytest.raises(NotPrime):
        check_sfunction(polylog(2, 8), 2, extra_primes=(q,))


def test_extra_primes_in_one_pass_match_the_reports_one_prime_at_a_time():
    # the pairs are bucketed by prime in one pass; each distinct prime gets
    # one entry, in first-seen order, equal to the report of its prime
    # alone, and at a good prime listing the verdict's congruence checks there
    x = CUBIC.gen()
    cubic = Series.from_coeffs(CUBIC, 30, [x * Fraction(k % 5 + 1, k * k) + k
                                           for k in range(1, 31)])
    cases = [(polylog(3, 60), 3, (2, 3, 5, 61, 3, 2, 59)),
             (cubic, 2, (7, 2, 7, 3, 31, 2))]
    for v, s, extra in cases:
        rep = check_sfunction(v, s, extra_primes=extra)
        assert [e["p"] for e in rep.extra] == list(dict.fromkeys(extra))
        for q, entry in zip(dict.fromkeys(extra), rep.extra, strict=True):
            assert entry == check_sfunction(v, s, extra_primes=(q,)).extra[0]
            # every k is a term, so each prime up to the order has pairs
            assert bool(entry["checks"] or "error" in entry) == (q <= v.order)
            if not entry["bad"]:
                assert entry["checks"] == [
                    _check_obj(c, ok=c.ok) for c in rep.checks
                    if c.p == q and c.kind == "congruence"]
        assert any(e["bad"] for e in rep.extra) == (v is cubic)


# --- one checker: a Series is checked as its one-variable MSeries


_small_fraction = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3, 4, 5, 7, 8, 9))
)


@st.composite
def one_variable_data(draw):
    """(v, s): a random, perturbed or sparse one-variable series."""
    field = draw(st.sampled_from(FIELDS))
    order = draw(st.integers(1, 24))
    s = draw(st.integers(1, 3))

    def coords(entries):
        return draw(st.lists(entries, min_size=field.degree, max_size=field.degree))

    if draw(st.booleans()):
        tower = generate_crt(field, field.elem(coords(st.integers(-5, 5))), s, order)
        coeffs = [tower.coeff(k) for k in range(1, order + 1)]
        for k in draw(st.lists(st.integers(1, order), max_size=3)):
            coeffs[k - 1] = coeffs[k - 1] + field.elem(coords(_small_fraction)) / k**s
    else:
        coeffs = [field.elem(coords(_small_fraction)) for _ in range(order)]
    for k in draw(st.lists(st.integers(1, order), max_size=order)):
        coeffs[k - 1] = field.zero()
    return Series.from_coeffs(field, order, coeffs), s


@settings(max_examples=80, deadline=None)
@given(one_variable_data())
def test_one_variable_reports_match_the_dense_scan(data):
    v, s = data
    got = check_sfunction(v, s)
    want = check_uni_by_dense_scan(v, s)
    assert got.to_obj() == want.to_obj()
    # the scan also records pairs whose two coefficients vanish; the checker
    # skips them and agrees with the scan on every other record
    absent = [v.coeff(k).is_zero() for k in range(v.order + 1)]
    assert got.checks == tuple(
        c for c in want.checks
        if c.kind == "integrality" or not (absent[c.index] and absent[c.index // c.p])
    )


def _as_one_variable(obj):
    """A two-variable report read with one-entry indices as ints."""
    def fix(entry):
        return {**entry, "k": entry["k"][0]}

    out = {**obj, "violations": [fix(e) for e in obj["violations"]]}
    if "extra_primes" in obj:
        out["extra_primes"] = [
            {**e, "checks": [fix(c) for c in e["checks"]]} for e in obj["extra_primes"]
        ]
    return out


@settings(max_examples=40, deadline=None)
@given(one_variable_data())
def test_series_and_its_one_variable_mseries_report_alike(data):
    v, s = data
    w = MSeries.from_univariate(v)
    got = check_sfunction(w, s, extra_primes=(2, 3, 7))
    want = check_sfunction(v, s, extra_primes=(2, 3, 7))
    assert _as_one_variable(got.to_obj()) == want.to_obj()
    assert [(c.index[0], c.p, c.required, c.valuation) for c in got.checks] == [
        (c.index, c.p, c.required, c.valuation) for c in want.checks
    ]


def test_square_prime_violation_reads_as_in_one_variable():
    # c_4 gains 1/2, so a_4 = 16 c_4 = 9 against frob_2(a_2) = 1: the defect
    # -8 has valuation 3 where 4 = s * ord_2(4) is required.  The diagonal
    # copy in two variables normalizes by g = gcd(4, 4) = 4 and reports the
    # same numbers.
    bump = Fraction(1, 2)
    uni = Series.from_coeffs(
        Q, 4, [Fraction(1, k * k) + (bump if k == 4 else 0) for k in range(1, 5)]
    )
    two = _dilog_monomial(1, 1, 8) + MSeries.from_dict(Q, 2, 8, {(4, 4): bump})
    spots = [
        [(c.index, c.p, c.required, c.valuation) for c in rep.violations]
        for rep in (check_sfunction(uni, 2), check_sfunction(two, 2))
    ]
    assert spots == [[(4, 2, 4, 3)], [((4, 4), 2, 4, 3)]]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.sampled_from((2, 3, 5, 7, 11)),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 5),
    st.data(),
)
def test_absent_coefficient_check_equals_the_ring_path(field, p, s, k, m, j, data):
    # only c_k is present, so the pair (p*k, p) has cur = 0 and is judged by
    # valuation alone; it must equal the residue-ring check, cap included
    assume(field.discriminant % p != 0)
    nums = data.draw(
        st.lists(st.integers(-40, 40), min_size=field.degree, max_size=field.degree)
        .filter(any)
    )
    x = field.elem([Fraction(c * p**j, p**m) for c in nums])
    order = p * k
    v = Series.from_coeffs(
        field, order, [x if i == k else field.zero() for i in range(1, order + 1)]
    )
    got = [
        c for c in check_sfunction(v, s).checks
        if (c.index, c.p, c.kind) == (order, p, "congruence")
    ]
    required = s * (ord_p(k, p) + 1)
    assert got == [_judge(field, x * k**s, field.zero(), order, p, required)]


def test_declared_order_does_not_drive_the_cost(tmp_path):
    # one term z1 at declared order 10**5: every prime p <= order pairs it
    # with the absent z1**p, and none of those pairs needs a residue ring
    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        "field": {"minpoly": ["0", "1"]},
        "nvars": 2,
        "order": 100000,
        "coeffs": {"1,0": [["1", "1"]]},
    }))
    w = load_series(str(path))
    t0 = time.perf_counter()
    rep = check_sfunction(w, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 2.0
    assert [(c.index, c.p, c.required, c.valuation) for c in rep.violations] == [
        ((p, 0), p, 2, 0) for p in primes_up_to(100000)
    ]


def test_a_large_gcd_is_factored_without_a_sieve_to_it(tmp_path):
    # one term z1**g with g = 2*3*...*23 at declared order g: no prime times
    # the term fits, and factoring g from a table up to g would hang
    g = 223092870
    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        "field": {"minpoly": ["0", "1"]},
        "nvars": 2,
        "order": g,
        "coeffs": {f"{g},0": ["1"]},
    }))
    w = load_series(str(path))
    t0 = time.perf_counter()
    rep = check_sfunction(w, 2)
    assert time.perf_counter() - t0 <= 2.0
    # a_k = g**2 against the absent a_(k/p): valuation 2 = required at each p | g
    assert rep.passed
    assert [(c.index, c.p, c.required, c.valuation) for c in rep.checks] == [
        ((g, 0), p, 2, 2) for p in primes_up_to(23)
    ]


def _over_40_bit_primes(order=200):
    """(V, primes): c_k = 1/q_k over Q, q_k the k-th prime above 2**39."""
    primes, q = [], 1 << 39
    while len(primes) < order:
        q += 1
        if is_prime(q):
            primes.append(q)
    return Series.from_coeffs(Q, order, [Fraction(1, q) for q in primes]), primes


def test_forty_bit_denominators_are_factored_in_bounded_time():
    # each denominator is a prime near 2**39: trial division stops at 2**10
    # and is_prime proves the cofactor, where trial division to its square
    # root took seconds per file
    v, primes = _over_40_bit_primes()
    t0 = time.perf_counter()
    rep = check_sfunction(v, 2)
    assert time.perf_counter() - t0 <= 2.0
    # a_k = k**2/q_k is not q_k-integral, and v_p(a_k - a_(k/p)) = 2 ord_p(k) - 2
    integrality = [(k, q, 0, -1) for k, q in enumerate(primes, 1)]
    congruence = [(k, p, 2 * ord_p(k, p), 2 * ord_p(k, p) - 2)
                  for k in range(1, 201) for p in primes_up_to(k) if k % p == 0]
    got = [(c.index, c.p, c.required, c.valuation) for c in rep.violations]
    assert len(got) == 569
    assert got == sorted(integrality + congruence)


def test_an_extra_prime_given_twice_is_reported_once():
    v = polylog(2, 8)
    rep = check_sfunction(v, 2, (3, 3))
    assert rep.extra == check_sfunction(v, 2, (3,)).extra
    assert len(rep.extra) == 1 and rep.extra[0]["checks"]
    assert [e["p"] for e in check_sfunction(v, 2, (5, 3, 5, 2, 3)).extra] == [5, 3, 2]


def test_the_sieve_reaches_only_the_primes_the_terms_need(monkeypatch):
    # p*k is a term only for p <= order // |k|; with no terms no prime is
    # needed.  The recorder sieves nothing large, so a regression allocates
    # nothing: it shows as a wrong argument.
    asked = []

    def record(n):
        asked.append(n)
        return primes_up_to(n) if n <= 10**4 else ()

    monkeypatch.setattr(sfunc, "primes_up_to", record)
    empty = MSeries.from_dict(Q, 2, 30_000_000, {})
    assert check_sfunction(empty, 2).checks == () and asked == []
    w = MSeries.from_dict(Q, 2, 30_000_000, {(3, 4): 1, (20, 0): 1})
    check_sfunction(w, 2)
    assert asked == [30_000_000 // 7]
    asked.clear()
    v = _series([0, 0, 1] + [0] * 7)
    rep = check_sfunction(v, 1)
    assert asked == [3]
    assert rep.to_obj() == check_uni_by_dense_scan(v, 1).to_obj()


# --- the congruence on integer rows against the Fraction oracle


ROW_FIELDS = (Q, EISENSTEIN, CUBIC, cyclotomic_field(7))


@st.composite
def congruence_data(draw):
    """(field, prev, cur, p, required): prev and cur with up to p**4 in their
    denominators; cur is zero, random, or frob_p(prev) plus a multiple of
    p**j, so valuations near required come up."""
    field = draw(st.sampled_from(ROW_FIELDS))
    p = draw(st.sampled_from([q for q in (2, 3, 5, 7, 11, 13)
                              if field.discriminant % q]))
    required = draw(st.integers(1, 12))

    def elem(shift):
        nums = draw(st.lists(st.integers(-10**6, 10**6),
                             min_size=field.degree, max_size=field.degree))
        unit = draw(st.sampled_from((1, 2, 3, 5, 7, 11, 13)))
        unit += unit % p == 0  # a denominator prime to p
        return field.elem([Fraction(c, p**shift * unit) for c in nums])

    m_prev = draw(st.integers(0, 4))
    prev = field.zero() if draw(st.integers(0, 5)) == 0 else elem(m_prev)
    kind = draw(st.sampled_from(("zero", "random", "near")))
    if kind == "zero":
        cur = field.zero()
    elif kind == "random":
        cur = elem(draw(st.integers(0, 4)))
    else:
        image = frobenius_residues(field, prev * p**m_prev, p, required + m_prev + 2)
        j = draw(st.integers(0, required + 2))
        cur = field.elem(image) / p**m_prev + elem(0) * p**j
    return field, prev, cur, p, required


@settings(max_examples=200, deadline=None)
@given(congruence_data(), st.integers(1, 40))
def test_row_congruence_equals_the_fraction_oracle(data, index):
    field, prev, cur, p, required = data
    want = congruence_by_fractions(field, prev, cur, index, p, required)
    assert _judge(field, prev, cur, index, p, required) == want


@pytest.mark.parametrize("field", ROW_FIELDS)
def test_row_congruence_with_zero_coefficients(field):
    x = field.gen() + Fraction(1, 4)
    zero = field.zero()
    for prev, cur in ((zero, x), (x, zero), (zero, zero)):
        for p in (3, 5, 11):
            if field.discriminant % p:
                for required in (1, 4):
                    got = _judge(field, prev, cur, p, p, required)
                    assert got == congruence_by_fractions(
                        field, prev, cur, p, p, required
                    )


def test_exact_zero_defect_reads_required():
    # frob_p fixes rationals, so 5 against 5 leaves an exactly-zero defect
    five = CUBIC.elem(5)
    for required in (1, 7):
        c = _judge(CUBIC, five, five, 9, 3, required)
        assert (c.valuation, c.ok) == (required, True)
        assert _check_obj(c)["valuation"] == required
    rep = check_sfunction(polylog(2, 12), 2)
    assert all(c.valuation == c.required for c in rep.checks)


@pytest.mark.parametrize("s", [0, -1])
def test_strength_below_one_is_refused(s):
    for v in (polylog(2, 6), MSeries.from_dict(Q, 2, 4, {(1, 0): 1, (2, 2): 1})):
        with pytest.raises(ValueError):
            check_sfunction(v, s)


def test_extra_bad_prime_entries_build_each_lift_at_its_precision():
    # at a bad prime a lift mod p may exist where none mod p**2 does, so no
    # lift is reused across precisions.  The entries are the ones the
    # residue-ring checker reported before the row path.
    cubic = [CUBIC.elem(Fraction(1, k * k)) for k in range(1, 15)]
    rep = check_sfunction(Series.from_coeffs(CUBIC, 14, cubic), 2, extra_primes=(7,))
    assert rep.to_obj()["extra_primes"] == [{
        "p": 7, "bad": True, "frobenius_defined": False, "checks": [],
        "error": "LiftFailed: non-unit encountered mod 7",
    }]
    field = make_field([-2, 0, 0, 1])  # x^3 - 2, discriminant -108
    x = field.gen()
    lifted_2 = {"k": 2, "required": 1, "valuation": 1, "ok": True}
    for order, defined in ((8, True), (9, False)):
        coeffs = [
            x**k / k + (Fraction(1, 3) if k == 6 else 0) + (x if k == 3 else 0)
            for k in range(1, order + 1)
        ]
        v = Series.from_coeffs(field, order, coeffs)
        at_3 = {
            "p": 3, "bad": True, "frobenius_defined": defined,
            "checks": [
                {"k": 3, "required": 1, "valuation": 1, "ok": True},
                {"k": 6, "required": 1, "valuation": 0, "ok": False},
            ],
        }
        if not defined:  # k = 9 needs the lift mod 9, which does not exist
            at_3["error"] = "LiftFailed: non-unit encountered mod 3"
        rep = check_sfunction(v, 1, extra_primes=(2, 3))
        assert rep.to_obj()["extra_primes"] == [
            {"p": 2, "bad": True, "frobenius_defined": False, "checks": [lifted_2],
             "error": "LiftFailed: non-unit encountered mod 2"},
            at_3,
        ]
    # the oracle agrees where the lift mod 3 exists: there it is x**3 mod 3
    a3 = x**3 + 3 * x

    def x_cubed_mod_3(f, q, n):
        assert (q, n) == (3, 1)
        return [int(c) % 3 for c in (f.gen() ** 3).coords]

    assert _judge(field, x, a3, 3, 3, 1) == (
        congruence_by_fractions(field, x, a3, 3, 3, 1, x_cubed_mod_3)
    )


# --- one pass per prime: the lift is fetched as each pair needs it


NONAB = make_field([-1, -1, 0, 1])  # x^3 - x - 1, discriminant -23: Newton lifts


def test_one_pass_fetches_the_lift_as_the_needs_rise_and_fall():
    # at p = 5 the pairs need the lift mod 5**n for n = 1, 4, 2, 7, 1, 5,
    # and two pairs have an absent side, on a lift cell built afresh: every
    # check equals the pair judged alone and the fraction oracle
    p, x, zero = 5, NONAB.gen(), NONAB.zero()

    def near(prev, m, j):  # frob_p(prev) + p**j x, prev with p**m in its denominator
        image = NONAB.elem(frobenius_residues(NONAB, prev * p**m, p, 12)) / p**m
        return image + x * Fraction(p) ** j

    pairs = []
    for k, (num, m, required, j) in enumerate([
            (1 + x, 0, 1, 3), (2 + x * x, 3, 1, 1), (x - 3, 1, 1, 0), (4 * x, 0, 7, 8),
            (x * x + x, 0, 1, 0), (7 - x, 2, 3, 3)]):
        prev = num / p**m
        pairs.append((k, prev, near(prev, m, j), required))
        if k in (2, 4):  # a pair with a_k absent, one with a_(k/p) absent
            pairs.append((k + 10, *((prev, zero) if k == 2 else (zero, prev)), required + 2))
    padic._lift_cell.cache_clear()
    out, error = _prime_pass(NONAB, p, pairs, lambda key: key, zero)
    assert error is None
    assert [(c.index, c.valuation, c.ok) for c in out] == [
        (0, 1, True), (1, 1, True), (2, 0, False), (12, -1, False), (3, 7, True),
        (4, 0, False), (14, 0, False), (5, 3, True)]
    for check, (k, prev, cur, required) in zip(out, pairs):
        assert check == _judge(NONAB, prev, cur, k, p, required)
        assert check == congruence_by_fractions(NONAB, prev, cur, k, p, required)


def test_a_failed_lift_at_a_good_prime_propagates(monkeypatch):
    v = generate_crt(NONAB, NONAB.gen(), 2, 10)

    def refuse(field, p, n):
        raise LiftFailed(f"planted at p={p}")

    monkeypatch.setattr(sfunc, "_frobenius_rows", refuse)
    for extra in ((), (3,)):  # an extra good prime is judged as any good prime
        with pytest.raises(LiftFailed, match="planted"):
            check_sfunction(v, 2, extra_primes=extra)


def test_a_bad_prime_lifts_a_pair_with_an_absent_side():
    # over x^3 - 2 the lift at 2 exists mod 2 only; the pair (2, 2) has
    # a_2 absent, yet at a bad p it is lifted at its precision s
    field = make_field([-2, 0, 0, 1])
    v = Series.from_coeffs(field, 2, [field.gen()])
    assert check_sfunction(v, 1, extra_primes=(2,)).extra == ({
        "p": 2, "bad": True, "frobenius_defined": True,
        "checks": [{"k": 2, "required": 1, "valuation": 0, "ok": False}]},)
    assert check_sfunction(v, 2, extra_primes=(2,)).extra == ({
        "p": 2, "bad": True, "frobenius_defined": False, "checks": [],
        "error": "LiftFailed: non-unit encountered mod 2"},)


# --- the pass per prime against both dense-scan oracles


_DENS = (1, 2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49)  # good and bad primes


@st.composite
def checked_series(draw):
    """(v, s, extra): a Series, or an MSeries in 2 or 3 variables, whose terms
    are congruence towers along primitive directions e (a_(m e) of a
    generate_crt tower, so most congruences hold), some perturbed by adding
    or dividing by fractions with p-powers in their denominators and some
    removed.  The extra primes may repeat and hold 3 or 7, bad for
    x^2 + x + 1 and for the cubic."""
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    order = draw(st.integers(1, (24, 10, 6)[nvars - 1]))
    s = draw(st.integers(1, 3))

    def elem(entries):
        return field.elem(draw(st.lists(entries, min_size=field.degree,
                                        max_size=field.degree)))

    keys = [k for k in itertools.product(range(order + 1), repeat=nvars)
            if 0 < sum(k) <= order]
    primitive = [k for k in keys if math.gcd(*k) == 1]
    terms = {}
    for e in draw(st.lists(st.sampled_from(primitive), min_size=1, max_size=3, unique=True)):
        tower = generate_crt(field, elem(st.integers(-5, 5)), s, order // sum(e))
        for m in range(1, tower.order + 1):
            terms[tuple(m * x for x in e)] = tower.coeff(m)
    fraction = st.builds(Fraction, st.sampled_from((-2, -1, 1, 3)), st.sampled_from(_DENS))
    for k in draw(st.lists(st.sampled_from(keys), max_size=4)):
        terms[k] = terms.get(k, field.zero()) + elem(fraction) / math.gcd(*k) ** s
    for k, d in draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(_DENS)),
                              max_size=2)):  # a_k / d: near frob(a_(k/p)) at p | d
        if k in terms:
            terms[k] = terms[k] / d
    for k in draw(st.lists(st.sampled_from(keys), max_size=len(keys) // 2)):
        terms.pop(k, None)
    extra = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11)), max_size=3))
    extra.insert(draw(st.integers(0, len(extra))), draw(st.sampled_from((3, 7))))
    w = MSeries.from_dict(field, nvars, order, terms)
    return (w.to_univariate() if nvars == 1 else w), s, tuple(extra)


def _package_lift(field, p, n):
    """The package's lift mod p**n, also at a bad prime where one exists."""
    return [c % p**n for c in padic._frobenius_rows(field, p, n)[1]]


@settings(max_examples=100, deadline=None)
@given(checked_series())
def test_pass_per_prime_matches_the_dense_scans(data):
    v, s, extra = data
    w = v if isinstance(v, MSeries) else MSeries.from_univariate(v)
    field, present = w.field, set(w.as_dict)
    got = check_sfunction(w, s, extra_primes=extra)
    want = check_multi_by_dense_scan(w, s)
    if not isinstance(v, MSeries):
        assert _as_one_variable(want.to_obj()) == check_uni_by_dense_scan(v, s).to_obj()
        assert _as_one_variable(got.to_obj()) == check_sfunction(v, s, extra).to_obj()
    # the scan also records pairs whose two coefficients vanish
    assert got.checks == tuple(
        c for c in want.checks if c.kind == "integrality"
        or {c.index, tuple(k // c.p for k in c.index)} & present)
    assert got.skipped_primes == want.skipped_primes
    assert got.checks == check_sfunction(w, s).checks  # extras never judge
    assert [e["p"] for e in got.extra] == list(dict.fromkeys(extra))
    for entry in got.extra:
        q = entry["p"]
        if field.discriminant % q:
            assert entry == {"p": q, "bad": False, "frobenius_defined": True, "checks": [
                _check_obj(c, ok=c.ok) for c in got.checks
                if c.p == q and c.kind == "congruence"]}
            continue
        # a bad prime: its pairs in key order, each judged at its own
        # precision, up to the first lift that fails
        pairs = sorted(k for k in present | {tuple(q * x for x in k) for k in present}
                       if sum(k) <= w.order and math.gcd(*k) % q == 0)

        def judge(k):
            down = tuple(x // q for x in k)
            g = math.gcd(*k)
            return congruence_by_fractions(
                field, w.coeff(down) * (g // q) ** s, w.coeff(k) * g**s, k, q,
                s * ord_p(g, q), lift=_package_lift)

        done = len(entry["checks"])
        assert entry["checks"] == [_check_obj(c, ok=c.ok) for c in map(judge, pairs[:done])]
        assert entry["bad"] and entry["frobenius_defined"] == ("error" not in entry)
        if "error" in entry:
            with pytest.raises(SfuncError):
                judge(pairs[done])
        else:
            assert done == len(pairs)
