"""Refusals that no other in-process test reaches: one row per raise,
the call and the error class it must raise.  Raises that a command-line
test already reaches in its subprocess (a series file whose 'coeffs' is not
a list, or not a dict for several variables) have no row here."""
from __future__ import annotations

import time

import pytest

from sfuncs import serialize
from sfuncs.catalog import CyclotomicSpec, abelian_generator, cyclotomic_field, from_log_poly, polylog
from sfuncs.errors import (
    BadConstantTerm,
    BadFile,
    DegreeZero,
    DescentFailed,
    DimensionMismatch,
    FramingTooLarge,
)
from sfuncs.framing import frame_f
from sfuncs.intutil import moebius
from sfuncs.mseries import MSeries, delta_i, exp_m, log_m
from sfuncs.numfield import FieldElem, make_field, rationals
from sfuncs.series import Series, shift_down
from sfuncs.sfunc import dwork_factor, generate_crt

Q = rationals()
Z1 = MSeries.var(Q, 2, 3, 0)

REFUSALS = [
    # serialize
    ("field object without minpoly", lambda: serialize.field_from_obj({}), BadFile),
    ("field spec not a list", lambda: serialize.field_from_obj("x"), BadFile),
    ("element not a list", lambda: serialize.elem_from_obj(Q, "1"), BadFile),
    ("multivariate object without nvars",
     lambda: serialize.mseries_from_obj({"field": [0, 1], "order": 2, "coeffs": {}}), BadFile),
    # series
    ("negative order", lambda: Series(Q, -1, Q.zero(), ()), ValueError),
    ("coefficient count not the order", lambda: Series(Q, 2, Q.zero(), (Q.one(),)), ValueError),
    ("more coefficients than the order", lambda: Series.from_coeffs(Q, 1, [1, 2]), ValueError),
    ("truncation above the order", lambda: polylog(2, 4).truncate(5), ValueError),
    ("shift_down of a constant", lambda: shift_down(Series.from_coeffs(Q, 2, [], 1)),
     BadConstantTerm),
    ("shift_down at order 0", lambda: shift_down(Series.zero(Q, 0)), ValueError),
    # mseries
    ("no variables", lambda: MSeries.from_dict(Q, 0, 3, {}), DimensionMismatch),
    ("negative exponent", lambda: MSeries.from_dict(Q, 2, 3, {(-1, 2): 1}), ValueError),
    ("two variables to one", lambda: Z1.to_univariate(), DimensionMismatch),
    ("variable index out of range", lambda: delta_i(Z1, 2), DimensionMismatch),
    ("exp of a constant", lambda: exp_m(Z1 + 1), BadConstantTerm),
    ("log without constant 1", lambda: log_m(Z1), BadConstantTerm),
    # numfield
    ("value class given too few fields", lambda: MSeries(Q, 1), TypeError),
    ("element of the wrong length", lambda: Q.elem([1, 2]), ValueError),
    ("constant minimal polynomial", lambda: make_field([1]), DegreeZero),
    ("coordinates of the wrong length", lambda: FieldElem(Q, (1, 2), 1), ValueError),
    ("zero denominator", lambda: FieldElem(Q, (1,), 0), ZeroDivisionError),
    # sfunc, catalog, intutil
    ("dwork_factor of a constant", lambda: dwork_factor(Series.from_coeffs(Q, 2, [], 1)),
     BadConstantTerm),
    ("generate_crt at order 0", lambda: generate_crt(Q, Q.one(), 1, 0), ValueError),
    ("from_log_poly at s = 0", lambda: from_log_poly(Q, [1, -1], 0, 4), ValueError),
    ("descent without a subfield", lambda: abelian_generator(
        CyclotomicSpec(7, {1: 1, 6: 1}, 2), 4, x_expr=cyclotomic_field(7).gen()), DescentFailed),
    ("moebius of 0", lambda: moebius(0), ValueError),
]


@pytest.mark.parametrize("call, error", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refused(call, error):
    with pytest.raises(error):
        call()


def test_a_framing_far_above_the_cap_is_refused_before_any_work():
    # W = z at order 5,000: the pairs of the walk alone, C(5002, 2), are
    # above MAX_WORK, so _walk_cost returns them without summing its terms
    w = Series.var(Q, 5000)
    t0 = time.monotonic()
    with pytest.raises(FramingTooLarge):
        frame_f(w, 1)
    assert time.monotonic() - t0 < 1


def test_a_framing_by_a_huge_kappa_is_refused_before_any_work():
    # f = 10**1000 on Li2 at order 120: 120**2 * 3,322 kappa bits, far above
    # MAX_KAPPA_BITS (at order 60 this framing took 5.6 s, at 120 it ran for
    # more than 50 s); f = 10**6 at order 200, 800,000 kappa bits, frames
    w = polylog(2, 120)
    t0 = time.monotonic()
    with pytest.raises(FramingTooLarge):
        frame_f(w, 10**1000)
    assert time.monotonic() - t0 < 0.5
    assert frame_f(polylog(2, 200), 10**6).order == 200
