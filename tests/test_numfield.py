from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    elem_by_fractions,
    resultant_by_sylvester,
    same_as_checked,
    sum_products_by_fractions,
)
from sfuncs.catalog import cyclotomic_polynomial
from sfuncs.errors import FieldMismatch, NotInvertible, NotMonic, NotSquarefree, SfuncError
from sfuncs.numfield import (
    FieldElem,
    _derivative,
    _resultant,
    _sum_rows,
    denominator_support,
    discriminant,
    invert,
    make_field,
    rationals,
)

CUBIC = make_field([-1, -2, 1, 1])  # x^3 + x^2 - 2x - 1
QI3 = make_field([3, 0, 1])  # x^2 + 3


def _sylvester_det_fractions(p: list[int], q: list[int]) -> Fraction:
    """Independent resultant: Fraction Gaussian elimination on Sylvester."""
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in reversed(p)]
                    + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in reversed(q)]
                    + [Fraction(0)] * (size - i - n - 1))
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if rows[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, size):
            if rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


@pytest.mark.parametrize(
    "poly", [[-1, -2, 1, 1], [3, 0, 1], [-5, 0, 0, 1], [1, 1, 1, 1, 1],
             [2, 0, -3, 1], [7, -1, 1], [-1, 3, 0, 0, 1]]
)
def test_discriminant_matches_fraction_oracle(poly):
    d = len(poly) - 1
    dp = [i * poly[i] for i in range(1, d + 1)]
    res = _sylvester_det_fractions(poly, dp)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    assert discriminant(poly) == sign * res


def test_field_constants():
    assert CUBIC.discriminant == 49
    assert QI3.discriminant == -12
    assert rationals().discriminant == 1
    assert rationals().degree == 1
    assert make_field([-5, 0, 0, 1]).discriminant == -675


def test_division_by_an_element_by_a_fraction_and_into_an_int():
    a, g = CUBIC.elem([1, 2, 3]), CUBIC.elem([Fraction(1, 2), -1, 1])
    assert a / g == a * invert(g) == CUBIC.elem([2, 4, 2])
    assert a / Fraction(2, 3) == a * Fraction(3, 2)
    assert 2 / g == invert(g) * 2 == CUBIC.elem([Fraction(84, 41), Fraction(24, 41), Fraction(-8, 41)])
    assert repr(CUBIC) == "NumberField([-1, -2, 1, 1])"


def test_make_field_rejects():
    with pytest.raises(NotMonic):
        make_field([1, 2])  # 2x + 1
    with pytest.raises(NotSquarefree):
        make_field([1, -2, 1])  # (x-1)^2
    with pytest.raises(NotSquarefree):
        make_field([0, 0, 1])  # x^2


def test_elem_refuses_floats():
    # 0.1 would be read as 3602879701896397/36028797018963968
    for value in ([0.1], 0.1, "1"):
        with pytest.raises(TypeError):
            rationals().elem(value)
    with pytest.raises(TypeError):
        CUBIC.elem([1, 2.0, 0])
    assert CUBIC.elem([True, Fraction(1, 2), 0]) == CUBIC.elem([1, Fraction(1, 2), 0])


def test_field_elem_refuses_non_int_coordinates_and_denominators():
    # int() would read 2.7 as 2, a denominator 2.5 as 2 and True as 1
    for field in (rationals(), CUBIC):
        ones = (1,) * field.degree
        for bad in (2.7, 2.0, Fraction(1, 2), Fraction(4, 1), True, False):
            with pytest.raises(TypeError):
                FieldElem(field, (bad,) + ones[1:], 1)
            with pytest.raises(TypeError):
                FieldElem(field, ones[:-1] + (bad,), 3)
            with pytest.raises(TypeError):
                FieldElem(field, ones, bad)
        nums = (4,) + ones[1:]
        assert FieldElem(field, nums, -2) == FieldElem(field, tuple(-n for n in nums), 2)


def test_reduction_examples():
    x = CUBIC.gen()
    assert x * (x * x) == CUBIC.elem([1, 2, -1])  # x^3 = -x^2 + 2x + 1
    y = QI3.gen()
    assert y * y == -3


def test_invert_examples():
    x = CUBIC.gen()
    assert invert(x) == CUBIC.elem([-2, 1, 1])  # 1/x = x^2 + x - 2
    assert invert(x) * x == 1
    y = QI3.gen()
    assert invert(y) == QI3.elem([0, Fraction(-1, 3)])
    with pytest.raises(NotInvertible):
        invert(CUBIC.zero())


def test_invert_zero_divisor_in_product_ring():
    ring = make_field([-1, 0, 1])  # x^2 - 1, squarefree but reducible
    with pytest.raises(NotInvertible):
        invert(ring.gen() - 1)


@pytest.mark.parametrize("divide", [
    lambda e: e / 0,
    lambda e: e / Fraction(0),
    lambda e: e / e.field.zero(),
    lambda e: 1 / e.field.zero(),
    lambda e: e.field.zero() ** -1,
    lambda e: invert(e.field.zero()),
])
@pytest.mark.parametrize("field", [rationals(), CUBIC])
def test_every_division_by_zero_raises_not_invertible(field, divide):
    with pytest.raises(NotInvertible) as info:
        divide(field.elem(3))
    assert isinstance(info.value, SfuncError) and isinstance(info.value, ZeroDivisionError)


def test_a_zero_divisor_raises_not_invertible_as_a_zero_division():
    ring = make_field([-1, 0, 1])  # x^2 - 1
    with pytest.raises(ZeroDivisionError, match="shares a factor"):
        ring.one() / (ring.gen() + 1)


def test_equality_coerces_scalars():
    assert CUBIC.elem(3) == 3
    assert CUBIC.elem(Fraction(1, 2)) == Fraction(1, 2)
    assert CUBIC.gen() != QI3.gen()
    assert CUBIC.elem(1) != QI3.elem(1)


@pytest.mark.parametrize("field", [rationals(), CUBIC], ids=["Q", "cubic"])
def test_an_element_equal_to_a_scalar_hashes_as_the_scalar(field):
    for value in (0, 3, -7, Fraction(1, 2)):
        e = field.elem(value)
        assert e == value and hash(e) == hash(value), value
        assert len({e, value}) == 1 and {value: "x"}.get(e) == "x", value
        assert {e: "x"}.get(value) == "x", value


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        CUBIC.gen() + QI3.gen()


def test_denominator_support():
    k = rationals()
    assert denominator_support(k.elem(Fraction(5, 12))) == {2, 3}
    assert denominator_support(CUBIC.elem([Fraction(1, 2), 3, Fraction(2, 7)])) == {2, 7}
    assert denominator_support(CUBIC.one()) == set()


_coords = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=9),
    min_size=3,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(_coords, _coords, _coords)
def test_ring_axioms(a, b, c):
    u, v, w = CUBIC.elem(a), CUBIC.elem(b), CUBIC.elem(c)
    assert (u + v) * w == u * w + v * w
    assert u * (v * w) == (u * v) * w
    assert u * v == v * u
    assert (u + v) - v == u


@settings(max_examples=40, deadline=None)
@given(_coords)
def test_inverse_roundtrip(a):
    u = CUBIC.elem(a)
    if not u.is_zero():
        assert invert(u) * u == 1


@settings(max_examples=40, deadline=None)
@given(_coords)
def test_power_matches_repeated_product(a):
    u = CUBIC.elem(a)
    acc = CUBIC.one()
    for k in range(5):
        assert u**k == acc
        acc = acc * u


def test_power_matches_repeated_product_to_nine_and_inverts_below_zero():
    u = CUBIC.elem([Fraction(2, 3), -1, 5])
    acc = CUBIC.one()
    for e in range(10):
        assert u**e == acc
        acc = acc * u
    assert u**1 is u  # no multiplication at all
    assert u**-3 == invert(u) ** 3
    assert u**-3 * u**3 == 1


def _resultant_pairs():
    rng = random.Random(9)
    for _ in range(300):
        d = rng.randint(1, 9)
        poly = [rng.randint(-20, 20) for _ in range(d)] + [1]
        other = [rng.randint(-20, 20) for _ in range(rng.randint(0, 8))]
        yield poly, _derivative(poly)
        yield poly, other + [rng.choice((-3, -1, 1, 2, 5))]
    for n in range(1, 80):
        poly = cyclotomic_polynomial(n)
        yield poly, _derivative(poly)


def test_euclidean_resultant_matches_sylvester():
    # random monic P of degree <= 9 against P' and a random Q, and the
    # cyclotomic polynomials below 80 against their derivatives
    for a, b in _resultant_pairs():
        assert _resultant(a, b) == resultant_by_sylvester(a, b), (a, b)


# Q, x^2+x+1, the disc-49 cubic and Q(zeta7)
SUM_FIELDS = [rationals(), make_field([1, 1, 1]), CUBIC, make_field([1] * 7)]


@st.composite
def _summand(draw, field):
    """An element with one denominator for all coordinates: equal (2, 2),
    dividing (2, 4, 12) and coprime (5, 7, 9) denominators all occur, and so
    does zero."""
    den = draw(st.sampled_from([1, 2, 4, 12, 5, 7, 9, 35]))
    nums = draw(st.lists(st.integers(-40, 40), min_size=field.degree,
                         max_size=field.degree))
    if draw(st.integers(0, 5)) == 0:
        nums = [0] * field.degree
    return FieldElem(field, tuple(nums), den)


def _weight_one_rows(pairs):
    """The _sum_rows rows of a sum of products x*y, each of weight 1."""
    return [(x.nums, x.den, y.nums, y.den, 1) for x, y in pairs]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sum_products_matches_the_fraction_oracle(data):
    field = data.draw(st.sampled_from(SUM_FIELDS))
    pairs = data.draw(st.lists(st.tuples(_summand(field), _summand(field)), max_size=7))
    scale = data.draw(st.sampled_from([1, -1, 2, -6, 35]))
    want = sum_products_by_fractions(field, pairs, scale)
    got = _sum_rows(field, _weight_one_rows(pairs), scale)
    assert got == (None if want is None else (want.nums, want.den))


def test_sum_products_denominator_cases():
    for field in SUM_FIELDS:
        d = field.degree
        assert _sum_rows(field, _weight_one_rows([]), 7) is None
        x = FieldElem(field, tuple(range(1, d + 1)), 1)
        one = field.one()

        def over(den):
            return FieldElem(field, tuple(range(-2, d - 2)), den)

        cases = [
            [(over(2), x), (over(2), one)],  # equal denominators
            [(over(2), x), (over(4), x), (over(2), one)],  # grows, then divides
            [(over(5), x), (over(7), over(9)), (over(35), x)],  # coprime
            [(field.zero(), over(9)), (over(3), x), (x, field.zero())],  # zeros
            [(field.zero(), field.zero())],  # only zero
        ]
        for pairs in cases:
            for scale in (1, -6):
                want = sum_products_by_fractions(field, pairs, scale)
                got = _sum_rows(field, _weight_one_rows(pairs), scale)
                assert got == (want.nums, want.den), (pairs, scale)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sum_rows_matches_the_weighted_fraction_oracle(data):
    # weights -3..3 (0 included) over the denominators of _summand; the
    # result is the normalized (nums, den) of the oracle's element
    field = data.draw(st.sampled_from(SUM_FIELDS))
    triples = data.draw(st.lists(
        st.tuples(_summand(field), _summand(field), st.integers(-3, 3)), max_size=7))
    scale = data.draw(st.sampled_from([1, -1, -6, 35]))
    rows = [(x.nums, x.den, y.nums, y.den, w) for x, y, w in triples]
    got = _sum_rows(field, rows, scale)
    want = sum_products_by_fractions(
        field, [(x, y) for x, y, _ in triples], scale, [w for _, _, w in triples])
    if not rows:
        assert got is None and want is None
    else:
        assert got == (want.nums, want.den)


def test_sum_rows_weights_and_denominators():
    for field in SUM_FIELDS:
        d = field.degree
        assert _sum_rows(field, []) is None
        assert _sum_rows(field, [], -6) is None
        a = tuple(range(1, d + 1))
        b = tuple(range(-2, d - 2))
        cases = [
            [(a, 2, b, 3, 1), (b, 6, a, 1, -2)],  # equal denominators
            [(a, 2, b, 1, 3), (b, 4, b, 3, 1), (a, 1, a, 1, 0)],  # dividing, a 0
            [(a, 5, b, 7, -3), (b, 9, a, 1, 2)],  # coprime
            [(a, 5, a, 1, 0)],  # only weight 0
        ]
        for rows in cases:
            pairs = [(FieldElem(field, x, xd), FieldElem(field, y, yd))
                     for x, xd, y, yd, _ in rows]
            for scale in (1, -1, -6, 35):
                want = sum_products_by_fractions(
                    field, pairs, scale, [w for *_, w in rows])
                assert _sum_rows(field, rows, scale) == (want.nums, want.den), rows


def test_sum_rows_over_q_fixed_cases():
    # the degree-1 sum of integers against the Fraction oracle: denominators
    # above 2**200, weights 0 and +-3, a sum that cancels to ((0,), 1)
    q = rationals()
    big, odd = 2**201 + 1, 3**130
    cases = [
        [((7,), big, (5,), 1, 1), ((-3,), odd, (2,), big, 3)],
        [((1,), 2, (1,), 3, 0), ((5,), 4, (9,), 7, -3), ((2,), 9, (1,), 1, 3)],
        [((3,), big, (2,), 5, 1), ((-6,), big, (1,), 5, 1)],  # cancels
        [((1,), 6, (1,), 1, 3), ((-1,), 2, (1,), 1, 1)],  # cancels
        [((4,), 1, (5,), 1, 0)],  # only weight 0
    ]
    for rows in cases:
        pairs = [(FieldElem(q, a, ad), FieldElem(q, b, bd)) for a, ad, b, bd, _ in rows]
        for scale in (1, -1, -6, 35):
            want = sum_products_by_fractions(q, pairs, scale, [w for *_, w in rows])
            got = _sum_rows(q, rows, scale)
            assert got == (want.nums, want.den), (rows, scale)
            if want == 0:
                assert got == ((0,), 1)


def test_normalized_is_the_checked_element_on_sum_rows_results():
    for field in SUM_FIELDS:
        d = field.degree
        a, b = tuple(range(1, d + 1)), tuple(range(-2, d - 2))
        cases = [
            [(a, 2, b, 3, 1), (b, 6, a, 1, -2)],
            [(a, 2**201, b, 3, 3), (b, 4, b, 3**40, 1), (a, 1, a, 1, 0)],
            [(a, 5, b, 7, -3), (b, 9, a, 1, 2)],
            [(a, 3, b, 1, 1), (a, 3, b, 1, -1)],  # cancels
        ]
        for rows in cases:
            for scale in (1, -1, -6, 35):
                nums, den = _sum_rows(field, rows, scale)
                assert same_as_checked(FieldElem._normalized(field, nums, den)), rows


_FIELDS = [rationals(), make_field([1, 1, 1]), CUBIC]


@pytest.mark.parametrize("field", _FIELDS, ids=["Q", "x2+x+1", "cubic"])
def test_elem_of_a_scalar_is_the_element_the_fraction_path_builds(field):
    # elem reads an int or a Fraction, bools included, straight into its
    # integer row; sequences keep the Fraction path
    for value in (0, 1, -7, 10**50, True, False, Fraction(3, 4), Fraction(-5, 12),
                  Fraction(-10**40, 3**30), Fraction(6, 1)):
        e = field.elem(value)
        assert e == elem_by_fractions(field, value) and same_as_checked(e), value
        assert type(e.nums[0]) is int and type(e.den) is int
    for value in (0.5, 2.0, float("nan")):
        with pytest.raises(TypeError):
            field.elem(value)


@pytest.mark.parametrize("field", _FIELDS, ids=["Q", "x2+x+1", "cubic"])
def test_zero_and_one_are_built_once_and_equal_elem(field):
    for got, value in ((field.zero(), 0), (field.one(), 1)):
        assert got == field.elem(value) and hash(got) == hash(field.elem(value))
        assert same_as_checked(got)
    assert field.zero() is field.zero() and field.one() is field.one()
    assert field.zero().is_zero() and field.one() * field.gen() == field.gen()
