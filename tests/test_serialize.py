from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import _rational_by_fraction, elem_from_obj_by_fractions, elem_to_obj_by_fractions

from sfuncs.catalog import polylog
from sfuncs.mseries import MSeries
from sfuncs.numfield import FieldElem, make_field, rationals
from sfuncs.serialize import (
    _LEAF,
    BadFile,
    _int,
    _pair,
    dump_obj,
    elem_from_obj,
    elem_to_obj,
    field_from_obj,
    field_to_obj,
    load_field,
    load_json,
    load_series,
    mseries_from_obj,
    mseries_to_obj,
    series_from_obj,
    series_to_obj,
)
from sfuncs.series import Series

CUBIC = make_field([-1, -2, 1, 1])


def test_field_roundtrip():
    obj = field_to_obj(CUBIC)
    assert obj == {"minpoly": ["-1", "-2", "1", "1"]}
    assert field_from_obj(obj) == CUBIC
    assert field_from_obj(["-1", "-2", "1", "1"]) == CUBIC  # bare list accepted


def test_elem_roundtrip_with_big_integers():
    e = CUBIC.elem([Fraction(10**40, 3), Fraction(-7, 2), 0])
    obj = elem_to_obj(e)
    # decimal strings, never JSON numbers, so nothing overflows downstream
    assert obj[0] == [str(2 * 10**40), "6"] or obj[0] == [str(10**40), "3"]
    assert all(isinstance(part, str) for pair in obj for part in pair)
    assert elem_from_obj(CUBIC, obj) == e


def test_elem_from_obj_accepts_wrapper_and_plain_ints():
    assert elem_from_obj(CUBIC, {"coords": [1, 2, 3]}) == CUBIC.elem([1, 2, 3])
    with pytest.raises(BadFile):
        elem_from_obj(CUBIC, [1, 2])  # wrong coordinate count
    with pytest.raises(BadFile):
        elem_from_obj(CUBIC, [[1, 2, 3], 0, 0])  # malformed pair


def test_series_roundtrip():
    v = polylog(2, 6)
    obj = series_to_obj(v)
    assert obj["order"] == 6
    assert obj["coeffs"][3] == [["1", "16"]]
    assert series_from_obj(obj) == v


def test_series_roundtrip_over_cubic():
    x = CUBIC.gen()
    v = Series.from_coeffs(CUBIC, 3, [x, x * x / 2, CUBIC.elem(Fraction(-1, 9))])
    assert series_from_obj(series_to_obj(v)) == v


def test_series_obj_validation():
    v = polylog(1, 4)
    obj = series_to_obj(v)
    del obj["order"]
    with pytest.raises(BadFile):
        series_from_obj(obj)
    obj2 = series_to_obj(v)
    obj2["coeffs"].pop()
    with pytest.raises(BadFile):
        series_from_obj(obj2)


def test_field_reference_by_relative_path(tmp_path):
    fpath = tmp_path / "field.json"
    fpath.write_text(dump_obj(field_to_obj(CUBIC)))
    v = Series.from_coeffs(CUBIC, 2, [CUBIC.gen(), CUBIC.elem(1)])
    spath = tmp_path / "sub" / "series.json"
    spath.parent.mkdir()
    dump_obj(series_to_obj(v) | {"field": "../field.json"}, str(spath))
    assert load_series(str(spath)) == v


def test_load_series_dispatches_on_nvars(tmp_path):
    q = rationals()
    m = MSeries.from_dict(q, 2, 3, {(1, 0): q.elem(1), (1, 2): q.elem(Fraction(1, 2))})
    p = tmp_path / "m.json"
    dump_obj(mseries_to_obj(m), str(p))
    got = load_series(str(p))
    assert isinstance(got, MSeries)
    assert got == m

    u = polylog(3, 5)
    p2 = tmp_path / "u.json"
    dump_obj(series_to_obj(u), str(p2))
    got2 = load_series(str(p2))
    assert isinstance(got2, Series)
    assert got2 == u


def test_mseries_key_validation():
    q = rationals()
    m = MSeries.from_dict(q, 2, 2, {(1, 1): q.elem(4)})
    obj = mseries_to_obj(m)
    assert obj["coeffs"] == {"1,1": [["4", "1"]]}
    assert mseries_from_obj(obj) == m
    obj["coeffs"] = {"1": [["4", "1"]]}
    with pytest.raises(BadFile):
        mseries_from_obj(obj)


def test_load_field_and_bad_json(tmp_path):
    p = tmp_path / "f.json"
    p.write_text('{"minpoly": ["3", "0", "1"]}\n')
    assert load_field(str(p)) == make_field([3, 0, 1])
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]\n")
    with pytest.raises(BadFile):
        load_series(str(bad))


def test_dump_obj_is_stable():
    text = dump_obj({"b": 1, "a": [2]})
    assert text == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
    assert json.loads(text) == {"a": [2], "b": 1}


@pytest.mark.parametrize("field", [rationals(), CUBIC], ids=["Q", "cubic"])
def test_integers_past_the_interpreter_digit_limit_roundtrip(field):
    # CPython converts at most 4300 digits between int and str by default
    big = 10**5000
    x = field.gen()
    a = field.elem(Fraction(big + 1, big - 1))
    b = x * Fraction(-big, 7) + Fraction(3, big + 7)
    v = Series.from_coeffs(field, 3, [a, b, field.one()])
    m = MSeries.from_dict(field, 2, 3, {(1, 0): a, (1, 2): b})
    start = time.perf_counter()
    assert series_from_obj(json.loads(dump_obj(series_to_obj(v)))) == v
    assert mseries_from_obj(json.loads(dump_obj(mseries_to_obj(m)))) == m
    assert time.perf_counter() - start < 1.0
    assert elem_to_obj(a)[0] == ["1" + "0" * 4999 + "1", "9" * 5000]


def test_big_integer_strings_parse_exactly():
    big, text = 3 * 10**5000 + 7, "3" + "0" * 4999 + "7"
    assert field_from_obj({"minpoly": ["-" + text, "0", "1"]}).minpoly == (-big, 0, 1)
    q = rationals()
    assert elem_from_obj(q, ["+" + text + "/" + text[:-1] + "9"]) == q.elem(
        Fraction(big, big + 2)
    )
    assert elem_from_obj(q, [["-" + text, "2"]]).coords == (Fraction(-big, 2),)
    with pytest.raises(ValueError):
        elem_from_obj(q, [["1" * 3000 + "x" + "1" * 3000, "1"]])


@pytest.mark.parametrize("coord", [
    [1.5, "1"], ["1", 2.0], 1.0, True, [True, "1"], ["1", False], None,
])
def test_floats_and_bools_in_a_coordinate_are_refused(coord):
    # [1.5, "1"] once read as 1 and ["1", 2.0] as 1/2
    with pytest.raises(BadFile):
        elem_from_obj(rationals(), [coord])
    with pytest.raises(BadFile):
        field_from_obj({"minpoly": [coord, "1"]})


@pytest.mark.parametrize("coord", [["1", "0"], [5, 0], "1/0", "-7/000"])
def test_zero_denominator_is_refused(coord):
    with pytest.raises(BadFile):
        elem_from_obj(rationals(), [coord])
    obj = {"field": {"minpoly": ["0", "1"]}, "order": 1, "coeffs": [[coord]]}
    with pytest.raises(BadFile):
        series_from_obj(obj)
    obj = {"field": {"minpoly": ["0", "1"]}, "nvars": 2, "order": 2,
           "coeffs": {"1,1": [coord]}}
    with pytest.raises(BadFile):
        mseries_from_obj(obj)


_BIG = st.integers(-(10**700), 10**700)
_DEN = _BIG.filter(bool)


def _coordinate():
    return st.one_of(
        st.tuples(_BIG, _DEN).map(lambda t: [str(t[0]), str(t[1])]),
        st.tuples(st.integers(-99, 99), _DEN).map(lambda t: [t[0], str(t[1])]),
        _BIG,
        _BIG.map(str),
        st.tuples(_BIG, _DEN).map(lambda t: f"{t[0]}/{abs(t[1])}"),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([rationals(), CUBIC]), st.data(), st.booleans())
def test_elem_from_obj_matches_the_fraction_loader(field, data, wrap):
    coords = data.draw(st.lists(_coordinate(), min_size=field.degree,
                                max_size=field.degree))
    obj = {"coords": coords} if wrap else coords
    assert elem_from_obj(field, obj) == elem_from_obj_by_fractions(field, obj)


# Coordinates well formed or not: the short [num, den] string pairs that
# elem_from_obj reads itself, and every other shape, which it hands to _pair.
_TEXT = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.from_regex(r"\s*[+-]?[0-9]{1,3}(_[0-9]{1,3})*\s*", fullmatch=True),
    st.text(alphabet="0123456789+-_ \t\u0663\uff13/.e", max_size=8),  # Arabic-Indic, fullwidth 3
    st.sampled_from(["0", "-0", "00", " 0 ", "0_0", "\u0660", "", "1__0"]),
    st.integers(10**(_LEAF - 1), 10**(_LEAF + 100)).map(str),  # to past _LEAF characters
    st.integers(10**(_LEAF - 1), 10**(_LEAF + 100)).map(lambda n: f" -{n}"),
)
_ENTRY = st.one_of(_TEXT, st.integers(-99, 99), st.floats(allow_nan=False), st.booleans(),
                   st.none())
_ANY_COORDINATE = st.one_of(
    st.tuples(_TEXT, _TEXT).map(list),
    st.tuples(_ENTRY, _ENTRY).map(list),
    st.lists(_TEXT, max_size=3),
    st.lists(_ENTRY, max_size=3),
    _ENTRY,
)


def _outcome(read):
    """read()'s value, or the class of the exception it raised."""
    try:
        return read()
    except Exception as e:  # the class is the outcome
        return type(e)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([rationals(), CUBIC]), st.data())
def test_elem_from_obj_reads_each_coordinate_as_pair_does(field, data):
    # its own reading of short string pairs must accept and refuse exactly
    # what _pair does, with the same error class, the first bad one first
    coords = data.draw(st.lists(_ANY_COORDINATE, min_size=field.degree, max_size=field.degree))

    def by_pair():
        return field.elem([Fraction(*_pair(c)) for c in coords])

    assert _outcome(lambda: elem_from_obj(field, coords)) == _outcome(by_pair)


@pytest.mark.parametrize("coords", [[["0", "0\x1f"]], [["1", "2\x1f"]]])
def test_elem_from_obj_and_pair_refuse_the_separator_controls_alike(coords):
    # str.strip() drops \x1c-\x1f but int() does not: once _pair read
    # "2\x1f" as 2 while elem_from_obj raised ValueError
    with pytest.raises(ValueError):
        _pair(coords[0])
    with pytest.raises(ValueError):
        elem_from_obj(rationals(), coords)
    assert _pair([" 1\t", "\r\n2\v\f"]) == (1, 2) == _pair(["1", "2"])


@pytest.mark.parametrize("value, coeffs", [
    (2.9, [["1"], ["1/4"]]), (2.0, [["1"], ["1/4"]]), (True, [["1"]]),
    (None, [["1"]]), ([1], [["1"]]),
])
def test_order_must_be_an_integer(value, coeffs):
    # "order": 2.9 once read as 2 and true as 1, so these files loaded
    obj = {"field": {"minpoly": ["0", "1"]}, "order": value, "coeffs": coeffs}
    with pytest.raises(BadFile):
        series_from_obj(obj)
    obj = {"field": {"minpoly": ["0", "1"]}, "nvars": 2, "order": value,
           "coeffs": {"1,0": ["1"]}}
    with pytest.raises(BadFile):
        mseries_from_obj(obj)


def test_negative_order_is_refused():
    obj = {"field": {"minpoly": ["0", "1"]}, "order": -3, "coeffs": []}
    with pytest.raises(BadFile, match="order"):
        series_from_obj(obj)
    obj = {"field": {"minpoly": ["0", "1"]}, "nvars": 2, "order": "-3",
           "coeffs": {"1,0": ["1"]}}
    with pytest.raises(BadFile, match="order"):
        mseries_from_obj(obj)
    with pytest.raises(ValueError, match="order"):
        MSeries.from_dict(rationals(), 2, -3, {(1, 0): 1})


@pytest.mark.parametrize("value, key", [(2.5, "1,0"), (2.0, "1,0"), (True, "1"), (None, "1")])
def test_nvars_must_be_an_integer(value, key):
    # "nvars": 2.5 once read as 2 and true as 1
    obj = {"field": {"minpoly": ["0", "1"]}, "nvars": value, "order": 2,
           "coeffs": {key: ["1"]}}
    with pytest.raises(BadFile):
        mseries_from_obj(obj)


def test_order_and_nvars_read_as_integers_or_decimal_strings():
    obj = {"field": {"minpoly": ["0", "1"]}, "order": "2", "coeffs": [["1"], ["1/4"]]}
    assert series_from_obj(obj) == polylog(2, 2)
    obj = {"field": {"minpoly": ["0", "1"]}, "nvars": "2", "order": 2,
           "coeffs": {"1,0": ["1"]}}
    assert mseries_from_obj(obj) == MSeries.var(rationals(), 2, 2, 0)


# Values of every kind that dump_obj writes itself or hands to json.dumps:
# str lists and [str, str] pairs, as a series holds them, mixed with other
# lists, tuples, dicts with str or int keys, bools, None, ints and floats.
_JSON_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u2028", "\u00e9", "\U0001f600",
                     "1,0", ""]),
)
_JSON_PAIR = st.tuples(_JSON_TEXT, _JSON_TEXT).map(list)
_JSON_VALUE = st.recursive(
    st.one_of(_JSON_TEXT, _JSON_PAIR, st.booleans(), st.none(),
              st.integers(-10**40, 10**40), st.floats()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(_JSON_PAIR, max_size=3),
        st.lists(_JSON_TEXT, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_JSON_TEXT, inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUE)
def test_dump_obj_writes_the_bytes_of_json_dumps(obj):
    assert dump_obj(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


_FIELDS = [rationals(), make_field([1, 1, 1]), CUBIC]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FIELDS), st.data())
def test_elem_to_obj_matches_the_fraction_writer(field, data):
    # small numerators over small denominators leave many coordinates to reduce
    ints = st.one_of(st.integers(-12, 12), _BIG)
    nums = data.draw(st.lists(ints, min_size=field.degree, max_size=field.degree))
    den = data.draw(st.one_of(st.sampled_from([1, 2, 4, 6, 12, 360]), _DEN))
    e = FieldElem(field, nums, den)
    assert elem_to_obj(e) == elem_to_obj_by_fractions(e)


@pytest.mark.parametrize("field", _FIELDS, ids=["Q", "x2+x+1", "cubic"])
def test_elem_to_obj_writes_reduced_pairs(field):
    d = field.degree
    for nums, den in (((0,) * d, 1), ((-4,) + (6,) * (d - 1), 8), ((3,) + (0,) * (d - 1), 9),
                      ((-(10**5000),) + (1,) * (d - 1), 10**4999 * 3)):
        e = FieldElem(field, nums, den)
        assert elem_to_obj(e) == elem_to_obj_by_fractions(e)
    assert elem_to_obj(field.zero()) == [["0", "1"]] * d
    assert elem_to_obj(FieldElem(field, (-4,) + (6,) * (d - 1), 8))[:2] == (
        [["-1", "2"]] if d == 1 else [["-1", "2"], ["3", "4"]])


# A string that int() reads but the decimal rule refuses: an underscore, an
# Arabic-Indic one or a fullwidth three between the digits.  Short ones once
# read as 12, 112 and 132, and only past _LEAF digits raised ValueError.
@pytest.mark.parametrize("odd", ["_", "\u0661", "\uff13"])
@pytest.mark.parametrize("length", [1, _LEAF, 3 * _LEAF])
@pytest.mark.parametrize("sign", ["", " -"])
def test_a_decimal_string_is_ascii_digits_at_every_length(odd, length, sign):
    text = f"{sign}{'1' * length}{odd}2"
    with pytest.raises(ValueError):
        _int(text)
    for coordinate in ([text, "1"], ["1", text], text, f"{text}/3", f"3/{text}"):
        with pytest.raises(ValueError):
            elem_from_obj(rationals(), [coordinate])
        with pytest.raises(ValueError):
            _rational_by_fraction(coordinate)
    obj = {"field": ["0", "1"], "nvars": 2, "order": 3, "coeffs": {f"{text},0": ["1"]}}
    with pytest.raises(ValueError):
        mseries_from_obj(obj)


def test_a_decimal_string_takes_spaces_and_a_sign():
    for text, value in ((" 12 ", 12), ("-0012", -12), ("+7", 7), ("\t-" + "9" * 700, -int("9" * 700))):
        assert _int(text) == value
        assert elem_from_obj(rationals(), [[text, "1"]]) == value


@pytest.mark.parametrize("text", [
    '{"field": ["0", "1"], "order": 1, "order": 2, "coeffs": [["1"]]}',
    '{"field": {"minpoly": ["0", "1"], "minpoly": ["1", "1"]}, "order": 1, "coeffs": [["1"]]}',
])
def test_a_repeated_key_is_a_bad_file(tmp_path, text):
    # json.load kept the last of two equal keys
    path = tmp_path / "v.json"
    path.write_text(text)
    with pytest.raises(BadFile, match="repeated"):
        load_series(str(path))
    with pytest.raises(BadFile, match="repeated"):
        load_json(str(path))


def test_two_keys_of_one_exponent_vector_are_a_bad_file(tmp_path):
    # "01,0" and "1,0" loaded as the one term 5*z1, the last one read
    path = tmp_path / "w.json"
    path.write_text('{"field": ["0", "1"], "nvars": 2, "order": 2, '
                    '"coeffs": {"1,0": [["1", "1"]], "01,0": [["5", "1"]]}}')
    with pytest.raises(BadFile, match="names the vector of another key"):
        load_series(str(path))


def test_load_field_refuses_a_repeated_key(tmp_path):
    path = tmp_path / "f.json"
    path.write_text('{"minpoly": [0, 1], "minpoly": [1, 0, 1]}')
    with pytest.raises(BadFile, match="'minpoly' is repeated"):
        load_field(str(path))
