"""The value classes: immutable, equal and hashed by their fields within one
class, picklable and documented.  Those that check their arguments share
one base, numfield._Frozen, whose fields are their annotations; the plain
records are NamedTuples, which compare as tuples do, as sfunc.Check does."""
from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from sfuncs import padic
from sfuncs.catalog import (
    CyclotomicSpec, FramedPolylogTable, JKRecord, JKReport, jk_check, polylog,
    polylog_frame_table,
)
from sfuncs.framing import Kappa
from sfuncs.mseries import MSeries
from sfuncs.numfield import FieldElem, NumberField, make_field
from sfuncs.series import Series
from sfuncs.sfunc import SReport, check_sfunction


def _build() -> dict:
    """One instance of each value class, every one built afresh."""
    k = make_field([-1, -2, 1, 1])
    return {
        NumberField: k,
        FieldElem: FieldElem(k, (1, 2, 3), 6),
        Series: polylog(2, 4),
        MSeries: MSeries.var(k, 2, 3, 1),
        SReport: check_sfunction(polylog(2, 6), 2),
        Kappa: Kappa(((1, 0), (0, 2))),
        CyclotomicSpec: CyclotomicSpec(5, {1: 1, 4: 1}, 2),
        FramedPolylogTable: polylog_frame_table(range(1, 3), range(1, 3)),
        JKRecord: jk_check(5, 1, 2).records[0],
        JKReport: jk_check(5, 1, 2),
    }


VALUES = list(_build())
RECORDS = {SReport, FramedPolylogTable, JKRecord, JKReport}  # the NamedTuples


def _fields(cls) -> list[str]:
    return list(cls.__annotations__)


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_a_value_cannot_be_changed(cls):
    v = _build()[cls]
    for name in _fields(cls) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(v, name, 0)
    for name in _fields(cls):
        with pytest.raises(AttributeError):
            delattr(v, name)
        getattr(v, name)  # still there


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_values_and_hashes(cls):
    a, b = _build()[cls], _build()[cls]
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    for c in (pickle.loads(pickle.dumps(a)), copy.copy(a)):
        assert type(c) is cls and c == a and hash(c) == hash(a)
    assert cls.__doc__ is not None
    assert " object at 0x" not in repr(a)


@pytest.mark.parametrize("cls", sorted(set(VALUES) - RECORDS, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_field_takes_part_in_equality(cls):
    # the fields are read from the annotations, so one left out of them shows here
    a = _build()[cls]
    for name in _fields(cls):
        b = copy.copy(a)
        object.__setattr__(b, name, object())
        assert b != a and a != b, name
    assert a != tuple(getattr(a, name) for name in _fields(cls))


def test_the_reprs_name_the_fields():
    values = _build()
    assert repr(values[Kappa]) == "Kappa(entries=((1, 0), (0, 2)))"
    assert repr(values[CyclotomicSpec]) == (
        "CyclotomicSpec(conductor=5, coeffs=((1, Fraction(1, 1)), (4, Fraction(1, 1))), s=2)")
    assert repr(values[JKReport]).startswith("JKReport(p=5, records=(JKRecord(k=1, f=1,")


def test_values_of_different_classes_never_compare_equal():
    values = _build()
    for x, y in itertools.combinations(VALUES, 2):
        assert values[x] != values[y] and values[y] != values[x], (x, y)


def test_equal_fields_share_one_frobenius_lift():
    # NumberField is an lru_cache key: a field built twice finds the lift
    # the first one built
    padic._lift_cell.cache_clear()
    first, second = make_field([-1, -2, 1, 1]), make_field([-1, -2, 1, 1])
    assert first is not second
    padic._frobenius_rows(first, 5, 2)
    assert padic._lift_cell.cache_info()[:2] == (0, 1)  # (hits, misses)
    padic._frobenius_rows(second, 5, 2)
    padic._frobenius_rows(second, 5, 1)
    assert padic._lift_cell.cache_info()[:2] == (2, 1)
    padic._lift_cell.cache_clear()
