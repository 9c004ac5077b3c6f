"""JSON wire formats with decimal-string integers throughout.

Field objects carry the defining polynomial low degree to high:
{"minpoly": ["-1", "-2", "1", "1"]}.  A series object is
{"field": <field object or path>, "order": N, "coeffs": [...]} where
coeffs[k-1] is the coefficient of z**k, each coefficient a list of
[numerator, denominator] string pairs, one per power-basis coordinate.
Multivariate series add "nvars" and key their coefficients by exponent
vectors "k1,k2,...".  Native JSON numbers are never used for values that
can exceed machine width.  Integers of any length round-trip: past CPython's
int/str digit limit they are converted in pieces split by powers of ten.
A coordinate may also be read from a JSON integer or an "a" or "a/b" string,
as one integer pair.  A float, a bool or a zero denominator raises BadFile,
also inside a pair or a minpoly, and so does a float, a bool or a negative
number as "order", or a float or a bool as "nvars"; a string such as "1.5"
raises ValueError.  A decimal string, at every length, is read by
intutil._int, as the command line's integers are: surrounding ASCII
whitespace, as int() strips it, an optional sign and ASCII digits only, so
"1_0" and non-ASCII digits raise ValueError too, also as an exponent key.
Every input file is read through load_json, where an object that repeats a
key raises BadFile, and so do two exponent keys that name one vector, such
as "1,0" and "01,0".
"""
from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import BadFile
from .intutil import _LEAF, _int, _int_to_str
from .mseries import MSeries
from .numfield import FieldElem, NumberField, _normalize, make_field
from .series import Series


def _pair(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational written as a [num, den] pair,
    an integer, or an "a" or "a/b" string; a zero denominator raises BadFile."""
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise BadFile(f"rational pair must have two entries, got {x!r}")
        num, den = _int(x[0]), _int(x[1])
    elif isinstance(x, str):
        num, slash, den = x.partition("/")
        num, den = _int(num), _int(den) if slash else 1
    else:
        num, den = _int(x), 1
    if den == 0:
        raise BadFile(f"zero denominator in {x!r}")
    return num, den


def _rational(x) -> Fraction:
    return Fraction(*_pair(x))


def field_to_obj(field: NumberField) -> dict:
    return {"minpoly": [_int_to_str(c) for c in field.minpoly]}


def field_from_obj(obj) -> NumberField:
    if isinstance(obj, dict):
        if "minpoly" not in obj:
            raise BadFile("field object needs a 'minpoly' key")
        obj = obj["minpoly"]
    if not isinstance(obj, list):
        raise BadFile("field spec must be a list of coefficients")
    return make_field([_int(c) for c in obj])


def elem_to_obj(e: FieldElem) -> list:
    """The reduced [num, den] string pair of each coordinate nums[i] / den."""
    den = e.den
    return [[_int_to_str(n // (g := math.gcd(n, den))), _int_to_str(den // g)] for n in e.nums]


def elem_from_obj(field: NumberField, obj) -> FieldElem:
    if isinstance(obj, dict) and "coords" in obj:
        obj = obj["coords"]
    if not isinstance(obj, list):
        raise BadFile("element must be a list of coordinates")
    if len(obj) != field.degree:
        raise BadFile(f"element has {len(obj)} coordinates, field degree is {field.degree}")
    nums, dens = [], []
    for c in obj:  # a [num, den] pair of short strings, as written, is read as _pair reads it
        if (type(c) is list and len(c) == 2 and type(n := c[0]) is str and type(d := c[1]) is str
                and len(n) <= _LEAF and len(d) <= _LEAF and n.isascii() and d.isascii()
                and "_" not in n and "_" not in d):  # where int() and _int agree
            num, den = int(n), int(d)
            if den == 0:
                raise BadFile(f"zero denominator in {c!r}")
        else:
            num, den = _pair(c)
        nums.append(num)
        dens.append(den)
    den = math.lcm(*dens)
    # from a generator: a tuple built from a list here raised the peak RSS of
    # the benchmark's verify workload by 0.5 MB
    nums, den = _normalize(tuple(n * (den // d) for n, d in zip(nums, dens)), den)
    return FieldElem._normalized(field, nums, den)  # ints, one per degree: nothing to check


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice raises BadFile."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise BadFile(f"key {key!r} is repeated in one object")
        obj[key] = value
    return obj


def load_json(path: str):
    """The JSON value in the file at path, every input file of the package
    read the one way: an object that repeats a key raises BadFile."""
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def _resolve_field(obj, base_dir: str | None) -> NumberField:
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) or base_dir is None else os.path.join(base_dir, obj)
        obj = load_json(path)
    return field_from_obj(obj)


def series_to_obj(v: Series) -> dict:
    """Series as a JSON object, its field embedded."""
    return {
        "field": field_to_obj(v.field),
        "order": v.order,
        "coeffs": [elem_to_obj(v.coeff(k)) for k in range(1, v.order + 1)],
    }


def _order(obj) -> int:
    if (order := _int(obj["order"])) < 0:
        raise BadFile(f"series 'order' is {order}, need a nonnegative order")
    return order


def series_from_obj(obj, base_dir: str | None = None) -> Series:
    if "field" not in obj or "order" not in obj or "coeffs" not in obj:
        raise BadFile("series object needs 'field', 'order', and 'coeffs'")
    field = _resolve_field(obj["field"], base_dir)
    order = _order(obj)
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise BadFile("series 'coeffs' must be a list, one entry per power of z")
    if len(coeffs) != order:
        raise BadFile(f"series lists {len(coeffs)} coefficients for order {order}")
    # elements of field already, one per power: no second coercion
    return Series(field, order, field.zero(), tuple([elem_from_obj(field, c) for c in coeffs]))


def mseries_to_obj(v: MSeries) -> dict:
    terms = {
        ",".join(str(e) for e in key): elem_to_obj(c) for key, c in v.terms
    }
    return {
        "field": field_to_obj(v.field),
        "nvars": v.nvars,
        "order": v.order,
        "coeffs": terms,
    }


def mseries_from_obj(obj, base_dir: str | None = None) -> MSeries:
    for need in ("field", "nvars", "order", "coeffs"):
        if need not in obj:
            raise BadFile(f"multivariate series object needs '{need}'")
    field = _resolve_field(obj["field"], base_dir)
    nvars = _int(obj["nvars"])
    order = _order(obj)
    if not isinstance(obj["coeffs"], dict):
        raise BadFile("multivariate 'coeffs' must map exponent keys to coefficients")
    terms = {}
    for key, c in obj["coeffs"].items():
        expo = tuple(_int(e) for e in key.split(","))
        if len(expo) != nvars:
            raise BadFile(f"exponent key '{key}' does not have {nvars} entries")
        if expo in terms:
            raise BadFile(f"exponent key '{key}' names the vector of another key")
        terms[expo] = elem_from_obj(field, c)
    return MSeries.from_dict(field, nvars, order, terms)


def load_series(path: str) -> Series | MSeries:
    """Read a series file, univariate or multivariate by the 'nvars' key."""
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise BadFile(f"{path}: expected a JSON object")
    base = os.path.dirname(os.path.abspath(path))
    if "nvars" in obj:
        return mseries_from_obj(obj, base_dir=base)
    return series_from_obj(obj, base_dir=base)


def load_field(path: str) -> NumberField:
    return field_from_obj(load_json(path))


# the text json.dumps writes for a str, an int (of any length), a bool or None; _quote is C
_LEAVES = {str: _quote, int: _int_to_str, bool: {True: "true", False: "false"}.get,
           type(None): lambda _: "null"}


def _dumps(x, pad: str) -> str:
    """json.dumps(x, indent=2, sort_keys=True), later lines indented by pad,
    without the pure-Python indent encoder: a list of leaves or of [str, str]
    pairs in one pass; a float, a tuple or a non-str key through json.dumps,
    re-indented (JSON text holds no raw newline)."""
    if (leaf := _LEAVES.get(type(x))) is not None:
        return leaf(x)
    inner = pad + "  "
    if type(x) is list and x:
        if all(type(v) in _LEAVES for v in x):
            items = (_LEAVES[type(v)](v) for v in x)
        elif all(type(v) is list and len(v) == 2 and type(v[0]) is str and type(v[1]) is str
                 for v in x):
            items = (f"[\n{inner}  {_quote(a)},\n{inner}  {_quote(b)}\n{inner}]" for a, b in x)
        else:
            items = (_dumps(v, inner) for v in x)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if type(x) is dict and x and all(type(k) is str for k in x):
        items = (f"{_quote(k)}: {_dumps(x[k], inner)}" for k in sorted(x))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def dump_obj(obj, path: str | None = None) -> str:
    """Serialize to stable JSON text, byte for byte what
    json.dumps(obj, indent=2, sort_keys=True) writes, and a newline;
    write to path when given."""
    text = _dumps(obj, "") + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
