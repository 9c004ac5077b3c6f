"""Guards on the shape of the package rather than on its results."""
from __future__ import annotations

import ast
import functools
import importlib
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sfuncs
from sfuncs.mseries import MSeries
from sfuncs.numfield import _Frozen

PACKAGE = Path(sfuncs.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")


def _absolute_imports(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        outside = _absolute_imports(path) - set(sys.stdlib_module_names)
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_no_module_of_the_package_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize, and each frozen
    # dataclass compiles its generated methods when its module is imported
    for path in sorted(PACKAGE.glob("*.py")):
        assert "dataclasses" not in _absolute_imports(path), path.name


def _public_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def test_oracles_live_only_in_the_tests():
    modules = [sfuncs] + [
        importlib.import_module(f"sfuncs.{info.name}")
        for info in pkgutil.iter_modules(sfuncs.__path__)
    ]
    names = _public_names(ORACLES)
    assert {"invert_map", "substitute", "mul_monomial", "BadLinearPart"} <= names
    for mod in modules:
        shipped = sorted(n for n in names if hasattr(mod, n))
        assert not shipped, f"{mod.__name__} ships oracle names {shipped}"
    assert not hasattr(MSeries, "substitute")


def test_every_cache_in_the_package_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(sfuncs.__path__):
        mod = importlib.import_module(f"sfuncs.{info.name}")
        for name, obj in vars(mod).items():
            members = vars(obj).items() if isinstance(obj, type) else ()
            for qual, fn in [(name, obj)] + [(f"{name}.{m}", v) for m, v in members]:
                if isinstance(fn, functools._lru_cache_wrapper):
                    caches[f"{info.name}.{qual}"] = fn.cache_parameters()["maxsize"]
    assert {"catalog.cyclotomic_polynomial", "intutil.primes_up_to"} <= set(caches)
    unbounded = sorted(k for k, size in caches.items() if size is None)
    assert not unbounded, f"unbounded caches: {unbounded}"


def _names_used(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute)
    )


def test_every_private_definition_has_a_caller_in_the_package():
    # a private helper that only the tests reach is dead code in the package
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))]
    used = sum((_names_used(tree) for tree in trees), Counter())
    uncalled = sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and used[node.name] == _names_used(node)[node.name]
    )
    assert not uncalled, f"private names with no caller in the package: {uncalled}"


# A bare package object stands in for sfuncs, so nothing that its __init__
# might import first fixes the import order.
_IMPORT_FIRST = """
import importlib, sys, types
pkg = types.ModuleType("sfuncs")
pkg.__path__ = [sys.argv[1]]
sys.modules["sfuncs"] = pkg
importlib.import_module("sfuncs." + sys.argv[2])
print(sorted(m for m in sys.modules if m.startswith("sfuncs.")))
from sfuncs.mseries import MSeries
from sfuncs.numfield import rationals
from sfuncs.series import exp_series
assert exp_series(MSeries.var(rationals(), 1, 3, 0).to_univariate()).coeff(3) * 6 == 1
"""


@pytest.mark.parametrize("first", ["series", "mseries"])
def test_series_and_mseries_import_in_either_order(first):
    # series imports mseries; mseries imports series only inside
    # to_univariate, so importing mseries alone loads no series module
    r = subprocess.run([sys.executable, "-c", _IMPORT_FIRST, str(PACKAGE), first],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    loaded = set(ast.literal_eval(r.stdout.splitlines()[0]))
    assert ("sfuncs.series" in loaded) == (first == "series")
    assert "sfuncs.mseries" in loaded


# The package's public names, as its __init__ imported them eagerly before
# they were served on first use: the submodule of each, then the errors.
_REEXPORTS = {
    "catalog": ["CyclotomicSpec", "FramedPolylogTable", "JKRecord", "JKReport",
                "abelian_generator", "cyclotomic_field", "cyclotomic_polynomial",
                "from_log_poly", "jk_check", "polylog", "polylog_frame_table"],
    "framing": ["Kappa", "frame_elementary", "frame_f", "frame_multi"],
    "mseries": ["MSeries", "delta_i", "exp_m", "log_m", "power_m"],
    "numfield": ["FieldElem", "NumberField", "denominator_support", "discriminant",
                 "invert", "make_field", "rationals"],
    "padic": ["frobenius_lift", "valuation"],
    "series": ["Series", "compose", "delta", "dint", "exp_series", "log_series", "power",
               "revert", "shift_down", "shift_up"],
    "sfunc": ["Check", "SReport", "check_sfunction", "dwork_factor", "generate_crt"],
    "errors": ["SfuncError", "NotMonic", "NotSquarefree", "DegreeZero", "FieldMismatch",
               "NotInvertible", "NotPrime", "BadPrime", "LiftFailed", "BadConstantTerm",
               "DimensionMismatch", "NotSymmetric", "FramingTooLarge", "BadFile",
               "NotIntegral", "BadConductor", "DescentFailed", "SmallPrime"],
}


def test_the_lazy_package_serves_every_public_name():
    names = [n for ns in _REEXPORTS.values() for n in ns]
    assert len(names) == 44 + 18
    assert sorted(sfuncs.__all__) == sorted(names)
    for mod, ns in _REEXPORTS.items():
        sub = importlib.import_module(f"sfuncs.{mod}")
        for n in ns:
            assert getattr(sfuncs, n) is getattr(sub, n), n
    star: dict = {}
    exec("from sfuncs import *", star)
    assert set(names) <= set(star)
    assert set(names) <= set(dir(sfuncs))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sfuncs.no_such_name
    assert not hasattr(sfuncs, "invert_map")
    for gone in _REMOVED:
        assert not hasattr(sfuncs, gone), gone
        assert gone not in dir(sfuncs) and gone not in star, gone


# Public names the package no longer serves: the residue-ring layer, which
# the Frobenius lift on integer rows replaced, and its two error types; two
# helpers that nothing in the package called; three classes for a wrong
# constant term, and InnerHasConstant, which BadConstantTerm took over; and
# four classes for a failed inversion, which NotInvertible took over.
_REMOVED = ["ResidueRing", "ResidueElem", "FrobeniusMap", "make_residue_ring",
            "reduce", "frobenius_apply", "residue_valuation", "RingMismatch",
            "NotPIntegral", "shift_sh", "dwork_assemble", "NonzeroConstant",
            "ConstantTermNonzero", "BadConstant", "Zero", "ZeroDivisor",
            "NonUnitConstant", "NonUnitLinearTerm", "InnerHasConstant"]


def test_bad_file_is_one_class_served_by_the_package_and_by_serialize():
    from sfuncs import serialize

    assert sfuncs.BadFile is serialize.BadFile is sfuncs.errors.BadFile


def test_every_error_class_is_raised_or_caught_in_the_package():
    # an error type that no code raises or catches is dead
    errors_py = PACKAGE / "errors.py"
    defined = [node.name for node in ast.parse(errors_py.read_text()).body
               if isinstance(node, ast.ClassDef)]
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path == errors_py:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.update(_names_used(exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used.update(_names_used(node.type))
    assert "SfuncError" in defined and len(defined) == 18
    dead = sorted(set(defined) - used)
    assert not dead, f"error classes never raised or caught: {dead}"


def test_no_except_clause_raises_another_error():
    # an error caught only to be raised under another class is a second
    # name for one condition
    renaming = []
    for path in sorted(PACKAGE.glob("*.py")):
        for handler in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(handler, ast.ExceptHandler):
                renaming += [f"{path.name}:{node.lineno}" for stmt in handler.body
                             for node in ast.walk(stmt)
                             if isinstance(node, ast.Raise) and node.exc is not None]
    assert not renaming, f"except clauses that raise: {renaming}"


def test_a_bare_import_loads_only_the_errors():
    r = subprocess.run([sys.executable, "-c", "import sys, sfuncs; print(sorted("
                        "m for m in sys.modules if m.split('.')[0] == 'sfuncs'))"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert ast.literal_eval(r.stdout) == ["sfuncs", "sfuncs.errors"]


def _object_setattr_scopes(node: ast.AST, scope: tuple[str, ...] = ()):
    """The class.function scope of every object.__setattr__ under node."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope += (node.name,)
    if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"):
        yield ".".join(scope)
    for child in ast.iter_child_nodes(node):
        yield from _object_setattr_scopes(child, scope)


def test_frozen_fields_equality_and_hash_are_written_once():
    # _Frozen holds the rule for every value class; FieldElem alone adds
    # equality with a scalar, with the hash that matches it, and stores its
    # fields itself in _normalized, the hot path
    for info in pkgutil.iter_modules(sfuncs.__path__):
        importlib.import_module(f"sfuncs.{info.name}")
    classes, todo = [], [_Frozen]
    while todo:
        classes.append(todo.pop())
        todo.extend(classes[-1].__subclasses__())
    assert {c.__name__ for c in classes} == {
        "_Frozen", "NumberField", "FieldElem", "Series", "MSeries", "Kappa", "CyclotomicSpec"}
    for method in ("__eq__", "__hash__"):
        owners = sorted(c.__name__ for c in classes if method in vars(c))
        assert owners == ["FieldElem", "_Frozen"], method
    scopes = set()
    for path in sorted(PACKAGE.glob("*.py")):
        scopes.update(_object_setattr_scopes(ast.parse(path.read_text(), str(path))))
    assert "FieldElem._normalized" in scopes
    stray = sorted(s for s in scopes - {"FieldElem._normalized"} if not s.startswith("_Frozen."))
    assert not stray, f"object.__setattr__ outside _Frozen: {stray}"
