"""Outside-in span tracer for the sfuncs package.

The package itself has no tracing hooks, so this module wraps its public
functions and methods from outside:

* every public module-level function of each sfuncs module, including
  ``functools.lru_cache`` objects (the wrapper calls the cache object, so its
  cache is kept and ``cache_info`` still counts hits and misses);
* every public method, classmethod and staticmethod of the classes each
  module defines, plus the arithmetic dunders; aliases such as
  ``__rmul__ = __mul__`` share one wrapper, so both slots count under the
  function's own name (``numfield.FieldElem.mul``);
* every module namespace that bound the original object (``revert`` as
  imported into ``framing`` and ``catalog``, the re-exports in
  ``sfuncs/__init__``) and every function default that holds it, such as
  ``sfunc._congruence(ring_factory=make_residue_ring)``.

Each span name records calls, inclusive seconds (outermost activation only,
so recursion is not counted twice) and self seconds (inclusive time minus
the time spent in wrapped callees).  ``uninstall`` puts every original
object back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

MODULES = (
    "intutil",
    "numfield",
    "padic",
    "series",
    "mseries",
    "sfunc",
    "framing",
    "catalog",
    "serialize",
    "cli",
)

# Dunders that do arithmetic; the rest (__init__, __eq__, __hash__, ...) are
# left alone.
ARITH = frozenset(
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ "
    "__rtruediv__ __neg__ __pow__ __call__".split()
)


def _count_report(counters, args, kwargs, report):
    counters["sfunc.checks"] = counters.get("sfunc.checks", 0) + len(report.checks)
    counters["sfunc.violations"] = counters.get("sfunc.violations", 0) + len(
        report.violations
    )


def _count_read(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["serialize.bytes_read"] = counters.get(
        "serialize.bytes_read", 0
    ) + os.path.getsize(path)


def _count_written(counters, args, kwargs, text):
    counters["serialize.bytes_written"] = counters.get(
        "serialize.bytes_written", 0
    ) + len(text.encode())


# Counters read off arguments or results at a layer boundary.
OBSERVERS = {
    "sfunc.check_sfunction": _count_report,
    "serialize.load_series": _count_read,
    "serialize.load_field": _count_read,
    "serialize.dump_obj": _count_written,
}


class Tracer:
    """Spans and counters for one traced section; see the module docstring."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s, depth]
        self.counters: dict[str, int] = {}
        self.caches: dict[str, object] = {}  # name -> original lru object
        self._cache_base: dict[str, tuple[int, int]] = {}
        self._inner = [0.0]
        self._restore: list = []

    def _wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        inner = self._inner  # one cell: time spent in wrapped callees so far
        clock = time.perf_counter
        counters = self.counters
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = inner[0]
            inner[0] = 0.0
            rec[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[2] += dt - inner[0]
                rec[3] -= 1
                if not rec[3]:
                    rec[1] += dt
                inner[0] = outer + dt
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _set(self, owner, attr: str, value) -> None:
        # vars() keeps classmethod objects as they are; getattr would bind them.
        old = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        self._restore.append((owner, attr, old))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package; every sfuncs module must already be importable."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replace: dict[int, tuple[object, object]] = {}  # id(orig) -> (orig, wrapper)
        own: list = []  # every function the modules define, private ones too
        for short in MODULES:
            mod = importlib.import_module(f"sfuncs.{short}")
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    own.append(obj)
                if attr.startswith("_"):
                    continue
                if isinstance(obj, functools._lru_cache_wrapper):
                    if obj.__wrapped__.__module__ == mod.__name__:
                        name = f"{short}.{attr}"
                        self.caches[name] = obj
                        replace[id(obj)] = (obj, self._wrap(name, obj))
                elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "sfuncs"]:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for fn in own:
            self._patch_defaults(fn, replace)
        self.reset()

    def _wrap_class(self, short: str, cls) -> None:
        wrapped: dict[int, object] = {}  # aliases share one wrapper
        for slot, member in list(vars(cls).items()):
            kind = type(member) if isinstance(member, (classmethod, staticmethod)) else None
            fn = member.__func__ if kind else member
            if not inspect.isfunction(fn):
                continue
            if slot.startswith("_") and slot not in ARITH:
                continue
            if id(fn) not in wrapped:
                label = fn.__name__.strip("_")
                wrapped[id(fn)] = self._wrap(f"{short}.{cls.__name__}.{label}", fn)
            self._set(cls, slot, kind(wrapped[id(fn)]) if kind else wrapped[id(fn)])

    def _patch_defaults(self, fn, replace) -> None:
        if not fn.__defaults__:
            return
        new = tuple(
            replace[id(d)][1] if id(d) in replace and replace[id(d)][0] is d else d
            for d in fn.__defaults__
        )
        if any(a is not b for a, b in zip(new, fn.__defaults__)):
            self._set(fn, "__defaults__", new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        """Zero the spans and counters; cache statistics count from here."""
        for rec in self.stats.values():
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0
        self.counters.clear()
        self._cache_base = {
            name: (c.cache_info().hits, c.cache_info().misses)
            for name, c in self.caches.items()
        }

    def snapshot(self) -> dict:
        """Plain-data totals since the last reset; merge() adds two of these."""
        caches = {}
        for name, c in self.caches.items():
            info = c.cache_info()
            h0, m0 = self._cache_base.get(name, (0, 0))
            caches[name] = {"hits": info.hits - h0, "misses": info.misses - m0}
        return {
            "spans": {
                name: {"calls": rec[0], "s": rec[1], "self_s": rec[2]}
                for name, rec in self.stats.items()
                if rec[0]
            },
            "counters": dict(self.counters),
            "caches": caches,
        }


def merge(total: dict, part: dict) -> dict:
    """Add the snapshot part into total (both plain data) and return total."""
    for section in ("spans", "counters", "caches"):
        dst = total.setdefault(section, {})
        for name, value in part.get(section, {}).items():
            if isinstance(value, dict):
                acc = dst.setdefault(name, dict.fromkeys(value, 0))
                for key, x in value.items():
                    acc[key] += x
            else:
                dst[name] = dst.get(name, 0) + value
    return total
