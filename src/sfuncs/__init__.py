"""Exact arithmetic for s-functions: truncated power series over number
fields whose normalized coefficients a_k = k**s c_k satisfy the Frobenius
congruences Frob_p(a_{k/p}) = a_k mod p^(s ord_p(k)) at every prime not
dividing the field discriminant.

The pieces: number-field arithmetic, canonical Frobenius lifts mod p**n
on integer coordinate rows, truncated series in one and several variables,
the congruence checker, framing transformations, Dwork-style product
factorization, and catalog generators with reproducible tables.

Importing the package loads only the error classes.  Every other public
name loads its submodule on first use, so ``sfuncs.frame_f`` imports
framing and what it needs, and the command line starts without the
arithmetic it does not run.
"""
from __future__ import annotations

from . import errors
from .errors import *  # noqa: F401,F403 -- small, curated exception set

# Submodule -> the public names it defines, served by __getattr__ below.
_EXPORTS = {
    "catalog": """CyclotomicSpec FramedPolylogTable JKRecord JKReport abelian_generator
        cyclotomic_field cyclotomic_polynomial from_log_poly jk_check polylog
        polylog_frame_table""",
    "framing": "Kappa frame_elementary frame_f frame_multi",
    "mseries": "MSeries delta_i exp_m log_m power_m",
    "numfield": """FieldElem NumberField denominator_support discriminant invert
        make_field rationals""",
    "padic": "frobenius_lift valuation",
    "series": """Series compose delta dint exp_series log_series power revert
        shift_down shift_up""",
    "sfunc": "Check SReport check_sfunction dwork_factor generate_crt",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = [n for n, v in vars(errors).items() if isinstance(v, type)] + list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Read from the submodule on every access and never bound here, so a
    # name always is what its submodule holds now (a tracer may rebind it).
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
