"""Exact arithmetic for s-functions: truncated power series over number
fields whose normalized coefficients a_k = k**s c_k satisfy the Frobenius
congruences Frob_p(a_{k/p}) = a_k mod p^(s ord_p(k)) at every prime not
dividing the field discriminant.

The pieces: number-field and residue-ring arithmetic with canonical
Frobenius lifts, truncated series in one and several variables, the
congruence checker, framing transformations, Dwork-style product
factorization, and catalog generators with reproducible tables.
"""
from __future__ import annotations

from .catalog import (
    CyclotomicSpec,
    FramedPolylogTable,
    JKRecord,
    JKReport,
    abelian_generator,
    cyclotomic_field,
    cyclotomic_polynomial,
    from_log_poly,
    jk_check,
    polylog,
    polylog_frame_table,
)
from .errors import *  # noqa: F401,F403 -- small, curated exception set
from .framing import Kappa, frame_elementary, frame_f, frame_multi
from .mseries import MSeries, delta_i, exp_m, log_m, power_m
from .numfield import (
    FieldElem,
    NumberField,
    denominator_support,
    discriminant,
    invert,
    make_field,
    rationals,
)
from .padic import (
    FrobeniusMap,
    ResidueElem,
    ResidueRing,
    frobenius_apply,
    frobenius_lift,
    make_residue_ring,
    reduce,
    residue_valuation,
    valuation,
)
from .series import (
    Series,
    compose,
    delta,
    dint,
    exp_series,
    log_series,
    power,
    revert,
    shift_down,
    shift_sh,
    shift_up,
)
from .sfunc import (
    Check,
    SReport,
    check_sfunction,
    dwork_assemble,
    dwork_factor,
    generate_crt,
)

__version__ = "0.1.0"
