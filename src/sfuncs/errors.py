"""Exception types shared across the package.

Every error raised on bad input derives from SfuncError so callers (and the
command line front end) can catch one base class.  Each refused condition
has exactly one class, defined here, and no code catches an error only to
raise it again under another name.
"""
from __future__ import annotations


class SfuncError(Exception):
    """Base class for all input and consistency errors in this package."""


# number field construction and arithmetic

class NotMonic(SfuncError):
    """Defining polynomial is not monic."""


class NotSquarefree(SfuncError):
    """Defining polynomial has a repeated factor (zero discriminant)."""


class DegreeZero(SfuncError):
    """Defining polynomial is constant."""


class FieldMismatch(SfuncError):
    """Operands belong to different fields, or an element given for one
    field belongs to another."""


class NotInvertible(SfuncError, ZeroDivisionError):
    """A failed inversion: the zero element or a zero divisor, an element
    divided by zero, or a series whose constant term (power_m) or linear
    coefficient (revert) is not a unit."""


# primes, valuations and Frobenius lifts

class NotPrime(SfuncError):
    """Residue characteristic is not prime."""


class BadPrime(SfuncError):
    """Prime divides the field discriminant, so no canonical Frobenius lift exists."""


class LiftFailed(SfuncError):
    """Newton iteration for the Frobenius lift met a non-invertible derivative."""


# series operations

class BadConstantTerm(SfuncError):
    """A constant term wrong for the operation: nonzero for dint, shift_down,
    exp_m, the inner series of compose, revert, the framings, check_sfunction
    and dwork_factor; not 1 for log_m and the polynomial Q of from_log_poly."""


class DimensionMismatch(SfuncError):
    """Variable counts of multivariate operands disagree."""


class NotSymmetric(SfuncError):
    """Framing matrix must be symmetric."""


class FramingTooLarge(SfuncError):
    """The framing's work is above framing.MAX_WORK units or framing.MAX_KAPPA_BITS."""


# input files

class BadFile(SfuncError):
    """Input file of the wrong kind or shape: missing structure, a repeated
    key, or a series with the wrong variable count for the verb."""


# s-function checks and generators

class NotIntegral(SfuncError):
    """Seed element must have an empty denominator support."""


# catalog

class BadConductor(SfuncError):
    """Cyclotomic conductor or coefficient support is out of range."""


class DescentFailed(SfuncError):
    """Coefficients do not lie in the requested subfield."""


class SmallPrime(SfuncError):
    """Binomial congruence check requires a prime larger than 3."""
