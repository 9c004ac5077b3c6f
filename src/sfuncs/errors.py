"""Exception types shared across the package.

Every error raised on bad input derives from SfuncError so callers (and the
command line front end) can catch one base class.
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
    """Operands belong to different fields."""


class Zero(SfuncError):
    """Inversion of the zero element."""


class ZeroDivisor(SfuncError):
    """Inversion of a nonzero element that shares a factor with the modulus."""


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
    exp_m, the framings, check_sfunction and dwork_factor; not 1 for log_m
    and the polynomial Q of from_log_poly."""


class InnerHasConstant(SfuncError):
    """Composition inner series must have zero constant term."""


class NonUnitLinearTerm(SfuncError):
    """Reversion needs zero constant term and an invertible linear coefficient."""


class NonUnitConstant(SfuncError):
    """Negative powers need an invertible constant term."""


class DimensionMismatch(SfuncError):
    """Variable counts of multivariate operands disagree."""


class NotSymmetric(SfuncError):
    """Framing matrix must be symmetric."""


class FramingTooLarge(SfuncError):
    """The framing's work is above framing.MAX_WORK units."""


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
