"""Exact arithmetic in K = Q[x]/(P) for a monic squarefree integer polynomial P.

Elements are stored as an integer coordinate vector in the power basis
1, x, ..., x**(d-1) together with a single positive denominator, kept
gcd-normalized.  That keeps ring operations in plain integer arithmetic
(one gcd per result) instead of per-coordinate fraction bookkeeping, which
matters once series of these things get multiplied a few million times.
A sum of products, the coefficient of a series product or of a framing, is
one result: _sum_rows takes it as a list of integer rows (coordinates,
denominators and an integer weight per product), aligns them to one lcm of
the row denominators, adds the weighted unreduced products, then folds mod
P and normalizes once.  Over Q (degree 1) it sums integers, with no
convolution or fold.  Series reach it through mseries._sum_of_products,
which, like framing.frame_multi, takes its already normalized results as
elements through FieldElem._normalized, without a second normalize.

P is required to be squarefree (nonzero discriminant) but not irreducible;
when P factors, K is a product ring and inversion of a zero divisor raises
NotInvertible, as does every division by zero.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import DegreeZero, FieldMismatch, NotInvertible, NotMonic, NotSquarefree
from .intutil import divisors, moebius, prime_factors

Scalar = Union[int, Fraction]


def _exact(value: Scalar) -> Fraction:
    """value as a Fraction; anything but an int or a Fraction raises TypeError,
    so a float is never read as its binary value."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"need an int or a Fraction, got {value!r}")
    return Fraction(value)


def _derivative(p: Sequence[int]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(p) if i > 0)


def discriminant(minpoly: Sequence[int]) -> int:
    """Discriminant of a monic integer polynomial: (-1)**(d(d-1)/2) res(P, P')."""
    d = len(minpoly) - 1
    return (-1) ** (d * (d - 1) // 2) * int(_resultant(minpoly, _derivative(minpoly)))


def _resultant(a: Sequence, b: Sequence) -> Fraction:
    """Resultant of two polynomials over Q (coefficients low to high), by
    Euclid: res(a, b) = (-1)**(deg a deg b) lc(b)**(deg a - deg r) res(b, r)
    with r = a mod b, down to res(a, c) = c**deg a for a constant c."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    res = Fraction(1)
    while (db := _poly_degree(b)) > 0:
        da = _poly_degree(a)
        r = _poly_divmod(a, b, lambda c: 1 / c)[1]
        res *= (-1) ** (da * db) * b[db] ** (da - _poly_degree(r))
        a, b = b, r
    return res * b[0] ** _poly_degree(a) if db == 0 else Fraction(0)


class _Frozen:
    """Base of the value classes, whose fields are their annotations: __init__
    takes one value per field, in order, and sets each once, none after; two
    values of one class with equal fields are equal, with equal hashes."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._key = operator.attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(zip(self._fields, values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class NumberField(_Frozen):
    """Q[x]/(P), carrying the degree and discriminant of P.

    Build through make_field, which validates the polynomial.
    """

    minpoly: tuple[int, ...]
    degree: int
    discriminant: int

    @cached_property
    def _reduction(self) -> tuple[tuple[int, ...], ...]:
        """Coordinates of x**(d+j) for j = 0..d-2, used to fold products."""
        d = self.degree
        rows: list[tuple[int, ...]] = []
        if d >= 1:
            row = tuple(-c for c in self.minpoly[:d])
            for _ in range(d - 1):
                rows.append(row)
                top = row[d - 1]
                shifted = (0,) + row[: d - 1]
                row = tuple(shifted[i] + top * rows[0][i] for i in range(d))
        return tuple(rows)

    @cached_property
    def _fold_bits(self) -> int:
        """bits(1 + rho), rho = max_i sum_j |_reduction[j][i]|, the most a fold multiplies by."""
        return (1 + max(map(sum, zip(*[map(abs, r) for r in self._reduction])), default=0)).bit_length()

    @cached_property
    def _abelian(self) -> tuple[int, bool] | None:
        """(n, False) when P is Phi_n, (n, True) when P is Psi_n, the minimal
        polynomial of zeta_n + 1/zeta_n, with x**d Psi_n(x + 1/x) = Phi_n(x);
        else None.  phi(n) = d or 2d, and phi(n) >= sqrt(n) once n > 6."""
        d = self.degree
        psi = [0] * (2 * d + 1)  # x**d P(x + 1/x)
        for k, c in enumerate(self.minpoly):
            for i in range(k + 1):
                psi[d - k + 2 * i] += c * math.comb(k, i)
        phi = list(range(max(7, 4 * d * d + 1)))  # Euler's phi, sieved
        for q in range(2, len(phi)):
            if phi[q] == q:
                phi[q::q] = [m - m // q for m in phi[q::q]]
        return next(((n, real) for real, poly in ((False, self.minpoly), (True, tuple(psi)))
                     if poly == poly[::-1] for n in range(3, len(phi))
                     if phi[n] == len(poly) - 1 and _cyclotomic(n) == poly), None)

    def elem(self, value: Scalar | Sequence[Scalar]) -> "FieldElem":
        """Element from a rational scalar or a coordinate sequence; a value
        that is not an int or a Fraction, a float included, raises TypeError.

        >>> k = make_field([3, 0, 1])
        >>> k.elem([Fraction(1, 2), 3]).coords
        (Fraction(1, 2), Fraction(3, 1))
        """
        if isinstance(value, (int, Fraction)):  # reduced, den > 0: no check
            return FieldElem._normalized(
                self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)
        if not isinstance(value, Iterable):
            value = [value] + [0] * (self.degree - 1)
        fracs = [_exact(v) for v in value]
        if len(fracs) != self.degree:
            raise ValueError(
                f"need {self.degree} coordinates, got {len(fracs)}"
            )
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
        return FieldElem(self, nums, den)

    def coerce(self, value) -> "FieldElem":
        """value as an element of this field, the one coefficient coercion: an
        element of it as it is, of another field FieldMismatch, else elem."""
        if isinstance(value, FieldElem):
            if value.field != self:
                raise FieldMismatch("element from a different field")
            return value
        return self.elem(value)

    @cached_property
    def _zero_one(self) -> tuple["FieldElem", "FieldElem"]:
        return self.elem(0), self.elem(1)

    def zero(self) -> "FieldElem":
        return self._zero_one[0]

    def one(self) -> "FieldElem":
        return self._zero_one[1]

    def gen(self) -> "FieldElem":
        """The class of x."""
        if self.degree == 1:
            return self.elem(-self.minpoly[0])
        coords = [0] * self.degree
        coords[1] = 1
        return self.elem(coords)

    def __repr__(self) -> str:
        return f"NumberField({list(self.minpoly)})"


def make_field(minpoly: Iterable[int]) -> NumberField:
    """Validate a defining polynomial and build the field.

    Coefficients run from constant to leading term.

    >>> make_field([-1, -2, 1, 1]).discriminant
    49
    >>> make_field([3, 0, 1]).discriminant
    -12
    """
    coeffs = tuple(int(c) for c in minpoly)
    if len(coeffs) < 2:
        raise DegreeZero("defining polynomial must have degree at least 1")
    if coeffs[-1] != 1:
        raise NotMonic(f"leading coefficient is {coeffs[-1]}, need 1")
    disc = discriminant(coeffs)
    if disc == 0:
        raise NotSquarefree("defining polynomial has a repeated factor")
    return NumberField(coeffs, len(coeffs) - 1, disc)


def rationals() -> NumberField:
    """The degree-1 field Q, defined by the polynomial x."""
    global _QQ
    if _QQ is None:
        _QQ = make_field([0, 1])
    return _QQ


_QQ: NumberField | None = None
_INT = {int}


class FieldElem(_Frozen):
    """One element: integer coordinates nums over a shared denominator den."""

    field: NumberField
    nums: tuple[int, ...]
    den: int

    def __init__(self, field: NumberField, nums: Sequence[int], den: int = 1) -> None:
        nums = tuple(nums)
        if {*map(type, nums), type(den)} != _INT:  # a bool, float or Fraction
            raise TypeError(f"coordinates {nums!r} and denominator {den!r} must be ints")
        if len(nums) != field.degree:
            raise ValueError("coordinate count does not match the field degree")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        super().__init__(field, *_normalize(nums, den))

    @classmethod
    def _normalized(cls, field: NumberField, nums: tuple[int, ...], den: int):
        """nums / den normalized as _sum_rows and _normalize return it (int
        coordinates, one per degree, den > 0, gcd 1), without __init__'s
        checks and gcd.  It runs once per output coefficient, so it stores
        the three fields itself: through _Frozen.__init__ a call takes about
        half as long again."""
        elem = object.__new__(cls)
        object.__setattr__(elem, "field", field)
        object.__setattr__(elem, "nums", nums)
        object.__setattr__(elem, "den", den)
        return elem

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Exact rational coordinates in the power basis."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.elem(other)
        return super().__eq__(other)

    def __hash__(self) -> int:
        # an element equal to a scalar hashes as that scalar does
        if any(self.nums[1:]):
            return super().__hash__()
        return hash(Fraction(self.nums[0], self.den))

    def _coerce(self, other) -> "FieldElem | None":
        if isinstance(other, (FieldElem, int, Fraction)):
            return self.field.coerce(other)
        return None

    def __add__(self, other) -> "FieldElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nums = tuple(
            a * o.den + b * self.den for a, b in zip(self.nums, o.nums)
        )
        return FieldElem(self.field, nums, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        return FieldElem(self.field, tuple(-n for n in self.nums), self.den)

    def __sub__(self, other) -> "FieldElem":
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other) -> "FieldElem":
        return (-self) + other

    def __mul__(self, other) -> "FieldElem":
        if isinstance(other, int):
            return FieldElem(
                self.field, tuple(n * other for n in self.nums), self.den
            )
        if isinstance(other, Fraction):
            return FieldElem(
                self.field,
                tuple(n * other.numerator for n in self.nums),
                self.den * other.denominator,
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nums = _mul_fold(self.nums, o.nums, self.field._reduction)
        return FieldElem(self.field, nums, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElem":
        # a zero int or Fraction goes through invert, which refuses it
        if isinstance(other, int) and other:
            return FieldElem(self.field, self.nums, self.den * other)
        if isinstance(other, Fraction) and other:
            return self * Fraction(other.denominator, other.numerator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * invert(o)

    def __rtruediv__(self, other) -> "FieldElem":
        return invert(self) * other

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            return invert(self) ** (-e)
        return _square_and_multiply(self, e) if e else self.field.one()

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return " + ".join(terms) if terms else "0"


def _mul_fold(
    a: Sequence[int], b: Sequence[int], reduction: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Product of two coordinate vectors of length d, folded back to d
    coordinates with the rows of x**d..x**(2d-2) in reduction; over Q
    (d = 1) the one product of integers."""
    if len(a) == 1:
        return (a[0] * b[0],)
    conv = [0] * (2 * len(a) - 1)
    _convolve_into(conv, a, b)
    return _fold(conv, reduction)


def _convolve_into(
    conv: list[int], a: Sequence[int], b: Sequence[int], m: int = 1
) -> None:
    """Add m times the unreduced product of coordinate vectors a and b to conv."""
    for i, x in enumerate(a):
        if x:
            x *= m
            for j, y in enumerate(b, i):
                conv[j] += x * y


def _fold(conv: list[int], reduction: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The 2d-1 coefficients of a product in x, folded in place back to d
    coordinates with the rows of x**d..x**(2d-2) in reduction."""
    d = (len(conv) + 1) // 2
    for j in range(2 * d - 2, d - 1, -1):
        c = conv[j]
        if c:
            row = reduction[j - d]
            for t in range(d):
                conv[t] += c * row[t]
    return tuple(conv[:d])


def _normalize(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den with den > 0 and the gcd of den and every num divided out."""
    if den < 0:
        nums, den = [-n for n in nums], -den
    g = math.gcd(den, *nums)
    if g > 1:
        return tuple(n // g for n in nums), den // g
    return tuple(nums), den


Row = tuple[Sequence[int], int, Sequence[int], int, int]


def _sum_rows(
    field: NumberField, rows: list[Row], scale: int = 1
) -> tuple[tuple[int, ...], int] | None:
    """The sum of w * (a / a_den) * (b / b_den) over the rows
    (a, a_den, b, b_den, w), divided by scale, as normalized (nums, den);
    None when there are no rows.

    a and b are integer coordinate vectors and w an integer weight.  The
    rows are aligned to one common denominator, the lcm of their
    a_den * b_den, so each row's product is added with the one multiplier
    lcm // (a_den * b_den) * w.  The sum is folded and normalized once;
    over Q (degree 1) it is one integer, with no convolution or fold.
    """
    if not rows:
        return None
    dens = [ad * bd for _, ad, _, bd, _ in rows]
    den = math.lcm(*dens)
    if field.degree == 1:
        num = sum(den // rd * w * a[0] * b[0] for (a, _, b, _, w), rd in zip(rows, dens))
        den *= scale
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        return (num // g,), den // g
    conv = [0] * (2 * field.degree - 1)
    for (a, _, b, _, w), rd in zip(rows, dens):
        _convolve_into(conv, a, b, den // rd * w)
    return _normalize(_fold(conv, field._reduction), den * scale)


def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low to high: the product over d | n of
    (x**d - 1)**mu(n/d), the factors with mu = 1 divided by those with -1."""
    num, den = [1], [1]
    for d in divisors(n):
        if mu := moebius(n // d):
            f = num if mu > 0 else den
            f[:] = [a - b for a, b in zip([0] * d + f, f + [0] * d)]
    return tuple(_poly_divmod(num, den, _same)[0])


def _square_and_multiply(base, e: int, mul=operator.mul):
    """base**e for e >= 1 under mul (* by default); e = 1 multiplies nothing."""
    result = None
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _poly_degree(p: Sequence) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i] != 0:
            return i
    return -1


def _same(c):
    return c


def _poly_divmod(a: Sequence, b: Sequence, inv, red=_same) -> tuple[list, list]:
    """Quotient and remainder of polynomials a by b (coefficients low to high).

    inv inverts the leading coefficient of b and red reduces a coefficient
    (the identity over Q, c % p over Z/p).  The remainder has deg(b) entries.
    """
    da, db = _poly_degree(a), _poly_degree(b)
    q = [0] * (max(da - db, 0) + 1)
    r = list(a)
    inv_lead = inv(b[db])
    for i in range(da - db, -1, -1):
        c = red(r[i + db] * inv_lead)
        if c:
            q[i] = c
            for j in range(db + 1):
                r[i + j] = red(r[i + j] - c * b[j])
    return q, r[:db]


def _poly_inverse(a: Sequence, m: Sequence, inv, red=_same) -> list | None:
    """Coordinates u with u*a = 1 modulo m, by the extended Euclidean
    algorithm with the coefficient operations of _poly_divmod; None when
    a and m share a factor (a = 0 included).  u has deg(m) entries."""
    r0, u0 = list(m), [0]
    r1, u1 = list(a), [1]
    while _poly_degree(r1) > 0:
        q, rem = _poly_divmod(r0, r1, inv, red)
        prod = [0] * (len(q) + len(u1))
        for i, qc in enumerate(q):
            if qc:
                for j, uc in enumerate(u1):
                    prod[i + j] += qc * uc
        nxt = [
            red((u0[i] if i < len(u0) else 0) - prod[i])
            for i in range(max(len(u0), len(prod)))
        ]
        r0, u0, r1, u1 = r1, u1, rem, nxt
    if _poly_degree(r1) < 0:
        return None
    c = inv(r1[0])
    d = len(m) - 1
    return [red(x * c) for x in (u1 + [0] * d)[:d]]


def invert(a: FieldElem) -> FieldElem:
    """Multiplicative inverse via the extended Euclidean algorithm in Q[x].

    Raises NotInvertible on the zero element and when the coordinate
    polynomial shares a factor with the defining polynomial (possible only
    when that polynomial is reducible).

    >>> k = make_field([-1, -2, 1, 1])
    >>> invert(k.gen()).coords
    (Fraction(-2, 1), Fraction(1, 1), Fraction(1, 1))
    """
    if a.is_zero():
        raise NotInvertible("cannot invert 0")
    coords = _poly_inverse(
        [Fraction(n, a.den) for n in a.nums],
        [Fraction(c) for c in a.field.minpoly],
        lambda c: 1 / c,
    )
    if coords is None:
        raise NotInvertible("element shares a factor with the defining polynomial")
    return a.field.elem(coords)


def denominator_support(a: FieldElem) -> set[int]:
    """Primes dividing any coordinate denominator of a.

    >>> k = make_field([3, 0, 1])
    >>> sorted(denominator_support(k.elem([Fraction(5, 12), 1])))
    [2, 3]
    """
    return set(prime_factors(a.den))
