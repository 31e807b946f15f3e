"""B-bit complex numbers on Gaussian integer mantissas.

ExtComplex holds z = (a + ib) 2^e, two integer mantissas and one binary
exponent, at a precision of B bits.  It is the number type of the
extended regime: ``fibl.elliptic.EllipticParams`` at B bits holds its
parameters as ExtComplex, and ``fibl.elliptic.theta`` rounds its series
into one.  The helpers below are the mantissa arithmetic that the type
and the theta kernel share: a triple (a, b, e) is (a + ib) 2^e.
"""

from __future__ import annotations

import cmath
import math

_GUARD = 32         # bits past B that / and ** carry before they round


def _exact(z):
    """An ExtComplex, complex, float or int z exactly as (a, b, e)."""
    if type(z) is ExtComplex:
        return z.a, z.b, z.e
    if type(z) is int:
        return z, 0, 0
    parts = [(n, 1 - d.bit_length()) for n, d in
             (float(z.real).as_integer_ratio(), float(z.imag).as_integer_ratio())]
    e = min((exp for man, exp in parts if man), default=0)
    a, b = (man << (exp - e) if man else 0 for man, exp in parts)
    return a, b, e


def _float(m: int, e: int) -> float:
    """m 2^e rounded once to a float; an infinity past the double range."""
    try:
        return m / (1 << -e) if e < 0 else float(m << min(e, 1100))
    except OverflowError:
        return math.copysign(math.inf, m)


def _normal(a: int, b: int, e: int, width: int):
    """(a + ib) 2^e with max(|a|, |b|) shifted to ``width`` bits (floor)."""
    k = max(a.bit_length(), b.bit_length()) - width
    return (a >> k, b >> k, e + k) if k >= 0 else (a << -k, b << -k, e + k)


def _times(a: int, b: int, e: int, c: int, d: int, f: int, width: int):
    """The product of two Gaussian mantissas, cut back to W bits."""
    return _normal(a * c - b * d, a * d + b * c, e + f, width)


def _quotient(a: int, b: int, e: int, c: int, d: int, f: int, width: int):
    """(a + ib) 2^e / ((c + id) 2^f) to W bits: (a + ib)(c - id) over
    c^2 + d^2, the quotient shifted to about W + 1 bits first (by a
    divisor shifted up when the dividend has more bits than that)."""
    n = c * c + d * d
    ra, rb = a * c + b * d, b * c - a * d
    k = width + 1 + n.bit_length() - max(ra.bit_length(), rb.bit_length())
    up, n = max(k, 0), n << max(-k, 0)
    return _normal((ra << up) // n, (rb << up) // n, e - f - k, width)


def _power(a: int, b: int, e: int, n: int, width: int):
    """((a + ib) 2^e)^n, n >= 0, by squaring, each product cut to W bits."""
    out = 1, 0, 0
    while n:
        if n & 1:
            out = _times(*out, a, b, e, width)
        n >>= 1
        if n:
            a, b, e = _times(a, b, e, a, b, e, width)
    return out


def _round(a: int, b: int, e: int, bits: int):
    """(a + ib) 2^e with each part rounded to nearest, ties to even, at
    ``bits`` significant bits of its own; the part with the lower
    exponent keeps it, the other is shifted onto it."""
    ka = a.bit_length() - bits
    if ka > 0:
        a = (a + (1 << (ka - 1)) - 1 + ((a >> ka) & 1)) >> ka
    else:
        ka = 0
    kb = b.bit_length() - bits
    if kb > 0:
        b = (b + (1 << (kb - 1)) - 1 + ((b >> kb) & 1)) >> kb
    else:
        kb = 0
    if not a:
        ka = kb
    elif not b:
        kb = ka
    k = min(ka, kb)
    return a << (ka - k), b << (kb - k), e + k


def _make(a: int, b: int, e: int, bits: int) -> "ExtComplex":
    z = object.__new__(ExtComplex)
    z.a, z.b, z.e, z.bits = a, b, e, bits
    return z


def _operand(z):
    """z exactly as (a, b, e) when it is an ExtComplex or a finite int,
    float or complex; else None."""
    if type(z) is ExtComplex:
        return z.a, z.b, z.e
    if type(z) is int or (isinstance(z, (int, float, complex)) and cmath.isfinite(z)):
        return _exact(z)
    return None


def _sum(a: int, b: int, e: int, c: int, d: int, f: int):
    """(a + ib) 2^e + (c + id) 2^f exactly, at the lower exponent."""
    if e > f:
        a, b, e = a << (e - f), b << (e - f), f
    elif f > e:
        c, d = c << (f - e), d << (f - e)
    return a + c, b + d, e


def _divide(a: int, b: int, e: int, c: int, d: int, f: int, bits: int) -> "ExtComplex":
    if not (c or d):
        raise ZeroDivisionError("division by zero")
    return _make(*_round(*_quotient(a, b, e, c, d, f, bits + _GUARD), bits), bits)


def _sign(z: "ExtComplex", other) -> int:
    """The sign of z - other, both real; other may be an infinite float."""
    if type(other) is float and math.isinf(other):
        return -1 if other > 0 else 1
    w = _operand(other)
    if w is None or z.b or w[1]:
        raise TypeError("only B-bit reals, ints and floats are ordered")
    d = _sum(z.a, 0, z.e, -w[0], 0, w[2])[0]
    return (d > 0) - (d < 0)


class ExtComplex:
    """A complex number z = (a + ib) 2^e of B = ``bits`` bits: Gaussian
    integer mantissas a, b and one binary exponent e, which no bound
    limits, so no value overflows or underflows.

    * +, - and * round the exact result once, each part to nearest, ties
      to even, at B significant bits of its own;
    * / and ** (an int n >= 0) compute at B + 32 bits and at
      B + 32 + n.bit_length() bits (``_quotient``, ``_power``), within
      2^-(B+24) |w| of the exact result w, and then round each part so;
    * abs(z) is |z| correctly rounded to B bits: a real, an ExtComplex
      whose b is 0.  Reals order against reals, ints and floats (the
      infinities too), and float() rounds them to the nearest double;
      complex() rounds each part so, to an infinity past the double
      range.

    The other operand may be an ExtComplex or a finite int, float or
    complex, taken exactly; the result has the precision of the
    ExtComplex operand, the left one when both are.  As the parts round
    separately, the mantissas also hold the distance between the parts'
    magnitudes: a part 2^-1000 times the other takes 1000 more bits.
    Equality is of values, exact; an ExtComplex is not hashable.  It is
    no subclass of complex or float: ``fibl.elliptic.theta`` tells the
    double and the extended regime apart by type.
    """

    __slots__ = ("a", "b", "e", "bits")

    def __new__(cls, z, bits: int) -> "ExtComplex":
        """z, an ExtComplex or a finite int, float or complex, rounded to
        ``bits`` bits."""
        w = _operand(z)
        if w is None:
            raise ValueError(f"not a finite number: {z!r}")
        return _make(*_round(*w, bits), bits)

    @property
    def real(self) -> "ExtComplex":
        return _make(self.a, 0, self.e, self.bits)

    @property
    def imag(self) -> "ExtComplex":
        return _make(self.b, 0, self.e, self.bits)

    def __complex__(self) -> complex:
        return complex(_float(self.a, self.e), _float(self.b, self.e))

    def __float__(self) -> float:
        if self.b:
            raise TypeError("a B-bit number with an imaginary part has no float")
        return _float(self.a, self.e)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other):
        w = _operand(other)
        if w is None:
            return NotImplemented
        a, b, _ = _sum(self.a, self.b, self.e, -w[0], -w[1], w[2])
        return not (a or b)

    __hash__ = None

    def __lt__(self, other) -> bool:
        return _sign(self, other) < 0

    def __le__(self, other) -> bool:
        return _sign(self, other) <= 0

    def __gt__(self, other) -> bool:
        return _sign(self, other) > 0

    def __ge__(self, other) -> bool:
        return _sign(self, other) >= 0

    def __neg__(self) -> "ExtComplex":
        return _make(-self.a, -self.b, self.e, self.bits)

    def __abs__(self) -> "ExtComplex":
        a, b, bits = self.a, self.b, self.bits
        n = a * a + b * b                   # |z|^2 = n 2^(2e)
        s = max(0, bits + 2 - (n.bit_length() >> 1))
        m = n << (2 * s)
        r = math.isqrt(m)                   # at least B + 2 bits
        # and a sticky bit under them, set when r is inexact: only an
        # exact root can be a tie
        return _make(*_round((r << 1) | (r * r != m), 0, self.e - s - 1, bits), bits)

    def __add__(self, other):
        w = _operand(other)
        if w is None:
            return NotImplemented
        return _make(*_round(*_sum(self.a, self.b, self.e, *w), self.bits), self.bits)

    __radd__ = __add__

    def __sub__(self, other):
        w = _operand(other)
        if w is None:
            return NotImplemented
        return _make(*_round(*_sum(self.a, self.b, self.e, -w[0], -w[1], w[2]), self.bits),
                     self.bits)

    def __rsub__(self, other):
        w = _operand(other)
        if w is None:
            return NotImplemented
        return _make(*_round(*_sum(*w, -self.a, -self.b, self.e), self.bits), self.bits)

    def __mul__(self, other):
        w = _operand(other)
        if w is None:
            return NotImplemented
        a, b, (c, d, f) = self.a, self.b, w
        return _make(*_round(a * c - b * d, a * d + b * c, self.e + f, self.bits), self.bits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = _operand(other)
        if w is None:
            return NotImplemented
        return _divide(self.a, self.b, self.e, *w, self.bits)

    def __rtruediv__(self, other):
        w = _operand(other)
        if w is None:
            return NotImplemented
        return _divide(*w, self.a, self.b, self.e, self.bits)

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            return NotImplemented
        bits = self.bits
        width = bits + _GUARD + n.bit_length()
        return _make(*_round(*_power(self.a, self.b, self.e, n, width), bits), bits)

    def __repr__(self) -> str:
        return f"ExtComplex(({self.a} + {self.b}j) * 2**{self.e}, bits={self.bits})"
