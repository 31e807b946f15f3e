"""Exact univariate polynomial arithmetic in the formal variable q.

IntPoly is an immutable dense coefficient vector over Python's
arbitrary-precision integers; every q-analog quantity in the package is one
of these.  The module provides the q-number [n] = 1 + q + ... + q^{n-1},
the ratio engine that builds every product or quotient of q-numbers
(q_ratio_coeffs), the q-Fibonomial by two independent routes (the ratio
engine, and ``fibl.tilings.recurrence`` over the q weight ring
``fibl.tilings.Q_RING``), long division, and the integer shadow of the
spiral identity.

Degrees are guarded by a configurable cap (default 10**7) so runaway
inputs fail fast with a ResourceLimitError instead of exhausting memory:
q-number degrees grow like Fibonacci numbers, i.e. exponentially in the
index.  Every IntPoly product, shift and substitution, every q-number,
and every product of the q weight ring checks the degree of its result
before it builds it.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from operator import add
from typing import Iterable, NamedTuple

from fibl import kernels
from fibl.errors import NotPolynomialError, ResourceLimitError
from fibl.fib import fib
from fibl.report import VerificationReport, exact_report

DEFAULT_DEGREE_CAP = 10**7
_degree_cap = DEFAULT_DEGREE_CAP


def degree_cap() -> int:
    return _degree_cap


def set_degree_cap(cap: int) -> int:
    """Set the global degree cap, returning the previous value."""
    global _degree_cap
    if cap < 1:
        raise ValueError("degree cap must be positive")
    old = _degree_cap
    _degree_cap = cap
    return old


def _ensure_cap(deg: int) -> None:
    if deg > _degree_cap:
        raise ResourceLimitError(
            f"polynomial degree {deg} exceeds the degree cap {_degree_cap}",
            cap=_degree_cap)


class IntPoly:
    """Immutable dense polynomial with exact integer coefficients.

    Canonical form: no trailing zero coefficients; the zero polynomial has
    empty support and degree -1.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def _wrap(cls, trimmed: list) -> "IntPoly":
        p = cls.__new__(cls)
        p._c = tuple(trimmed)
        return p

    @classmethod
    def zero(cls) -> "IntPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "IntPoly":
        return _ONE

    @classmethod
    def monomial(cls, exponent: int) -> "IntPoly":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        _ensure_cap(exponent)
        return cls._wrap([0] * exponent + [1])

    @property
    def coeffs(self) -> tuple:
        return self._c

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, exponent: int) -> int:
        if 0 <= exponent < len(self._c):
            return self._c[exponent]
        return 0

    def __len__(self) -> int:
        return len(self._c)

    def term_count(self) -> int:
        """Number of nonzero coefficients."""
        return len(self._c) - self._c.count(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        return IntPoly._wrap(kernels.trim([*map(add, a, b), *a[len(b):]]))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self._c), len(other._c))
        out = [self.coeff(i) - other.coeff(i) for i in range(n)]
        return IntPoly._wrap(kernels.trim(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly._wrap([-v for v in self._c])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self._c or not other._c:
            return _ZERO
        _ensure_cap(len(self._c) + len(other._c) - 2)
        return IntPoly._wrap(kernels.mul_dense(self._c, other._c))

    def shift(self, exponent: int) -> "IntPoly":
        """Multiply by q^exponent."""
        if exponent < 0:
            raise ValueError("shift exponent must be >= 0")
        if not self._c:
            return _ZERO
        _ensure_cap(self.degree + exponent)
        return IntPoly._wrap([0] * exponent + list(self._c))

    def substitute_power(self, m: int) -> "IntPoly":
        """Replace q by q^m (each exponent multiplied by m), m >= 1."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        if m == 1 or not self._c:
            return self
        _ensure_cap(self.degree * m)
        out = [0] * (self.degree * m + 1)
        for i, v in enumerate(self._c):
            if v:
                out[i * m] = v
        return IntPoly._wrap(out)

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for v in reversed(self._c):
            acc = acc * x + v
        return acc

    def eval_q1(self) -> int:
        """Value at q = 1 (the integer shadow of the q-analog)."""
        return sum(self._c)

    def to_json(self) -> dict:
        """Sparse JSON form: exponents and coefficients as decimal strings."""
        return {
            "var": "q",
            "coeffs": [[str(i), str(v)] for i, v in enumerate(self._c) if v],
        }

    def __repr__(self) -> str:
        if not self._c:
            return "IntPoly(0)"
        terms = []
        for i, v in enumerate(self._c):
            if not v:
                continue
            if i == 0:
                terms.append(str(v))
            elif i == 1:
                terms.append("q" if v == 1 else f"{v}*q")
            else:
                terms.append(f"q^{i}" if v == 1 else f"{v}*q^{i}")
            if len(terms) > 8:
                return f"IntPoly(<{len(self._c)} coefficients, degree {self.degree}>)"
        return "IntPoly({})".format(" + ".join(terms))

    __str__ = __repr__


_ZERO = IntPoly()
_ONE = IntPoly([1])


class DivisionResult(NamedTuple):
    quotient: IntPoly
    remainder: IntPoly


def q_number(n: int) -> IntPoly:
    """The q-analog [n] = 1 + q + ... + q^{n-1}; [0] is the zero polynomial."""
    if n < 0:
        raise ValueError(f"q_number needs n >= 0, got {n}")
    if n == 0:
        return _ZERO
    _ensure_cap(n - 1)
    return IntPoly._wrap([1] * n)


def long_division(num: IntPoly, den: IntPoly) -> DivisionResult:
    """Schoolbook division: num = den * quotient + remainder.

    The divisor must have leading coefficient +-1 (every divisor arising
    here is a product of q-numbers, hence monic), which keeps the whole
    computation inside the integers.
    """
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if den._c[-1] not in (1, -1):
        raise ValueError("divisor must have leading coefficient +-1")
    if num.degree < den.degree:
        return DivisionResult(_ZERO, num)
    lead = den._c[-1]
    r = list(num._c)
    d = den._c
    dd = len(d) - 1
    qlen = len(r) - dd
    quot = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = r[i + dd]
        if c == 0:
            continue
        c = c * lead            # lead is +-1, so this is exact
        quot[i] = c
        for j, dv in enumerate(d):
            if dv:
                r[i + j] -= c * dv
    return DivisionResult(IntPoly(quot), IntPoly(r[:dd]))


# ---------------------------------------------------------------------------
# The ratio engine: quotients of products of q-numbers

@lru_cache(maxsize=1024)
def _cyclotomic_indices(t: int) -> tuple[int, ...]:
    """The d > 1 dividing t, i.e. the Phi_d whose product is [t]."""
    small = [d for d in range(1, math.isqrt(t) + 1) if t % d == 0]
    return tuple({d for s in small for d in (s, t // s)} - {1})


def cyclotomic_split(num: Iterable[int], den: Iterable[int]) -> tuple[list, list]:
    """Split den, sorted in descending order, at the first factor whose
    cyclotomic factors the numerator's, spent in that order, no longer cover.

    [t] = prod_{d | t, d > 1} Phi_d(q), the Phi_d distinct and irreducible,
    so prod [num] / prod [den] is a polynomial iff the second part is empty.
    """
    phi = Counter()
    for t in num:
        phi.update(_cyclotomic_indices(t))
    den = sorted(den, reverse=True)
    for pos, t in enumerate(den):
        indices = _cyclotomic_indices(t)
        if not all(phi[d] for d in indices):
            return den[:pos], den[pos:]
        phi.subtract(indices)
    return den, []


def q_ratio_coeffs(num: Iterable[int], den: Iterable[int],
                   start: list | None = None) -> tuple[list, int]:
    """prod [t] over num / prod [t] over den (all t >= 1), as (half, length):
    the quotient is a palindrome of ``length`` coefficients, and ``half``
    is its low half, the first ceil(length/2); ``kernels.unfold(half,
    length)`` gives the dense coefficients.

    A denominator factor [t] pairs with a numerator factor [u], t | u, as
    [u/t]_{q^t}; the resulting windows other than [1] are multiplied out in
    ascending degree.  The unpaired denominator factors are divided out
    early, so each division runs on a short partial product: a running
    count holds the cyclotomic factors of the partial product, window
    [n]_{q^s} = [ns] / [s] adding Phi_d for every d | ns with d not
    dividing s.  A pending [t] (in descending order) is due once its Phi_d,
    d | t, d > 1, are all counted; it is divided out and its Phi_d are
    taken off the count.  A window [u] of stride 1 and a due [t] take one
    kernel step, ``div_qnumber(..., times=u)``, in either order: a [t] due
    before a window of stride 1 waits for it, and such a window with none
    waiting takes the first [t] it makes due.  Every other due [t] is
    divided out on its own, before the next window.  [1] is never
    divided.  On `catalan sweep --max 13` 25 of the 29 divisions
    fuse, and the window sums fall from 96 calls over 345,637
    coefficients to 71 over 262,169 (2,439,678 to 1,759,397 at
    ``--max 15``).  Every partial product is a palindrome, so each one is
    kept, multiplied and divided as its low half, in one list that the
    engine owns: every kernel call consumes it and returns it rewritten in
    place (see ``fibl.kernels``).

    ``start``, if not empty, is a list holding one (quotient, num0, den0):
    the pair this function returned for num0 and den0, prefixes of num
    and den.  The count then starts at the cyclotomic factors of num0 less
    those of den0, the partial product at that quotient, and only the
    factors after the prefixes are paired, windowed and divided.  The
    entry is popped from ``start`` and its half is consumed: the engine
    works in that list and returns it, so the caller must not read the
    half it handed over, which no longer holds that quotient.

    Polynomiality is proved by the cyclotomic count over the full lists,
    by every division being exact and by the value at q = 1 of the full
    lists; any failure raises NotPolynomialError, which carries
    ``cyclotomic_split(num, den)`` as ``split`` when the count failed.
    The degree cap is the caller's to check.
    """
    num, den = list(num), list(den)
    if min(num + den, default=1) < 1:
        raise ValueError("q-number indices must be >= 1")
    split, rest = cyclotomic_split(num, den)
    if rest:
        raise NotPolynomialError(f"the numerator's cyclotomic factors miss [{rest[0]}]",
                                 split=(split, rest))
    phi = Counter()
    out, length = [1], 1
    new_num, new_den = num, split
    if start:
        (out, length), num0, den0 = start.pop()
        if num[:len(num0)] != list(num0) or den[:len(den0)] != list(den0):
            raise ValueError("the start's factor lists must be prefixes of num and den")
        for t in num0:
            phi.update(_cyclotomic_indices(t))
        for t in den0:
            phi.subtract(_cyclotomic_indices(t))
        new_num, new_den = num[len(num0):], sorted(den[len(den0):], reverse=True)
    windows = [(u, 1) for u in sorted(new_num)]      # [t]_{q^stride} as (t, stride)
    pending = []
    for t in new_den:
        i = next((i for i, (u, s) in enumerate(windows) if s == 1 and u % t == 0), None)
        if i is None:
            if t > 1:
                pending.append(t)
        else:
            windows[i] = (windows[i][0] // t, t)
    windows = sorted((w for w in windows if w[0] > 1), key=lambda w: (w[0] - 1) * w[1])
    held = None         # a covered [t] kept back to be divided with the next window
    # None first: a start may already cover a pending factor
    for i, window in enumerate([None] + windows):
        if window is not None:
            u, stride = window
            phi.update(d for d in _cyclotomic_indices(u * stride) if stride % d)
            if stride == 1 and held is None:
                held = _take_covered(pending, phi)
            if held is None:
                out = kernels.mul_qnumber(out, u, stride, length)
                length += (u - 1) * stride
            else:
                out = _divide(out, held, length, u)
                length += u - held
                held = None
        fuse_next = i < len(windows) and windows[i][1] == 1
        while (t := _take_covered(pending, phi)) is not None:
            if fuse_next and held is None:
                held = t
            else:
                out = _divide(out, t, length)
                length -= t - 1
    if pending:
        raise NotPolynomialError(f"internal error: [{pending[0]}] was never divided out")
    # the q = 1 value of the palindrome: each coefficient of the low half
    # twice, the middle one of an odd length once
    value = 2 * sum(out) - (out[-1] if length % 2 else 0)
    if value * math.prod(den) != math.prod(num):
        raise NotPolynomialError("internal error: quotient does not match its value at q = 1")
    return out, length


def _take_covered(pending: list, phi: Counter) -> int | None:
    """Pop the first [t] of ``pending`` whose Phi_d, d | t, d > 1, the count
    ``phi`` all holds, and take them off the count; None if there is none."""
    for i, t in enumerate(pending):
        indices = _cyclotomic_indices(t)
        if all(phi[d] for d in indices):
            phi.subtract(indices)
            return pending.pop(i)
    return None


def _divide(half: list, t: int, length: int, times: int = 1) -> list:
    """The low half of p [times] / [t] for the partial product p, which the
    cyclotomic count has shown divisible; one window sum."""
    half = kernels.div_qnumber(half, t, 1, length, times=times)
    if half is None:
        raise NotPolynomialError(f"internal error: exact division by [{t}] failed")
    return half


def ratio_poly(num: Iterable[int], den: Iterable[int]) -> IntPoly:
    """The quotient of q_ratio_coeffs(num, den) as an IntPoly."""
    return IntPoly._wrap(kernels.unfold(*q_ratio_coeffs(num, den)))


# ---------------------------------------------------------------------------
# q-Fibonomials

def q_fibonomial(m: int, n: int) -> IntPoly:
    """The q-Fibonomial prod_{k=hi+1}^{m+n} [F_k] / prod_{k=1}^{lo} [F_k].

    Here lo, hi = min(m, n), max(m, n).  The ratio engine re-proves
    polynomiality on every computation; since F_k | F_j iff k | j, most
    denominator factors pair away rather than being divided out.  Results are
    memoized, but the degree cap is checked on every call, so a capped
    call fails whether or not the value is cached.
    """
    if m < 0 or n < 0:
        raise ValueError("q_fibonomial needs m, n >= 0")
    _ensure_cap(_fibonomial_degree(m, n))
    return _q_fibonomial_cached(m, n)


@lru_cache(maxsize=256)
def _q_fibonomial_cached(m: int, n: int) -> IntPoly:
    lo, hi = sorted((m, n))
    return ratio_poly((fib(k) for k in range(hi + 1, m + n + 1)),
                      (fib(k) for k in range(1, lo + 1)))


q_fibonomial.cache_info = _q_fibonomial_cached.cache_info
q_fibonomial.cache_clear = _q_fibonomial_cached.cache_clear


def _fibonomial_degree(m: int, n: int) -> int:
    lo, hi = sorted((m, n))
    total = sum(fib(k) - 1 for k in range(hi + 1, m + n + 1))
    return total - sum(fib(k) - 1 for k in range(1, lo + 1))


def fibonomial_int(m: int, n: int) -> int:
    """The integer Fibonomial (the q = 1 shadow), computed exactly."""
    if m < 0 or n < 0:
        raise ValueError("fibonomial needs m, n >= 0")
    lo = min(m, n)
    num = 1
    for k in range(max(m, n) + 1, m + n + 1):
        num *= fib(k)
    den = 1
    for k in range(1, lo + 1):
        den *= fib(k)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("Fibonomial ratio is not an integer")
    return q


def q_fibonomial_recurrence(m: int, n: int) -> IntPoly:
    """The q-Fibonomial via the two-term recurrence,
    ``fibl.tilings.recurrence`` over ``fibl.tilings.Q_RING``, on its lattice
    kept across calls (the degree cap is checked on every call);
    independent of the ratio route."""
    from fibl.tilings import Q_RING, recurrence     # tilings imports qpoly
    _ensure_cap(_fibonomial_degree(m, n))
    return recurrence(Q_RING, m, n)


def is_unimodal(poly: IntPoly) -> bool:
    """True iff the dense coefficient sequence (interior zeros included)
    rises then falls."""
    return kernels.scan_unimodal(poly._c)


# ---------------------------------------------------------------------------
# Identity checks

def spiral_identity_check_q1(m: int) -> VerificationReport:
    """Integer shadow of the spiral identity: F_{m+2} F_{m+1} = sum F_k^2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = fib(m + 2) * fib(m + 1)
    rhs = sum(fib(k) ** 2 for k in range(1, m + 2))
    return exact_report("q-spiral-at-1", {"m": m}, lhs, rhs)
