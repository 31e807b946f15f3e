"""Exact univariate polynomial arithmetic in the formal variable q.

IntPoly is an immutable dense coefficient vector over Python's
arbitrary-precision integers; every q-analog quantity in the package is one
of these.  The module provides the q-number [n] = 1 + q + ... + q^{n-1},
the ratio engine that builds every product or quotient of q-numbers
(q_ratio_coeffs), the Fibonacci q-factorial, the q-Fibonomial by two
independent routes (the ratio engine, and the two-term recurrence run by
``fibl.tilings.rect_transfer`` over closed-form strip sums), long
division with polynomiality detection, and the polynomial identity checks.

Degrees are guarded by a configurable cap (default 10**7) so runaway
inputs fail fast with a ResourceLimitError instead of exhausting memory:
q-number degrees grow like Fibonacci numbers, i.e. exponentially in the
index.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable

from fibl import kernels
from fibl.errors import NotPolynomialError, ResourceLimitError
from fibl.fib import fib, spiral_exponent
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
    def monomial(cls, exponent: int, coeff: int = 1) -> "IntPoly":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        _ensure_cap(exponent)
        if coeff == 0:
            return _ZERO
        return cls._wrap([0] * exponent + [coeff])

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

    def __call__(self, x):
        return self.evaluate(x)

    def to_json(self) -> dict:
        """Sparse JSON form: exponents and coefficients as decimal strings."""
        return {
            "var": "q",
            "coeffs": [[str(i), str(v)] for i, v in enumerate(self._c) if v],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IntPoly":
        if obj.get("var") != "q":
            raise ValueError("expected a polynomial in q")
        pairs = [(int(e), int(c)) for e, c in obj["coeffs"]]
        if not pairs:
            return _ZERO
        out = [0] * (max(e for e, _ in pairs) + 1)
        for e, c in pairs:
            if e < 0:
                raise ValueError("negative exponent in serialized polynomial")
            out[e] += c
        return cls(out)

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


@dataclass(frozen=True)
class DivisionResult:
    quotient: IntPoly
    remainder: IntPoly


def substitute_power(poly: IntPoly, m: int) -> IntPoly:
    return poly.substitute_power(m)


def q_number(n: int) -> IntPoly:
    """The q-analog [n] = 1 + q + ... + q^{n-1}; [0] is the zero polynomial."""
    if n < 0:
        raise ValueError(f"q_number needs n >= 0, got {n}")
    if n == 0:
        return _ZERO
    _ensure_cap(n - 1)
    return IntPoly._wrap([1] * n)


def q_number_base(n: int, base: int) -> IntPoly:
    """[n] with q replaced by q^base: ones at exponents 0, base, ..., (n-1)*base."""
    return q_number(n).substitute_power(base)


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


def exact_div(num: IntPoly, den: IntPoly) -> IntPoly:
    """Return num / den when the division is exact.

    A nonzero remainder raises NotPolynomialError carrying the remainder;
    for polynomiality experiments that error is a result, not a crash.
    """
    if den == _ONE:
        return num
    res = long_division(num, den)
    if not res.remainder.is_zero():
        raise NotPolynomialError(
            f"remainder of degree {res.remainder.degree} is nonzero",
            remainder=res.remainder)
    return res.quotient


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


def q_ratio_coeffs(num: Iterable[int], den: Iterable[int], start: list | None = None) -> list:
    """Dense coefficients of prod [t] over num / prod [t] over den (all t >= 1).

    A denominator factor [t] pairs with a numerator factor [u], t | u, as
    [u/t]_{q^t}; the resulting windows are multiplied out in ascending
    degree.  The unpaired denominator factors are divided out early, so
    each division runs on a short partial product: a running count holds
    the cyclotomic factors of the partial product, window [n]_{q^s} =
    [ns] / [s] adding Phi_d for every d | ns with d not dividing s.  After
    each window, every pending [t] (in descending order) whose Phi_d,
    d | t, d > 1, are all counted is divided out and its Phi_d are taken
    off the count.  [1] is never divided.

    ``start``, if not empty, is a list holding one (quotient, num0, den0):
    the list this function returned for num0 and den0, prefixes of num
    and den.  The count then starts at the cyclotomic factors of num0 less
    those of den0, the partial product at that quotient, and only the
    factors after the prefixes are paired, windowed and divided.  The
    entry is popped from ``start``, so a caller that keeps no other
    reference to the quotient has it freed after the first window.

    Polynomiality is proved by the cyclotomic count over the full lists,
    by every division being exact and by the value at q = 1 of the full
    lists; any failure raises NotPolynomialError.  The degree cap is the
    caller's to check.
    """
    num, den = list(num), list(den)
    if min(num + den, default=1) < 1:
        raise ValueError("q-number indices must be >= 1")
    split, rest = cyclotomic_split(num, den)
    if rest:
        raise NotPolynomialError(f"the numerator's cyclotomic factors miss [{rest[0]}]")
    phi = Counter()
    out = [1]
    new_num, new_den = num, split
    if start:
        out, num0, den0 = start.pop()
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
    # None first: a start may already cover a pending factor
    for window in [None] + sorted(windows, key=lambda w: (w[0] - 1) * w[1]):
        if window is not None:
            t, stride = window
            out = kernels.mul_qnumber(out, t, stride)
            phi.update(d for d in _cyclotomic_indices(t * stride) if stride % d)
        waiting = []
        for u in pending:
            indices = _cyclotomic_indices(u)
            if not all(phi[d] for d in indices):
                waiting.append(u)
                continue
            out = kernels.div_qnumber(out, u)
            if out is None:
                raise NotPolynomialError(f"internal error: exact division by [{u}] failed")
            phi.subtract(indices)
        pending = waiting
    if pending:
        raise NotPolynomialError(f"internal error: [{pending[0]}] was never divided out")
    if sum(out) * math.prod(den) != math.prod(num):
        raise NotPolynomialError("internal error: quotient does not match its value at q = 1")
    return out


# ---------------------------------------------------------------------------
# Fibonacci q-factorials and q-Fibonomials

def q_fib_factorial(n: int) -> IntPoly:
    """prod_{k=1}^{n} [F_k]; the Fibonacci q-analog of n!.  n = 0 gives 1."""
    if n < 0:
        raise ValueError("factorial index must be >= 0")
    factors = [fib(k) for k in range(1, n + 1)]
    _ensure_cap(sum(t - 1 for t in factors))
    return IntPoly._wrap(q_ratio_coeffs(factors, ()))


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
    return IntPoly._wrap(q_ratio_coeffs((fib(k) for k in range(hi + 1, m + n + 1)),
                                        (fib(k) for k in range(1, lo + 1))))


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


def _recurrence_strip(index: int, length: int, forced: bool) -> IntPoly:
    """A rectangle strip's q-weight sum in closed form:
    [F_{length+1}]_{q^{F_index}} for row ``index``,
    q^{F_{index+1} F_length} [F_{length-1}]_{q^{F_index}} for the forced
    column ``index``."""
    if forced:
        return q_number_base(fib(length - 1), fib(index)).shift(fib(index + 1) * fib(length))
    return q_number_base(fib(length + 1), fib(index))


def q_fibonomial_recurrence(m: int, n: int) -> IntPoly:
    """The q-Fibonomial via the two-term recurrence over the (m, n) grid.

    G(m, n) = [F_{m+1}]_{q^{F_n}} G(m, n-1)
              + q^{F_n F_{m+1}} [F_{n-1}]_{q^{F_m}} G(m-1, n),
    with G(m, 0) = G(0, n) = 1: rect_transfer over the closed forms of the
    strips the last step fixes, on a lattice kept across calls (the degree
    cap is checked on every call); independent of the ratio route.
    """
    from fibl.tilings import _q_lattice, rect_transfer     # tilings imports qpoly
    if m < 0 or n < 0:
        raise ValueError("q_fibonomial_recurrence needs m, n >= 0")
    _ensure_cap(_fibonomial_degree(m, n))
    return rect_transfer(m, n, _recurrence_strip, _ONE, _q_lattice(1))


def is_unimodal(poly: IntPoly) -> bool:
    """True iff the dense coefficient sequence (interior zeros included)
    rises then falls."""
    return kernels.scan_unimodal(poly._c)


# ---------------------------------------------------------------------------
# Identity checks

def spiral_identity_check(m: int) -> VerificationReport:
    """Exact check of [F_{m+2}][F_{m+1}] = sum_k q^{c_k^m} [F_k]^2.

    Both sides of the n = 2 tiling identity, expanded as polynomials.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = IntPoly._wrap(q_ratio_coeffs((fib(m + 2), fib(m + 1)), ()))
    rhs = _ZERO
    for k in range(1, m + 2):
        sq = IntPoly._wrap(q_ratio_coeffs((fib(k), fib(k)), ()))
        rhs = rhs + sq.shift(spiral_exponent(k, m))
    return exact_report("q-spiral", {"m": m}, lhs, rhs)


def spiral_identity_check_q1(m: int) -> VerificationReport:
    """Integer shadow of the spiral identity: F_{m+2} F_{m+1} = sum F_k^2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = fib(m + 2) * fib(m + 1)
    rhs = sum(fib(k) ** 2 for k in range(1, m + 2))
    return exact_report("q-spiral-at-1", {"m": m}, lhs, rhs)


def convolution_identity_check_q(m: int, n: int) -> VerificationReport:
    """Exact polynomial check of the q-degenerated convolution formula.

    qFib(m, n) = sum_{j=0}^{n} (prod_{i<j} [F_{m+1}]_{q^{F_{n-i}}})
                 * [F_{n-1-j}]_{q^{F_m}} * q^{F_{m+1} F_{n-j}} * qFib(m-1, n-j)
    with the conventions [F_0] = 0 (the j = n-1 term vanishes) and, at
    j = n, weight exponent F_{m+1} F_0 = 0 and [F_{-1}] = [1] = 1.

    The sum is nested Horner-style from j = n down to j = 0,
    acc <- T_j + [F_{m+1}]_{q^{F_{n-j}}} acc, where T_j is term j without
    its leading product, so each (m, n) takes about 2n window-kernel
    passes.  Every term's full degree is checked against the degree cap,
    in ascending j, before any term is built.
    """
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    lhs = q_fibonomial(m, n)
    up = fib(m + 1)
    for j in range(n + 1):
        if j != n - 1:                     # [F_0] = 0
            lead = (up - 1) * sum(fib(n - i) for i in range(j))
            own = (fib(n - 1 - j) - 1) * fib(m)
            _ensure_cap(q_fibonomial(m - 1, n - j).degree + up * fib(n - j) + lead + own)
    acc = [1]                              # term n: qFib(m-1, 0) = 1 at shift 0
    for j in range(n - 1, -1, -1):
        acc = kernels.mul_qnumber(acc, up, fib(n - j))
        if j == n - 1:
            continue                       # [F_0] = 0 drops term n - 1
        term = kernels.mul_qnumber(list(q_fibonomial(m - 1, n - j)._c), fib(n - 1 - j), fib(m))
        shift = up * fib(n - j)
        end = shift + len(term)
        acc += [0] * (end - len(acc))
        acc[shift:end] = map(add, acc[shift:end], term)
    return exact_report("q-convolution", {"m": m, "n": n}, lhs, IntPoly(acc))


def reset_caches() -> None:
    """Drop the memoized ratio-route q-Fibonomials (mainly for tests)."""
    q_fibonomial.cache_clear()
