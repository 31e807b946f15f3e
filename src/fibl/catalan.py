"""Rational q-Fibo-Catalan numbers and the Coxeter-type generalization.

The rational expression prod_{k<=m+n-1} [F_k] / (prod_{k<=m} [F_k]
prod_{k<=n} [F_k]) is a polynomial whenever gcd(m, n) is 1 or 2; the
module decides polynomiality by counting cyclotomic factors and computes
exact quotients, both with the ratio engine of fibl.qpoly, records
polynomiality verdicts (a non-polynomial ratio is a result, not an error)
and scans coefficient signs.  Positivity beyond polynomiality is an
experimental observation, so sweeps report it rather than assume it.

The Coxeter variant multiplies [F_{a+e_i}] over the exponents e_i of a
crystallographic reflection group and divides by [F_{e_i+1}]; coprimality
of a with e_n + 1 is required for integrality, and (F4, a=2) is the
canonical witness that Fibonacci-coprimality alone is not enough.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

from fibl import kernels
from fibl.fib import fib
from fibl.errors import NotPolynomialError
from fibl.qpoly import (IntPoly, _ensure_cap, long_division, q_fibonomial, q_ratio_coeffs,
                        ratio_poly)
from fibl.report import VerificationReport, exact_report
from fibl.tilings import Q_RING

# long-division fallback for remainders is skipped above this work estimate
_REMAINDER_WORK_LIMIT = 5 * 10**7

_FIXED_EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}

FAMILIES = ("A", "B", "D", "E6", "E7", "E8", "F4", "G2")


def coxeter_exponents(family: str, rank: Optional[int] = None) -> tuple[int, ...]:
    """Exponent list of a crystallographic Coxeter group.

    A_n: 1..n; B_n: odd numbers up to 2n-1; D_n: n-1 then odd numbers up
    to 2n-3 (a multiset; the printed order is kept).  E/F/G types are
    fixed tables.
    """
    family = family.upper()
    if family in _FIXED_EXPONENTS:
        if rank is not None:
            raise ValueError(f"{family} does not take a rank")
        return _FIXED_EXPONENTS[family]
    if family == "A":
        if rank is None or rank < 1:
            raise ValueError("A needs a rank >= 1")
        return tuple(range(1, rank + 1))
    if family == "B":
        if rank is None or rank < 2:
            raise ValueError("B needs a rank >= 2")
        return tuple(range(1, 2 * rank, 2))
    if family == "D":
        if rank is None or rank < 4:
            raise ValueError("D needs a rank >= 4")
        return (rank - 1,) + tuple(range(1, 2 * rank - 2, 2))
    raise ValueError(f"unknown Coxeter family {family!r}")


class CoxeterType(NamedTuple):
    family: str
    rank: Optional[int] = None

    @property
    def exponents(self) -> tuple[int, ...]:
        return coxeter_exponents(self.family, self.rank)

    @property
    def coxeter_number(self) -> int:
        """e_n + 1 for the largest exponent e_n."""
        return max(self.exponents) + 1

    def label(self) -> str:
        return f"{self.family}{self.rank}" if self.rank is not None else self.family


class PolynomialityVerdict:
    """Outcome of an exact-division polynomiality test.

    A polynomial quotient is kept as the ratio engine returned it: its
    low half and its length.  ``quotient`` unfolds it into a dense
    IntPoly on each read, so a caller that needs only the degree, the
    signs or the range never holds the dense coefficients.
    """

    __slots__ = ("is_polynomial", "half", "length", "remainder_degree",
                 "all_coeffs_nonnegative", "coeff_range")

    def __init__(self, is_polynomial: bool, half: Optional[list] = None,
                 length: Optional[int] = None, remainder_degree: Optional[int] = None,
                 all_coeffs_nonnegative: Optional[bool] = None,
                 coeff_range: Optional[tuple[int, int]] = None):   # quotient's (min, max)
        self.is_polynomial = is_polynomial
        self.half = half
        self.length = length
        self.remainder_degree = remainder_degree
        self.all_coeffs_nonnegative = all_coeffs_nonnegative
        self.coeff_range = coeff_range

    def __repr__(self) -> str:      # without the half, which can run to 10**6 numbers
        shown = (f"{k}={getattr(self, k)!r}" for k in self.__slots__ if k != "half")
        return f"PolynomialityVerdict({', '.join(shown)})"

    @property
    def quotient(self) -> Optional[IntPoly]:
        if self.half is None:
            return None
        return IntPoly._wrap(kernels.unfold(self.half, self.length))

    @property
    def degree(self) -> Optional[int]:
        return None if self.length is None else self.length - 1


def _ratio_verdict(num_factors: Iterable[int], den_factors: Iterable[int]) -> PolynomialityVerdict:
    """Decide whether prod [t] over num_factors / prod [t] over den_factors is a polynomial.

    The ratio engine's cyclotomic count decides and the engine builds an
    exact quotient; an inexact one's remainder is recovered by long
    division when that is affordable.  The degree cap applies to every
    partial numerator degree.
    """
    num = list(num_factors)
    _check_partial_degrees(num)
    try:
        half, length = q_ratio_coeffs(num, den_factors)
    except NotPolynomialError as exc:
        if exc.split is None:
            raise
        return PolynomialityVerdict(False, remainder_degree=_remainder_degree(num, *exc.split))
    lohi = kernels.coeff_min_max(half)
    return PolynomialityVerdict(True, half=half, length=length,
                                all_coeffs_nonnegative=lohi[0] >= 0, coeff_range=lohi)


def _check_partial_degrees(num: list) -> None:
    """Apply the degree cap to every partial numerator degree."""
    for degree in accumulate(t - 1 for t in num):
        _ensure_cap(degree)


def _remainder_degree(num: list, divided: list, rest: list) -> Optional[int]:
    """Degree of the remainder of (prod [num] / prod [divided]) mod prod [rest],
    or None when the long division would exceed _REMAINDER_WORK_LIMIT."""
    quotient_len = sum(t - 1 for t in num) - sum(t - 1 for t in divided) + 1
    divisor_len = sum(t - 1 for t in rest) + 1
    if quotient_len * divisor_len > _REMAINDER_WORK_LIMIT:
        return None
    res = long_division(ratio_poly(num, divided), ratio_poly(rest, ()))
    return res.remainder.degree


def q_fibo_catalan_rational(m: int, n: int) -> PolynomialityVerdict:
    """Verdict for prod_{k<=m+n-1} [F_k] / (prod_{k<=m} [F_k] prod_{k<=n} [F_k])."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    return _ratio_verdict(*_rational_factors(m, n))


def _rational_factors(m: int, n: int) -> tuple[list, list]:
    """The rational expression's numerator and denominator indices.  At a
    fixed max(m, n) both lists for min(m, n) are prefixes of those for
    any larger min(m, n)."""
    lo, hi = sorted((m, n))
    return [fib(k) for k in range(hi + 1, m + n)], [fib(k) for k in range(1, lo + 1)]


class SweepRow(NamedTuple):
    """One line of the positivity sweep, mirroring the CSV columns."""

    m: int
    n: int
    gcd: int
    is_polynomial: bool
    degree: Optional[int]
    min_coeff: Optional[int]
    max_coeff: Optional[int]


def q_fibo_catalan_positivity_sweep(max_mn: int) -> list[SweepRow]:
    """Verdict summaries for all 1 <= m, n <= max_mn with gcd(m, n) in {1, 2}.

    Quotients are summarized (degree and coefficient range), not retained:
    the largest ones run to degrees near 10**6.  Symmetric pairs are
    computed once and reported in both orders.  The degree cap is checked
    for every pair, in output order, before any quotient is built.

    At a fixed n the quotients for m <= n are prefix ratios,
    Q(m + 1, n) = Q(m, n) [F_{m+n}] / [F_{m+1}], so each one starts the
    ratio engine from the last polynomial quotient at that n (over any
    pairs skipped for their gcd) and only the last is kept.
    """
    if max_mn < 2:
        raise ValueError("need max >= 2")
    pairs = [(m, n) for m in range(1, max_mn + 1) for n in range(m, max_mn + 1)
             if math.gcd(m, n) in (1, 2)]
    for m, n in pairs:
        _check_partial_degrees(_rational_factors(m, n)[0])
    rows = {}
    for n in range(1, max_mn + 1):
        last = []
        for m in range(1, n + 1):
            g = math.gcd(m, n)
            if g in (1, 2):
                rows[(m, n)] = _chained_row(m, n, g, last)
    return [rows[min(m, n), max(m, n)]._replace(m=m, n=n)
            for m in range(1, max_mn + 1) for n in range(1, max_mn + 1)
            if math.gcd(m, n) in (1, 2)]


def _chained_row(m: int, n: int, g: int, last: list) -> SweepRow:
    """Sweep row (m, n), m <= n.  ``last`` holds at most the (quotient,
    num, den) of the last polynomial row at this n; the ratio engine pops
    it and rewrites that quotient's half in place, and a polynomial row
    is pushed in its place.  The quotient stays in the engine's half
    form: its range is that of its low half."""
    num, den = _rational_factors(m, n)
    try:
        quotient = q_ratio_coeffs(num, den, last)
    except NotPolynomialError as exc:
        if exc.split is None:
            raise
        return SweepRow(m, n, g, False, None, None, None)
    half, length = quotient
    lo, hi = kernels.coeff_min_max(half)
    last.append((quotient, num, den))
    return SweepRow(m, n, g, True, length - 1, lo, hi)


def sweep_csv_lines(rows: list[SweepRow]) -> list[str]:
    """The header, then one line per row: booleans as true/false, None as empty."""
    return [",".join(SweepRow._fields)] + [
        ",".join("" if v is None else str(v).lower() for v in r) for r in rows]


def q_fibo_catalan_divisibility_check(m: int, n: int) -> VerificationReport:
    """Exact check of [F_n] * qFib(m, n) = [F_{m+n}] * qFib(m, n-1)."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    lhs = Q_RING.times_number(q_fibonomial(m, n), fib(n), 1)
    rhs = Q_RING.times_number(q_fibonomial(m, n - 1), fib(m + n), 1)
    return exact_report("catalan-divisibility", {"m": m, "n": n}, lhs, rhs)


def coxeter_q_fibo_catalan(w: CoxeterType, a: int) -> PolynomialityVerdict:
    """Verdict for prod_i [F_{a+e_i}] / [F_{e_i+1}] over the exponents of w."""
    if a < 1:
        raise ValueError("need a >= 1")
    exps = w.exponents
    return _ratio_verdict(
        (fib(a + e) for e in exps),
        (fib(e + 1) for e in exps))


def q_fibo_catalan_ordinary(n: int) -> PolynomialityVerdict:
    """Verdict for the ordinary q-Fibo-Catalan
    prod_{k<=2n} [F_k] / (prod_{k<=n+1} [F_k] prod_{k<=n} [F_k])."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _ratio_verdict(
        (fib(k) for k in range(n + 2, 2 * n + 1)),
        (fib(k) for k in range(1, n + 1)))
