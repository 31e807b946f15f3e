"""Numeric theta functions, elliptic numbers and elliptic tiling weights.

The building block is theta(x; p) = prod_{j >= 0} (1 - p^j x)(1 - p^{j+1}/x),
|p| < 1, summed as the Jacobi triple product series
theta(x; p) (p; p)_inf = sum_n (-1)^n p^{n(n-1)/2} x^n (Gasper-Rahman
(1.6.1), DLMF 20.5), whose terms fall like |p|^{n^2/2}: 6 to 10 a side
at |p| <= 0.35 and eps = 1e-17.  On top of it sit the elliptic number
[n]_{a,b;q,p} (four theta factors over four), the weight function v (five
over five, times q^m) and the tile weights omega1/omega2, which are v
at Fibonacci arguments and are kept as entries of v's table.  A tiling's
elliptic weight is the product of omega1(i, j) over its (D, i, j) domino
labels and omega2(i, j) over its (S, i, j) labels, from the tiling
model's one strip rule in ``fibl.tilings``.  EllipticRing(params)
owns one parameter point's values: its elliptic numbers at each base,
weights, Fibonacci factorials, strip sums and lattices, each computed
once, and supplies their arithmetic.  The strip sums (a transfer along
each strip over the omegas), the tiling sum (the (n, k) staircase as
point (k, n - k)), the recurrence, the spiral and the convolution are
``fibl.tilings``' shared identities over that ring; the addition,
splitting, strip, theorem and staircase checks here are functions of a
ring too, so the checks at one sampled point read one ring.  All
identity checks are numeric at seeded parameter points, drawn and
redrawn by one loop (``_sample_points``) at the tolerances of one policy
(``tolerances``); the ordered degeneration p -> 0, a -> 0, b -> 0 to the
q-analogs is symbolic (limit_chain), and its q ring is
``fibl.tilings.Q_RING``.

Two numeric regimes, selected per parameter set: double precision
(complex) and an extended mode of B bits, where EllipticParams holds a,
b, q and p as ``fibl.extended.ExtComplex`` numbers of B bits, so every
value computed from them is B-bit.  Both sum the series from its largest
term, with what depends on the nome alone cached per nome: in complex
floats while its guard bits g are at most 7 (see ``theta``), otherwise
on Gaussian integer mantissas at one fixed binary exponent, rounded once
into a complex or an ExtComplex.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, islice
from typing import Callable, Optional, Sequence

from fibl.errors import DegenerateParametersError
from fibl.extended import (ExtComplex, _exact, _float, _make, _normal, _power, _quotient, _round,
                           _times)
from fibl.fib import fib
from fibl.report import DEFAULT_SEED, VerificationReport, numeric_report
from fibl.tilings import (SPECIAL, PathDominoTiling, StaircaseTiling, recurrence, strip_sum,
                          tiling_sum, tiling_tiles, _check_staircase)

DEFAULT_TRUNC_EPS = 1e-17
DEFAULT_EQ_TOL = 1e-7
DEFAULT_MIN_DENOM = 1e-9
EXTENDED_EQ_TOL = 1e-20
EXTENDED_TRUNC_EPS = 1e-44
MAX_RESAMPLES = 100

_MAX_THETA_TERMS = 100_000
# A side's terms times its W + g bits: the Horner steps multiply (W + g)-bit
# integers, so the cost grows faster than this.  |p| = 0.99 takes 0.25-0.34
# million at 53, 128 and 256 bits (about 0.01-0.02 s a call on a 2-core
# x86-64 host), |p| = 0.997 about 2.7 million (0.3 s); |p| = 0.998 and
# beyond raise, where 0.999 took 1-3 s and 0.9999 minutes.
_MAX_THETA_WORK = 1 << 22
_TABLE_ROWS = 1024          # rows kept per B-bit nome table
_FLOAT_GUARD = 7            # G0: the most guard bits the double series sums in floats
_DOUBLE_WIDTH = 53 + 16     # W of the Gaussian kernel at 53 bits
_LN2 = math.log(2)
_GUARD_BITS = math.pi ** 2 / (2 * _LN2)     # g |log p|, see _series_guard
_NOT_CONVERGED = "theta truncation did not converge; |p| too close to 1"


class EllipticParams(namedtuple("EllipticParams", "a b q p trunc_eps eq_tol min_denom "
                                                  "precision_bits")):
    """The parameter quadruple (a, b, q, p) plus numeric policy knobs.

    With precision_bits = B set, a, b, q and p are stored as B-bit
    ExtComplex numbers, converted here (so also under ``replace``);
    everything computed from them is B-bit.  precision_bits None means
    double precision.  A tolerance left out, or None, is the precision's
    from ``tolerances``.
    """

    __slots__ = ()

    def __new__(cls, a: complex, b: complex, q: complex, p: complex,
                trunc_eps: Optional[float] = None, eq_tol: Optional[float] = None,
                min_denom: Optional[float] = None,
                precision_bits: Optional[int] = None) -> "EllipticParams":
        knobs = (trunc_eps, eq_tol, min_denom)
        if None in knobs:
            policy = tolerances(precision_bits)
            trunc_eps, eq_tol, min_denom = (d if k is None else k for k, d in zip(knobs, policy))
        values = (a, b, q, p)
        if not all(type(v) is ExtComplex or cmath.isfinite(v) for v in values):
            raise ValueError("a, b, q, p must be finite")
        if precision_bits:
            values = tuple(ExtComplex(v, precision_bits) for v in values)
        a, b, q, p = values
        if abs(p) >= 1:
            raise ValueError("need |p| < 1")
        if a == 0 or b == 0 or q == 0:
            raise ValueError("a, b, q must be nonzero")
        if min(trunc_eps, eq_tol, min_denom) <= 0:
            raise ValueError("tolerances must be positive")
        return super().__new__(cls, *values, trunc_eps, eq_tol, min_denom, precision_bits)

    def replace(self, **changes) -> "EllipticParams":
        """These parameters with ``changes``, converted and checked as new
        ones are; the tuple's own ``_replace`` would skip both."""
        return EllipticParams(**{**self._asdict(), **changes})


def derive_seed(master: int, index: int, attempt: int = 0) -> int:
    """Deterministic per-sample seed from (master seed, sample index)."""
    return (master * 1_000_003 + index) * 1_000_003 + attempt


def _random_complex(rng: random.Random, lo: float, hi: float) -> complex:
    mag = rng.uniform(lo, hi)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(mag * math.cos(phase), mag * math.sin(phase))


def tolerances(precision_bits: Optional[int], eq_tol: Optional[float] = None):
    """The numeric policy of a precision, (trunc_eps, eq_tol, min_denom):
    theta's truncation and the checks' relative tolerance, 1e-17 and 1e-7
    in double precision and 1e-44 and 1e-20 at any B bits, eq_tol given
    overriding the latter; and the degeneracy guard on a theta denominator
    or on the theta suite's addition sides, 1e-9 in both."""
    trunc_eps, tol = ((EXTENDED_TRUNC_EPS, EXTENDED_EQ_TOL) if precision_bits
                      else (DEFAULT_TRUNC_EPS, DEFAULT_EQ_TOL))
    return trunc_eps, tol if eq_tol is None else eq_tol, DEFAULT_MIN_DENOM


def sample_params(seed: int, *, precision_bits: Optional[int] = None,
                  eq_tol: Optional[float] = None) -> EllipticParams:
    """Seeded random parameters: |q| in [0.4, 0.9], |a|, |b| in [0.3, 1.5],
    |p| in [0.05, 0.35], uniformly random phases; tolerances from
    ``tolerances``."""
    rng = random.Random(seed)
    a = _random_complex(rng, 0.3, 1.5)
    b = _random_complex(rng, 0.3, 1.5)
    q = _random_complex(rng, 0.4, 0.9)
    p = _random_complex(rng, 0.05, 0.35)
    return EllipticParams(a, b, q, p, *tolerances(precision_bits, eq_tol),
                          precision_bits=precision_bits)


def _sample_points(draw: Callable[[int], list[VerificationReport]], master_seed: int,
                  samples: int) -> list[VerificationReport]:
    """The reports of ``draw`` at ``samples`` seeded points, in order:
    point i is drawn at derive_seed(master_seed, i, attempt), attempt 0
    first, and redrawn at the next attempt while the draw raises
    DegenerateParametersError, up to MAX_RESAMPLES times.  Each report of
    a point records its seed and resample count."""
    reports = []
    for i in range(samples):
        for attempt in range(MAX_RESAMPLES + 1):
            seed = derive_seed(master_seed, i, attempt)
            try:
                batch = draw(seed)
            except DegenerateParametersError:
                continue
            for rep in batch:
                rep.seed, rep.resamples = seed, attempt
            reports += batch
            break
        else:
            raise DegenerateParametersError(
                f"resample budget ({MAX_RESAMPLES}) exhausted at sample {i}")
    return reports


def run_sampled_checks(check: Callable[[EllipticRing], VerificationReport],
                       master_seed: int, samples: int, rings: Optional[dict] = None, *,
                       precision_bits: Optional[int] = None,
                       eq_tol: Optional[float] = None) -> list[VerificationReport]:
    """Run ``check`` on the rings of ``samples`` seeded parameter points
    (``_sample_points``), a degenerate point (a theta denominator under the
    min_denom guard) resampled.  ``rings`` maps derived seeds to the rings
    of calls at the same precision and eq_tol and gains this call's, so
    that the checks at one point read one ring."""
    rings = {} if rings is None else rings

    def draw(seed: int) -> list[VerificationReport]:
        ring = rings.get(seed)
        if ring is None:
            ring = rings[seed] = EllipticRing(
                sample_params(seed, precision_bits=precision_bits, eq_tol=eq_tol))
        rep = check(ring)
        rep.notes["params"] = dict(zip("abqp", ring.params))
        return [rep]
    return _sample_points(draw, master_seed, samples)


# ---------------------------------------------------------------------------
# Theta functions

def theta(x, p, eps: float = DEFAULT_TRUNC_EPS):
    """theta(x; p) = prod_{j >= 0} (1 - p^j x)(1 - p^{j+1}/x) by the Jacobi
    triple product series, each side cut before its first term below
    eps 2^-g of the largest (``_series``).  Two regimes, by argument type:

    * double (x and p complex, float or int): at g <= G0 = _FLOAT_GUARD
      guard bits (|p| <= 0.36, all that ``sample_params`` draws) the
      series in complex floats, reduced as ``_series`` reduces it: the
      sides z = y and z = w = p/y start from (y, w) = (x, p/x), or
      (p/x, x) when |x| <= |p|; while |y| > 1, y -> y p, and the peak
      term t_k = (-1)^k y^k p^{k(k-1)/2} is the running product of the
      factors -y, each of modulus above 1, so it overflows only where
      theta does.  One Horner loop sums both sides over the rows T_m,
      1 <= m < N, of the nome's cached entry (``_double_nome``), and
      theta = t_k (1 + y A + w B) / (p; p)_inf.  Error bound: every term
      has modulus at most 1, a side's moduli sum to less than 2.6, a
      Horner step adds at most (sqrt 5 + 1) u of a side (u = 2^-53), and
      y, w and t_k carry at most sqrt 5 (k + 1) u, so the value is within
      32 (N + k + 4) u |t_k / (p; p)_inf| of theta: relative to it, at
      most 32 (N + k + 4) 2^g u / (|1 - y| |1 - p/y|) by the guard bound,
      2^g <= 128.  Above G0 the sum may cancel by up to g bits, and the
      Gaussian integer kernel runs at 53 bits, rounded once to a complex;
    * extended (x or p an ExtComplex): that kernel at B bits, the
      precision of x (of p when x is not an ExtComplex), rounded once to
      a B-bit ExtComplex (``_theta_ext``).

    theta(1; p) and theta(p; p) are exactly 0, and theta(x; 0) is 1 - x
    rounded once.  x = 0 and |p| >= 1 raise ValueError, and so do, in the
    Gaussian kernel, more than _MAX_THETA_TERMS terms a side or more than
    _MAX_THETA_WORK terms times W + g bits a side.  The float series needs
    no cap: at |p| <= 0.3617 its nome has at most 38 rows even at eps =
    5e-324.  Values do not depend on the caches' state.
    """
    if not (isinstance(x, (complex, float, int)) and isinstance(p, (complex, float, int))):
        return _theta_ext(x, p, eps)
    if x == 0:
        raise ValueError("theta argument must be nonzero")
    absp = abs(p)
    if absp >= 1:
        raise ValueError("need |p| < 1")
    if x == 1 or x == p:
        return 0j
    if not absp:
        return complex(1 - x)
    p, log_p, rows, scale = _double_nome(p, eps)
    if rows is None:
        ma, mb, e = _series(_exact(x), _gaussian(p, _DOUBLE_WIDTH), _DOUBLE_WIDTH, eps)
        return complex(_float(ma, e), _float(mb, e))
    ax = abs(x)
    if ax <= absp:
        y, w, log_y = p / x, x, log_p - math.log(ax)
    else:
        y, w, log_y = x, p / x, (math.log(ax) if ax > 1 else 0.0)
    t = 1 + 0j      # complex from the start: an int or float x computes as complex(x)
    if log_y > 0:
        for _ in range(math.ceil(log_y / -log_p)):
            t, y = -t * y, y * p
        w = p / y
    a = b = 0j
    for c in rows:
        a = a * y + c
        b = b * w + c
    return t * ((a * y + b * w) + 1) * scale


@lru_cache(maxsize=32)
def _double_nome(p, eps: float):
    """(p, log|p|, rows, 1/(p; p)_inf) of a double nome p != 0 at eps, rows
    None when g > G0; p made complex with unsigned zeros, as all keys equal
    to it are one key.  Rows T_m = -T_{m-1} p^{m-1}, 1 <= m < N, highest
    first, N the terms at |z| = 1; (p; p)_inf is Euler's pentagonal series
    1 + sum_{n >= 1} (-1)^n p^{n(3n-1)/2} (1 + p^n)."""
    p = complex(p.real + 0.0, p.imag + 0.0)
    log_p = math.log(abs(p))
    g = _series_guard(log_p)
    if g > _FLOAT_GUARD:
        return p, log_p, None, None
    rows = [-1 + 0j]
    for m in range(1, _series_terms(log_p, 0.0, math.log(eps) - g * _LN2) - 1):
        rows.append(-rows[-1] * p ** m)
    euler, a, pn = 1 + 0j, -p, p        # a = (-1)^n p^{n(3n-1)/2}, pn = p^n
    while abs(a) > 2.0 ** -60:
        euler, a, pn = euler + a * (1 + pn), -a * pn * pn * pn * p, pn * p
    return p, log_p, rows[::-1], 1 / euler


def _gaussian(z, width: int):
    """A complex or an ExtComplex z as (a, b, e), z ~ (a + ib) 2^e, a and
    b at most ``width`` bits."""
    return _normal(*_exact(z), width)


def _theta_ext(x, p, eps: float):
    """The extended regime of theta: ``_series`` at mantissa width
    W = B + 16, rounded once to a B-bit ExtComplex, B the precision of x
    (of p when x is not an ExtComplex), which converts the other
    argument."""
    bits = (x if type(x) is ExtComplex else p).bits
    x, p = ExtComplex(x, bits), ExtComplex(p, bits)
    if not x:
        raise ValueError("theta argument must be nonzero")
    width = bits + 16
    pa, pb, pe = nome = _gaussian(p, width)
    pn = pa * pa + pb * pb
    if not pn:
        return 1 - x
    if pe >= 0 or pn >> (-2 * pe):                  # |p|^2 >= 1
        raise ValueError("need |p| < 1")
    if x == 1 or x == p:
        return ExtComplex(0, bits)
    ma, mb, e = _series(_exact(x), nome, width, eps)
    return _make(*_round(ma, mb, e, bits), bits)


def _series(x, nome, width: int, eps: float):
    """theta(x; p) as a Gaussian triple (a, b, e), (a + ib) 2^e, from the
    triples of x (exact) and of the nome p (cut to W bits).  The terms
    t_n = (-1)^n p^{n(n-1)/2} x^n peak at the n = k that brings y = p^k x
    into |p| < |y| <= 1 (after x -> p/x when |x| <= |p|, as theta(x) =
    theta(p/x)), and the t_{k+m} / t_k are the terms of two sides,
    sum_{m >= 0} T_m z^m for z = y and z = p/y, T_m = (-1)^m p^{m(m-1)/2},
    each of modulus at most 1, with 1 on both.  Each side is one Horner
    evaluation on Gaussian integers at one fixed exponent -F, F = W + g,
    over the nome's cached rows (``_nome_rows``); the g guard bits
    (``_series_guard``) cover the sum's cancellation,
    |sum| >= |1 - y| |1 - p/y| 2^-g.  A side stops before its first term
    below eps 2^-g (``_series_terms``), so the truncation error is about
    eps of the value away from a zero.  The sum is multiplied by t_k and
    by 1/(p; p)_inf (``_series_constants``); the caller rounds once."""
    pa, pb, pe = nome
    log_p = 0.5 * math.log(pa * pa + pb * pb) + pe * _LN2
    # the deepest side, at |z| = 1, runs more than g / 2.3 terms, so a
    # guard past 4 _MAX_THETA_TERMS is past the cap too
    if log_p >= 0 or _GUARD_BITS / -log_p >= 4 * _MAX_THETA_TERMS:
        raise ValueError(_NOT_CONVERGED)
    g = _series_guard(log_p)
    log_tol = math.log(eps) - g * _LN2      # a side's cut-off
    terms = _series_terms(log_p, 0.0, log_tol)
    if terms > _MAX_THETA_TERMS or terms * (width + g) > _MAX_THETA_WORK:
        raise ValueError(_NOT_CONVERGED)
    key = pa, pb, pe, width
    frac, ia, ib, ie = _series_constants(*key)
    x = _normal(*x, frac)
    log_x = 0.5 * math.log(x[0] * x[0] + x[1] * x[1]) + x[2] * _LN2
    if log_x <= log_p:
        x, log_x = _quotient(*nome, *x, frac), log_p - log_x
    k = max(0, math.ceil(log_x / -log_p))
    # y = p^k x and the peak term t_k = (-1)^k p^{k(k-1)/2} x^k
    y, ta, tb, te = x, 1, 0, 0
    if k:
        y = _times(*_power(*nome, k, frac), *x, frac)
        ta, tb, te = _times(*_power(*x, k, frac), *_power(*nome, k * (k - 1) // 2, frac), frac)
        if k & 1:
            ta, tb = -ta, -tb
    log_y = log_x + k * log_p
    ny = _series_terms(log_p, log_y, log_tol)
    nw = _series_terms(log_p, log_p - log_y, log_tol)
    rows = _nome_rows(key, max(ny, nw))
    sa, sb = _horner(rows[ny - 1::-1], *_fixed(*y, frac), frac)
    ua, ub = _horner(rows[nw - 1::-1], *_fixed(*_quotient(*nome, *y, frac), frac), frac)
    sa, sb = sa + ua - (1 << frac), sb + ub         # u_0 = 1 is on both sides
    # theta = t_k * sum / (p; p)_inf
    ma, mb = sa * ia - sb * ib, sa * ib + sb * ia
    return ma * ta - mb * tb, ma * tb + mb * ta, ie + te - frac


def _series_guard(log_p: float) -> int:
    """The guard bits g of the series at log|p|: over |p| < |y| <= 1,

        |sum_m u_m| >= |1 - y| |1 - p/y| (|p|; |p|)_inf^3,

    as theta(y; p) (p; p)_inf is (1 - y)(1 - p/y) times factors
    1 - p^j y, 1 - p^{j+1}/y and 1 - p^j, j >= 1, each of modulus at least
    1 - |p|^j; and -ln (|p|; |p|)_inf = sum_k |p|^k / (k (1 - |p|^k)) is
    at most pi^2 / (6 |log p|).  So g = ceil(pi^2 / (2 ln 2 |log p|))."""
    return math.ceil(_GUARD_BITS / -log_p)


def _series_terms(log_q: float, log_z: float, log_tol: float) -> int:
    """How many terms u_m = (-1)^m q^{m(m-1)/2} z^m, from m = 0, come
    before the first with |u_m| < tol, from log|q| < 0, log|z| and
    log(tol) < 0: log|u_m| = -a m^2 + b m with a = -log|q|/2 and
    b = log|z| + a is below log(tol) past the larger root r of
    a m^2 - b m + log(tol), so the count is floor(r) + 1."""
    a = -0.5 * log_q
    b = log_z + a
    return math.floor((b + math.sqrt(b * b - 4 * a * log_tol)) / (2 * a)) + 1


def _horner(rows, za: int, zb: int, frac: int):
    """sum_m T_m z^m over the rows (T_m first, highest m first), by
    Horner's rule on Gaussian integers at exponent -frac, z given there.
    With |z| <= 1 each step's rounding adds less than 2^-frac per part."""
    sa = sb = 0
    for ta, tb, _, _ in rows:
        sa, sb = ((sa * za - sb * zb) >> frac) + ta, ((sa * zb + sb * za) >> frac) + tb
    return sa, sb


def _triangular_rows(last, qa: int, qb: int, frac: int):
    """The rows (T_m, q^m), as (ta, tb, ca, cb) at exponent -frac, after
    the row ``last`` (from m = 0 when it is None), without end:
    T_m = (-1)^m q^{m(m-1)/2}, so T_{m+1} = -T_m q^m, and q^{m+1} =
    q^m q, each product cut at exponent -frac.  A row depends only on the
    row before it, so it is the same whichever call grew a table."""
    one = 1 << frac
    row = last
    while True:
        if row is None:
            row = one, 0, one, 0
        else:
            ta, tb, ca, cb = row
            row = ((tb * cb - ta * ca) >> frac, -(ta * cb + tb * ca) >> frac,
                   (ca * qa - cb * qb) >> frac, (ca * qb + cb * qa) >> frac)
        yield row


@lru_cache(maxsize=32)
def _series_constants(pa: int, pb: int, pe: int, width: int):
    """(F, ia, ib, ie) for the nome p = (pa + i pb) 2^pe at width W:
    F = W + g, the series' fixed exponent, and 1/(p; p)_inf =
    (ia + i ib) 2^ie, by Euler's pentagonal series sum_n (-1)^n
    p^{n(3n-1)/2}, the triple product's sides at nome p^3 for z = p and
    z = p^2, to F bits.  Kept for the 32 most recently used nomes."""
    log_p = 0.5 * math.log(pa * pa + pb * pb) + pe * _LN2
    frac = width + _series_guard(log_p)
    qa, qb = _fixed(pa, pb, pe, frac)
    p2 = (qa * qa - qb * qb) >> frac, (2 * qa * qb) >> frac
    p3 = (p2[0] * qa - p2[1] * qb) >> frac, (p2[0] * qb + p2[1] * qa) >> frac
    log_tol = -frac * _LN2
    n1 = _series_terms(3 * log_p, log_p, log_tol)
    n2 = _series_terms(3 * log_p, 2 * log_p, log_tol)
    rows = list(islice(_triangular_rows(None, *p3, frac), max(n1, n2)))
    ea, eb = _horner(rows[n1 - 1::-1], qa, qb, frac)
    fa, fb = _horner(rows[n2 - 1::-1], *p2, frac)
    return (frac,) + _quotient(1, 0, 0, ea + fa - (1 << frac), eb + fb, -frac, frac)


def _fixed(a: int, b: int, e: int, frac: int):
    """(a + ib) 2^e as Gaussian integers at exponent -frac."""
    k = e + frac
    return (a << k, b << k) if k >= 0 else (a >> -k, b >> -k)


@lru_cache(maxsize=32)
def _nome_table(*key) -> list:
    """The cached rows of the nome (pa + i pb) 2^pe at mantissa width W
    that the key (pa, pb, pe, W) names.  A list that
    ``_nome_rows`` grows in place to at most _TABLE_ROWS rows, kept for
    the 32 most recently used nomes."""
    return []


def _nome_rows(key: tuple, terms: int) -> list:
    """The first ``terms`` rows of the nome's table, ``_triangular_rows``
    of p at the series' fixed exponent -F.  Rows past _TABLE_ROWS are
    computed as the caller reads them and not kept."""
    rows = _nome_table(*key)
    if len(rows) < terms:
        frac = _series_constants(*key)[0]
        more = _triangular_rows(rows[-1] if rows else None, *_fixed(*key[:3], frac), frac)
        rows.extend(islice(more, min(terms, _TABLE_ROWS) - len(rows)))
        if len(rows) < terms:
            return rows + list(islice(more, terms - len(rows)))
    return rows[:terms]


def theta_multi(xs: Sequence, p, eps: float = DEFAULT_TRUNC_EPS):
    """Product of theta values over the argument list (empty product is 1)."""
    out = 1
    for x in xs:
        out = out * theta(x, p, eps)
    return out


def _theta_quotient(num_args: list, den_args: list, params: EllipticParams):
    """prod theta(num_args) / prod theta(den_args).  Degenerate: a denominator
    under min_denom, or in double precision an argument that underflowed to 0."""
    if not params.precision_bits and (0 in num_args or 0 in den_args):
        raise DegenerateParametersError("a theta argument underflows to 0")
    den = theta_multi(den_args, params.p, params.trunc_eps)
    if abs(den) < params.min_denom:
        raise DegenerateParametersError(
            f"theta denominator magnitude {float(abs(den)):.3e} below min_denom")
    return theta_multi(num_args, params.p, params.trunc_eps) / den


# ---------------------------------------------------------------------------
# Elliptic numbers and weights

class EllipticRing:
    """One parameter point's values, and the elliptic weight ring of
    ``fibl.tilings``' shared identities there: the elliptic numbers
    [n]_{a,b;q^base,p}, the weights v, the Fibonacci factorials, and the
    strip sums and lattice points that the shared identities fill, each
    computed once and kept in a dict keyed by small ints; omega1 and
    omega2 are v at Fibonacci arguments, read from v's table.  Values are
    complex or B-bit, compared at the point's tolerance.  It supplies
    products by its numbers and omegas and lists no tilings.  A value is
    kept only once computed, so a degenerate point raises on every call."""

    __slots__ = ("params", "_numbers", "_v", "_factorials", "strips", "recurrence_lattice",
                 "tiling_lattice")
    one, zero = 1, 0

    def __init__(self, params: EllipticParams):
        self.params = params
        self._numbers, self._v, self.strips = {}, {}, {}
        self._factorials = [1]              # prod_{k=1}^{n} [F_k] at n
        self.recurrence_lattice, self.tiling_lattice = {}, {}

    def _q(self, base: int):
        """q ** base, at B bits in extended mode."""
        if base < 1:
            raise ValueError("base exponent must be >= 1")
        return self.params.q ** base if base > 1 else self.params.q

    def number(self, n: int, base: int = 1):
        """[n]_{a,b;q^base,p}: four theta factors over four; [1] = 1, [0] = 0."""
        value = self._numbers.get((n, base))
        if value is None:
            if n < 0:
                raise ValueError("elliptic number index must be >= 0")
            a, b, q = self.params.a, self.params.b, self._q(base)
            qn = q ** n
            value = self._numbers[n, base] = _theta_quotient(
                [qn, a * qn, b * q, a / b * q],
                [q, a * q, b * qn, a / b * qn],
                self.params)
        return value

    def v(self, m: int, n: int, base: int = 1):
        """The addition-formula weight v_{a,b;q^base,p}(m, n); v(0, n) = 1."""
        value = self._v.get((m, n, base))
        if value is None:
            a, b, q = self.params.a, self.params.b, self._q(base)
            ab = a / b
            value = self._v[m, n, base] = _theta_quotient(
                [a * q ** (2 * m + n), b, b * q ** n, ab * q ** n, ab],
                [a * q ** n, b * q ** m, b * q ** (m + n), ab * q ** m, ab * q ** (m + n)],
                self.params) * q ** m
        return value

    def omega1(self, i: int, j: int):
        """Weight of a regular domino: v_{a,b;q^{F_j},p}(F_i, F_{i-1})."""
        if i < 1 or j < 1:
            raise ValueError("omega1 needs i, j >= 1")
        return self.v(fib(i), fib(i - 1), fib(j))

    def omega2(self, i: int, j: int):
        """Weight of a special domino: v_{a,b;q,p}(F_{i+1} F_j, F_i F_{j-1}).

        j = 0 uses F_0 = 0 and F_{-1} = 1, giving v(0, F_i) = 1 exactly.
        """
        if i < 1 or j < 0:
            raise ValueError("omega2 needs i >= 1, j >= 0")
        return self.v(fib(i + 1) * fib(j), fib(i) * fib(j - 1))

    def factorial(self, n: int):
        """prod_{k=1}^{n} [F_k]_{a,b;q,p}, multiplied left to right."""
        facts = self._factorials
        while len(facts) <= n:
            facts.append(facts[-1] * self.number(fib(len(facts))))
        return facts[n]

    def fibonomial(self, m: int, n: int):
        """Elliptic Fibonomial via the factorial ratio."""
        if m < 0 or n < 0:
            raise ValueError("need m, n >= 0")
        num = self.factorial(m + n)
        den = self.factorial(m) * self.factorial(n)
        if abs(den) < self.params.min_denom:
            raise DegenerateParametersError("factorial denominator below min_denom")
        return num / den

    def times_number(self, v, n: int, base: int):
        return v * self.number(n, base)

    def times_omega1(self, v, i: int, j: int):
        return v * self.omega1(i, j)

    def times_omega2(self, v, i: int, j: int):
        return v * self.omega2(i, j)

    def report(self, identity: str, inputs: dict, lhs, rhs) -> VerificationReport:
        return numeric_report("elliptic-" + identity, inputs, lhs, rhs, self.params.eq_tol)


def elliptic_weight(t: PathDominoTiling | StaircaseTiling, ring: EllipticRing):
    """The elliptic weight of one tiling of either model: the product of
    omega1(i, j) over its (D, i, j) labels and omega2(i, j) over its
    (S, i, j) labels, in the order of ``fibl.tilings.tiling_tiles``."""
    w = 1
    for kind, i, j in tiling_tiles(t):
        w = w * (ring.omega2 if kind == SPECIAL else ring.omega1)(i, j)
    return w


# ---------------------------------------------------------------------------
# Checks

def theta_property_suite(samples: int, seed: int = DEFAULT_SEED, *,
                         precision_bits: Optional[int] = None,
                         eq_tol: Optional[float] = None) -> list[VerificationReport]:
    """Check the four basic theta identities at seeded random points:

    p = 0 reduction, inversion theta(1/x) = -theta(x)/x, quasi-periodicity
    theta(px) = -theta(x)/x, and the four-versus-four addition formula.
    Four reports per sample point, at the tolerances of ``tolerances``; a
    point whose addition sides are both under min_denom is resampled
    (``_sample_points``).

    The suite cannot see the constant 1/(p; p)_inf: each identity has as
    many theta factors at nome p on one side as on the other, and the
    zero-nome report compares the p = 0 branch, 1 - x, with 1 - x.  A
    wrong constant cancels from every report here and from every report
    of the elliptic checks, which are balanced the same way.  An error in
    the nome's series rows shows in the addition reports, which sum
    products at different arguments, while inversion and
    quasi-periodicity evaluate both sides through the same reduction.
    The kernel tests compare theta with independent references.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    eps, eq_tol, min_denom = tolerances(precision_bits, eq_tol)

    def draw(point_seed: int) -> list[VerificationReport]:
        rng = random.Random(point_seed)
        x, y, u, z = (_random_complex(rng, 0.4, 1.5) for _ in range(4))
        p = _random_complex(rng, 0.05, 0.35)
        inputs = {"x": x, "y": y, "u": u, "z": z, "p": p}
        if precision_bits:
            # the reports hold the sampled doubles; the arithmetic runs on
            # B-bit copies, which hold them exactly
            x, y, u, z, p = (ExtComplex(v, precision_bits) for v in (x, y, u, z, p))
        sides = [("theta-zero-nome", theta(x, p * 0, eps), 1 - x)]
        tx = theta(x, p, eps)
        sides += [("theta-inversion", theta(1 / x, p, eps), -tx / x),
                  ("theta-quasi-periodicity", theta(p * x, p, eps), -tx / x),
                  ("theta-addition", theta_multi([x * y, x / y, u * z, u / z], p, eps),
                   theta_multi([u * y, u / y, x * z, x / z], p, eps)
                   + (x / z) * theta_multi([z * y, z / y, u * x, u / x], p, eps))]
        if max(map(abs, sides[-1][1:])) < min_denom:
            raise DegenerateParametersError("theta addition sides below min_denom")
        return [numeric_report(name, inputs, lhs, rhs, eq_tol) for name, lhs, rhs in sides]
    return _sample_points(draw, seed, samples)


def elliptic_addition_check(m: int, n: int, ring: EllipticRing) -> VerificationReport:
    """[m+n] = [m] + v(m, n) [n]."""
    lhs = ring.number(m + n)
    rhs = ring.number(m) + ring.v(m, n) * ring.number(n)
    return ring.report("addition", {"m": m, "n": n}, lhs, rhs)


def fib_splitting_check(m: int, n: int, ring: EllipticRing) -> VerificationReport:
    """[F_{m+n}] = [F_n][F_{m+1}]_{q^{F_n}} + omega2(m,n)[F_m][F_{n-1}]_{q^{F_m}}."""
    lhs = ring.number(fib(m + n))
    rhs = (ring.number(fib(n)) * ring.number(fib(m + 1), fib(n))
           + ring.omega2(m, n) * ring.number(fib(m)) * ring.number(fib(n - 1), fib(m)))
    return ring.report("fib-splitting", {"m": m, "n": n}, lhs, rhs)


def elliptic_theorem_check(m: int, n: int, ring: EllipticRing) -> VerificationReport:
    """Factorial ratio vs recurrence vs tiling sum.

    The recurrence and the tiling sum run on the ring's two lattices.  The
    report's lhs is the ratio and rhs the tiling sum; rel_diff is the
    worst pairwise disagreement among the three routes.
    """
    ratio = ring.fibonomial(m, n)
    values = {"ratio": ratio,
              "recurrence": recurrence(ring, m, n),
              "tiling_sum": tiling_sum(ring, m, n)}
    worst = 0.0
    for u, v in combinations(values.values(), 2):
        scale = max(abs(u), abs(v))
        if scale:
            worst = max(worst, float(abs(u - v) / scale))
    rep = ring.report("fibonomial", {"m": m, "n": n}, ratio, values["tiling_sum"])
    rep.rel_diff = worst
    rep.passed = worst <= ring.params.eq_tol
    rep.notes["routes"] = sorted(values)
    return rep


def elliptic_strip_check(n: int, ring: EllipticRing) -> VerificationReport:
    """Sum over (n-1)-strip tilings of prod omega1(i, 1) equals [F_n]."""
    if n < 1:
        raise ValueError("need n >= 1")
    total = strip_sum(ring, 1, n - 1, False)
    return ring.report("strip", {"n": n}, ring.number(fib(n)), total)


def elliptic_staircase_check(n: int, k: int, ring: EllipticRing) -> VerificationReport:
    """Sum of elliptic weights over (n, k)-staircase tilings, rectangle
    point (k, n - k), equals the elliptic Fibonomial with parts (n-k, k)."""
    _check_staircase(n, k)
    total = tiling_sum(ring, k, n - k)
    return ring.report("staircase", {"n": n, "k": k}, ring.fibonomial(n - k, k), total)


# ---------------------------------------------------------------------------
# Symbolic degeneration p -> 0, a -> 0, b -> 0 (in this order)

# a theta argument is sym * q^e with sym one of these markers
_SYM_ONE, _SYM_A, _SYM_B, _SYM_AB = "1", "a", "b", "a/b"


def _limit_factors(tag) -> tuple[list, list, int]:
    """Numerator/denominator theta-argument lists and the q-power shift for
    a supported expression tag."""
    kind, *args = tag
    if kind == "number":
        (n,) = args
        if n < 0:
            raise ValueError("need n >= 0")
        num = [(_SYM_ONE, n), (_SYM_A, n), (_SYM_B, 1), (_SYM_AB, 1)]
        den = [(_SYM_ONE, 1), (_SYM_A, 1), (_SYM_B, n), (_SYM_AB, n)]
        return num, den, 0
    if kind == "v":
        m, n = args
        num = [(_SYM_A, 2 * m + n), (_SYM_B, 0), (_SYM_B, n), (_SYM_AB, n), (_SYM_AB, 0)]
        den = [(_SYM_A, n), (_SYM_B, m), (_SYM_B, m + n), (_SYM_AB, m), (_SYM_AB, m + n)]
        return num, den, m
    if kind == "omega1":
        i, j = args
        num, den, shiftv = _limit_factors(("v", fib(i), fib(i - 1)))
        base = fib(j)
        scale = lambda fs: [(s, e * base) for s, e in fs]  # noqa: E731
        return scale(num), scale(den), shiftv * base
    if kind == "omega2":
        i, j = args
        return _limit_factors(("v", fib(i + 1) * fib(j), fib(i) * fib(j - 1)))
    raise ValueError(f"unsupported limit tag {tag!r}")


def limit_chain(tag, q_val):
    """Degenerate an elliptic expression by the ordered substitutions
    p = 0 (theta(x; 0) = 1 - x), then a = 0, then b = 0, and evaluate the
    surviving rational function at q = q_val.

    Exact when q_val is an int or Fraction.  Supported tags:
    ("number", n), ("v", m, n), ("omega1", i, j), ("omega2", i, j).
    The elliptic number degenerates to (1 - q^n)/(1 - q) = [n]_q, the
    weights to pure powers of q.
    """
    num, den, shift = _limit_factors(tuple(tag))
    if isinstance(q_val, int):
        from fractions import Fraction
        q_val = Fraction(q_val)
    # p -> 0 turns each theta factor into (1 - sym q^e); a -> 0 then sends
    # every a- and a/b-carrying factor to 1, b -> 0 every b-carrying one.
    num_val = 1
    for sym, e in num:
        if sym == _SYM_ONE:
            num_val = num_val * (1 - q_val ** e)
    den_val = 1
    for sym, e in den:
        if sym == _SYM_ONE:
            den_val = den_val * (1 - q_val ** e)
    if den_val == 0:
        raise DegenerateParametersError(
            f"q value {q_val!r} is a root of unity degenerating the limit")
    if den_val == 1:
        return num_val * q_val ** shift
    return num_val * q_val ** shift / den_val
