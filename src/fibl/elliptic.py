"""Numeric theta functions, elliptic numbers and elliptic tiling weights.

The building block is the product form

    theta(x; p) = prod_{j >= 0} (1 - p^j x)(1 - p^{j+1} / x),   |p| < 1,

truncated deterministically at the first J with |p|^J max(|x|, 1/|x|)
below the requested threshold.  On top of it sit the elliptic number
[n]_{a,b;q,p} (a quotient of four theta factors over four theta factors),
the weight function v (five over five, times q^m) and the derived tile
weights omega1/omega2.  A tiling's elliptic weight is the product of
omega1(i, j) over its (D, i, j) domino labels and omega2(i, j) over its
(S, i, j) labels; the labels come from the tiling model's one strip rule
in ``fibl.tilings``, which the q-weights read too.  The tiling sums list
no tilings: they run the lattice transfers of ``fibl.tilings``, the ones
the q generating functions run, over each strip's sum of elliptic
weights, so the tiling route reaches every (m, n); the recurrence runs
``rect_transfer`` over their closed forms.  All identity checks
here are numeric at sampled parameter points, with relative tolerances
carried by EllipticParams; the ordered degeneration p -> 0, a -> 0,
b -> 0 back to the q-analogs is done symbolically in limit_chain, not by
numeric limiting.

Two numeric regimes, selected per parameter set: double precision
(complex) and an extended mode with a configurable mantissa of B bits
(mpmath values, B = ``mpmath.mp.prec`` inside the parameter set's
precision context).  theta computes its truncation depth once from float
logarithms.  In double precision it multiplies complex factors; in the
extended mode it multiplies Gaussian integer mantissas of B + 16 bits
that share one binary exponent and rounds the product once to a B-bit
mpc, so mpmath's own arithmetic never runs per factor.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Optional, Sequence

from fibl.errors import DegenerateParametersError
from fibl.fib import fib
from fibl.report import DEFAULT_SEED, VerificationReport, numeric_report
from fibl.tilings import (SPECIAL, PathDominoTiling, StaircaseTiling,
                          rect_transfer, staircase_transfer, tiling_tiles,
                          _rect_strip_tiles, _strip_choices)

DEFAULT_TRUNC_EPS = 1e-17
DEFAULT_EQ_TOL = 1e-7
DEFAULT_MIN_DENOM = 1e-9
EXTENDED_EQ_TOL = 1e-20
EXTENDED_TRUNC_EPS = 1e-44
MAX_RESAMPLES = 100

_MAX_THETA_TERMS = 100_000
_LN2 = math.log(2)


@dataclass(frozen=True)
class EllipticParams:
    """The parameter quadruple (a, b, q, p) plus numeric policy knobs."""

    a: complex
    b: complex
    q: complex
    p: complex
    trunc_eps: float = DEFAULT_TRUNC_EPS
    eq_tol: float = DEFAULT_EQ_TOL
    min_denom: float = DEFAULT_MIN_DENOM
    precision_bits: Optional[int] = None   # None = double precision

    def __post_init__(self):
        if abs(self.p) >= 1:
            raise ValueError("need |p| < 1")
        if self.a == 0 or self.b == 0 or self.q == 0:
            raise ValueError("a, b, q must be nonzero")
        if min(self.trunc_eps, self.eq_tol, self.min_denom) <= 0:
            raise ValueError("tolerances must be positive")

    def rebase(self, exponent: int) -> "EllipticParams":
        """Same parameters with q replaced by q**exponent.

        In extended mode the power is taken at working precision (and the
        field then holds an mpmath value) so the rebase does not round
        through a double.
        """
        if exponent < 1:
            raise ValueError("base exponent must be >= 1")
        if exponent == 1:
            return self
        if self.precision_bits:
            import mpmath
            with mpmath.workprec(self.precision_bits):
                return replace(self, q=mpmath.mpc(self.q) ** exponent)
        return replace(self, q=self.q ** exponent)


def _prec_ctx(params: EllipticParams):
    if params.precision_bits:
        import mpmath
        return mpmath.workprec(params.precision_bits)
    return contextlib.nullcontext()


def _coerced(params: EllipticParams):
    if params.precision_bits:
        import mpmath
        return (mpmath.mpc(params.a), mpmath.mpc(params.b),
                mpmath.mpc(params.q), mpmath.mpc(params.p))
    return params.a, params.b, params.q, params.p


def derive_seed(master: int, index: int, attempt: int = 0) -> int:
    """Deterministic per-sample seed from (master seed, sample index)."""
    return (master * 1_000_003 + index) * 1_000_003 + attempt


def _random_complex(rng: random.Random, lo: float, hi: float) -> complex:
    mag = rng.uniform(lo, hi)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(mag * math.cos(phase), mag * math.sin(phase))


def sample_params(seed: int, *, precision_bits: Optional[int] = None,
                  trunc_eps: Optional[float] = None,
                  eq_tol: Optional[float] = None,
                  min_denom: Optional[float] = None) -> EllipticParams:
    """Seeded random parameters: |q| in [0.4, 0.9], |a|, |b| in [0.3, 1.5],
    |p| in [0.05, 0.35], uniformly random phases."""
    rng = random.Random(seed)
    a = _random_complex(rng, 0.3, 1.5)
    b = _random_complex(rng, 0.3, 1.5)
    q = _random_complex(rng, 0.4, 0.9)
    p = _random_complex(rng, 0.05, 0.35)
    if precision_bits:
        trunc_eps = EXTENDED_TRUNC_EPS if trunc_eps is None else trunc_eps
        eq_tol = EXTENDED_EQ_TOL if eq_tol is None else eq_tol
    return EllipticParams(
        a=a, b=b, q=q, p=p,
        trunc_eps=trunc_eps if trunc_eps is not None else DEFAULT_TRUNC_EPS,
        eq_tol=eq_tol if eq_tol is not None else DEFAULT_EQ_TOL,
        min_denom=min_denom if min_denom is not None else DEFAULT_MIN_DENOM,
        precision_bits=precision_bits)


def run_sampled_checks(check: Callable[[EllipticParams], VerificationReport],
                       master_seed: int, samples: int,
                       max_resamples: int = MAX_RESAMPLES,
                       **sample_kwargs) -> list[VerificationReport]:
    """Run ``check`` at ``samples`` seeded parameter points.

    Degenerate points (a theta denominator under the min_denom guard) are
    resampled with a derived seed, up to max_resamples per point; the
    resample count is recorded on the report.
    """
    reports = []
    for i in range(samples):
        attempt = 0
        while True:
            seed = derive_seed(master_seed, i, attempt)
            params = sample_params(seed, **sample_kwargs)
            try:
                rep = check(params)
            except DegenerateParametersError:
                attempt += 1
                if attempt > max_resamples:
                    raise DegenerateParametersError(
                        f"resample budget ({max_resamples}) exhausted at sample {i}")
                continue
            rep.seed = seed
            rep.resamples = attempt
            rep.notes["params"] = {"a": params.a, "b": params.b,
                                   "q": params.q, "p": params.p}
            reports.append(rep)
            break
    return reports


# ---------------------------------------------------------------------------
# Theta functions

def theta(x, p, eps: float = DEFAULT_TRUNC_EPS):
    """Truncated theta product of the first J factor pairs, where J is the
    first J >= 1 with |p|^J max(|x|, 1/|x|) < eps (J = 1 when p = 0).

    J is computed once, from float logarithms, before the product runs.
    Two regimes, chosen by the argument types:

    * double (x and p complex, float or int): the factors are multiplied
      in complex arithmetic exactly as ``out * (1 - p^j x) * (1 - p^j p / x)``;
    * extended (x or p an mpmath number): the product runs on Gaussian
      integer mantissas with a shared binary exponent, carried at
      ``mpmath.mp.prec + 16`` bits, and is rounded once to an mpc at
      ``mpmath.mp.prec`` bits.  theta(1; p) is exactly 0.

    Deterministic for fixed inputs.
    """
    if isinstance(x, (complex, float, int)) and isinstance(p, (complex, float, int)):
        if x == 0:
            raise ValueError("theta argument must be nonzero")
        absp = abs(p)
        if absp >= 1:
            raise ValueError("need |p| < 1")
        terms = _theta_terms(math.log(abs(x)), math.log(absp) if absp else None, eps)
        out = 1
        pj = 1
        for _ in range(terms):
            pjp = pj * p
            out = out * (1 - pj * x) * (1 - pjp / x)
            pj = pjp
        return out
    return _theta_ext(x, p, eps)


def _theta_terms(log_x: float, log_p: Optional[float], eps: float) -> int:
    """The truncation depth J from log|x| and log|p| (None when p = 0)."""
    if log_p is None:
        return 1
    if log_p >= 0:      # |p| rounds to 1
        raise ValueError("theta truncation did not converge; |p| too close to 1")
    # J log|p| + |log|x|| < log(eps)  <=>  J > ratio
    ratio = (math.log(eps) - abs(log_x)) / log_p
    if ratio >= _MAX_THETA_TERMS + 1:       # J = _MAX_THETA_TERMS + 1 is allowed
        raise ValueError("theta truncation did not converge; |p| too close to 1")
    return max(1, math.floor(ratio) + 1)


def _gaussian(z, width: int):
    """An mpmath number z as (a, b, e) with z ~ (a + ib) 2^e and
    max(|a|, |b|) below 2^width; (0, 0, 0) for z = 0."""
    if not hasattr(z, "_mpc_"):
        import mpmath
        z = mpmath.mpc(z)
    parts = [(-man if sign else man, exp, exp + bc)
             for sign, man, exp, bc in z._mpc_]
    tops = [top for man, _, top in parts if man]
    if not tops:
        return 0, 0, 0
    e = max(tops) - width
    (a, ea, _), (b, eb, _) = parts
    a = a << (ea - e) if ea >= e else a >> (e - ea)
    b = b << (eb - e) if eb >= e else b >> (e - eb)
    return a, b, e


def _theta_ext(x, p, eps: float):
    """The extended regime of theta on Gaussian integer mantissas.

    Every value is (a + ib) 2^e with max(|a|, |b|) < 2^W, W = prec + 16,
    renormalized by bit_length after each multiply.  u_j = p^j x and
    w_j = p^{j+1} / x advance by one multiply by p each, so 1/x is the
    only division; each factor 1 - u is formed at exponent -W.
    """
    import mpmath
    from mpmath.libmp import from_man_exp, round_nearest

    prec = mpmath.mp.prec
    width = prec + 16
    xa, xb, xe = _gaussian(x, width)
    if not (xa or xb):
        raise ValueError("theta argument must be nonzero")
    pa, pb, pe = _gaussian(p, width)
    pn = pa * pa + pb * pb
    if pn and (pe >= 0 or pn >> (-2 * pe)):          # |p|^2 >= 1
        raise ValueError("need |p| < 1")
    xn = xa * xa + xb * xb
    terms = _theta_terms(0.5 * math.log(xn) + xe * _LN2,
                         0.5 * math.log(pn) + pe * _LN2 if pn else None, eps)

    # Products are cut back to `width` bits by k = (bit length - width)
    # right shifts; `width` in the max keeps k >= 0 for an exact zero.
    # w_0 = p / x = p conj(x) / |x|^2, the one division
    s = 2 * width + 1
    ia, ib = (xa << s) // xn, (-xb << s) // xn
    wa, wb = pa * ia - pb * ib, pa * ib + pb * ia
    k = max(wa.bit_length(), wb.bit_length(), width) - width
    wa, wb, we = wa >> k, wb >> k, pe - xe - s + k
    ua, ub, ue = xa, xb, xe
    one = 1 << width
    oa, ob, oe = 1, 0, 0
    for _ in range(terms):
        k = ue + width                # 1 - u and 1 - w at exponent -W
        fa, fb = (ua << k, ub << k) if k >= 0 else (ua >> -k, ub >> -k)
        k = we + width
        ga, gb = (wa << k, wb << k) if k >= 0 else (wa >> -k, wb >> -k)
        fa, ga = one - fa, one - ga
        ha = fa * ga - fb * gb        # (1 - u)(1 - w) = (fa - i fb)(ga - i gb)
        hb = -(fa * gb + fb * ga)
        oa, ob = oa * ha - ob * hb, oa * hb + ob * ha
        k = max(oa.bit_length(), ob.bit_length(), width) - width
        oa, ob, oe = oa >> k, ob >> k, oe - 2 * width + k
        ua, ub = ua * pa - ub * pb, ua * pb + ub * pa
        k = max(ua.bit_length(), ub.bit_length(), width) - width
        ua, ub, ue = ua >> k, ub >> k, ue + pe + k
        wa, wb = wa * pa - wb * pb, wa * pb + wb * pa
        k = max(wa.bit_length(), wb.bit_length(), width) - width
        wa, wb, we = wa >> k, wb >> k, we + pe + k
    return mpmath.mp.make_mpc((from_man_exp(oa, oe, prec, round_nearest),
                               from_man_exp(ob, oe, prec, round_nearest)))


def theta_value(x, params: EllipticParams):
    """theta(x; p) for the nome of ``params``, at its precision."""
    with _prec_ctx(params):
        p = _coerced(params)[3]
        if params.precision_bits:
            import mpmath
            x = mpmath.mpc(x)
        return theta(x, p, params.trunc_eps)


def theta_multi(xs: Sequence, p, eps: float = DEFAULT_TRUNC_EPS):
    """Product of theta values over the argument list (empty product is 1)."""
    out = 1
    for x in xs:
        out = out * theta(x, p, eps)
    return out


def _theta_quotient(num_args, den_args, params: EllipticParams):
    p = _coerced(params)[3]
    den = theta_multi(den_args, p, params.trunc_eps)
    if abs(den) < params.min_denom:
        raise DegenerateParametersError(
            f"theta denominator magnitude {abs(den):.3e} below min_denom")
    return theta_multi(num_args, p, params.trunc_eps) / den


# ---------------------------------------------------------------------------
# Elliptic numbers and weights

def elliptic_number(n: int, params: EllipticParams):
    """[n]_{a,b;q,p}: four theta factors over four; [1] = 1, [0] = 0."""
    if n < 0:
        raise ValueError("elliptic number index must be >= 0")
    with _prec_ctx(params):
        a, b, q, p = _coerced(params)
        qn = q ** n
        return _theta_quotient(
            [qn, a * qn, b * q, a / b * q],
            [q, a * q, b * qn, a / b * qn],
            params)


def elliptic_number_base(n: int, base_exp: int, params: EllipticParams):
    """[n]_{a,b;q^base_exp,p}: the elliptic number in the rebased variable."""
    return elliptic_number(n, params.rebase(base_exp))


def weight_v(m: int, n: int, params: EllipticParams):
    """The addition-formula weight v_{a,b;q,p}(m, n); v(0, n) = 1."""
    with _prec_ctx(params):
        a, b, q, p = _coerced(params)
        ab = a / b
        return _theta_quotient(
            [a * q ** (2 * m + n), b, b * q ** n, ab * q ** n, ab],
            [a * q ** n, b * q ** m, b * q ** (m + n), ab * q ** m, ab * q ** (m + n)],
            params) * q ** m


@lru_cache(maxsize=8192)
def omega1(i: int, j: int, params: EllipticParams):
    """Weight of a regular domino: v_{a,b;q^{F_j},p}(F_i, F_{i-1})."""
    if i < 1 or j < 1:
        raise ValueError("omega1 needs i, j >= 1")
    return weight_v(fib(i), fib(i - 1), params.rebase(fib(j)))


@lru_cache(maxsize=8192)
def omega2(i: int, j: int, params: EllipticParams):
    """Weight of a special domino: v_{a,b;q,p}(F_{i+1} F_j, F_i F_{j-1}).

    j = 0 uses F_0 = 0 and F_{-1} = 1, giving v(0, F_i) = 1 exactly.
    """
    if i < 1 or j < 0:
        raise ValueError("omega2 needs i >= 1, j >= 0")
    return weight_v(fib(i + 1) * fib(j), fib(i) * fib(j - 1), params)


def elliptic_fib_factorial(n: int, params: EllipticParams):
    """prod_{k=1}^{n} [F_k]_{a,b;q,p}."""
    with _prec_ctx(params):
        out = 1
        for k in range(1, n + 1):
            out = out * elliptic_number(fib(k), params)
        return out


def elliptic_fibonomial(m: int, n: int, params: EllipticParams):
    """Elliptic Fibonomial via the factorial ratio."""
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    with _prec_ctx(params):
        num = elliptic_fib_factorial(m + n, params)
        den = elliptic_fib_factorial(m, params) * elliptic_fib_factorial(n, params)
        if abs(den) < params.min_denom:
            raise DegenerateParametersError("factorial denominator below min_denom")
        return num / den


def _recurrence_strip(params: EllipticParams, rule, index: int, length: int,
                      forced: bool):
    """qpoly._recurrence_strip with omega2(index, length) for the q-power
    of a forced column; exactly 1 for an empty strip, as _strip_sum gives."""
    if not length:
        return 1
    if forced:
        return (omega2(index, length, params)
                * elliptic_number_base(fib(length - 1), fib(index), params))
    return elliptic_number_base(fib(length + 1), fib(index), params)


def elliptic_fibonomial_recurrence(m: int, n: int, params: EllipticParams):
    """Elliptic Fibonomial via the two-term recurrence,

    G(m, n) = [F_{m+1}]_{q^{F_n}} G(m, n-1)
              + omega2(m, n) [F_{n-1}]_{q^{F_m}} G(m-1, n),

    with G(m, 0) = G(0, n) = 1: rect_transfer over the closed forms of the
    strips the last step fixes; independent of the ratio route.
    """
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    with _prec_ctx(params):
        return rect_transfer(m, n, partial(_recurrence_strip, params), 1)


def _tiles_weight(tiles, params: EllipticParams):
    """Product of omega1(i, j) over the (D, i, j) labels and omega2(i, j)
    over the (S, i, j) labels, in label order."""
    w = 1
    for kind, i, j in tiles:
        w = w * (omega2 if kind == SPECIAL else omega1)(i, j, params)
    return w


def elliptic_weight(t: PathDominoTiling | StaircaseTiling, params: EllipticParams):
    """Product of elliptic tile weights of a tiling of either model, over
    the domino labels of ``fibl.tilings.tiling_tiles``."""
    with _prec_ctx(params):
        return _tiles_weight(tiling_tiles(t), params)


def _strip_sum(params: EllipticParams, rule: Callable, index: int, length: int,
               forced: bool):
    """Sum of elliptic weights over one strip's tilings under the strip
    rule ``rule``, in tiling order; 0 when the strip has no tiling.  The
    strip sums the lattice transfers of ``fibl.tilings`` multiply."""
    total = 0
    for strip in _strip_choices(length, forced):
        total = total + _tiles_weight(rule(index, length, forced, strip), params)
    return total


# ---------------------------------------------------------------------------
# Checks

def theta_property_suite(params: EllipticParams, samples: int,
                         seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """Check the four basic theta identities at seeded random points:

    p = 0 reduction, inversion theta(1/x) = -theta(x)/x, quasi-periodicity
    theta(px) = -theta(x)/x, and the four-versus-four addition formula.
    Four reports per sample point; degenerate points are resampled.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    reports = []
    with _prec_ctx(params):
        for i in range(samples):
            attempt = 0
            while True:
                rng = random.Random(derive_seed(seed, i, attempt))
                x = _random_complex(rng, 0.4, 1.5)
                y = _random_complex(rng, 0.4, 1.5)
                u = _random_complex(rng, 0.4, 1.5)
                z = _random_complex(rng, 0.4, 1.5)
                p = _random_complex(rng, 0.05, 0.35)
                if params.precision_bits:
                    import mpmath
                    x, y, u, z, p = map(mpmath.mpc, (x, y, u, z, p))
                eps = params.trunc_eps
                batch = []
                inputs = {"x": x, "y": y, "u": u, "z": z, "p": p}
                batch.append(numeric_report(
                    "theta-zero-nome", inputs, theta(x, p * 0, eps), 1 - x,
                    params.eq_tol))
                tx = theta(x, p, eps)
                batch.append(numeric_report(
                    "theta-inversion", inputs, theta(1 / x, p, eps), -tx / x,
                    params.eq_tol))
                batch.append(numeric_report(
                    "theta-quasi-periodicity", inputs, theta(p * x, p, eps),
                    -tx / x, params.eq_tol))
                lhs = theta_multi([x * y, x / y, u * z, u / z], p, eps)
                rhs = (theta_multi([u * y, u / y, x * z, x / z], p, eps)
                       + (x / z) * theta_multi([z * y, z / y, u * x, u / x], p, eps))
                if max(abs(lhs), abs(rhs)) < params.min_denom:
                    attempt += 1
                    if attempt > MAX_RESAMPLES:
                        raise DegenerateParametersError(
                            f"resample budget exhausted at sample {i}")
                    continue
                batch.append(numeric_report(
                    "theta-addition", inputs, lhs, rhs, params.eq_tol))
                for rep in batch:
                    rep.seed = derive_seed(seed, i, attempt)
                    rep.resamples = attempt
                reports.extend(batch)
                break
    return reports


def elliptic_addition_check(m: int, n: int, params: EllipticParams) -> VerificationReport:
    """[m+n] = [m] + v(m, n) [n]."""
    with _prec_ctx(params):
        lhs = elliptic_number(m + n, params)
        rhs = elliptic_number(m, params) + weight_v(m, n, params) * elliptic_number(n, params)
    return numeric_report("elliptic-addition", {"m": m, "n": n}, lhs, rhs, params.eq_tol)


def fib_splitting_check(m: int, n: int, params: EllipticParams) -> VerificationReport:
    """[F_{m+n}] = [F_n][F_{m+1}]_{q^{F_n}} + omega2(m,n)[F_m][F_{n-1}]_{q^{F_m}}."""
    with _prec_ctx(params):
        lhs = elliptic_number(fib(m + n), params)
        rhs = (elliptic_number(fib(n), params)
               * elliptic_number_base(fib(m + 1), fib(n), params)
               + omega2(m, n, params) * elliptic_number(fib(m), params)
               * elliptic_number_base(fib(n - 1), fib(m), params))
    return numeric_report("elliptic-fib-splitting", {"m": m, "n": n}, lhs, rhs,
                          params.eq_tol)


def elliptic_theorem_check(m: int, n: int, params: EllipticParams) -> VerificationReport:
    """Factorial ratio vs recurrence vs tiling sum.

    The tiling sum is rect_transfer over the strips' elliptic weight sums.
    The report's lhs is the ratio and rhs the tiling sum; rel_diff is the
    worst pairwise disagreement among the three routes.
    """
    with _prec_ctx(params):
        ratio = elliptic_fibonomial(m, n, params)
        values = {"ratio": ratio,
                  "recurrence": elliptic_fibonomial_recurrence(m, n, params),
                  "tiling_sum": rect_transfer(m, n, partial(_strip_sum, params), 1)}
        worst = 0.0
        for u, v in combinations(values.values(), 2):
            scale = max(abs(u), abs(v))
            if scale:
                worst = max(worst, float(abs(u - v) / scale))
    rep = numeric_report("elliptic-fibonomial", {"m": m, "n": n}, ratio,
                         values["tiling_sum"], params.eq_tol)
    rep.rel_diff = worst
    rep.passed = worst <= params.eq_tol
    rep.notes["routes"] = sorted(values)
    return rep


def elliptic_strip_check(n: int, params: EllipticParams) -> VerificationReport:
    """Sum over (n-1)-strip tilings of prod omega1(i, 1) equals [F_n]."""
    if n < 1:
        raise ValueError("need n >= 1")
    with _prec_ctx(params):
        total = _strip_sum(params, _rect_strip_tiles, 1, n - 1, False)
        lhs = elliptic_number(fib(n), params)
    return numeric_report("elliptic-strip", {"n": n}, lhs, total, params.eq_tol)


def elliptic_spiral_check(m: int, params: EllipticParams) -> VerificationReport:
    """[F_{m+2}][F_{m+1}] = sum_k Omega_k^m [F_k]^2 with
    Omega_k^m = prod_{i=k}^{m} omega2(i, 2) and the square taken as
    [F_k] * [F_k]_{q^{F_2}} (F_2 = 1, so literally the square)."""
    if m < 1:
        raise ValueError("need m >= 1")
    with _prec_ctx(params):
        lhs = elliptic_number(fib(m + 2), params) * elliptic_number(fib(m + 1), params)
        rhs = 0
        for k in range(1, m + 2):
            big_omega = 1
            for i in range(k, m + 1):
                big_omega = big_omega * omega2(i, 2, params)
            sq = (elliptic_number(fib(k), params)
                  * elliptic_number_base(fib(k), fib(2), params))
            rhs = rhs + big_omega * sq
    return numeric_report("elliptic-spiral", {"m": m}, lhs, rhs, params.eq_tol)


def elliptic_convolution_check(m: int, n: int, params: EllipticParams) -> VerificationReport:
    """The convolution expansion over the last east step's height:

    [m over n] = sum_{j=0}^{n} (prod_{i<j} [F_{m+1}]_{q^{F_{n-i}}})
                 [F_{n-1-j}]_{q^{F_m}} omega2(m, n-j) [m-1 over n-j],

    with [F_0] = 0 killing j = n-1 and omega2(m, 0) = 1, [F_{-1}] = 1 at
    j = n.
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    with _prec_ctx(params):
        lhs = elliptic_fibonomial(m, n, params)
        rhs = 0
        prod = 1
        for j in range(n + 1):
            if j > 0:
                prod = prod * elliptic_number_base(fib(m + 1), fib(n - j + 1), params)
            term = (prod
                    * elliptic_number_base(fib(n - 1 - j), fib(m), params)
                    * omega2(m, n - j, params)
                    * elliptic_fibonomial(m - 1, n - j, params))
            rhs = rhs + term
    return numeric_report("elliptic-convolution", {"m": m, "n": n}, lhs, rhs,
                          params.eq_tol)


def elliptic_staircase_check(n: int, k: int, params: EllipticParams) -> VerificationReport:
    """Sum of elliptic weights over (n, k)-staircase tilings equals the
    elliptic Fibonomial with parts (n-k, k)."""
    with _prec_ctx(params):
        total = staircase_transfer(n, k, partial(_strip_sum, params), 1)
        lhs = elliptic_fibonomial(n - k, k, params)
    return numeric_report("elliptic-staircase", {"n": n, "k": k}, lhs, total,
                          params.eq_tol)


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
