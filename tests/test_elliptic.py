import cmath
import json
import math
import random
import re
import struct
import time
from functools import partial
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fibl import elliptic as ell
from fibl.errors import DegenerateParametersError
from fibl.extended import ExtComplex
from fibl.fib import fib
from fibl.qpoly import q_number
from fibl.report import numeric_report, report_json
from fibl.tilings import (DOMINO, MONOMINO, SPECIAL, PathDominoTiling,
                          catalan_partial_tilings, convolution_check, iter_rect_tilings,
                          iter_staircase_tilings, recurrence, recurrence_strip,
                          rect_path_profile, staircase_path_profile,
                          spiral_check, strip_sum, tile_exponent, tiling_sum, tiling_tiles)
from oracles import to_mpc

SEED = 0x5EED


def params_at(i, **kw):
    return ell.sample_params(ell.derive_seed(SEED, i), **kw)


def ring_at(i, **kw):
    return ell.EllipticRing(params_at(i, **kw))


def _multiplication_report(m, n, ring):
    """[m n] against [m] [n]_{q^m}, at the ring's precision and eq_tol."""
    lhs = ring.number(m * n)
    rhs = ring.number(m) * ring.number(n, m)
    return ring.report("multiplication", {"m": m, "n": n}, lhs, rhs)


def _theta_ratio(num, den, p):
    return ell.theta_multi(num, p.p, p.trunc_eps) / ell.theta_multi(den, p.p, p.trunc_eps)


def _number_by_its_formula(n, base, p):
    """[n]_{a,b;q^base,p} in the ring's order of operations: q^base first,
    then its n-th power, then four theta factors over four."""
    q = p.q ** base if base > 1 else p.q
    qn = q ** n
    return _theta_ratio([qn, p.a * qn, p.b * q, p.a / p.b * q],
                        [q, p.a * q, p.b * qn, p.a / p.b * qn], p)


def _v_by_its_formula(m, n, base, p):
    """v_{a,b;q^base,p}(m, n) in the ring's order of operations."""
    a, b = p.a, p.b
    q = p.q ** base if base > 1 else p.q
    ab = a / b
    return _theta_ratio([a * q ** (2 * m + n), b, b * q ** n, ab * q ** n, ab],
                        [a * q ** n, b * q ** m, b * q ** (m + n), ab * q ** m,
                         ab * q ** (m + n)], p) * q ** m


class TestTheta:
    def test_zero_nome_reduces_to_linear(self):
        for i in range(5):
            p = params_at(i)
            assert abs(ell.theta(p.a, 0) - (1 - p.a)) < 1e-14

    def test_vanishes_at_one(self):
        for i in range(3):
            p = params_at(i)
            assert abs(ell.theta(1, p.p)) == 0.0

    def test_inversion(self):
        for i in range(8):
            p = params_at(i)
            x = p.a
            lhs = ell.theta(1 / x, p.p)
            rhs = -ell.theta(x, p.p) / x
            assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_quasi_periodicity(self):
        for i in range(8):
            p = params_at(i)
            x = p.b
            lhs = ell.theta(p.p * x, p.p)
            rhs = -ell.theta(x, p.p) / x
            assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_multi(self):
        p = params_at(0)
        assert ell.theta_multi([], p.p) == 1
        assert ell.theta_multi([p.a], p.p) == ell.theta(p.a, p.p)
        x = p.a
        lhs = ell.theta_multi([x, 1 / x], p.p)
        rhs = -ell.theta(x, p.p) ** 2 / x
        assert abs(lhs - rhs) / abs(rhs) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ell.theta(0, 0.1)
        with pytest.raises(ValueError):
            ell.theta(0.5, 1.2)

    def test_truncation_soundness(self):
        # doubling the truncation depth (eps -> eps^2) moves nothing by
        # more than eq_tol / 10
        p = params_at(1)
        ring = ell.EllipticRing(p)
        deeper = ell.EllipticRing(p.replace(trunc_eps=p.trunc_eps ** 2))
        for n in (2, 5, 13):
            v1 = ring.number(n)
            v2 = deeper.number(n)
            assert abs(v1 - v2) / abs(v2) < p.eq_tol / 10
        for (m, n) in ((1, 2), (3, 5)):
            w1 = ring.v(m, n)
            w2 = deeper.v(m, n)
            assert abs(w1 - w2) / abs(w2) < p.eq_tol / 10


def _theta_reference(x, p, eps=ell.DEFAULT_TRUNC_EPS):
    """The factor-by-factor product loop that tests the kernel against,
    to the first J with |p|^J max(|x|, 1/|x|) < eps."""
    if x == 0:
        raise ValueError("theta argument must be nonzero")
    if abs(p) >= 1:
        raise ValueError("need |p| < 1")
    ax = abs(x)
    bound = ax if ax > 1 else 1 / ax
    out = 1
    pj = 1
    terms = 0
    while True:
        out = out * (1 - pj * x) * (1 - pj * p / x)
        pj = pj * p
        terms += 1
        if abs(pj) * bound < eps:
            return out
        if terms > ell._MAX_THETA_TERMS:
            raise ValueError("theta truncation did not converge; |p| too close to 1")


def _bits(z) -> bytes:
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def _polar(log10_mag, phase):
    return cmath.rect(10.0 ** log10_mag, phase)


def _guard(p) -> int:
    """The guard bits g = ceil(pi^2 / (2 ln 2 |ln |p||)) that the B-bit
    kernel documents: the triple product series cancels by at most
    g bits plus those of the distance to a zero."""
    return math.ceil(math.pi ** 2 / (2 * math.log(2) * -math.log(abs(complex(p)))))


def _series_reference(x, p, eps, bits):
    """theta(x; p) by the triple product series, at ``bits`` + g bits:
    the sum of t_n = (-1)^n p^(n(n-1)/2) x^n over the n with |t_n| at
    least eps 2^-g times the largest |t_n|, over (p; p)_inf, a product
    carried to the working precision.  |t_n| is log-concave in n, so the
    kept n are those around its top, 1/2 - log|x| / log|p|.

    Returns the list of values for every way of deciding the terms within
    1e-9 (in log) of the cut-off, where the kernel's float logarithms may
    fall either way: one value away from such ties."""
    g = _guard(p)
    with mpmath.workprec(bits + g):
        x, p = mpmath.mpc(x), mpmath.mpc(p)
        lx, lp = mpmath.log(abs(x)), mpmath.log(abs(p))

        def log_term(n):
            return n * (n - 1) / 2 * lp + n * lx
        top = int(mpmath.nint(0.5 - lx / lp))
        cut = max(map(log_term, (top - 1, top, top + 1))) + mpmath.log(eps) - g * mpmath.log(2)
        kept, ties = [], []
        for n, step in ((top, 1), (top - 1, -1)):
            while log_term(n) >= cut - 1e-9:
                (ties if abs(log_term(n) - cut) < 1e-9 else kept).append(n)
                n += step

        def term(n):
            return (-1) ** n * p ** (n * (n - 1) // 2) * x ** n
        euler, pj = mpmath.mpc(1), p
        while abs(pj) > mpmath.mpf(2) ** -(bits + g + 8):
            euler, pj = euler * (1 - pj), pj * p
        base = mpmath.fsum(map(term, kept))
        return [(base + mpmath.fsum(map(term, chosen))) / euler
                for r in range(len(ties) + 1) for chosen in combinations(ties, r)]


def _within(got, wants, bits) -> bool:
    """Whether got lies within 2^-(B-8) of one of the values ``wants``."""
    with mpmath.workprec(bits + 64):
        got = to_mpc(got)
        return any(abs(got - w) <= mpmath.mpf(2) ** -(bits - 8) * abs(w) for w in wants)


def _double_shape(x, p, eps=ell.DEFAULT_TRUNC_EPS):
    """(N, k, peak, clear) of the double-precision series at (x, p, eps),
    from 160-bit logarithms: N the terms of the deepest side, the m >= 0
    with |p|^(m(m-1)/2) >= eps 2^-g; k the steps y -> p y that bring
    x (or p/x when |x| <= |p|) into |y| <= 1; peak = |t_k / (p; p)_inf|,
    t_k the largest term; clear whether N is more than 1e-9 (in log)
    from the cut-off, where the kernel's float logarithms may fall
    either way."""
    g = _guard(p)
    with mpmath.workprec(160):
        x, p = mpmath.mpc(x), mpmath.mpc(p)
        lx, lp = mpmath.log(abs(x)), mpmath.log(abs(p))
        if lx <= lp:
            lx = lp - lx
        k = max(0, int(mpmath.ceil(lx / -lp)))
        cut = mpmath.log(eps) - g * mpmath.log(2)

        def log_row(m):
            return m * (m - 1) / 2 * lp
        n = 0
        while log_row(n) >= cut:
            n += 1
        euler, pj = mpmath.mpc(1), p
        while abs(pj) > mpmath.mpf(2) ** -180:
            euler, pj = euler * (1 - pj), pj * p
        peak = mpmath.exp(k * lx + log_row(k)) / abs(euler)
        return n, k, float(peak), min(abs(log_row(m) - cut) for m in (n - 1, n)) > 1e-9


def _double_bound(x, p, eps=ell.DEFAULT_TRUNC_EPS) -> float:
    """The double kernel's stated bound, 32 (N + k + 4) 2^-53 peak: its
    terms and |z| at most 1, each of its N Horner steps and k reduction
    steps adding at most (sqrt 5 + 1) 2^-53 of a side whose moduli sum to
    at most 2.6.  Relative to the value that is 2^g / (|1 - y| |1 - p/y|)
    times as much, by the guard bound."""
    n, k, peak, _ = _double_shape(x, p, eps)
    return 32 * (n + k + 4) * 2.0 ** -53 * peak


def _depth_is(x, p, eps, n) -> bool:
    """Whether ell.theta sums n terms a side at its deepest: in floats, over
    its nome's n - 1 rows T_1 .. T_{n-1}; in the Gaussian kernel, it raises
    with _MAX_THETA_TERMS = n - 1 and not with n."""
    rows = ell._double_nome(p, eps)[2]
    if rows is not None:
        return len(rows) == n - 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ell, "_MAX_THETA_TERMS", n - 1)
        try:
            ell.theta(x, p, eps)
            return False
        except ValueError as exc:
            assert "did not converge" in str(exc)
        mp.setattr(ell, "_MAX_THETA_TERMS", n)
        ell.theta(x, p, eps)
    return True


_phases = st.floats(0.0, 2 * math.pi)


class TestThetaKernel:
    """ell.theta against references.  In double precision: within the
    kernel's stated bound (``_double_bound``) of the triple product series
    carried by the same eps rule at 53 + 64 bits, with the same number of
    terms away from ties; past G0 guard bits, the 53-bit Gaussian kernel's
    value, rounded once.  At B bits: within 2^-(B-8) of the triple product series
    carried by the same eps rule at B + 64 bits (``_series_reference``),
    and where 2^-(B-8) is far above eps (B <= 128), within 2^-(B-8) of the
    factor-by-factor loop carried to eps at B + 64 bits as well.

    At B bits the references run at B + 64 bits on the same inputs: run at
    B bits, their own rounding drifts by up to ~1500 ulp at J ~ 1000
    terms, which would hide the kernel's error rather than measure it.
    """

    @given(lx=st.floats(-30, 30), ax=_phases, lp=st.floats(-6, math.log10(0.9)),
           ap=_phases, bits=st.sampled_from([None, 53, 128, 160]))
    @example(lx=0.0, ax=0.0, lp=-0.5, ap=1.0, bits=None)             # x = 1
    @example(lx=0.2, ax=math.pi, lp=-1.0, ap=0.3, bits=None)         # x < 0
    @example(lx=-29.0, ax=math.pi, lp=-0.1, ap=2.0, bits=160)
    @example(lx=30.0, ax=0.5, lp=-0.05, ap=0.0, bits=53)             # J ~ 1500
    @example(lx=-30.0, ax=2.0, lp=math.log10(0.9), ap=1.0, bits=128)
    @example(lx=30.0, ax=2.0, lp=math.log10(0.9), ap=1.0, bits=160)
    @example(lx=30.0, ax=1.0, lp=-6.0, ap=0.7, bits=128)
    @example(lx=12.0, ax=4.0, lp=-0.3, ap=5.0, bits=160)
    @example(lx=30.0, ax=1.0, lp=math.log10(0.9), ap=0.5, bits=None)
    @example(lx=0.0, ax=1.0, lp=-1.1, ap=0.0, bits=160)               # tie: J 41 vs 40
    @example(lx=-2.45703125, ax=1.0, lp=-2.45703125, ap=1.0, bits=None)  # x = p
    @settings(max_examples=150)
    def test_matches_reference(self, lx, ax, lp, ap, bits):
        x, p = _polar(lx, ax), _polar(lp, ap)
        if lx == 0.0 and ax == 0.0:
            x = 1
        elif ax == math.pi:
            x = complex(-abs(x), 0.0)
        if bits is None:
            eps = ell.DEFAULT_TRUNC_EPS
            got = ell.theta(x, p)
            n, k, peak, clear = _double_shape(x, p, eps)
            # past the double range the peak term overflows; a finite value
            # is within bound
            assert cmath.isfinite(got) or peak > 1e300
            if x == 1 or x == p:
                assert got == 0
            elif cmath.isfinite(got):
                wants = _series_reference(x, p, eps, 53 + 64)
                assert min(abs(got - w) for w in wants) <= _double_bound(x, p, eps)
                if abs(got) > 1e-300 and _guard(p) > ell._FLOAT_GUARD:
                    ext = ell.theta(ExtComplex(x, 53), ExtComplex(p, 53), eps)
                    assert _bits(got) == _bits(ext)
                if clear:
                    assert _depth_is(x, p, eps, n)
            return
        eps = ell.EXTENDED_TRUNC_EPS
        got = ell.theta(ExtComplex(x, bits), ExtComplex(p, bits), eps)
        assert type(got) is ExtComplex and got.bits == bits
        xm, pm = to_mpc(x), to_mpc(p)
        with mpmath.workprec(bits + 64):
            # well-conditioned points only: no factor 1 - p^j x or
            # 1 - p^(j+1)/x within 1e-3 of zero
            k = round(-lx / lp)
            for jj in {k - 1, k, k + 1, -k - 1, -k, -k + 1}:
                if jj >= 0:
                    assume(abs(1 - pm ** jj * xm) > 1e-3)
                    assume(abs(1 - pm ** (jj + 1) / xm) > 1e-3)
        assert _within(got, _series_reference(xm, pm, eps, bits + 64), bits)
        if bits <= 128:
            with mpmath.workprec(bits + 64):
                assert _within(got, [_theta_reference(xm, pm, eps)], bits)

    @pytest.mark.parametrize("bits", [53, 128, 160])
    def test_ext_seeded_points_match_reference(self, bits):
        """On seeded points, within 2^-(B-8) of the B + 64-bit references,
        as in test_matches_reference; exactly 1 - x at p = 0 and exactly 0
        at x = 1."""
        rng = random.Random(bits)
        points = [(1, 0.3 - 0.1j), (0.7 - 1.3j, 0), (1, 0)]
        points += [(_polar(rng.uniform(-20, 20), rng.uniform(0, 2 * math.pi)),
                    _polar(rng.uniform(-6, math.log10(0.9)), rng.uniform(0, 2 * math.pi)))
                   for _ in range(40)]
        eps = ell.EXTENDED_TRUNC_EPS
        for x, p in points:
            got = ell.theta(ExtComplex(x, bits), ExtComplex(p, bits), eps)
            if x == 1:
                assert got == 0
                continue
            if p == 0:
                with mpmath.workprec(bits):
                    assert to_mpc(got) == 1 - to_mpc(x)
                continue
            x, p = to_mpc(x), to_mpc(p)
            assert _within(got, _series_reference(x, p, eps, bits + 64), bits)
            if bits <= 128:
                with mpmath.workprec(bits + 64):
                    assert _within(got, [_theta_reference(x, p, eps)], bits)
        # a nome with B bits on either side of 2^-W
        tiny = ExtComplex(1 + 3j, bits) / 7 * 2.0 ** -(bits + 4)
        assert ell.theta(ExtComplex(1, bits), tiny, eps) == 0
        x = 0.7 - 1.3j
        assert _within(ell.theta(ExtComplex(x, bits), tiny, eps),
                       _series_reference(x, to_mpc(tiny), eps, bits + 64), bits)

    @pytest.mark.parametrize("bits", [None, 128])
    def test_zero_nome(self, bits):
        x, p = complex(0.7, -1.3), 0
        if bits is None:
            assert _bits(ell.theta(x, p)) == _bits(_theta_reference(x, p)) == _bits(1 - x)
            return
        x, p = ExtComplex(x, bits), ExtComplex(0, bits)
        before = ell._nome_table.cache_info()
        got = ell.theta(x, p, ell.EXTENDED_TRUNC_EPS)
        assert ell._nome_table.cache_info() == before      # no table at p = 0
        assert got == 1 - x and type(got) is ExtComplex
        assert got == _theta_reference(x, p, ell.EXTENDED_TRUNC_EPS)

    @pytest.mark.parametrize("bits", [53, 128, 160])
    def test_theta_at_one_is_exactly_zero(self, bits):
        """theta(1; p), and theta(p; p) as well, are exactly 0 at B bits,
        for nomes small and large, real and complex, and with an x or p
        that is not an ExtComplex."""
        for p in (ExtComplex(v, bits) for v in (0.3 - 0.1j, 0.0035 + 0.0002j, -0.9,
                                                1e-30 + 1e-31j, 0.6 + 0.6j)):
            for x, nome in ((ExtComplex(1, bits), p), (p, p), (1, p), (p, complex(p))):
                got = ell.theta(x, nome, ell.EXTENDED_TRUNC_EPS)
                assert got == 0 and type(got) is ExtComplex and got.bits == bits

    def test_nome_table_does_not_depend_on_history(self, monkeypatch):
        """One (x, p) gives the same bits with a cold nome table, a warm
        one, one first grown deeper by a call at a smaller eps, or at
        another x (far enough to need the reduction by p^k), and with the
        rows past a small row cap computed as they are read; the rows are
        the same whichever call grew them.  At eps = 1e-10 the truncation
        shows in the bits."""
        x, far, p = (ExtComplex(z, 128) for z in (0.7 - 1.3j, 3e12 - 1e12j, 0.2 + 0.25j))
        eps, deep = 1e-10, 1e-60
        width = 128 + 16
        key = ell._gaussian(p, width) + (width,)

        def run(*args):
            return [ell.theta(z, p, eps) for z in args]

        def rows_after(z, e):
            ell._nome_table.cache_clear()
            ell.theta(z, p, e)
            return list(ell._nome_table(*key))
        rows = rows_after(x, deep)
        assert rows_after(far, deep) == rows
        assert len(rows) > len(rows_after(x, eps)) + 3
        ell._nome_table.cache_clear()
        (cold_x,) = run(x)
        assert run(x) == [cold_x]
        ell._nome_table.cache_clear()
        (cold_far,) = run(far)
        assert run(x) == [cold_x]
        ell._nome_table.cache_clear()
        assert run(x, far, x) == [cold_x, cold_far, cold_x]
        ell._nome_table.cache_clear()
        ell.theta(far, p, deep)
        assert run(x, far) == [cold_x, cold_far]
        monkeypatch.setattr(ell, "_TABLE_ROWS", 3)
        ell._nome_table.cache_clear()
        assert run(x, far, x, far) == [cold_x, cold_far, cold_x, cold_far]
        assert ell._nome_table(*key) == rows[:3]
        assert ell.theta(x, p, ell.EXTENDED_TRUNC_EPS) != cold_x

    def test_nome_cache_is_bounded_and_shared(self):
        x, eps = ExtComplex(0.7 - 1.3j, 128), ell.EXTENDED_TRUNC_EPS
        ell._nome_table.cache_clear()
        size = ell._nome_table.cache_info().maxsize
        assert size is not None
        for i in range(size + 5):
            ell.theta(x, ExtComplex(complex(0.01 * (i + 1), 0.1), 128), eps)
        assert ell._nome_table.cache_info().currsize == size
        # a theta-suite sample makes 16 theta calls: 15 at p, and one at 0,
        # which needs no table
        ell._nome_table.cache_clear()
        rep = ell.theta_property_suite(1, precision_bits=128)[0]
        info = ell._nome_table.cache_info()
        assert rep.resamples == 0 and (info.misses, info.hits) == (1, 14)

    @pytest.mark.parametrize("x, p", [
        (0, 0.1), (0j, 0.1), (0.5, 1), (0.5, 1.2), (0.5, 1j), (0.5, -1.0),
        (0.5, 0.99999999999), (1e30, 1 - 1e-9)])
    @pytest.mark.parametrize("bits", [None, 128])
    def test_domain_and_convergence_errors(self, x, p, bits):
        if bits is None:
            with pytest.raises(ValueError) as want:
                _theta_reference(x, p)
            with pytest.raises(ValueError) as got:
                ell.theta(x, p)
            assert str(got.value) == str(want.value)
            return
        with pytest.raises(ValueError):
            ell.theta(ExtComplex(x, bits), ExtComplex(p, bits), ell.EXTENDED_TRUNC_EPS)

    @pytest.mark.parametrize("cap", [16, 17, 18])
    @pytest.mark.parametrize("bits", [None, 128])
    def test_term_cap_is_the_references(self, monkeypatch, cap, bits):
        """The cap counts the Gaussian kernel's series terms a side in both
        regimes: with p = 0.67 and eps 1e-17 a side at |z| = 1, the deepest
        one, keeps 17 terms above eps 2^-g, so the cap of 16 raises, at any
        x.  In double precision p = 0.67 is past G0 and runs the Gaussian
        kernel; p = 0.3 at eps 1e-62 keeps 17 terms as well, summed in
        floats over the nome's 16 rows, the 17th only by the guard's 2^-g,
        and takes no cap, as the float series never runs that deep."""
        monkeypatch.setattr(ell, "_MAX_THETA_TERMS", cap)
        cases = [(0.67, ell.DEFAULT_TRUNC_EPS)]
        if bits is None:
            cases.append((0.3, 1e-62))
            assert 0.3 ** (16 * 15 // 2) < 1e-62
        for p, eps in cases:
            tol = eps * 2.0 ** -_guard(p)
            assert [m for m in range(40) if p ** (m * (m - 1) // 2) >= tol] == list(range(17))
            floats = bits is None and _guard(p) <= ell._FLOAT_GUARD
            if floats:
                assert len(ell._double_nome(p, eps)[2]) == 16
            for x in (2.0, 0.7 + 0.7j, 3e12):
                args = (ExtComplex(x, bits), ExtComplex(p, bits)) if bits else (x, p)
                if cap == 16 and not floats:
                    with pytest.raises(ValueError, match="did not converge"):
                        ell.theta(*args, eps)
                    continue
                got, wants = ell.theta(*args, eps), _series_reference(x, p, eps, (bits or 53) + 64)
                if bits:
                    assert _within(got, wants, bits)
                else:
                    assert min(abs(got - w) for w in wants) <= _double_bound(x, p, eps)

    def test_work_cap_near_the_unit_circle(self):
        """The work cap (terms times W + g bits a side) lets |p| = 0.99
        evaluate in both regimes, to the 192-bit series, and makes
        |p| = 0.9999, whose sides would multiply 71,000-bit integers about
        31,600 times, raise at once."""
        x, near, far = 0.5 + 0.5j, 0.99, 0.9999
        eps = ell.EXTENDED_TRUNC_EPS
        (want,) = _series_reference(x, near, eps, 192)
        got = ell.theta(x, near)
        assert abs(got - want) <= 1e-12 * abs(want)
        got = ell.theta(ExtComplex(x, 128), ExtComplex(near, 128), eps)
        assert _within(got, [want], 128)
        for args in ((x, far, ell.DEFAULT_TRUNC_EPS),
                     (ExtComplex(x, 128), ExtComplex(far, 128), eps)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="did not converge"):
                ell.theta(*args)
            assert time.perf_counter() - start < 1

    @given(ly=st.floats(0.0, 1.0), ay=_phases, lp=st.floats(-6, math.log10(0.9)), ap=_phases)
    @example(ly=0.0, ay=0.3, lp=math.log10(0.9), ap=0.0)
    @example(ly=0.5, ay=math.pi, lp=math.log10(0.9), ap=0.0)
    @settings(max_examples=60, deadline=None)
    def test_guard_bounds_the_cancellation(self, ly, ay, lp, ap):
        """The bound behind the kernel's guard bits: over |p| < |y| <= 1,
        where every term of the series has modulus at most 1,
        |sum| = |theta(y; p) (p; p)_inf| >= |1 - y| |1 - p/y| 2^-g."""
        with mpmath.workprec(200):
            p = mpmath.mpc(_polar(lp, ap))
            y = mpmath.mpc(cmath.rect(abs(complex(p)) ** ly, ay))
            # a 200-bit sum resolves the bound only away from the zeros
            assume(abs(y) > abs(p) and min(abs(1 - y), abs(1 - p / y)) > 1e-9)
            total = _series_reference(y, p, 1e-60, 200)[0]
            euler, pj = mpmath.mpc(1), p
            while abs(pj) > mpmath.mpf(2) ** -220:
                euler, pj = euler * (1 - pj), pj * p
            bound = abs(1 - y) * abs(1 - p / y) * mpmath.mpf(2) ** -_guard(p)
            assert abs(total * euler) >= bound


class TestThetaDoubleKernel:
    """The double-precision regime: the series in complex floats at
    g <= G0, with the rows and 1/(p; p)_inf from the nome's cached entry,
    and the 53-bit Gaussian kernel above."""

    def test_agrees_with_the_ext_kernel(self):
        """Suite-shaped points (x a product or quotient of two sampled
        arguments), against the Gaussian kernel at 200 bits."""
        rng = random.Random(22)
        worst = 0.0
        for i in range(1000):
            u, v = (ell._random_complex(rng, 0.4, 1.5) for _ in range(2))
            x = u * v if i % 2 else u / v
            p = ell._random_complex(rng, 0.05, 0.35)
            want = ell.theta(ExtComplex(x, 200), ExtComplex(p, 200), 1e-60)
            worst = max(worst, float(abs(ell.theta(x, p) - want) / abs(want)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("p", [0.3 - 0.1j, -0.2j, 0.25, 0.0, complex(0.3, -0.0)])
    def test_exact_at_one_and_at_zero_nome(self, p):
        assert ell.theta(1, p) == 0
        assert ell.theta(1.0, p) == 0 and ell.theta(1 + 0j, p) == 0
        for x in (0.7 - 1.3j, 2, -0.5, 1e-3 + 4j):
            assert ell.theta(x, 0) == 1 - x
            assert ell.theta(x, 0.0) == ell.theta(x, 0j) == 1 - x

    def test_int_and_float_arguments(self):
        for x, p in ((2, 0), (3, 0.1), (0.5, 0.2), (-0.75, -0.3), (2, 0.1j), (3, 0.9),
                     (-0.75, -0.6)):
            got = ell.theta(x, p)
            assert _bits(got) == _bits(ell.theta(complex(x), complex(p)))
            if not p:
                assert got == 1 - x
            else:
                wants = _series_reference(x, p, ell.DEFAULT_TRUNC_EPS, 53 + 64)
                assert min(abs(got - w) for w in wants) <= _double_bound(x, p)
            if not isinstance(p, complex):
                assert got.imag == 0

    def test_float_route_covers_the_sampled_nomes(self):
        """g <= G0 at |p| = 0.35, the largest nome sample_params and the
        theta suite draw, so their double theta is summed in floats."""
        assert ell._series_guard(math.log(0.35)) == 7 <= ell._FLOAT_GUARD
        assert ell._double_nome(cmath.rect(0.35, 2.0), ell.DEFAULT_TRUNC_EPS)[2] is not None
        assert ell._series_guard(math.log(0.37)) > ell._FLOAT_GUARD

    def test_depth_past_the_row_cap(self, monkeypatch):
        """|p| = 0.97 has g = 234 guard bits, past G0: the value is the
        53-bit Gaussian kernel's, rounded once, within 2^-45 of the series
        reference, and the same with the kernel's nome table cut to 3
        rows, the rest computed as they are read."""
        x, p, eps = 0.5 + 0.5j, cmath.rect(0.97, 0.4), ell.DEFAULT_TRUNC_EPS
        assert _guard(p) == 234
        got = ell.theta(x, p)
        assert _bits(got) == _bits(ell.theta(ExtComplex(x, 53), ExtComplex(p, 53), eps))
        assert _within(got, _series_reference(x, p, eps, 53 + 64), 53)
        monkeypatch.setattr(ell, "_TABLE_ROWS", 3)
        ell._nome_table.cache_clear()
        assert _bits(ell.theta(x, p)) == _bits(got)
        key = ell._gaussian(p, ell._DOUBLE_WIDTH) + (ell._DOUBLE_WIDTH,)
        assert len(ell._nome_table(*key)) == 3

    @pytest.mark.parametrize("variants", [
        (complex(0.2, 0.25),),
        (complex(0.3, 0.0), complex(0.3, -0.0), 0.3),
        (complex(-0.0, 0.25), complex(0.0, 0.25)),
        (complex(-0.2, -0.0), complex(-0.2, 0.0), -0.2)])
    def test_rows_do_not_depend_on_history(self, variants):
        """One (x, p) gives the same bits with a cold nome cache, a warm
        one, one whose entry another x or another key of the same nome
        made (a zero of either sign, an int, float or complex type), and
        next to an entry at another eps; the entry is the same whichever
        key made it.  At eps = 1e-10 the truncation shows in the bits."""
        x, far, eps = complex(0.7, -1.3), complex(3e12, -1e12), 1e-10

        def run(p, *args):      # real arguments show the sign of a zero
            return [_bits(ell.theta(w, p, eps)) for z in args for w in (z, z.real)]

        ell._double_nome.cache_clear()
        near = run(variants[0], x)
        ell._double_nome.cache_clear()
        cold = run(variants[0], far) + near
        assert run(variants[0], x) == near
        entries = []
        for first in variants:
            ell._double_nome.cache_clear()
            run(first, far)
            ell.theta(x, first, ell.DEFAULT_TRUNC_EPS)
            assert [run(p, far, x) for p in variants] == [cold] * len(variants)
            entry = ell._double_nome(variants[0], eps)
            entries.append((entry[0], entry[2], entry[3]))
        assert entries == [entries[0]] * len(variants)
        assert ell._double_nome.cache_info().currsize == 2
        assert ell.theta(x, variants[0]) != ell.theta(x, variants[0], eps)


def _sides(report: dict) -> list:
    return [complex(report[s]["re"], report[s]["im"]) for s in ("lhs", "rhs")]


def test_double_suite_agrees_with_the_references(capsys, monkeypatch):
    """The double suite with the kernel and with the factor-by-factor
    loop: the same reports, inputs and verdicts.  The left sides, theta
    products, differ only in their last bits; a right side may hold a
    cancelling sum, so the two differ by at most the two runs' distances
    from their left sides, plus the same last bits."""
    from fibl.cli import main
    argv = ["verify", "theta", "--samples", "50", "--format", "json"]
    assert main(argv) == 0
    kernel = json.loads(capsys.readouterr().out)["reports"]
    monkeypatch.setattr(ell, "theta", _theta_reference)
    assert main(argv) == 0
    loop = json.loads(capsys.readouterr().out)["reports"]
    assert len(kernel) == len(loop) == 200
    for got, want in zip(kernel, loop):
        for key in ("identity", "inputs", "passed", "seed", "resamples"):
            assert got[key] == want[key]
        (gl, gr), (wl, wr) = _sides(got), _sides(want)
        assert abs(gl - wl) <= 1e-13 * abs(wl)
        assert abs(gr - wr) <= got["abs_diff"] + want["abs_diff"] + 1e-13 * abs(wr)


class TestThetaSuite:
    def test_twenty_samples_make_eighty_reports(self):
        reports = ell.theta_property_suite(20, 1)
        assert len(reports) == 80
        assert all(r.passed for r in reports)

    def test_reports_carry_seed_and_tolerance(self):
        reports = ell.theta_property_suite(3, 2)
        assert all(r.seed is not None for r in reports)
        assert all(r.tolerance == ell.tolerances(None)[1] for r in reports)

    def test_extended_precision(self):
        reports = ell.theta_property_suite(10, 1, precision_bits=128)
        assert len(reports) == 40
        assert all(r.passed for r in reports)
        assert max(r.rel_diff for r in reports) <= 1e-20

    @pytest.mark.parametrize("bits", [None, 128])
    def test_resample_exhaustion(self, monkeypatch, bits):
        """Points whose addition sides are all under min_denom are redrawn
        MAX_RESAMPLES times, then the suite gives up, as the ring checks do."""
        draws = []
        monkeypatch.setattr(ell, "DEFAULT_MIN_DENOM", math.inf)
        monkeypatch.setattr(ell, "derive_seed", lambda *args: draws.append(args) or 0)
        with pytest.raises(DegenerateParametersError,
                           match=r"^resample budget \(100\) exhausted at sample 0$"):
            ell.theta_property_suite(2, 5, precision_bits=bits)
        assert draws == [(5, 0, attempt) for attempt in range(101)]


class TestTolerancePolicy:
    @pytest.mark.parametrize("bits, want", [(None, (1e-17, 1e-7, 1e-9)),
                                            (53, (1e-44, 1e-20, 1e-9)),
                                            (128, (1e-44, 1e-20, 1e-9))])
    def test_defaults_and_override(self, bits, want):
        assert ell.tolerances(bits) == want
        assert ell.tolerances(bits, 1e-3) == (want[0], 1e-3, want[2])

    @pytest.mark.parametrize("bits", [None, 128])
    def test_sampled_points_and_theta_suite_read_it(self, monkeypatch, bits):
        asked = []

        def policy(precision_bits, eq_tol=None):
            asked.append((precision_bits, eq_tol))
            return 1e-30, 0.25, 1e-6

        monkeypatch.setattr(ell, "tolerances", policy)
        p = ell.sample_params(1, precision_bits=bits, eq_tol=0.5)
        assert (p.trunc_eps, p.eq_tol, p.min_denom) == (1e-30, 0.25, 1e-6)
        assert {r.tolerance for r in ell.theta_property_suite(2, precision_bits=bits)} == {0.25}
        assert asked == [(bits, 0.5), (bits, None)]


class TestEllipticNumber:
    def test_one_is_one(self):
        for i in range(6):
            assert abs(ring_at(i).number(1) - 1) < 1e-12

    def test_zero_is_zero(self):
        for i in range(3):
            assert abs(ring_at(i).number(0)) < 1e-12

    def test_base_one_is_plain(self):
        ring = ring_at(0)
        assert ring.number(7, 1) == ring.number(7)

    def test_multiplicative_base_identity(self):
        # [6] = [2] * [3]_{q^2}
        for i in range(6):
            ring = ring_at(i)
            lhs = ring.number(6)
            rhs = ring.number(2) * ring.number(3, 2)
            assert abs(lhs - rhs) / abs(lhs) < ring.params.eq_tol

    def test_fib_indexed_value_finite(self):
        v = ring_at(2).number(fib(4), fib(3))
        assert cmath.isfinite(complex(v))

    def test_degenerate_guard(self):
        ring = ell.EllipticRing(params_at(0).replace(min_denom=1e12))
        with pytest.raises(DegenerateParametersError):
            ring.number(5)

    def test_degenerate_guard_at_extended_precision(self):
        """The guard's message formats a B-bit magnitude as a float."""
        ring = ell.EllipticRing(params_at(0, precision_bits=128).replace(min_denom=1e12))
        with pytest.raises(DegenerateParametersError, match="below min_denom"):
            ring.number(5)

    @pytest.mark.parametrize("bits", [None, 128])
    def test_cached_value_is_the_computed_one(self, bits):
        """A value read twice is its first computation, and that is the
        formula's value bit for bit, at every base."""
        p = params_at(3, precision_bits=bits)
        ring = ell.EllipticRing(p)
        for n in (0, 1, 2, 5, 13):
            for base in (1, 2, 3, 5):
                first = ring.number(n, base)
                assert ring.number(n, base) is first
                want = _number_by_its_formula(n, base, p)
                assert first == want and type(first) is type(want), (n, base)

    def test_degenerate_point_raises_on_every_call(self):
        ring = ell.EllipticRing(params_at(0).replace(min_denom=1e12))
        for _ in range(2):
            with pytest.raises(DegenerateParametersError):
                ring.number(5)
            with pytest.raises(DegenerateParametersError):
                ring.fibonomial(3, 2)
        assert ring._numbers == {} and ring._factorials == [1]

    def test_factorials_are_the_left_to_right_products(self):
        ring = ring_at(1)
        top = ring.factorial(8)
        for n in range(0, 9):
            want = 1
            for k in range(1, n + 1):
                want = want * ring.number(fib(k))
            assert ring.factorial(n) == want, n
        assert ring.factorial(8) is top


class TestWeightV:
    @pytest.mark.parametrize("bits", [None, 128])
    def test_cached_value_is_the_computed_one(self, bits):
        p = params_at(3, precision_bits=bits)
        ring = ell.EllipticRing(p)
        for m, n in ((0, 1), (1, 2), (3, 5), (8, 5)):
            for base in (1, 2, 3):
                first = ring.v(m, n, base)
                assert ring.v(m, n, base) is first
                want = _v_by_its_formula(m, n, base, p)
                assert first == want and type(first) is type(want), (m, n, base)

    def test_degenerate_point_raises_on_every_call(self):
        ring = ell.EllipticRing(params_at(0).replace(min_denom=1e12))
        for _ in range(2):
            with pytest.raises(DegenerateParametersError):
                ring.v(2, 3)
            with pytest.raises(DegenerateParametersError):
                ring.omega1(2, 3)
        assert ring._v == {} and ring._omega1 == {}

    def test_v_zero_is_one(self):
        for i in range(4):
            ring = ring_at(i)
            for n in (1, 3, 8):
                assert abs(ring.v(0, n) - 1) < 1e-10

    def test_addition_identity_grid(self):
        for i in range(3):
            ring = ring_at(i)
            for m in range(1, 11):
                for n in range(1, 11):
                    assert ell.elliptic_addition_check(m, n, ring).passed

    def test_multiplication_identity_grid(self):
        for i in range(3):
            ring = ring_at(i)
            for m in range(1, 9):
                for n in range(1, 9):
                    assert _multiplication_report(m, n, ring).passed


class TestOmega:
    def test_omega2_at_zero_column(self):
        for i in range(4):
            ring = ring_at(i)
            for m in range(1, 7):
                assert abs(ring.omega2(m, 0) - 1) < 1e-10

    def test_omega2_1j_equals_omega1_j1(self):
        for i in range(3):
            ring = ring_at(i)
            for j in range(1, 7):
                w2 = ring.omega2(1, j)
                w1 = ring.omega1(j, 1)
                assert abs(w2 - w1) / abs(w1) < ring.params.eq_tol


def _reference_weight_rect(t, ring):
    """The rectangle model's elliptic weight by its own row and column
    walk: a horizontal domino ending at (i, r) weighs omega1(i, r), a
    vertical one with top cell (c, j) the transposed omega1(j, c), the
    special one omega2(c, j)."""
    _, col_height = rect_path_profile(t.path, t.m, t.n)
    w = 1
    for r in range(1, t.n + 1):
        i = 0
        for tile in t.rows[r - 1]:
            if tile == MONOMINO:
                i += 1
            else:
                i += 2
                w = w * ring.omega1(i, r)
    for c in range(1, t.m + 1):
        j = col_height[c - 1]
        for tile in t.cols[c - 1]:
            if tile == SPECIAL:
                w = w * ring.omega2(c, j)
                j -= 2
            elif tile == DOMINO:
                w = w * ring.omega1(j, c)
                j -= 2
            else:
                j -= 1
    return w


def _reference_weight_staircase(t, ring):
    """The staircase model's elliptic weight from per-domino floor and
    height: omega1(floor, height), and omega2 at the transposed
    (height, floor) for the special domino."""
    xs, forced = staircase_path_profile(t.path, t.n, t.k)
    w = 1
    for r, (x, f, strip) in enumerate(zip(xs, forced, t.rows), start=1):
        row_len = t.n - r
        length = row_len - x if f else x
        height = 1 + row_len - length
        done = 0
        for tile in strip:
            if tile == MONOMINO:
                done += 1
                continue
            floor = length - done if f else done + 2
            if tile == SPECIAL:
                w = w * ring.omega2(height, floor)
            else:
                w = w * ring.omega1(floor, height)
            done += 2
    return w


def _small_tilings():
    """Every rectangle tiling with m + n <= 6, every staircase tiling with
    n <= 7 and the Catalan partial tilings of size 6."""
    for m in range(0, 7):
        for n in range(0, 7 - m):
            yield from iter_rect_tilings(m, n)
    for n in range(0, 8):
        for k in range(0, n + 1):
            yield from iter_staircase_tilings(n, k)
    yield from catalan_partial_tilings(6)


class TestTileLabels:
    """Both weight layers read one (kind, i, j) label per domino."""

    def test_tile_exponent_is_the_q_limit_of_its_omega(self):
        labels = {label for t in _small_tilings() for label in tiling_tiles(t)}
        assert {kind for kind, _, _ in labels} == {DOMINO, SPECIAL}
        for kind, i, j in labels:
            tag = ("omega2" if kind == SPECIAL else "omega1", i, j)
            assert ell.limit_chain(tag, 2) == 2 ** tile_exponent(kind, i, j), (kind, i, j)

    @pytest.mark.parametrize("i", [0, 3])
    def test_elliptic_weight_is_the_references_bit_for_bit(self, i):
        ring = ring_at(i)
        for t in _small_tilings():
            ref = (_reference_weight_rect if isinstance(t, PathDominoTiling)
                   else _reference_weight_staircase)(t, ring)
            assert ell.elliptic_weight(t, ring) == ref, t


class TestFibSplitting:
    def test_grid(self):
        for i in range(3):
            ring = ring_at(i)
            for m in range(1, 7):
                for n in range(1, 7):
                    assert ell.fib_splitting_check(m, n, ring).passed


class TestFibonomialRoutes:
    def test_1_1_both_sides_one(self):
        rep = ell.elliptic_theorem_check(1, 1, ring_at(0))
        assert rep.passed
        assert abs(rep.lhs - 1) < 1e-10

    def test_enumeration_route_small(self):
        for i in range(3):
            ring = ring_at(i)
            for (m, n) in ((2, 2), (3, 2), (3, 3)):
                rep = ell.elliptic_theorem_check(m, n, ring)
                assert "tiling_sum" in rep.notes["routes"]
                assert rep.passed

    def test_all_routes_at_large_sizes(self):
        # (6, 6) has 27,261,234 tilings; the transfer lists none of them
        ring = ring_at(1)
        for m, n in ((5, 5), (6, 6)):
            rep = ell.elliptic_theorem_check(m, n, ring)
            assert rep.notes["routes"] == ["ratio", "recurrence", "tiling_sum"], (m, n)
            assert rep.passed, (m, n)

    def test_all_monomino_weight_is_one(self):
        t = next(iter_rect_tilings(3, 0))
        assert ell.elliptic_weight(t, ring_at(0)) == 1


class TestStripSpiral:
    def test_strip_small_cases_exact(self):
        ring = ring_at(0)
        for n in (1, 2):
            rep = ell.elliptic_strip_check(n, ring)
            assert rep.passed
            assert abs(rep.lhs - 1) < 1e-12

    def test_strip_to_eight(self):
        for i in range(3):
            ring = ring_at(i)
            for n in range(1, 9):
                assert ell.elliptic_strip_check(n, ring).passed

    def test_spiral(self):
        for i in range(3):
            ring = ring_at(i)
            for m in range(1, 6):
                assert spiral_check(ring, m).passed


class TestConvolution:
    def test_cases(self):
        for i in range(3):
            ring = ring_at(i)
            for (m, n) in ((1, 1), (2, 3), (3, 3), (4, 2)):
                assert convolution_check(ring, m, n).passed

    def test_vanishing_summand(self):
        # the j = n-1 term carries [F_0] = 0
        assert abs(ring_at(0).number(fib(0))) < 1e-14


class TestStaircase:
    def test_staircase_sum_grid(self):
        for i in range(2):
            ring = ring_at(i)
            for n in range(1, 6):
                for k in range(0, n + 1):
                    assert ell.elliptic_staircase_check(n, k, ring).passed

    def test_staircase_4_2_matches_rect_2_2(self):
        ring = ring_at(4)
        srep = ell.elliptic_staircase_check(4, 2, ring)
        rrep = ell.elliptic_theorem_check(2, 2, ring)
        assert srep.passed and rrep.passed
        assert abs(srep.lhs - rrep.lhs) / abs(rrep.lhs) < 1e-12


class TestStripLemma:
    """Each rectangle strip's elliptic weight sum is the closed form that
    recurrence multiplies over the elliptic ring, and an empty strip's is
    exactly 1 on both sides."""

    @pytest.mark.parametrize("bits", [None, 128])
    def test_strip_sums_are_the_closed_forms(self, bits):
        ring = ring_at(0, precision_bits=bits)
        for index in range(1, 9):
            for length in range(0, 9):
                for forced in (False, True):
                    case = (index, length, forced)
                    got = strip_sum(ring, *case)
                    want = recurrence_strip(ring, *case)
                    assert ring.report("strip", {}, got, want).passed, case
                    if not length:
                        assert got == want == 1, case


class TestEllipticTransfer:
    """The lattice transfer over elliptic strip sums, at rectangle point
    (m, n) and at staircase (n, k)'s point (k, n - k), against the sum of
    elliptic_weight over the enumerated tilings.  The two routes multiply
    and add in different orders, so they agree to within rounding: at most
    2^6 units of the last place of Σ_t |w(t)| (measured: under one)."""

    @pytest.mark.parametrize("bits", [None, 128])
    def test_matches_enumeration(self, bits):
        for i in range(2):
            ring = ring_at(i, precision_bits=bits)
            unit = 2.0 ** -(bits or 53)
            cases = [(tiling_sum(ring, m, n), iter_rect_tilings(m, n), (m, n))
                     for m in range(0, 5) for n in range(0, 5)]
            cases += [(tiling_sum(ring, k, n - k), iter_staircase_tilings(n, k),
                       (n, k)) for n in range(0, 7) for k in range(0, n + 1)]
            for got, tilings, size in cases:
                weights = [ell.elliptic_weight(t, ring) for t in tilings]
                want = 0
                for w in weights:
                    want = want + w
                bound = 2 ** 6 * unit * sum(abs(w) for w in weights)
                assert abs(got - want) <= bound, size

    @pytest.mark.parametrize("bits", [None, 128])
    def test_shared_lattices_hold_each_points_own_value(self, bits):
        """A point read from a lattice that a larger target filled is the
        value of a lattice of its own, bit for bit, on both lattices."""
        shared = ring_at(1, precision_bits=bits)
        tiling_sum(shared, 5, 5)
        recurrence(shared, 5, 5)
        for m in range(0, 6):
            for n in range(0, 6):
                alone = ring_at(1, precision_bits=bits)
                assert tiling_sum(shared, m, n) == tiling_sum(alone, m, n), (m, n)
                assert shared.recurrence_lattice[m, n] == recurrence(alone, m, n), (m, n)


class _NanRecurrenceRing(ell.EllipticRing):
    """A ring whose products by an elliptic number, which of the three
    routes only the recurrence takes, are NaN."""

    def times_number(self, v, n, base):
        return complex(math.nan, math.nan)


class TestNonFiniteSides:
    @pytest.mark.xfail(strict=True, reason=(
        "numeric_report gives rel_diff 0.0 when lhs is NaN: max(nan, x) is NaN "
        "and fails scale > 0.  Mending it alone fails elliptic checks whose "
        "theta values overflow to NaN, so it waits for a theta that does not"))
    def test_nan_side_fails(self):
        nan = complex(math.nan, math.nan)
        for lhs, rhs in ((nan, 1.0), (nan, nan)):
            assert not numeric_report("nan-side", {}, lhs, rhs, 1e-7).passed, (lhs, rhs)

    @pytest.mark.xfail(strict=True, reason=(
        "elliptic_theorem_check's max(worst, nan) keeps worst, so a NaN route "
        "drops out of rel_diff; it is mended with numeric_report's NaN side"))
    def test_nan_route_fails_the_theorem_check(self):
        ring = _NanRecurrenceRing(params_at(0))
        assert cmath.isnan(recurrence(ring, 2, 2))
        assert cmath.isfinite(ring.fibonomial(2, 2)) and cmath.isfinite(tiling_sum(ring, 2, 2))
        assert not ell.elliptic_theorem_check(2, 2, ring).passed


class TestLimitChain:
    def test_number_matches_q_analog_exactly(self):
        q = Fraction(7, 10)
        for n in range(0, 31):
            assert ell.limit_chain(("number", n), q) == q_number(n).evaluate(q)

    def test_number_float_example(self):
        got = ell.limit_chain(("number", 5), 0.7)
        assert abs(got - (1 - 0.7 ** 5) / (1 - 0.7)) < 1e-14

    def test_weight_v_degenerates_to_power(self):
        q = Fraction(1, 2)
        for m in range(0, 7):
            for n in range(0, 7):
                assert ell.limit_chain(("v", m, n), q) == q ** m

    def test_omegas_degenerate_to_tile_weights(self):
        q = Fraction(2, 3)
        for i in range(1, 6):
            for j in range(1, 6):
                assert ell.limit_chain(("omega1", i, j), q) == q ** (fib(i) * fib(j))
                assert ell.limit_chain(("omega2", i, j), q) == q ** (fib(i + 1) * fib(j))

    def test_trivial_number(self):
        assert ell.limit_chain(("number", 1), Fraction(3, 7)) == 1

    def test_root_of_unity_guard(self):
        with pytest.raises(DegenerateParametersError):
            ell.limit_chain(("number", 5), 1)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            ell.limit_chain(("mystery", 1), Fraction(1, 2))


class TestSampling:
    def test_parameter_ranges(self):
        for i in range(20):
            p = params_at(i)
            assert 0.4 <= abs(p.q) <= 0.9
            assert 0.3 <= abs(p.a) <= 1.5
            assert 0.3 <= abs(p.b) <= 1.5
            assert 0.05 <= abs(p.p) <= 0.35

    def test_determinism(self):
        assert params_at(3) == params_at(3)
        assert params_at(3) != params_at(4)

    def test_resample_exhaustion(self):
        def always_degenerate(ring):
            raise DegenerateParametersError("forced")

        with pytest.raises(DegenerateParametersError,
                           match=r"^resample budget \(100\) exhausted at sample 0$"):
            ell.run_sampled_checks(always_degenerate, SEED, 1)

    def test_resample_exhaustion_at_extended_precision(self, monkeypatch):
        monkeypatch.setattr(ell, "DEFAULT_MIN_DENOM", 1e12)
        with pytest.raises(DegenerateParametersError, match="resample budget"):
            ell.run_sampled_checks(partial(ell.elliptic_addition_check, 2, 3), SEED, 1,
                                   precision_bits=128)

    def test_resample_count_reported(self):
        calls = {"n": 0}

        def flaky(ring):
            calls["n"] += 1
            if calls["n"] < 3:
                raise DegenerateParametersError("forced")
            return ell.elliptic_strip_check(2, ring)

        reports = ell.run_sampled_checks(flaky, SEED, 1)
        assert reports[0].resamples == 2

    def test_checks_at_one_point_share_its_ring(self):
        rings = {}
        first = ell.run_sampled_checks(partial(ell.elliptic_theorem_check, 3, 3), SEED, 2,
                                       rings=rings)
        assert sorted(rings) == sorted(r.seed for r in first)
        kept = dict(rings)
        again = ell.run_sampled_checks(partial(ell.elliptic_staircase_check, 6, 3), SEED, 2,
                                       rings=rings)
        assert rings == kept                # the staircase point (3, 3) read the same rings
        for a, b in zip(first, again):
            assert a.seed == b.seed and a.lhs == b.lhs and a.rhs == b.rhs

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ell.EllipticParams(a=1, b=1, q=0.5, p=1.5)
        with pytest.raises(ValueError):
            ell.EllipticParams(a=0, b=1, q=0.5, p=0.1)

    @pytest.mark.parametrize("field, value", [
        ("a", complex(math.nan, 0.0)), ("b", complex(0.3, math.nan)), ("q", math.inf),
        ("p", complex(0.0, -math.inf)), ("q", mpmath.mpc(math.inf, 0.0))])
    @pytest.mark.parametrize("bits", [None, 128])
    def test_non_finite_params_rejected(self, field, value, bits):
        base = params_at(0, precision_bits=bits)
        with pytest.raises(ValueError, match="^a, b, q, p must be finite$"):
            base.replace(**{field: value})
        fields = {"a": 0.5, "b": 0.7j, "q": 0.6, "p": 0.1, field: value}
        with pytest.raises(ValueError, match="^a, b, q, p must be finite$"):
            ell.EllipticParams(**fields, precision_bits=bits)


class TestParamsReplace:
    @pytest.mark.parametrize("bits", [None, 128])
    def test_left_out_tolerances_are_the_precisions(self, bits):
        policy = ell.tolerances(bits)
        assert policy[:2] == ((1e-44, 1e-20) if bits else (1e-17, 1e-7))
        p = ell.EllipticParams(0.5, 0.7, 0.6, 0.1, precision_bits=bits)
        assert p[4:7] == policy
        assert p.replace(a=0.3)[4:7] == policy
        given = ell.EllipticParams(0.5, 0.7, 0.6, 0.1, eq_tol=1e-12, precision_bits=bits)
        assert given[4:7] == (policy[0], 1e-12, policy[2])
        assert given.replace(q=0.4)[4:7] == (policy[0], 1e-12, policy[2])
        other = 128 if bits is None else None       # replace keeps the stored tolerances ...
        assert p.replace(precision_bits=other)[4:7] == policy
        # ... and None takes the new precision's
        assert (p.replace(precision_bits=other, trunc_eps=None, eq_tol=None, min_denom=None)[4:7]
                == ell.tolerances(other))

    def test_replace_converts_to_the_parameters_context(self):
        p = params_at(0, precision_bits=128)
        r = p.replace(q=0.5 + 0.1j, p=0.25)
        for value in r[:4]:
            assert type(value) is ExtComplex and value.bits == 128
        assert (complex(r.q), complex(r.p)) == (0.5 + 0.1j, 0.25)
        assert (r.a, r.b, r.eq_tol, r.precision_bits) == (p.a, p.b, p.eq_tol, 128)
        assert type(r) is ell.EllipticParams

    def test_replace_in_double_precision_keeps_plain_numbers(self):
        r = params_at(0).replace(q=0.5 + 0.1j)
        assert r.q == 0.5 + 0.1j and type(r.q) is complex

    @pytest.mark.parametrize("bits", [None, 128])
    @pytest.mark.parametrize("change, message", [
        ({"a": complex(math.nan, 0.0)}, "a, b, q, p must be finite"),
        ({"p": mpmath.mpc(0.0, math.nan)}, "a, b, q, p must be finite"),
        ({"p": 1.0}, "need |p| < 1"), ({"p": -1.5j}, "need |p| < 1"),
        ({"a": 0}, "a, b, q must be nonzero"), ({"b": 0j}, "a, b, q must be nonzero"),
        ({"q": 0.0}, "a, b, q must be nonzero"),
        ({"eq_tol": 0.0}, "tolerances must be positive")])
    def test_replace_checks_again(self, bits, change, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            params_at(0, precision_bits=bits).replace(**change)

    def test_fields_are_read_only(self):
        p = params_at(0)
        with pytest.raises(AttributeError):
            p.q = 0.5
        with pytest.raises(AttributeError):
            p.extra = 1


class TestExtendedPrecision:
    def test_identities_hit_tight_tolerance(self):
        p = ell.sample_params(7, precision_bits=160)
        assert p.eq_tol == 1e-20
        rep = ell.elliptic_addition_check(4, 5, ell.EllipticRing(p))
        assert rep.passed and rep.rel_diff < 1e-30

    def test_rebase_keeps_precision(self):
        """[n]_{q^base} takes q^base at B bits, not through a double."""
        ring = ell.EllipticRing(ell.sample_params(9, precision_bits=160))
        rep = _multiplication_report(3, 4, ring)
        assert rep.passed and rep.rel_diff < 1e-30
        assert ring._q(3).bits == 160

    def test_params_carry_their_own_context(self):
        p = ell.sample_params(9, precision_bits=160).replace(a=0.5 + 0.25j)
        for value in (p.a, p.b, p.q, p.p):
            assert value.bits == 160
        assert complex(p.a) == 0.5 + 0.25j
        ring = ell.EllipticRing(p)
        for value in (ring.number(5), ring.number(5, 3), ring.v(2, 3, 2), ring.omega1(3, 2),
                      ring.fibonomial(3, 2), tiling_sum(ring, 2, 2)):
            assert type(value) is ExtComplex and value.bits == 160

    def test_reports_ignore_the_global_precision(self):
        """ext:B reports are the same under any ambient mpmath precision,
        which the package neither reads nor sets."""
        p = params_at(1, precision_bits=128)

        def reports():
            ring = ell.EllipticRing(p)
            reps = [ell.elliptic_addition_check(3, 4, ring), ell.fib_splitting_check(3, 2, ring),
                    ell.elliptic_theorem_check(2, 3, ring), ell.elliptic_strip_check(5, ring),
                    ell.elliptic_staircase_check(5, 2, ring)]
            return [report_json(r) for r in reps + ell.theta_property_suite(2, precision_bits=128)]

        want = reports()
        with mpmath.workprec(300):
            got = reports()
        assert got == want
        assert mpmath.mp.prec == 53
