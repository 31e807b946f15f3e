import cmath
import math
import random
import struct
from dataclasses import replace
from functools import partial
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fibl import elliptic as ell
from fibl.errors import DegenerateParametersError
from fibl.fib import fib
from fibl.qpoly import q_number
from fibl.report import numeric_report
from fibl.tilings import (DOMINO, MONOMINO, SPECIAL, PathDominoTiling,
                          _rect_strip_tiles, catalan_partial_tilings,
                          iter_rect_tilings, iter_staircase_tilings,
                          rect_path_profile, rect_transfer,
                          staircase_path_profile, staircase_transfer,
                          tile_exponent, tiling_tiles)

SEED = 0x5EED


def params_at(i, **kw):
    return ell.sample_params(ell.derive_seed(SEED, i), **kw)


def _multiplication_report(m, n, p):
    """[m n] against [m] [n]_{q^m}, at the parameters' precision and eq_tol."""
    with ell._prec_ctx(p):
        lhs = ell.elliptic_number(m * n, p)
        rhs = ell.elliptic_number(m, p) * ell.elliptic_number_base(n, m, p)
    return numeric_report("elliptic-multiplication", {"m": m, "n": n}, lhs, rhs, p.eq_tol)


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
        deeper = replace(p, trunc_eps=p.trunc_eps ** 2)
        for n in (2, 5, 13):
            v1 = ell.elliptic_number(n, p)
            v2 = ell.elliptic_number(n, deeper)
            assert abs(v1 - v2) / abs(v2) < p.eq_tol / 10
        for (m, n) in ((1, 2), (3, 5)):
            w1 = ell.weight_v(m, n, p)
            w2 = ell.weight_v(m, n, deeper)
            assert abs(w1 - w2) / abs(w2) < p.eq_tol / 10


def _reference_run(x, p, eps=ell.DEFAULT_TRUNC_EPS, depth=None):
    """The factor-by-factor theta loop that tests the kernel against.

    Returns the value, the number of factor pairs J, and the stopping
    ratios |p|^J B / eps (< 1) and |p|^(J-1) B / eps (>= 1), B = max(|x|, 1/|x|).
    Given ``depth``, the loop stops after that many factor pairs instead.
    """
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
        before = abs(pj) * bound / eps
        out = out * (1 - pj * x) * (1 - pj * p / x)
        pj = pj * p
        terms += 1
        if (abs(pj) * bound < eps) if depth is None else (terms == depth):
            return out, terms, float(abs(pj) * bound / eps), float(before)
        if terms > ell._MAX_THETA_TERMS:
            raise ValueError("theta truncation did not converge; |p| too close to 1")


def _away_from_ties(terms, after, before):
    """Whether the loop's stop is clear of the float-log test the kernel
    uses: at a tie the two may truncate one factor pair apart."""
    return after < 1 - 1e-9 and (terms == 1 or before > 1 + 1e-9)


def _theta_reference(x, p, eps=ell.DEFAULT_TRUNC_EPS):
    return _reference_run(x, p, eps)[0]


def _bits(z) -> bytes:
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def _polar(log10_mag, phase):
    return cmath.rect(10.0 ** log10_mag, phase)


def _terms_of_kernel(x, p, eps):
    """Call ell.theta and return (value, the truncation depth it used)."""
    seen = []
    orig = ell._theta_terms

    def spy(*args):
        seen.append(orig(*args))
        return seen[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ell, "_theta_terms", spy)
        value = ell.theta(x, p, eps)
    return value, seen[0]


_phases = st.floats(0.0, 2 * math.pi)


def _theta_ext_by_negations(x, p, eps):
    """ell._theta_ext with its first renormalization rule, kept as a
    reference: k = max(a, -a, b, -b, half).bit_length() - width."""
    from mpmath.libmp import from_man_exp, round_nearest

    prec = mpmath.mp.prec
    width = prec + 16
    xa, xb, xe = ell._gaussian(x, width)
    pa, pb, pe = ell._gaussian(p, width)
    pn = pa * pa + pb * pb
    xn = xa * xa + xb * xb
    terms = ell._theta_terms(0.5 * math.log(xn) + xe * ell._LN2,
                             0.5 * math.log(pn) + pe * ell._LN2 if pn else None, eps)
    half = 1 << (width - 1)
    s = 2 * width + 1
    ia, ib = (xa << s) // xn, (-xb << s) // xn
    wa, wb = pa * ia - pb * ib, pa * ib + pb * ia
    k = max(wa, -wa, wb, -wb, half).bit_length() - width
    wa, wb, we = wa >> k, wb >> k, pe - xe - s + k
    ua, ub, ue = xa, xb, xe
    one = 1 << width
    oa, ob, oe = 1, 0, 0
    for _ in range(terms):
        k = ue + width
        fa, fb = (ua << k, ub << k) if k >= 0 else (ua >> -k, ub >> -k)
        k = we + width
        ga, gb = (wa << k, wb << k) if k >= 0 else (wa >> -k, wb >> -k)
        fa, ga = one - fa, one - ga
        ha = fa * ga - fb * gb
        hb = -(fa * gb + fb * ga)
        oa, ob = oa * ha - ob * hb, oa * hb + ob * ha
        k = max(oa, -oa, ob, -ob, half).bit_length() - width
        oa, ob, oe = oa >> k, ob >> k, oe - 2 * width + k
        ua, ub = ua * pa - ub * pb, ua * pb + ub * pa
        k = max(ua, -ua, ub, -ub, half).bit_length() - width
        ua, ub, ue = ua >> k, ub >> k, ue + pe + k
        wa, wb = wa * pa - wb * pb, wa * pb + wb * pa
        k = max(wa, -wa, wb, -wb, half).bit_length() - width
        wa, wb, we = wa >> k, wb >> k, we + pe + k
    return mpmath.mp.make_mpc((from_man_exp(oa, oe, prec, round_nearest),
                               from_man_exp(ob, oe, prec, round_nearest)))


class TestThetaKernel:
    """ell.theta against the reference loop: bit-identical in double
    precision, within 2^-(B-8) at B bits, with the same truncation depth
    away from ties.  At a tie the value is compared with the loop stopped
    at the kernel's depth.

    At B bits the reference runs at B + 64 bits on the same inputs: run at
    B bits, its own rounding drifts by up to ~1500 ulp at J ~ 1000 terms,
    which would hide the kernel's error rather than measure it.
    """

    @given(lx=st.floats(-30, 30), ax=_phases, lp=st.floats(-6, math.log10(0.9)),
           ap=_phases, bits=st.sampled_from([None, 53, 128, 160]))
    @example(lx=0.0, ax=0.0, lp=-0.5, ap=1.0, bits=None)             # x = 1
    @example(lx=0.2, ax=math.pi, lp=-1.0, ap=0.3, bits=None)         # x < 0
    @example(lx=-29.0, ax=math.pi, lp=-0.1, ap=2.0, bits=160)
    @example(lx=30.0, ax=0.5, lp=-0.05, ap=0.0, bits=53)             # J ~ 1500
    @example(lx=-30.0, ax=2.0, lp=math.log10(0.9), ap=1.0, bits=128)
    @example(lx=12.0, ax=4.0, lp=-0.3, ap=5.0, bits=160)
    @example(lx=30.0, ax=1.0, lp=math.log10(0.9), ap=0.5, bits=None)
    @example(lx=0.0, ax=1.0, lp=-1.1, ap=0.0, bits=160)               # tie: J 41 vs 40
    @settings(max_examples=150)
    def test_matches_reference(self, lx, ax, lp, ap, bits):
        x, p = _polar(lx, ax), _polar(lp, ap)
        if lx == 0.0 and ax == 0.0:
            x = 1
        elif ax == math.pi:
            x = complex(-abs(x), 0.0)
        if bits is None:
            want, terms, after, before = _reference_run(x, p)
            got, j = _terms_of_kernel(x, p, ell.DEFAULT_TRUNC_EPS)
            if not _away_from_ties(terms, after, before):
                want = _reference_run(x, p, depth=j)[0]
            assert _bits(got) == _bits(want)
        else:
            eps = ell.EXTENDED_TRUNC_EPS
            with mpmath.workprec(bits):
                xm, pm = mpmath.mpc(x), mpmath.mpc(p)
                got, j = _terms_of_kernel(xm, pm, eps)
                assert isinstance(got, mpmath.mpc)
            with mpmath.workprec(bits + 64):
                # well-conditioned points only: no factor 1 - p^j x or
                # 1 - p^(j+1)/x within 1e-3 of zero
                k = round(-lx / lp)
                for jj in {k - 1, k, k + 1, -k - 1, -k, -k + 1}:
                    if jj >= 0:
                        assume(abs(1 - pm ** jj * xm) > 1e-3)
                        assume(abs(1 - pm ** (jj + 1) / xm) > 1e-3)
                want, terms, after, before = _reference_run(xm, pm, eps)
                if not _away_from_ties(terms, after, before):
                    want = _reference_run(xm, pm, eps, depth=j)[0]
                assert abs(got - want) / abs(want) <= mpmath.mpf(2) ** -(bits - 8)
        if _away_from_ties(terms, after, before):
            assert j == terms

    @pytest.mark.parametrize("bits", [53, 128, 160])
    def test_ext_renormalization_is_bit_identical(self, bits):
        """max(a.bit_length(), b.bit_length(), width) renormalizes exactly as
        max(a, -a, b, -b, 2^(width-1)).bit_length() did, on seeded points
        and on p = 0 and x = 1."""
        rng = random.Random(bits)
        points = [(1, 0.3 - 0.1j), (0.7 - 1.3j, 0), (1, 0)]
        points += [(_polar(rng.uniform(-20, 20), rng.uniform(0, 2 * math.pi)),
                    _polar(rng.uniform(-6, math.log10(0.9)), rng.uniform(0, 2 * math.pi)))
                   for _ in range(40)]
        with mpmath.workprec(bits):
            for x, p in points:
                x, p = mpmath.mpc(x), mpmath.mpc(p)
                got = ell._theta_ext(x, p, ell.EXTENDED_TRUNC_EPS)
                assert got._mpc_ == _theta_ext_by_negations(x, p, ell.EXTENDED_TRUNC_EPS)._mpc_

    @pytest.mark.parametrize("bits", [None, 128])
    def test_zero_nome(self, bits):
        x, p = complex(0.7, -1.3), 0
        if bits is None:
            assert _bits(ell.theta(x, p)) == _bits(_theta_reference(x, p)) == _bits(1 - x)
            return
        with mpmath.workprec(bits):
            x, p = mpmath.mpc(x), mpmath.mpc(0)
            got, j = _terms_of_kernel(x, p, ell.EXTENDED_TRUNC_EPS)
            assert j == 1
            assert got == 1 - x == _theta_reference(x, p, ell.EXTENDED_TRUNC_EPS)

    @pytest.mark.parametrize("bits", [53, 128, 160])
    def test_theta_at_one_is_exactly_zero(self, bits):
        with mpmath.workprec(bits):
            got = ell.theta(mpmath.mpc(1), mpmath.mpc(0.3, -0.1), ell.EXTENDED_TRUNC_EPS)
            assert got.real == 0 and got.imag == 0

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
        with mpmath.workprec(bits), pytest.raises(ValueError):
            ell.theta(mpmath.mpc(x), mpmath.mpc(p), ell.EXTENDED_TRUNC_EPS)

    @pytest.mark.parametrize("cap", [16, 17, 18])
    @pytest.mark.parametrize("bits", [None, 128])
    def test_term_cap_is_the_references(self, monkeypatch, cap, bits):
        # with p = 0.1 and x = 2, J is 18 at eps 1e-17; the reference
        # raises only once J exceeds the cap by more than one
        monkeypatch.setattr(ell, "_MAX_THETA_TERMS", cap)
        x, p = 2.0, 0.1
        if bits is not None:
            x, p = mpmath.mpc(x), mpmath.mpc(p)
        with mpmath.workprec(bits or 53):
            try:
                want = _theta_reference(x, p)
            except ValueError:
                want = None
            assert (want is None) == (cap == 16)
            if want is None:
                with pytest.raises(ValueError, match="did not converge"):
                    ell.theta(x, p)
            else:
                got = ell.theta(x, p)
                assert abs(got - want) <= 2.0 ** -(mpmath.mp.prec - 8) * abs(want)


def test_double_suite_output_is_the_references(capsys, monkeypatch):
    from fibl.cli import main
    argv = ["verify", "theta", "--samples", "50"]
    assert main(argv) == 0
    kernel = capsys.readouterr().out.encode()
    monkeypatch.setattr(ell, "theta", _theta_reference)
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == kernel


class TestThetaSuite:
    def test_twenty_samples_make_eighty_reports(self):
        p = ell.sample_params(1)
        reports = ell.theta_property_suite(p, 20, seed=1)
        assert len(reports) == 80
        assert all(r.passed for r in reports)

    def test_reports_carry_seed_and_tolerance(self):
        p = ell.sample_params(2)
        reports = ell.theta_property_suite(p, 3, seed=2)
        assert all(r.seed is not None for r in reports)
        assert all(r.tolerance == p.eq_tol for r in reports)

    def test_extended_precision(self):
        p = ell.sample_params(1, precision_bits=128)
        reports = ell.theta_property_suite(p, 10, seed=1)
        assert len(reports) == 40
        assert all(r.passed for r in reports)
        assert max(r.rel_diff for r in reports) <= 1e-20


class TestEllipticNumber:
    def test_one_is_one(self):
        for i in range(6):
            assert abs(ell.elliptic_number(1, params_at(i)) - 1) < 1e-12

    def test_zero_is_zero(self):
        for i in range(3):
            assert abs(ell.elliptic_number(0, params_at(i))) < 1e-12

    def test_base_one_is_plain(self):
        p = params_at(0)
        assert ell.elliptic_number_base(7, 1, p) == ell.elliptic_number(7, p)

    def test_multiplicative_base_identity(self):
        # [6] = [2] * [3]_{q^2}
        for i in range(6):
            p = params_at(i)
            lhs = ell.elliptic_number(6, p)
            rhs = ell.elliptic_number(2, p) * ell.elliptic_number_base(3, 2, p)
            assert abs(lhs - rhs) / abs(lhs) < p.eq_tol

    def test_fib_indexed_value_finite(self):
        p = params_at(2)
        v = ell.elliptic_number_base(fib(4), fib(3), p)
        assert cmath.isfinite(complex(v))

    def test_degenerate_guard(self):
        p = replace(params_at(0), min_denom=1e12)
        with pytest.raises(DegenerateParametersError):
            ell.elliptic_number(5, p)


class TestWeightV:
    def test_v_zero_is_one(self):
        for i in range(4):
            p = params_at(i)
            for n in (1, 3, 8):
                assert abs(ell.weight_v(0, n, p) - 1) < 1e-10

    def test_addition_identity_grid(self):
        for i in range(3):
            p = params_at(i)
            for m in range(1, 11):
                for n in range(1, 11):
                    assert ell.elliptic_addition_check(m, n, p).passed

    def test_multiplication_identity_grid(self):
        for i in range(3):
            p = params_at(i)
            for m in range(1, 9):
                for n in range(1, 9):
                    assert _multiplication_report(m, n, p).passed


class TestOmega:
    def test_omega2_at_zero_column(self):
        for i in range(4):
            p = params_at(i)
            for m in range(1, 7):
                assert abs(ell.omega2(m, 0, p) - 1) < 1e-10

    def test_omega2_1j_equals_omega1_j1(self):
        for i in range(3):
            p = params_at(i)
            for j in range(1, 7):
                w2 = ell.omega2(1, j, p)
                w1 = ell.omega1(j, 1, p)
                assert abs(w2 - w1) / abs(w1) < p.eq_tol


def _reference_weight_rect(t, params):
    """The rectangle model's elliptic weight by its own row and column
    walk: a horizontal domino ending at (i, r) weighs omega1(i, r), a
    vertical one with top cell (c, j) the transposed omega1(j, c), the
    special one omega2(c, j)."""
    with ell._prec_ctx(params):
        _, col_height = rect_path_profile(t.path, t.m, t.n)
        w = 1
        for r in range(1, t.n + 1):
            i = 0
            for tile in t.rows[r - 1]:
                if tile == MONOMINO:
                    i += 1
                else:
                    i += 2
                    w = w * ell.omega1(i, r, params)
        for c in range(1, t.m + 1):
            j = col_height[c - 1]
            for tile in t.cols[c - 1]:
                if tile == SPECIAL:
                    w = w * ell.omega2(c, j, params)
                    j -= 2
                elif tile == DOMINO:
                    w = w * ell.omega1(j, c, params)
                    j -= 2
                else:
                    j -= 1
        return w


def _reference_weight_staircase(t, params):
    """The staircase model's elliptic weight from per-domino floor and
    height: omega1(floor, height), and omega2 at the transposed
    (height, floor) for the special domino."""
    xs, forced = staircase_path_profile(t.path, t.n, t.k)
    with ell._prec_ctx(params):
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
                    w = w * ell.omega2(height, floor, params)
                else:
                    w = w * ell.omega1(floor, height, params)
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
        p = params_at(i)
        for t in _small_tilings():
            ref = (_reference_weight_rect if isinstance(t, PathDominoTiling)
                   else _reference_weight_staircase)(t, p)
            assert ell.elliptic_weight(t, p) == ref, t


class TestFibSplitting:
    def test_grid(self):
        for i in range(3):
            p = params_at(i)
            for m in range(1, 7):
                for n in range(1, 7):
                    assert ell.fib_splitting_check(m, n, p).passed


class TestFibonomialRoutes:
    def test_1_1_both_sides_one(self):
        p = params_at(0)
        rep = ell.elliptic_theorem_check(1, 1, p)
        assert rep.passed
        assert abs(rep.lhs - 1) < 1e-10

    def test_enumeration_route_small(self):
        for i in range(3):
            p = params_at(i)
            for (m, n) in ((2, 2), (3, 2), (3, 3)):
                rep = ell.elliptic_theorem_check(m, n, p)
                assert "tiling_sum" in rep.notes["routes"]
                assert rep.passed

    def test_all_routes_at_large_sizes(self):
        # (6, 6) has 27,261,234 tilings; the transfer lists none of them
        p = params_at(1)
        for m, n in ((5, 5), (6, 6)):
            rep = ell.elliptic_theorem_check(m, n, p)
            assert rep.notes["routes"] == ["ratio", "recurrence", "tiling_sum"], (m, n)
            assert rep.passed, (m, n)

    def test_all_monomino_weight_is_one(self):
        p = params_at(0)
        t = next(iter_rect_tilings(3, 0))
        assert ell.elliptic_weight(t, p) == 1


class TestStripSpiral:
    def test_strip_small_cases_exact(self):
        p = params_at(0)
        for n in (1, 2):
            rep = ell.elliptic_strip_check(n, p)
            assert rep.passed
            assert abs(rep.lhs - 1) < 1e-12

    def test_strip_to_eight(self):
        for i in range(3):
            p = params_at(i)
            for n in range(1, 9):
                assert ell.elliptic_strip_check(n, p).passed

    def test_spiral(self):
        for i in range(3):
            p = params_at(i)
            for m in range(1, 6):
                assert ell.elliptic_spiral_check(m, p).passed


class TestConvolution:
    def test_cases(self):
        for i in range(3):
            p = params_at(i)
            for (m, n) in ((1, 1), (2, 3), (3, 3), (4, 2)):
                assert ell.elliptic_convolution_check(m, n, p).passed

    def test_vanishing_summand(self):
        # the j = n-1 term carries [F_0] = 0
        p = params_at(0)
        assert abs(ell.elliptic_number(fib(0), p)) < 1e-14


class TestStaircase:
    def test_staircase_sum_grid(self):
        for i in range(2):
            p = params_at(i)
            for n in range(1, 6):
                for k in range(0, n + 1):
                    assert ell.elliptic_staircase_check(n, k, p).passed

    def test_staircase_4_2_matches_rect_2_2(self):
        p = params_at(4)
        srep = ell.elliptic_staircase_check(4, 2, p)
        rrep = ell.elliptic_theorem_check(2, 2, p)
        assert srep.passed and rrep.passed
        assert abs(srep.lhs - rrep.lhs) / abs(rrep.lhs) < 1e-12


class TestStripLemma:
    """Each rectangle strip's elliptic weight sum is the closed form that
    elliptic_fibonomial_recurrence multiplies, and an empty strip's is
    exactly 1 on both sides."""

    @pytest.mark.parametrize("bits", [None, 128])
    def test_strip_sums_are_the_closed_forms(self, bits):
        p = params_at(0, precision_bits=bits)
        with ell._prec_ctx(p):
            for index in range(1, 9):
                for length in range(0, 9):
                    for forced in (False, True):
                        case = (index, length, forced)
                        got = ell._strip_sum(p, _rect_strip_tiles, *case)
                        want = ell._recurrence_strip(p, None, *case)
                        assert numeric_report("strip", {}, got, want, p.eq_tol).passed, case
                        if not length:
                            assert got == want == 1, case


class TestEllipticTransfer:
    """The lattice transfers over elliptic strip sums against the sum of
    elliptic_weight over the enumerated tilings.  The two routes multiply
    and add in different orders, so they agree to within rounding: at most
    2^6 units of the last place of Σ_t |w(t)| (measured: under one)."""

    @pytest.mark.parametrize("bits", [None, 128])
    def test_matches_enumeration(self, bits):
        for i in range(2):
            p = params_at(i, precision_bits=bits)
            unit = 2.0 ** -(bits or 53)
            table = partial(ell._strip_sum, p)
            with ell._prec_ctx(p):
                cases = [(rect_transfer(m, n, table, 1), iter_rect_tilings(m, n), (m, n))
                         for m in range(0, 5) for n in range(0, 5)]
                cases += [(staircase_transfer(n, k, table, 1), iter_staircase_tilings(n, k),
                           (n, k)) for n in range(0, 7) for k in range(0, n + 1)]
                for got, tilings, size in cases:
                    weights = [ell.elliptic_weight(t, p) for t in tilings]
                    want = 0
                    for w in weights:
                        want = want + w
                    bound = 2 ** 6 * unit * sum(abs(w) for w in weights)
                    assert abs(got - want) <= bound, size


class TestNonFiniteSides:
    @pytest.mark.xfail(strict=True, reason=(
        "numeric_report gives rel_diff 0.0 when lhs is NaN: max(nan, x) is NaN "
        "and fails scale > 0.  Mending it alone fails elliptic checks whose "
        "theta products overflow to NaN, so it waits for a theta that does not"))
    def test_nan_side_fails(self):
        nan = complex(math.nan, math.nan)
        for lhs, rhs in ((nan, 1.0), (nan, nan)):
            assert not numeric_report("nan-side", {}, lhs, rhs, 1e-7).passed, (lhs, rhs)


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
        def always_degenerate(params):
            raise DegenerateParametersError("forced")

        with pytest.raises(DegenerateParametersError):
            ell.run_sampled_checks(always_degenerate, SEED, 1, max_resamples=3)

    def test_resample_count_reported(self):
        calls = {"n": 0}

        def flaky(params):
            calls["n"] += 1
            if calls["n"] < 3:
                raise DegenerateParametersError("forced")
            return ell.elliptic_strip_check(2, params)

        reports = ell.run_sampled_checks(flaky, SEED, 1)
        assert reports[0].resamples == 2

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ell.EllipticParams(a=1, b=1, q=0.5, p=1.5)
        with pytest.raises(ValueError):
            ell.EllipticParams(a=0, b=1, q=0.5, p=0.1)


class TestExtendedPrecision:
    def test_identities_hit_tight_tolerance(self):
        p = ell.sample_params(7, precision_bits=160)
        assert p.eq_tol == 1e-20
        rep = ell.elliptic_addition_check(4, 5, p)
        assert rep.passed and rep.rel_diff < 1e-30

    def test_rebase_keeps_precision(self):
        p = ell.sample_params(9, precision_bits=160)
        rep = _multiplication_report(3, 4, p)
        assert rep.passed and rep.rel_diff < 1e-30
