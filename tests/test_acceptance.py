"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance and range is pinned here; exact
criteria admit no tolerance at all.
"""

import math
import time
from fractions import Fraction

from fibl import elliptic as ell
from fibl import qpoly, tilings
from fibl.catalan import (CoxeterType, coxeter_q_fibo_catalan,
                          q_fibo_catalan_positivity_sweep)
from fibl.fib import fib
from fibl.qpoly import IntPoly, q_fibonomial, q_fibonomial_recurrence, q_number
from fibl.tilings import (iter_rect_tilings, model_bijection_check,
                          rect_generating_function,
                          staircase_generating_function, weight_exponent)
from oracles import load_golden, rect_tiling_from_json

SEED = 0x5EED
DOUBLE_TOL = 1e-7
EXTENDED_TOL = 1e-20


class _Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s
        self.t0 = time.perf_counter()

    def finish(self, ok=True):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if ok and elapsed < self.budget_s else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {status} ({elapsed:6.2f}s / "
              f"budget {self.budget_s:g}s) {self.description}")
        assert ok, f"criterion {self.number} failed: {self.description}"
        assert elapsed < self.budget_s, \
            f"criterion {self.number} exceeded its {self.budget_s}s budget ({elapsed:.1f}s)"


def test_criterion_01_fig2_polynomial_and_multiset():
    c = _Criterion(1, "q-Fibonomial(2,2) and the six 2x2 tilings", 1.0)
    assert q_fibonomial(2, 2) == IntPoly([1, 2, 2, 1])
    exps = sorted(weight_exponent(t) for t in iter_rect_tilings(2, 2))
    assert exps == [0, 1, 1, 2, 2, 3]
    c.finish()


def test_criterion_02_three_routes_agree_to_8():
    c = _Criterion(2, "tiling sum = ratio = recurrence for all m+n <= 8", 60.0)
    ok = True
    for m in range(0, 9):
        for n in range(0, 9 - m):
            qf = q_fibonomial(m, n)
            ok &= rect_generating_function(m, n) == qf
            ok &= q_fibonomial_recurrence(m, n) == qf
    c.finish(ok)


def test_criterion_03_staircase_and_bijection():
    c = _Criterion(3, "staircase sums for n <= 8 and bijection for m+n <= 8", 120.0)
    ok = True
    for n in range(0, 9):
        for k in range(0, n + 1):
            ok &= staircase_generating_function(n, k) == q_fibonomial(n - k, k)
    for m in range(0, 9):
        for n in range(0, 9 - m):
            ok &= model_bijection_check(m, n).passed
    c.finish(ok)


def test_criterion_04_golden_5x4_weight():
    c = _Criterion(4, "golden 5x4 tiling has weight q^51", 1.0)
    doc = load_golden("rect_5x4_example.json")
    t = rect_tiling_from_json(doc["tiling"])
    tilings.validate_rect_tiling(t)
    ok = tilings.q_weight(t) == IntPoly.monomial(51)
    c.finish(ok)


def test_criterion_05_unimodality_to_10():
    c = _Criterion(5, "unimodality of q-Fibonomials for all m, n <= 10", 300.0)
    ok = True
    for m in range(0, 11):
        for n in range(m, 11):
            ok &= qpoly.is_unimodal(q_fibonomial(m, n))
    c.finish(ok)


def test_criterion_06_spiral_identity():
    c = _Criterion(6, "spiral identity for m <= 12 and q=1 shadow for m <= 40", 10.0)
    ok = all(tilings.spiral_check(tilings.Q_RING, m).passed for m in range(1, 13))
    ok &= all(qpoly.spiral_identity_check_q1(m).passed for m in range(1, 41))
    c.finish(ok)


def test_criterion_07_q_convolution():
    c = _Criterion(7, "q-convolution identity for all 1 <= m, n <= 6", 30.0)
    ok = all(tilings.convolution_check(tilings.Q_RING, m, n).passed
             for m in range(1, 7) for n in range(1, 7))
    c.finish(ok)


def test_criterion_08_theta_suite_both_precisions():
    c = _Criterion(8, "theta identities at 50 points, double and extended", 5.0)
    rd = ell.theta_property_suite(50, SEED)
    ok = len(rd) == 200 and all(r.passed for r in rd)
    ok &= max(r.rel_diff for r in rd) <= DOUBLE_TOL
    re_ = ell.theta_property_suite(50, SEED, precision_bits=128)
    ok &= len(re_) == 200 and all(r.passed for r in re_)
    ok &= max(r.rel_diff for r in re_) <= EXTENDED_TOL
    c.finish(ok)


def test_criterion_09_elliptic_checks():
    c = _Criterion(9, "elliptic fibonomial/strip/spiral/convolution/staircase", 120.0)
    ok = True
    for m in range(1, 7):                       # ratio, recurrence and tiling sum
        for n in range(1, 7):
            reps = ell.run_sampled_checks(
                lambda ring, m=m, n=n: ell.elliptic_theorem_check(m, n, ring),
                SEED, 20)
            ok &= all(r.passed and r.rel_diff <= DOUBLE_TOL for r in reps)
            ok &= all(r.notes["routes"] == ["ratio", "recurrence", "tiling_sum"]
                      for r in reps)
    for n in range(1, 9):
        reps = ell.run_sampled_checks(
            lambda ring, n=n: ell.elliptic_strip_check(n, ring), SEED, 20)
        ok &= all(r.passed for r in reps)
    for m in range(1, 6):
        reps = ell.run_sampled_checks(
            lambda ring, m=m: tilings.spiral_check(ring, m), SEED, 20)
        ok &= all(r.passed for r in reps)
    for m in range(1, 5):
        for n in range(1, 5):
            reps = ell.run_sampled_checks(
                lambda ring, m=m, n=n: tilings.convolution_check(ring, m, n),
                SEED, 20)
            ok &= all(r.passed for r in reps)
    for n in range(1, 7):
        for k in range(0, n + 1):
            reps = ell.run_sampled_checks(
                lambda ring, n=n, k=k: ell.elliptic_staircase_check(n, k, ring),
                SEED, 20)
            ok &= all(r.passed for r in reps)
    c.finish(ok)


def test_criterion_10_limit_chain_exact():
    c = _Criterion(10, "ordered degeneration equals [n]_q exactly for n <= 30", 1.0)
    q = Fraction(7, 10)
    ok = all(ell.limit_chain(("number", n), q) == q_number(n).evaluate(q)
             for n in range(0, 31))
    c.finish(ok)


def test_criterion_11_catalan_sweep_15():
    c = _Criterion(11, "rational Catalan sweep m, n <= 15, gcd in {1,2}", 600.0)
    rows = q_fibo_catalan_positivity_sweep(15)
    pairs = {(r.m, r.n) for r in rows}
    expected = {(m, n) for m in range(1, 16) for n in range(1, 16)
                if math.gcd(m, n) in (1, 2)}
    ok = pairs == expected
    ok &= all(r.is_polynomial for r in rows)
    ok &= all(r.min_coeff >= 0 for r in rows)
    c.finish(ok)


def test_criterion_12_coxeter_table():
    c = _Criterion(12, "F4(a=2) not polynomial; coprime samples positive", 120.0)
    f4 = coxeter_q_fibo_catalan(CoxeterType("F4"), 2)
    ok = not f4.is_polynomial
    samples = ((CoxeterType("A", 3), 3), (CoxeterType("A", 4), 3),
               (CoxeterType("B", 3), 5), (CoxeterType("D", 4), 5),
               (CoxeterType("D", 5), 3), (CoxeterType("E6"), 5),
               (CoxeterType("E7"), 5), (CoxeterType("E8"), 1),
               (CoxeterType("F4"), 5), (CoxeterType("G2"), 7))
    for ct, a in samples:
        assert math.gcd(a, ct.coxeter_number) == 1
        v = coxeter_q_fibo_catalan(ct, a)
        ok &= bool(v.is_polynomial and v.all_coeffs_nonnegative)
    c.finish(ok)


def test_criterion_13_partial_tiling_counterexample():
    c = _Criterion(13, "Catalan partial tilings of size 6 miss the polynomial", 5.0)
    rep = tilings.catalan_partial_tiling_counterexample(6)
    ok = rep.passed and rep.expected == "unequal" and rep.lhs != rep.rhs
    ok &= rep.notes["tiling_count"] == rep.notes["catalan_poly_at_1"] == 20
    c.finish(ok)
