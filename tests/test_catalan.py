import math
import os

import pytest

from fibl import kernels, qpoly
from fibl.catalan import (_REMAINDER_WORK_LIMIT, CoxeterType, coxeter_catalan_q1,
                          coxeter_exponents, coxeter_q_fibo_catalan,
                          q_fibo_catalan_divisibility_check,
                          q_fibo_catalan_ordinary, q_fibo_catalan_positivity_sweep,
                          q_fibo_catalan_rational, sweep_csv_lines)
from fibl.errors import ResourceLimitError
from fibl.fib import fib
from fibl.qpoly import IntPoly, long_division


class TestExponentTable:
    def test_classical_families(self):
        assert coxeter_exponents("A", 5) == (1, 2, 3, 4, 5)
        assert coxeter_exponents("B", 4) == (1, 3, 5, 7)
        assert coxeter_exponents("D", 4) == (3, 1, 3, 5)
        assert coxeter_exponents("D", 6) == (5, 1, 3, 5, 7, 9)

    def test_exceptional_families(self):
        assert coxeter_exponents("E6") == (1, 4, 5, 7, 8, 11)
        assert coxeter_exponents("E7") == (1, 5, 7, 9, 11, 13, 17)
        assert coxeter_exponents("E8") == (1, 7, 11, 13, 17, 19, 23, 29)
        assert coxeter_exponents("F4") == (1, 5, 7, 11)
        assert coxeter_exponents("G2") == (1, 5)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            coxeter_exponents("E6", 6)
        with pytest.raises(ValueError):
            coxeter_exponents("D", 3)
        with pytest.raises(ValueError):
            coxeter_exponents("X", 2)

    def test_coxeter_number(self):
        assert CoxeterType("F4").coxeter_number == 12
        assert CoxeterType("A", 4).coxeter_number == 5
        assert CoxeterType("E8").coxeter_number == 30


class TestRational:
    def test_coprime_case(self):
        v = q_fibo_catalan_rational(3, 2)
        assert v.is_polynomial
        assert v.quotient == IntPoly([1, 1, 1])      # [F_4] = [3]

    def test_gcd_two_case(self):
        v = q_fibo_catalan_rational(4, 2)
        assert v.is_polynomial
        assert v.quotient == qpoly.q_number(5)       # [F_5] = [5]

    def test_unit_case(self):
        v = q_fibo_catalan_rational(1, 1)
        assert v.is_polynomial and v.quotient == IntPoly.one()

    def test_gcd_three_verdict_recorded(self):
        v = q_fibo_catalan_rational(3, 3)
        assert not v.is_polynomial
        assert v.quotient is None
        assert v.remainder_degree is not None

    def test_definition_matches_factorials(self):
        for (m, n) in ((2, 3), (4, 3), (5, 2), (5, 4)):
            v = q_fibo_catalan_rational(m, n)
            expected = qpoly.exact_div(
                qpoly.q_fib_factorial(m + n - 1),
                qpoly.q_fib_factorial(m) * qpoly.q_fib_factorial(n))
            assert v.quotient == expected


class TestSweep:
    def test_small_sweep_all_polynomial_nonnegative(self):
        rows = q_fibo_catalan_positivity_sweep(5)
        assert rows
        assert all(r.gcd in (1, 2) for r in rows)
        assert all(r.is_polynomial for r in rows)
        assert all(r.min_coeff >= 0 for r in rows)

    def test_sweep_covers_expected_pairs(self):
        rows = q_fibo_catalan_positivity_sweep(4)
        got = {(r.m, r.n) for r in rows}
        want = {(m, n) for m in range(1, 5) for n in range(1, 5)
                if math.gcd(m, n) in (1, 2)}
        assert got == want

    def test_csv_shape(self):
        lines = sweep_csv_lines(q_fibo_catalan_positivity_sweep(3))
        assert lines[0] == "m,n,gcd,is_polynomial,degree,min_coeff,max_coeff"
        assert all(len(line.split(",")) == 7 for line in lines)


class TestChainedSweep:
    """Each sweep quotient at a fixed n starts from the last polynomial
    one at that n; the oracle is the from-scratch verdict."""

    def test_chain_matches_from_scratch(self):
        for n in range(1, 12):
            start = []
            for m in range(1, n + 1):
                if math.gcd(m, n) > 2:
                    continue
                num = [fib(k) for k in range(n + 1, m + n)]
                den = [fib(k) for k in range(1, m + 1)]
                quotient = qpoly.q_ratio_coeffs(num, den, start)
                assert quotient == qpoly.q_ratio_coeffs(num, den)
                assert start == []
                start.append((quotient, num, den))

    def test_every_row_matches_the_rational_verdict(self):
        rows = q_fibo_catalan_positivity_sweep(12)
        assert len(rows) == sum(math.gcd(m, n) in (1, 2)
                                for m in range(1, 13) for n in range(1, 13))
        for r in rows:
            verdict = q_fibo_catalan_rational(r.m, r.n)
            assert r.is_polynomial == verdict.is_polynomial
            assert r.degree == verdict.degree
            assert (r.min_coeff, r.max_coeff) == verdict.coeff_range

    def test_cap_is_checked_for_every_pair_before_any_quotient(self, monkeypatch):
        calls = []
        real_mul = kernels.mul_qnumber

        def mul_qnumber(*args):
            calls.append(args[1:])
            return real_mul(*args)
        monkeypatch.setattr(kernels, "mul_qnumber", mul_qnumber)
        old = qpoly.set_degree_cap(5000)
        try:
            with pytest.raises(ResourceLimitError,
                               match="^polynomial degree 6382 exceeds the degree cap 5000$"):
                q_fibo_catalan_positivity_sweep(12)
        finally:
            qpoly.set_degree_cap(old)
        assert calls == []


class TestDivisibilityIdentity:
    def test_examples(self):
        assert q_fibo_catalan_divisibility_check(2, 2).passed
        assert q_fibo_catalan_divisibility_check(5, 3).passed
        for n in range(1, 8):
            assert q_fibo_catalan_divisibility_check(1, n).passed

    def test_grid_to_ten(self):
        for m in range(1, 11):
            for n in range(1, 11):
                assert q_fibo_catalan_divisibility_check(m, n).passed


class TestCoxeter:
    def test_f4_a2_is_not_polynomial(self):
        v = coxeter_q_fibo_catalan(CoxeterType("F4"), 2)
        assert not v.is_polynomial
        assert v.remainder_degree is not None

    def test_g2_a7_is_polynomial(self):
        v = coxeter_q_fibo_catalan(CoxeterType("G2"), 7)
        assert v.is_polynomial and v.all_coeffs_nonnegative

    def test_type_a_coprime_positive(self):
        v = coxeter_q_fibo_catalan(CoxeterType("A", 3), 3)
        assert v.is_polynomial and v.all_coeffs_nonnegative

    def test_a1_collapses_to_one(self):
        v = coxeter_q_fibo_catalan(CoxeterType("E8"), 1)
        assert v.is_polynomial and v.quotient == IntPoly.one()

    def test_q1_integrality_for_coprime_table(self):
        families = ([CoxeterType("A", n) for n in range(2, 9)]
                    + [CoxeterType("B", n) for n in range(2, 9)]
                    + [CoxeterType("D", n) for n in range(4, 9)]
                    + [CoxeterType(f) for f in ("E6", "E7", "E8", "F4", "G2")])
        for ct in families:
            h = ct.coxeter_number
            for a in range(1, 13):
                if math.gcd(a, h) != 1:
                    continue
                assert coxeter_catalan_q1(ct, a) > 0

    def test_q1_matches_polynomial_evaluation(self):
        for ct, a in ((CoxeterType("B", 3), 5), (CoxeterType("G2"), 5)):
            v = coxeter_q_fibo_catalan(ct, a)
            assert v.quotient.eval_q1() == coxeter_catalan_q1(ct, a)


class TestAgainstDivisionRoute:
    """The cyclotomic counting verdicts against the route they replaced:
    multiply out the numerator, divide by the denominator factors in
    descending order and long-divide by the rest at the first inexact step."""

    # coefficient steps; cases whose remainder needs a heavier long
    # division are passed over (the engine's own limit is far higher)
    LONG_DIVISION_BUDGET = 10**6

    def division_route(self, num_factors, den_factors):
        """(is_polynomial, quotient, remainder_degree), or None when the
        remainder's long division is over the budget."""
        num = [1]
        for t in num_factors:
            num = kernels.mul_qnumber(num, t)
        remaining = sorted(den_factors, reverse=True)
        for pos, t in enumerate(remaining):
            nxt = kernels.div_qnumber(num, t)
            if nxt is None:
                den = [1]
                for u in remaining[pos:]:
                    den = kernels.mul_qnumber(den, u)
                work = len(num) * len(den)
                if work > _REMAINDER_WORK_LIMIT:
                    return False, None, None
                if work > self.LONG_DIVISION_BUDGET:
                    return None
                return False, None, long_division(IntPoly(num), IntPoly(den)).remainder.degree
            num = nxt
        return True, IntPoly(num), None

    def matches(self, verdict, num_factors, den_factors) -> bool:
        """Assert agreement; False when the case was passed over."""
        want = self.division_route(num_factors, den_factors)
        if want is None:
            return False
        v = verdict()
        assert (v.is_polynomial, v.quotient, v.remainder_degree) == want
        return True

    def test_rational_any_gcd(self):
        checked = 0
        for m in range(1, 10):
            for n in range(1, 10):
                lo, hi = sorted((m, n))
                checked += self.matches(lambda: q_fibo_catalan_rational(m, n),
                                        [fib(k) for k in range(hi + 1, m + n)],
                                        [fib(k) for k in range(1, lo + 1)])
        assert checked == 81

    def coxeter_cases(self, ct, a_values) -> int:
        exps = ct.exponents
        return sum(self.matches(lambda: coxeter_q_fibo_catalan(ct, a),
                                [fib(a + e) for e in exps], [fib(e + 1) for e in exps])
                   for a in a_values)

    def test_coxeter_table(self):
        types = ([CoxeterType("A", n) for n in range(2, 9)]
                 + [CoxeterType("B", n) for n in range(2, 9)]
                 + [CoxeterType("D", n) for n in range(4, 9)]
                 + [CoxeterType(f) for f in ("E6", "E7", "F4", "G2")])
        checked = sum(self.coxeter_cases(ct, range(1, 9)) for ct in types)
        assert checked == 170           # of 184; 14 remainders over budget

    def test_e8(self):
        assert self.coxeter_cases(CoxeterType("E8"), range(1, 4)) == 3


@pytest.mark.skipif(not os.environ.get("FIBL_SLOW_TESTS"),
                    reason="~3 s, ~0.6 GB peak; set FIBL_SLOW_TESTS=1 to run")
def test_e8_a7_polynomial_positive_slow():
    old = qpoly.set_degree_cap(2 * 10**7)
    try:
        v = coxeter_q_fibo_catalan(CoxeterType("E8"), 7)
        assert v.is_polynomial and v.all_coeffs_nonnegative
    finally:
        qpoly.set_degree_cap(old)


class TestOrdinary:
    def test_n1_is_one(self):
        v = q_fibo_catalan_ordinary(1)
        assert v.is_polynomial and v.quotient == IntPoly.one()

    def test_n3_polynomial_feeds_counterexample(self):
        v = q_fibo_catalan_ordinary(3)
        assert v.is_polynomial
        assert v.quotient == IntPoly([1, 1, 2, 2, 3, 2, 3, 2, 2, 1, 1])

    def test_n5_polynomial(self):
        v = q_fibo_catalan_ordinary(5)
        assert v.is_polynomial
        # equals the central q-Fibonomial (parts n, n) divided by [F_{n+1}]
        expected = qpoly.exact_div(qpoly.q_fibonomial(5, 5), qpoly.q_number(fib(6)))
        assert v.quotient == expected


def test_verdict_carries_the_quotient_coefficient_range():
    for m, n in ((3, 5), (4, 7), (6, 7)):
        verdict = q_fibo_catalan_rational(m, n)
        coeffs = verdict.quotient.coeffs
        assert verdict.coeff_range == (min(coeffs), max(coeffs))
    assert q_fibo_catalan_rational(3, 6).coeff_range is None       # not a polynomial
