import json
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from fibl import kernels, qpoly, tilings
from fibl.errors import NotPolynomialError, ResourceLimitError
from fibl.fib import fib
from fibl.qpoly import (IntPoly, cyclotomic_split, fibonomial_int, is_unimodal, long_division,
                        q_fibonomial, q_fibonomial_recurrence, q_number, q_ratio_coeffs)
from fibl.report import exact_report, report_json
from fibl.tilings import Q_RING, convolution_check
from oracles import exact_div, poly_from_json, q_fib_factorial, q_number_base


def P(*coeffs):
    return IntPoly(coeffs)


class TestIntPoly:
    def test_canonical_form(self):
        assert IntPoly([1, 0, 2, 0, 0]).coeffs == (1, 0, 2)
        assert IntPoly([]).is_zero()
        assert IntPoly([0, 0]).is_zero()
        assert IntPoly.zero().degree == -1

    def test_arithmetic(self):
        assert P(1, 1) + P(0, 1, 1) == P(1, 2, 1)
        assert P(1, 2) - P(1, 2) == IntPoly.zero()
        assert P(1, 1) * P(1, 1) == P(1, 2, 1)
        assert -P(1, -2) == P(-1, 2)

    def test_add_zero_is_identity(self):
        p = P(3, 0, 5)
        assert p + IntPoly.zero() == p

    def test_mul_q_numbers(self):
        assert q_number(2) * q_number(2) == P(1, 2, 1)

    def test_shift(self):
        assert P(1, 1).shift(2) == P(0, 0, 1, 1)
        with pytest.raises(ValueError):
            P(1).shift(-1)

    def test_evaluate(self):
        p = P(1, 2, 2, 1)
        assert p.eval_q1() == 6
        assert p.evaluate(2) == 1 + 4 + 8 + 8
        assert p.evaluate(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(1, 2) + Fraction(1, 8)

    def test_json_roundtrip(self):
        p = P(1, 0, -3, 7)
        d = p.to_json()
        assert d["var"] == "q"
        assert d["coeffs"] == [["0", "1"], ["2", "-3"], ["3", "7"]]
        assert poly_from_json(d) == p

    def test_report_elides_sides_over_64_terms(self):
        long, short = IntPoly([1, 0] * 65), IntPoly([1, 0] * 64)
        assert (long.term_count(), short.term_count()) == (65, 64)
        d = json.loads(report_json(exact_report("x", {}, long, short)))
        assert d["lhs"] == {"var": "q", "degree": 128, "terms": 65, "summary": "elided"}
        assert d["rhs"] == short.to_json()

    def test_hash_eq(self):
        assert hash(P(1, 2)) == hash(P(1, 2, 0))
        assert P(1) == 1 and IntPoly.zero() == 0


class TestQNumber:
    def test_examples(self):
        assert q_number(1) == P(1)
        assert q_number(3) == P(1, 1, 1)
        assert q_number(0).is_zero()

    def test_domain(self):
        with pytest.raises(ValueError):
            q_number(-1)

    def test_degree_cap(self):
        old = qpoly.set_degree_cap(100)
        try:
            with pytest.raises(ResourceLimitError) as exc:
                q_number(500)
            assert exc.value.cap == 100
        finally:
            qpoly.set_degree_cap(old)

    @pytest.mark.parametrize("route", [qpoly.q_fibonomial, qpoly.q_fibonomial_recurrence])
    def test_degree_cap_holds_for_cached_fibonomials(self, route):
        route(6, 6)                     # cached now; degree 336
        old = qpoly.set_degree_cap(100)
        try:
            with pytest.raises(ResourceLimitError):
                route(6, 6)
        finally:
            qpoly.set_degree_cap(old)
        assert route(6, 6).degree == qpoly._fibonomial_degree(6, 6)


class TestSubstitutePower:
    def test_examples(self):
        assert q_number(3).substitute_power(1) == q_number(3)
        assert q_number(3).substitute_power(2) == P(1, 0, 1, 0, 1)

    def test_product_identity_instance(self):
        # [2] * [3]_{q^2} = [6]
        assert q_number(2) * q_number(3).substitute_power(2) == q_number(6)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    def test_q_number_product_law(self, m, n):
        assert q_number(m) * q_number(n).substitute_power(m) == q_number(m * n)


class TestExactDiv:
    def test_examples(self):
        assert exact_div(q_number(6), q_number(3)) == P(1, 0, 0, 1)
        p = P(5, 0, 2)
        assert exact_div(p, IntPoly.one()) == p

    def test_not_polynomial_carries_remainder(self):
        with pytest.raises(NotPolynomialError) as exc:
            exact_div(q_number(3), q_number(2))
        assert exc.value.remainder == P(1)

    def test_long_division_contract(self):
        num, den = P(3, 0, 0, 1, 2), P(1, 1)
        res = long_division(num, den)
        assert res.quotient * den + res.remainder == num
        assert res.remainder.degree < den.degree

    @given(st.lists(st.integers(min_value=-9, max_value=9), max_size=12),
           st.lists(st.integers(min_value=-9, max_value=9), max_size=6))
    def test_division_roundtrip(self, a, b):
        pa, pb = IntPoly(a), IntPoly(b + [1])   # force monic divisor
        assert exact_div(pa * pb, pb) == pa

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            long_division(P(1, 1), P(1, 2))


@st.composite
def _ratios(draw):
    """(num, den) index lists; some numerator factors are multiples of
    denominator factors, so both verdicts come up often."""
    den = draw(st.lists(st.integers(min_value=1, max_value=30), max_size=5))
    num = [t * draw(st.integers(min_value=1, max_value=30 // t))
           for t in den if draw(st.booleans())]
    return num + draw(st.lists(st.integers(min_value=1, max_value=30), max_size=4)), den


def _q_number_product(indices):
    out = IntPoly.one()
    for t in indices:
        out = out * q_number(t)
    return out


def _multiply_then_divide(num, den):
    """The ratio engine's earlier schedule, kept as an oracle: multiply out
    every window, then divide out each unpaired factor, [1] included."""
    den, rest = cyclotomic_split(num, den)
    assert not rest
    windows = [(u, 1) for u in sorted(num)]
    unpaired = []
    for t in den:
        i = next((i for i, (u, s) in enumerate(windows) if s == 1 and u % t == 0), None)
        if i is None:
            unpaired.append(t)
        else:
            windows[i] = (windows[i][0] // t, t)
    out = [1]
    for t, stride in sorted(windows, key=lambda w: (w[0] - 1) * w[1]):
        out = kernels.mul_qnumber(out, t, stride)
    for t in unpaired:
        out = list(long_division(IntPoly(out), q_number(t)).quotient.coeffs)
    return out


@st.composite
def _polynomial_ratios(draw):
    """(num, den) that cyclotomic_split accepts: den is the covered part of
    a draw leaning on [1], [2], [3] and [8], which often stay unpaired."""
    num = draw(st.lists(st.integers(min_value=1, max_value=40), max_size=6))
    den = draw(st.lists(st.sampled_from([1, 2, 3, 8]) | st.integers(min_value=1, max_value=40),
                        max_size=7))
    return num, cyclotomic_split(num, den)[0]


class TestRatioEngine:
    """The ratio engine against long division of the multiplied-out products."""

    @given(_ratios())
    @example(([6], [2, 3]))             # Phi_6 = 1 - q + q^2
    @example(([4], [2, 2]))             # Phi_2 twice against once
    @example(([], []))
    def test_agrees_with_long_division(self, ratio):
        num, den = ratio
        res = long_division(_q_number_product(num), _q_number_product(den))
        _, rest = cyclotomic_split(num, den)
        assert (not rest) == res.remainder.is_zero()
        if rest:
            with pytest.raises(NotPolynomialError):
                q_ratio_coeffs(num, den)
        else:
            assert IntPoly(kernels.unfold(*q_ratio_coeffs(num, den))) == res.quotient

    @given(_polynomial_ratios())
    @example(([6], [3, 2, 1]))          # [2] and [1] left unpaired
    @example(([24], [8, 3]))            # [3] unpaired
    @example(([24, 4], [12, 8]))        # [8] unpaired
    @example(([2, 3, 5, 8, 13, 21], [8, 5, 3, 2, 1, 1]))
    def test_matches_multiply_then_divide(self, ratio):
        num, den = ratio
        assert kernels.unfold(*q_ratio_coeffs(num, den)) == _multiply_then_divide(num, den)

    def test_divides_as_soon_as_covered_and_never_by_one(self, monkeypatch):
        # windows [2]_{q^3} = [6]/[3] and [2]_{q^5} = [10]/[5], in that
        # order; [2] is unpaired and covered by the first, and [1], unpaired
        # too since no window of stride 1 is left, is never divided
        events = []
        mul, div = kernels.mul_qnumber, kernels.div_qnumber

        def spy_mul(coeffs, t, stride=1, length=None):
            events.append(("mul", t, stride))
            return mul(coeffs, t, stride, length)

        def spy_div(half, t, stride, length, times=1):
            events.append(("div", t) if times == 1 else ("div", t, "times", times))
            return div(half, t, stride, length, times=times)
        monkeypatch.setattr(kernels, "mul_qnumber", spy_mul)
        monkeypatch.setattr(kernels, "div_qnumber", spy_div)
        got = q_ratio_coeffs([6, 10], [5, 3, 2, 1])
        assert events == [("mul", 2, 3), ("div", 2), ("mul", 2, 5)]
        monkeypatch.undo()
        assert kernels.unfold(*got) == _multiply_then_divide([6, 10], [5, 3, 2, 1])

    def test_split_is_descending_and_stops_at_the_first_shortfall(self):
        # [5][12]/([2][3][4]): [4] and [3] are covered by [12], [2] is not
        assert cyclotomic_split([5, 12], [2, 3, 4]) == ([4, 3], [2])
        assert cyclotomic_split([12], [4, 3]) == ([4, 3], [])

    def test_indices_must_be_positive(self):
        with pytest.raises(ValueError):
            q_ratio_coeffs([3, 0], [])

    @given(_polynomial_ratios(), st.data())
    def test_start_matches_from_scratch(self, ratio, data):
        num, den = ratio
        den = data.draw(st.permutations(den))
        i = data.draw(st.integers(min_value=0, max_value=len(num)))
        j = data.draw(st.integers(min_value=0, max_value=len(den)))
        if cyclotomic_split(num[:i], den[:j])[1]:
            j = 0
        start = [(q_ratio_coeffs(num[:i], den[:j]), num[:i], den[:j])]
        assert q_ratio_coeffs(num, den, start) == q_ratio_coeffs(num, den)
        assert start == []

    def test_start_may_cover_a_pending_factor(self):
        # [6] / [2] from the start [6]: [2] is divided before any window
        start = [(q_ratio_coeffs([6], []), [6], [])]
        assert q_ratio_coeffs([6], [2], start) == ([1, 0, 1], 5)

    def test_start_factors_must_be_prefixes(self):
        with pytest.raises(ValueError):
            q_ratio_coeffs([2, 3], [1], [(([1, 1], 3), [3], [])])
        with pytest.raises(ValueError):
            q_ratio_coeffs([6], [2], [(([1, 1, 1], 6), [6], [3])])


# Ratios whose engine runs take every kind of kernel step: a window
# multiplied in, a window and an unpaired [t] in one fused step, and a
# plain division.  (6, 10) and (8, 9) are rows of `catalan sweep` built
# from scratch; [24][4] / ([12][8]) divides [8] after its last window.
ENGINE_RATIOS = [
    ([fib(k) for k in range(11, 16)], [fib(k) for k in range(1, 7)]),
    ([fib(k) for k in range(10, 17)], [fib(k) for k in range(1, 9)]),
    ([24, 4], [12, 8]),
]


def _spy_engine_steps(monkeypatch, change=None):
    """Route the engine's kernel calls through spies; returns the list of
    steps, each (kind, n) for a product or dividend of n coefficients.
    ``change(step, out)``, if given, may alter each step's output."""
    real_mul, real_div = kernels.mul_qnumber, kernels.div_qnumber
    steps = []

    def step(kind, n, call):
        steps.append((kind, n))
        out = call()
        if change is not None and out is not None:
            change(len(steps) - 1, out)
        return out

    def mul_qnumber(coeffs, t, stride=1, length=None):
        assert length is not None and len(coeffs) == (length + 1) // 2
        return step("mul", length + (t - 1) * stride,
                    lambda: real_mul(coeffs, t, stride, length))

    def div_qnumber(half, t, stride, length, times=1):
        assert len(half) == (length + 1) // 2
        return step("fused" if times > 1 else "div", length + (times - 1) * stride,
                    lambda: real_div(half, t, stride, length, times=times))

    monkeypatch.setattr(kernels, "mul_qnumber", mul_qnumber)
    monkeypatch.setattr(kernels, "div_qnumber", div_qnumber)
    return steps


def test_ratio_engine_sums_the_low_half_of_each_window(monkeypatch):
    """Every partial product is palindromic and passed as its low half, and
    each kernel step, of every kind, sums one window over the low half of
    its own product or dividend: ceil(n/2) of its n coefficients.  A fused
    step's dividend p [u] is never built, yet its window spans that
    dividend's low half."""
    kinds = set()
    for num, den in ENGINE_RATIOS:
        steps = _spy_engine_steps(monkeypatch)
        real_sum, sums = kernels._window_sum, []

        def window_sum(a, shift, step):
            sums.append((len(a), (steps[-1][1] + 1) // 2))
            return real_sum(a, shift, step)

        monkeypatch.setattr(kernels, "_window_sum", window_sum)
        got = q_ratio_coeffs(num, den)
        monkeypatch.undo()
        assert len(sums) == len(steps)
        assert all(length == half for length, half in sums)
        kinds.update(kind for kind, _ in steps)
        assert kernels.unfold(*got) == list(exact_div(_q_number_product(num),
                                                      _q_number_product(den)).coeffs)
    assert kinds == {"mul", "fused", "div"}


@pytest.mark.parametrize("bump", (-1, 1))
def test_ratio_engine_rejects_a_changed_partial_product(monkeypatch, bump):
    """One coefficient of one step's output, multiply, fused or plain
    division, off by one, at either end or inside: a later exact division
    or the check at q = 1 raises, so the changed quotient is never
    returned."""
    for num, den in ENGINE_RATIOS:
        steps = _spy_engine_steps(monkeypatch)
        q_ratio_coeffs(num, den)
        monkeypatch.undo()
        for call in range(len(steps)):
            for where in (0, 1, 2):
                def change(step, out):
                    if step == call:
                        out[(len(out) - 1) * where // 2] += bump
                seen = _spy_engine_steps(monkeypatch, change)
                with pytest.raises(NotPolynomialError, match="^internal error"):
                    q_ratio_coeffs(num, den)
                assert len(seen) > call
                monkeypatch.undo()


class TestFactorial:
    def test_examples(self):
        assert q_fib_factorial(0) == IntPoly.one()
        assert q_fib_factorial(3) == P(1, 1)
        assert q_fib_factorial(4) == q_number(2) * q_number(3)

    def test_against_direct_product(self):
        for n in range(0, 12):
            prod = IntPoly.one()
            for k in range(1, n + 1):
                prod = prod * q_number(fib(k))
            assert q_fib_factorial(n) == prod

    def test_uncached_tail(self):
        # a large index (degree ~3 * 10**5) still computes exactly
        big = q_fib_factorial(26)
        assert big.eval_q1() == _int_factorial(26)


def _int_factorial(n):
    out = 1
    for k in range(1, n + 1):
        out *= fib(k)
    return out


class TestFibonomial:
    def test_explicit_2_2(self):
        assert q_fibonomial(2, 2) == P(1, 2, 2, 1)

    def test_trivial_edges(self):
        for m in range(0, 6):
            assert q_fibonomial(m, 0) == IntPoly.one()
            assert q_fibonomial(0, m) == IntPoly.one()

    def test_factorial_ratio_definition(self):
        for m in range(0, 7):
            for n in range(0, 7):
                assert exact_div(q_fib_factorial(m + n),
                                 q_fib_factorial(m) * q_fib_factorial(n)) \
                    == q_fibonomial(m, n)

    def test_recurrence_examples(self):
        for m in range(1, 8):
            assert q_fibonomial_recurrence(m, 1) == q_number(fib(m + 1))
        for n in range(1, 8):
            assert q_fibonomial_recurrence(1, n) == q_number(fib(n + 1))
        assert q_fibonomial_recurrence(2, 2) == P(1, 2, 2, 1)

    def test_routes_agree_to_10(self):
        pairs = [(m, n) for m in range(0, 11) for n in range(0, 11)]
        for m, n in pairs + [(12, 9), (9, 12), (11, 11), (12, 12)]:
            assert q_fibonomial(m, n) == q_fibonomial_recurrence(m, n)

    def test_symmetry(self):
        for m in range(0, 9):
            for n in range(m, 9):
                assert q_fibonomial(m, n) == q_fibonomial(n, m)

    def test_q1_shadow(self):
        for m in range(0, 11):
            for n in range(0, 11):
                assert q_fibonomial(m, n).eval_q1() == fibonomial_int(m, n)
        assert fibonomial_int(5, 5) == 136136

    def test_nonnegative_coefficients(self):
        for m in range(0, 11):
            for n in range(m, 11):
                assert min(q_fibonomial(m, n).coeffs) >= 0

    def test_recurrence_memo_thread_safe(self):
        tilings.reset_caches()
        results = []

        def worker():
            results.append(q_fibonomial_recurrence(6, 6))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)
        assert results[0] == q_fibonomial(6, 6)

    def test_recurrence_lattice_is_bounded(self):
        tilings.reset_caches()
        for m in range(0, 14):
            for n in range(0, 14 - m):
                assert q_fibonomial_recurrence(m, n) == q_fibonomial(m, n), (m, n)
        assert 0 < len(Q_RING.recurrence_lattice) <= 2048 + 196
        tilings.reset_caches()
        assert Q_RING.recurrence_lattice == {}
        Q_RING.recurrence_lattice.update({(-i, 0): None for i in range(2049)})
        assert q_fibonomial_recurrence(3, 4) == q_fibonomial(3, 4)
        assert len(Q_RING.recurrence_lattice) == 4 * 5


class TestQNumberIdentities:
    def test_addition_identity_to_50(self):
        for m in range(1, 51):
            qm = q_number(m)
            for n in range(1, 51):
                assert q_number(m + n) == qm + q_number(n).shift(m)

    def test_product_identity_to_30(self):
        for m in range(1, 31):
            for n in range(1, 31):
                assert q_number(m * n) == q_number(m) * q_number(n).substitute_power(m)

    def test_fib_splitting_identity(self):
        # [F_{m+n}] = [F_n][F_{m+1}]_{q^{F_n}} + q^{F_n F_{m+1}} [F_m][F_{n-1}]_{q^{F_m}}
        # dense verification clipped to m+n <= 22 (degree F_22 - 1 = 17710);
        # beyond that the left side alone needs ~10^8 coefficients.
        for m in range(1, 21):
            for n in range(1, 21):
                if m + n > 22:
                    continue
                lhs = q_number(fib(m + n))
                rhs = (q_number(fib(n)) * q_number_base(fib(m + 1), fib(n))
                       + (q_number(fib(m)) * q_number_base(fib(n - 1), fib(m)))
                       .shift(fib(n) * fib(m + 1)))
                assert lhs == rhs, (m, n)


class TestUnimodality:
    def test_examples(self):
        assert is_unimodal(P(1, 2, 2, 1))
        assert is_unimodal(P(1))
        assert not is_unimodal(P(1, 0, 1))

    def test_zero_poly(self):
        assert is_unimodal(IntPoly.zero())


class TestSpiral:
    def test_m1_both_sides(self):
        rep = tilings.spiral_check(Q_RING, 1)
        assert rep.passed
        assert rep.lhs == q_number(2) == P(1, 1)

    def test_m2_both_sides(self):
        rep = tilings.spiral_check(Q_RING, 2)
        assert rep.passed
        assert rep.lhs == P(1, 2, 2, 1)

    def test_through_12(self):
        assert all(tilings.spiral_check(Q_RING, m).passed for m in range(1, 13))

    def test_fails_fast_past_the_cap(self, monkeypatch):
        """A product by a q-number checks its degree before the window sum,
        so no kernel builds a list past the cap: at m = 20 the first factor
        [F_22] already has degree 17,710."""
        built = []
        mul = kernels.mul_qnumber

        def spy_mul(*args, **kwargs):
            built.append(mul(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(kernels, "mul_qnumber", spy_mul)
        old = qpoly.set_degree_cap(1000)
        try:
            with pytest.raises(ResourceLimitError, match="exceeds the degree cap 1000"):
                tilings.spiral_check(Q_RING, 20)
        finally:
            qpoly.set_degree_cap(old)
        assert not any(isinstance(out, list) for out in built)


def _convolution_rhs_by_products(m, n):
    """The convolution formula's right side, built as IntPoly products of
    q_number_base factors."""
    rhs, prod = IntPoly.zero(), IntPoly.one()
    for j in range(n + 1):
        if j > 0:
            prod = prod * q_number_base(fib(m + 1), fib(n - j + 1))
        fterm = IntPoly.one() if j == n else q_number_base(fib(n - 1 - j), fib(m))
        if not fterm.is_zero():
            term = prod * fterm * q_fibonomial(m - 1, n - j)
            rhs = rhs + term.shift(fib(m + 1) * fib(n - j))
    return rhs


class TestConvolution:
    def test_rhs_matches_product_form(self):
        for m in range(1, 9):
            for n in range(1, 9):
                rep = convolution_check(Q_RING, m, n)
                assert rep.rhs == _convolution_rhs_by_products(m, n), (m, n)
                assert rep.passed

    def test_examples(self):
        assert convolution_check(Q_RING, 1, 1).passed
        assert convolution_check(Q_RING, 2, 2).passed
        assert convolution_check(Q_RING, 4, 3).passed

    def test_horner_nesting_takes_two_passes_per_step(self, monkeypatch):
        calls = []
        mul = kernels.mul_qnumber

        def spy_mul(coeffs, t, stride=1):
            calls.append((t, stride))
            return mul(coeffs, t, stride)
        for n in range(1, 9):
            convolution_check(Q_RING, 5, n)      # warms the q_fibonomial cache
            monkeypatch.setattr(kernels, "mul_qnumber", spy_mul)
            calls.clear()
            assert convolution_check(Q_RING, 5, n).passed
            monkeypatch.setattr(kernels, "mul_qnumber", mul)
            # one [F_6]_{q^{F_{n-j}}} pass per j < n, one [F_{n-1-j}]_{q^{F_5}} pass per term
            assert len(calls) == 2 * n - 1, (n, calls)

    def test_report_contents(self):
        rep = convolution_check(Q_RING, 2, 2)
        assert rep.lhs == P(1, 2, 2, 1)
        assert rep.tolerance is None


small = st.lists(st.integers(min_value=-20, max_value=20), max_size=10)


@given(small, small, small)
def test_ring_axioms(a, b, c):
    pa, pb, pc = IntPoly(a), IntPoly(b), IntPoly(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc


@given(small, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_substitution_is_multiplicative(a, m, n):
    p = IntPoly(a)
    assert p.substitute_power(m).substitute_power(n) == p.substitute_power(m * n)


@given(small, small)
def test_evaluation_is_ring_hom(a, b):
    pa, pb = IntPoly(a), IntPoly(b)
    x = Fraction(2, 3)
    assert (pa * pb).evaluate(x) == pa.evaluate(x) * pb.evaluate(x)
    assert (pa + pb).evaluate(x) == pa.evaluate(x) + pb.evaluate(x)
