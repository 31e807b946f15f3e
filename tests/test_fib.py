import math
import threading

import pytest
from hypothesis import given, strategies as st

from fibl.fib import fib
from fibl.qpoly import IntPoly
from fibl.tilings import Q_RING


def test_sequence_prefix():
    assert [fib(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_extended_index():
    assert fib(-1) == 1
    assert fib(-1) + fib(0) == fib(1)


def test_one_step_past_listed_values():
    assert fib(10) == 55


def test_domain_error():
    with pytest.raises(ValueError):
        fib(-2)


def test_big_values_are_exact():
    assert fib(93) == fib(92) + fib(91)
    assert fib(93) > 2**63          # would overflow a machine word
    assert fib(300) == fib(299) + fib(298)


@given(st.integers(min_value=1, max_value=500))
def test_recurrence(n):
    assert fib(n + 1) == fib(n) + fib(n - 1)


def _gcd_law(m, n):
    return math.gcd(fib(m), fib(n)) == fib(math.gcd(m, n))


def _addition_law(m, n):
    return fib(m + n) == fib(n) * fib(m + 1) + fib(m) * fib(n - 1)


def test_gcd_check_examples():
    assert _gcd_law(6, 9)
    assert math.gcd(fib(6), fib(9)) == 2 == fib(3)
    assert _gcd_law(4, 6)
    assert math.gcd(fib(4), fib(6)) == 1 == fib(2)
    for n in (1, 7, 30):
        assert _gcd_law(1, n)


def test_gcd_check_full_range():
    assert all(_gcd_law(m, n) for m in range(1, 61) for n in range(1, 61))


def test_addition_check_examples():
    assert _addition_law(1, 1)
    assert fib(7) == 13 == fib(4) * fib(4) + fib(3) * fib(3)
    assert _addition_law(3, 4)
    assert _addition_law(10, 10)


def test_addition_check_full_range():
    assert all(_addition_law(m, n)
               for m in range(1, 201) for n in range(1, 201))


def _spiral_weight(k, m):
    """Omega_k^m = prod_{i=k}^{m} omega2(i, 2) in the q ring, the spiral's
    weight on [F_k]^2; k = m + 1 is the empty product."""
    omega = Q_RING.one
    for i in range(k, m + 1):
        omega = Q_RING.times_omega2(omega, i, 2)
    return omega


def _monomial_exponent(p):
    assert p.coeffs[-1] == 1 and p.coeffs.count(0) == p.degree, p
    return p.degree


def test_spiral_exponent_examples():
    for m in range(0, 10):
        assert _spiral_weight(m + 1, m) == IntPoly.monomial(0)    # empty product
    assert _spiral_weight(1, 2) == IntPoly.monomial(3)            # F_2 + F_3
    assert _spiral_weight(2, 4) == IntPoly.monomial(10)           # F_3 + F_4 + F_5


def test_spiral_exponent_matches_direct_summation():
    """c_k^m = F_{k+1} + ... + F_{m+1}, which telescopes to F_{m+3} - F_{k+2}."""
    for m in range(0, 20):
        for k in range(1, m + 2):
            c = sum(fib(i + 1) for i in range(k, m + 1))
            assert _spiral_weight(k, m) == IntPoly.monomial(c), (k, m)
            assert c == fib(m + 3) - fib(k + 2), (k, m)


def test_spiral_exponent_recurrence():
    """c_k^m = c_{k+1}^m + F_{k+1}, walking k down from the empty product."""
    for m in range(1, 31):
        omega = Q_RING.one
        for k in range(m, 0, -1):
            step = Q_RING.times_omega2(omega, k, 2)
            assert _monomial_exponent(step) == _monomial_exponent(omega) + fib(k + 1), (k, m)
            omega = step


def test_q1_spiral_identity():
    for m in range(1, 41):
        assert fib(m + 2) * fib(m + 1) == sum(fib(k) ** 2 for k in range(1, m + 2))


def test_memo_is_thread_safe():
    results = []

    def worker():
        results.append(fib(3000))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == fib(2999) + fib(2998)
