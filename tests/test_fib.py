import math
import threading

import pytest
from hypothesis import given, strategies as st

from fibl.fib import fib, spiral_exponent


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


def test_spiral_exponent_examples():
    for m in range(0, 10):
        assert spiral_exponent(m + 1, m) == 0      # empty sum
    assert spiral_exponent(1, 2) == 3              # F_2 + F_3
    assert spiral_exponent(2, 4) == 10             # F_3 + F_4 + F_5


def test_spiral_exponent_matches_direct_summation():
    for m in range(0, 20):
        for k in range(1, m + 2):
            assert spiral_exponent(k, m) == sum(fib(i + 1) for i in range(k, m + 1))


def test_spiral_exponent_recurrence():
    for m in range(1, 31):
        for k in range(1, m + 1):
            assert spiral_exponent(k, m) == spiral_exponent(k + 1, m) + fib(k + 1)


def test_spiral_exponent_domain():
    with pytest.raises(ValueError):
        spiral_exponent(0, 3)
    with pytest.raises(ValueError):
        spiral_exponent(5, 3)


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
