"""Algebraic properties of the dense-polynomial kernels, each checked
against an independent route where one exists (dense product, long
division, schoolbook multiplication)."""

import random
from operator import gt, indexOf, lt

import pytest
from hypothesis import assume, example, given, strategies as st

from fibl import kernels
from fibl.qpoly import IntPoly, long_division


def naive_qnumber(t, s):
    out = [0] * ((t - 1) * s + 1)
    for j in range(t):
        out[j * s] = 1
    return out


def test_mul_qnumber_matches_dense():
    p = [3, 0, -2, 7, 1]
    for t in (1, 2, 3, 5):
        for s in (1, 2, 4):
            assert kernels.mul_qnumber(list(p), t, s) == kernels.mul_dense(list(p), naive_qnumber(t, s))


def low_half(p):
    return p[:(len(p) + 1) // 2]


def div_dense(r, t, s=1):
    """div_qnumber on the palindrome r, passed as a copy of its low half,
    with the quotient unfolded and trimmed; None when not exact."""
    got = kernels.div_qnumber(low_half(r), t, s, len(r))
    return None if got is None else kernels.trim(kernels.unfold(got, len(r) - (t - 1) * s))


def mul_untrimmed(r, t, s):
    """mul_qnumber's dense product r [t]_{q^s} with the trailing zeros it
    trims put back, so that the product of a palindrome is one."""
    prod = kernels.mul_qnumber(list(r), t, s)
    return prod + [0] * (len(r) + (t - 1) * s - len(prod))


def divide_by_long_division(r, t, s):
    """r / [t]_{q^s} by long division, trimmed; None when not exact."""
    res = long_division(IntPoly(r), IntPoly(naive_qnumber(t, s)))
    return list(res.quotient.coeffs) if res.remainder.is_zero() else None


def test_div_inverts_mul():
    # p is no palindrome, so long division undoes the dense product; the
    # palindrome p + reversed p goes through the kernel
    p = [1, -4, 2, 0, 9]
    for t in (2, 3, 8):
        for s in (1, 3):
            prod = kernels.mul_qnumber(list(p), t, s)
            assert divide_by_long_division(prod, t, s) == [1, -4, 2, 0, 9]
            pal = p + p[::-1]
            assert div_dense(mul_untrimmed(pal, t, s), t, s) == pal


def test_div_detects_inexact():
    assert div_dense([1, 1, 1], 2) is None          # [3] / [2]
    assert div_dense([1, 0, 1], 2) is None
    assert div_dense([1, 1, 1, 1, 1, 1], 3) == [1, 0, 0, 1]   # [6] / [3]


def test_div_shorter_than_divisor():
    assert div_dense([1, 1], 3) is None


def test_zero_and_unit_cases():
    assert kernels.mul_qnumber([], 3) == []
    assert kernels.mul_qnumber([2, 1], 0) == []
    assert kernels.mul_qnumber([2, 1], 1) == [2, 1]
    assert div_dense([], 5) == []
    assert div_dense([0], 2) == []
    assert div_dense([0, 0], 2) == []
    assert div_dense([0, 0, 0], 3) == []
    with pytest.raises(ZeroDivisionError):
        div_dense([1], 0)


def test_scan_unimodal():
    assert kernels.scan_unimodal([])
    assert kernels.scan_unimodal([5])
    assert kernels.scan_unimodal([1, 2, 2, 1])
    assert kernels.scan_unimodal([1, 1, 1])
    assert not kernels.scan_unimodal([1, 0, 1])
    assert not kernels.scan_unimodal([2, 1, 2])
    assert kernels.scan_unimodal([0, 0, 1, 3, 3, 2])
    assert kernels.scan_unimodal((3, 2, 2, 0))


def _scan_unimodal_by_maps(coeffs):
    """No rise after the first descent, found with two C-level maps: an
    independent route for the one-pass loop of scan_unimodal."""
    try:
        down = indexOf(map(gt, coeffs, coeffs[1:]), True) + 1
    except ValueError:
        return True
    return not any(map(lt, coeffs[down:], coeffs[down + 1:]))


# small values give plateaus, interior zeros and negative runs
@given(st.lists(st.integers(min_value=-2, max_value=3), max_size=12))
def test_scan_unimodal_matches_maps(coeffs):
    assert kernels.scan_unimodal(coeffs) == _scan_unimodal_by_maps(coeffs)
    assert kernels.scan_unimodal(tuple(coeffs)) == _scan_unimodal_by_maps(coeffs)


# A palindrome is unimodal iff its low half is non-decreasing; the
# oracles are the one-pass loop kept for other input and the two maps.
unimodal_seqs = st.lists(st.integers(min_value=-2, max_value=3), max_size=12)


@given(unimodal_seqs | unimodal_seqs.map(lambda h: h + h[::-1])
       | unimodal_seqs.map(lambda h: h + h[-2::-1]))
def test_scan_unimodal_of_palindromes_matches_the_loop(coeffs):
    want = kernels._rises_then_falls(coeffs)
    assert want == _scan_unimodal_by_maps(coeffs)
    assert kernels.scan_unimodal(coeffs) == want
    assert kernels.scan_unimodal(tuple(coeffs)) == want


@pytest.mark.parametrize("coeffs, want", [
    ([1, 2, 2, 1], True), ([1, 2, 1, 2, 1], False), ([1, 0, 1], False),
    ([0, 1, 0], True), ([2, 2, 2], True), ([1, 3, 2, 3, 1], False), ([3, 1, 3], False)])
def test_scan_unimodal_palindrome_cases(coeffs, want):
    assert kernels.scan_unimodal(coeffs) == kernels._rises_then_falls(coeffs) == want


def test_coeff_min_max():
    assert kernels.coeff_min_max([]) is None
    assert kernels.coeff_min_max([4]) == (4, 4)
    assert kernels.coeff_min_max([3, -7, 12, 0]) == (-7, 12)


small_polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=20)


def naive_window_sum(a, shift, step):
    y = []
    for i, v in enumerate(a):
        y.append(v - (a[i - shift] if i >= shift else 0) + (y[i - step] if i >= step else 0))
    return y


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=90),
       st.integers(min_value=1, max_value=100), st.integers(min_value=1, max_value=40))
def test_window_sum_follows_its_recurrence(a, shift, step):
    # steps below and above _BLOCK_STEP, shifts below, at and past len(a)
    b = list(a)
    assert kernels._window_sum(b, shift, step) is b
    assert b == naive_window_sum(a, shift, step)


# Lists of several blocks are rewritten block by block:
# shifts and steps below, at and above _BLOCK_STEP and the block size,
# and lengths that end just past a block boundary.
BLOCK = kernels._BLOCK


@pytest.mark.parametrize("n", [BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("shift", [1, 7, BLOCK - 1, BLOCK, BLOCK + 3, 2 * BLOCK + 11, 4 * BLOCK])
@pytest.mark.parametrize("step", [1, 5, kernels._BLOCK_STEP - 1, kernels._BLOCK_STEP, 100,
                                  BLOCK - 1, BLOCK, BLOCK + 7, 2 * BLOCK + 3])
def test_window_sum_across_blocks(n, shift, step):
    rng = random.Random(n * 1_000_003 + shift * 1009 + step)
    a = [rng.randint(-2**70, 2**70) for _ in range(n)]
    got = list(a)
    assert kernels._window_sum(got, shift, step) is got
    assert got == naive_window_sum(a, shift, step)


# Ownership: a dense product leaves its argument as it was (and long
# division undoes it); a call with ``length`` rewrites the list it is
# given and returns that same list.
@pytest.mark.parametrize("p", [
    [1, 2, 3, 2, 1], [1, 1, 2, 2, 1, 1], [1, 3, 2], [2, 2, 0], [0, 1, 1, 0],
    [1] * (3 * BLOCK + 5), list(range(3 * BLOCK + 5))])
@pytest.mark.parametrize("t, s", [(1, 1), (2, 1), (3, 2), (5, 1)])
def test_dense_calls_leave_their_argument_unchanged(p, t, s):
    arg = list(p)
    prod = kernels.mul_qnumber(arg, t, s)
    assert arg == p
    arg = list(prod)
    assert divide_by_long_division(arg, t, s) == kernels.trim(list(p))
    assert arg == prod


@pytest.mark.parametrize("r, t, s", [
    ([1, 2, 3, 2, 1], 3, 1),                            # exact
    ([1, 2, 4, 2, 1], 3, 1),                            # not exact
    ([1, 1, 1, 1, 1, 1], 1, 4),                         # t = 1
    ([1, 1, 1, 1, 1, 1], 2, 3),                         # divisor longer than the quotient
    ([1, 0, 0, 0, 0, 1], 2, 4),                         # the same, not exact
    ([1] * (3 * BLOCK), 3, 1),                          # [3B] / [3]: several blocks
    ([1] * (3 * BLOCK), 7, 1),                          # [3B] / [7]: not exact
    ([1] * (3 * BLOCK + 5), 2, BLOCK + 2),
])
def test_half_calls_return_the_list_they_consume(r, t, s):
    want = check_half_division(r, t, s)
    half = low_half(r)
    got = kernels.div_qnumber(half, t, s, len(r))
    assert got is (None if want is None else half)
    half = low_half(r)
    assert kernels.mul_qnumber(half, t, s, len(r)) is half
    assert kernels.unfold(half, len(r) + (t - 1) * s) == kernels.mul_dense(r, naive_qnumber(t, s))


@given(small_polys, st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=4))
def test_mul_div_roundtrip_property(p, t, s):
    # any p by long division; the palindrome p + reversed p by the kernel
    trimmed = list(p)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    prod = kernels.mul_qnumber(list(p), t, s)
    assert divide_by_long_division(prod, t, s) == trimmed
    pal = p + p[::-1]
    assert div_dense(mul_untrimmed(pal, t, s), t, s) == kernels.trim(pal)


# Properties of the window kernels against independent routes.
# The window sums take both their paths (per residue class and block by
# block): division sums with period t*s, multiplication with stride s.
padded_polys = st.builds(lambda p, pad: p + [0] * pad, small_polys,
                         st.integers(min_value=0, max_value=4))
window_t = st.integers(min_value=1, max_value=30)
window_s = st.integers(min_value=1, max_value=6)


@given(padded_polys, window_t, st.integers(min_value=1, max_value=30))
def test_mul_qnumber_is_dense_product(p, t, s):
    assert kernels.mul_qnumber(list(p), t, s) == kernels.mul_dense(
        list(p), naive_qnumber(t, s))


@given(padded_polys, window_t, window_s, st.booleans(), st.integers(min_value=0, max_value=3))
def test_div_qnumber_agrees_with_long_division(p, t, s, divisible, pad):
    # the palindrome p + reversed p, times [t]_{q^s} or not, with pad
    # zeros at both ends: zero end coefficients, and often a divisor
    # longer than the quotient
    r = p + p[::-1]
    if divisible:
        r = mul_untrimmed(r, t, s)
    r = [0] * pad + r + [0] * pad
    assert div_dense(r, t, s) == divide_by_long_division(r, t, s)


# A palindromic input with nonzero ends takes mul_qnumber's half sum and
# mirror; anything else, trailing zeros included, takes the full sum.
nonzero_coeffs = st.integers(min_value=-50, max_value=50).filter(bool)


@st.composite
def palindromes(draw):
    """Palindromic lists with nonzero ends, both signs and interior zeros."""
    half = [draw(nonzero_coeffs)] + draw(st.lists(
        st.just(0) | st.integers(min_value=-50, max_value=50), max_size=10))
    mirror = half[::-1]
    return half + (mirror[1:] if draw(st.booleans()) else mirror)


half_t = st.integers(min_value=1, max_value=8)
half_s = st.integers(min_value=1, max_value=5)


@given(palindromes(), half_t, half_s)
def test_mul_qnumber_palindromic_is_dense_product(p, t, s):
    got = kernels.mul_qnumber(list(p), t, s)
    assert got == kernels.mul_dense(list(p), naive_qnumber(t, s))
    assert got == got[::-1]


# palindromes ending in zero; equal to their reverse when lead == pad
zero_padded_palindromes = st.builds(
    lambda p, lead, pad: [0] * lead + p + [0] * pad, palindromes(),
    st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=3))


@given(small_polys.filter(lambda p: p != p[::-1]) | zero_padded_palindromes, half_t, half_s)
def test_mul_qnumber_full_sum_is_dense_product(p, t, s):
    assert kernels.mul_qnumber(list(p), t, s) == kernels.mul_dense(
        list(p), naive_qnumber(t, s))


# div_qnumber sums the series of a palindrome r to M = floor(deg r / 2)
# and tests the rest by mirroring, reading the series as 0 past the
# quotient's degree.  The oracle is long division.
def check_division(r, t, s):
    """Long division of r, and div_qnumber on r without its trailing
    zeros when that is a palindrome, also with a zero added at each end."""
    want = divide_by_long_division(r, t, s)
    r = kernels.trim(list(r))
    if r == r[::-1]:
        assert div_dense(r, t, s) == want
        assert div_dense([0] + r + [0], t, s) == (None if want is None else kernels.trim([0] + want))
    return want


qnumber_factors = st.lists(st.tuples(st.integers(min_value=1, max_value=7),
                                     st.integers(min_value=1, max_value=4)), max_size=4)


def qnumber_product(factors):
    out = [1]
    for a, b in factors:
        out = kernels.mul_dense(out, naive_qnumber(a, b))
    return out


@given(qnumber_factors, half_t, half_s, st.booleans(),
       st.integers(min_value=0, max_value=40), st.integers(min_value=-2, max_value=2))
def test_div_qnumber_on_qnumber_products(factors, t, s, divisible, at, bump):
    r = qnumber_product(factors)
    if divisible:
        r = kernels.mul_dense(r, naive_qnumber(t, s))
    # a bump at j and at its mirror keeps r a palindrome, mostly not divisible
    j = at % len(r)
    r[j] += bump
    if len(r) - 1 - j != j:
        r[len(r) - 1 - j] += bump
    check_division(r, t, s)


@given(palindromes(), half_t, half_s)
def test_div_qnumber_half_path_inverts_mul(p, t, s):
    r = kernels.mul_dense(list(p), naive_qnumber(t, s))
    assert div_dense(r, t, s) == p


@pytest.mark.parametrize("r, t, s, want", [
    ([1, 2, 3, 2, 1], 3, 1, [1, 1, 1]),                 # [3][3] / [3]: M = target
    ([1, 2, 4, 2, 1], 3, 1, None),                      # its middle coefficient off
    ([1, 3, 3, 3, 1], 3, 1, None),
    ([1, 1, 2, 2, 2, 2, 1, 1], 2, 1, [1, 0, 2, 0, 2, 0, 1]),
    ([1, 1, 2, 2, 3, 2, 2, 1, 1], 3, 1, [1, 0, 1, 1, 1, 0, 1]),
    ([1, 1, 2, 2, 4, 2, 2, 1, 1], 3, 1, None),          # D even, middle off
    ([1, 1, 1, 1, 1, 1], 3, 1, [1, 0, 0, 1]),           # [6] / [3]
    ([1, 1, 1, 1, 1, 1], 2, 3, [1, 1, 1]),              # (t-1)s = 3 > target = 2
    ([1, 0, 0, 1], 2, 3, [1]),                          # stride 3 > M + 1 = 2
    ([1, 0, 0, 0, 0, 1], 2, 5, [1]),
    ([1, 0, 0, 0, 0, 1], 2, 4, None),
    ([2, 2, 0], 2, 1, [2]),                             # trailing zeros are trimmed
    ([1, 2, 1, 0, 0], 2, 1, [1, 1]),
    ([1, 3, 2], 2, 1, [1, 2]),                          # not a palindrome: long division only
    ([1, 3, 3], 2, 1, None),
])
def test_div_qnumber_cases(r, t, s, want):
    assert check_division(r, t, s) == want


@pytest.mark.parametrize("r, t, s", [
    ([1, 2, 3, 2, 1], 3, 1), ([1, 2, 4, 2, 1], 3, 1), ([1, 1, 1, 1, 1, 1], 3, 1),
    ([1, 1, 2, 2, 2, 2, 1, 1], 2, 1), ([1, 0, 2, 0, 2, 0, 1], 2, 2),
    ([1, 1, 1, 1, 1, 1], 2, 3), ([1, 0, 0, 0, 0, 1], 2, 4)])    # longer divisors too
def test_div_qnumber_sums_half_of_a_palindrome(monkeypatch, r, t, s):
    real_sum, lengths = kernels._window_sum, []

    def window_sum(a, b, step):
        lengths.append(len(a))
        return real_sum(a, b, step)
    monkeypatch.setattr(kernels, "_window_sum", window_sum)
    assert r == r[::-1]
    kernels.div_qnumber(low_half(r), t, s, len(r))
    assert lengths == [(len(r) - 1) // 2 + 1]


# The half form: a palindrome of length n passed as its first ceil(n/2)
# coefficients, with n.  The oracles are mul_dense and long division on
# the unfolded lists.
def q1_value(half, length):
    """The value at q = 1 of the palindrome unfold(half, length)."""
    return 2 * sum(half) - (half[-1] if length % 2 else 0)


@given(palindromes() | qnumber_factors.map(qnumber_product), half_t,
       st.integers(min_value=1, max_value=30))
def test_mul_qnumber_on_halves_is_dense_product(p, t, s):
    want = kernels.mul_dense(list(p), naive_qnumber(t, s))
    got = kernels.mul_qnumber(low_half(p), t, s, len(p))
    assert got == low_half(want)
    assert kernels.unfold(got, len(want)) == want


def check_half_division(r, t, s):
    """div_qnumber on the low half of r against long division of r."""
    res = long_division(IntPoly(r), IntPoly(naive_qnumber(t, s)))
    got = kernels.div_qnumber(low_half(r), t, s, len(r))
    if not res.remainder.is_zero():
        assert got is None
        return None
    want = list(res.quotient.coeffs)
    assert len(want) == len(r) - (t - 1) * s
    assert got == low_half(want)
    assert kernels.unfold(got, len(want)) == want
    return want


@given(qnumber_factors, half_t, half_s, st.booleans(),
       st.integers(min_value=0, max_value=40), st.integers(min_value=-2, max_value=2))
def test_div_qnumber_on_halves_agrees_with_long_division(factors, t, s, divisible, at, bump):
    r = qnumber_product(factors)
    if divisible:
        r = kernels.mul_dense(r, naive_qnumber(t, s))
    j = at % len(r)
    r[j] += bump
    if len(r) - 1 - j != j:
        r[len(r) - 1 - j] += bump
    assume(r[0] != 0)
    check_half_division(r, t, s)


@given(palindromes(), half_t, half_s)
def test_div_qnumber_on_halves_inverts_mul(p, t, s):
    r = kernels.mul_dense(list(p), naive_qnumber(t, s))
    assert check_half_division(r, t, s) == p


@pytest.mark.parametrize("r, t, s, want", [
    ([1, 2, 3, 2, 1], 3, 1, [1, 1, 1]),                 # odd lengths
    ([1, 2, 4, 2, 1], 3, 1, None),
    ([1, 1, 2, 2, 2, 2, 1, 1], 2, 1, [1, 0, 2, 0, 2, 0, 1]),   # even, odd
    ([1, 1, 2, 1, 1], 2, 1, None),
    ([1, 1, 1, 1, 1, 1], 3, 1, [1, 0, 0, 1]),           # even, even
    ([1, 1, 1, 1, 1, 1], 1, 4, [1, 1, 1, 1, 1, 1]),     # t = 1
    ([1, 0, 2, 0, 3, 0, 2, 0, 1], 3, 2, [1, 0, 1, 0, 1]),      # stride > 1
    ([1, 0, 2, 0, 4, 0, 2, 0, 1], 3, 2, None),
    # divisors longer than the quotient: the mirror test reads the series
    # as 0 past the quotient's degree
    ([1, 1, 1, 1, 1, 1], 2, 3, [1, 1, 1]),
    ([1, 0, 0, 1], 2, 3, [1]),
    ([1, 0, 0, 0, 0, 1], 2, 5, [1]),
    ([1, 0, 0, 0, 0, 1], 2, 4, None),
    ([1, 0, 1, 0, 1, 0, 1], 4, 2, [1]),
    ([1, 1, 2, 1, 1], 3, 2, None),
])
def test_div_qnumber_on_halves_cases(r, t, s, want):
    assert check_half_division(r, t, s) == want


@given(palindromes() | qnumber_factors.map(qnumber_product), half_t, half_s, st.data())
def test_div_qnumber_on_halves_rejects_a_changed_coefficient(q, t, s, data):
    # one coefficient of the dividend's low half off by one: the kernel
    # returns None, or a quotient whose value at q = 1 gives it away
    r = kernels.mul_dense(list(q), naive_qnumber(t, s))
    half = low_half(r)
    half[data.draw(st.integers(min_value=0, max_value=len(half) - 1))] += \
        data.draw(st.sampled_from((-1, 1)))
    got = kernels.div_qnumber(half, t, s, len(r))
    assert got is None or q1_value(got, len(q)) != q1_value(low_half(q), len(q))


@pytest.mark.parametrize("t, s", [(2, 1), (3, 1), (2, 3), (5, 2)])
def test_div_qnumber_on_halves_rejects_every_changed_coefficient(t, s):
    q = [1, 2, 3, 5, 5, 3, 2, 1]
    r = kernels.mul_dense(q, naive_qnumber(t, s))
    for j in range(len(low_half(r))):
        for bump in (-1, 1):
            half = low_half(r)
            half[j] += bump
            got = kernels.div_qnumber(half, t, s, len(r))
            assert got is None or q1_value(got, len(q)) != q1_value(low_half(q), len(q))


# div_qnumber with ``times`` = u divides p [u]_{q^s} by [t]_{q^s} in one
# window sum and never builds the dividend.  The oracle is long division
# of the dense product.  t | u or not; p divisible by [t] or not; zero
# ends, zero lists, and divisors longer than the dividend (target < 0).
@given(palindromes() | qnumber_factors.map(qnumber_product)
       | st.integers(min_value=0, max_value=3).map(lambda k: [0] * k),
       st.integers(min_value=1, max_value=12), half_t, half_s,
       st.booleans(), st.booleans(), st.integers(min_value=0, max_value=2))
@example([1, 0, 0, 1], 3, 6, 1, False, False, 0)       # [2]_{q^3} [3] / [6] = 1, 6 does not divide 3
@example([1, 1], 2, 3, 1, False, False, 0)             # [2][2] / [3]: not exact
@example([1, 1], 1, 5, 1, False, False, 1)             # [2] / [5]: target < 0
@example([0, 0], 1, 5, 1, False, False, 0)             # 0 / [5]: target < 0, exact
@example([1, 2, 1], 2, 2, 3, True, True, 0)            # u = 2t and [t] | p
def test_fused_division_agrees_with_long_division(p, k, t, s, multiple, divisible, pad):
    u = t * k if multiple else k
    if divisible:
        p = kernels.mul_dense(p, naive_qnumber(t, s)) or p
    p = [0] * pad + p + [0] * pad
    assert p == p[::-1]
    want = divide_by_long_division(kernels.mul_dense(p, naive_qnumber(u, s)), t, s)
    n = len(p) + (u - t) * s                    # the quotient's length
    got = kernels.div_qnumber(low_half(p), t, s, len(p), times=u)
    if want is None:
        assert got is None
    else:
        assert len(got) == max(n + 1, 0) // 2
        assert kernels.trim(kernels.unfold(got, n) if n > 0 else got) == want


def test_unfold():
    assert kernels.unfold([1, 2, 3], 5) == [1, 2, 3, 2, 1]
    assert kernels.unfold([1, 2, 3], 6) == [1, 2, 3, 3, 2, 1]
    assert kernels.unfold([7], 1) == [7]
    assert kernels.unfold([], 0) == []


# mul_dense is Kronecker substitution; the oracle is the schoolbook product.
def schoolbook(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


wide = st.integers(min_value=-(2**100), max_value=2**100)
coeff_lists = st.one_of(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=40),
    st.lists(wide, min_size=1, max_size=25),
    st.lists(st.integers(min_value=0, max_value=2**100), min_size=1, max_size=25),
    st.integers(min_value=1, max_value=12).map(lambda n: [0] * n))


@given(coeff_lists, coeff_lists)
def test_mul_dense_is_schoolbook_product(a, b):
    assert kernels.mul_dense(list(a), list(b)) == schoolbook(a, b)


@pytest.mark.parametrize("a, b", [
    ([0, 0, 0], [2**100, -(2**100), 7]),       # all-zero factor beside a large one
    ([-(2**100)], [2**100 - 1]),
    ([5], [-3]),
    ([-1] * 30, [-1] * 30),
    ([2**64 - 1] * 3, [2**64 - 1] * 3),
    ([0], [3, -1, 2]),                           # scalar factors, zero ones too
    ([-2], [0, 5, 0, 0]),
    ([7], [0]),
])
def test_mul_dense_edge_cases(a, b):
    assert kernels.mul_dense(list(a), list(b)) == schoolbook(a, b)
    assert kernels.mul_dense(list(b), list(a)) == schoolbook(a, b)
    assert kernels.mul_dense(list(a), []) == []
