"""Algebraic properties of the dense-polynomial kernels, each checked
against an independent route where one exists (dense product, long
division, schoolbook multiplication)."""

from operator import gt, indexOf, lt

import pytest
from hypothesis import given, strategies as st

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


def test_div_inverts_mul():
    p = [1, -4, 2, 0, 9]
    for t in (2, 3, 8):
        for s in (1, 3):
            prod = kernels.mul_qnumber(list(p), t, s)
            assert kernels.div_qnumber(prod, t, s) == [1, -4, 2, 0, 9]


def test_div_detects_inexact():
    assert kernels.div_qnumber([1, 1, 1], 2) is None          # [3] / [2]
    assert kernels.div_qnumber([1, 0, 1], 2) is None
    assert kernels.div_qnumber([1, 1, 1, 1, 1, 1], 3) == [1, 0, 0, 1]   # [6] / [3]


def test_div_shorter_than_divisor():
    assert kernels.div_qnumber([1, 1], 3) is None


def test_zero_and_unit_cases():
    assert kernels.mul_qnumber([], 3) == []
    assert kernels.mul_qnumber([2, 1], 0) == []
    assert kernels.mul_qnumber([2, 1], 1) == [2, 1]
    assert kernels.div_qnumber([], 5) == []
    assert kernels.div_qnumber([0], 2) == []
    assert kernels.div_qnumber([0, 0], 2) == []
    assert kernels.div_qnumber([0, 0, 0], 3) == []
    with pytest.raises(ZeroDivisionError):
        kernels.div_qnumber([1], 0)


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


def test_coeff_min_max():
    assert kernels.coeff_min_max([]) is None
    assert kernels.coeff_min_max([4]) == (4, 4)
    assert kernels.coeff_min_max([3, -7, 12, 0]) == (-7, 12)


small_polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=20)


@given(small_polys, st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=4))
def test_mul_div_roundtrip_property(p, t, s):
    trimmed = list(p)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    prod = kernels.mul_qnumber(list(p), t, s)
    assert kernels.div_qnumber(prod, t, s) == trimmed


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
    r = (kernels.mul_qnumber(list(p), t, s) if divisible else list(p)) + [0] * pad
    res = long_division(IntPoly(r), IntPoly(naive_qnumber(t, s)))
    exact = res.remainder.is_zero()
    assert kernels.div_qnumber(list(r), t, s) == (list(res.quotient.coeffs) if exact else None)



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


# div_qnumber's half-length path: a palindrome r with a nonzero last
# coefficient and (t-1)s <= target sums its series to M = floor(deg r / 2)
# and tests the rest by mirroring.  The oracles are long division and the
# full-length sum, which the same polynomial reaches with a trailing zero.
def takes_half_path(r, t, s):
    target = len(r) - 1 - (t - 1) * s
    return t > 1 and bool(r) and r[-1] != 0 and r == r[::-1] and (t - 1) * s <= target


def check_division(r, t, s):
    """div_qnumber(r) against long division and against the full sum."""
    res = long_division(IntPoly(r), IntPoly(naive_qnumber(t, s)))
    want = list(res.quotient.coeffs) if res.remainder.is_zero() else None
    assert kernels.div_qnumber(list(r), t, s) == want
    assert kernels.div_qnumber(list(r) + [0], t, s) == want
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
    assert kernels.div_qnumber(list(r), t, s) == p


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
    ([2, 2, 0], 2, 1, [2]),                             # trailing zero: full sum
    ([1, 2, 1, 0, 0], 2, 1, [1, 1]),
    ([1, 3, 2], 2, 1, [1, 2]),                          # not a palindrome
    ([1, 3, 3], 2, 1, None),
])
def test_div_qnumber_cases(r, t, s, want):
    assert check_division(r, t, s) == want


@pytest.mark.parametrize("r, t, s", [
    ([1, 2, 3, 2, 1], 3, 1), ([1, 2, 4, 2, 1], 3, 1), ([1, 1, 1, 1, 1, 1], 3, 1),
    ([1, 1, 2, 2, 2, 2, 1, 1], 2, 1), ([1, 0, 2, 0, 2, 0, 1], 2, 2)])
def test_div_qnumber_sums_half_of_a_palindrome(monkeypatch, r, t, s):
    real_sum, lengths = kernels._window_sum, []

    def window_sum(a, b, step):
        lengths.append(len(a))
        return real_sum(a, b, step)
    monkeypatch.setattr(kernels, "_window_sum", window_sum)
    assert takes_half_path(r, t, s)
    kernels.div_qnumber(list(r), t, s)
    assert lengths == [(len(r) - 1) // 2 + 1]


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
