"""Dense-polynomial kernels.

All functions operate on plain lists of Python ints indexed by exponent
(dense form, possibly with trailing zeros).  They are the hot loops behind
q-number products, the ratio engine's exact divisions, generic dense
products and coefficient scans.  The window multiply/divide run their
per-coefficient work in C through ``accumulate`` and ``map``; the dense
product packs both factors into one big integer each.

Every q-number [t]_{q^s} is palindromic, and so is every product of
them.  ``mul_qnumber`` sees this in its input: a palindromic factor with
a nonzero last coefficient gives a palindromic product, so the window
sum runs over the low half only and the high half is its mirror image.
``div_qnumber`` does the same for a palindromic dividend whose divisor
is no longer than the quotient: it sums the series over the dividend's
low half and reads exactness from the series' own mirror symmetry
instead of from its tail.

Everything here is exact integer arithmetic; no kernel ever rounds.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, sub

# window sums with at least this step go block by block (see _window_sum)
_BLOCK_STEP = 24


def trim(coeffs):
    """Drop trailing zeros in place and return the list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _window_sum(a, b, step):
    """Return the list y of len(a) with y[i] = a[i] - b[i] + y[i - step],
    where y[i] = a[i] - b[i] for i < step; b is at least as long as a.

    Small steps sum along the ``step`` residue classes; larger ones go
    block by block, which reads memory in order.  Either way the
    interpreter loops at most max(_BLOCK_STEP, len(a) / _BLOCK_STEP) times
    and the per-coefficient work runs in C.
    """
    if step == 1:
        return list(accumulate(map(sub, a, b)))
    if step < _BLOCK_STEP:
        y = [0] * len(a)
        for j in range(step):
            y[j::step] = accumulate(map(sub, a[j::step], b[j::step]))
        return y
    y = list(map(sub, a[:step], b[:step]))
    for k in range(step, len(a), step):
        y += map(add, map(sub, a[k:k + step], b[k:k + step]), y[k - step:k])
    return y


def mul_qnumber(coeffs, t, stride=1):
    """Multiply ``coeffs`` by 1 + q^s + q^{2s} + ... + q^{(t-1)s}.

    Uses [t]_{q^s} = (1 - q^{ts}) / (1 - q^s): the product r is p - q^{ts} p
    summed with stride s, r[i] = p[i] - p[i-ts] + r[i-s].  When p equals
    its reverse and ends in a nonzero coefficient, the product of length
    n = len(p) + (t-1)s has r[i] = r[n-1-i] (a product of palindromes),
    so only r[i], i < ceil(n/2), is summed and the rest is mirrored.
    Returns a new trimmed list; t = 0 gives the zero polynomial.
    """
    if t <= 0 or not coeffs:
        return []
    if t == 1:
        return trim(list(coeffs))
    ts = t * stride
    if coeffs[-1] and coeffs == coeffs[::-1]:
        n = len(coeffs) + ts - stride          # >= 2 (t >= 2), so n // 2 - 1 >= 0
        half = (n + 1) // 2
        low = _window_sum(coeffs[:half] + [0] * (half - len(coeffs)),
                          [0] * min(ts, half) + coeffs[:max(half - ts, 0)], stride)
        return low + low[n // 2 - 1::-1]
    return trim(_window_sum(coeffs + [0] * (ts - stride), [0] * ts + coeffs, stride))


def div_qnumber(coeffs, t, stride=1):
    """Exactly divide ``coeffs`` by 1 + q^s + ... + q^{(t-1)s}.

    Returns the quotient list, or None when the division is not exact.
    The power series of r / [t]_{q^s} = r (1 - q^s) / (1 - q^{ts}) is
    r - q^s r summed with period ts, p[i] = r[i] - r[i-s] + p[i-ts].  The
    input is divisible iff the series stops at the target degree
    deg(r) - (t-1)s; past deg(r) + s it repeats with period ts, so the ts
    coefficients after the target settle it.

    Half length: when r equals its reverse, ends in a nonzero coefficient
    and (t-1)s <= target, the series is summed only up to M = floor(D/2),
    D = deg(r), and the division is exact iff p[j] = p[target-j] for
    floor(target/2) < j <= M (M <= target, so both indices exist).
    Proof: let Q be the palindrome of degree target with Q[j] = p[j] for
    j <= floor(target/2).  If the test holds, Q[j] = p[target-j] = p[j]
    up to M as well, so Q [t]_{q^s} agrees with p [t]_{q^s} = r up to M.
    Both are palindromes of degree D, and each j > M mirrors to
    D - j <= M, so Q [t]_{q^s} = r.  Conversely, an exact quotient of two
    palindromes is a palindrome equal to the series, so the test holds.
    Every other input takes the full sum.
    """
    if t <= 0:
        raise ZeroDivisionError("division by zero polynomial")
    if t == 1:
        return trim(list(coeffs))
    ts = t * stride
    target = len(coeffs) - 1 - (t - 1) * stride
    if target < 0:
        # shorter than the divisor: exact only for the zero polynomial
        return None if any(coeffs) else []
    if (t - 1) * stride <= target and coeffs[-1] and coeffs == coeffs[::-1]:
        # the series' length M + 1 exceeds s, as D >= 2(t-1)s >= 2s; a
        # longer stride has (t-1)s > target and takes the full sum
        m = (len(coeffs) - 1) // 2 + 1
        p = _window_sum(coeffs[:m], [0] * stride + coeffs[:m - stride], ts)
        half = target // 2 + 1
        if p[target - m + 1:target - half + 1] != p[:half - 1:-1]:
            return None
        del p[half:]
        return p + p[(target + 1) // 2 - 1::-1] if target else p
    p = _window_sum(coeffs + [0] * stride, [0] * stride + coeffs, ts)
    if any(p[target + 1:]):
        return None
    del p[target + 1:]
    return trim(p)


def _pack(coeffs, width):
    """The integer sum of coeffs[i] * 2^(8 * width * i), coefficients >= 0."""
    return int.from_bytes(b"".join(map(int.to_bytes, coeffs, repeat(width),
                                       repeat("little"))), "little")


def _pack_signed(coeffs, width):
    """Like _pack, for coefficients of either sign: the positive and the
    negative parts are packed apart and subtracted."""
    if min(coeffs) >= 0:
        return _pack(coeffs, width)
    return (_pack([c if c > 0 else 0 for c in coeffs], width)
            - _pack([-c if c < 0 else 0 for c in coeffs], width))


def mul_dense(a, b):
    """Exact product of two dense coefficient lists by Kronecker substitution.

    Both factors are evaluated at q = 2^k as single integers (k a multiple
    of 8), multiplied with CPython's Karatsuba big-int product, and the
    coefficients are read back k bits at a time.  A product coefficient
    is bounded by max|a| * max|b| * min(len(a), len(b)); k holds that
    bound, each input coefficient (so an all-zero factor still packs) and
    a sign bit.  With a negative coefficient anywhere, 2^(k-1) is added to
    every slot before reading, which keeps each slot in [0, 2^k) and so
    free of borrows, and subtracted again after.  A one-coefficient
    factor is a scalar and skips the packing.
    """
    if not a or not b:
        return []
    if len(a) == 1 or len(b) == 1:
        if len(a) > 1:
            a, b = b, a
        return trim([a[0] * c for c in b])
    big_a = max(max(a), -min(a))
    big_b = max(max(b), -min(b))
    bits = max((big_a * big_b * min(len(a), len(b))).bit_length(),
               big_a.bit_length(), big_b.bit_length()) + 1
    width = (bits + 7) // 8
    size = len(a) + len(b) - 1
    product = _pack_signed(a, width) * _pack_signed(b, width)
    signed = min(a) < 0 or min(b) < 0
    if signed:
        half = 1 << (8 * width - 1)
        product += _pack([half] * size, width)
    raw = product.to_bytes(size * width, "little")
    out = [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
    if signed:
        out = [c - half for c in out]
    return trim(out)


def scan_unimodal(coeffs):
    """True iff the dense sequence (a list or tuple; only read) is
    non-decreasing then non-increasing."""
    rising = True
    prev = None
    for c in coeffs:
        if prev is not None:
            if rising:
                if c < prev:
                    rising = False
            elif c > prev:
                return False
        prev = c
    return True


def coeff_min_max(coeffs):
    """Return (min, max) over the dense coefficients, or None if empty."""
    if not coeffs:
        return None
    return min(coeffs), max(coeffs)
