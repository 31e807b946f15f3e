"""Dense-polynomial kernels.

All functions operate on plain lists of Python ints indexed by exponent
(dense form, possibly with trailing zeros).  They are the hot loops behind
q-number products, the ratio engine's exact divisions, generic dense
products and coefficient scans.  The window multiply/divide run their
per-coefficient work in C through ``accumulate`` and ``map``; the dense
product packs both factors into one big integer each.

Every q-number [t]_{q^s} is palindromic, and so is every product of
them.  The ratio engine therefore keeps each partial product as its low
half, the first ceil(n/2) of its n coefficients, and passes the length
along: with ``length`` given, ``mul_qnumber`` takes a low half and
returns one, and ``div_qnumber`` takes only that form.  The product's
window sum runs over the low half only; the division sums its series over
the dividend's low half and reads exactness from the series' own mirror
symmetry instead of from its tail.  With ``times`` = u the division's
dividend is p [u]_{q^s}, never built: (1 - q^{us}) / (1 - q^{ts}) is one
window, so multiplying by [u] and dividing by [t] take one sum where they
took two.  ``unfold`` restores the dense list.
The dense form of ``mul_qnumber`` (no ``length``) serves the convolution
check and the divisibility check, on lists that need not be palindromes:
a dense input that equals its reverse and ends in a nonzero coefficient
takes the same half arithmetic and is unfolded after it; any other takes
the full sum.

Ownership: a call with ``length`` consumes its list.  The window sums
overwrite it block by block, so the list passed in is the list returned,
and after a division that is not exact (None) its contents are spent.
A dense product works on a copy and leaves its argument as it was.

Everything here is exact integer arithmetic; no kernel ever rounds.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, le, sub

# window sums rewrite their list in place, this many coefficients at a
# time; steps of at least _BLOCK_STEP add whole runs (see _window_sum)
_BLOCK = 4096
_BLOCK_STEP = 24


def trim(coeffs):
    """Drop trailing zeros in place and return the list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _window_sum(a, shift, step):
    """Overwrite ``a`` with y, y[i] = a[i] - a[i - shift] + y[i - step],
    where a term at a negative index is 0, and return it.

    The list is rewritten in two passes of one slice assignment per block
    of _BLOCK coefficients: the differences a[i] - a[i - shift] from the
    top block down, so each block still reads the old values below it,
    then the running sums from the bottom block up.  So at most one block
    of new ints is alive beside the list, and the ints of the old
    coefficients are freed as it goes.  Steps below _BLOCK_STEP sum along
    their residue classes inside each block; larger ones add the finished
    sums one step back, at most a block at a time.  The per-coefficient
    work runs in C.
    """
    n = len(a)
    for hi in range(n, shift, -_BLOCK):
        lo = max(hi - _BLOCK, shift)
        a[lo:hi] = map(sub, a[lo:hi], a[lo - shift:hi - shift])
    if step < _BLOCK_STEP:
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            for j in range(lo, min(lo + step, hi)):
                if j >= step:
                    a[j] += a[j - step]
                a[j:hi:step] = accumulate(a[j:hi:step])
    else:
        size = min(step, _BLOCK)
        for k in range(step, n, size):
            a[k:k + size] = map(add, a[k:k + size], a[k - step:k - step + size])
    return a


def unfold(half, length):
    """The palindrome of ``length`` coefficients whose low half is ``half``.

    The low half of a palindrome of length n is its first ceil(n/2)
    coefficients; the rest mirror it.
    """
    return half + half[:length // 2][::-1]


def mul_qnumber(coeffs, t, stride=1, length=None):
    """Multiply ``coeffs`` by 1 + q^s + q^{2s} + ... + q^{(t-1)s}.

    Uses [t]_{q^s} = (1 - q^{ts}) / (1 - q^s): the product r is p - q^{ts} p
    summed with stride s, r[i] = p[i] - p[i-ts] + r[i-s].

    With ``length``, ``coeffs`` is the low half of a palindrome p of that
    length, t >= 1, and is consumed: it is extended and overwritten in
    place to the low half of the product, a palindrome of length
    n = length + (t-1)s, and returned; only r[i], i < ceil(n/2), is summed.
    Without it, ``coeffs`` is a dense list and a new trimmed list is
    returned; one that equals its reverse and ends in a nonzero
    coefficient takes the half sum and is unfolded, any other the full
    sum.  t = 0 gives the zero polynomial.
    """
    if length is not None:
        return _mul_half(coeffs, length, t, stride)
    if t <= 0 or not coeffs:
        return []
    if t == 1:
        return trim(list(coeffs))
    if coeffs[-1] and coeffs == coeffs[::-1]:
        n = len(coeffs)
        return unfold(_mul_half(coeffs[:(n + 1) // 2], n, t, stride), n + (t - 1) * stride)
    ts = t * stride
    return trim(_window_sum(coeffs + [0] * (ts - stride), ts, stride))


def _extend(half, length, n):
    """Extend ``half``, the low half of a palindrome of ``length``
    coefficients, in place to the first ceil(n/2) coefficients of that
    palindrome read as a polynomial, n >= length: its mirror, then zeros."""
    k = (n + 1) // 2
    m = min(k, length)
    half += half[length - m:length - len(half)][::-1]
    half += repeat(0, k - m)
    return half


def _mul_half(half, length, t, stride):
    """Window-sum ``half``, extended in place to the low half of the
    product's length n = length + (t-1)s, into the product's low half."""
    if t == 1:
        return half
    return _window_sum(_extend(half, length, length + (t - 1) * stride), t * stride, stride)


def div_qnumber(half, t, stride, length, times=1):
    """Exactly divide the palindrome r = p [times]_{q^s} by [t]_{q^s},
    where [k]_{q^s} = 1 + q^s + ... + q^{(k-1)s}, and p is the palindrome
    of ``length`` coefficients whose low half is ``half``.  With times = 1
    (the default) r is p itself; a larger ``times`` multiplies and divides
    in one window sum, and r is never built.

    ``half`` is consumed: it is extended and overwritten in place to the
    low half of the quotient, a palindrome of length
    length + (times-1)s - (t-1)s, and returned, or it is spent and None is
    returned when the division is not exact.  The power series of
    r / [t]_{q^s} = p (1 - q^{times s}) / (1 - q^{ts}) is p less q^{times s} p
    summed with period ts, y[i] = p[i] - p[i - times s] + y[i - ts].

    The series is summed only up to M = floor(D/2), D = deg(r) =
    length - 1 + (times-1)s, over p's first M + 1 coefficients (its low
    half, its mirror, then zeros), and the division is exact iff
    y[j] = y[target-j] for floor(target/2) < j <= M, target = D - (t-1)s,
    reading y at a negative index as 0 (the mirror test).  Proof: r is a
    palindrome of degree D, a product of two, and y is the series of
    r / [t]_{q^s}; nothing else of r is read.  Let Q be the palindrome of
    degree target with Q[j] = y[j] for j <= floor(target/2), and Q[j] = 0
    past target.  If the test holds, Q[j] = y[target-j] = y[j] up to M as
    well (for j > target both are 0), so Q [t]_{q^s} agrees with
    y [t]_{q^s} = r up to M.  Both are symmetric about D/2, and each
    j > M mirrors to D - j <= M, so Q [t]_{q^s} = r.  Conversely, an
    exact quotient of two palindromes is a palindrome equal to the
    series, and the series of a polynomial of degree target is 0 past
    it, so the test holds.  So a divisor longer than the quotient, with
    M > target, needs no other sum.  A palindrome shorter than the
    divisor (target < 0) is divisible only when it is zero, which r is
    iff p is.  times = t returns ``half`` as it is.
    """
    if t <= 0:
        raise ZeroDivisionError("division by zero polynomial")
    if times == t:
        return half
    n = length + (times - 1) * stride
    target = n - 1 - (t - 1) * stride
    if target < 0:
        if any(half):
            return None
        half.clear()
        return half
    m = len(_extend(half, length, n))
    y = _window_sum(half, times * stride, t * stride)
    h = target // 2 + 1
    lo = target - m + 1
    mirror = y[max(lo, 0):target - h + 1]         # y[target - j], j from M down to h,
    mirror[:0] = repeat(0, -lo)                   # and 0 at each negative index
    if mirror != y[:h - 1:-1]:
        return None
    del y[h:]
    return y


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
    non-decreasing then non-increasing.

    A palindrome is iff its low half is non-decreasing, since a descent
    inside the low half mirrors to a rise after it; that test runs in C.
    Any other sequence takes the one-pass loop.
    """
    if coeffs == coeffs[::-1]:
        half = coeffs[:(len(coeffs) + 1) // 2]
        return all(map(le, half, half[1:]))
    return _rises_then_falls(coeffs)


def _rises_then_falls(coeffs):
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
    """Return (min, max) over the coefficients, or None if empty; the low
    half of a palindrome has the palindrome's range."""
    if not coeffs:
        return None
    return min(coeffs), max(coeffs)
