"""Arbitrary-precision Fibonacci numbers and pure integer identities.

The index convention extends one step left of the usual sequence:
F(-1) = 1, F(0) = 0, F(1) = 1, F(n) = F(n-1) + F(n-2).  The -1 index is
needed by the convolution identities, where an empty column contributes a
factor [F(-1)] = [1] = 1.

Values are memoized in a table that grows by whole tuples: a longer
table is built aside and then bound in one assignment, so every table a
caller reads is a correct prefix of the sequence.
"""

from __future__ import annotations

import math

# _TABLE[i] = F(i - 1); seeded with F(-1), F(0), F(1)
_TABLE = (1, 0, 1)


def fib(n: int) -> int:
    """Return F(n) for n >= -1."""
    global _TABLE
    if n < -1:
        raise ValueError(f"Fibonacci index must be >= -1, got {n}")
    idx = n + 1
    table = _TABLE
    if idx >= len(table):
        grown = list(table)
        while idx >= len(grown):
            grown.append(grown[-1] + grown[-2])
        _TABLE = table = tuple(grown)
    return table[idx]


def fib_gcd_check(m: int, n: int) -> bool:
    """Self-test of the gcd law gcd(F_m, F_n) = F_{gcd(m,n)} (m, n >= 1)."""
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    return math.gcd(fib(m), fib(n)) == fib(math.gcd(m, n))


def fib_addition_check(m: int, n: int) -> bool:
    """Self-test of F_{m+n} = F_n F_{m+1} + F_m F_{n-1} (m, n >= 1)."""
    if m < 1 or n < 1:
        raise ValueError("indices must be >= 1")
    return fib(m + n) == fib(n) * fib(m + 1) + fib(m) * fib(n - 1)


def spiral_exponent(k: int, m: int) -> int:
    """Return c_k^m = F_{k+1} + F_{k+2} + ... + F_{m+1}.

    These are the weight exponents of the forced special dominos along the
    n = 2 family of path-domino tilings; k = m + 1 gives the empty sum.
    """
    if not 1 <= k <= m + 1:
        raise ValueError(f"need 1 <= k <= m+1, got k={k}, m={m}")
    # telescoping partial sums: sum_{i=k}^{m} F_{i+1} = F_{m+3} - F_{k+2}
    return fib(m + 3) - fib(k + 2)
