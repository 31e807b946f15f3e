"""Arbitrary-precision Fibonacci numbers.

The index convention extends one step left of the usual sequence:
F(-1) = 1, F(0) = 0, F(1) = 1, F(n) = F(n-1) + F(n-2).  The -1 index is
needed by the convolution identities, where an empty column contributes a
factor [F(-1)] = [1] = 1.

Values are memoized in a table that grows by whole tuples: a longer
table is built aside and then bound in one assignment, so every table a
caller reads is a correct prefix of the sequence.
"""

from __future__ import annotations

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

