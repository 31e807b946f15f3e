"""Shared exception types.

Domain errors (bad arguments) use plain ValueError throughout the package;
the classes here are the ones callers are expected to branch on.
"""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """A configurable cap (polynomial degree or enumeration count) was hit.

    Carries the cap so callers and the CLI can name it in diagnostics.
    """

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class NotPolynomialError(ArithmeticError):
    """An exact polynomial division left a nonzero remainder.

    For polynomiality tests a non-polynomial ratio is a result, not a
    failure: the verdicts in fibl.catalan record it without raising.
    ``split`` is the (covered, uncovered) denominator split of the ratio
    engine (qpoly.q_ratio_coeffs) when its cyclotomic count found the
    ratio not polynomial, else None.
    """

    def __init__(self, message: str, split=None):
        super().__init__(message)
        self.split = split


class DegenerateParametersError(ArithmeticError):
    """An elliptic evaluation hit a denominator below the min_denom guard
    (or exhausted its resampling budget)."""
