"""Structured pass/fail records for identity checks.

Every check in the package returns a VerificationReport rather than a bare
bool, so the CLI and the acceptance suite can serialize what was compared,
at which inputs, and against which tolerance.  Reports for negative results
(the partial-tiling counterexample) set expected="unequal": such a report
*passes* when the two sides differ, which keeps a future "fix" from
silently masking the claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

SCHEMA = "fibl-report/1"

# seed of every sampled check unless a run is reseeded
DEFAULT_SEED = 0x5EED

# polynomial sides with more than this many terms are summarized, not inlined
_INLINE_TERMS = 64


@dataclass
class VerificationReport:
    identity_name: str
    inputs: dict
    lhs: Any
    rhs: Any
    passed: bool
    abs_diff: Optional[float] = None
    rel_diff: Optional[float] = None
    tolerance: Optional[float] = None   # None means the comparison was exact
    expected: str = "equal"             # "equal" or "unequal"
    seed: Optional[int] = None
    resamples: int = 0
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity_name,
            "inputs": {k: _jsonable(v) for k, v in sorted(self.inputs.items())},
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "abs_diff": self.abs_diff,
            "rel_diff": self.rel_diff,
            "tolerance": self.tolerance,
            "expected": self.expected,
            "passed": self.passed,
            "seed": self.seed,
            "resamples": self.resamples,
            "notes": {k: _jsonable(v) for k, v in sorted(self.notes.items())},
        }

    def sort_key(self) -> str:
        return self.identity_name + "|" + inputs_key(self.inputs)


def inputs_key(inputs: dict) -> str:
    """The inputs part of VerificationReport.sort_key."""
    return repr(sorted(inputs.items()))


def exact_report(name: str, inputs: dict, lhs, rhs, *, expected: str = "equal",
                 **extra) -> VerificationReport:
    """Report on an exact (integer or polynomial) comparison."""
    equal = lhs == rhs
    passed = equal if expected == "equal" else not equal
    return VerificationReport(
        identity_name=name, inputs=inputs, lhs=lhs, rhs=rhs,
        passed=passed, expected=expected, **extra)


def numeric_report(name: str, inputs: dict, lhs, rhs, tol: float, *,
                   expected: str = "equal", **extra) -> VerificationReport:
    """Report on a complex-valued comparison at relative tolerance ``tol``."""
    ad = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rd = float(ad / scale) if scale > 0 else 0.0
    close = rd <= tol
    passed = close if expected == "equal" else not close
    return VerificationReport(
        identity_name=name, inputs=inputs, lhs=lhs, rhs=rhs,
        passed=passed, abs_diff=float(ad), rel_diff=rd, tolerance=tol,
        expected=expected, **extra)


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if hasattr(v, "imag") and hasattr(v, "real"):       # mpmath mpc/mpf
        return {"re": float(v.real), "im": float(v.imag)}
    if hasattr(v, "term_count"):        # an IntPoly: count its terms before any JSON
        terms = v.term_count()
        if terms > _INLINE_TERMS:
            return {"var": "q", "degree": v.degree, "terms": terms, "summary": "elided"}
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v)
