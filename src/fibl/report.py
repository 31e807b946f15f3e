"""Structured pass/fail records for identity checks.

Every check in the package returns a VerificationReport rather than a bare
bool, so the CLI and the acceptance suite can serialize what was compared,
at which inputs, and against which tolerance.  Reports for negative results
(the partial-tiling counterexample) set expected="unequal": such a report
*passes* when the two sides differ, which keeps a future "fix" from
silently masking the claim.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

SCHEMA = "fibl-report/1"

# seed of every sampled check unless a run is reseeded
DEFAULT_SEED = 0x5EED

# polynomial sides with more than this many terms are summarized, not inlined
_INLINE_TERMS = 64

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


# json_text's scalar writers, by exact type: the text json.dumps gives each
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


class VerificationReport:
    __slots__ = ("identity_name", "inputs", "lhs", "rhs", "passed", "abs_diff", "rel_diff",
                 "tolerance", "expected", "seed", "resamples", "notes")

    def __init__(self, identity_name: str, inputs: dict, lhs: Any, rhs: Any, passed: bool,
                 abs_diff: Optional[float] = None, rel_diff: Optional[float] = None,
                 tolerance: Optional[float] = None,     # None means the comparison was exact
                 expected: str = "equal",               # "equal" or "unequal"
                 seed: Optional[int] = None, resamples: int = 0,
                 notes: Optional[dict] = None):
        self.identity_name = identity_name
        self.inputs = inputs
        self.lhs = lhs
        self.rhs = rhs
        self.passed = passed
        self.abs_diff = abs_diff
        self.rel_diff = rel_diff
        self.tolerance = tolerance
        self.expected = expected
        self.seed = seed
        self.resamples = resamples
        self.notes = {} if notes is None else notes

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


def exact_report(name: str, inputs: dict, lhs, rhs, *,
                 expected: str = "equal") -> VerificationReport:
    """Report on an exact (integer or polynomial) comparison."""
    equal = lhs == rhs
    passed = equal if expected == "equal" else not equal
    return VerificationReport(
        identity_name=name, inputs=inputs, lhs=lhs, rhs=rhs,
        passed=passed, expected=expected)


def numeric_report(name: str, inputs: dict, lhs, rhs, tol: float) -> VerificationReport:
    """Report on a complex-valued comparison at relative tolerance ``tol``."""
    ad = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rd = float(ad / scale) if scale > 0 else 0.0
    return VerificationReport(
        identity_name=name, inputs=inputs, lhs=lhs, rhs=rhs,
        passed=rd <= tol, abs_diff=float(ad), rel_diff=rd, tolerance=tol)


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


def json_text(doc, _nl: str = "\n") -> str:
    """Exactly the text of ``json.dumps`` with ``sort_keys=True`` and an
    ``indent`` of 2, for a document whose dict keys are all ``str``; a
    non-``str`` key, and any value that json.dumps rejects, raises TypeError.

    With ``indent`` set, json.dumps runs CPython's pure-Python encoder,
    one generator step per token.  Here a list of scalars of one type is
    written with one join, and so is a list of equal-length lists of
    ``str``: the ``[exponent, coefficient]`` pairs of ``IntPoly.to_json``,
    most of a q report's bytes.  ``_nl`` is the newline and indent of the
    line the value starts on.
    """
    scalar = _SCALAR_TEXT.get(type(doc))
    if scalar is not None:
        return scalar(doc)
    inner = _nl + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + (      # scalars inline, without a call
                     _SCALAR_TEXT[type(v)](v) if type(v) in _SCALAR_TEXT else json_text(v, inner))
                 for k, v in sorted(doc.items())]
        return "{" + inner + ("," + inner).join(items) + _nl + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        types = set(map(type, doc))
        kind = types.pop() if len(types) == 1 else None
        if kind in _SCALAR_TEXT:
            return "[" + inner + ("," + inner).join(map(_SCALAR_TEXT[kind], doc)) + _nl + "]"
        if (kind in (list, tuple) and len(set(map(len, doc))) == 1
                and set(map(type, chain.from_iterable(doc))) == {str}):
            nl2 = inner + "  "
            cells = map(encode_basestring_ascii, chain.from_iterable(doc))
            rows = map(("," + nl2).join, zip(*[cells] * len(doc[0])))
            return ("[" + inner + "[" + nl2 + (inner + "]," + inner + "[" + nl2).join(rows)
                    + inner + "]" + _nl + "]")
        items = [json_text(v, inner) for v in doc]
        return "[" + inner + ("," + inner).join(items) + _nl + "]"
    for base in (str, int, float):          # subclasses print as their base type
        if isinstance(doc, base):
            return _SCALAR_TEXT[base](doc)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
