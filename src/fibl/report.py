"""Structured pass/fail records for identity checks.

Every check in the package returns a VerificationReport rather than a bare
bool, so the CLI and the acceptance suite can serialize what was compared,
at which inputs, and against which tolerance.  Reports for negative results
(the partial-tiling counterexample) set expected="unequal": such a report
*passes* when the two sides differ, which keeps a future "fix" from
silently masking the claim.
"""

from __future__ import annotations

from itertools import chain, compress
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


# a report's JSON keys in sorted order, each with its ": "
_REPORT_KEYS = tuple(f'"{k}": ' for k in ("abs_diff", "expected", "identity", "inputs", "lhs",
                                           "notes", "passed", "rel_diff", "resamples", "rhs",
                                           "seed", "tolerance"))


def report_json(r: VerificationReport, nl: str = "\n", inputs_text: Optional[str] = None,
                poly_texts: Optional[dict] = None) -> str:
    """Report ``r`` as json_text writes its document at ``nl``, the newline
    and indent of its first line.  ``inputs_text`` is mapping_json(r.inputs,
    nl + "  ") if the caller has it; ``poly_texts`` is _value_json's table,
    kept across the reports of one document."""
    f = nl + "  "
    poly_texts = {} if poly_texts is None else poly_texts
    values = (json_text(r.abs_diff, f), json_text(r.expected, f), json_text(r.identity_name, f),
              mapping_json(r.inputs, f) if inputs_text is None else inputs_text,
              _value_json(r.lhs, f, poly_texts), mapping_json(r.notes, f), json_text(r.passed, f),
              json_text(r.rel_diff, f), json_text(r.resamples, f),
              _value_json(r.rhs, f, poly_texts), json_text(r.seed, f), json_text(r.tolerance, f))
    return "{" + f + ("," + f).join(map(str.__add__, _REPORT_KEYS, values)) + nl + "}"


def mapping_json(d: dict, nl: str) -> str:
    """An inputs or notes dict, whose keys are str, as JSON at ``nl``."""
    if not d:
        return "{}"
    f = nl + "  "
    items = [encode_basestring_ascii(k) + ": " + _value_json(v, f, {})
             for k, v in sorted(d.items())]
    return "{" + f + ("," + f).join(items) + nl + "}"


def _value_json(v, nl: str, poly_texts: dict) -> str:
    """A report's side, or an inputs or notes value, as JSON at ``nl``.
    ``poly_texts`` maps the coefficients of IntPolys written at ``nl`` to
    their texts: a suite compares few distinct polynomials in many reports."""
    scalar = _SCALAR_TEXT.get(type(v))
    if scalar is not None:
        return scalar(v)
    if isinstance(v, (int, float, str)):        # subclasses print as their base type
        return json_text(v)
    f = nl + "  "
    if hasattr(v, "imag") and hasattr(v, "real"):       # complex and ExtComplex
        return ("{" + f + '"im": ' + _float_text(float(v.imag)) + ","
                + f + '"re": ' + _float_text(float(v.real)) + nl + "}")
    if hasattr(v, "term_count"):        # an IntPoly
        text = poly_texts.get(v.coeffs)
        if text is None:
            text = poly_texts[v.coeffs] = _poly_json(v, nl)
        return text
    if hasattr(v, "to_json"):
        return json_text(v.to_json(), nl)
    if isinstance(v, (list, tuple)):
        items = [_value_json(x, f, {}) for x in v]
        return "[" + f + ("," + f).join(items) + nl + "]" if items else "[]"
    if isinstance(v, dict):
        return mapping_json({str(k): x for k, x in v.items()}, nl)
    return encode_basestring_ascii(str(v))


def _poly_json(p, nl: str) -> str:
    """IntPoly.to_json's rows at ``nl`` in one join, or a summary."""
    terms = p.term_count()
    if terms > _INLINE_TERMS:
        return json_text({"var": "q", "degree": p.degree, "terms": terms, "summary": "elided"}, nl)
    c = p.coeffs
    f, row, cell = nl + "  ", nl + "    ", nl + "      "
    pattern = "[" + cell + '"%s",' + cell + '"%s"' + row + "]"
    rows = ("," + row).join(map(pattern.__mod__, compress(enumerate(c), c)))
    return ("{" + f + '"coeffs": ' + ("[" + row + rows + f + "]" if rows else "[]") + ","
            + f + '"var": "q"' + nl + "}")


def json_text(doc, _nl: str = "\n") -> str:
    """Exactly the text of ``json.dumps`` with ``sort_keys=True`` and an
    ``indent`` of 2, for a document whose dict keys are all ``str``; a
    non-``str`` key, and any value that json.dumps rejects, raises TypeError.

    With ``indent`` set, json.dumps runs CPython's pure-Python encoder,
    one generator step per token.  Here a list of scalars of one type is
    written with one join, and so is a list of equal-length lists of
    ``str``: the ``[exponent, coefficient]`` pairs of ``IntPoly.to_json``,
    most of a ``fibonomial`` document's bytes (reports: ``report_json``).
    ``_nl`` is the newline and indent of the line the value starts on.
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
