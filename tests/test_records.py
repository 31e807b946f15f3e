"""The plain records of every layer: read-only fields where they are
frozen, no per-object ``__dict__``, equality and hashing by value, and
reprs that stay short."""

import json
from functools import lru_cache

import pytest

from fibl.catalan import CoxeterType, PolynomialityVerdict, SweepRow, q_fibo_catalan_rational
from fibl.qpoly import DivisionResult, IntPoly
from fibl.report import VerificationReport, exact_report, report_json
from fibl.tilings import PathDominoTiling, StaircaseTiling

FROZEN = [
    (CoxeterType("A", 3), "rank"),
    (SweepRow(1, 2, 1, True, 0, 1, 1), "min_coeff"),
    (DivisionResult(IntPoly([1]), IntPoly()), "remainder"),
    (PathDominoTiling(m=1, n=1, path="EN", rows=("M",), cols=("",)), "path"),
    (StaircaseTiling(n=2, k=1, path="WNN", rows=("M", "S")), "rows"),
]
NAMES = [type(record).__name__ for record, _ in FROZEN]


@pytest.mark.parametrize("record, field", FROZEN, ids=NAMES)
def test_frozen_fields_are_read_only(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert getattr(record, field) == before


@pytest.mark.parametrize("record, field", FROZEN, ids=NAMES)
def test_equal_records_hash_equal_and_share_a_cache_entry(record, field):
    twin = type(record)(*record)
    assert twin == record and twin is not record and hash(twin) == hash(record)
    seen = []
    probe = lru_cache(maxsize=None)(lambda r: seen.append(r) or len(seen))
    assert probe(record) == probe(twin) == 1 and seen == [record]


def test_coxeter_type_keeps_its_keyword_signature():
    assert CoxeterType(family="E8") == CoxeterType("E8", None)
    assert CoxeterType(family="A", rank=4).label() == "A4"


def test_report_rejects_undeclared_attributes():
    report = exact_report("x", {"m": 1}, 1, 1)
    assert not hasattr(report, "__dict__")
    with pytest.raises(AttributeError):
        report.comment = "not a field"
    report.seed = 7                 # a declared field can still be set
    assert json.loads(report_json(report))["seed"] == 7


def test_report_defaults_and_keywords():
    a = VerificationReport("x", {}, 1, 2, False)
    b = VerificationReport(identity_name="x", inputs={}, lhs=1, rhs=2, passed=False)
    for report in (a, b):
        assert (report.abs_diff, report.rel_diff, report.tolerance) == (None, None, None)
        assert (report.expected, report.seed, report.resamples) == ("equal", None, 0)
        assert report.notes == {}
    a.notes["k"] = 1
    assert b.notes == {}            # each report has its own notes


def test_verdict_repr_omits_the_half():
    verdict = q_fibo_catalan_rational(7, 9)
    assert len(verdict.half) == 739
    assert repr(verdict) == (
        "PolynomialityVerdict(is_polynomial=True, length=1477, remainder_degree=None, "
        "all_coeffs_nonnegative=True, coeff_range=(1, 19549640))")
    assert repr(q_fibo_catalan_rational(3, 6)) == (
        "PolynomialityVerdict(is_polynomial=False, length=None, remainder_degree=0, "
        "all_coeffs_nonnegative=None, coeff_range=None)")


def test_verdict_is_slotted_and_keeps_its_signature():
    verdict = PolynomialityVerdict(False, remainder_degree=3)
    assert not hasattr(verdict, "__dict__")
    assert (verdict.half, verdict.quotient, verdict.degree) == (None, None, None)
    with pytest.raises(AttributeError):
        verdict.undeclared = 1
