"""report_json, the writer of --format json reports, against the report's
document built as a dict (oracles.to_dict) and printed by json_text: on
the reports of every suite, on edge reports, and through the CLI's
document, where reports share inputs dicts and polynomial texts."""

import enum
import math
from functools import partial

import mpmath
import pytest
from hypothesis import given, strategies as st

import fibl.cli as cli
from fibl.extended import ExtComplex
from fibl.qpoly import IntPoly
from fibl.report import SCHEMA, VerificationReport, exact_report, json_text, report_json
from oracles import to_dict

INDENTS = ["\n", "\n    "]

SUITES = [
    "q-all --max 9", "catalan-all --max 6", "spiral", "convolution --max 6", "bijection --max 5",
    "counterexample", "theta --samples 20", "theta --samples 3 --precision ext:128",
    "elliptic-all --samples 2", "elliptic-all --samples 2 --precision ext:128",
]


def _suite_reports(monkeypatch, suite: str) -> list:
    seen = []
    monkeypatch.setattr(cli, "_emit_reports",
                        lambda ns, reports, extra_config=None: seen.append(reports) or 0)
    assert cli.main(["verify", *suite.split(), "--format", "json"]) == 0
    (reports,) = seen
    return reports


@pytest.mark.parametrize("nl", INDENTS, ids=["top", "item"])
@pytest.mark.parametrize("suite", SUITES)
def test_writer_prints_each_suite_report_as_its_dict(monkeypatch, suite, nl):
    reports = _suite_reports(monkeypatch, suite)
    inputs_text = cli._once_per_dict(partial(cli.mapping_json, nl=nl + "  "))
    poly_texts = {}             # one table for the whole document, as the CLI keeps it
    for r in reports:
        want = json_text(to_dict(r), nl)
        assert report_json(r, nl) == want
        assert report_json(r, nl, inputs_text(r.inputs), poly_texts) == want


class _Level(enum.IntEnum):
    HIGH = 7


class _Name(str):
    pass


def _poly(n_terms: int) -> IntPoly:
    return IntPoly([(-1) ** i * (i + 1) for i in range(n_terms)])


EDGE = {
    "float-words": VerificationReport(
        "x", {"t": -0.0, "u": math.inf}, 1.5, -2.5, False, abs_diff=math.nan,
        rel_diff=math.inf, tolerance=-0.0),
    "float-words-in-sides": VerificationReport(
        "x", {"z": complex(math.nan, -0.0)}, complex(-math.inf, math.inf),
        complex(-0.0, math.nan), True, abs_diff=-math.inf, rel_diff=0.0, tolerance=1e-7),
    "no-seed": exact_report("x", {"m": 1}, 2, 2),
    "seed-and-resamples": VerificationReport("x", {}, 1, 1, True, seed=0x5EED, resamples=3),
    "complex": VerificationReport("x", {"x": 0.5 + 0.25j}, 1 + 2j, 1 - 2j, False,
                                  abs_diff=4.0, rel_diff=1.8, tolerance=1e-7),
    "mpc": VerificationReport(
        "x", {"x": mpmath.mpc(0.5, -0.25), "y": mpmath.mpf(2)}, mpmath.mpc("0.1", "1e-30"),
        mpmath.mpc(-3, 0), True, abs_diff=1e-39, rel_diff=2e-39, tolerance=1e-20),
    "mpf-side": VerificationReport("x", {}, mpmath.mpf("0.1"), mpmath.mpf(-2), False),
    "ext-sides": VerificationReport(
        "x", {"x": 0.5 - 0.25j}, ExtComplex(1 / 3 + 0.1j, 128) ** 3,
        ExtComplex(2.0 ** 1000 - 1j, 128) ** 5, True, abs_diff=1e-39, rel_diff=2e-39,
        tolerance=1e-20, notes={"params": {"a": ExtComplex(complex(-0.0, 2.0 ** -1074), 256),
                                           "p": 1 / ExtComplex(2.0 ** 1000, 128) ** 2}}),
    "zero-poly": exact_report("x", {"m": 0}, IntPoly(), IntPoly([0, 0])),
    "signed-poly": exact_report("x", {"m": 2}, IntPoly([0, -3, 0, 0, 7, -1]),
                                IntPoly([5, 0, -10**30])),
    "poly-vs-int": exact_report("x", {}, IntPoly([1]), 1),
    "64-and-65-terms": exact_report("x", {}, _poly(64), _poly(65)),
    "65-terms-in-131": exact_report("x", {}, IntPoly([1, 0] * 65 + [1]), _poly(64)),
    "unequal": exact_report("x", {"m": 1}, IntPoly([1, 1]), IntPoly([1, 2]), expected="unequal"),
    "escaped-strings": exact_report('q-"é"\\', {"name": "\x00 😀"}, "a\nb", "\t"),
    "notes-params": VerificationReport(
        "elliptic-addition", {"m": 1, "n": 2}, 1j, 1j, True, seed=4,
        notes={"params": {"a": 0.5 + 1j, "b": mpmath.mpc(0.25, -0.5), "q": -0.5j, "p": 0.1}}),
    "notes-routes": VerificationReport(
        "elliptic-fibonomial", {"m": 2, "n": 3}, 1.0, 1.0, True,
        notes={"routes": ["ratio", "recurrence", "tiling_sum"], "empty": [], "none": None}),
    "nested-inputs": exact_report("x", {"pair": (1, "a"), "list": [IntPoly([1, 1]), 2.5]}, 0, 0),
    "notes-ints": VerificationReport("x", {}, 1, 1, True,
                                     notes={"pairs": 12, "tiling_count": 10**40}),
    "notes-int-keys": VerificationReport("x", {}, 1, 1, True, notes={"by_m": {2: 1.5, 10: 3}}),
    "subclasses": VerificationReport("x", {"level": _Level.HIGH}, _Level.HIGH, _Name("a"), False,
                                     notes={"names": [_Name("b"), _Level.HIGH]}),
}


@pytest.mark.parametrize("nl", INDENTS, ids=["top", "item"])
@pytest.mark.parametrize("name", list(EDGE))
def test_writer_on_edge_reports(name, nl):
    r = EDGE[name]
    assert report_json(r, nl) == json_text(to_dict(r), nl)


def test_polynomial_table_tells_polynomials_apart():
    poly_texts = {}
    reports = [EDGE["signed-poly"], EDGE["zero-poly"], EDGE["64-and-65-terms"],
               exact_report("x", {}, IntPoly([1, 2, 3]), IntPoly([1, -2, 3])),
               EDGE["signed-poly"], EDGE["64-and-65-terms"]]
    for r in reports:
        assert report_json(r, "\n    ", None, poly_texts) == json_text(to_dict(r), "\n    ")
    assert len(poly_texts) == 7         # two of degree 2, and signed-poly's, zero, 64, 65 terms


_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
_sides = (st.integers() | _floats | st.text() | st.none() | st.booleans()
          | st.builds(complex, _floats, _floats)
          | st.lists(st.integers(-3, 3) | st.integers(), max_size=70).map(IntPoly))
_values = _sides | st.lists(_sides, max_size=3) | st.dictionaries(st.text(), _sides, max_size=3)


@given(st.builds(VerificationReport, st.text(), st.dictionaries(st.text(), _values, max_size=4),
                 _sides, _sides, st.booleans(), st.none() | _floats, st.none() | _floats,
                 st.none() | _floats, st.sampled_from(["equal", "unequal"]),
                 st.none() | st.integers(0, 2**64), st.integers(0, 100),
                 st.dictionaries(st.text(), _values, max_size=3)))
def test_writer_on_random_reports(r):
    assert report_json(r, "\n    ", None, {}) == json_text(to_dict(r), "\n    ")


def test_cli_document_with_a_shared_inputs_dict(capsys):
    """Several reports on one inputs dict, among others on their own:
    the document is the oracle's, report for report."""
    shared, own = {"x": 0.5 - 0.5j, "p": mpmath.mpc(0.1, 0.2)}, {"x": 0.25j, "p": 0.1}
    reports = [VerificationReport(name, inputs, 1 + 1j, 1 + 1j, True, seed=7)
               for name in ("theta-addition", "theta-inversion", "theta-zero-nome")
               for inputs in (shared, own, dict(own))]
    ns = cli.parse_args(["verify", "theta", "--format", "json"])
    assert cli._emit_reports(ns, reports, {"suite": "theta"}) == 0
    want = json_text({"schema": SCHEMA, "command": "verify",
                      "config": cli._config_dict(ns, {"suite": "theta"}),
                      "reports": [to_dict(r) for r in sorted(reports,
                                                             key=VerificationReport.sort_key)]})
    assert capsys.readouterr().out == want + "\n"
