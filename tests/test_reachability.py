"""Reachability guard: which functions of src/fibl no command enters.

A fixed list of small CLI commands, covering every subcommand and output
format, one --cap, --tol and --out, the help texts, and the exit paths for
a cap, a usage error and degenerate parameters, runs in process under
``sys.setprofile`` with every memo table dropped first.  Every function, method, nested
function and lambda compiled from src/fibl that none of them entered must
be on ALLOWED_UNREACHED, with the reason it is kept.  The test fails when
code appears that no command reaches, and when an allowlisted function
gains a caller, so that the list stays exact.
"""

import os
import sys

import pytest

import fibl
import fibl.cli
import fibl.elliptic
from fibl import tilings

SRC = os.path.dirname(os.path.abspath(fibl.__file__))

COMMANDS = [
    ["fibonomial", "2", "2"],
    ["fibonomial", "3", "2", "--format", "json"],
    ["fibonomial", "5", "5", "--eval-q1", "--format", "csv"],
    ["fibonomial", "9", "9", "--cap", "100"],                       # exit 3: degree cap
    ["enumerate", "rect", "2", "2"],
    ["enumerate", "staircase", "4", "2"],
    ["enumerate", "rect", "3", "2", "--count-only", "--format", "json"],
    ["verify", "q-all", "--max", "4", "--format", "json"],
    ["verify", "elliptic-all", "--samples", "10", "--format", "csv"],
    ["verify", "catalan-all", "--max", "5"],
    ["verify", "theta", "--samples", "2", "--precision", "ext:128", "--tol", "1e-18",
     "--format", "json"],
    ["verify", "spiral", "--format", "csv"],
    ["verify", "convolution", "--max", "3"],
    ["verify", "bijection", "--max", "4"],
    ["verify", "counterexample", "--format", "json"],
    ["catalan", "rational", "3", "2"],
    ["catalan", "coxeter", "F4", "2", "--format", "json"],
    ["catalan", "sweep", "--max", "5", "--format", "json"],
    ["catalan", "sweep", "--max", "5", "--format", "csv"],
    ["catalan", "ordinary", "3"],
    ["catalan", "coxeter", "Z9", "2"],                              # exit 2: usage error
    ["elliptic", "number", "3"],
    ["elliptic", "number", "3", "--precision", "ext:128"],
    ["elliptic", "fibonomial", "2", "2", "--format", "json"],
    ["elliptic", "theta", "0.5", "--p", "0.9"],
    ["elliptic", "theta", "0.5", "--precision", "ext:128"],
    ["elliptic", "fibonomial", "6", "6", "--q", "3"],               # exit 4: degenerate
    ["spiral", "3", "--format", "json"],
]
# Commands that end in SystemExit: the help texts, and a usage error of the parser
EXITING = [(["--help"], 0), (["elliptic", "--help"], 0), (["fibonomial", "x", "2"], 2)]

# "module.qualname" -> why it stays although no command enters it
ALLOWED_UNREACHED = {
    "catalan.PolynomialityVerdict.__repr__":
        "a verdict's repr without its half, which can run to 10**6 numbers; "
        "tests/test_records.py checks it",
    "elliptic._limit_factors":
        "limit_chain's factor lists",
    "elliptic._limit_factors.<locals>.<lambda>":
        "limit_chain's factor lists, rebased",
    "elliptic.limit_chain":
        "the symbolic degeneration p, a, b -> 0 that acceptance criterion 10 tests "
        "and that the tests check the q ring against",
    "elliptic.elliptic_weight":
        "the elliptic weight of one listed tiling, which the tests sum over "
        "enumerated tilings as the tiling transfer's oracle",
    "extended.ExtComplex.__le__": "the order of B-bit reals, whole for library callers; "
                                  "tests/test_extended.py checks it",
    "extended.ExtComplex.__repr__": "ExtComplex's text in assertion messages and at the prompt",
    "kernels._rises_then_falls":
        "scan_unimodal's loop for a sequence that is no palindrome; the commands "
        "scan only palindromes, and the tests use the loop as the reference",
    "qpoly.IntPoly.__bool__": "IntPoly's value protocol, for library callers",
    "qpoly.IntPoly.__hash__": "IntPoly's value protocol: usable as a key; tests check it",
    "qpoly.IntPoly.__len__": "IntPoly's value protocol; perfbench's tracer reads len() "
                             "of each product",
    "qpoly.IntPoly.__neg__": "IntPoly's ring operations, for library callers; tests check it",
    "qpoly.IntPoly.__repr__": "IntPoly's text in assertion messages and at the prompt",
    "qpoly.IntPoly.__sub__": "IntPoly's ring operations, for library callers; tests check it",
    "qpoly.IntPoly.coeff": "IntPoly's coefficient access, which __sub__ uses",
    "qpoly.IntPoly.evaluate": "evaluation at a point; the limit_chain tests compare with it",
    "qpoly.IntPoly.monomial": "q_weight's single power of q",
    "qpoly.IntPoly.one": "the unit, which Q_RING reads once, at import; the tests use it",
    "qpoly.IntPoly.zero": "the zero, which Q_RING reads once, at import, for a forced "
                          "strip of height 1; the tests use it",
    "qpoly.IntPoly.substitute_power": "q -> q^m, which the tests' q_number_base oracle "
                                      "builds on; tests check it",
    "qpoly.degree_cap": "reads the degree cap; the tests check that --cap restores it",
    "qpoly.q_number": "[n] as n ones, the tests' reference for the window kernels "
                      "and the q ring's products",
    "report.VerificationReport.sort_key": "the report order that cli._sorted_reports "
                                          "reproduces; the tests compare against it",
    "tilings.QRing.__init__": "makes Q_RING's empty tables, once, at import; "
                              "reset_caches makes them afresh",
    "tilings.q_weight": "one tiling's q-weight, which acceptance criterion 4 tests",
    "tilings.reset_caches": "drops every q table; the tests use it between runs",
    "tilings.validate_rect_tiling": "the independent geometric checker that acceptance "
                                    "criterion 4 tests",
    "tilings.validate_staircase_tiling": "the staircase checker that ROADMAP item 10's "
                                         "tiling-level bijection will use",
}

CO_OPTIMIZED = 0x1          # set on function bodies, not on module or class bodies


def _functions():
    """{"module.qualname": [(path, first line), ...]} over every function,
    method, nested function and lambda compiled from src/fibl; qualnames
    are built from the nesting, as __qualname__ is (comprehension bodies
    are left out)."""
    found = {}

    def walk(code, module, path, prefix, in_function):
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            name = const.co_name
            if name.startswith("<") and name != "<lambda>":
                continue
            qual = prefix + (".<locals>." if in_function else ".") + name if prefix else name
            if const.co_flags & CO_OPTIMIZED:
                found.setdefault(module + "." + qual, []).append((path, const.co_firstlineno))
            walk(const, module, path, qual, bool(const.co_flags & CO_OPTIMIZED))

    for fn in sorted(os.listdir(SRC)):
        if fn.endswith(".py"):
            path = os.path.join(SRC, fn)
            with open(path) as fh:
                walk(compile(fh.read(), path, "exec"), fn[:-3], path, "", False)
    return found


def _drop_memo_tables():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "fibl" or name.startswith("fibl.")):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    tilings.reset_caches()          # Q_RING's tables are dicts, not lru caches


def test_every_unreached_function_is_allowlisted(capsys, tmp_path):
    functions = _functions()
    _drop_memo_tables()
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    sys.setprofile(profile)
    try:
        for argv in COMMANDS:
            codes.append(fibl.cli.main(argv))
        codes.append(fibl.cli.main(["verify", "spiral", "--out", str(tmp_path / "spiral.txt")]))
        for argv, code in EXITING:
            with pytest.raises(SystemExit) as exc:
                fibl.cli.main(argv)
            assert exc.value.code == code
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes.count(0) == len(codes) - 3 and sorted(set(codes)) == [0, 2, 3, 4]
    unreached = {name for name, places in functions.items()
                 if not any(place in entered for place in places)}
    assert sorted(unreached - ALLOWED_UNREACHED.keys()) == [], "reached by no command"
    assert sorted(ALLOWED_UNREACHED.keys() - unreached) == [], "allowlisted but reached"
