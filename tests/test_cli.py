import collections
import enum
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, strategies as st

import fibl
from fibl import elliptic as ell
from fibl import kernels, qpoly, tilings
from fibl.cli import main
from fibl.fib import fib
from fibl.report import DEFAULT_SEED, SCHEMA, VerificationReport, json_text
from oracles import to_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFibonomialCommand:
    def test_2_2(self, capsys):
        code, out, _ = run(capsys, "fibonomial", "2", "2")
        assert code == 0
        assert out.strip() == "[1, 2, 2, 1]"

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "fibonomial", "3", "0")
        assert code == 0
        assert out.strip() == "[1]"

    def test_eval_q1(self, capsys):
        code, out, _ = run(capsys, "fibonomial", "5", "5", "--eval-q1")
        assert code == 0
        assert out.strip() == "136136"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "fibonomial", "2", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "fibl-report/1"
        assert doc["polynomial"]["coeffs"] == [["0", "1"], ["1", "2"], ["2", "2"], ["3", "1"]]

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "fibonomial", "-1", "2")
        assert code == 2
        assert "error" in err


class TestEnumerateCommand:
    def test_rect_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "rect", "2", "2", "--count-only")
        assert (code, out.strip()) == (0, "6")

    def test_staircase_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "staircase", "4", "2", "--count-only")
        assert (code, out.strip()) == (0, "6")

    def test_rect_4_4(self, capsys):
        code, out, _ = run(capsys, "enumerate", "rect", "4", "4", "--count-only")
        assert (code, out.strip()) == (0, "1820")

    def test_stream_is_json_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "rect", "2", "2")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 6
        assert all(doc["model"] == "rect" for doc in lines)

    @pytest.mark.parametrize("model, a, b", [("rect", "3", "2"), ("staircase", "6", "3")])
    def test_lines_are_written_as_tilings_arrive(self, capsys, monkeypatch, tmp_path,
                                                 model, a, b):
        name = "iter_rect_tilings" if model == "rect" else "iter_staircase_tilings"
        real = getattr(tilings, name)
        out = tmp_path / "tilings.jsonl"
        expected = "".join(json.dumps(t.to_json(), sort_keys=True) + "\n"
                           for t in real(int(a), int(b)))

        streamed = []

        def checked(*args):
            for count, t in enumerate(real(*args)):
                # every earlier tiling is already on the stream
                streamed.append(capsys.readouterr().out)
                assert "".join(streamed).count("\n") == count
                yield t

        monkeypatch.setattr(tilings, name, checked)
        code, rest, _ = run(capsys, "enumerate", model, a, b)
        assert code == 0
        assert "".join(streamed) + rest == expected
        monkeypatch.undo()
        assert run(capsys, "enumerate", model, a, b, "--out", str(out))[0] == 0
        assert out.read_text() == expected

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "rect", "6", "6", "--cap", "10",
                           "--count-only")
        assert code == 3
        assert "cap" in err

    def test_capped_run_leaves_out_file_unchanged(self, capsys, tmp_path):
        out = tmp_path / "f"
        out.write_text("kept\n")
        code, stdout, err = run(capsys, "enumerate", "rect", "6", "6", "--cap", "10",
                                "--out", str(out))
        assert (code, stdout) == (3, "")
        assert err == ("resource cap exceeded: enumeration of 27261234 tilings "
                       "exceeds the cap 10\n")
        assert out.read_text() == "kept\n"


class TestOutOption:
    @pytest.mark.parametrize("argv", [("fibonomial", "2", "2"),
                                      ("enumerate", "rect", "2", "2")],
                             ids=["emit", "stream"])
    def test_unwritable_path_is_a_usage_error(self, capsys, tmp_path, argv):
        path = str(tmp_path / "missing" / "x")
        code, out, err = run(capsys, *argv, "--out", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write --out {path!r}: ")
        assert "Traceback" not in err

    def test_capped_suite_creates_no_out_file(self, capsys, tmp_path):
        # the file is opened only after the suite has returned
        path = tmp_path / "f.json"
        code, out, err = run(capsys, "verify", "q-all", "--max", "13", "--cap", "50",
                             "--out", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("resource cap exceeded: ")
        assert not path.exists()


class TestCatalanCommand:
    def test_coxeter_counterexample(self, capsys):
        code, out, _ = run(capsys, "catalan", "coxeter", "F4", "2")
        assert code == 0
        assert "not a polynomial" in out

    def test_rational_unit(self, capsys):
        code, out, _ = run(capsys, "catalan", "rational", "1", "1")
        assert code == 0
        assert "polynomial of degree 0" in out

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "catalan", "sweep", "--max", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,gcd,is_polynomial,degree,min_coeff,max_coeff"
        assert all(",true," in line for line in lines[1:])

    @pytest.mark.parametrize("top, digest", [
        ("14", "7d1e084e5f5a4c69f759a69029a2a0cb64cfc1534140fd760ad6190f6a31f58f"),
        pytest.param("15", "62129d986e097c928282ee8d80696e36b72a83d4509333be7d5434d76d83816c",
                     marks=pytest.mark.skipif(not os.environ.get("FIBL_SLOW_TESTS"),
                                              reason="~1 s, ~80 MB peak; "
                                                     "set FIBL_SLOW_TESTS=1 to run")),
        pytest.param("16", "41e73d34958d70cc1a80ba9eb3022b7d6c7c0fabde1fcdab50b502c429c7a415",
                     marks=pytest.mark.skipif(not os.environ.get("FIBL_SLOW_TESTS"),
                                              reason="~3 s, ~150 MB peak; "
                                                     "set FIBL_SLOW_TESTS=1 to run")),
    ])
    def test_sweep_csv_digest(self, capsys, top, digest):
        code, out, _ = run(capsys, "catalan", "sweep", "--max", top, "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_ordinary(self, capsys):
        code, out, _ = run(capsys, "catalan", "ordinary", "3")
        assert code == 0
        assert "polynomial of degree 10" in out

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "catalan", "coxeter", "Z9", "2")
        assert code == 2

    # a wrong count of positionals is a usage error for every catalan
    # command, before any verdict is computed
    @pytest.mark.parametrize("argv", [
        ("sweep", "99", "bogus", "--max", "3"), ("sweep", "3"),
        ("rational", "3"), ("ordinary", "3", "4"), ("coxeter", "F4")])
    def test_extra_or_missing_positionals_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "catalan", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: usage: catalan {argv[0]}")

    # a verdict keeps its quotient as the engine's low half; only a
    # quotient short enough to print (at most 512 coefficients) is unfolded
    @pytest.mark.parametrize("argv, unfolds", [
        (("coxeter", "E8", "3"), 0),                 # not a polynomial
        (("coxeter", "F4", "5"), 0),                 # 1021 coefficients
        (("coxeter", "G2", "5"), 1),                 # 55 coefficients, printed
    ], ids=["E8-3", "F4-5", "G2-5"])
    def test_verdict_unfolds_only_a_printed_quotient(self, capsys, monkeypatch, argv, unfolds):
        real_unfold, lengths = kernels.unfold, []

        def unfold(half, length):
            lengths.append(length)
            return real_unfold(half, length)
        monkeypatch.setattr(kernels, "unfold", unfold)
        code, out, _ = run(capsys, "catalan", *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(lengths) == unfolds
        assert ("quotient" in doc) == bool(unfolds)
        if unfolds:
            assert lengths == [doc["degree"] + 1]


class TestDegreeCapOverride:
    @pytest.mark.parametrize("argv, want", [
        (("catalan", "rational", "3", "2", "--cap", "50"), 0),
        (("catalan", "coxeter", "E8", "3", "--cap", "50"), 3),
        (("fibonomial", "4", "3", "--cap", "100"), 0),
        (("fibonomial", "9", "9", "--cap", "100"), 3),
    ])
    def test_cap_is_restored(self, capsys, argv, want):
        assert qpoly.degree_cap() == qpoly.DEFAULT_DEGREE_CAP
        code, _, _ = run(capsys, *argv)
        assert code == want
        assert qpoly.degree_cap() == qpoly.DEFAULT_DEGREE_CAP

    @pytest.mark.parametrize("warm", [False, True])
    def test_cap_holds_for_cached_values(self, capsys, warm):
        tilings.reset_caches()
        if warm:
            assert run(capsys, "fibonomial", "9", "9")[0] == 0
        assert run(capsys, "fibonomial", "9", "9", "--cap", "100")[0] == 3

    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ("fibonomial", "9", "9"),
        ("enumerate", "rect", "3", "3", "--count-only"),
        ("catalan", "coxeter", "F4", "2"),
        ("verify", "counterexample"),
    ], ids=" ".join)
    def test_cap_below_one_is_a_usage_error(self, capsys, monkeypatch, argv, cap):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cap", cap])
        assert exc.value.code == 2
        monkeypatch.setenv("FIBL_CAP", cap)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "FIBL_CAP" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("verify", "convolution", "--max", "5"),
        ("verify", "q-all", "--max", "4"),
        ("spiral", "7"),
    ], ids=" ".join)
    def test_verify_and_spiral_obey_the_cap(self, capsys, argv):
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--cap", str(qpoly.DEFAULT_DEGREE_CAP)) == (0, plain, "")
        code, _, err = run(capsys, *argv, "--cap", "3")
        assert code == 3
        # q-all's tiling sums list no tilings, so they take --cap as the
        # degree cap, as every check of these commands does
        assert "exceeds the degree cap 3" in err
        assert "enumeration" not in err
        assert qpoly.degree_cap() == qpoly.DEFAULT_DEGREE_CAP

    @pytest.mark.parametrize("suite", ["q-all", "bijection"])
    def test_verify_passes_the_cap_to_tiling_sums(self, capsys, suite):
        # (5, 8) has 186,135,312 tilings, over the default enumeration cap
        # of 10**8; the tiling sums list none, so only the degree cap
        # applies, and --cap 10**12 sets nothing else
        assert qpoly.fibonomial_int(5, 8) > tilings.DEFAULT_ENUMERATION_CAP
        code, out, err = run(capsys, "verify", suite, "--max", "13")
        assert (code, err) == (0, "")
        *lines, summary = out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)
        assert summary == f"{len(lines)}/{len(lines)} checks passed"
        assert run(capsys, "verify", suite, "--max", "13", "--cap", str(10**12)) == (0, out, "")


class TestMaxOption:
    @pytest.mark.parametrize("argv", [
        ("verify", "convolution", "--max", "0"),
        ("verify", "convolution", "--max", "-3"),
        ("catalan", "sweep", "--max", "0"),
    ], ids=" ".join)
    def test_max_below_one_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "--max and FIBL_MAX take an integer >= 1" in capsys.readouterr().err

    def test_env_max_below_one_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("FIBL_MAX", "0")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "convolution"])
        assert exc.value.code == 2
        assert "invalid FIBL_MAX='0'" in capsys.readouterr().err

    def test_verify_without_checks_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "bijection", "--max", "1")
        assert (code, out) == (2, "")
        assert "suite bijection has no checks at --max 1" in err
        assert run(capsys, "verify", "bijection", "--max", "2")[:2] == \
            (0, "PASS model-bijection m=1 n=1 [exact]\n1/1 checks passed\n")


class TestTolOption:
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "abc"])
    def test_tol_must_be_finite_and_positive(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "theta", "--samples", "1", "--tol", tol])
        assert exc.value.code == 2
        assert "--tol and FIBL_TOL take a finite number > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_env_tol_must_be_finite_and_positive(self, capsys, monkeypatch, tol):
        monkeypatch.setenv("FIBL_TOL", tol)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "theta", "--samples", "1"])
        assert exc.value.code == 2
        assert f"invalid FIBL_TOL={tol!r}" in capsys.readouterr().err

    def test_valid_tol_is_used(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "verify", "theta", "--samples", "1", "--tol", "1e-9")
        assert code == 0
        assert "tol=1e-09]" in out
        monkeypatch.setenv("FIBL_TOL", "1e-9")
        assert run(capsys, "verify", "theta", "--samples", "1") == (0, out, "")


class TestSpiralCommand:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "spiral", "7")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("m, degree", [("33", fib(36) - 2), ("36", fib(38) - 1)])
    def test_past_the_cap_fails_before_any_product(self, capsys, monkeypatch, m, degree):
        """The lhs [F_{m+2}] [F_{m+1}] is checked before its first product:
        at m = 33 the factor [F_35] (degree 9,227,464) is under the cap and
        the lhs (degree F_36 - 2) over it; at m = 36 [F_38] is over it."""
        calls = []
        monkeypatch.setattr(kernels, "mul_qnumber", lambda *args: calls.append(args[1:]))
        assert run(capsys, "spiral", m) == (
            3, "", f"resource cap exceeded: polynomial degree {degree} exceeds the degree cap "
                   f"{qpoly.DEFAULT_DEGREE_CAP}\n")
        assert calls == []


class TestEllipticCommand:
    def test_number(self, capsys):
        code, out, _ = run(capsys, "elliptic", "number", "1")
        assert code == 0

    def test_theta_with_explicit_params(self, capsys):
        code, out, _ = run(capsys, "elliptic", "theta", "0.5", "--p", "0",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"]["re"] - 0.5) < 1e-12   # theta(x; 0) = 1 - x

    def test_theta_at_extended_precision(self, capsys):
        params = ell.sample_params(3, precision_bits=128)
        want = complex(ell.theta(0.5, params.p, params.trunc_eps))
        code, out, _ = run(capsys, "elliptic", "theta", "0.5", "--seed", "3",
                           "--precision", "ext:128")
        assert code == 0
        assert out == f"{want.real!r}{want.imag:+}j\n"
        code, double, _ = run(capsys, "elliptic", "theta", "0.5", "--seed", "3")
        assert code == 0
        assert double != out

    def test_override_reaches_extended_arithmetic(self, capsys):
        params = ell.sample_params(DEFAULT_SEED, precision_bits=128)
        want = complex(ell.EllipticRing(params.replace(q=0.5 + 0.1j)).fibonomial(3, 4))
        argv = ("elliptic", "fibonomial", "3", "4", "--q", "0.5+0.1j")
        code, out, _ = run(capsys, *argv, "--precision", "ext:128")
        assert code == 0
        assert out == f"{want.real!r}{want.imag:+}j\n"
        code, double, _ = run(capsys, *argv)
        assert code == 0
        assert double != out

    def test_negative_complex_values(self, capsys):
        """-0.5+0.1j is a value, not an option: as an argument and after --q,
        it reads as it does after "--" and after "=" """
        theta = run(capsys, "elliptic", "theta", "-0.5+0.1j")
        assert theta[0] == 0 and theta == run(capsys, "elliptic", "theta", "--", "-0.5+0.1j")
        number = run(capsys, "elliptic", "number", "3", "--q", "-0.5+0.1j")
        assert number[0] == 0 and number == run(capsys, "elliptic", "number", "3",
                                                "--q=-0.5+0.1j")

    @pytest.mark.parametrize("override", [("--q", "inf"), ("--a", "nan"), ("--p=-infj",),
                                          ("--b", "nan+1j"), ("--p", "nan")])
    @pytest.mark.parametrize("precision", ["double", "ext:128"])
    def test_non_finite_override_is_a_usage_error(self, capsys, precision, override):
        argv = ("elliptic", "number", "3", "--precision", precision, *override)
        assert run(capsys, *argv) == (2, "", "error: a, b, q, p must be finite\n")

    @pytest.mark.parametrize("q, why", [("1e100", "value overflows"),     # q ** n raises
                                        ("3", "value is not finite")])   # nan+nanj
    def test_out_of_range_value_is_degenerate(self, capsys, q, why):
        code, out, err = run(capsys, "elliptic", "fibonomial", "6", "6", "--q", q)
        assert (code, out) == (4, "")
        assert err.startswith(f"degenerate parameters: {why} (") and err.count("\n") == 1

    @pytest.mark.parametrize("precision", ["double", "ext:128"])
    def test_vanishing_denominator_is_degenerate(self, capsys, precision):
        # q = 1 puts theta(q) = 0 in every elliptic number's denominator
        argv = ("elliptic", "number", "3", "--q", "1", "--precision", precision)
        assert run(capsys, *argv) == (4, "", "degenerate parameters: theta denominator "
                                             "magnitude 0.000e+00 below min_denom\n")


class TestVerifyCommand:
    def test_counterexample_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "counterexample")
        assert code == 0
        assert "expected: unequal" in out

    def test_theta_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "theta", "--samples", "5")
        assert code == 0
        assert "20/20 checks passed" in out

    def test_extended_theta_csv_bytes(self, capsys):
        """The theta inputs print as the sampled doubles, as in double
        precision, not at the 38 digits of the 128-bit arithmetic that
        checks them."""
        code, out, _ = run(capsys, "verify", "theta", "--precision", "ext:128",
                           "--samples", "3", "--seed", "1", "--format", "csv")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "01a3781f466bade5e23ee555445aa8f6368add097b804c673e44d6faf03f098c")

    @pytest.mark.parametrize("seed, digest", [
        ("0", "4d31b0eb94a58f8825a8a7087969abadcb4c91dae93719eab8be6c96cc6805b9"),
        ("1", "3bd478245db24f40790d74643374ac633991bc221714c0be77ac8ee525dc4b38"),
    ])
    def test_extended_elliptic_all_csv_bytes(self, capsys, seed, digest):
        code, out, _ = run(capsys, "verify", "elliptic-all", "--samples", "10",
                           "--precision", "ext:128", "--seed", seed, "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        ("verify theta --samples 50 --seed 1 --format csv",
         "75d5a9dceed9f010a9020c2750cea8d863bb21811287091d4dd5491f22d7ad78"),
        ("verify elliptic-all --samples 10 --seed 0 --format csv",
         "81c92af8372d00c471f0000a7f8f4abf5ddb3c309f5f4fbf23348c077dd85fae"),
    ])
    def test_double_elliptic_csv_bytes(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_theta_resample_budget_is_degenerate(self, capsys, monkeypatch):
        monkeypatch.setattr(ell, "DEFAULT_MIN_DENOM", math.inf)
        assert run(capsys, "verify", "theta", "--samples", "2") == (
            4, "", "degenerate parameters: resample budget (100) exhausted at sample 0\n")

    def test_failing_unimodality_report_shows_what_was_found(self, capsys, monkeypatch):
        monkeypatch.setattr(qpoly, "is_unimodal", lambda poly: False)
        code, out, _ = run(capsys, "verify", "q-all", "--max", "2", "--format", "json")
        reports = [r for r in json.loads(out)["reports"] if r["identity"] == "unimodality"]
        assert code == 1 and len(reports) == 55
        assert all((r["lhs"], r["rhs"], r["passed"]) == ("unimodal", "not-unimodal", False)
                   for r in reports)

    @pytest.mark.parametrize("row, found", [
        ((1, 2, 1, True, 3, -1, 1), "polynomial,mixed-sign"),
        ((1, 2, 1, False, None, None, None), "not-polynomial"),
    ])
    def test_failing_catalan_sweep_report_shows_what_was_found(self, capsys, monkeypatch,
                                                               row, found):
        from fibl import catalan
        monkeypatch.setattr(catalan, "q_fibo_catalan_positivity_sweep",
                            lambda max_mn: [catalan.SweepRow(*row)])
        code, out, _ = run(capsys, "verify", "catalan-all", "--format", "json")
        (sweep,) = [r for r in json.loads(out)["reports"] if r["identity"] == "catalan-sweep"]
        assert code == 1
        assert (sweep["lhs"], sweep["rhs"], sweep["passed"]) == (
            "polynomial,non-negative", found, False)

    def test_spiral_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "spiral")
        assert code == 0

    def test_bijection_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "bijection", "--max", "4")
        assert code == 0

    def test_q_all_builds_each_lattice_point_once(self, capsys, monkeypatch):
        """The bijection checks reuse the points the q-all tiling sums built,
        and every point costs at most two IntPoly products."""
        tilings.reset_caches()
        depth = {"gf": 0, "bijection": 0}
        products = dict.fromkeys(depth, 0)
        calls = dict.fromkeys(depth, 0)
        mul = qpoly.IntPoly.__mul__

        def counted_mul(a, b):
            for layer, d in depth.items():
                products[layer] += d > 0
            return mul(a, b)

        def spy(layer, fn):
            def wrapper(*args, **kwargs):
                calls[layer] += 1
                depth[layer] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[layer] -= 1
            return wrapper

        monkeypatch.setattr(qpoly.IntPoly, "__mul__", counted_mul)
        for attr in ("rect_generating_function", "staircase_generating_function"):
            monkeypatch.setattr(tilings, attr, spy("gf", getattr(tilings, attr)))
        monkeypatch.setattr(tilings, "model_bijection_check",
                            spy("bijection", tilings.model_bijection_check))
        code, out, _ = run(capsys, "verify", "q-all", "--max", "9")
        assert code == 0
        assert calls["bijection"] == 36
        assert products["bijection"] == 0
        points = len(tilings.Q_RING.tiling_lattice) + len(tilings.Q_RING.recurrence_lattice)
        assert 0 < products["gf"] <= 2 * points

    def test_json_output_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "theta", "--samples", "3", "--format", "json"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
        doc = json.loads(f1.read_text())
        assert doc["schema"] == "fibl-report/1"
        assert doc["config"]["seed"] == 0x5EED

    def test_seed_changes_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "theta", "--samples", "3", "--format", "json",
                     "--seed", "1", "--out", str(f1)]) == 0
        assert main(["verify", "theta", "--samples", "3", "--format", "json",
                     "--seed", "2", "--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() != f2.read_bytes()


class TestEnvPrecedence:
    def test_env_supplies_default(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "out.json"
        monkeypatch.setenv("FIBL_SEED", "99")
        assert main(["verify", "theta", "--samples", "2", "--format", "json",
                     "--out", str(f)]) == 0
        capsys.readouterr()
        assert json.loads(f.read_text())["config"]["seed"] == 99

    def test_flag_beats_env(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "out.json"
        monkeypatch.setenv("FIBL_SEED", "99")
        assert main(["verify", "theta", "--samples", "2", "--seed", "7",
                     "--format", "json", "--out", str(f)]) == 0
        capsys.readouterr()
        assert json.loads(f.read_text())["config"]["seed"] == 7


    @pytest.mark.parametrize("name", ["SEED", "SAMPLES", "TOL", "MAX", "FORMAT"])
    def test_invalid_value_is_a_usage_error(self, capsys, monkeypatch, name):
        monkeypatch.setenv("FIBL_" + name, "abc")
        with pytest.raises(SystemExit) as exc:
            main(["fibonomial", "2", "2"])
        assert exc.value.code == 2
        assert f"invalid FIBL_{name}='abc'" in capsys.readouterr().err


def _child_env(**env_extra) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(fibl.__file__)))
    return {**os.environ, **env_extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _run_python(*args, **env_extra):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_child_env(**env_extra), timeout=60)


def _run_module(*args, **env_extra):
    return _run_python("-m", "fibl", *args, **env_extra)


def test_cli_import_leaves_elliptic_and_mpmath_unloaded():
    proc = _run_python("-c", "import sys, fibl.cli; print([m for m in "
                             "('fibl.elliptic', 'mpmath') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_commands_import_no_dataclasses_inspect_or_resources():
    """Cold start: the CLI and three commands import none of these, nor
    argparse, gettext or locale, which the command line needs none of.  A
    child runs them, since this process has imported them all already,
    without ``site`` (-S), which loads importlib.resources on some
    installs; the child's path holds fibl's and mpmath's directories, so
    that the ext:128 command would find mpmath if it imported it."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        before = set(sys.modules)
        import fibl.cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [fibl.cli.main(argv.split()) for argv in (
                "catalan coxeter F4 2", "verify q-all --max 3",
                "verify theta --precision ext:128 --samples 2")]
        new = set(sys.modules) - before
        print(codes, "mpmath" in new, sorted(new & {"dataclasses", "inspect", "importlib.resources",
                                                    "argparse", "gettext", "locale"}))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fibl.__file__)))
    path = os.pathsep.join([src, os.path.dirname(os.path.dirname(mpmath.__file__))])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] False []\n"


@pytest.mark.parametrize("argv", ["verify theta --precision ext:128 --samples 2",
                                  "verify elliptic-all --precision ext:128 --samples 1"])
def test_extended_commands_import_no_mpmath(argv):
    """Cold start: the extended regime computes in fibl's own ExtComplex,
    so neither ext:128 suite imports mpmath, which this interpreter can
    import (the tests use it as a reference)."""
    assert "mpmath" in sys.modules
    proc = _run_python("-c", "import contextlib, io, sys, fibl.cli\n"
                             "with contextlib.redirect_stdout(io.StringIO()):\n"
                             f"    code = fibl.cli.main({argv.split()!r})\n"
                             "print(code, 'fibl.elliptic' in sys.modules, 'mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True False\n"


def test_double_theta_commands_import_no_mpmath():
    """Cold start: in double precision ``verify theta`` sums the float
    series at every sampled nome (g <= G0 at |p| <= 0.35), and past G0
    ``elliptic theta`` runs the Gaussian kernel on Python integers:
    neither imports mpmath."""
    proc = _run_python("-c", "import contextlib, io, sys, fibl.cli\n"
                             "with contextlib.redirect_stdout(io.StringIO()):\n"
                             "    codes = [fibl.cli.main(argv.split()) for argv in (\n"
                             "        'verify theta --samples 20', 'elliptic theta 0.5 --p 0.9')]\n"
                             "print(codes, 'fibl.elliptic' in sys.modules, 'mpmath' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] True False\n"


def test_elliptic_theta_past_the_float_guard(capsys):
    """At p = 0.9 (g = 68 > G0) the double command runs the 53-bit
    Gaussian kernel, rounded once: the value --precision ext:53 prints."""
    assert ell._series_guard(math.log(0.9)) > ell._FLOAT_GUARD
    code, out, _ = run(capsys, "elliptic", "theta", "0.5", "--p", "0.9")
    assert code == 0
    code, ext, _ = run(capsys, "elliptic", "theta", "0.5", "--p", "0.9", "--precision", "ext:53")
    assert code == 0 and out == ext == "3.7179192177276774e-13+0.0j\n"


def test_reports_are_emitted_in_sort_key_order():
    from fibl.cli import _sorted_reports
    from fibl.report import exact_report
    reports = ell.theta_property_suite(5, 3)
    reports += [exact_report(name, {"m": m}, 1, 1)
                for name in ("q-spiral", "q-spiral-at-1") for m in (2, 10, 1, 2)]
    reports += [tilings.convolution_check(tilings.Q_RING, m, n) for m, n in ((2, 1), (1, 2))]
    for order in (reports, reports[::-1]):
        want = sorted(order, key=lambda r: r.sort_key())
        assert [id(r) for r in _sorted_reports(order)] == [id(r) for r in want]


def test_sorted_reports_order_prefix_identities_as_sort_key_does():
    """An identity that is a prefix of another sorts after it, as in
    sort_key, when the longer name goes on with a character below "|":
    any letter, digit or "-"."""
    from fibl.cli import _sorted_reports
    from fibl.report import VerificationReport, exact_report
    shared = {"m": 1}
    reports = [exact_report(name, inputs, 1, 1)
               for name in ("spiral", "spiral-at-1", "spiralz", "spiral-at")
               for inputs in (shared, {"m": 2}, shared)]
    want = sorted(reports, key=VerificationReport.sort_key)
    assert [r.identity_name for r in want[::3]] == ["spiral-at-1", "spiral-at", "spiralz", "spiral"]
    for order in (reports, reports[::-1]):
        assert [id(r) for r in _sorted_reports(order)] == [
            id(r) for r in sorted(order, key=VerificationReport.sort_key)]


def test_sorted_reports_on_a_large_theta_suite_and_mixed_identities():
    """The grouped sort gives sort_key()'s order on the 1,200 reports of a
    300-sample theta suite (four identities, one inputs dict shared by a
    sample's four reports), mixed with prefix identities ("spiral",
    "spiralz", ...) whose reports carry equal and shared inputs, in either
    input order."""
    from fibl.cli import _sorted_reports
    from fibl.report import VerificationReport, exact_report
    reports = ell.theta_property_suite(300, 7)
    assert len(reports) == 1200
    shared = {"m": 3}
    reports += [exact_report(name, inputs, 1, 1)
                for name in ("spiral", "spiralz", "spiral-at", "theta-addition")
                for inputs in (shared, {"m": 1}, {"m": 3}, shared)]
    for order in (reports, reports[::-1], reports[1::2] + reports[::2]):
        assert [id(r) for r in _sorted_reports(order)] == [
            id(r) for r in sorted(order, key=VerificationReport.sort_key)]


_SORT_VALUES = st.one_of(
    st.integers(-20, 20), st.integers(), st.floats(), st.complex_numbers(),
    st.text(alphabet="ab1.j(')\\\"", max_size=4),
    st.builds(mpmath.mpc, st.floats(allow_nan=False), st.floats(allow_nan=False)),
    st.sampled_from([1, 12, -1, 1.5, 1.55, 1e16, 1j, -1j, 1.5j, complex(1, 2), complex(-0.0, 1),
                     math.inf, math.nan, complex(0, math.inf), "1", "(1", None, True, (1, 2)]))


@given(st.lists(st.dictionaries(st.sampled_from(["m", "n", "p", "m'", 'q"']), _SORT_VALUES,
                                max_size=3), min_size=1, max_size=6),
       st.lists(st.tuples(st.sampled_from(["spiral", "spiralz", "spiral-at", "theta"]),
                          st.integers(0, 5)), max_size=30))
def test_sorted_reports_match_sort_key_on_mixed_inputs(dicts, picks):
    """Head texts with ties, prefixes of one another's values (1 and 12,
    1.5 and 1.5j, inf and infj), quotes and parentheses in str values,
    shared dicts, and values without a head text (None, bool, a tuple, an
    empty dict), against sorted() by sort_key."""
    from fibl.cli import _sorted_reports
    reports = [VerificationReport(name, dicts[i % len(dicts)], 1, 1, True) for name, i in picks]
    assert [id(r) for r in _sorted_reports(reports)] == [
        id(r) for r in sorted(reports, key=VerificationReport.sort_key)]


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_reports_sharing_inputs_are_written_as_when_formatted_apart(capsys, monkeypatch, fmt):
    """Text and CSV lines format each inputs dict once; the output is the
    one a dict per report gives.  In the spiral suite the two identities
    take the same m, so shared dicts are not adjacent once sorted."""
    import fibl.cli as cli
    argv = ["verify", "spiral", "--format", fmt]
    assert main(argv) == 0
    apart = capsys.readouterr().out
    suite = cli._suite_spiral

    def shared(ns):
        reports, dicts = suite(ns), {}
        for r in reports:
            r.inputs = dicts.setdefault(json.dumps(r.inputs, sort_keys=True), r.inputs)
        assert len(dicts) < len(reports)
        return reports
    monkeypatch.setattr(cli, "_suite_spiral", shared)
    assert main(argv) == 0
    assert capsys.readouterr().out == apart


def _whole_document(ns, reports, extra_config=None) -> str:
    """The report document rendered whole, then written at once, from the
    reports in sort_key order: the text the chunked writer must reproduce."""
    import fibl.cli as cli
    reports = sorted(reports, key=VerificationReport.sort_key)
    if ns.format == "json":
        return json_text({"schema": SCHEMA, "command": ns.command,
                          "config": cli._config_dict(ns, extra_config),
                          "reports": [to_dict(r) for r in reports]}) + "\n"
    if ns.format == "csv":
        lines = ["identity,inputs,expected,passed,abs_diff,rel_diff,tolerance"]
        lines += [f'{r.identity_name},"{cli._csv_inputs(r.inputs)}",{r.expected},{r.passed},'
                  f"{cli._num(r.abs_diff)},{cli._num(r.rel_diff)},{cli._num(r.tolerance)}"
                  for r in reports]
        return "\n".join(lines) + "\n"
    lines = []
    for r in reports:
        detail = "exact" if r.tolerance is None else f"rel={r.rel_diff:.3e} tol={r.tolerance:g}"
        if r.expected == "unequal":
            detail += " (expected: unequal)"
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.identity_name} "
                     f"{cli._text_inputs(r.inputs)} [{detail}]")
    lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("chunk", [None, 1], ids=["default-chunk", "chunk-1"])
@pytest.mark.parametrize("command", [
    "verify q-all --max 5 --format json",
    "verify theta --samples 30 --format json",
    "verify theta --samples 30 --format csv",
    "verify theta --samples 30",
    "verify theta --precision ext:128 --samples 3 --format json",
    "verify counterexample",
    "spiral 4",
])
def test_report_stream_is_the_whole_document(capsys, monkeypatch, command, chunk):
    import fibl.cli as cli
    if chunk is not None:       # every piece is written alone
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    seen = []
    emit = cli._emit_reports

    def spy(ns, reports, extra_config=None):
        seen.append((ns, list(reports), extra_config))
        return emit(ns, reports, extra_config)
    monkeypatch.setattr(cli, "_emit_reports", spy)
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    (ns, reports, extra_config), = seen
    assert out == _whole_document(ns, reports, extra_config)


@pytest.mark.parametrize("chunk", [None, 1], ids=["default-chunk", "chunk-1"])
def test_sweep_stream_is_the_whole_document(capsys, monkeypatch, chunk):
    import fibl.cli as cli
    from fibl import catalan
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    seen = []
    sweep = catalan.q_fibo_catalan_positivity_sweep
    monkeypatch.setattr(catalan, "q_fibo_catalan_positivity_sweep",
                        lambda top: seen.append(sweep(top)) or seen[-1])
    argv = ["catalan", "sweep", "--max", "8", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    ns = cli.parse_args(argv)
    (rows,) = seen
    assert out == json_text({"schema": SCHEMA, "command": "catalan-sweep",
                             "config": cli._config_dict(ns, {"max": 8}),
                             "rows": [r._asdict() for r in rows]}) + "\n"


def test_json_pieces_of_an_empty_list_are_the_whole_document():
    import fibl.cli as cli
    doc = {"command": "c", "config": {"seed": 1}, "rows": [], "schema": SCHEMA}
    assert "".join(cli._json_pieces("c", {"seed": 1}, "rows", [])) == json_text(doc) + "\n"


@pytest.mark.parametrize("args", [("verify", "theta", "--samples", "300", "--format", "json"),
                                  ("enumerate", "rect", "4", "4")], ids=["verify", "enumerate"])
def test_reader_closing_the_pipe_ends_the_command_quietly(args):
    """A reader that stops after one line (``| head -1``) leaves no
    traceback, and the command keeps the exit code of its checks.  Both
    outputs are larger than a pipe's buffer, so the writer meets the
    closed pipe."""
    with subprocess.Popen([sys.executable, "-m", "fibl", *args], env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()        # until the command exits
        code = proc.wait(timeout=60)
    assert first.startswith(b"{")
    assert (code, err) == (0, b"")


def _run_measured(*args):
    """(sha256 of stdout, peak RSS in MB, stdout) of ``python -m fibl *args``.

    A child's ru_maxrss starts at the RSS of the process that spawned it,
    here the test runner; so a small launcher runs the command and reports
    the ru_maxrss of its own children (KiB on Linux), then passes the
    command's stdout on."""
    launcher = ("import hashlib, resource, subprocess, sys; "
                "out = subprocess.run(sys.argv[1:], check=True, stdout=subprocess.PIPE).stdout; "
                "print(hashlib.sha256(out).hexdigest(), "
                "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, flush=True); "
                "sys.stdout.buffer.write(out)")
    proc = _run_python("-c", launcher, sys.executable, "-m", "fibl", *args)
    assert proc.returncode == 0, proc.stderr
    head, _, out = proc.stdout.partition("\n")
    digest, kib = head.split()
    return digest, int(kib) / 1024, out


@pytest.mark.skipif(not os.environ.get("FIBL_SLOW_TESTS"),
                    reason="~1 s, ~40 MB peak; set FIBL_SLOW_TESTS=1 to run")
def test_sweep_15_peak_memory_slow():
    assert _run_measured("catalan", "sweep", "--max", "15")[1] < 64


@pytest.mark.skipif(not os.environ.get("FIBL_SLOW_TESTS"),
                    reason="~4 s, ~170 MB peak; set FIBL_SLOW_TESTS=1 to run")
def test_sweep_17_csv_digest_and_peak_memory_slow():
    digest, mb, _ = _run_measured("catalan", "sweep", "--max", "17", "--format", "csv")
    assert digest == "a16df9cdc979738b06d0278215cc2372b878c1140d30d2ad811c5a2f1da82f93"
    assert mb < 256


@pytest.mark.skipif(not os.environ.get("FIBL_SLOW_TESTS"),
                    reason="~9 s, ~520 MB peak; set FIBL_SLOW_TESTS=1 to run")
def test_sweep_18_csv_digest_and_peak_memory_slow():
    digest, mb, _ = _run_measured("catalan", "sweep", "--max", "18", "--cap", "15000000",
                               "--format", "csv")
    assert digest == "ac8b0eb099ef8623f88159db730d9e2aa1330ab1f70c29ae9b5d575ca43e0826"
    assert mb < 640


@pytest.mark.skipif(not os.environ.get("FIBL_SLOW_TESTS"),
                    reason="~1.5 s, ~300 MB peak; set FIBL_SLOW_TESTS=1 to run")
def test_coxeter_e8_a7_json_digest_and_peak_memory_slow():
    # the quotient has about 1.5e7 coefficients; the verdict keeps its low half
    digest, mb, _ = _run_measured("catalan", "coxeter", "E8", "7", "--cap", "20000000",
                               "--format", "json")
    assert digest == "5b904d1b5f31979150c37d5a217946c472d1defa004983904625e4afa1115398"
    assert mb < 400


@pytest.mark.skipif(not os.environ.get("FIBL_SLOW_TESTS"),
                    reason="~1 s, ~22 MB peak; set FIBL_SLOW_TESTS=1 to run")
def test_theta_2000_json_document_peak_memory_slow():
    # a 7.4 MB document: written in chunks, it never exists whole in memory
    _, mb, out = _run_measured("verify", "theta", "--samples", "2000", "--seed", "0",
                               "--format", "json")
    reports = json.loads(out)["reports"]
    assert len(reports) == 8000
    assert all(r["passed"] for r in reports)
    assert mb < 40


def test_python_dash_m_runs_the_cli():
    proc = _run_module("fibonomial", "2", "2")
    assert proc.returncode == 0
    assert proc.stdout == "[1, 2, 2, 1]\n"


def test_stale_kernel_backend_variable_is_ignored():
    # this variable once chose between two kernel backends; a value left
    # in the environment must not break startup
    proc = _run_module("fibonomial", "2", "2", FIBL_KERNELS="c")
    assert proc.returncode == 0
    assert proc.stdout == "[1, 2, 2, 1]\n"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --format json text: json_text against json.dumps, and the benchmark's digests

_json_strings = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é€😀\u2028", ""])
_json_scalars = (st.none() | st.booleans() | _json_strings
                 | st.integers() | st.integers(min_value=-10**400, max_value=10**400)
                 | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))
_str_lists = (st.lists(st.lists(_json_strings, min_size=2, max_size=2))     # IntPoly pairs
              | st.lists(st.lists(_json_strings, max_size=3)))               # empty and uneven rows
_json_trees = st.recursive(
    _json_scalars | _str_lists,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(_json_strings, children)),
    max_leaves=20)


@given(_json_trees)
def test_json_text_is_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


class _Level(enum.IntEnum):
    HIGH = 7


@pytest.mark.parametrize("doc", [
    [["1", "2"], ["3"]], [["1", "2"], []], [["1", "2"], ("3", "4")], [["1", 2], ["3", "4"]],
    [["1", "2"], "3"], [1, "a", 2.5, None, True], [[], []],
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -10**400], {"x": -math.inf, "y": math.nan},
    collections.OrderedDict([("b", _Level.HIGH), ("a", [_Level.HIGH])]),
], ids=["uneven", "empty-row", "tuple-row", "int-cell", "str-item", "mixed", "empty-rows",
        "float-words", "float-words-in-dict", "subclasses"])
def test_json_text_on_edge_documents(doc):
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("doc", [{1, 2}, b"x", object(), {1: "a"}, {"a": [{"b": {2}}]},
                                 [["1", b"2"]]],
                         ids=["set", "bytes", "object", "int-key", "nested-set", "bytes-cell"])
def test_json_text_rejects_what_json_cannot_write(doc):
    with pytest.raises(TypeError):
        json_text(doc)


_DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "digests.json")
                      .read_text())


@pytest.mark.parametrize("command", sorted(_DIGESTS))
def test_stdout_matches_the_benchmark_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DIGESTS[command]


def test_q_all_to_13_json_digest(capsys):
    # a 0.6 MB document of 482 reports, beyond the benchmark's sizes
    code, out, _ = run(capsys, "verify", "q-all", "--max", "13", "--cap", "1000000000000",
                       "--format", "json")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "24a822bec3c496dae1627954b5cc1f8d8adecbc80cf472dab7b292287ab4e759")


def test_out_file_matches_the_benchmark_digest(capsys, tmp_path):
    command = "verify q-all --max 4 --format json"
    path = tmp_path / "q-all.json"
    assert run(capsys, *command.split(), "--out", str(path)) == (0, "", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _DIGESTS[command]
