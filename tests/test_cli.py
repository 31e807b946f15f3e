import collections
import enum
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, strategies as st

import fibl
from fibl import elliptic as ell
from fibl import qpoly, tilings
from fibl.cli import main
from fibl.report import DEFAULT_SEED, json_text


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
        qpoly.reset_caches()
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
        if "q-all" in argv:
            # q-all's tiling sums take the cap as their enumeration cap and
            # meet it first, at the 6 tilings of (2, 2); a cap above 6
            # reaches the degree cap
            assert "enumeration of 6 tilings exceeds the cap 3" in err
            code, _, err = run(capsys, *argv, "--cap", "6")
            assert code == 3
            assert "exceeds the degree cap 6" in err
        else:
            assert "exceeds the degree cap 3" in err
        assert qpoly.degree_cap() == qpoly.DEFAULT_DEGREE_CAP

    @pytest.mark.parametrize("suite", ["q-all", "bijection"])
    def test_verify_passes_the_cap_to_tiling_sums(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "--max", "13")
        assert (code, out) == (3, "")
        assert err == ("resource cap exceeded: enumeration of 186135312 tilings "
                       "exceeds the cap 100000000\n")
        code, out, err = run(capsys, "verify", suite, "--max", "13", "--cap", str(10**12))
        assert (code, err) == (0, "")
        *lines, summary = out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)
        assert summary == f"{len(lines)}/{len(lines)} checks passed"


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
        with mpmath.workprec(128):
            want = complex(ell.theta(mpmath.mpc(0.5), mpmath.mpc(params.p), params.trunc_eps))
        code, out, _ = run(capsys, "elliptic", "theta", "0.5", "--seed", "3",
                           "--precision", "ext:128")
        assert code == 0
        assert out == f"{want.real!r}{want.imag:+}j\n"
        code, double, _ = run(capsys, "elliptic", "theta", "0.5", "--seed", "3")
        assert code == 0
        assert double != out

    def test_override_reaches_extended_arithmetic(self, capsys):
        params = ell.sample_params(DEFAULT_SEED, precision_bits=128)
        want = complex(ell.elliptic_fibonomial(3, 4, replace(params, q=0.5 + 0.1j)))
        argv = ("elliptic", "fibonomial", "3", "4", "--q", "0.5+0.1j")
        code, out, _ = run(capsys, *argv, "--precision", "ext:128")
        assert code == 0
        assert out == f"{want.real!r}{want.imag:+}j\n"
        code, double, _ = run(capsys, *argv)
        assert code == 0
        assert double != out

    @pytest.mark.parametrize("override", [("--q", "inf"), ("--a", "nan"), ("--p=-infj",),
                                          ("--b", "nan+1j")])
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
        """The theta inputs print at mpmath's default 15 digits, not at the
        38 of the 128-bit arithmetic that checks them."""
        code, out, _ = run(capsys, "verify", "theta", "--precision", "ext:128",
                           "--samples", "3", "--seed", "1", "--format", "csv")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "e310e058904e9f0ab2e15d88739101188b876a9322cce138d5df7bc741635aec")

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
        points = sum(len(lattice) for lattice in tilings._Q_LATTICES)
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


    @pytest.mark.parametrize("name", ["SEED", "SAMPLES", "TOL", "MAX"])
    def test_invalid_value_is_a_usage_error(self, capsys, monkeypatch, name):
        monkeypatch.setenv("FIBL_" + name, "abc")
        with pytest.raises(SystemExit) as exc:
            main(["fibonomial", "2", "2"])
        assert exc.value.code == 2
        assert f"invalid FIBL_{name}='abc'" in capsys.readouterr().err


def _run_python(*args, **env_extra):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fibl.__file__)))
    env = {**os.environ, **env_extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def _run_module(*args, **env_extra):
    return _run_python("-m", "fibl", *args, **env_extra)


def test_cli_import_leaves_elliptic_and_mpmath_unloaded():
    proc = _run_python("-c", "import sys, fibl.cli; print([m for m in "
                             "('fibl.elliptic', 'mpmath') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_reports_are_emitted_in_sort_key_order():
    from fibl.cli import _sorted_reports
    from fibl.report import exact_report
    reports = ell.theta_property_suite(ell.sample_params(3), 5, seed=3)
    reports += [exact_report(name, {"m": m}, 1, 1)
                for name in ("q-spiral", "q-spiral-at-1") for m in (2, 10, 1, 2)]
    reports += [qpoly.convolution_identity_check_q(m, n) for m, n in ((2, 1), (1, 2))]
    for order in (reports, reports[::-1]):
        want = sorted(order, key=lambda r: r.sort_key())
        assert [id(r) for r in _sorted_reports(order)] == [id(r) for r in want]


@pytest.mark.skipif(not os.environ.get("FIBL_SLOW_TESTS"),
                    reason="~1 s, ~80 MB peak; set FIBL_SLOW_TESTS=1 to run")
def test_sweep_15_peak_memory_slow():
    # A child's ru_maxrss starts at the RSS of the process that spawned it,
    # here the test runner; so a small launcher runs the sweep and reports
    # the ru_maxrss of its own children (KiB on Linux).
    launcher = ("import resource, subprocess, sys; "
                "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    proc = _run_python("-c", launcher, sys.executable, "-m", "fibl",
                       "catalan", "sweep", "--max", "15")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 120


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


def test_out_file_matches_the_benchmark_digest(capsys, tmp_path):
    command = "verify q-all --max 4 --format json"
    path = tmp_path / "q-all.json"
    assert run(capsys, *command.split(), "--out", str(path)) == (0, "", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _DIGESTS[command]
