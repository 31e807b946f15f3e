"""Command-line harness.

Subcommands: fibonomial, enumerate, verify, catalan, elliptic, spiral.
Configuration precedence is flags > FIBL_* environment variables >
defaults; the seed defaults to 0x5EED so every run is reproducible unless
explicitly reseeded.  Identical configurations produce byte-identical
JSON/CSV output: reports are sorted by a canonical key before emission.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 resource cap,
4 degenerate parameters.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Optional

from fibl import catalan as cat
from fibl import qpoly, tilings
from fibl.errors import DegenerateParametersError, NotPolynomialError, ResourceLimitError
from fibl.report import DEFAULT_SEED, SCHEMA, VerificationReport, inputs_key

# fibl.elliptic is imported by the elliptic commands and suites only, so the
# exact commands start without it; its names are looked up at call time.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DEGENERATE = 4

SUITES = ("q-all", "elliptic-all", "catalan-all", "theta", "spiral",
          "convolution", "bijection", "counterexample")


def _env(name: str, cast, default):
    raw = os.environ.get("FIBL_" + name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        print(f"invalid FIBL_{name}={raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least_one(name: str):
    """The argparse type of --NAME / FIBL_NAME: an integer >= 1."""
    def parse(text: str) -> int:
        if not text.strip().isdigit() or int(text) < 1:
            raise argparse.ArgumentTypeError(
                f"--{name} and FIBL_{name.upper()} take an integer >= 1, got {text!r}")
        return int(text)
    return parse


def _finite_positive(name: str):
    """The argparse type of --NAME / FIBL_NAME: a finite number > 0."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"--{name} and FIBL_{name.upper()} take a finite number > 0, got {text!r}")
        return value
    return parse


def _parse_precision(text: str) -> Optional[int]:
    """'double' -> None; 'ext:BITS' -> BITS."""
    if text == "double":
        return None
    if text.startswith("ext:"):
        bits = int(text[4:])
        if bits < 53:
            raise ValueError("extended precision needs at least 53 bits")
        return bits
    raise ValueError(f"precision must be 'double' or 'ext:BITS', got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=_env("SEED", int, DEFAULT_SEED))
    common.add_argument("--samples", type=int, default=_env("SAMPLES", int, 20))
    common.add_argument("--tol", type=_finite_positive("tol"),
                        default=_env("TOL", _finite_positive("tol"), None))
    # argparse runs a string default through type= as well
    common.add_argument("--cap", type=_at_least_one("cap"), default=os.environ.get("FIBL_CAP"),
                        help="enumeration or degree cap override (>= 1), by command")
    common.add_argument("--max", type=_at_least_one("max"),
                        default=_env("MAX", _at_least_one("max"), None))
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=_env("FORMAT", str, "text"))
    common.add_argument("--out", default=_env("OUT", str, None))
    common.add_argument("--precision", default=_env("PRECISION", str, "double"))

    parser = argparse.ArgumentParser(
        prog="fibl",
        description="Exact q-analogs and numeric elliptic analogs of "
                    "Fibonomial numbers, with tiling models and verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fibonomial", parents=[common],
                       help="print the q-Fibonomial polynomial")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--eval-q1", action="store_true",
                   help="print the integer value at q = 1 instead")

    p = sub.add_parser("enumerate", parents=[common],
                       help="stream tilings of one of the two models")
    p.add_argument("model", choices=("rect", "staircase"))
    p.add_argument("a", type=int, help="m (rect) or n (staircase)")
    p.add_argument("b", type=int, help="n (rect) or k (staircase)")
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("verify", parents=[common],
                       help="run a verification suite")
    p.add_argument("suite", choices=SUITES)

    p = sub.add_parser("catalan", parents=[common],
                       help="rational q-Fibo-Catalan verdicts")
    p.add_argument("what", choices=("rational", "coxeter", "sweep", "ordinary"))
    p.add_argument("args", nargs="*",
                   help="rational M N | coxeter FAMILY A | sweep | ordinary N")

    p = sub.add_parser("elliptic", parents=[common],
                       help="evaluate elliptic quantities directly")
    p.add_argument("what", choices=("number", "fibonomial", "theta"))
    p.add_argument("args", nargs="*",
                   help="number N | fibonomial M N | theta X")
    for flag in ("--a", "--b", "--q", "--p"):
        p.add_argument(flag, type=complex, default=None,
                       help="complex parameter, e.g. 0.5+0.2j (default: sampled from seed)")

    p = sub.add_parser("spiral", parents=[common],
                       help="check the n = 2 spiral identity at one m")
    p.add_argument("m", type=int)

    return parser


# ---------------------------------------------------------------------------
# Output

@contextlib.contextmanager
def _output(out: Optional[str]):
    """The --out file, opened for writing (ValueError if it cannot be), or stdout."""
    if not out:
        yield sys.stdout
        return
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise ValueError(f"cannot write --out {out!r}: {exc.strerror}") from exc
    with fh:
        yield fh


def _write(text: str, out: Optional[str]) -> None:
    with _output(out) as fh:
        fh.write(text)


def _sorted_reports(reports: list[VerificationReport]) -> list[VerificationReport]:
    """The reports in sort_key() order.  The reports of one sample share
    one inputs dict and come one after another, so the inputs part of the
    key is formatted once per run of reports with the same dict."""
    last = [None, ""]           # the last inputs dict seen and its text

    def key(r: VerificationReport) -> str:
        if r.inputs is not last[0]:
            last[:] = r.inputs, inputs_key(r.inputs)
        return r.identity_name + "|" + last[1]
    return sorted(reports, key=key)


def _emit_reports(ns, reports: list[VerificationReport], extra_config=None) -> int:
    reports = _sorted_reports(reports)
    failed = [r for r in reports if not r.passed]
    if ns.format == "json":
        doc = {
            "schema": SCHEMA,
            "command": ns.command,
            "config": _config_dict(ns, extra_config),
            "reports": [r.to_dict() for r in reports],
        }
        _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", ns.out)
    elif ns.format == "csv":
        lines = ["identity,inputs,expected,passed,abs_diff,rel_diff,tolerance"]
        for r in reports:
            inputs = json.dumps(r.inputs, sort_keys=True, default=str).replace('"', "'")
            lines.append(f'{r.identity_name},"{inputs}",{r.expected},{r.passed},'
                         f"{_num(r.abs_diff)},{_num(r.rel_diff)},{_num(r.tolerance)}")
        _write("\n".join(lines) + "\n", ns.out)
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            detail = "exact" if r.tolerance is None else f"rel={r.rel_diff:.3e} tol={r.tolerance:g}"
            if r.expected == "unequal":
                detail += " (expected: unequal)"
            inputs = " ".join(f"{k}={v}" for k, v in sorted(r.inputs.items())
                              if isinstance(v, (int, str)))
            lines.append(f"{status} {r.identity_name} {inputs} [{detail}]")
        lines.append(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
        _write("\n".join(lines) + "\n", ns.out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _num(v) -> str:
    return "" if v is None else repr(v)


def _config_dict(ns, extra=None) -> dict:
    cfg = {
        "seed": ns.seed, "samples": ns.samples, "tol": ns.tol, "cap": ns.cap,
        "max": ns.max, "format": ns.format, "precision": ns.precision,
    }
    if extra:
        cfg.update(extra)
    return {k: v for k, v in sorted(cfg.items()) if v is not None}


def _emit_payload(ns, payload: dict, text_line: str) -> int:
    if ns.format == "json":
        doc = {"schema": SCHEMA, "command": ns.command,
               "config": _config_dict(ns), **payload}
        _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", ns.out)
    else:
        _write(text_line + "\n", ns.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands

@contextlib.contextmanager
def _degree_cap(cap: Optional[int]):
    """Apply a --cap degree override for one command, then restore the old cap."""
    if cap is None:
        yield
        return
    old = qpoly.set_degree_cap(cap)
    try:
        yield
    finally:
        qpoly.set_degree_cap(old)


def _cmd_fibonomial(ns) -> int:
    if ns.m < 0 or ns.n < 0:
        raise ValueError("m and n must be >= 0")
    with _degree_cap(ns.cap):
        poly = qpoly.q_fibonomial(ns.m, ns.n)
    if ns.eval_q1:
        val = poly.eval_q1()
        return _emit_payload(ns, {"m": ns.m, "n": ns.n, "value_at_1": val}, str(val))
    return _emit_payload(
        ns, {"m": ns.m, "n": ns.n, "polynomial": poly.to_json()},
        str(list(poly.coeffs)))


def _enumeration_cap(ns) -> int:
    return tilings.DEFAULT_ENUMERATION_CAP if ns.cap is None else ns.cap


def _cmd_enumerate(ns) -> int:
    cap = _enumeration_cap(ns)
    if ns.model == "rect":
        expected = qpoly.fibonomial_int(ns.a, ns.b)
    else:
        if not 0 <= ns.b <= ns.a:
            raise ValueError("staircase needs n >= k >= 0")
        expected = qpoly.fibonomial_int(ns.a - ns.b, ns.b)
    if expected > cap:
        raise ResourceLimitError(
            f"enumeration of {expected} tilings exceeds the cap {cap}", cap=cap)
    enumerate_tilings = (tilings.enumerate_rect_tilings if ns.model == "rect"
                         else tilings.enumerate_staircase_tilings)
    if ns.count_only:
        count = enumerate_tilings(ns.a, ns.b, cap=cap)
        return _emit_payload(ns, {"model": ns.model, "dims": [ns.a, ns.b],
                                  "count": count}, str(count))
    with _output(ns.out) as fh:      # one JSON line per tiling, as it comes
        enumerate_tilings(ns.a, ns.b,
                          lambda t: fh.write(json.dumps(t.to_json(), sort_keys=True) + "\n"),
                          cap=cap)
    return EXIT_OK


def _cmd_spiral(ns) -> int:
    with _degree_cap(ns.cap):
        reports = [qpoly.spiral_identity_check(ns.m), qpoly.spiral_identity_check_q1(ns.m)]
    return _emit_reports(ns, reports)


def _cmd_catalan(ns) -> int:
    with _degree_cap(ns.cap):
        if ns.what == "rational":
            m, n = _int_args(ns.args, 2, "catalan rational M N")
            verdict = cat.q_fibo_catalan_rational(m, n)
            return _emit_verdict(ns, verdict, {"m": m, "n": n, "gcd": math.gcd(m, n)})
        if ns.what == "ordinary":
            (n,) = _int_args(ns.args, 1, "catalan ordinary N")
            verdict = cat.q_fibo_catalan_ordinary(n)
            return _emit_verdict(ns, verdict, {"n": n})
        if ns.what == "coxeter":
            if len(ns.args) != 2:
                raise ValueError("usage: catalan coxeter FAMILY A (e.g. F4 2, A4 3)")
            ct = _parse_coxeter(ns.args[0])
            a = int(ns.args[1])
            verdict = cat.coxeter_q_fibo_catalan(ct, a)
            return _emit_verdict(ns, verdict, {"type": ct.label(), "a": a,
                                               "coprime": math.gcd(a, ct.coxeter_number) == 1})
        # sweep
        max_mn = ns.max if ns.max else 15
        rows = cat.q_fibo_catalan_positivity_sweep(max_mn)
        lines = cat.sweep_csv_lines(rows)
        if ns.format == "json":
            from dataclasses import asdict
            doc = {"schema": SCHEMA, "command": "catalan-sweep",
                   "config": _config_dict(ns, {"max": max_mn}),
                   "rows": [asdict(r) for r in rows]}
            _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", ns.out)
        else:
            _write("\n".join(lines) + "\n", ns.out)
        bad = [r for r in rows if not r.is_polynomial or (r.min_coeff or 0) < 0]
        return EXIT_CHECK_FAILED if bad else EXIT_OK


def _emit_verdict(ns, verdict, inputs: dict) -> int:
    payload = {
        "inputs": inputs,
        "is_polynomial": verdict.is_polynomial,
        "remainder_degree": verdict.remainder_degree,
        "all_coeffs_nonnegative": verdict.all_coeffs_nonnegative,
        "degree": verdict.degree,
    }
    if verdict.is_polynomial and len(verdict.quotient) <= 512:
        payload["quotient"] = verdict.quotient.to_json()
    if verdict.is_polynomial:
        sign = "non-negative" if verdict.all_coeffs_nonnegative else "MIXED-SIGN"
        text = f"polynomial of degree {verdict.degree} with {sign} coefficients"
    else:
        rd = verdict.remainder_degree
        text = "not a polynomial" + ("" if rd is None else f" (remainder degree {rd})")
    return _emit_payload(ns, payload, text)


def _parse_coxeter(label: str) -> cat.CoxeterType:
    label = label.strip().upper()
    if label in cat._FIXED_EXPONENTS:
        return cat.CoxeterType(label)
    family, rank = label[0], label[1:]
    if family in ("A", "B", "D") and rank.isdigit():
        return cat.CoxeterType(family, int(rank))
    raise ValueError(f"unknown Coxeter type {label!r} (expected e.g. A4, B3, D5, E6, F4, G2)")


def _int_args(args, count, usage):
    if len(args) != count:
        raise ValueError(f"usage: {usage}")
    return tuple(int(x) for x in args)


def _cmd_elliptic(ns) -> int:
    from fibl import elliptic as ell
    bits = _parse_precision(ns.precision)
    params = ell.sample_params(ns.seed, precision_bits=bits,
                               eq_tol=ns.tol, min_denom=None)
    overrides = {k: getattr(ns, k) for k in ("a", "b", "q", "p")
                 if getattr(ns, k) is not None}
    if overrides:
        from dataclasses import replace
        params = replace(params, **overrides)
    if ns.what == "number":
        (n,) = _int_args(ns.args, 1, "elliptic number N")
        val = ell.elliptic_number(n, params)
    elif ns.what == "fibonomial":
        m, n = _int_args(ns.args, 2, "elliptic fibonomial M N")
        val = ell.elliptic_fibonomial(m, n, params)
    else:
        if len(ns.args) != 1:
            raise ValueError("usage: elliptic theta X")
        val = ell.theta_value(complex(ns.args[0]), params)
    cval = complex(val)
    payload = {"what": ns.what, "args": list(ns.args),
               "params": {"a": _cpx(params.a), "b": _cpx(params.b),
                          "q": _cpx(params.q), "p": _cpx(params.p)},
               "value": _cpx(cval)}
    return _emit_payload(ns, payload, f"{cval.real!r}{cval.imag:+}j")


def _cpx(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# Verification suites

def _suite_theta(ns) -> list[VerificationReport]:
    from fibl import elliptic as ell
    bits = _parse_precision(ns.precision)
    params = ell.sample_params(ns.seed, precision_bits=bits, eq_tol=ns.tol)
    return ell.theta_property_suite(params, ns.samples, seed=ns.seed)


def _suite_spiral(ns) -> list[VerificationReport]:
    reports = [qpoly.spiral_identity_check(m) for m in range(1, 13)]
    reports += [qpoly.spiral_identity_check_q1(m) for m in range(1, 41)]
    return reports


def _suite_convolution(ns) -> list[VerificationReport]:
    top = ns.max if ns.max else 6
    return [qpoly.convolution_identity_check_q(m, n)
            for m in range(1, top + 1) for n in range(1, top + 1)]


def _suite_bijection(ns) -> list[VerificationReport]:
    top = ns.max if ns.max else 6
    return [tilings.model_bijection_check(m, n, cap=_enumeration_cap(ns))
            for m in range(1, top) for n in range(1, top) if m + n <= top]


def _suite_counterexample(ns) -> list[VerificationReport]:
    return [tilings.catalan_partial_tiling_counterexample(6)]


def _suite_q_all(ns) -> list[VerificationReport]:
    from fibl.report import exact_report
    top = ns.max if ns.max else 8
    reports = []
    for m in range(1, top):
        for n in range(1, top):
            if m + n > top:
                continue
            gf = tilings.rect_generating_function(m, n, cap=_enumeration_cap(ns))
            qf = qpoly.q_fibonomial(m, n)
            rec = qpoly.q_fibonomial_recurrence(m, n)
            reports.append(exact_report("rect-gf-vs-ratio", {"m": m, "n": n}, gf, qf))
            reports.append(exact_report("recurrence-vs-ratio", {"m": m, "n": n}, rec, qf))
    for n in range(0, top + 1):
        for k in range(0, n + 1):
            gf = tilings.staircase_generating_function(n, k, cap=_enumeration_cap(ns))
            reports.append(exact_report("staircase-gf-vs-ratio", {"n": n, "k": k},
                                        gf, qpoly.q_fibonomial(n - k, k)))
    reports += _suite_bijection(ns)
    reports += _suite_spiral(ns)
    reports += _suite_convolution(argparse.Namespace(**{**vars(ns), "max": min(top, 6)}))
    for m in range(1, 11):
        for n in range(m, 11):
            poly = qpoly.q_fibonomial(m, n)
            reports.append(VerificationReport(
                identity_name="unimodality", inputs={"m": m, "n": n},
                lhs="unimodal", rhs="unimodal",
                passed=qpoly.is_unimodal(poly)))
    return reports


def _suite_elliptic_all(ns) -> list[VerificationReport]:
    from fibl import elliptic as ell
    bits = _parse_precision(ns.precision)
    kw = dict(precision_bits=bits, eq_tol=ns.tol)
    reports = list(_suite_theta(ns))
    n_samples = max(1, ns.samples // 10)
    for m in range(1, 7):
        for n in range(1, 7):
            reports += ell.run_sampled_checks(
                lambda p, m=m, n=n: ell.elliptic_addition_check(m, n, p),
                ns.seed, 1, **kw)
            reports += ell.run_sampled_checks(
                lambda p, m=m, n=n: ell.fib_splitting_check(m, n, p),
                ns.seed, 1, **kw)
            reports += ell.run_sampled_checks(
                lambda p, m=m, n=n: ell.elliptic_theorem_check(m, n, p),
                ns.seed, n_samples, **kw)
    for n in range(1, 9):
        reports += ell.run_sampled_checks(
            lambda p, n=n: ell.elliptic_strip_check(n, p), ns.seed, n_samples, **kw)
    for m in range(1, 6):
        reports += ell.run_sampled_checks(
            lambda p, m=m: ell.elliptic_spiral_check(m, p), ns.seed, n_samples, **kw)
    for m in range(1, 5):
        for n in range(1, 5):
            reports += ell.run_sampled_checks(
                lambda p, m=m, n=n: ell.elliptic_convolution_check(m, n, p),
                ns.seed, n_samples, **kw)
    for n in range(1, 7):
        for k in range(0, n + 1):
            reports += ell.run_sampled_checks(
                lambda p, n=n, k=k: ell.elliptic_staircase_check(n, k, p),
                ns.seed, n_samples, **kw)
    return reports


_COXETER_SAMPLES = (("A", 3, 3), ("A", 4, 3), ("B", 3, 5), ("D", 4, 5),
                    ("D", 5, 3), ("E6", None, 5), ("E7", None, 5),
                    ("E8", None, 1), ("F4", None, 5), ("G2", None, 7))


def _suite_catalan_all(ns) -> list[VerificationReport]:
    from fibl.report import exact_report
    reports = []
    max_mn = ns.max if ns.max else 15
    rows = cat.q_fibo_catalan_positivity_sweep(max_mn)
    ok = all(r.is_polynomial and r.min_coeff >= 0 for r in rows)
    reports.append(VerificationReport(
        identity_name="catalan-sweep", inputs={"max": max_mn},
        lhs="polynomial,non-negative", rhs="polynomial,non-negative", passed=ok,
        notes={"pairs": len(rows)}))
    for m in range(1, 11):
        for n in range(1, 11):
            reports.append(cat.q_fibo_catalan_divisibility_check(m, n))
    for family, rank, a in _COXETER_SAMPLES:
        ct = cat.CoxeterType(family, rank)
        verdict = cat.coxeter_q_fibo_catalan(ct, a)
        reports.append(VerificationReport(
            identity_name="coxeter-positive", inputs={"type": ct.label(), "a": a},
            lhs="polynomial,non-negative",
            rhs=("polynomial,non-negative" if verdict.is_polynomial
                 and verdict.all_coeffs_nonnegative else "other"),
            passed=bool(verdict.is_polynomial and verdict.all_coeffs_nonnegative)))
    f4 = cat.coxeter_q_fibo_catalan(cat.CoxeterType("F4"), 2)
    reports.append(VerificationReport(
        identity_name="coxeter-f4-counterexample", inputs={"type": "F4", "a": 2},
        lhs="not-polynomial", rhs="not-polynomial" if not f4.is_polynomial else "polynomial",
        passed=not f4.is_polynomial, expected="equal",
        notes={"remainder_degree": f4.remainder_degree}))
    for n in range(1, 6):
        v = cat.q_fibo_catalan_ordinary(n)
        reports.append(VerificationReport(
            identity_name="catalan-ordinary-polynomial", inputs={"n": n},
            lhs="polynomial", rhs="polynomial" if v.is_polynomial else "other",
            passed=v.is_polynomial))
    reports += _suite_counterexample(ns)
    return reports


def _cmd_verify(ns) -> int:
    handlers = {
        "q-all": _suite_q_all,
        "elliptic-all": _suite_elliptic_all,
        "catalan-all": _suite_catalan_all,
        "theta": _suite_theta,
        "spiral": _suite_spiral,
        "convolution": _suite_convolution,
        "bijection": _suite_bijection,
        "counterexample": _suite_counterexample,
    }
    with _degree_cap(ns.cap):
        reports = handlers[ns.suite](ns)
    if not reports:
        raise ValueError(f"suite {ns.suite} has no checks at --max {ns.max}")
    return _emit_reports(ns, reports, {"suite": ns.suite})


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    handlers = {
        "fibonomial": _cmd_fibonomial,
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "catalan": _cmd_catalan,
        "elliptic": _cmd_elliptic,
        "spiral": _cmd_spiral,
    }
    try:
        return handlers[ns.command](ns)
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DegenerateParametersError as exc:
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NotPolynomialError as exc:
        print(f"not a polynomial: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
