"""Command-line harness.

Subcommands: fibonomial, enumerate, verify, catalan, elliptic, spiral.
Configuration precedence is flags > FIBL_* environment variables >
defaults; the seed defaults to 0x5EED so every run is reproducible unless
explicitly reseeded.  Identical configurations produce byte-identical
JSON/CSV output: reports are sorted by a canonical key before emission.

A document is rendered one report (or sweep row) at a time and written in
chunks of about 64 KiB, once every check has run, so the rendered text is
never held whole.  --out is opened only then, so a run that fails before
its output leaves no file.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 resource cap,
4 degenerate parameters; a RuntimeError is a bug in fibl and surfaces.
A reader that closes stdout early does not change the exit code and
leaves nothing on stderr.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from functools import partial
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional

from fibl import catalan as cat
from fibl import qpoly, tilings
from fibl.errors import DegenerateParametersError, NotPolynomialError, ResourceLimitError
from fibl.fib import fib
from fibl.report import (DEFAULT_SEED, SCHEMA, VerificationReport, exact_report, inputs_key,
                         json_text, mapping_json, report_json)

# fibl.elliptic is imported by the elliptic commands and suites only, so the
# exact commands start without it; its names are looked up at call time.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DEGENERATE = 4

SUITES = ("q-all", "elliptic-all", "catalan-all", "theta", "spiral",
          "convolution", "bijection", "counterexample")


class _BadValue(ValueError):
    """A value a converter rejects, with the converter's own message."""


def _at_least_one(name: str, text: str) -> int:
    """The converter of --NAME / FIBL_NAME: an integer >= 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise _BadValue(f"--{name} and FIBL_{name.upper()} take an integer >= 1, got {text!r}")
    return int(text)


def _finite_positive(name: str, text: str) -> float:
    """The converter of --NAME / FIBL_NAME: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise _BadValue(f"--{name} and FIBL_{name.upper()} take a finite number > 0, got {text!r}")
    return value


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


# ---------------------------------------------------------------------------
# Command line: one table, parsed by one loop
#
# fibl COMMAND [ARG | OPTION]...: the command comes first, and options may
# come before, among or after its arguments.  A token is an option when it
# starts with "-", is not "-" alone and is no number (int, float or
# complex, so -1 and -0.5+0.1j are values); "--" makes every later token a
# value.  An option is --NAME VALUE or --NAME=VALUE, and a unique prefix
# of NAME stands for it.  A value of an option may itself start with "-"
# only when it is a number, or when it follows "=".

_DESCRIPTION = ("Exact q-analogs and numeric elliptic analogs of Fibonomial numbers, "
                "with tiling models and verification suites.")

# The options of every command: (name, converter, default, help).  A
# converter is a callable or a tuple of choices.  FIBL_<NAME>, when set,
# replaces the default; it is read and checked on every run, also when the
# flag is given.
_COMMON = (
    ("seed", int, DEFAULT_SEED, "seed of the sampled parameter points"),
    ("samples", int, 20, "sampled parameter points of a suite"),
    ("tol", partial(_finite_positive, "tol"), None,
     "relative tolerance of the numeric checks (> 0)"),
    ("cap", partial(_at_least_one, "cap"), None,
     "enumeration or degree cap override (>= 1), by command"),
    ("max", partial(_at_least_one, "max"), None, "largest size a suite or sweep runs to (>= 1)"),
    ("format", ("json", "csv", "text"), "text", "output format"),
    ("out", str, None, "write the output to this file, not to stdout"),
    ("precision", str, "double", "'double' or 'ext:BITS', for the elliptic layer"),
)

# COMMAND: (help, positionals, options).  A positional is (name, converter,
# help), and the converter None takes every remaining value as a list.  A
# command's own options are (name, converter, default, help), with no
# variable; the converter None makes a flag that is False unless given.
_COMPLEX_HELP = "complex parameter, e.g. 0.5+0.2j (default: sampled from the seed)"
_COMMANDS = {
    "fibonomial": ("print the q-Fibonomial polynomial",
                   (("m", int, ""), ("n", int, "")),
                   (("eval-q1", None, False, "print the integer value at q = 1 instead"),)),
    "enumerate": ("stream tilings of one of the two models",
                  (("model", ("rect", "staircase"), ""),
                   ("a", int, "m (rect) or n (staircase)"),
                   ("b", int, "n (rect) or k (staircase)")),
                  (("count-only", None, False, "print the number of tilings only"),)),
    "verify": ("run a verification suite", (("suite", SUITES, ""),), ()),
    "catalan": ("rational q-Fibo-Catalan verdicts",
                (("what", ("rational", "coxeter", "sweep", "ordinary"), ""),
                 ("args", None, "rational M N | coxeter FAMILY A | sweep | ordinary N")),
                ()),
    "elliptic": ("evaluate elliptic quantities directly",
                 (("what", ("number", "fibonomial", "theta"), ""),
                  ("args", None, "number N | fibonomial M N | theta X")),
                 tuple((name, complex, None, _COMPLEX_HELP) for name in "abqp")),
    "spiral": ("check the n = 2 spiral identity at one m", (("m", int, ""),), ()),
}


def _convert(conv, text: str):
    """``text`` by ``conv`` (a callable or a tuple of choices); _BadValue
    with the reason when it is rejected."""
    if type(conv) is tuple:
        if text not in conv:
            raise _BadValue(f"invalid choice: {text!r} (choose from "
                            f"{', '.join(map(repr, conv))})")
        return text
    try:
        return conv(text)
    except _BadValue:
        raise
    except ValueError:
        raise _BadValue(f"invalid {conv.__name__} value: {text!r}") from None


def _convert_arg(command: Optional[str], name: str, conv, text: str):
    try:
        return _convert(conv, text)
    except _BadValue as exc:
        _usage_error(command, f"argument {name}: {exc}")


def _env(name: str, conv, default):
    raw = os.environ.get("FIBL_" + name.upper())
    if raw is None:
        return default
    try:
        return _convert(conv, raw)
    except _BadValue:
        print(f"invalid FIBL_{name.upper()}={raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _is_value(token: str) -> bool:
    if token[:1] != "-" or token == "-":
        return True
    try:
        complex(token)          # also every int and float
    except ValueError:
        return False
    return True


def _metavar(name: str, conv) -> str:
    if type(conv) is tuple:
        return "{" + ",".join(conv) + "}"
    return "[args ...]" if conv is None else name


def _usage(command: Optional[str]) -> str:
    if command is None:
        return f"usage: fibl {_metavar('', tuple(_COMMANDS))} [options] ..."
    positionals = _COMMANDS[command][1]
    return " ".join([f"usage: fibl {command} [options]",
                     *(_metavar(name, conv) for name, conv, _ in positionals)])


def _rows(heading: str, rows) -> list[str]:
    lines = ["", heading + ":"]
    for left, text in rows:
        left = "  " + left
        if not text:
            lines.append(left)
        elif len(left) < 23:
            lines.append(f"{left:<24}{text}")
        else:
            lines += [left, " " * 24 + text]
    return lines


def _usage_error(command: Optional[str], message: str):
    prog = "fibl" if command is None else "fibl " + command
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _exit_with_help(command: Optional[str]):
    """Print the --help text of ``command`` (of fibl itself when None)."""
    if command is None:
        lines = [_usage(None), "", _DESCRIPTION]
        lines += _rows("commands", ((name, spec[0]) for name, spec in _COMMANDS.items()))
        lines += ["", "Run 'fibl COMMAND --help' for the arguments and options of COMMAND."]
    else:
        about, positionals, own = _COMMANDS[command]
        options = [("-h, --help", "show this help message and exit")]
        for name, conv, default, text in _COMMON:
            shown = "" if default is None else f", default {default}"
            options.append((f"--{name} {_metavar(name.upper(), conv)}",
                            f"{text} [FIBL_{name.upper()}{shown}]"))
        options += [(f"--{name}" + ("" if conv is None else f" {_metavar(name.upper(), conv)}"),
                     text) for name, conv, _, text in own]
        lines = [_usage(command), "", about]
        lines += _rows("positional arguments", ((name, text) for name, _, text in positionals))
        lines += _rows("options", options)
    print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def parse_args(argv=None) -> SimpleNamespace:
    """The command and its fields from ``argv`` (sys.argv[1:] when None).
    A usage error prints the usage and the error to stderr and raises
    SystemExit(2); -h or --help prints the help and raises SystemExit(0)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command = argv[0]
    if command in ("-h", "--help"):
        _exit_with_help(None)
    _convert_arg(None, "command", tuple(_COMMANDS), command)
    _, positionals, own = _COMMANDS[command]
    options = {"-h": None, "--help": None}
    options.update(("--" + name, conv) for name, conv, _, _ in (*_COMMON, *own))
    fields = {"command": command}
    for name, conv, default, _ in _COMMON:
        fields[name] = _env(name, conv, default)
    for name, _, default, _ in own:
        fields[name.replace("-", "_")] = default

    values = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            values += tokens
            break
        if _is_value(token):
            values.append(token)
            continue
        flag, eq, text = token.partition("=")
        if flag not in options:
            found = [f for f in options if f.startswith(flag)] if flag[:2] == "--" else []
            if len(found) > 1:
                _usage_error(command, f"ambiguous option: {flag} could match {', '.join(found)}")
            if not found:
                _usage_error(command, f"unrecognized arguments: {token}")
            flag = found[0]
        if flag in ("-h", "--help"):
            _exit_with_help(command)
        conv = options[flag]
        if conv is None:
            if eq:
                _usage_error(command, f"argument {flag}: ignored explicit argument {text!r}")
            value = True
        else:
            if not eq:
                text = next(tokens, None)
                if text is None or not _is_value(text):
                    _usage_error(command, f"argument {flag}: expected one argument")
            value = _convert_arg(command, flag, conv, text)
        fields[flag[2:].replace("-", "_")] = value

    fixed = [(name, conv) for name, conv, _ in positionals if conv is not None]
    if len(values) < len(fixed):
        _usage_error(command, "the following arguments are required: "
                     + ", ".join(name for name, _ in fixed[len(values):]))
    for (name, conv), text in zip(fixed, values):
        fields[name] = _convert_arg(command, name, conv, text)
    rest = values[len(fixed):]
    if len(fixed) < len(positionals):
        fields[positionals[-1][0]] = rest
    elif rest:
        _usage_error(command, "unrecognized arguments: " + " ".join(rest))
    return SimpleNamespace(**fields)


# ---------------------------------------------------------------------------
# Output

# Characters joined into one write: pieces are small (a line, a report),
# and a write per piece costs a syscall each when stdout is unbuffered,
# while one write per document keeps the whole text in memory.
_CHUNK = 1 << 16


@contextlib.contextmanager
def _output(out: Optional[str]):
    """The --out file, opened for writing (ValueError if it cannot be), or
    stdout.  A reader that closes stdout early ends the writing quietly;
    every check has run by then, so the command keeps its exit code."""
    if not out:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError:
            # stdout goes to devnull, so that the flush at exit cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        fh = open(out, "w")
    except OSError as exc:
        raise ValueError(f"cannot write --out {out!r}: {exc.strerror}") from exc
    with fh:
        yield fh


def _write(pieces: Iterable[str], out: Optional[str]) -> None:
    """Write ``pieces`` in order, joined into writes of about _CHUNK
    characters, so a document is rendered while it is written and never
    held whole."""
    with _output(out) as fh:
        batch, size = [], 0
        for piece in pieces:
            batch.append(piece)
            size += len(piece)
            if size >= _CHUNK:
                fh.write("".join(batch))
                batch, size = [], 0
        fh.write("".join(batch))


# the newline and indent of each item of a document's list
_ITEM_NL = "\n    "


def _json_pieces(command: str, config: dict, key: str, texts: Iterable[str]) -> Iterator[str]:
    """json_text({"command": command, "config": config, key: items, "schema":
    SCHEMA}) + "\n", a piece per item text (its json_text at _ITEM_NL);
    ``key`` must sort between "config" and "schema"."""
    head = json_text({"command": command, "config": config})
    yield head[:-2] + ",\n  " + json_text(key) + ": ["      # head ends "\n}"
    first = True
    for text in texts:
        yield (_ITEM_NL if first else "," + _ITEM_NL) + text
        first = False
    yield ("]" if first else "\n  ]") + ',\n  "schema": ' + json_text(SCHEMA) + "\n}\n"


def _once_per_dict(fmt):
    """``fmt`` of an inputs dict, computed once per dict: the reports of
    one sample share one dict.  Dicts are told apart by identity, so they
    must outlive the calls, as the reports' dicts do while they are sorted
    and written."""
    texts = {}

    def text(inputs: dict):
        key = id(inputs)
        if key not in texts:
            texts[key] = fmt(inputs)
        return texts[key]
    return text


def _head_text(inputs: dict) -> Optional[str]:
    """repr((k, v)) for the least key k of ``inputs``, the text that
    ``inputs_key`` begins with, when k is a str and v an int, float,
    complex or str; else None.  Proof that distinct heads order as their
    whole texts do: key reprs are str literals, never a proper prefix of
    one another, and where one value repr of these types is a proper
    prefix of another it goes on with a digit, ".", "e" or "j" (1 in 12,
    1.5 or 1j; inf in infj), never ")", as a str and a parenthesized
    complex end at their first closing character."""
    if not inputs:
        return None
    k = min(inputs)
    v = inputs[k]
    if type(k) is str and type(v) in (int, float, complex, str):
        return repr((k, v))
    return None


def _sorted_reports(reports: list[VerificationReport]) -> list[VerificationReport]:
    """The reports in sort_key() order: grouped by identity + "|", the
    groups in sorted order, each group stable-sorted by its dicts' head
    texts (``_head_text``) when those are all distinct, else by the whole
    inputs texts, each made once per inputs dict.  That is the order of
    the pair (identity + "|", inputs text), which is sort_key()'s because
    no identity contains "|"."""
    groups: dict[str, list[VerificationReport]] = {}
    for r in reports:
        groups.setdefault(r.identity_name, []).append(r)
    inputs_text, head_text = _once_per_dict(inputs_key), _once_per_dict(_head_text)
    out = []
    for name in sorted(groups, key=lambda name: name + "|"):
        group = groups[name]
        keys = [head_text(r.inputs) for r in group]
        if None in keys or len(set(keys)) < len(keys):
            keys = [inputs_text(r.inputs) for r in group]
        out.extend(map(group.__getitem__, sorted(range(len(group)), key=keys.__getitem__)))
    return out


def _csv_inputs(inputs: dict) -> str:
    return json.dumps(inputs, sort_keys=True, default=str).replace('"', "'")


def _text_inputs(inputs: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(inputs.items())
                    if isinstance(v, (int, str)))


def _csv_lines(reports: list[VerificationReport]) -> Iterator[str]:
    inputs_text = _once_per_dict(_csv_inputs)
    yield "identity,inputs,expected,passed,abs_diff,rel_diff,tolerance\n"
    for r in reports:
        yield (f'{r.identity_name},"{inputs_text(r.inputs)}",{r.expected},{r.passed},'
               f"{_num(r.abs_diff)},{_num(r.rel_diff)},{_num(r.tolerance)}\n")


def _text_lines(reports: list[VerificationReport], passed: int) -> Iterator[str]:
    inputs_text = _once_per_dict(_text_inputs)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        detail = "exact" if r.tolerance is None else f"rel={r.rel_diff:.3e} tol={r.tolerance:g}"
        if r.expected == "unequal":
            detail += " (expected: unequal)"
        yield f"{status} {r.identity_name} {inputs_text(r.inputs)} [{detail}]\n"
    yield f"{passed}/{len(reports)} checks passed\n"


def _emit_reports(ns, reports: list[VerificationReport], extra_config=None) -> int:
    reports = _sorted_reports(reports)
    failed = sum(not r.passed for r in reports)
    if ns.format == "json":
        inputs_text, poly_texts = _once_per_dict(partial(mapping_json, nl=_ITEM_NL + "  ")), {}
        pieces = _json_pieces(ns.command, _config_dict(ns, extra_config), "reports",
                              (report_json(r, _ITEM_NL, inputs_text(r.inputs), poly_texts)
                               for r in reports))
    elif ns.format == "csv":
        pieces = _csv_lines(reports)
    else:
        pieces = _text_lines(reports, len(reports) - failed)
    _write(pieces, ns.out)
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
        _write([json_text(doc), "\n"], ns.out)
    else:
        _write([text_line, "\n"], ns.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands

def _q_ring(ns) -> tilings.QRing:
    """The q weight ring of one command: Q_RING, or a ring of its own at
    the --cap degree cap."""
    return tilings.Q_RING if ns.cap is None else tilings.QRing(ns.cap)


def _cmd_fibonomial(ns) -> int:
    if ns.m < 0 or ns.n < 0:
        raise ValueError("m and n must be >= 0")
    poly = qpoly.q_fibonomial(ns.m, ns.n, _q_ring(ns).cap)
    if ns.eval_q1:
        val = poly.eval_q1()
        return _emit_payload(ns, {"m": ns.m, "n": ns.n, "value_at_1": val}, str(val))
    return _emit_payload(
        ns, {"m": ns.m, "n": ns.n, "polynomial": poly.to_json()},
        str(list(poly.coeffs)))


def _cmd_enumerate(ns) -> int:
    cap = tilings.DEFAULT_ENUMERATION_CAP if ns.cap is None else ns.cap
    if ns.model == "rect":
        expected = qpoly.fibonomial_int(ns.a, ns.b)
    else:
        if not 0 <= ns.b <= ns.a:
            raise ValueError("staircase needs n >= k >= 0")
        expected = qpoly.fibonomial_int(ns.a - ns.b, ns.b)
    tilings._check_cap(expected, cap)     # before --out can truncate a file
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
    ring = _q_ring(ns)
    if ns.m >= 1:       # the lhs [F_{m+2}] [F_{m+1}]'s two products, before either is built
        qpoly._ensure_cap(fib(ns.m + 2) - 1, ring.cap)
        qpoly._ensure_cap(fib(ns.m + 3) - 2, ring.cap)
    reports = [tilings.spiral_check(ring, ns.m), qpoly.spiral_identity_check_q1(ns.m)]
    return _emit_reports(ns, reports)


def _cmd_catalan(ns) -> int:
    cap = _q_ring(ns).cap
    if ns.what == "rational":
        m, n = _int_args(ns.args, 2, "catalan rational M N")
        verdict = cat.q_fibo_catalan_rational(m, n, cap)
        return _emit_verdict(ns, verdict, {"m": m, "n": n, "gcd": math.gcd(m, n)})
    if ns.what == "ordinary":
        (n,) = _int_args(ns.args, 1, "catalan ordinary N")
        verdict = cat.q_fibo_catalan_ordinary(n, cap)
        return _emit_verdict(ns, verdict, {"n": n})
    if ns.what == "coxeter":
        if len(ns.args) != 2:
            raise ValueError("usage: catalan coxeter FAMILY A (e.g. F4 2, A4 3)")
        ct = _parse_coxeter(ns.args[0])
        a = int(ns.args[1])
        verdict = cat.coxeter_q_fibo_catalan(ct, a, cap)
        return _emit_verdict(ns, verdict, {"type": ct.label(), "a": a,
                                           "coprime": math.gcd(a, ct.coxeter_number) == 1})
    # sweep
    if ns.args:
        raise ValueError("usage: catalan sweep [--max N]")
    max_mn = ns.max if ns.max else 15
    rows = cat.q_fibo_catalan_positivity_sweep(max_mn, cap)
    if ns.format == "json":
        _write(_json_pieces("catalan-sweep", _config_dict(ns, {"max": max_mn}), "rows",
                            (json_text(row._asdict(), _ITEM_NL) for row in rows)), ns.out)
    else:
        _write((line + "\n" for line in cat.sweep_csv_lines(rows)), ns.out)
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
    if verdict.is_polynomial and verdict.length <= 512:     # only a printed quotient is unfolded
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
    params = ell.sample_params(ns.seed, precision_bits=bits, eq_tol=ns.tol)
    overrides = {k: getattr(ns, k) for k in ("a", "b", "q", "p")
                 if getattr(ns, k) is not None}
    if overrides:
        params = params.replace(**overrides)
    try:
        if ns.what == "number":
            (n,) = _int_args(ns.args, 1, "elliptic number N")
            val = ell.EllipticRing(params).number(n)
        elif ns.what == "fibonomial":
            m, n = _int_args(ns.args, 2, "elliptic fibonomial M N")
            val = ell.EllipticRing(params).fibonomial(m, n)
        else:
            if len(ns.args) != 1:
                raise ValueError("usage: elliptic theta X")
            val = ell.theta(complex(ns.args[0]), params.p, params.trunc_eps)
        cval = complex(val)
    except OverflowError as exc:
        raise DegenerateParametersError(f"value overflows ({exc})") from None
    if not (math.isfinite(cval.real) and math.isfinite(cval.imag)):
        raise DegenerateParametersError(f"value is not finite ({cval})")
    payload = {"what": ns.what, "args": list(ns.args),
               "params": {k: _cpx(v) for k, v in zip("abqp", params)},
               "value": _cpx(cval)}
    return _emit_payload(ns, payload, f"{cval.real!r}{cval.imag:+}j")


def _cpx(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# Verification suites

def _suite_theta(ns, ring) -> list[VerificationReport]:
    from fibl import elliptic as ell
    return ell.theta_property_suite(ns.samples, ns.seed,
                                    precision_bits=_parse_precision(ns.precision),
                                    eq_tol=ns.tol)


def _suite_spiral(ns, ring) -> list[VerificationReport]:
    reports = [tilings.spiral_check(ring, m) for m in range(1, 13)]
    reports += [qpoly.spiral_identity_check_q1(m) for m in range(1, 41)]
    return reports


def _suite_convolution(ns, ring) -> list[VerificationReport]:
    return _convolution_reports(ring, ns.max if ns.max else 6)


def _convolution_reports(ring, top: int) -> list[VerificationReport]:
    return [tilings.convolution_check(ring, m, n)
            for m in range(1, top + 1) for n in range(1, top + 1)]


def _suite_bijection(ns, ring) -> list[VerificationReport]:
    top = ns.max if ns.max else 6
    return [tilings.model_bijection_check(m, n, ring)
            for m in range(1, top) for n in range(1, top) if m + n <= top]


def _suite_counterexample(ns, ring) -> list[VerificationReport]:
    return [tilings.catalan_partial_tiling_counterexample(6)]


def _suite_q_all(ns, ring) -> list[VerificationReport]:
    top = ns.max if ns.max else 8
    reports = []
    for m in range(1, top):
        for n in range(1, top):
            if m + n > top:
                continue
            gf = tilings.rect_generating_function(m, n, ring)
            qf = ring.fibonomial(m, n)
            rec = qpoly.q_fibonomial_recurrence(m, n, ring)
            reports.append(exact_report("rect-gf-vs-ratio", {"m": m, "n": n}, gf, qf))
            reports.append(exact_report("recurrence-vs-ratio", {"m": m, "n": n}, rec, qf))
    for n in range(0, top + 1):
        for k in range(0, n + 1):
            gf = tilings.staircase_generating_function(n, k, ring)
            reports.append(exact_report("staircase-gf-vs-ratio", {"n": n, "k": k},
                                        gf, ring.fibonomial(n - k, k)))
    reports += _suite_bijection(ns, ring)
    reports += _suite_spiral(ns, ring)
    reports += _convolution_reports(ring, min(top, 6))
    for m in range(1, 11):
        for n in range(m, 11):
            found = "unimodal" if qpoly.is_unimodal(ring.fibonomial(m, n)) else "not-unimodal"
            reports.append(exact_report("unimodality", {"m": m, "n": n}, "unimodal", found))
    return reports


def _suite_elliptic_all(ns, ring) -> list[VerificationReport]:
    from fibl import elliptic as ell
    bits = _parse_precision(ns.precision)
    # one ring per derived seed, so that every check at a point shares its values
    kw = dict(precision_bits=bits, eq_tol=ns.tol, rings={})
    reports = list(_suite_theta(ns, ring))
    n_samples = max(1, ns.samples // 10)
    for m in range(1, 7):
        for n in range(1, 7):
            reports += ell.run_sampled_checks(
                partial(ell.elliptic_addition_check, m, n), ns.seed, 1, **kw)
            reports += ell.run_sampled_checks(
                partial(ell.fib_splitting_check, m, n), ns.seed, 1, **kw)
            reports += ell.run_sampled_checks(
                partial(ell.elliptic_theorem_check, m, n), ns.seed, n_samples, **kw)
    for n in range(1, 9):
        reports += ell.run_sampled_checks(
            partial(ell.elliptic_strip_check, n), ns.seed, n_samples, **kw)
    for m in range(1, 6):
        reports += ell.run_sampled_checks(
            lambda ring, m=m: tilings.spiral_check(ring, m), ns.seed, n_samples, **kw)
    for m in range(1, 5):
        for n in range(1, 5):
            reports += ell.run_sampled_checks(
                lambda ring, m=m, n=n: tilings.convolution_check(ring, m, n),
                ns.seed, n_samples, **kw)
    for n in range(1, 7):
        for k in range(0, n + 1):
            reports += ell.run_sampled_checks(
                partial(ell.elliptic_staircase_check, n, k), ns.seed, n_samples, **kw)
    return reports


_COXETER_SAMPLES = (("A", 3, 3), ("A", 4, 3), ("B", 3, 5), ("D", 4, 5),
                    ("D", 5, 3), ("E6", None, 5), ("E7", None, 5),
                    ("E8", None, 1), ("F4", None, 5), ("G2", None, 7))


def _shape(is_polynomial: bool, nonnegative: bool) -> str:
    """What a verdict found, as the Catalan reports state it."""
    return ("polynomial," + ("non-negative" if nonnegative else "mixed-sign")
            if is_polynomial else "not-polynomial")


def _suite_catalan_all(ns, ring) -> list[VerificationReport]:
    max_mn = ns.max if ns.max else 15
    rows = cat.q_fibo_catalan_positivity_sweep(max_mn, ring.cap)
    found = _shape(all(r.is_polynomial for r in rows),
                   all(r.min_coeff >= 0 for r in rows if r.is_polynomial))
    sweep = exact_report("catalan-sweep", {"max": max_mn}, "polynomial,non-negative", found)
    sweep.notes["pairs"] = len(rows)
    reports = [sweep]
    for m in range(1, 11):
        for n in range(1, 11):
            reports.append(cat.q_fibo_catalan_divisibility_check(m, n, ring))
    for family, rank, a in _COXETER_SAMPLES:
        ct = cat.CoxeterType(family, rank)
        verdict = cat.coxeter_q_fibo_catalan(ct, a, ring.cap)
        reports.append(exact_report(
            "coxeter-positive", {"type": ct.label(), "a": a}, "polynomial,non-negative",
            _shape(verdict.is_polynomial, verdict.all_coeffs_nonnegative)))
    f4 = cat.coxeter_q_fibo_catalan(cat.CoxeterType("F4"), 2, ring.cap)
    counterexample = exact_report("coxeter-f4-counterexample", {"type": "F4", "a": 2},
                                  "not-polynomial",
                                  _shape(f4.is_polynomial, f4.all_coeffs_nonnegative))
    counterexample.notes["remainder_degree"] = f4.remainder_degree
    reports.append(counterexample)
    for n in range(1, 6):
        v = cat.q_fibo_catalan_ordinary(n, ring.cap)
        reports.append(exact_report("catalan-ordinary-polynomial", {"n": n}, "polynomial",
                                    "polynomial" if v.is_polynomial else "not-polynomial"))
    reports += _suite_counterexample(ns, ring)
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
    reports = handlers[ns.suite](ns, _q_ring(ns))
    if not reports:
        raise ValueError(f"suite {ns.suite} has no checks at --max {ns.max}")
    return _emit_reports(ns, reports, {"suite": ns.suite})


def main(argv=None) -> int:
    ns = parse_args(argv)
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
