"""Workload definitions and the output gate.

Each workload is a list of `fibl` CLI invocations.  run.py runs every
invocation in a fresh interpreter, so every command starts with cold
caches, as it does for a user of the CLI.

Output gate: exact commands must print exactly the bytes recorded in
``digests.json`` (sha256 of stdout) and pass the q = 1 invariants below,
which are computed here with the benchmark's own integer arithmetic, not
with fibl's.  Theta commands are numeric, so a legitimate change may move
last bits: they are gated on every report passing and on the report
count (four per sample), not on a digest.

``verify elliptic-all`` is not part of any workload.  In double precision
it fails at many seeds (24 of seeds 0-59 at --samples 10): theta products
overflow to inf/NaN, or raise OverflowError, when |q|^F is tiny, in the
elliptic-fib-splitting and elliptic-fibonomial checks.  In extended
precision it is too slow for a run and fails too: at seed 1, --samples
10, 170 of its 204 reports fail at ext:53 and at ext:64, after 75-80 s
each (Python 3.11, 2 cores).  Pinning a seed at which it passes
would hide that defect, so the elliptic workload runs the theta suites,
which passed at every seed tried (0-119 in double precision, 0-39 at
ext:128), until the defect is fixed.  Until then the elliptic weight
layer (``weight_v``, ``elliptic_weight_*``, ``omega1``/``omega2``), which
only elliptic-all reaches, is not measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

WORKLOADS = ("catalan", "q-verify", "elliptic")

# Coxeter exponents of the types the workloads use (standard tables).
_COXETER_EXPONENTS = {
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}



def commands(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The argv lists of one workload run.

    For ``elliptic`` the seed is passed to fibl as ``--seed``; for the two
    exact workloads it only orders the commands.
    """
    if workload == "catalan":
        top = "6" if tiny else "13"
        verdicts = (("F4", "2"), ("G2", "1")) if tiny else (
            ("F4", "2"), ("E8", "3"), ("E8", "1"), ("E7", "7"))
        cmds = [["catalan", "sweep", "--max", top, "--format", "csv"]]
        cmds += [["catalan", "coxeter", t, a, "--format", "json"] for t, a in verdicts]
    elif workload == "q-verify":
        cmds = [["verify", "q-all", "--max", "4" if tiny else "9", "--format", "json"],
                ["verify", "convolution", "--max", "3" if tiny else "8", "--format", "json"]]
    elif workload == "elliptic":
        # Text output for the double-precision suite: its JSON runs to
        # several MB, which would time json.dumps rather than theta.
        s_double, s_ext = ("20", "2") if tiny else ("2000", "40")
        return [["verify", "theta", "--samples", s_double, "--seed", str(seed)],
                ["verify", "theta", "--precision", "ext:128", "--samples", s_ext,
                 "--seed", str(seed), "--format", "json"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(cmds)
    return cmds


def digest_key(argv: list[str]) -> str:
    return " ".join(argv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    if not DIGESTS_PATH.is_file():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


# ---------------------------------------------------------------------------
# Independent integer arithmetic

def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _fibonomial(m: int, n: int) -> int:
    num = math.prod(_fib(k) for k in range(max(m, n) + 1, m + n + 1))
    den = math.prod(_fib(k) for k in range(1, min(m, n) + 1))
    return num // den


def _coeff_sum(poly) -> int | None:
    """Coefficient sum of an inlined JSON polynomial; None when elided."""
    if not isinstance(poly, dict) or "coeffs" not in poly:
        return None
    return sum(int(c) for _, c in poly["coeffs"])


# ---------------------------------------------------------------------------
# Gates: each returns a list of problems, empty when the output is right

def check(argv: list[str], rc: int, stdout: str, digests: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    if argv[:2] == ["verify", "theta"]:
        return _check_theta(argv, stdout)
    problems = []
    want = digests.get(digest_key(argv))
    if want is None:
        problems.append("no recorded digest")
    elif sha256(stdout) != want:
        problems.append("stdout differs from the recorded digest")
    try:
        if argv[:2] == ["catalan", "sweep"]:
            problems += _check_sweep(int(argv[3]), stdout)
        elif argv[:2] == ["catalan", "coxeter"]:
            problems += _check_coxeter(argv[2], int(argv[3]), json.loads(stdout))
        else:
            problems += _check_q_reports(json.loads(stdout))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unparsable output: {exc!r}")
    return problems


def _check_sweep(top: int, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "m,n,gcd,is_polynomial,degree,min_coeff,max_coeff":
        return ["missing CSV header"]
    want_pairs = [(m, n) for m in range(1, top + 1) for n in range(1, top + 1)
                  if math.gcd(m, n) in (1, 2)]
    rows = [line.split(",") for line in lines[1:]]
    if [(int(r[0]), int(r[1])) for r in rows] != want_pairs:
        return ["sweep rows do not cover the gcd 1-or-2 pairs in order"]
    problems = []
    for r in rows:
        m, n = int(r[0]), int(r[1])
        lo, hi = sorted((m, n))
        degree = (sum(_fib(k) - 1 for k in range(hi + 1, m + n))
                  - sum(_fib(k) - 1 for k in range(1, lo + 1)))
        if r[3] != "true" or int(r[4]) != degree or int(r[5]) < 0:
            problems.append(f"sweep row {m},{n} is wrong")
    return problems


def _check_coxeter(label: str, a: int, doc: dict) -> list[str]:
    exps = _COXETER_EXPONENTS[label]
    q1 = Fraction(math.prod(_fib(a + e) for e in exps),
                  math.prod(_fib(e + 1) for e in exps))
    if not doc["is_polynomial"]:
        return []  # a non-polynomial verdict is pinned by the digest
    problems = []
    if q1.denominator != 1:
        problems.append(f"{label} a={a}: polynomial verdict but q=1 value {q1} is no integer")
    degree = sum(_fib(a + e) - 1 for e in exps) - sum(_fib(e + 1) - 1 for e in exps)
    if doc["degree"] != degree:
        problems.append(f"{label} a={a}: degree {doc['degree']} != {degree}")
    total = _coeff_sum(doc.get("quotient"))
    if total is not None and total != q1:
        problems.append(f"{label} a={a}: quotient sums to {total}, not {q1}")
    return problems


_Q1_RECTANGLE = ("rect-gf-vs-ratio", "recurrence-vs-ratio", "model-bijection", "q-convolution")


def _check_q_reports(doc: dict) -> list[str]:
    problems = []
    for rep in doc["reports"]:
        inputs = rep["inputs"]
        if not rep["passed"]:
            problems.append(f"{rep['identity']} {inputs} failed")
        if rep["identity"] in _Q1_RECTANGLE:
            want = _fibonomial(inputs["m"], inputs["n"])
        elif rep["identity"] == "staircase-gf-vs-ratio":
            want = _fibonomial(inputs["n"] - inputs["k"], inputs["k"])
        else:
            continue
        for side in ("lhs", "rhs"):
            total = _coeff_sum(rep[side])
            if total is not None and total != want:
                problems.append(f"{rep['identity']} {inputs}: {side} sums to {total}, not {want}")
    return problems


def _check_theta(argv: list[str], stdout: str) -> list[str]:
    want = 4 * int(argv[argv.index("--samples") + 1])
    if "--format" not in argv:
        lines = stdout.splitlines()
        passed = sum(line.startswith("PASS ") for line in lines)
        if passed != want or lines[-1:] != [f"{want}/{want} checks passed"]:
            return [f"{passed} passing reports and summary {lines[-1:]}, expected {want}"]
        return []
    try:
        doc = json.loads(stdout)
        reports = doc["reports"]
        seed_ok = doc["config"]["seed"] == int(argv[argv.index("--seed") + 1])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable output: {exc!r}"]
    problems = [f"{r['identity']} {r['inputs']} failed" for r in reports if not r["passed"]]
    if len(reports) != want:
        problems.append(f"{len(reports)} reports, expected {want}")
    if not seed_ok:
        problems.append("report config does not carry the requested seed")
    return problems
