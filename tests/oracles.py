"""Reference routes and fixture readers that only the tests use.

Each oracle computes a quantity the package computes too, by a route of
its own (long division, the integer shadow at q = 1, the strip options
listed one by one, a report's document built as a dict), or reads a
fixture or a serialized form back.  The numeric oracles run in mpmath,
which the package does not use: a B-bit value goes in exactly
(``to_mpc``), and theta is the factor-by-factor product at 300 bits
(``theta_product``).
"""

import json
from pathlib import Path

import mpmath
from mpmath.libmp import from_man_exp

from fibl.errors import NotPolynomialError
from fibl.extended import ExtComplex
from fibl.fib import fib
from fibl.qpoly import IntPoly, long_division, q_number, ratio_poly
from fibl.tilings import PathDominoTiling, StaircaseTiling, _strip_options

GOLDEN = Path(__file__).resolve().parent / "golden"

# polynomial sides with more than this many terms are summarized, not inlined
INLINE_TERMS = 64


def exact_div(num: IntPoly, den: IntPoly) -> IntPoly:
    """num / den by long division; a nonzero remainder raises
    NotPolynomialError, with the remainder as its ``remainder``."""
    if den == IntPoly.one():
        return num
    res = long_division(num, den)
    if not res.remainder.is_zero():
        exc = NotPolynomialError(f"remainder of degree {res.remainder.degree} is nonzero")
        exc.remainder = res.remainder
        raise exc
    return res.quotient


def q_number_base(n: int, base: int) -> IntPoly:
    """[n] with q replaced by q^base: ones at exponents 0, base, ..., (n-1)*base."""
    return q_number(n).substitute_power(base)


def q_fib_factorial(n: int) -> IntPoly:
    """prod_{k=1}^{n} [F_k]; the Fibonacci q-analog of n!.  n = 0 gives 1."""
    if n < 0:
        raise ValueError("factorial index must be >= 0")
    return ratio_poly([fib(k) for k in range(1, n + 1)], ())


def coxeter_catalan_q1(w, a: int) -> int:
    """The q = 1 shadow prod F_{a+e_i} / F_{e_i+1} of the Coxeter
    q-Fibo-Catalan number of type ``w``, computed exactly; raises
    ArithmeticError when the ratio is not an integer."""
    if a < 1:
        raise ValueError("need a >= 1")
    num = den = 1
    for e in w.exponents:
        num *= fib(a + e)
        den *= fib(e + 1)
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"Coxeter Catalan value for {w.label()} at a={a} is not an integer")
    return quot


def enumerate_strips(length: int, sink=None) -> int:
    """Pass every tiling of a 1 x length strip to ``sink``; the returned
    count equals F_{length+1}."""
    opts = _strip_options(length)
    if sink is not None:
        for s in opts:
            sink(s)
    return len(opts)


def poly_from_json(obj: dict) -> IntPoly:
    """The IntPoly of ``IntPoly.to_json``'s sparse form."""
    if obj.get("var") != "q":
        raise ValueError("expected a polynomial in q")
    pairs = [(int(e), int(c)) for e, c in obj["coeffs"]]
    if not pairs:
        return IntPoly.zero()
    out = [0] * (max(e for e, _ in pairs) + 1)
    for e, c in pairs:
        if e < 0:
            raise ValueError("negative exponent in serialized polynomial")
        out[e] += c
    return IntPoly(out)


def rect_tiling_from_json(obj: dict) -> PathDominoTiling:
    """The rectangle tiling of ``PathDominoTiling.to_json``'s form."""
    if obj.get("model") != "rect":
        raise ValueError("expected a rectangle-model tiling")
    return PathDominoTiling(m=obj["m"], n=obj["n"], path=obj["path"],
                            rows=tuple(obj["rows"]), cols=tuple(obj["cols"]))


def staircase_tiling_from_json(obj: dict) -> StaircaseTiling:
    """The staircase tiling of ``StaircaseTiling.to_json``'s form."""
    if obj.get("model") != "staircase":
        raise ValueError("expected a staircase-model tiling")
    return StaircaseTiling(n=obj["n"], k=obj["k"], path=obj["path"],
                           rows=tuple(obj["rows"]))


def load_golden(name: str) -> dict:
    """One of the JSON fixtures under tests/golden."""
    return json.loads((GOLDEN / name).read_text())


def to_dict(report) -> dict:
    """A report's document as a dict, whose json_text report_json must
    print: its fields under their JSON keys, each side and each inputs and
    notes value made JSON by ``jsonable``."""
    return {
        "identity": report.identity_name,
        "inputs": {k: jsonable(v) for k, v in sorted(report.inputs.items())},
        "lhs": jsonable(report.lhs),
        "rhs": jsonable(report.rhs),
        "abs_diff": report.abs_diff,
        "rel_diff": report.rel_diff,
        "tolerance": report.tolerance,
        "expected": report.expected,
        "passed": report.passed,
        "seed": report.seed,
        "resamples": report.resamples,
        "notes": {k: jsonable(v) for k, v in sorted(report.notes.items())},
    }


def to_mpc(z):
    """An ExtComplex, complex, float or int z as an mpmath mpc, exactly,
    whatever mpmath's working precision."""
    if isinstance(z, ExtComplex):
        parts = from_man_exp(z.a, z.e), from_man_exp(z.b, z.e)
    elif isinstance(z, int):
        parts = from_man_exp(z, 0), from_man_exp(0, 0)
    else:
        z = complex(z)
        parts = [from_man_exp(n, 1 - d.bit_length()) for n, d in
                 (z.real.as_integer_ratio(), z.imag.as_integer_ratio())]
    return mpmath.mp.make_mpc(tuple(parts))


def theta_product(x, p, bits: int = 300):
    """theta(x; p) = prod_{j >= 0} (1 - p^j x)(1 - p^{j+1}/x), factor by
    factor at ``bits`` bits of mpmath, to the first J with
    |p|^J max(|x|, 1/|x|) < 2^-bits; x and p as ``to_mpc`` takes them."""
    with mpmath.workprec(bits):
        x, p = to_mpc(x), to_mpc(p)
        bound = max(abs(x), 1 / abs(x))
        tol = mpmath.mpf(2) ** -bits
        out, pj = mpmath.mpc(1), mpmath.mpc(1)
        while True:
            out *= (1 - pj * x) * (1 - pj * p / x)
            pj *= p
            if abs(pj) * bound < tol:
                return out


def jsonable(v):
    """The JSON form of a report value: complex numbers, and others with a
    real and an imag that float() takes, as "re" and "im", an IntPoly as
    IntPoly.to_json or, past INLINE_TERMS terms, a summary, lists and
    dicts item by item, and anything else as its str."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if hasattr(v, "imag") and hasattr(v, "real"):       # ExtComplex, mpmath's mpc and mpf
        return {"re": float(v.real), "im": float(v.imag)}
    if hasattr(v, "term_count"):        # an IntPoly: count its terms before any JSON
        terms = v.term_count()
        if terms > INLINE_TERMS:
            return {"var": "q", "degree": v.degree, "terms": terms, "summary": "elided"}
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    return str(v)
