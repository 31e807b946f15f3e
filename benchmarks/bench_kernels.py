#!/usr/bin/env python3
"""Benchmark the compiled kernel extension against the pure-Python twin.

Times the window multiply/divide (the hot loops behind q-factorial ratios),
the dense product and the coefficient scans, on inputs sized like the real
workloads (the largest Catalan-sweep numerator has degree ~830k).  The
dense product is Kronecker substitution in pure Python and a schoolbook
loop in the compiled twin; fibl.kernels uses the pure-Python one with
either backend.  Run from a checkout where the extension has been built:

    python benchmarks/bench_kernels.py [--sizes small|full]
"""

import argparse
import time

from fibl import _kernels_py

try:
    from fibl import _kernels_c
except ImportError:
    _kernels_c = None

from fibl.fib import fib


def build_factorial(impl, n):
    out = [1]
    for k in range(1, n + 1):
        out = impl.mul_qnumber(out, fib(k))
    return out


def bench(label, fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    print(f"  {label:<38} {best * 1000:10.1f} ms")
    return result


def run(impl, name, fact_n, mul_deg):
    print(f"[{name}]")
    fact = bench(f"factorial build (n={fact_n})", lambda: build_factorial(impl, fact_n))
    print(f"    degree {len(fact) - 1}")

    def divide_out():
        cur = list(fact)
        for k in range(min(10, fact_n), 0, -1):
            nxt = impl.div_qnumber(cur, fib(k))
            assert nxt is not None
            cur = nxt
        return cur

    bench(f"divide by 10 q-number factors", divide_out)
    a = [i % 7 + 1 for i in range(mul_deg)]
    b = [i % 5 + 1 for i in range(mul_deg)]
    bench(f"dense mul (deg {mul_deg - 1} x {mul_deg - 1})", lambda: impl.mul_dense(a, b))
    bench("unimodality scan", lambda: impl.scan_unimodal(fact))
    bench("coefficient min/max", lambda: impl.coeff_min_max(fact))
    print()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", choices=("small", "full"), default="small",
                    help="'full' uses the Catalan-sweep-sized factorial (n=28)")
    ns = ap.parse_args()
    fact_n, mul_deg = (24, 400) if ns.sizes == "small" else (28, 800)

    run(_kernels_py, "pure python", fact_n, mul_deg)
    if _kernels_c is None:
        print("[compiled extension not built; only the fallback was timed]")
    else:
        run(_kernels_c, "compiled (cython)", fact_n, mul_deg)


if __name__ == "__main__":
    main()
