"""fibl: exact q-analogs and numeric elliptic analogs of Fibonomial numbers.

Modules
-------
fib
    Arbitrary-precision Fibonacci numbers (index extended to -1).
qpoly
    Exact dense polynomial arithmetic in q: q-numbers, the ratio engine,
    q-Fibonomials by ratio and by recurrence, unimodality, and the q
    weight ring.
tilings
    The two weighted tiling models (rectangle path-domino and staircase)
    whose generating functions realize the q-Fibonomials, the lattice
    transfer that sums them, and the recurrence, spiral and convolution
    written once over a weight ring.
elliptic
    Theta functions by the Jacobi triple product series, elliptic numbers
    and weights, the numeric verification checks, and the symbolic
    degeneration back to q.
catalan
    Rational q-Fibo-Catalan polynomiality verdicts, positivity sweeps and
    the Coxeter-type table.
kernels
    Exact dense-list hot loops: multiply/divide by q-numbers, Kronecker
    products and coefficient scans.
cli
    The `fibl` command-line harness.
"""

# read by the benchmark harness for the environment header of each result
kernel_backend = "python"

__version__ = "0.1.0"
__all__ = ["kernel_backend", "__version__"]
