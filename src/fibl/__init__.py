"""fibl: exact q-analogs and numeric elliptic analogs of Fibonomial numbers.

Modules
-------
fib
    Arbitrary-precision Fibonacci numbers (index extended to -1).
qpoly
    Exact dense polynomial arithmetic in q under a degree cap: q-numbers,
    the ratio engine, q-Fibonomials by ratio and by recurrence.
tilings
    The two weighted tiling models (rectangle path-domino and staircase),
    the lattice transfer that sums them, the tiling sum, recurrence,
    spiral and convolution written once over a weight ring, and the q
    weight ring with its strip sums and lattices.
elliptic
    Theta functions by the Jacobi triple product series, the elliptic
    weight ring of one parameter point with its values, strip sums and
    lattices, the numeric verification checks, and the symbolic
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
