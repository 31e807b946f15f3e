"""Kernel backend selection.

Prefers the compiled extension (fibl._kernels_c) and falls back to the
pure-Python twin.  Set FIBL_KERNELS=python (or =c) to force a backend,
e.g. for the benchmark in benchmarks/bench_kernels.py or to rule the
extension in or out when debugging.

Both backends share the pure-Python ``mul_dense``: Kronecker substitution
onto CPython's big-int multiply beats the compiled twin's schoolbook
loop, which stays in the extension, unused, until the twin is either
kept or deleted as a whole (ROADMAP item 3).
"""

from __future__ import annotations

import os

from fibl import _kernels_py

_forced = os.environ.get("FIBL_KERNELS", "").strip().lower()

if _forced in ("py", "python", "pure"):
    _impl = _kernels_py
elif _forced in ("c", "ext", "compiled"):
    from fibl import _kernels_c as _impl  # type: ignore[no-redef]
else:
    try:
        from fibl import _kernels_c as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernels_py

BACKEND = _impl.BACKEND

trim = _impl.trim
mul_qnumber = _impl.mul_qnumber
div_qnumber = _impl.div_qnumber
mul_dense = _kernels_py.mul_dense
scan_unimodal = _impl.scan_unimodal
coeff_min_max = _impl.coeff_min_max
