"""Spans around fibl's layer boundaries, recorded from outside the program.

``install()`` wraps the public calls of each layer and rebinds every
module attribute of ``fibl.*`` that refers to the original function, so
call sites that imported a name directly (``from fibl.qpoly import
q_fibonomial``) are traced too.  ``IntPoly.__mul__`` is replaced on the
class.  Leaf helpers such as ``fib.fib`` are deliberately not wrapped:
they run millions of times and a span each would swamp the trace.

Spans stay in memory as ``[name, parent, start, duration, attrs]`` and
are written out once, at the end.  A layer's self time is its spans'
durations minus the durations of their direct child spans.

The elliptic weight layer (``weight_v``, ``elliptic_weight_*``, the
``omega1``/``omega2`` caches) and the ``iter_*_tilings`` generators that
``fibl.elliptic`` drives are not traced: only ``verify elliptic-all``
reaches them, and no workload runs it (see workloads.py).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Span names; every one reports calls and self_s, even when it never ran.
LAYER_SPANS = ("kernels.mul_qnumber", "kernels.div_qnumber", "kernels.mul_dense",
               "kernels.scan", "qpoly.mul", "qpoly.q_fibonomial", "qpoly.recurrence",
               "qpoly.long_division", "catalan.verdict", "tilings.enumerate",
               "elliptic.theta_double", "elliptic.theta_ext", "cli")

_KERNEL_SPANS = ("kernels.mul_qnumber", "kernels.div_qnumber")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def call(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments;
        ``attrs(args, result)`` returns the span's counters, if any.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pick = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [pick(args) if pick else name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock() - t0
                span[2] = t0
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result
        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rebind(orig, wrapped) -> None:
    """Point every ``fibl.*`` module attribute that is ``orig`` at ``wrapped``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fibl" or mod_name.startswith("fibl.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _is_double(args) -> bool:
    return all(isinstance(v, (complex, float, int)) for v in args[:2])


def install(tracer: Tracer) -> dict:
    """Wrap fibl's layer boundaries; returns the lru caches to read at the end.

    A boundary missing from the program is skipped, and its metrics read 0.
    """
    import fibl.catalan
    import fibl.cli
    import fibl.elliptic
    import fibl.kernels
    import fibl.qpoly
    import fibl.tilings

    def wrap(module, attr, name, attrs=None):
        orig = getattr(module, attr, None)
        if orig is not None:
            _rebind(orig, tracer.call(name, orig, attrs))
        return orig

    k = fibl.kernels
    wrap(k, "mul_qnumber", "kernels.mul_qnumber", lambda a, r: {"coeffs": len(r)})
    wrap(k, "div_qnumber", "kernels.div_qnumber",
         lambda a, r: {"coeffs": 0, "failed": 1} if r is None else {"coeffs": len(r)})
    wrap(k, "mul_dense", "kernels.mul_dense",
         lambda a, r: {"coeff_pairs": len(a[0]) * len(a[1])})
    wrap(k, "coeff_min_max", "kernels.scan")
    wrap(k, "scan_unimodal", "kernels.scan")

    intpoly = getattr(fibl.qpoly, "IntPoly", None)
    if intpoly is not None:
        intpoly.__mul__ = tracer.call("qpoly.mul", intpoly.__mul__,
                                      lambda a, r: {"peak_degree": len(r) - 1})
    caches = {"qpoly.q_fibonomial": [wrap(fibl.qpoly, "q_fibonomial", "qpoly.q_fibonomial")]}
    wrap(fibl.qpoly, "q_fibonomial_recurrence", "qpoly.recurrence")
    wrap(fibl.qpoly, "long_division", "qpoly.long_division")

    for attr in ("q_fibo_catalan_rational", "coxeter_q_fibo_catalan", "q_fibo_catalan_ordinary"):
        wrap(fibl.catalan, attr, "catalan.verdict",
             lambda a, r: {"not_polynomial": int(not r.is_polynomial)})

    t = fibl.tilings
    count = lambda a, r: {"tilings": r}  # noqa: E731
    wrap(t, "enumerate_rect_tilings", "tilings.enumerate", count)
    wrap(t, "enumerate_staircase_tilings", "tilings.enumerate", count)
    gf_count = lambda a, r: {"tilings": r.eval_q1()}  # noqa: E731
    wrap(t, "rect_generating_function", "tilings.enumerate", gf_count)
    wrap(t, "staircase_generating_function", "tilings.enumerate", gf_count)

    wrap(fibl.elliptic, "theta",
         lambda a: "elliptic.theta_double" if _is_double(a) else "elliptic.theta_ext")

    wrap(fibl.cli, "main", "cli")
    return caches


def _cache_counts(fns) -> tuple[int, int]:
    hits = lookups = 0
    for fn in fns:
        info = getattr(fn, "cache_info", None)
        if info is not None:
            ci = info()
            hits += ci.hits
            lookups += ci.hits + ci.misses
    return hits, lookups


def layer_counters(tracer: Tracer, caches: dict) -> dict:
    """Additive counters of one process, keyed ``<layer>.<stat>``.

    ``calls`` and ``tilings`` count only spans not nested directly in a
    span of the same layer, so an enumerator that drives another counts
    each tiling once.  ``peak_degree`` (combined by max) of a Catalan
    verdict is the largest degree its kernel calls produced.
    """
    spans = tracer.spans
    out = {f"{name}.{stat}": 0 for name in LAYER_SPANS for stat in ("calls", "self_s")}
    child_s = [0.0] * len(spans)
    for name, parent, _, dur, _ in spans:
        if parent >= 0:
            child_s[parent] += dur
    for i, (name, parent, _, dur, attrs) in enumerate(spans):
        out[f"{name}.self_s"] += dur - child_s[i]
        nested = parent >= 0 and spans[parent][0] == name
        if not nested:
            out[f"{name}.calls"] += 1
        for stat, value in (attrs or {}).items():
            key = f"{name}.{stat}"
            if stat == "peak_degree":
                out[key] = max(out.get(key, 0), value)
            elif not (nested and stat == "tilings"):
                out[key] = out.get(key, 0) + value
        if name in _KERNEL_SPANS and attrs:
            degree = attrs["coeffs"] - 1
            p = parent
            while p >= 0 and spans[p][0] != "catalan.verdict":
                p = spans[p][1]
            if p >= 0:
                key = "catalan.verdict.peak_degree"
                out[key] = max(out.get(key, 0), degree)
    for name, fns in caches.items():
        out[f"{name}.hits"], out[f"{name}.lookups"] = _cache_counts(fns)
    return out
