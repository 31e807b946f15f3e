#!/usr/bin/env python3
"""The fibl benchmark: cold-process CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload catalan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see workloads.py):

* catalan  -- ``catalan sweep --max 13`` and the Coxeter verdicts F4 2,
  E8 3, E8 1, E7 7: the ratio engine's window kernels at large degree,
  on both the polynomial and the non-polynomial path;
* q-verify -- ``verify q-all --max 9`` and ``verify convolution --max 8``:
  tiling enumeration and generic dense products, window kernels at small
  degree;
* elliptic -- ``verify theta`` in double precision (2000 samples) and in
  128-bit precision (40 samples): theta evaluation in both precision
  regimes.  (Why ``verify elliptic-all`` is left out: see workloads.py.)

One run repeats the workload until ``--seconds`` have passed (at least
three times).  Each repetition starts one fresh interpreter per command,
one at a time, so every command starts with cold caches, as a CLI user's
does; run.py starts no threads and no pool.  Per repetition:

* ``wall_s``      -- summed time from each command's call into fibl to its
  checked output;
* ``setup_s``     -- summed interpreter start, ``import fibl`` and input
  set-up, up to each call;
* ``peak_rss_mb`` -- the largest ``ru_maxrss`` among the commands;
* ``fail_rate``   -- commands whose exit code or output check failed,
  over commands attempted (printed, and carried by ``failed``/``attempted``
  in the result line).

Each metric reported is the median over the run's repetitions.  With
``--trace 1`` the run alternates untraced and traced repetitions, reports
the per-layer metrics of the traced ones (medians) and ``trace.overhead_s``
(median traced wall minus median untraced wall), and requires traced and
untraced stdout to be identical.  Spans of the last traced repetition are
written to ``perfbench/out/<workload>/``, one JSON array per line:
``[name, parent index, start, duration, counters]``.

The last line of stdout is the JSON result; the lines before it are the
environment header and a human-readable summary.  Exit code 0 means every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_REPETITIONS = 3
LAST_START_S = 100        # no repetition starts later than this into a run
COMMAND_TIMEOUT_S = 120

# Ratios derived from summed counters: metric -> (numerator, denominator).
_RATIOS = {
    "qpoly.q_fibonomial.hit_ratio": ("qpoly.q_fibonomial.hits", "qpoly.q_fibonomial.lookups"),
    "tilings.enumerate.tilings_per_s": ("tilings.enumerate.tilings", "tilings.enumerate.self_s"),
}

LIMITS_NOTE = ("timings are time.monotonic and ru_maxrss of each workload process only; "
               "no hardware counters and no machine-wide tracing were used")


def _metric_units(kind: str) -> dict:
    """``{name: unit}`` of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child_env() -> dict:
    # FIBL_* variables would change what the CLI does; drop them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FIBL_")}
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_command(argv, trace: bool, corrupt: bool, spans_path=None) -> dict:
    """Run one CLI command in a fresh interpreter and return its record."""
    spec = {"argv": argv, "trace": trace, "corrupt": corrupt,
            "spans": str(spans_path) if spans_path else None}
    spec["t_spawn"] = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"problems": [f"timed out after {COMMAND_TIMEOUT_S} s"]}
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problems": [f"worker exited with {proc.returncode}"]}
    return json.loads(lines[-1])


def repetition(cmds, trace: bool, corrupt: bool, spans_dir=None) -> dict:
    """Run every command of the workload once, in order."""
    records = []
    for i, argv in enumerate(cmds):
        spans = spans_dir / f"spans-{i}-{argv[1]}.jsonl" if spans_dir else None
        records.append(run_command(argv, trace, corrupt, spans))
    ok = [r for r in records if not r["problems"]]
    rep = {"records": records, "failed": len(records) - len(ok), "attempted": len(records)}
    if len(ok) == len(records):
        rep["wall_s"] = sum(r["wall_s"] for r in records)
        rep["setup_s"] = sum(r["setup_s"] for r in records)
        rep["peak_rss_mb"] = max(r["peak_rss_mb"] for r in records)
    return rep


def layer_metrics(records, names) -> dict:
    """Per-layer metrics of one traced repetition."""
    total: dict = {}
    for r in records:
        for key, value in r["layers"].items():
            if key.endswith(".peak_degree"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    out = {}
    for name in names:
        if name in _RATIOS:
            num, den = (total.get(k, 0) for k in _RATIOS[name])
            out[name] = num / den if den else 0.0
        elif name != "trace.overhead_s":
            out[name] = total.get(name, 0)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the self-check")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter every output before the gate, for the self-check")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "fibl" / "cli.py").is_file():
        print(f"error: no fibl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmds = workloads.commands(args.workload, args.seed, args.tiny)
    trace = bool(args.trace)
    spans_dir = None
    if trace:
        spans_dir = HERE / "out" / args.workload
        spans_dir.mkdir(parents=True, exist_ok=True)

    plain, traced = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        done = len(traced) if trace else len(plain)
        if elapsed >= LAST_START_S or (elapsed >= args.seconds and done >= MIN_REPETITIONS):
            break
        plain.append(repetition(cmds, False, args.corrupt))
        if trace:
            traced.append(repetition(cmds, True, args.corrupt, spans_dir))

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = sorted({p for r in reps for rec in r["records"] for p in rec["problems"]})
    for p_rep, t_rep in zip(plain, traced):
        for i, (a, b) in enumerate(zip(p_rep["records"], t_rep["records"])):
            if a.get("stdout_sha256") != b.get("stdout_sha256") and not b["problems"]:
                failed += 1
                problems.append(f"traced stdout differs from untraced: {' '.join(cmds[i])}")
    correct = failed == 0

    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": next((rec["backend"] for r in reps for rec in r["records"]
                                if "backend" in rec), None),
        "limits": LIMITS_NOTE,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "repetitions": len(reps),
        "commands": [" ".join(c) for c in cmds],
    }
    print(json.dumps({"env": env}))
    for p in problems[:20]:
        print(f"FAILED: {p}")

    metrics = {}
    if correct and not trace:
        for name, unit in _metric_units("end_to_end").items():
            values = [r[name] for r in plain]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            q1, q3 = _quartiles(values)
            print(f"{name:<12} {metrics[name]['value']:.4f} {unit}  "
                  f"(median of {len(values)}, quartiles {q1:.4f} .. {q3:.4f})")
    elif correct:
        units = _metric_units("per_layer")
        per_rep = [layer_metrics(r["records"], units) for r in traced]
        for name, unit in units.items():
            if name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in plain))
            else:
                value = statistics.median(m[name] for m in per_rep)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<34} {value:.6g} {unit}")
    print(f"fail_rate    {failed / attempted:.4f} ratio  ({failed} of {attempted} commands)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
