"""One benchmark command in a fresh interpreter.

Started by run.py with a JSON spec as its only argument:

    {"argv": [...], "t_spawn": <time.monotonic() just before the spawn>,
     "trace": false, "spans": null, "corrupt": false}

It imports fibl from the checkout's ``src``, calls ``fibl.cli.main(argv)``
in-process with stdout captured, checks the output and prints one JSON
line: set-up and wall time, peak RSS, problems found and, when traced,
the layer counters.  Time is taken with ``time.monotonic`` (CLOCK_MONOTONIC
on Linux), the clock run.py takes t_spawn from.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import fibl
    import fibl.cli
    if not Path(fibl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fibl imported from {fibl.__file__}, not from this checkout")
    import tracing
    import workloads

    argv = list(spec["argv"])
    digests = workloads.load_digests()
    tracer = caches = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        caches = tracing.install(tracer)

    t_first = time.monotonic()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fibl.cli.main(argv)
    stdout = buf.getvalue()
    if spec["corrupt"]:
        stdout = _corrupt(stdout)
    problems = workloads.check(argv, rc, stdout, digests)
    t_done = time.monotonic()

    result = {
        "setup_s": t_first - spec["t_spawn"],
        "wall_s": t_done - t_first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": problems,
        "stdout_sha256": workloads.sha256(stdout),
        "backend": fibl.kernel_backend,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_counters(tracer, caches)
        if spec["spans"]:
            tracer.write(spec["spans"])
    print(json.dumps(result))
    return 0


def _corrupt(stdout: str) -> str:
    """Change one report or digit so that a correct gate must object."""
    if '"passed": true' in stdout:
        return stdout.replace('"passed": true', '"passed": false', 1)
    for i in range(len(stdout) - 1, -1, -1):
        if stdout[i].isdigit():
            return stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1:]
    return stdout + "x"


if __name__ == "__main__":
    sys.exit(main())
