#!/usr/bin/env python3
"""Self-check of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selfcheck.py

For every workload it runs run.py on tiny inputs, untraced and traced,
and confirms that the result line carries every metric BENCHMARK.json
names, with its unit, and that no command failed.  It then runs each
workload with every output altered before the gate and confirms that the
gate reports every command as failed.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402


def run(workload: str, *extra: str) -> tuple[int, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            rc, res = run(workload, "--trace", str(trace))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if rc != 0 or not res["correct"] or res["failed"]:
                errors.append(f"{workload} trace={trace}: rc={rc}, result {res}")
            elif got != wanted[trace]:
                errors.append(f"{workload} trace={trace}: metrics {sorted(got)} "
                              f"differ from BENCHMARK.json")
        rc, res = run(workload, "--trace", "0", "--corrupt")
        if rc == 0 or res["correct"] or res["failed"] != res["attempted"]:
            errors.append(f"{workload}: corrupted outputs were not all caught: {res}")
        print(f"{workload}: checked")
    for e in errors:
        print(f"ERROR: {e}")
    print("selfcheck", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
