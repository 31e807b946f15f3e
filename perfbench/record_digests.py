#!/usr/bin/env python3
"""Record the stdout digests of the exact workloads' commands.

    python3 perfbench/record_digests.py

Runs every catalan and q-verify command (full and tiny sizes) once in a
fresh interpreter and writes the sha256 of its stdout to digests.json.
Record only from a commit whose outputs are known to be right: the gate
compares every later run against these bytes.
"""

import json
import sys

import run
import workloads


def main() -> int:
    digests = {}
    for workload in ("catalan", "q-verify"):
        for tiny in (False, True):
            for argv in workloads.commands(workload, 0, tiny):
                rec = run.run_command(argv, trace=False, corrupt=False)
                if "stdout_sha256" not in rec:
                    print(f"{' '.join(argv)}: {rec['problems']}", file=sys.stderr)
                    return 1
                digests[workloads.digest_key(argv)] = rec["stdout_sha256"]
                print(f"{rec['stdout_sha256']}  {' '.join(argv)}")
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
