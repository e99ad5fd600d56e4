"""Record the output gate: CSV sha256 and engine counts per workload and seed.

Usage, from the repository root:

    python3 perfbench/record.py [WORKLOAD ...]

Runs each workload's CLI command (default and held-out seed) once with the
BLAS thread count pinned, and writes the CSV sha256 and the counts into
``perfbench/reference.json``.  Rerun it only for a change whose output is
meant to differ, and say in that change why the bytes moved.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import (OUT_ROOT, REFERENCE, TIME_LIMIT_S, load_reference, pinned_env,
                 remove_out_dir, run_cli)


def main(names: list[str]) -> int:
    reference = load_reference(REFERENCE)
    out_dir = os.path.join(OUT_ROOT, f"record-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        for name, workload in reference["workloads"].items():
            if names and name not in names:
                continue
            for inputs, entry in workload["seeds"].items():
                result = run_cli(workload, inputs, "plain", pinned_env(), out_dir,
                                 f"{name}-{inputs}", time.monotonic() + TIME_LIMIT_S)
                if result["sha256"] is None:
                    print(f"{name} {inputs}: exit code {result['exit_code']}", file=sys.stderr)
                    return 1
                entry["sha256"] = result["sha256"]
                entry["counts"] = result["counts"]
                print(f"{name} {inputs} (seed {entry['seed']}): {result['wall_s']:.2f} s, "
                      f"{result['sha256']} {result['counts']}")
    finally:
        remove_out_dir(out_dir)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
