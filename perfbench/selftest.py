"""Smoke self-test of the benchmark on the tiny ``smoke`` workload.

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks that

* ``--trace 0`` emits every end-to-end metric of BENCHMARK.json with its
  unit, and ``--trace 1`` every per-layer metric, both with a passing gate;
* a corrupted reference hash is reported as a failed run;
* in a directory holding only BENCHMARK.json and ``perfbench/``, the
  benchmark exits nonzero without printing a result.

Prints one PASS/FAIL line per check and exits 1 if any failed.  Takes a few
seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import OUT_ROOT, remove_out_dir

HERE = os.path.dirname(os.path.abspath(__file__))
SMOKE = ["--workload", "smoke", "--seed", "0", "--seconds", "1"]


def bench(args: list[str], cwd: str = ".") -> tuple[int, dict | None]:
    """Exit code and the final JSON line (None if the last line is not JSON)."""
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def emits(result: dict | None, declared: list[dict]) -> str | None:
    """Problem with a result against the declared metrics, or None."""
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"malformed result {result!r}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"gate failed: {result['failed']}/{result['attempted']}"
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            return f"missing metric {m['name']}"
        if got[m["name"]]["unit"] != m["unit"]:
            return f"{m['name']} unit {got[m['name']]['unit']} != {m['unit']}"
    extra = set(got) - {m["name"] for m in declared}
    return f"undeclared metrics {sorted(extra)}" if extra else None


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    scratch = os.path.join(OUT_ROOT, f"selftest-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    checks = []
    try:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, result = bench([*SMOKE, "--trace", trace])
            problem = emits(result, spec[kind]) if code == 0 else f"exit {code}"
            checks.append((f"{kind} metrics emitted", problem is None, problem))

        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        entry = reference["workloads"]["smoke"]["seeds"]["default"]
        entry["sha256"] = "0" * 64
        corrupted = os.path.join(scratch, "reference.json")
        with open(corrupted, "w", encoding="utf-8") as fh:
            json.dump(reference, fh)
        code, result = bench([*SMOKE, "--trace", "0", "--reference", corrupted])
        caught = (code == 0 and result is not None
                  and not result["correct"] and result["failed"] >= 1)
        checks.append(("corrupted reference hash fails the gate", caught, result))

        bare = os.path.join(scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        code, result = bench([*SMOKE, "--trace", "0"], cwd=bare)
        checks.append(("bare directory exits nonzero without a result",
                       code != 0 and result is None, f"exit {code}, result {result!r}"))
    finally:
        remove_out_dir(scratch)

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f" - {detail}"))
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
