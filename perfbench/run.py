"""Benchmark of the constrained-consensus CLI: one workload per call.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a real CLI command (``run``, ``sweep`` or ``pocs``) run in
a fresh interpreter through ``perfbench/harness.py``.  Each run's CSV is
checked byte for byte (sha256) and its engine counts exactly against
``perfbench/reference.json``; a run that differs counts as failed.  The
workload inputs are the recorded ones, so the gate applies to every run;
``--seed`` is echoed but does not change them; ``--inputs held_out`` runs
the recorded held-out seed instead (see README.md).

``--trace 0`` repeats the command for about ``--seconds`` seconds (at least
once) and reports the end-to-end metrics as medians over the repetitions,
plus ``setup_s``, the median of ten fresh-interpreter import probes.
``--trace 1`` runs the command once untraced, once traced and once without
the BLAS thread pin, and reports the per-layer metrics.

Every reported time is in reference seconds: measured time rescaled by
calibration chunks timed on the same CPU during the run (``speed.py``), so
that the host's drift in speed cancels.  The log lines above the result
give the raw wall times and the scale factors.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS = os.path.join(HERE, "harness.py")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_ROOT = ".bench_out"
PACKAGE = os.path.join("src", "constrained_consensus", "cli.py")

# The BLAS thread count is pinned in every workload process: wide-n1000's
# CSV bytes depend on it (see README.md, "Known defect").
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# every process this benchmark starts is killed and reaped by then
TIME_LIMIT_S = 170.0

SETUP_PROBES = 10
SETUP_BRACKET = 10  # calibration chunks on each side of a probe
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src')\n"
    "import constrained_consensus as cc\n"
    "loc = cc.make_localization_instance(8, 2, 0.9, 0.01, 0)\n"
    "cc.run(cc.initial_state(loc.game_instance, loc.layout), 'dgtc', 5)\n"
)

COUNT_KEYS = ("dgtc_rounds", "dgpc_rounds", "pocs_cycles", "attempts")


def remove_out_dir(path: str) -> None:
    """Delete a scratch directory, and OUT_ROOT too once it is empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(OUT_ROOT)
    except OSError:  # another run still uses it
        pass


def load_reference(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_argv(workload: dict, inputs: str, out_path: str) -> list[str]:
    seed = workload["seeds"][inputs]["seed"]
    return [*workload["argv"], "--seed", str(seed), "--out", out_path]


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    return env


def unpinned_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in PINNED_THREADS}


def counts_of(report: dict) -> dict:
    rounds = {"dgtc": 0, "dgpc": 0}
    for r in report["runs"]:
        rounds[r["algo"]] += r["rounds"]
    return {"dgtc_rounds": rounds["dgtc"], "dgpc_rounds": rounds["dgpc"],
            "pocs_cycles": report["pocs_cycles"], "attempts": report["attempts"]}


def run_process(cmd: list[str], env: dict, deadline: float):
    """Exit code of ``cmd``, or "timeout" if it is still running at ``deadline``
    (it is then killed and reaped)."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode


def run_cli(workload: dict, inputs: str, mode: str, env: dict, out_dir: str, tag: str,
            deadline: float) -> dict:
    """Run the workload's CLI command once in a fresh interpreter.

    Returns the harness report plus the wall time seen from here (spawn to
    exit), the CSV's sha256 and the gated counts.  A nonzero exit leaves
    ``sha256`` as None.
    """
    csv_path = os.path.join(out_dir, f"{tag}.csv")
    report_path = os.path.join(out_dir, f"{tag}.json")
    cmd = [sys.executable, HARNESS, mode, report_path, "--", *cli_argv(workload, inputs, csv_path)]
    t0 = time.perf_counter()
    code = run_process(cmd, env, deadline)
    wall = time.perf_counter() - t0
    if code != 0 or not os.path.exists(report_path):
        return {"wall_s": wall, "exit_code": code, "sha256": None}
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    with open(csv_path, "rb") as fh:
        report["sha256"] = hashlib.sha256(fh.read()).hexdigest()
    cal = report["calibration"]
    report["wall_s"] = wall
    report["factor"] = speed.factor(cal["total_s"] / cal["chunks"])
    report["ref_wall_s"] = (wall - cal["total_s"]) * report["factor"]
    report["counts"] = counts_of(report)
    return report


def gate(result: dict, expected: dict) -> list[str]:
    """Differences between a run and its recorded output; empty if it passes."""
    if result["sha256"] is None:
        return [f"exit code {result['exit_code']}"]
    problems = []
    if result["sha256"] != expected["sha256"]:
        problems.append(f"csv sha256 {result['sha256']} != {expected['sha256']}")
    for key in COUNT_KEYS:
        if result["counts"][key] != expected["counts"][key]:
            problems.append(f"{key} {result['counts'][key]} != {expected['counts'][key]}")
    return problems


def measure_setup(env: dict, deadline: float) -> tuple[list[float], int]:
    """Reference-second times of fresh interpreters importing the package,
    and failures.

    Each probe's wall time is rescaled by calibration chunks run in this
    process just before and after it; this process and the probes are held
    on one CPU meanwhile, so the chunks see the CPU the probe ran on.
    """
    times, failures = [], 0
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        for _ in range(SETUP_PROBES):
            before = speed.bracket(SETUP_BRACKET)
            t0 = time.perf_counter()
            code = run_process([sys.executable, "-c", SETUP_CODE], env, deadline)
            wall = time.perf_counter() - t0
            chunks = before + speed.bracket(SETUP_BRACKET)
            times.append(wall * speed.factor(statistics.fmean(chunks)))
            failures += code != 0
    finally:
        os.sched_setaffinity(0, affinity)
    return times, failures


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "pinned": PINNED_THREADS}


def _m(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(reps: list[dict], setup_times: list[float]) -> dict:
    def rate(rep):
        c, b = rep["counts"], rep["boundaries"]
        rounds = c["dgtc_rounds"] + c["dgpc_rounds"] + c["pocs_cycles"]
        busy = b["engine.run"]["total_s"] + b["engine.pocs"]["total_s"]
        return rounds / (busy * rep["factor"])

    return {
        "wall_s": _m(statistics.median(r["ref_wall_s"] for r in reps), "s"),
        "setup_s": _m(statistics.median(setup_times), "s"),
        "peak_rss_mb": _m(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "rounds_per_s": _m(statistics.median(rate(r) for r in reps), "1/s"),
    }


def per_layer_metrics(traced: dict, plain: dict, blas_invariant: bool) -> dict:
    b, scale = traced["boundaries"], traced["factor"]

    def total(key):
        return b[key]["total_s"] * scale

    def calls(key):
        return b[key]["calls"]

    def self_time(layer):
        return scale * sum(v["self_s"] for k, v in b.items() if k.startswith(layer + "."))

    runs = traced["runs"]

    def per_algo(field):
        return {a: sum(r[field] for r in runs if r["algo"] == a) for a in ("dgtc", "dgpc")}

    rounds, seconds = per_algo("rounds"), per_algo("seconds")
    seconds = {a: s * scale for a, s in seconds.items()}
    node_rounds = sum(r["n"] * r["rounds"] for r in runs if r["algo"] == "dgtc")
    movers = sum(r["movers"] for r in runs if r["algo"] == "dgtc")
    stops = {s: sum(1 for r in runs if r["stop"] == s) for s in ("threshold", "fixed_point", "cap")}
    attempts = traced["attempts"]

    return {
        "engine.self_s": _m(self_time("engine"), "s"),
        "engine.rounds.dgtc": _m(rounds["dgtc"], "count"),
        "engine.rounds.dgpc": _m(rounds["dgpc"], "count"),
        "engine.us_per_round.dgtc": _m(1e6 * seconds["dgtc"] / max(rounds["dgtc"], 1), "us"),
        "engine.us_per_round.dgpc": _m(1e6 * seconds["dgpc"] / max(rounds["dgpc"], 1), "us"),
        "engine.movers_per_node_round": _m(movers / node_rounds if node_rounds else 0.0, "ratio"),
        "engine.stops.threshold": _m(stops["threshold"], "count"),
        "engine.stops.fixed_point": _m(stops["fixed_point"], "count"),
        "engine.stops.cap": _m(stops["cap"], "count"),
        "engine.trace_records": _m(sum(r["records"] for r in runs), "count"),
        "engine.consensus_metric_s": _m(total("engine.consensus_metric"), "s"),
        "engine.pocs_s": _m(total("engine.pocs"), "s"),
        "sets.row_project_s": _m(total("sets.row_project"), "s"),
        "sets.row_project_calls": _m(calls("sets.row_project"), "count"),
        "sets.row_distances_s": _m(total("sets.row_distances"), "s"),
        "sets.row_distances_calls": _m(calls("sets.row_distances"), "count"),
        "sets.scalar_project_s": _m(total("sets.scalar_project"), "s"),
        "sets.scalar_project_calls": _m(calls("sets.scalar_project"), "count"),
        "sets.scalar_distance_s": _m(total("sets.scalar_distance"), "s"),
        "game.potential_s": _m(total("game.potential"), "s"),
        "game.potential_calls": _m(calls("game.potential"), "count"),
        "graphs.fiedler_s": _m(total("graphs.fiedler"), "s"),
        "graphs.fiedler_calls": _m(calls("graphs.fiedler"), "count"),
        "graphs.graph_build_s": _m(total("graphs.graph_build"), "s"),
        "graphs.bfs_s": _m(total("graphs.bfs"), "s"),
        "experiments.self_s": _m(self_time("experiments"), "s"),
        "experiments.attempts": _m(attempts, "count"),
        "experiments.accept_ratio": _m(traced["accepted"] / attempts if attempts else 0.0, "ratio"),
        "experiments.csv_render_s": _m(total("experiments.csv_render"), "s"),
        "experiments.write_text_s": _m(total("experiments.write_text"), "s"),
        "cli.self_s": _m(self_time("cli"), "s"),
        "trace.overhead_pct": _m(100.0 * (traced["ref_wall_s"] / plain["ref_wall_s"] - 1.0), "%"),
        "blas_thread_invariant": _m(int(blas_invariant), "bool"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--inputs", choices=("default", "held_out"), default="default",
                   help="recorded input seed to run (held_out confirms a claim)")
    p.add_argument("--reference", default=REFERENCE, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(PACKAGE):
        print(f"error: {PACKAGE} not found; run from the repository root", file=sys.stderr)
        return 2
    workloads = load_reference(args.reference)["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(sorted(workloads))}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    expected = workload["seeds"][args.inputs]
    print(f"machine: {json.dumps(machine_info())}")
    print(f"workload {args.workload} ({args.inputs} inputs, seed {expected['seed']}; "
          f"benchmark seed {args.seed}): {' '.join(workload['argv'])}")

    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = os.path.join(OUT_ROOT, f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    runs = []  # every gated CLI run, for the error rate
    setup_failures = 0

    def gated(mode, env, tag):
        result = run_cli(workload, args.inputs, mode, env, out_dir, tag, deadline)
        result["problems"] = gate(result, expected)
        status = "; ".join(result["problems"]) or "ok"
        scaled = (f" = {result['ref_wall_s']:.3f} reference s (x{result['factor']:.3f})"
                  if "factor" in result else "")
        print(f"{tag}: wall {result['wall_s']:.3f} s{scaled}, output gate {status}")
        runs.append(result)
        return result

    try:
        if args.trace == 0:
            setup_times, setup_failures = measure_setup(pinned_env(), deadline)
            reps, spent = [], 0.0
            # repeat while the next repetition is expected to end within --seconds
            while not reps or (spent + spent / len(reps) <= args.seconds
                               and time.monotonic() + spent / len(reps) < deadline):
                result = gated("plain", pinned_env(), f"rep{len(reps) + 1}")
                if result["sha256"] is None:
                    break
                spent += result["wall_s"]
                reps.append(result)
            metrics = end_to_end_metrics(reps, setup_times) if reps else {}
        else:
            plain = gated("plain", pinned_env(), "untraced")
            traced = gated("trace", pinned_env(), "traced")
            unpinned = run_cli(workload, args.inputs, "plain", unpinned_env(), out_dir,
                               "unpinned", deadline)
            unpinned["problems"] = [] if unpinned["sha256"] else [f"exit {unpinned['exit_code']}"]
            runs.append(unpinned)
            invariant = unpinned["sha256"] is not None and unpinned["sha256"] == plain["sha256"]
            print(f"unpinned: wall {unpinned['wall_s']:.3f} s, sha256 {unpinned['sha256']}, "
                  f"blas_thread_invariant {invariant}")
            ran = plain["sha256"] is not None and traced["sha256"] is not None
            metrics = per_layer_metrics(traced, plain, invariant) if ran else {}
    finally:
        remove_out_dir(out_dir)

    attempted = len(runs) + (SETUP_PROBES if args.trace == 0 else 0)
    failed = sum(bool(r["problems"]) for r in runs) + setup_failures
    print(f"error_rate: {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
