"""Run one CLI command in this process with timers on the module boundaries.

Usage (from the repository root):

    python3 perfbench/harness.py MODE REPORT_JSON -- CLI_ARGS...

MODE is ``plain`` or ``trace``.  The command runs through
``constrained_consensus.cli.main`` exactly as ``python -m
constrained_consensus`` would run it.  Before that, public functions are
wrapped at the attribute their caller looks up, so that no program source
changes:

* ``plain`` wraps only the engine entry points (one timer pair per
  ``run`` / ``pocs_run`` call) and the connectivity test that counts
  rejection-sampling attempts.  End-to-end figures come from this mode.
* ``trace`` wraps every boundary in ``BOUNDARIES`` and keeps, per wrapped
  function, its call count, total time and self time (total minus the time
  of wrapped calls made inside it).

In both modes a ``speed.Sampler`` runs a calibration chunk every 40 ms
while the command runs.  The boundary timers leave the chunks out, and the
report gives the chunks' count and total time, from which ``run.py``
rescales every timing to the reference speed.

The report holds the CLI exit code, the peak RSS of this process, the
calibration figures, the engine counts the output gate checks, and in
``trace`` mode the per-boundary figures.  ``run.py`` turns them into
metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from constrained_consensus import cli, engine, experiments, sets  # noqa: E402
from speed import Sampler  # noqa: E402

# (owner, attribute, layer, boundary).  Each function is wrapped where its
# caller looks it up: cli binds the experiment helpers by name, cmd_pocs
# imports pocs_run and make_localization_instance lazily from their modules,
# engine resolves potential and consensus_metric in its own namespace, and
# Ball inherits project / distance_to from ConvexSet.
BOUNDARIES = [
    (cli, "resolve_config", "cli", "config"),
    (cli, "cmd_run", "cli", "command"),
    (cli, "cmd_sweep", "cli", "command"),
    (cli, "cmd_pocs", "cli", "command"),
    (cli, "validation_study", "experiments", "validation_study"),
    (cli, "rate_sweep", "experiments", "rate_sweep"),
    (cli, "validation_csv_text", "experiments", "csv_render"),
    (cli, "sweep_csv_text", "experiments", "csv_render"),
    (cli, "write_text", "experiments", "write_text"),
    (experiments, "make_localization_instance", "experiments", "instance"),
    (experiments, "graph_from_positions", "graphs", "graph_build"),
    (experiments, "is_connected", "graphs", "bfs"),
    (experiments, "fiedler_value", "graphs", "fiedler"),
    (engine, "potential", "game", "potential"),
    (experiments, "run", "engine", "run"),
    (experiments, "pocs_run", "engine", "pocs"),
    (engine, "pocs_run", "engine", "pocs"),
    (engine, "consensus_metric", "engine", "consensus_metric"),
    (sets.RowProjector, "project", "sets", "row_project"),
    (sets.RowProjector, "distances", "sets", "row_distances"),
    (sets.ConvexSet, "project", "sets", "scalar_project"),
    (sets.ConvexSet, "distance_to", "sets", "scalar_distance"),
]

# boundaries wrapped in plain mode too: the engine entry points and the
# per-attempt connectivity test, all called at most a few thousand times
PLAIN = {"run", "pocs", "bfs"}


class Recorder:
    """Per-boundary call counts, total and self time, plus engine counts.

    Calibration chunks that land inside a call are not counted in it: each
    timer subtracts the growth of ``sampler.total`` over the call.
    """

    def __init__(self, sampler: Sampler):
        self.sampler = sampler
        self.stats: dict[str, list] = {}
        self.children = [0.0]
        self.runs: list[dict] = []
        self.pocs_cycles = 0
        self.attempts = 0
        self.accepted = 0

    def wrap(self, layer: str, boundary: str, fn):
        stats = self.stats.setdefault(f"{layer}.{boundary}", [0, 0.0, 0.0])
        children = self.children
        sampler = self.sampler
        clock = time.perf_counter
        observe = getattr(self, "_observe_" + boundary, None)

        def wrapper(*args, **kwargs):
            children.append(0.0)
            cal0 = sampler.total
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (sampler.total - cal0)
                inner = children.pop()
                children[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
            if observe is not None:
                observe(args, result, dt)
            return result

        return wrapper

    def _observe_run(self, args, trace, dt):
        state = args[0]
        records = trace.records
        if trace.fixed_point:
            stop = "fixed_point"
        elif trace.converged:
            stop = "threshold"
        else:
            stop = "cap"
        movers = sum(len(r.updated) for r in records[1:]) if trace.algo == "dgtc" else 0
        self.runs.append({"algo": trace.algo, "rounds": trace.iterations_used, "seconds": dt,
                          "n": state.instance.n, "records": len(records), "movers": movers,
                          "stop": stop})

    def _observe_pocs(self, args, result, dt):
        self.pocs_cycles += len(result[1])

    def _observe_bfs(self, args, connected, dt):
        self.attempts += 1
        self.accepted += int(connected)

    def install(self, traced: bool) -> None:
        for owner, attr, layer, boundary in BOUNDARIES:
            if traced or boundary in PLAIN:
                setattr(owner, attr, self.wrap(layer, boundary, getattr(owner, attr)))


def main(argv: list[str]) -> int:
    mode, report_path, sep, *cli_args = argv
    if mode not in ("plain", "trace") or sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    sampler = Sampler()
    recorder = Recorder(sampler)
    recorder.install(traced=mode == "trace")
    sampler.start()
    try:
        code = cli.main(cli_args)
    finally:
        sampler.stop()
    report = {
        "exit_code": code,
        "calibration": {"chunks": sampler.count, "total_s": sampler.total},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": recorder.runs,
        "pocs_cycles": recorder.pocs_cycles,
        "attempts": recorder.attempts,
        "accepted": recorder.accepted,
        "boundaries": {key: {"calls": c, "total_s": tot, "self_s": own}
                       for key, (c, tot, own) in recorder.stats.items()},
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
