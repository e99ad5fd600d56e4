"""Source-localization experiments.

Scenario: n sensor nodes uniform in the unit box, communicating within range
rho; a source sits uniformly in the central box of side 0.5, and each node
knows only a ball around its own position whose radius is its true distance
to the source plus a margin epsilon (so the source lies in every ball and
the intersection is nonempty).

On top of the scenario sit the three experiment protocols:

* ``validation_study`` - Monte-Carlo convergence runs of both distributed
  algorithms plus the centralized cyclic-projections baseline,
* ``rate_sweep`` - iterations-to-threshold for both algorithms across
  network densities, indexed by the Fiedler value of each realization, and
* ``pocs_study`` - the baseline alone, with each cycle's set distance.

Each protocol's CSV is rendered here too.  Everything is reproducible from
a base seed; rerunning with the same seed yields byte-identical CSV output.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .engine import Trace, _check_step_sign, _check_stop, _count, initial_state, pocs_run, run
from .game import GameInstance, default_step_size
from .graphs import GeometricLayout, Graph, fiedler_values, graph_from_positions, is_connected
from .graphs import fiedler_value  # noqa: F401  (perfbench/harness.py wraps experiments.fiedler_value)
from .seeding import rng_for
from .sets import BallStack, _check_domain, _check_radii
from .tolerances import DEFAULT


class GenerationError(RuntimeError):
    """Instance generation could not produce a connected topology."""


@dataclass(frozen=True, eq=False)
class LocalizationInstance:
    """A connected localization scenario.  Node i's constraint ball has
    center ``centers[i]``, the node's position, and radius ``radii[i]``;
    ``game_instance`` takes them as one ball table (``GameInstance.from_balls``)."""

    layout: GeometricLayout
    graph: Graph
    source: np.ndarray
    radii: np.ndarray
    seed: int

    @property
    def centers(self) -> np.ndarray:
        return self.layout.positions

    @cached_property
    def game_instance(self) -> GameInstance:
        return GameInstance.from_balls(self.graph, self.centers, self.radii)


def localization_radii(positions: np.ndarray, source: np.ndarray, epsilon: float) -> np.ndarray:
    """Each node's ball radius, its distance to the source plus epsilon, as
    a checked read-only array."""
    radii = np.linalg.norm(positions - source, axis=1) + epsilon
    _check_radii(radii)
    radii.flags.writeable = False
    return radii


def make_localization_instance(n: int, q: int, rho: float, epsilon: float, seed: int,
                               max_attempts: int = 100) -> LocalizationInstance:
    """Generate a connected scenario, rejection-sampling the layout.

    Each attempt uses the sub-seed (seed, attempt); the first connected
    layout wins, so the result is deterministic per seed.
    """
    n, q = _check_scenario(n, q, rho, epsilon)
    max_attempts = _count(max_attempts, "max_attempts")
    for attempt in range(max_attempts):
        loc = _localization_from_rng(rng_for(seed, attempt), n, q, rho, epsilon, seed)
        if loc is not None:
            return loc
    raise GenerationError(
        f"no connected topology for n={n}, q={q}, rho={rho} after {max_attempts} attempts")


def _check_scenario(n: int, q: int, rho: float, epsilon: float, rho_name="rho") -> tuple[int, int]:
    """Check the scenario's parameters (the range as ``rho_name``); return n and q as ints."""
    n, q = _count(n, "n"), _count(q, "q")
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not rho > 0:
        raise ValueError(f"{rho_name} must be positive, got {rho}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    _check_domain(epsilon, "epsilon")
    return n, q


def _localization_from_rng(rng: np.random.Generator, n: int, q: int, rho: float,
                           epsilon: float, seed: int) -> LocalizationInstance | None:
    """One rejection-sampling attempt: draw the positions, and only if their
    graph is connected draw the source.  Returns None when disconnected."""
    positions = rng.random((n, q))
    graph = graph_from_positions(positions, rho)
    if not is_connected(graph):
        return None
    source = 0.25 + 0.5 * rng.random(q)
    return LocalizationInstance(
        layout=GeometricLayout(positions),
        graph=graph,
        source=source,
        radii=localization_radii(positions, source, epsilon),
        seed=seed,
    )


@dataclass(eq=False)
class ValidationResult:
    """Per trial, the seed and both traces; the baseline as ``pocs_study``
    returns it: ``pocs_displacements`` (trials, pocs_cycles), each cycle's
    displacement, and ``pocs_distances`` (trials,), the final point's
    largest distance to any set."""

    seeds: list[int]
    dgtc: list[Trace]
    dgpc: list[Trace]
    pocs_displacements: np.ndarray
    pocs_distances: np.ndarray

    def median_iterations(self) -> dict[str, float]:
        return {
            "dgtc": statistics.median(tr.iterations_used for tr in self.dgtc),
            "dgpc": statistics.median(tr.iterations_used for tr in self.dgpc),
        }


def validation_study(n: int, q: int, rho: float, epsilon: float, trials: int,
                     max_iters: int | None = None,
                     threshold: float = DEFAULT.convergence_threshold,
                     base_seed: int = 0, step_size: float | None = None,
                     pocs_cycles: int = 40, max_attempts: int = 100) -> ValidationResult:
    """Monte-Carlo convergence runs on `trials` connected instances.

    Trial i uses instance seed base_seed + i.  Both distributed algorithms
    run to `threshold`; the gradient-projection step defaults to 0.99 of its
    sufficient bound per instance.  The baseline performs `pocs_cycles`
    cycles of projections from the origin.
    """
    trials = _count(trials, "trials")
    pocs_cycles = _count(pocs_cycles, "pocs_cycles")
    _check_stop(max_iters, threshold)
    if step_size is not None:
        _check_step_sign(step_size)
    seeds, dgtc_traces, dgpc_traces, member_balls = [], [], [], []
    for trial in range(trials):
        loc = make_localization_instance(n, q, rho, epsilon, base_seed + trial, max_attempts)
        seeds.append(loc.seed)
        tr_dgtc, tr_dgpc = _run_pair(loc, max_iters, threshold, step_size)
        dgtc_traces.append(tr_dgtc)
        dgpc_traces.append(tr_dgpc)
        member_balls.append((loc.centers, loc.radii))
    # the baseline of every trial in one lockstep pass
    _, disp, dist = pocs_run(BallStack(member_balls), np.zeros((trials, q)), pocs_cycles)
    return ValidationResult(seeds, dgtc_traces, dgpc_traces,
                            np.reshape(disp, (trials, pocs_cycles)), dist[:, -1])


def _run_pair(loc: LocalizationInstance, max_iters: int | None, threshold: float,
              step_size: float | None = None) -> tuple[Trace, Trace]:
    """Both distributed algorithms on one scenario, from one start at the
    layout anchors.  The gradient step defaults to ``default_step_size``;
    the gradient-projection run checks it, so a step past its bound warns once."""
    inst = loc.game_instance
    s = step_size if step_size is not None else default_step_size(inst)
    start = initial_state(inst, loc.layout)
    tr_dgtc = run(start, "dgtc", max_iters, threshold)
    tr_dgpc = run(replace(start, step_size=s), "dgpc", max_iters, threshold)
    return tr_dgtc, tr_dgpc


def pocs_study(n: int, q: int, rho: float, epsilon: float, trials: int, cycles: int = 40,
               base_seed: int = 0, max_attempts: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic-projections baseline alone: trial i starts at the origin on
    instance seed base_seed + i, and all trials run in lockstep on one
    ``BallStack``.  Returns (trials, cycles) arrays of each cycle's
    displacement and of its point's largest distance to any set."""
    trials, cycles = _count(trials, "trials"), _count(cycles, "cycles")
    # each instance is dropped once its center and radius arrays are stacked
    instances = (make_localization_instance(n, q, rho, epsilon, base_seed + trial, max_attempts)
                 for trial in range(trials))
    stack = BallStack((loc.centers, loc.radii) for loc in instances)
    _, disp, dist = pocs_run(stack, np.zeros((trials, q)), cycles)
    return np.reshape(disp, (trials, cycles)), dist


@dataclass(frozen=True)
class SweepRecord:
    """One connected realization of the rate sweep."""

    trial: int
    seed: int  # sub-seed (attempt counter); instance = rng key (base_seed, seed)
    rho: float
    fiedler: float
    iters_dgtc: int
    conv_dgtc: bool
    iters_dgpc: int
    conv_dgpc: bool


def rate_sweep(n: int, q: int, rho_min: float, rho_max: float, realizations: int,
               threshold: float = DEFAULT.convergence_threshold, base_seed: int = 0,
               epsilon: float = 0.01, max_iters: int | None = None) -> list[SweepRecord]:
    """Iterations-to-threshold across network densities.

    Every attempt draws a fresh communication range uniform in
    [rho_min, rho_max] and a fresh layout; disconnected layouts are skipped
    (the kept density distribution is therefore conditioned on connectivity)
    until `realizations` connected records exist, or ``GenerationError``
    after 200 * realizations + 100 attempts.  Deterministic per base_seed.
    The kept graphs' Fiedler values come from one ``fiedler_values`` call
    after the runs.
    """
    if not rho_min < rho_max:
        raise ValueError(f"need rho_min < rho_max, got [{rho_min}, {rho_max}]")
    realizations = _count(realizations, "realizations")
    n, q = _check_scenario(n, q, rho_min, epsilon, "rho_min")
    _check_stop(max_iters, threshold)
    kept: list[tuple] = []  # (graph, seed, rho, iters_dgtc, conv_dgtc, iters_dgpc, conv_dgpc)
    attempt = 0
    while len(kept) < realizations:
        if attempt >= 200 * realizations + 100:
            raise GenerationError(
                f"only {len(kept)}/{realizations} connected realizations "
                f"after {attempt} attempts")
        rng = rng_for(base_seed, attempt)
        rho = rho_min + (rho_max - rho_min) * rng.random()
        loc = _localization_from_rng(rng, n, q, rho, epsilon, attempt)
        attempt += 1
        if loc is None:
            continue
        tr_dgtc, tr_dgpc = _run_pair(loc, max_iters, threshold)
        kept.append((loc.graph, loc.seed, float(rho), tr_dgtc.iterations_used, tr_dgtc.converged,
                     tr_dgpc.iterations_used, tr_dgpc.converged))
        del tr_dgtc, tr_dgpc  # kept into the next pair's runs, they would raise peak memory
    fiedlers = fiedler_values(graph for graph, *_ in kept)
    return [SweepRecord(trial, seed, rho, fiedler, *counts)
            for trial, ((_, seed, rho, *counts), fiedler) in enumerate(zip(kept, fiedlers))]


def median_split(records: list[SweepRecord], fiedler_cut: float) -> dict[str, float | int]:
    """Median iteration comparison on the sparse subsample (fiedler < cut)
    and over the full range."""
    sparse = [r for r in records if r.fiedler < fiedler_cut]
    out: dict[str, float | int] = {"num_sparse": len(sparse), "num_total": len(records)}
    if sparse:
        out["sparse_median_dgtc"] = statistics.median(r.iters_dgtc for r in sparse)
        out["sparse_median_dgpc"] = statistics.median(r.iters_dgpc for r in sparse)
    out["full_median_dgtc"] = statistics.median(r.iters_dgtc for r in records)
    out["full_median_dgpc"] = statistics.median(r.iters_dgpc for r in records)
    return out


def float_text(x: float) -> str:
    """Shortest round-trip text of a float, as every CSV column writes it."""
    return repr(float(x))


_CSV_CHUNK = 1024  # trace rows per string yielded by validation_csv_chunks


def validation_csv_chunks(result: ValidationResult) -> Iterator[str]:
    """CSV of all traces, as strings to concatenate or write in order:
    algo,trial,seed,t,consensus_metric,potential.

    Baseline rows reuse the layout with per-cycle displacement in the
    consensus_metric column and nan potential (undefined for a single
    point).  Yields the header, each trace's rows ``_CSV_CHUNK`` at a time
    from the trace columns, then each trial's baseline rows, so a writer
    holds one chunk of text at a time.
    """
    yield "algo,trial,seed,t,consensus_metric,potential\n"
    for algo, traces in (("dgtc", result.dgtc), ("dgpc", result.dgpc)):
        for trial, tr in enumerate(traces):
            head = f"{algo},{trial},{result.seeds[trial]},"
            rows = len(tr.metrics)
            for lo in range(0, rows, _CSV_CHUNK):
                hi = min(lo + _CSV_CHUNK, rows)
                yield "".join(f"{head}{t},{float_text(m)},{float_text(phi)}\n"
                              for t, m, phi in zip(range(lo, hi), tr.metrics[lo:hi], tr.potentials[lo:hi]))
    for trial, disps in enumerate(result.pocs_displacements.tolist()):
        head = f"pocs,{trial},{result.seeds[trial]},"
        yield "".join(f"{head}{t},{float_text(d)},nan\n" for t, d in enumerate(disps, start=1))


def validation_csv_text(result: ValidationResult) -> str:
    """The whole validation CSV as one string (see ``validation_csv_chunks``)."""
    return "".join(validation_csv_chunks(result))


def sweep_csv_text(records: list[SweepRecord]) -> str:
    """CSV of the sweep: trial,seed,rho,fiedler,iters_dgtc,conv_dgtc,iters_dgpc,conv_dgpc."""
    lines = ["trial,seed,rho,fiedler,iters_dgtc,conv_dgtc,iters_dgpc,conv_dgpc"]
    for r in records:
        lines.append(
            f"{r.trial},{r.seed},{float_text(r.rho)},{float_text(r.fiedler)},"
            f"{r.iters_dgtc},{int(r.conv_dgtc)},{r.iters_dgpc},{int(r.conv_dgpc)}")
    return "\n".join(lines) + "\n"


def pocs_csv_chunks(disp: np.ndarray, dist: np.ndarray, base_seed: int = 0) -> Iterator[str]:
    """The CSV of ``pocs_study``'s arrays, trial-major, one string per trial."""
    yield "trial,seed,cycle,displacement,max_set_distance\n"
    for trial, (disps, dists) in enumerate(zip(disp, dist)):
        head = f"{trial},{base_seed + trial},"
        yield "".join(f"{head}{cycle},{float_text(a)},{float_text(b)}\n"
                      for cycle, (a, b) in enumerate(zip(disps.tolist(), dists.tolist()), 1))


def write_text(text: str | Iterable[str], path) -> None:
    """Write a string, or an iterable of strings one at a time, as ASCII."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)
