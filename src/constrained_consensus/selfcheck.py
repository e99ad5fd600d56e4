"""Randomized invariant suites for the ``validate`` command.

Each check draws small random instances from a seeded generator and verifies
one mathematical property the library is supposed to satisfy (projection
optimality, the exact-potential identity, gradient correctness, structural
properties of the round dynamics, ...).  Checks return pass/fail results
instead of raising, so the CLI can report every failure by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, experiments, game, graphs, sets
from .seeding import rng_for
from .tolerances import DEFAULT


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# random generators shared by the checks

SET_KINDS = ("ball", "halfspace", "box")


def random_set(rng: np.random.Generator, q: int, around: np.ndarray | None = None) -> sets.ConvexSet:
    """A random ball, half-space or box of moderate extent; contains
    ``around`` when given."""
    kind = SET_KINDS[rng.integers(len(SET_KINDS))]
    anchor = around if around is not None else rng.uniform(-2, 2, q)
    if kind == "ball":
        center = anchor + rng.uniform(-1, 1, q)
        radius = float(np.linalg.norm(anchor - center)) + rng.uniform(0.1, 1.5)
        return sets.Ball(center, radius)
    if kind == "halfspace":
        normal = rng.normal(size=q)
        while np.linalg.norm(normal) < 1e-6:
            normal = rng.normal(size=q)
        offset = float(normal @ anchor) + rng.uniform(0.1, 1.5)
        return sets.Halfspace(normal, offset)
    lower = anchor - rng.uniform(0.1, 1.5, q)
    upper = anchor + rng.uniform(0.1, 1.5, q)
    return sets.Box(lower, upper)


def sample_in(s: sets.ConvexSet, rng: np.random.Generator) -> np.ndarray:
    """Random point of the set: up to 100 rejection draws inside its bounding
    box, with a projection fallback (also the path for unbounded sets)."""
    box = s.bounding_box()
    if box is not None:
        lower, upper = box
        for _ in range(100):
            x = rng.uniform(lower, upper)
            if s.contains(x, tol=0.0):
                return x
    return s.project(rng.normal(scale=2.0, size=s.dim))


def random_connected_graph(rng: np.random.Generator, n: int) -> graphs.Graph:
    """Random spanning tree plus random extra edges."""
    order = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        a, b = int(order[i]), int(order[rng.integers(i)])
        edges.add((min(a, b), max(a, b)))
    for _ in range(int(rng.integers(0, max(1, n)))):
        i, k = int(rng.integers(n)), int(rng.integers(n))
        if i != k:
            edges.add((min(i, k), max(i, k)))
    return graphs.Graph.from_edges(n, edges)


def random_feasible_instance(rng: np.random.Generator) -> tuple[game.GameInstance, np.ndarray]:
    """Connected instance of 4 to 10 nodes in 1 to 4 dimensions whose sets
    share a known common point."""
    n = int(rng.integers(4, 11))
    q = int(rng.integers(1, 5))
    common = rng.uniform(-1, 1, q)
    g = random_connected_graph(rng, n)
    cs = tuple(random_set(rng, q, around=common) for _ in range(n))
    return game.GameInstance(g, cs, q), common


def random_feasible_profile(inst: game.GameInstance, rng: np.random.Generator) -> np.ndarray:
    return np.array([sample_in(s, rng) for s in inst.sets])


# ---------------------------------------------------------------------------
# convex-set checks

def check_projection_idempotent(rng):
    worst = 0.0
    for _ in range(300):
        q = int(rng.integers(1, 5))
        s = random_set(rng, q)
        x = rng.uniform(-5, 5, q)
        once = s.project(x)
        twice = s.project(once)
        worst = max(worst, float(np.max(np.abs(twice - once))))
    return worst <= DEFAULT.idempotence, f"max per-coordinate drift {worst:.2e}"


def check_projection_nonexpansive(rng):
    worst = -np.inf
    for _ in range(300):
        q = int(rng.integers(1, 5))
        s = random_set(rng, q)
        x, y = rng.uniform(-5, 5, q), rng.uniform(-5, 5, q)
        gap = float(np.linalg.norm(s.project(x) - s.project(y)) - np.linalg.norm(x - y))
        worst = max(worst, gap)
    return worst <= DEFAULT.nonexpansive, f"max expansion {worst:.2e}"


def check_projection_membership(rng):
    worst = 0.0
    for _ in range(300):
        q = int(rng.integers(1, 5))
        s = random_set(rng, q)
        worst = max(worst, s.distance_to(s.project(rng.uniform(-5, 5, q))))
    return worst <= DEFAULT.membership, f"max residual distance {worst:.2e}"


def check_projection_variational(rng):
    """(x - Px) . (y - Px) <= 0 for every y in the set."""
    worst = -np.inf
    for _ in range(300):
        q = int(rng.integers(1, 5))
        s = random_set(rng, q)
        x = rng.uniform(-5, 5, q)
        px = s.project(x)
        y = sample_in(s, rng)
        worst = max(worst, float((x - px) @ (y - px)))
    return worst <= DEFAULT.variational, f"max inner product {worst:.2e}"


# ---------------------------------------------------------------------------
# graph checks

def check_laplacian_row_sums(rng):
    for _ in range(50):
        g = random_connected_graph(rng, int(rng.integers(2, 15)))
        if np.any(graphs.laplacian(g).sum(axis=1) != 0.0):
            return False, "nonzero row sum"
    return True, "row sums exactly zero on 50 graphs"


def check_fiedler_connectivity(rng):
    """fiedler > 0 iff connected, over random graphs with n <= 20."""
    for _ in range(60):
        n = int(rng.integers(2, 21))
        p = rng.uniform(0.05, 0.6)
        edges = [(i, k) for i in range(n) for k in range(i + 1, n) if rng.random() < p]
        g = graphs.Graph.from_edges(n, edges)
        positive = graphs.fiedler_value(g) > DEFAULT.connectivity
        if positive != graphs.is_connected(g):
            return False, f"mismatch on n={n} graph with {len(edges)} edges"
    return True, "matches BFS connectivity on 60 graphs"


def check_fiedler_lockstep(rng):
    """fiedler_values over a batch equals fiedler_value one graph at a time,
    bit for bit, on random equal-n batches of mixed density."""
    for _ in range(4):
        n = int(rng.integers(2, 17))
        batch = []
        for p in rng.uniform(0.05, 0.9, 6):
            batch.append(graphs.Graph.from_edges(
                n, [(i, k) for i in range(n) for k in range(i + 1, n) if rng.random() < p]))
        got = graphs.fiedler_values(batch)
        want = [graphs.fiedler_value(g) for g in batch]
        if got != want:
            return False, f"n={n} batch: stacked {got} vs one at a time {want}"
    return True, "stacked equals one at a time on 4 batches of 6 graphs"


def _charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Brute-force eigenvalues via Faddeev-LeVerrier coefficients + roots."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return np.sort(np.roots(coeffs).real)


def check_jacobi_charpoly(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        b = rng.uniform(-3, 3, (n, n))
        a = (b + b.T) / 2
        got = graphs.jacobi_eigenvalues(a)
        want = _charpoly_eigenvalues(a)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst <= 1e-8, f"max eigenvalue deviation {worst:.2e}"


def check_rgg_reproducible(rng):
    seed = int(rng.integers(2**31))
    a, b = (experiments.make_localization_instance(30, 2, 0.3, 0.01, seed) for _ in range(2))
    if (not all(map(np.array_equal, a.graph.csr, b.graph.csr))
            or not np.array_equal(a.layout.positions, b.layout.positions)):
        return False, "same seed produced different output"
    adj = np.zeros((30, 30), dtype=bool)
    for i, k in a.graph.edges():
        adj[i, k] = adj[k, i] = True
    if adj.diagonal().any() or not np.array_equal(adj, adj.T):
        return False, "edge relation not symmetric/irreflexive"
    return True, "deterministic, symmetric, irreflexive"


# ---------------------------------------------------------------------------
# potential-game checks

def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_exact_potential(rng):
    """Single-node deviations move the potential by the deviator's utility change."""
    for _ in range(1000):
        inst, _ = random_feasible_instance(rng)
        p1 = random_feasible_profile(inst, rng)
        n = int(rng.integers(inst.n))
        p2 = p1.copy()
        p2[n] = sample_in(inst.sets[n], rng)
        dphi = game.potential(inst, p2) - game.potential(inst, p1)
        dutil = game.utility(inst, p2, n) - game.utility(inst, p1, n)
        if not _rel_close(dphi, dutil, DEFAULT.potential_exact):
            return False, f"dphi={dphi!r} dU={dutil!r}"
    return True, "1000 single-node deviations"


def check_independent_set_decomposition(rng):
    """Simultaneous deviations of pairwise non-adjacent nodes add up."""
    for _ in range(200):
        inst, _ = random_feasible_instance(rng)
        p1 = random_feasible_profile(inst, rng)
        order = rng.permutation(inst.n)
        chosen: list[int] = []
        for cand in order:
            if all(inst.adjacency[cand, c] == 0 for c in chosen):
                chosen.append(int(cand))
        p2 = p1.copy()
        for n in chosen:
            p2[n] = sample_in(inst.sets[n], rng)
        dphi = game.potential(inst, p2) - game.potential(inst, p1)
        dutil = sum(game.utility(inst, p2, n) - game.utility(inst, p1, n) for n in chosen)
        if not _rel_close(dphi, dutil, DEFAULT.potential_exact):
            return False, f"|K|={len(chosen)} dphi={dphi!r} sum dU={dutil!r}"
    return True, "200 independent-set deviations"


def check_gradient_block_identity(rng):
    for _ in range(100):
        inst, _ = random_feasible_instance(rng)
        p = random_feasible_profile(inst, rng)
        grad = game.cost_gradient(inst, p)
        for n in range(inst.n):
            block = grad[n * inst.q:(n + 1) * inst.q]
            if not np.array_equal(block, -game.utility_gradient(inst, p, n)):
                return False, f"block {n} differs"
    return True, "blocks equal -utility gradient exactly"


def check_gradient_finite_difference(rng):
    h = 1e-6
    for _ in range(100):
        inst, _ = random_feasible_instance(rng)
        p = random_feasible_profile(inst, rng)
        grad = game.cost_gradient(inst, p)
        fd = np.empty_like(grad)
        flat = p.ravel().copy()
        for j in range(flat.size):
            forward, backward = flat.copy(), flat.copy()
            forward[j] += h
            backward[j] -= h
            fd[j] = (-game.potential(inst, forward.reshape(p.shape))
                     + game.potential(inst, backward.reshape(p.shape))) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(grad)))
        if np.linalg.norm(grad - fd) / scale > DEFAULT.gradient_fd:
            return False, f"relative error {np.linalg.norm(grad - fd) / scale:.2e}"
    return True, "100 random profiles vs central differences"


def check_best_response_optimality(rng):
    worst = -np.inf
    for _ in range(20):
        inst, _ = random_feasible_instance(rng)
        p = random_feasible_profile(inst, rng)
        n = int(rng.integers(inst.n))
        br = game.best_response(inst, p, n)
        p_br = p.copy()
        p_br[n] = br
        u_br = game.utility(inst, p_br, n)
        for _ in range(50):
            p_cand = p.copy()
            p_cand[n] = sample_in(inst.sets[n], rng)
            worst = max(worst, game.utility(inst, p_cand, n) - u_br)
    return worst <= DEFAULT.optimality, f"max utility shortfall {worst:.2e} over 1000 candidates"


def check_lipschitz_inequality(rng):
    worst = -np.inf
    for _ in range(20):
        inst, _ = random_feasible_instance(rng)
        lip = game.lipschitz_constant(inst)
        for _ in range(50):
            x = rng.uniform(-3, 3, (inst.n, inst.q))
            y = rng.uniform(-3, 3, (inst.n, inst.q))
            lhs = float(np.linalg.norm(game.cost_gradient(inst, x) - game.cost_gradient(inst, y)))
            rhs = lip * float(np.linalg.norm(x - y))
            worst = max(worst, lhs - rhs)
    return worst <= DEFAULT.lipschitz, f"max violation {worst:.2e} over 1000 pairs"


def check_potential_concavity(rng):
    for _ in range(300):
        inst, _ = random_feasible_instance(rng)
        x = random_feasible_profile(inst, rng)
        y = random_feasible_profile(inst, rng)
        lam = float(rng.random())
        mix = game.potential(inst, lam * x + (1 - lam) * y)
        bound = lam * game.potential(inst, x) + (1 - lam) * game.potential(inst, y)
        if mix < bound - DEFAULT.variational:
            return False, f"phi(mix)={mix!r} < bound={bound!r}"
    return True, "300 random chords"


# ---------------------------------------------------------------------------
# engine checks

def check_dgtc_structure(rng):
    """Winner independence, potential monotonicity and feasibility per round.

    The engine asserts these internally (raising InvariantError); the trace
    is re-checked here from the recorded update activity.
    """
    for _ in range(25):
        inst, _ = random_feasible_instance(rng)
        trace = engine.run(engine.initial_state(inst), "dgtc", threshold=0.0,
                           max_iters=50 * inst.n)
        prev_phi = -np.inf
        for rec in trace.records:
            if rec.potential < prev_phi - DEFAULT.monotonicity:
                return False, f"potential dropped at t={rec.t}"
            prev_phi = rec.potential
            for a in rec.updated:
                for b in rec.updated:
                    if a != b and inst.adjacency[a, b]:
                        return False, f"adjacent winners {a},{b} at t={rec.t}"
        if game.max_set_distance(inst, trace.final_profile) > DEFAULT.membership:
            return False, "final profile infeasible"
    return True, "25 best-response runs"


def check_dgpc_matches_centralized(rng):
    """Per-node rounds equal the stacked projected-gradient update."""
    for _ in range(50):
        inst, _ = random_feasible_instance(rng)
        p = random_feasible_profile(inst, rng)
        s = game.default_step_size(inst)
        state = engine.EngineState(inst, p, step_size=s)
        dist = engine.dgpc_round(state).profile
        stacked = p.ravel() - s * game.cost_gradient(inst, p)
        central = np.array([cs.project(row) for cs, row in
                            zip(inst.sets, stacked.reshape(p.shape))])
        if np.max(np.abs(dist - central)) > 1e-12:
            return False, f"max deviation {np.max(np.abs(dist - central)):.2e}"
    return True, "50 random rounds, per-coordinate 1e-12"


def check_dgpc_cost_descent(rng):
    """Observed: the consensus cost does not increase along admissible-step
    runs.  Not guaranteed once the step exceeds its sufficient bound."""
    for _ in range(25):
        inst, _ = random_feasible_instance(rng)
        s = game.default_step_size(inst)
        state = engine.EngineState(inst, engine.initialize(inst), step_size=s)
        prev = -game.potential(inst, state.profile)
        for _ in range(60):
            state = engine.dgpc_round(state)
            cost = -game.potential(inst, state.profile)
            if cost > prev + DEFAULT.monotonicity:
                return False, f"cost rose {prev!r} -> {cost!r} (step {s:.3g})"
            prev = cost
    return True, "25 runs x 60 rounds"


def check_fixed_point_consensus(rng):
    """Rounds whose largest update metric is tiny are near-consensus states."""
    seen = 0
    for _ in range(25):
        inst, _ = random_feasible_instance(rng)
        trace = engine.run(engine.initial_state(inst), "dgtc", threshold=0.0,
                           max_iters=60 * inst.n)
        for rec in trace.records:
            if rec.max_metric is not None and rec.max_metric <= DEFAULT.fixed_point_report:
                seen += 1
                if rec.consensus_metric > DEFAULT.consensus_at_fixed_point:
                    return False, (f"max metric {rec.max_metric!r} but consensus "
                                   f"{rec.consensus_metric!r} at t={rec.t}")
    return True, f"{seen} tiny-update rounds, all near consensus"


def check_near_consensus_feasibility(rng):
    """The mean point is within the consensus metric of every node's set."""
    for _ in range(25):
        inst, _ = random_feasible_instance(rng)
        trace = engine.run(engine.initial_state(inst), "dgtc",
                           threshold=1e-8, max_iters=60 * inst.n)
        mu = trace.final_profile.mean(axis=0)
        c = engine.consensus_metric(trace.final_profile)
        for s in inst.sets:
            if s.distance_to(mu) > c + 1e-15:
                return False, f"mean point {s.distance_to(mu):.2e} away, c={c:.2e}"
    return True, "25 converged runs"


def check_pocs_displacement(rng):
    """Cycle displacements never increase and vanish on feasible instances.

    Cyclic projections promise convergence but no rate: some instances
    here need over 70 cycles to reach 1e-6.  So each run cycles until its
    displacement is at most 1e-6, and the cap only bounds the check's time:
    a run still above 1e-6 after 1000 cycles fails."""
    most = 0
    for _ in range(50):
        inst, common = random_feasible_instance(rng)
        x = common + rng.normal(scale=2.0, size=inst.q)
        disp = []
        while len(disp) < 1000 and (not disp or disp[-1] > 1e-6):
            x, step = engine.pocs_run(inst, x, cycles=1)
            disp += step
        for a, b in zip(disp, disp[1:]):
            if b > a + 1e-12:
                return False, f"displacement rose {a!r} -> {b!r}"
        if disp[-1] > 1e-6:
            return False, f"final displacement {disp[-1]:.2e} after {len(disp)} cycles"
        most = max(most, len(disp))
    return True, f"50 random feasible instances, each at most 1e-6 within {most} cycles"


# ---------------------------------------------------------------------------

SUITES: dict[str, dict] = {
    "sets": {
        "projection_idempotent": check_projection_idempotent,
        "projection_nonexpansive": check_projection_nonexpansive,
        "projection_membership": check_projection_membership,
        "projection_variational": check_projection_variational,
    },
    "graph": {
        "laplacian_row_sums": check_laplacian_row_sums,
        "fiedler_connectivity": check_fiedler_connectivity,
        "fiedler_lockstep": check_fiedler_lockstep,
        "jacobi_vs_charpoly": check_jacobi_charpoly,
        "rgg_reproducible": check_rgg_reproducible,
    },
    "potential": {
        "exact_potential": check_exact_potential,
        "independent_set_decomposition": check_independent_set_decomposition,
        "gradient_block_identity": check_gradient_block_identity,
        "gradient_finite_difference": check_gradient_finite_difference,
        "best_response_optimality": check_best_response_optimality,
        "lipschitz_inequality": check_lipschitz_inequality,
        "potential_concavity": check_potential_concavity,
    },
    "engine": {
        "dgtc_structure": check_dgtc_structure,
        "dgpc_matches_centralized": check_dgpc_matches_centralized,
        "dgpc_cost_descent": check_dgpc_cost_descent,
        "fixed_point_consensus": check_fixed_point_consensus,
        "near_consensus_feasibility": check_near_consensus_feasibility,
        "pocs_displacement": check_pocs_displacement,
    },
}


def run_checks(suites=None, seed: int = 0) -> list[CheckResult]:
    """Run the selected suites (all by default) and collect results."""
    if suites is None:
        suites = list(SUITES)
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite {', '.join(map(repr, unknown))}; "
                         f"available: {', '.join(sorted(SUITES))}")
    results = []
    for suite in suites:
        for name, fn in SUITES[suite].items():
            rng = rng_for(seed, _stable_key(suite), _stable_key(name))
            try:
                passed, detail = fn(rng)
            except engine.InvariantError as exc:
                passed, detail = False, f"invariant violated: {exc}"
            results.append(CheckResult(suite, name, bool(passed), detail))
    return results


def _stable_key(text: str) -> int:
    key = 0
    for ch in text:
        key = (key * 31 + ord(ch)) % (2**31)
    return key
