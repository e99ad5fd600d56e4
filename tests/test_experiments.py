import re
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest

from constrained_consensus import experiments, graphs
from constrained_consensus import game
from constrained_consensus.engine import StepSizeWarning, Trace, initial_state, pocs_run, run
from constrained_consensus.experiments import (
    _CSV_CHUNK,
    GenerationError,
    ValidationResult,
    float_text,
    localization_radii,
    make_localization_instance,
    median_split,
    pocs_csv_chunks,
    pocs_study,
    rate_sweep,
    sweep_csv_text,
    validation_csv_chunks,
    validation_csv_text,
    validation_study,
    write_text,
)
from constrained_consensus.graphs import fiedler_values, is_connected, laplacian
from constrained_consensus.seeding import rng_for
from constrained_consensus.sets import Ball


def test_localization_radius_rule():
    positions = np.array([[0.0, 0.0], [0.3, 0.0]])
    source = np.array([0.3, 0.4])
    radii = localization_radii(positions, source, epsilon=0.01)
    assert radii[0] == pytest.approx(0.51, abs=1e-15)   # distance 0.5 + 0.01
    assert radii[1] == pytest.approx(0.41, abs=1e-15)
    assert not radii.flags.writeable


def test_instance_sets_are_the_localization_balls_of_its_arrays():
    # the balls are built from centers and radii when first read, to the bit
    for seed in range(5):
        loc = make_localization_instance(25, 2, 0.4, 0.01, seed=seed)
        assert loc.centers is loc.layout.positions
        assert not loc.centers.flags.writeable and not loc.radii.flags.writeable
        want = [Ball(c, r) for c, r in
                zip(loc.layout.positions, localization_radii(loc.layout.positions, loc.source, 0.01))]
        sets = loc.game_instance.sets
        assert sets is loc.game_instance.sets and len(sets) == len(want) == 25
        for got, ball in zip(sets, want):
            assert got.center.tolist() == ball.center.tolist()
            assert got.radius == ball.radius
        assert [b.radius for b in sets] == loc.radii.tolist()
    with pytest.raises(ValueError, match="radius must be nonnegative, got -1.0"):
        localization_radii(np.zeros((2, 2)), np.zeros(2), -1.0)


def test_instance_source_contained_exactly():
    loc = make_localization_instance(30, 2, 0.35, 0.01, seed=3)
    for ball in loc.game_instance.sets:
        assert ball.contains(loc.source, tol=0.0)
    assert np.all(loc.source >= 0.25) and np.all(loc.source <= 0.75)
    assert is_connected(loc.graph)
    assert loc.layout.positions.shape == (30, 2)


def test_instance_deterministic_per_seed():
    a = make_localization_instance(25, 2, 0.35, 0.01, seed=11)
    b = make_localization_instance(25, 2, 0.35, 0.01, seed=11)
    assert np.array_equal(a.layout.positions, b.layout.positions)
    assert np.array_equal(a.source, b.source)
    assert a.graph.neighbors == b.graph.neighbors
    c = make_localization_instance(25, 2, 0.35, 0.01, seed=12)
    assert not np.array_equal(a.layout.positions, c.layout.positions)


def test_graph_stays_csr_only():
    # instance generation, runs, spectra and the per-node game functions
    # read the CSR arrays; the neighbor tuples are a view built on demand
    loc = make_localization_instance(100, 2, 0.3, 0.01, 1)
    inst, g = loc.game_instance, loc.graph
    for algo, step in (("dgtc", None), ("dgpc", game.default_step_size(inst))):
        trace = run(initial_state(inst, loc.layout, step_size=step), algo, 50, 1e-9)
        assert trace.iterations_used == 50
    prof = initial_state(inst, loc.layout).profile
    assert is_connected(g) and fiedler_values([g])[0] > 0.0
    laplacian(g), list(g.edges()), g.degrees(), g.edge_count
    game.cost_gradient(inst, prof), game.potential(inst, prof)
    for i in range(g.n):
        g.degree(i), game.utility(inst, prof, i), game.utility_gradient(inst, prof, i)
        game.centroid(inst, prof, i), game.best_response(inst, prof, i)
        game.update_metric(inst, prof, i)
    assert sorted(vars(g)) == ["csr", "n"]

    indptr, indices, _ = g.csr
    nbrs = g.neighbors
    assert type(nbrs) is tuple and len(nbrs) == g.n
    for i, ids in enumerate(nbrs):
        assert type(ids) is tuple and all(type(k) is int for k in ids)
        assert ids == tuple(indices[indptr[i]:indptr[i + 1]].tolist())
    assert g.neighbors is nbrs


def test_instance_generation_error_reports_attempts():
    with pytest.raises(GenerationError, match="3 attempts"):
        make_localization_instance(40, 2, 0.01, 0.01, seed=0, max_attempts=3)


def test_instance_parameter_validation():
    with pytest.raises(ValueError):
        make_localization_instance(1, 2, 0.3, 0.01, seed=0)
    with pytest.raises(ValueError):
        make_localization_instance(10, 0, 0.3, 0.01, seed=0)
    with pytest.raises(ValueError):
        make_localization_instance(10, 2, -0.3, 0.01, seed=0)
    with pytest.raises(ValueError):
        make_localization_instance(10, 2, 0.3, 0.0, seed=0)
    with pytest.raises(ValueError):
        make_localization_instance(10, 2, float("nan"), 0.01, seed=0)
    with pytest.raises(ValueError):
        make_localization_instance(10, 2, 0.3, float("nan"), seed=0)


def test_count_arguments_must_be_positive_integers():
    scenario = dict(n=10, q=2, rho=0.5, epsilon=0.01, seed=0)
    for key, value in (("n", 10.5), ("q", 2.0), ("max_attempts", 2.5), ("n", "10")):
        with pytest.raises(ValueError, match=rf"{key} must be an integer, got {value!r}"):
            make_localization_instance(**{**scenario, key: value})
    with pytest.raises(ValueError, match=r"max_attempts must be positive, got 0"):
        make_localization_instance(**scenario, max_attempts=0)
    with pytest.raises(ValueError, match=r"trials must be an integer, got 2.5"):
        validation_study(n=10, q=2, rho=0.5, epsilon=0.01, trials=2.5)
    sweep = dict(n=10, q=2, rho_min=0.35, rho_max=0.6, realizations=2)
    with pytest.raises(ValueError, match=r"realizations must be an integer, got 2.5"):
        rate_sweep(**{**sweep, "realizations": 2.5})
    # integers of any type are taken as ints
    loc = make_localization_instance(np.int64(10), np.int32(2), 0.5, 0.01, 0, max_attempts=np.int64(100))
    assert loc.layout.positions.shape == (10, 2)


@pytest.mark.parametrize("bad, message", [({"pocs_cycles": 0}, "pocs_cycles must be positive"),
                                          ({"step_size": -1.0}, "step size must be positive")])
def test_validation_study_rejects_its_parameters_before_any_run(monkeypatch, bad, message):
    calls = []
    run = experiments.run
    monkeypatch.setattr(experiments, "run", lambda *args: calls.append(args) or run(*args))
    with pytest.raises(ValueError, match=message):
        validation_study(n=10, q=2, rho=0.5, epsilon=0.01, trials=2, **bad)
    assert calls == []


def test_one_graph_build_and_connectivity_test_per_attempt(monkeypatch):
    # perfbench counts attempts by wrapping these two names in experiments
    calls = {"graph_from_positions": 0, "is_connected": 0}
    for name in calls:
        def counted(*args, name=name, inner=getattr(experiments, name)):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(experiments, name, counted)
    with pytest.raises(GenerationError, match="4 attempts"):
        make_localization_instance(40, 2, 0.01, 0.01, seed=0, max_attempts=4)
    assert calls == {"graph_from_positions": 4, "is_connected": 4}
    # rho = 0.25 at n = 30 rejects some layouts and keeps others
    most = 0
    for seed in range(6):
        calls.update(graph_from_positions=0, is_connected=0)
        loc = make_localization_instance(30, 2, 0.25, 0.01, seed=seed)
        attempts = calls["is_connected"]
        assert calls["graph_from_positions"] == attempts >= 1
        # the kept layout is the last attempt's
        assert np.array_equal(loc.layout.positions, rng_for(seed, attempts - 1).random((30, 2)))
        most = max(most, attempts)
    assert most > 1
    calls.update(graph_from_positions=0, is_connected=0)
    records = rate_sweep(n=12, q=2, rho_min=0.15, rho_max=0.5, realizations=3,
                         threshold=1e-3, base_seed=2, max_iters=2000)
    # a record's seed is its attempt's index
    attempts = records[-1].seed + 1
    assert attempts > len(records)
    assert calls == {"graph_from_positions": attempts, "is_connected": attempts}


def test_studies_build_no_ball(monkeypatch):
    # each instance's ball table goes from the draw to the projector as
    # arrays; reading an instance's sets is what builds its Balls
    built = []
    init = Ball.__post_init__
    monkeypatch.setattr(Ball, "__post_init__", lambda ball: built.append(ball) or init(ball))
    validation_study(n=12, q=2, rho=0.45, epsilon=0.01, trials=3, threshold=1e-6, base_seed=5)
    rate_sweep(n=12, q=2, rho_min=0.3, rho_max=0.6, realizations=3, threshold=1e-6)
    pocs_study(n=12, q=2, rho=0.45, epsilon=0.01, trials=3, cycles=4)
    assert built == []
    assert len(make_localization_instance(12, 2, 0.45, 0.01, 5).game_instance.sets) == len(built) == 12


def test_validation_study_small():
    result = validation_study(n=12, q=2, rho=0.45, epsilon=0.01, trials=3,
                              threshold=1e-6, max_iters=20000, base_seed=5)
    assert len(result.dgtc) == len(result.dgpc) == 3
    for tr in result.dgtc + result.dgpc:
        assert tr.converged
        assert tr.final_metric <= 1e-6
    assert result.pocs_displacements.shape == (3, 40)
    assert result.pocs_distances.shape == (3,)
    assert result.pocs_distances.max() <= 1e-6
    med = result.median_iterations()
    assert med["dgtc"] >= 1 and med["dgpc"] >= 1


def test_validation_pocs_distance_matches_scalar_sets():
    # the study reports the largest set distance as the pocs command does,
    # bit for bit the scalar ConvexSet.distance_to
    result = validation_study(n=12, q=2, rho=0.45, epsilon=0.01, trials=3,
                              threshold=1e-3, base_seed=5, pocs_cycles=2)
    for seed, dmax in zip(result.seeds, result.pocs_distances.tolist()):
        inst = make_localization_instance(12, 2, 0.45, 0.01, seed).game_instance
        x, _ = pocs_run(inst, np.zeros(2), 2)
        assert dmax == max(s.distance_to(x) for s in inst.sets)
    assert result.pocs_distances.max() > 0.0


@pytest.mark.parametrize("n, rho, trials, base_seed", [(12, 0.6, 3, 0), (30, 0.4, 2, 7)])
def test_validation_baseline_is_the_pocs_study_baseline(n, rho, trials, base_seed):
    # validation_study's baseline is, bit for bit, pocs_study's, and its
    # distances are pocs_study's last cycle's
    r = validation_study(n=n, q=2, rho=rho, epsilon=0.01, trials=trials, max_iters=50,
                         base_seed=base_seed, pocs_cycles=15)
    disp, dist = pocs_study(n=n, q=2, rho=rho, epsilon=0.01, trials=trials, cycles=15,
                            base_seed=base_seed)
    assert np.array_equal(r.pocs_displacements, disp)
    assert np.array_equal(r.pocs_distances, dist[:, -1])


def test_pocs_study_matches_the_scalar_path():
    # each trial and cycle, bit for bit: one scalar pocs_run cycle from the
    # origin, then the largest ConvexSet.distance_to over the instance's sets
    disp, dist = pocs_study(n=20, q=2, rho=0.4, epsilon=0.001, trials=3, cycles=5, base_seed=4)
    assert disp.shape == dist.shape == (3, 5)
    for trial in range(3):
        loc = make_localization_instance(20, 2, 0.4, 0.001, 4 + trial)
        x = np.zeros(2)
        for cycle in range(5):
            x, (d,) = pocs_run(loc.game_instance, x, 1)
            assert disp[trial, cycle] == d
            assert dist[trial, cycle] == max(s.distance_to(x) for s in loc.game_instance.sets)
    # no trial is feasible after its first cycle, so the distances are tested
    assert dist[:, 0].min() > 0.0


@pytest.mark.parametrize("bad", ["trials", "cycles"])
def test_pocs_study_checks_its_counts_before_drawing(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(experiments, "make_localization_instance",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=rf"{bad} must be positive, got 0"):
        pocs_study(n=10, q=2, rho=0.5, epsilon=0.01, **{"trials": 2, "cycles": 3, bad: 0})
    assert calls == []


def test_pocs_csv_chunks_one_string_per_trial():
    disp, dist = np.array([[0.5, 0.25], [0.5, 0.25]]), np.array([[0.125, 0.0], [0.125, 0.0]])
    chunks = list(pocs_csv_chunks(disp, dist, base_seed=7))
    assert chunks == ["trial,seed,cycle,displacement,max_set_distance\n",
                      "0,7,1,0.5,0.125\n0,7,2,0.25,0.0\n",
                      "1,8,1,0.5,0.125\n1,8,2,0.25,0.0\n"]


def test_seeds_must_be_integers():
    # a non-integer seed names itself; it is not truncated to another seed's stream
    for bad in ("3", 1.9, np.float64(2.0)):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {bad!r}")):
            rng_for(bad)
        with pytest.raises(ValueError, match=r"seed must be an integer"):
            rng_for(0, bad)
    with pytest.raises(ValueError, match=r"seed must be an integer, got 1.9"):
        make_localization_instance(12, 2, 0.5, 0.01, seed=1.9)
    for study in (validation_study, pocs_study):
        with pytest.raises(ValueError, match=r"seed must be an integer, got 0.5"):
            study(n=10, q=2, rho=0.5, epsilon=0.01, trials=2, base_seed=0.5)
    with pytest.raises(ValueError, match=r"seed must be an integer, got 0.5"):
        rate_sweep(n=10, q=2, rho_min=0.35, rho_max=0.6, realizations=2, base_seed=0.5)
    # integers of any type keep their streams
    for seed in (np.int64(3), np.uint8(3), True):
        assert rng_for(seed, 2).random() == rng_for(int(seed), 2).random()


def test_one_step_size_warning_per_trial():
    # the two runs of a trial share one start, so a step past the bound is
    # reported once per trial, not once by the start and again by the run
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = validation_study(n=10, q=2, rho=0.5, epsilon=0.01, trials=2, step_size=0.3,
                                  max_iters=50)
    assert [w.category for w in caught] == [StepSizeWarning] * 2
    for seed in result.seeds:
        loc = make_localization_instance(10, 2, 0.5, 0.01, seed)
        assert 0.3 >= game.max_step_size(loc.game_instance)


def test_validation_csv_deterministic():
    kwargs = dict(n=10, q=2, rho=0.5, epsilon=0.01, trials=2, threshold=1e-5, base_seed=9)
    text1 = validation_csv_text(validation_study(**kwargs))
    text2 = validation_csv_text(validation_study(**kwargs))
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == "algo,trial,seed,t,consensus_metric,potential"
    algos = {line.split(",")[0] for line in lines[1:]}
    assert algos == {"dgtc", "dgpc", "pocs"}
    pocs_lines = [l for l in lines if l.startswith("pocs")]
    assert len(pocs_lines) == 2 * 40
    assert all(l.endswith(",nan") for l in pocs_lines)


def test_validation_csv_rows_are_float_text_bytes():
    # hand-built traces of 1023, 1024 and 1025 rows, one chunk boundary
    # short, at and past, whose columns hold signed zeros, subnormals, large
    # values and a sum with a long repr: every row is the float_text
    # rendering, byte for byte
    values = [-0.0, 5e-324, 1e-310, 1e300, 0.1 + 0.2, 0.0, -5e-324, -1e300]

    def column(rows, shift):
        return array("d", (values[(t + shift) % len(values)] for t in range(rows)))
    traces = [Trace("dgtc", column(rows, 0), column(rows, 3), np.zeros((1, 1)), False, rows - 1)
              for rows in (1023, 1024, 1025)]
    pocs = np.array([[values[(c + trial) % len(values)] for c in range(5)] for trial in range(3)])
    result = ValidationResult([7, 70, 700], traces, traces[::-1], pocs, np.zeros(3))
    expected = ["algo,trial,seed,t,consensus_metric,potential\n"]
    for algo, group in (("dgtc", result.dgtc), ("dgpc", result.dgpc)):
        for trial, tr in enumerate(group):
            expected += [f"{algo},{trial},{result.seeds[trial]},{t},{float_text(m)},{float_text(p)}\n"
                         for t, (m, p) in enumerate(zip(tr.metrics, tr.potentials))]
    for trial, disps in enumerate(pocs):
        expected += [f"pocs,{trial},{result.seeds[trial]},{cycle},{float_text(d)},nan\n"
                     for cycle, d in enumerate(disps, 1)]
    chunks = list(validation_csv_chunks(result))
    assert "".join(chunks).encode("ascii") == "".join(expected).encode("ascii")
    # the header, 1 + 1 + 2 chunks per algorithm, one per baseline trial
    assert len(chunks) == 1 + 2 * 4 + 3
    assert {"-0.0", "5e-324", "1e-310", "1e+300", "0.30000000000000004"} <= set(
        "".join(chunks).replace("\n", ",").split(","))


def test_rate_sweep_records():
    records = rate_sweep(n=12, q=2, rho_min=0.3, rho_max=0.6, realizations=4,
                         threshold=1e-5, base_seed=2, max_iters=4000)
    assert len(records) == 4
    for i, rec in enumerate(records):
        assert rec.trial == i
        assert rec.fiedler > 0.0
        assert 0.3 <= rec.rho <= 0.6
        assert rec.iters_dgtc >= 0 and rec.iters_dgpc >= 0
        if rec.conv_dgtc:
            assert rec.iters_dgtc <= 4000
        else:
            assert rec.iters_dgtc == 4000
        if rec.conv_dgpc:
            assert rec.iters_dgpc <= 4000
        else:
            assert rec.iters_dgpc == 4000


def test_rate_sweep_solves_every_fiedler_value_in_one_call(monkeypatch):
    batches = []
    solve = graphs.fiedler_values

    def counted(gs):
        gs = list(gs)
        batches.append(len(gs))
        return solve(gs)

    def one_at_a_time(g):
        raise AssertionError("rate_sweep solved one Fiedler value alone")
    monkeypatch.setattr(experiments, "fiedler_values", counted)
    monkeypatch.setattr(experiments, "fiedler_value", one_at_a_time)
    monkeypatch.setattr(graphs, "fiedler_value", one_at_a_time)
    records = rate_sweep(n=12, q=2, rho_min=0.3, rho_max=0.6, realizations=4,
                         threshold=1e-5, base_seed=2, max_iters=400)
    assert batches == [4]
    assert all(r.fiedler > 0.0 for r in records)


def test_rate_sweep_deterministic():
    kwargs = dict(n=10, q=2, rho_min=0.35, rho_max=0.6, realizations=3,
                  threshold=1e-4, base_seed=4, max_iters=2000)
    assert sweep_csv_text(rate_sweep(**kwargs)) == sweep_csv_text(rate_sweep(**kwargs))


def test_rate_sweep_csv_format():
    records = rate_sweep(n=10, q=2, rho_min=0.35, rho_max=0.6, realizations=2,
                         threshold=1e-4, base_seed=4, max_iters=2000)
    lines = sweep_csv_text(records).strip().split("\n")
    assert lines[0] == "trial,seed,rho,fiedler,iters_dgtc,conv_dgtc,iters_dgpc,conv_dgpc"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == records[0].rho
    assert first[5] in {"0", "1"} and first[7] in {"0", "1"}


def test_rate_sweep_attempt_cap():
    # the cap is 200 * realizations + 100 attempts, here 500 disconnected ones
    with pytest.raises(GenerationError, match=r"only 0/2 connected realizations after 500 attempts"):
        rate_sweep(n=40, q=2, rho_min=0.01, rho_max=0.02, realizations=2, base_seed=0)


def test_rate_sweep_validation():
    with pytest.raises(ValueError):
        rate_sweep(n=10, q=2, rho_min=0.5, rho_max=0.4, realizations=2)
    with pytest.raises(ValueError):
        rate_sweep(n=10, q=2, rho_min=0.3, rho_max=0.5, realizations=0)
    with pytest.raises(ValueError):
        rate_sweep(n=10, q=2, rho_min=0.3, rho_max=float("nan"), realizations=2)
    with pytest.raises(ValueError):
        rate_sweep(n=10, q=2, rho_min=-0.5, rho_max=-0.1, realizations=2)
    with pytest.raises(ValueError):
        rate_sweep(n=10, q=2, rho_min=0.0, rho_max=0.5, realizations=2)
    with pytest.raises(ValueError):
        rate_sweep(n=10, q=2, rho_min=-3.0, rho_max=0.5, realizations=2)
    with pytest.raises(ValueError):
        rate_sweep(n=10, q=2, rho_min=0.3, rho_max=0.5, realizations=2, epsilon=float("nan"))


def test_median_split():
    records = rate_sweep(n=10, q=2, rho_min=0.4, rho_max=0.7, realizations=3,
                         threshold=1e-4, base_seed=6, max_iters=2000)
    split = median_split(records, fiedler_cut=3.0)
    assert split["num_total"] == 3
    assert split["num_sparse"] <= 3
    assert "full_median_dgtc" in split and "full_median_dgpc" in split


def test_write_text(tmp_path):
    target = tmp_path / "out.csv"
    write_text("a,b\n1,2\n", target)
    assert target.read_bytes() == b"a,b\n1,2\n"


def test_write_text_chunks(tmp_path):
    target = tmp_path / "out.csv"
    chunks = ["a,b\n", "1,2\n", "", "3,4\n"]
    write_text(chunks, target)
    assert target.read_bytes() == "".join(chunks).encode()
    write_text((c for c in chunks), target)
    assert target.read_bytes() == "".join(chunks).encode()
    write_text(iter(()), target)
    assert target.read_bytes() == b""


def test_streamed_validation_csv_holds_one_chunk(tmp_path):
    # a CSV of several chunks per trace is written without ever holding its
    # whole text: the allocation peak stays below half of the file's size
    result = validation_study(n=12, q=2, rho=0.6, epsilon=0.01, trials=2,
                              max_iters=10000, threshold=0.0)
    assert all(len(tr.metrics) > 2 * _CSV_CHUNK for tr in result.dgpc)
    target = tmp_path / "validation.csv"
    tracemalloc.start()
    try:
        write_text(validation_csv_chunks(result), target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert peak < size / 2, (peak, size)
    assert target.read_bytes() == validation_csv_text(result).encode("ascii")
