import tracemalloc

import numpy as np
import pytest

from constrained_consensus import experiments, graphs
from constrained_consensus.engine import pocs_run
from constrained_consensus.experiments import (
    _CSV_CHUNK,
    GenerationError,
    localization_sets,
    make_localization_instance,
    median_split,
    rate_sweep,
    sweep_csv_text,
    validation_csv_chunks,
    validation_csv_text,
    validation_study,
    write_text,
)
from constrained_consensus.graphs import is_connected


def test_localization_radius_rule():
    positions = np.array([[0.0, 0.0], [0.3, 0.0]])
    source = np.array([0.3, 0.4])
    balls = localization_sets(positions, source, epsilon=0.01)
    assert balls[0].radius == pytest.approx(0.51, abs=1e-15)   # distance 0.5 + 0.01
    assert balls[1].radius == pytest.approx(0.41, abs=1e-15)
    assert np.array_equal(balls[0].center, positions[0])


def test_instance_source_contained_exactly():
    loc = make_localization_instance(30, 2, 0.35, 0.01, seed=3)
    for ball in loc.sets:
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


def test_validation_study_small():
    result = validation_study(n=12, q=2, rho=0.45, epsilon=0.01, trials=3,
                              threshold=1e-6, max_iters=20000, base_seed=5)
    assert len(result.dgtc) == len(result.dgpc) == len(result.pocs) == 3
    for tr in result.dgtc + result.dgpc:
        assert tr.converged
        assert tr.final_metric <= 1e-6
    for pr in result.pocs:
        assert len(pr.displacements) == 40
        assert pr.max_set_distance <= 1e-6
    med = result.median_iterations()
    assert med["dgtc"] >= 1 and med["dgpc"] >= 1


def test_validation_pocs_distance_matches_scalar_sets():
    # the study reports the largest set distance as the pocs command does,
    # bit for bit the scalar ConvexSet.distance_to
    result = validation_study(n=12, q=2, rho=0.45, epsilon=0.01, trials=3,
                              threshold=1e-3, base_seed=5, pocs_cycles=2)
    for seed, pr in zip(result.seeds, result.pocs):
        inst = make_localization_instance(12, 2, 0.45, 0.01, seed).game_instance
        x, _ = pocs_run(inst, np.zeros(2), 2)
        assert pr.max_set_distance == max(s.distance_to(x) for s in inst.sets)
    assert max(pr.max_set_distance for pr in result.pocs) > 0.0


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
    with pytest.raises(GenerationError):
        rate_sweep(n=40, q=2, rho_min=0.01, rho_max=0.02, realizations=2,
                   base_seed=0, max_attempts=5)


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
