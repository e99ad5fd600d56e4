import pytest

from constrained_consensus import game
from constrained_consensus.engine import StepSizeWarning
from constrained_consensus.graphs import is_connected
from constrained_consensus.selfcheck import (
    SUITES,
    random_feasible_instance,
    run_checks,
    sample_in,
)
from constrained_consensus.sets import Ball, Box, Halfspace


def test_all_checks_pass_at_default_seed():
    results = run_checks(seed=0)
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert {r.suite for r in results} == set(SUITES)


def test_suite_filter_and_unknown_suite():
    results = run_checks(suites=["graph"], seed=1)
    assert {r.suite for r in results} == {"graph"}
    with pytest.raises(ValueError) as err:
        run_checks(suites=["nope"])
    assert str(err.value) == "unknown suite 'nope'; available: engine, graph, potential, sets"


def test_corrupted_step_breaks_descent_check(monkeypatch):
    step = game.default_step_size
    monkeypatch.setattr(game, "default_step_size", lambda inst: 10.0 * step(inst))
    with pytest.warns(StepSizeWarning):
        results = run_checks(suites=["engine"], seed=0)
    by_name = {r.name: r for r in results}
    assert not by_name["dgpc_cost_descent"].passed


def test_sample_in_returns_members(rng):
    for s in (Ball((1.0, 2.0), 0.7), Box((0.0, 0.0), (1.0, 2.0)), Halfspace((1.0, 1.0), 0.5)):
        for _ in range(20):
            assert s.contains(sample_in(s, rng), tol=1e-9)


def test_random_feasible_instance_has_common_point(rng):
    for _ in range(20):
        inst, common = random_feasible_instance(rng)
        assert is_connected(inst.graph)
        assert all(s.contains(common, tol=1e-9) for s in inst.sets)
        assert len(inst.sets) == inst.n


def test_checks_are_deterministic_per_seed():
    a = run_checks(suites=["sets"], seed=5)
    b = run_checks(suites=["sets"], seed=5)
    assert [(r.name, r.passed, r.detail) for r in a] == [(r.name, r.passed, r.detail) for r in b]
