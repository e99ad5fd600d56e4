"""Shared randomized-instance builders for the test suite.

Tests draw small instances from seeded generators; every expected value is
either a hand-computed constant or produced by an independent oracle inside
the test module that uses it.
"""

from __future__ import annotations

import numpy as np
import pytest

from constrained_consensus.game import GameInstance
from constrained_consensus.selfcheck import random_connected_graph as rand_connected_graph
from constrained_consensus.sets import Ball, Box, Halfspace


def ball_arrays(balls) -> tuple[np.ndarray, np.ndarray]:
    """The (n, q) centers and (n,) radii of a ball sequence: one
    ``BallStack`` member."""
    return np.array([b.center for b in balls]), np.array([b.radius for b in balls])


def rand_set(rng: np.random.Generator, q: int, around: np.ndarray):
    """Random ball/half-space/box guaranteed to contain ``around``."""
    kind = rng.integers(3)
    if kind == 0:
        center = around + rng.uniform(-1, 1, q)
        return Ball(center, float(np.linalg.norm(around - center)) + rng.uniform(0.1, 1.0))
    if kind == 1:
        normal = rng.normal(size=q)
        while np.linalg.norm(normal) < 1e-6:
            normal = rng.normal(size=q)
        return Halfspace(normal, float(normal @ around) + rng.uniform(0.1, 1.0))
    return Box(around - rng.uniform(0.1, 1.0, q), around + rng.uniform(0.1, 1.0, q))


def sample_point(s, rng: np.random.Generator) -> np.ndarray:
    """Random member of the set: bounding-box rejection, projection fallback."""
    box = s.bounding_box()
    if box is not None:
        lower, upper = box
        for _ in range(100):
            x = rng.uniform(lower, upper)
            if s.contains(x, tol=0.0):
                return x
    return s.project(rng.normal(scale=1.5, size=s.dim))


def rand_feasible_instance(rng: np.random.Generator, n_max: int = 10, q_max: int = 4):
    """Connected instance whose sets all contain a common random point."""
    n = int(rng.integers(4, n_max + 1))
    q = int(rng.integers(1, q_max + 1))
    common = rng.uniform(-1, 1, q)
    g = rand_connected_graph(rng, n)
    cs = tuple(rand_set(rng, q, common) for _ in range(n))
    return GameInstance(g, cs, q), common


def rand_feasible_profile(inst: GameInstance, rng: np.random.Generator) -> np.ndarray:
    return np.array([sample_point(s, rng) for s in inst.sets])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
