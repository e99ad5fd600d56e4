import math

import numpy as np
import pytest

from conftest import rand_connected_graph
from constrained_consensus.game import GameInstance
from constrained_consensus.graphs import (
    GeometricLayout,
    Graph,
    fiedler_value,
    graph_from_positions,
    is_connected,
    jacobi_eigenvalues,
    laplacian,
)
from constrained_consensus.sets import Ball

K2 = Graph.from_edges(2, [(0, 1)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def path_spectrum(n: int) -> np.ndarray:
    # analytic Laplacian spectrum of the n-node path: 4 sin^2(pi k / (2n))
    return np.array(sorted(4 * math.sin(math.pi * k / (2 * n)) ** 2 for k in range(n)))


def charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Brute-force oracle: Faddeev-LeVerrier coefficients, then roots."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return np.sort(np.roots(coeffs).real)


def test_laplacian_examples():
    assert np.array_equal(laplacian(K2), [[1, -1], [-1, 1]])
    assert np.array_equal(laplacian(PATH3), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    empty = Graph(3, ((), (), ()))
    assert np.array_equal(laplacian(empty), np.zeros((3, 3)))


def test_laplacian_row_sums_exactly_zero(rng):
    for _ in range(20):
        g = rand_connected_graph(rng, int(rng.integers(2, 15)))
        assert np.all(laplacian(g).sum(axis=1) == 0.0)


def test_fiedler_k2():
    assert fiedler_value(K2) == pytest.approx(2.0, abs=1e-9)


def test_fiedler_path3_matches_analytic_spectrum():
    # second-smallest of {0, 1, 3}; frozen from the analytic path spectrum
    expected = path_spectrum(3)[1]
    assert expected == pytest.approx(1.0, abs=1e-15)
    assert fiedler_value(PATH3) == pytest.approx(1.0, abs=1e-8)


def test_fiedler_disconnected_is_zero():
    two_pairs = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert fiedler_value(two_pairs) == pytest.approx(0.0, abs=1e-12)
    assert fiedler_value(Graph(3, ((), (), ()))) == 0.0
    assert fiedler_value(two_pairs) >= 0.0


def test_jacobi_matches_charpoly_oracle(rng):
    for _ in range(80):
        n = int(rng.integers(2, 5))
        b = rng.uniform(-3, 3, (n, n))
        a = (b + b.T) / 2
        assert jacobi_eigenvalues(a) == pytest.approx(charpoly_eigenvalues(a), abs=1e-8)


def exact_laplacian_eigenvalues(lap: np.ndarray) -> np.ndarray:
    """Exact oracle for integer matrices: characteristic polynomial over the
    integers, roots in radicals (repeated eigenvalues stay exact, which
    float root finders cannot deliver)."""
    import sympy

    poly = sympy.Matrix(lap.astype(int)).charpoly()
    vals = []
    for root, mult in sympy.roots(poly).items():
        vals.extend([float(sympy.re(root.evalf(30)))] * mult)
    return np.sort(np.array(vals))


def test_jacobi_matches_charpoly_on_small_laplacians(rng):
    for _ in range(40):
        n = int(rng.integers(2, 5))
        edges = [(i, k) for i in range(n) for k in range(i + 1, n) if rng.random() < 0.6]
        lap = laplacian(Graph.from_edges(n, edges))
        assert jacobi_eigenvalues(lap) == pytest.approx(exact_laplacian_eigenvalues(lap), abs=1e-8)


def test_jacobi_on_path_laplacians(rng):
    for n in range(2, 9):
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        assert jacobi_eigenvalues(laplacian(g)) == pytest.approx(path_spectrum(n), abs=1e-9)


def test_jacobi_input_validation():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert jacobi_eigenvalues(np.array([[7.0]])) == pytest.approx([7.0])


def reference_jacobi(matrix: np.ndarray) -> np.ndarray:
    # the plain cyclic Jacobi loop: a column pass, then a row pass per rotation
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    tol = 1e-12
    for _ in range(100):
        if float(np.linalg.norm(a - np.diag(a.diagonal()))) <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol / n:
                    continue
                phi = 0.5 * math.atan2(2.0 * apq, a[q, q] - a[p, p])
                c, s = math.cos(phi), math.sin(phi)
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
    return np.sort(a.diagonal())


def test_jacobi_matches_reference_loop_bit_for_bit(rng):
    # the rotation writes rows and columns in one pass; the eigenvalues
    # must equal the two-pass loop's exactly, not approximately
    matrices = []
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        # dense real entries, and small integers with repeated values
        for b in (rng.normal(size=(n, n)), rng.integers(-3, 4, (n, n)).astype(float)):
            matrices.append(b + b.T)
    for n in (2, 4, 9, 17, 30):
        matrices.append(laplacian(rand_connected_graph(rng, n)))
        matrices.append(laplacian(graph_from_positions(rng.random((n, 2)), 0.4)))
    for m in matrices:
        assert np.array_equal(jacobi_eigenvalues(m), reference_jacobi(m))


def test_is_connected_examples():
    assert is_connected(PATH3)
    assert not is_connected(Graph(2, ((), ())))
    k5 = Graph.from_edges(5, [(i, k) for i in range(5) for k in range(i + 1, 5)])
    assert is_connected(k5)


def test_fiedler_positive_iff_connected(rng):
    # randomized graphs with n <= 20, mixed densities
    for _ in range(40):
        n = int(rng.integers(2, 21))
        p = rng.uniform(0.05, 0.6)
        edges = [(i, k) for i in range(n) for k in range(i + 1, n) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        assert (fiedler_value(g) > 1e-9) == is_connected(g)


def test_rgg_edge_rule():
    near = np.array([[0.1, 0.1], [0.1, 0.3]])       # distance 0.2
    g = graph_from_positions(near, 0.3)
    assert g.neighbors == ((1,), (0,))
    far = np.array([[0.1, 0.1], [0.1, 0.5]])        # distance 0.4
    assert graph_from_positions(far, 0.3).edge_count == 0
    boundary = np.array([[0.25, 0.25], [0.25, 0.5]])   # distance exactly 0.25
    assert graph_from_positions(boundary, 0.25).edge_count == 1


def one_shot_neighbors(pos: np.ndarray, rho: float) -> tuple[tuple[int, ...], ...]:
    # the full N x N x q difference tensor in one expression, as the block build's reference
    adj = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2) <= rho
    np.fill_diagonal(adj, False)
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in adj)


def test_block_build_matches_one_shot_formula(rng):
    # n straddles the 128-row block; on a grid of spacing 0.25 many pairs sit
    # at distance exactly rho = 0.25, nodes 0 and 1 among them
    for q in (1, 2, 3, 4):
        for n in (2, 127, 128, 129, 300):
            pos = rng.random((n, q))
            for rho in (0.1, 0.3, math.inf):
                assert graph_from_positions(pos, rho).neighbors == one_shot_neighbors(pos, rho)
            grid = rng.integers(0, 5, (n, q)) / 4.0
            grid[:2] = 0.0
            grid[1, 0] = 0.25
            g = graph_from_positions(grid, 0.25)
            assert g.neighbors == one_shot_neighbors(grid, 0.25)
            assert 1 in g.neighbors[0]


def test_layout_validation():
    # an infinite range is the complete graph, as graph_from_positions(rho=inf) builds it
    layout = GeometricLayout(np.array([[0.0, 1.0], [0.5, 0.5]]), math.inf)
    assert layout.range == math.inf
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert graph_from_positions(corners, math.inf).edge_count == 6
    for pos in ([[math.nan, 0.5]], [[0.5, math.nan], [0.2, 0.2]], [[-0.1, 0.5]],
                [[0.5, 1.5]], [[math.inf, 0.5]], [0.5, 0.5]):
        with pytest.raises(ValueError):
            GeometricLayout(np.array(pos), 0.3)
    for r in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="range must be positive"):
            GeometricLayout(np.array([[0.5, 0.5]]), r)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, ((1,), ()))           # asymmetric
    with pytest.raises(ValueError):
        Graph(2, ((3,), (0,)))         # id out of range
    with pytest.raises(ValueError):
        Graph(2, ((1, 1), (0, 0)))     # unsorted duplicates


def test_graph_degree_helpers():
    assert PATH3.degree(1) == 2
    assert np.array_equal(PATH3.degrees(), [1, 2, 1])
    assert list(PATH3.edges()) == [(0, 1), (1, 2)]
    assert PATH3.edge_count == 2


def test_csr_agrees_with_neighbor_lists(rng):
    graphs = [Graph(3, ((), (), ())), Graph.from_edges(4, [(0, 2), (1, 2)]), K2, PATH3]
    for _ in range(20):
        n = int(rng.integers(1, 12))
        p = rng.uniform(0.0, 0.6)
        graphs.append(Graph.from_edges(
            n, [(i, k) for i in range(n) for k in range(i + 1, n) if rng.random() < p]))
    assert any(0 in g.degrees() for g in graphs[4:])
    for g in graphs:
        indptr, indices, rows = g.csr
        assert all(not a.flags.writeable for a in g.csr)
        with pytest.raises(ValueError):
            indptr[0] = 1
        assert indptr[0] == 0 and indptr[-1] == indices.size == rows.size
        for i, nbrs in enumerate(g.neighbors):
            assert indices[indptr[i]:indptr[i + 1]].tolist() == list(nbrs)
            assert rows[indptr[i]:indptr[i + 1]].tolist() == [i] * len(nbrs)

        # per-edge loop reference
        ref_edges = [(i, k) for i, nbrs in enumerate(g.neighbors) for k in nbrs if i < k]
        ref_adj = np.zeros((g.n, g.n))
        for i, k in ref_edges:
            ref_adj[i, k] = ref_adj[k, i] = 1.0
        assert list(g.edges()) == ref_edges
        assert g.edge_count == len(ref_edges)
        assert g.degrees().tolist() == [len(nbrs) for nbrs in g.neighbors]
        assert np.array_equal(laplacian(g), np.diag(ref_adj.sum(axis=1)) - ref_adj)

        q = int(rng.integers(1, 4))
        inst = GameInstance(g, tuple(Ball(np.zeros(q), 1.0) for _ in range(g.n)), q)
        assert np.array_equal(inst.adjacency, ref_adj)
        assert list(zip(*(ends.tolist() for ends in inst.edge_pairs))) == ref_edges
