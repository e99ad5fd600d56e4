import math
import re

import numpy as np
import pytest

from conftest import rand_connected_graph
from constrained_consensus import graphs
from constrained_consensus.game import GameInstance
from constrained_consensus.graphs import (
    GeometricLayout,
    Graph,
    fiedler_value,
    fiedler_values,
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


def test_jacobi_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        single = np.array([[1.0, bad], [bad, 2.0]])
        with pytest.raises(ValueError, match="must be finite"):
            jacobi_eigenvalues(single)
        with pytest.raises(ValueError, match="must be finite"):
            jacobi_eigenvalues(np.stack([np.eye(2), single]))
    # a NaN is reported as non-finite, not as asymmetric
    with pytest.raises(ValueError, match="must be finite"):
        jacobi_eigenvalues(np.array([[np.nan, 1.0], [2.0, 0.0]]))


def test_jacobi_is_scale_invariant(rng):
    # the stop is relative to the matrix's norm below 1: at 1e-14 an
    # absolute stop returned the diagonal (an error of about 1), and past
    # the magnitude domain the rotations overflowed
    b = rng.normal(size=(8, 8))
    a = b + b.T
    want = np.linalg.eigvalsh(a)
    for scale in (1e-14, 1e-10, 1.0, 1e100, 1e140):
        got = jacobi_eigenvalues(a * scale) / scale
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), scale
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        jacobi_eigenvalues(a * 1e160)


def test_jacobi_empty_matrices():
    assert jacobi_eigenvalues(np.zeros((0, 0))).shape == (0,)
    assert jacobi_eigenvalues(np.zeros((3, 0, 0))).shape == (3, 0)
    assert jacobi_eigenvalues(np.zeros((0, 4, 4))).shape == (0, 4)


def test_jacobi_rejects_shapes_other_than_square_or_stack():
    for shape in ((3,), (2, 3), (2, 3, 4), (2, 2, 2, 2)):
        with pytest.raises(ValueError, match="expected an"):
            jacobi_eigenvalues(np.zeros(shape))
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigenvalues(np.stack([np.eye(2), [[1.0, 2.0], [3.0, 4.0]]]))


def test_jacobi_stack_members_match_single_solves(rng):
    # dense real entries, small integers with ties, and Laplacians, one stack per n
    for n in (1, 2, 3, 8, 21):
        stack = []
        for _ in range(4):
            b = rng.normal(size=(n, n))
            stack.append(b + b.T)
            b = rng.integers(-3, 4, (n, n)).astype(float)
            stack.append(b + b.T)
            stack.append(laplacian(graph_from_positions(rng.random((n, 2)), 0.4)))
        stack = np.array(stack)
        eig = jacobi_eigenvalues(stack)
        assert eig.shape == (len(stack), n)
        for member, values in zip(stack, eig):
            assert np.array_equal(values, jacobi_eigenvalues(member))


def sweeps_to_converge(g: Graph) -> int:
    sweeps = [0]
    sweep = graphs._sweep

    def counted(a, rotate_above):
        sweeps[0] += 1
        sweep(a, rotate_above)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_sweep", counted)
        fiedler_value(g)
    return sweeps[0]


def test_fiedler_values_match_fiedler_value(rng):
    def complete(n):
        return Graph.from_edges(n, [(i, k) for i in range(n) for k in range(i + 1, n)])

    batches = [
        [Graph(1, ((),)), Graph(1, ((),))],
        [K2, Graph(2, ((), ())), K2],
        [Graph(6, ((),) * 6), Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]), complete(6)],
        [complete(9), rand_connected_graph(rng, 9), complete(9)],
    ]
    # random geometric graphs from sparse to dense, which stop after
    # different numbers of sweeps, in one batch
    rgg = [graph_from_positions(rng.random((24, 2)), rho) for rho in (0.2, 0.3, 0.45, 0.7, 1.5)]
    assert len({sweeps_to_converge(g) for g in rgg}) > 1
    batches.append(rgg)
    for batch in batches:
        assert fiedler_values(batch) == [fiedler_value(g) for g in batch]
    assert fiedler_values([]) == []


def test_fiedler_values_in_chunks(rng, monkeypatch):
    gs = [graph_from_positions(rng.random((10, 2)), 0.5) for _ in range(8)]
    want = [fiedler_value(g) for g in gs]
    sizes = []
    stack = graphs._jacobi_stack

    def recorded(a):
        sizes.append(len(a))
        return stack(a)
    monkeypatch.setattr(graphs, "_jacobi_stack", recorded)
    monkeypatch.setattr(graphs, "_FIEDLER_ELEMENTS", 300)  # 3 Laplacians of 10 x 10
    assert fiedler_values(iter(gs)) == want
    assert sizes == [3, 3, 2]


def test_fiedler_values_need_equal_n():
    with pytest.raises(ValueError, match="equal n"):
        fiedler_values([K2, PATH3])


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


def test_block_build_matches_one_shot_formula(rng, monkeypatch):
    # on a grid of spacing 0.25 many pairs sit at distance exactly rho = 0.25,
    # nodes 0 and 1 among them.  A range equal to one of the reference's
    # distances, or one ulp below it, keeps or drops that edge only if the
    # distance has the reference's bits: from q = 8 on numpy sums a row's
    # squares pairwise, not in order
    for q in (1, 2, 3, 4, 7, 8, 9, 16):
        for n in (2, 127, 128, 129, 300):
            pos = rng.random((n, q))
            grid = rng.integers(0, 5, (n, q)) / 4.0
            grid[:2] = 0.0
            grid[1, 0] = 0.25
            dist = np.linalg.norm(pos[0] - pos[1:4], axis=1)
            ranges = (0.1, 0.3, math.inf, *dist, *np.nextafter(dist, 0.0))
            # the default blocks, and blocks of 7 rows with a partial last one
            for elements in (graphs._ADJ_ELEMENTS, 7 * n * q):
                monkeypatch.setattr(graphs, "_ADJ_ELEMENTS", elements)
                for rho in ranges:
                    assert graph_from_positions(pos, rho).neighbors == one_shot_neighbors(pos, rho)
                g = graph_from_positions(grid, 0.25)
                assert g.neighbors == one_shot_neighbors(grid, 0.25)
                assert 1 in g.neighbors[0]
            monkeypatch.undo()


def test_layout_validation():
    # the unit box's faces are inside it
    layout = GeometricLayout(np.array([[0.0, 1.0], [0.5, 0.5]]))
    assert not layout.positions.flags.writeable
    # an infinite range is the complete graph
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert graph_from_positions(corners, math.inf).edge_count == 6
    for pos in ([[math.nan, 0.5]], [[0.5, math.nan], [0.2, 0.2]], [[-0.1, 0.5]],
                [[0.5, 1.5]], [[math.inf, 0.5]], [0.5, 0.5]):
        with pytest.raises(ValueError):
            GeometricLayout(np.array(pos))


def test_graph_validation():
    with pytest.raises(ValueError, match=r"self-loop at node 0"):
        Graph.from_edges(3, [(0, 0)])
    # each endpoint is checked before it indexes a list: 5 raised IndexError,
    # 1.5 TypeError, and -1 wrapped round to node 1
    for edge, fault in (((0, 5), "out of range \\[0, 2\\)"), ((-1, 0), "out of range \\[0, 2\\)"),
                        ((0, 1.5), "that is not an integer node id")):
        with pytest.raises(ValueError, match=rf"^edge \({edge[0]}, {edge[1]}\) has an endpoint {fault}$"):
            Graph.from_edges(2, [edge])
    assert Graph.from_edges(2, [(np.int64(1), False)]).neighbors == ((1,), (0,))
    with pytest.raises(ValueError, match=r"self-loop at node 1"):
        Graph(2, ((), (1,)))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is not symmetric"):
        Graph(2, ((1,), ()))
    with pytest.raises(ValueError, match=r"node id 3 out of range \[0, 2\)"):
        Graph(2, ((3,), (0,)))
    with pytest.raises(ValueError, match=r"node id -1 out of range \[0, 2\)"):
        Graph(2, ((-1,), (0,)))
    with pytest.raises(ValueError, match=r"node id \d+ out of range"):
        Graph(2, ((2 ** 70,), (0,)))
    with pytest.raises(ValueError, match=r"list of node 0 is not sorted and duplicate-free"):
        Graph(2, ((1, 1), (0, 0)))
    with pytest.raises(ValueError, match=r"list of node 1 is not sorted and duplicate-free"):
        Graph(3, ((1, 2), (2, 0), (0, 1)))
    with pytest.raises(ValueError, match=r"need one neighbor list per node, got 1 for n=2"):
        Graph(2, ((),))
    with pytest.raises(ValueError, match=r"need one neighbor list per node, got 0 for n=0"):
        Graph(0, ())


def test_graph_reports_its_first_fault_in_loop_order():
    # node 0's asymmetric edge comes before node 2's out-of-range id, and
    # a list's ids are checked before its order
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is not symmetric"):
        Graph(3, ((1,), (), (7,)))
    with pytest.raises(ValueError, match=r"node id 5 out of range"):
        Graph(3, ((5, 1), (0,), ()))
    # an id that is not an integer is named before every other fault
    with pytest.raises(ValueError, match=r"node 2 holds 0.5, which is not an integer"):
        Graph(3, ((9,), (), (0.5,)))


def reference_fault(n: int, nbrs) -> str | None:
    # the per-entry loop over the lists, as the reference for the array checks
    seen = {i: set(ids) for i, ids in enumerate(nbrs)}
    for i, ids in enumerate(nbrs):
        for k in ids:
            if not 0 <= k < n:
                return f"node id {k} out of range [0, {n})"
            if k == i:
                return f"self-loop at node {i}"
            if i not in seen[k]:
                return f"edge ({i}, {k}) is not symmetric"
        if any(a >= b for a, b in zip(ids, ids[1:])):
            return f"neighbor list of node {i} is not sorted and duplicate-free"
    return None


def test_graph_checks_match_reference_loop(rng):
    # valid lists, then one or two random faults: a dropped, added, doubled
    # or swapped id
    faults = 0
    for _ in range(400):
        n = int(rng.integers(1, 9))
        lists = [list(ids) for ids in rand_connected_graph(rng, n).neighbors] if n > 1 else [[]]
        for _ in range(int(rng.integers(0, 3))):
            ids = lists[int(rng.integers(n))]
            kind = int(rng.integers(4))
            if kind == 0 and ids:
                ids.pop(int(rng.integers(len(ids))))
            elif kind == 1:
                ids.insert(int(rng.integers(len(ids) + 1)), int(rng.integers(-2, n + 2)))
            elif kind == 2 and ids:
                ids.append(ids[-1])
            elif kind == 3 and len(ids) > 1:
                ids[0], ids[-1] = ids[-1], ids[0]
        want = reference_fault(n, lists)
        if want is None:
            assert Graph(n, lists).neighbors == tuple(map(tuple, lists))
        else:
            faults += 1
            with pytest.raises(ValueError) as err:
                Graph(n, lists)
            assert str(err.value) == want
    assert faults > 100


def test_graph_ids_and_n_must_be_integers():
    for ids in ((1.5,), (1.0,), (np.float64(1.0),), ("1",), (None,), ([1],)):
        with pytest.raises(ValueError, match=rf"node 0 holds {re.escape(repr(ids[0]))}, "
                                             r"which is not an integer node id"):
            Graph(2, (ids, (0,)))
    for n in (2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match=rf"node count must be an integer, got {re.escape(repr(n))}"):
            Graph(n, ((1,), (0,)))
    # anything operator.index takes is an id, stored as a tuple of ints
    for g in (Graph(2, [[1], [0]]), Graph(np.int64(2), ((np.int64(1),), (np.int32(0),))),
              Graph(2, ((True,), (False,))), Graph(2, (np.array([1]), range(0, 1)))):
        assert g.n == 2 and type(g.n) is int
        assert g.neighbors == ((1,), (0,))
        assert all(type(ids) is tuple and all(type(k) is int for k in ids) for ids in g.neighbors)


def test_from_edges_checks_the_node_count_before_the_edges():
    # a float or a string escaped as a TypeError from range(n), and -1
    # blamed the edge
    for n, fault in ((2.5, "must be an integer, got 2.5"), ("3", "must be an integer, got '3'"),
                     (-1, "must be positive, got -1"), (0, "must be positive, got 0")):
        with pytest.raises(ValueError, match=rf"^node count {re.escape(fault)}$"):
            Graph.from_edges(n, [(0, 1)])


def test_graph_from_positions_needs_an_n_by_q_array():
    for pos in (np.zeros(3), np.zeros((0, 2)), np.zeros((3, 0)), np.zeros((2, 2, 2)), 0.5):
        with pytest.raises(ValueError, match=r"positions must be an \(n, q\) array with n, q >= 1"):
            graph_from_positions(pos, 0.3)
    assert graph_from_positions(np.zeros((1, 2)), 0.3).neighbors == ((),)


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


def test_csr_entry_matches_the_neighbor_lists(rng):
    # random geometric graphs, the production path, against the same lists
    # through the tuple constructor: equal n, lists, CSR arrays and dtypes
    for n, q, rho in ((1, 2, 0.3), (2, 1, 0.5), (30, 2, 0.25), (60, 3, 0.4), (200, 2, 0.1)):
        g = graph_from_positions(rng.random((n, q)), rho)
        h = Graph(n, g.neighbors)
        assert (g.n, g.neighbors) == (h.n, h.neighbors)
        assert all(type(ids) is tuple and all(type(k) is int for k in ids) for ids in g.neighbors)
        for a, b in zip(g.csr, h.csr):
            assert a.dtype == b.dtype == np.intp and a.tolist() == b.tolist()
            assert not a.flags.writeable
        indptr, indices, _ = h.csr
        # the entry copies what it is given, in any integer dtype
        mine = indices.astype(np.int32)
        f = Graph.from_csr(np.int64(n), indptr.tolist(), mine)
        assert f.neighbors == h.neighbors and mine.flags.writeable


def test_corrupt_csr_raises_the_neighbor_list_messages(rng):
    # the faults of test_graph_checks_match_reference_loop, as CSR arrays
    faults = 0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        lists = [list(ids) for ids in rand_connected_graph(rng, n).neighbors] if n > 1 else [[]]
        for _ in range(int(rng.integers(1, 3))):
            ids = lists[int(rng.integers(n))]
            kind = int(rng.integers(3))
            if kind == 0 and ids:
                ids.pop(int(rng.integers(len(ids))))
            elif kind == 1:
                ids.insert(int(rng.integers(len(ids) + 1)), int(rng.integers(-2, n + 2)))
            elif kind == 2 and len(ids) > 1:
                ids[0], ids[-1] = ids[-1], ids[0]
        indptr = np.cumsum([0] + [len(ids) for ids in lists])
        indices = np.array([k for ids in lists for k in ids], dtype=np.intp)
        want = reference_fault(n, lists)
        if want is None:
            assert Graph.from_csr(n, indptr, indices).neighbors == tuple(map(tuple, lists))
            continue
        faults += 1
        for make in (lambda: Graph(n, lists), lambda: Graph.from_csr(n, indptr, indices)):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == want
    assert faults > 100
    # ids that are not integers, and node counts, get the tuple path's messages
    with pytest.raises(ValueError, match=r"^neighbor list of node 0 holds 1.0, which is not an"):
        Graph.from_csr(2, [0, 1, 2], np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=r"^node id \d+ out of range \[0, 2\)$"):
        Graph.from_csr(2, [0, 1, 2], np.array([2 ** 64 - 1, 0], dtype=np.uint64))
    for n, fault in ((2.5, "must be an integer, got 2.5"), (0, "must be positive, got 0")):
        with pytest.raises(ValueError, match=rf"^node count {re.escape(fault)}$"):
            Graph.from_csr(n, [0], [])
    for indptr in ([0, 1], [0, 1, 1, 2], [1, 1, 2], [0, 2, 1], [0, 1, 3], [0.0, 1.0, 2.0],
                   [[0, 1, 2]]):
        with pytest.raises(ValueError, match=r"^indptr must be n \+ 1 = 3 nondecreasing integers"):
            Graph.from_csr(2, indptr, [1, 0])
