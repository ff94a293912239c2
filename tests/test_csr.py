"""Unit tests for CSR graph storage."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import CSRGraph


class TestConstruction:
    def test_from_edges_symmetrizes(self):
        g = CSRGraph.from_edges(3, [0], [1])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.num_edges == 2

    def test_from_edges_deduplicates(self):
        g = CSRGraph.from_edges(3, [0, 0, 1], [1, 1, 0])
        assert g.num_edges == 2

    def test_from_edges_no_symmetrize(self):
        g = CSRGraph.from_edges(3, [0], [1], symmetrize=False)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_empty(self):
        g = CSRGraph.empty(4)
        assert g.num_nodes == 4
        assert g.num_edges == 0

    def test_zero_nodes(self):
        g = CSRGraph.empty(0)
        assert g.num_nodes == 0
        assert g.avg_degree == 0.0

    def test_rejects_bad_indptr_start(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))

    def test_rejects_indptr_indices_mismatch(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 2]), indices=np.array([0]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 2, 1]), indices=np.array([0, 1]))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5]))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [0], [5])

    def test_from_scipy_roundtrip(self, fig2):
        again = CSRGraph.from_scipy(fig2.to_scipy())
        assert np.array_equal(again.indptr, fig2.indptr)
        assert np.array_equal(again.indices, fig2.indices)

    def test_from_scipy_canonicalises_a_copy(self):
        from scipy.sparse import csr_matrix

        # Row 0 is unsorted and repeats node 2.
        indices = np.array([2, 1, 2, 0, 0], dtype=np.int32)
        mat = csr_matrix(
            (np.ones(5), indices, np.array([0, 3, 4, 5])), shape=(3, 3)
        )
        given = mat.indices.copy()
        g = CSRGraph.from_scipy(mat)
        assert g.indptr.tolist() == [0, 2, 3, 4]
        assert g.indices.tolist() == [1, 2, 0, 0]
        assert g.is_symmetric()
        assert g.without_self_loops() is g
        assert np.array_equal(mat.indices, given)

    def test_indices_sorted_within_rows(self, fig2):
        for u in range(fig2.num_nodes):
            row = fig2.neighbors(u)
            assert np.all(np.diff(row) > 0)


class TestProperties:
    def test_fig2_shape(self, fig2):
        assert fig2.num_nodes == 6
        assert fig2.num_edges == 16  # 8 undirected edges

    def test_degrees(self, fig2):
        assert fig2.degrees.sum() == fig2.num_edges
        assert fig2.degree(1) == len(fig2.neighbors(1))

    def test_max_avg_degree(self, star):
        assert star.max_degree == 5
        assert star.avg_degree == pytest.approx(10 / 6)

    def test_density(self, triangle):
        assert triangle.density == pytest.approx(6 / 9)

    def test_neighbors_bounds_checked(self, fig2):
        with pytest.raises(GraphError):
            fig2.neighbors(100)
        with pytest.raises(GraphError):
            fig2.degree(-1)

    def test_has_edge(self, fig2):
        assert fig2.has_edge(0, 1)
        assert not fig2.has_edge(0, 3)

    def test_iter_edges_count(self, fig2):
        assert sum(1 for _ in fig2.iter_edges()) == fig2.num_edges

    def test_is_symmetric(self, fig2):
        assert fig2.is_symmetric()

    def test_asymmetric_detected(self):
        g = CSRGraph.from_edges(3, [0], [1], symmetrize=False)
        assert not g.is_symmetric()


class TestSelfLoops:
    def test_with_self_loops(self, triangle):
        g = triangle.with_self_loops()
        assert g.has_self_loops()
        assert g.num_edges == triangle.num_edges + 3

    def test_with_self_loops_idempotent(self, triangle):
        g = triangle.with_self_loops()
        assert g.with_self_loops().num_edges == g.num_edges

    def test_without_self_loops(self, triangle):
        g = triangle.with_self_loops().without_self_loops()
        assert not g.has_self_loops()
        assert g.num_edges == triangle.num_edges

    def test_without_self_loops_returns_clean_graph_itself(self, fig2):
        assert fig2.without_self_loops() is fig2

    def test_without_self_loops_rejects_unsorted_row(self):
        g = CSRGraph(indptr=np.array([0, 2, 3, 4]), indices=np.array([2, 1, 0, 0]))
        with pytest.raises(GraphError, match="unsorted row or a duplicate"):
            g.without_self_loops()

    def test_without_self_loops_rejects_duplicate_entry(self):
        g = CSRGraph(indptr=np.array([0, 2, 3]), indices=np.array([1, 1, 0]))
        with pytest.raises(GraphError, match="unsorted row or a duplicate"):
            g.without_self_loops()

    def test_plain_graph_has_no_self_loops(self, fig2):
        assert not fig2.has_self_loops()

    def test_verdict_is_stored_per_graph(self, triangle):
        looped = triangle.with_self_loops()
        clean = looped.without_self_loops()
        # Each graph object keeps its own verdict: the looped input
        # still reports its diagonal, the stripped result and a
        # loop-free input are marked loop-free and returned as is.
        assert looped.__dict__["_loop_free"] is False
        assert clean.__dict__["_loop_free"] is True
        assert looped.has_self_loops()
        assert not clean.has_self_loops()
        assert clean.without_self_loops() is clean
        assert looped.without_self_loops().indices.tobytes() == clean.indices.tobytes()
        assert triangle.without_self_loops() is triangle
        assert triangle.__dict__["_loop_free"] is True
        assert not triangle.has_self_loops()


class TestPermute:
    def test_permute_preserves_structure(self, fig2):
        perm = np.array([5, 4, 3, 2, 1, 0])
        g = fig2.permute(perm)
        assert g.num_edges == fig2.num_edges
        for u, v in fig2.iter_edges():
            assert g.has_edge(int(perm[u]), int(perm[v]))

    def test_identity_permutation(self, fig2):
        g = fig2.permute(np.arange(6))
        assert np.array_equal(g.indices, fig2.indices)

    def test_rejects_non_permutation(self, fig2):
        with pytest.raises(GraphError):
            fig2.permute(np.zeros(6, dtype=int))

    def test_rejects_wrong_length(self, fig2):
        with pytest.raises(GraphError):
            fig2.permute(np.arange(3))


class TestSubgraph:
    def test_subgraph_of_triangle(self, triangle):
        sub = triangle.subgraph(np.array([0, 1]))
        assert sub.num_nodes == 2
        assert sub.num_edges == 2

    def test_subgraph_drops_external_edges(self, star):
        sub = star.subgraph(np.array([1, 2]))
        assert sub.num_edges == 0

    @staticmethod
    def _per_edge_reference(graph, nodes):
        """Induced CSR on the sorted distinct ``nodes``, one edge at a time."""
        keep = sorted(set(nodes.tolist()))
        local = {u: i for i, u in enumerate(keep)}
        indptr = [0]
        indices = []
        for u in keep:
            for v in graph.neighbors(u).tolist():
                if v in local:
                    indices.append(local[v])
            indptr.append(len(indices))
        return indptr, indices

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_edge_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        k = int(rng.integers(0, 3 * n))
        graph = CSRGraph.from_edges(
            n, rng.integers(0, n, k), rng.integers(0, n, k), name="rnd"
        )
        # Unsorted, with repeats, sometimes empty or covering everything.
        nodes = rng.integers(0, n, int(rng.integers(0, 2 * n)))
        sub = graph.subgraph(nodes)
        indptr, indices = self._per_edge_reference(graph, nodes)
        assert sub.indptr.tolist() == indptr
        assert sub.indices.tolist() == indices
        assert sub.name == "rnd-sub"

    def test_name_override(self, fig2):
        assert fig2.subgraph(np.array([2, 0]), name="part").name == "part"

    def test_rejects_out_of_range(self, triangle):
        with pytest.raises(GraphError):
            triangle.subgraph(np.array([0, 3]))

    def test_to_dense_matches(self, fig2):
        dense = fig2.to_dense()
        assert dense.sum() == fig2.num_edges
        assert np.array_equal(dense, dense.T)
