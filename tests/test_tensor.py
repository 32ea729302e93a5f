import math
import random

import numpy as np
import pytest

import hyperrank as hr
from oracles import dense_apply, dense_flattening, random_hypergraph


def uplifted_fig1():
    return hr.uplift(hr.Hypergraph.from_edge_list([[1, 2, 3], [2, 4], [3, 5]]), 3)


class TestFromHypergraph:
    def test_uplifted_fig1_entries(self):
        t = hr.from_hypergraph(uplifted_fig1())
        assert t.order == 3 and t.dim == 6
        values = dict(t.entries)
        assert values[((0, 1), (1, 1), (2, 1))] == 1.0
        assert values[((1, 1), (3, 1), (5, 1))] == 1 / 3
        assert values[((2, 1), (4, 1), (5, 1))] == 1 / 3

    def test_single_pair_is_adjacency(self):
        t = hr.from_hypergraph(hr.Hypergraph.from_edge_list([[1, 2]]))
        assert t.order == 2
        assert hr.dense_oracle(t).tolist() == [[0, 1], [1, 0]]

    def test_duplicate_supports_merge(self):
        h = hr.Hypergraph(2, blocks={2: ([[0, 1], [0, 1]], [1.5, 1.5])})
        t = hr.from_hypergraph(h)
        assert t.entries == ((((0, 1), (1, 1)), 3.0),)

    def test_duplicate_supports_sum_in_edge_order(self):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 round differently
        for weights, want in [([0.1, 0.2, 0.3], 0.6000000000000001),
                              ([0.3, 0.2, 0.1], 0.6)]:
            h = hr.Hypergraph(2, blocks={2: ([[0, 1]] * 3, weights)})
            assert hr.from_hypergraph(h).entries == ((((0, 1), (1, 1)), want),)

    def test_rejects_non_uniform(self, fig1):
        with pytest.raises(hr.DataError):
            hr.from_hypergraph(fig1)


class TestApply:
    def test_single_multiset_entry_counts_arrangements(self):
        t = hr.from_hypergraph(hr.Hypergraph(3, blocks={3: ([[0, 1, 2]], [1 / 3])}))
        y = hr.apply(t, np.ones(3))
        assert np.allclose(y, 2 / 3)  # 2 arrangements of the other two indices

    def test_order2_equals_matvec(self):
        rng = random.Random(5)
        for _ in range(20):
            h = random_hypergraph(rng, weighted=True)
            pairs = hr.project(h, 2)
            t = hr.from_hypergraph(pairs)
            dense = hr.dense_oracle(t)
            x = np.random.default_rng(1).normal(size=t.dim)
            assert np.allclose(hr.apply(t, x), dense @ x, atol=1e-13)

    def test_zero_vector_gives_zero(self):
        t = hr.from_hypergraph(uplifted_fig1())
        assert np.all(hr.apply(t, np.zeros(6)) == 0)

    def test_accepts_score_vector(self):
        t = hr.from_hypergraph(uplifted_fig1())
        sv = hr.ScoreVector.normalized(np.ones(6), "l1")
        assert np.allclose(hr.apply(t, sv), hr.apply(t, np.ones(6) / 6))

    def test_dimension_mismatch(self):
        t = hr.from_hypergraph(uplifted_fig1())
        with pytest.raises(hr.DataError):
            hr.apply(t, np.ones(5))

    def test_multilinearity_degree(self):
        rng = np.random.default_rng(7)
        t = hr.from_hypergraph(uplifted_fig1())
        x = rng.uniform(0.1, 1.0, 6)
        for alpha in (0.5, 2.0, 3.7):
            assert np.allclose(
                hr.apply(t, alpha * x), alpha ** (t.order - 1) * hr.apply(t, x),
                rtol=1e-12,
            )


class TestFlattening:
    def test_order2_is_weight_matrix(self, example6):
        t = hr.from_hypergraph(hr.project(example6, 2))
        mat = hr.flattening_matrix(t)
        assert mat[3, 4] == 2.0 and mat[4, 3] == 2.0  # nodes 4,5 share two edges
        assert np.allclose(mat, hr.dense_oracle(t))

    def test_uplifted_fig1_connected(self):
        mat = hr.flattening_matrix(hr.from_hypergraph(uplifted_fig1()))
        adj = mat > 0
        reach = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in np.nonzero(adj[v])[0]:
                if w not in reach:
                    reach.add(int(w))
                    frontier.append(int(w))
        assert reach == set(range(6))

    def test_disjoint_edges_block_diagonal(self):
        h = hr.Hypergraph.from_edge_list([[0, 1, 2], [3, 4, 5]])
        mat = hr.flattening_matrix(hr.from_hypergraph(h))
        assert np.all(mat[:3, 3:] == 0) and np.all(mat[3:, :3] == 0)

    def test_symmetric(self):
        rng = random.Random(13)
        for _ in range(20):
            h = random_hypergraph(rng, weighted=True)
            t = hr.from_hypergraph(hr.uplift(h, h.max_size))
            mat = hr.flattening_matrix(t)
            assert np.array_equal(mat, mat.T)


class TestDenseOracle:
    def test_uplifted_fig1_nonzeros(self):
        dense = hr.dense_oracle(hr.from_hypergraph(uplifted_fig1()))
        assert dense.size == 216
        assert np.count_nonzero(dense) == 18  # 3 entries x 3! arrangements

    def test_symmetry_under_permutations(self):
        dense = hr.dense_oracle(hr.from_hypergraph(uplifted_fig1()))
        assert np.allclose(dense, dense.transpose(1, 0, 2))
        assert np.allclose(dense, dense.transpose(2, 1, 0))
        assert np.allclose(dense, dense.transpose(0, 2, 1))

    def test_apply_matches_dense_on_random_vectors(self):
        t = hr.from_hypergraph(uplifted_fig1())
        dense = hr.dense_oracle(t)
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.uniform(-1, 1, t.dim)
            assert np.max(np.abs(hr.apply(t, x) - dense_apply(dense, x))) <= 1e-12

    def test_size_guard(self):
        h = hr.Hypergraph(40, blocks={6: ([list(range(6))], [1.0])})
        t = hr.from_hypergraph(h)
        with pytest.raises(hr.DataError):
            hr.dense_oracle(t)


class TestOracleEquivalence:
    def test_apply_and_flattening_match_dense_routes(self):
        rng = random.Random(321)
        xrng = np.random.default_rng(17)
        for _ in range(60):
            h = random_hypergraph(rng, n_max=6, size_max=4)
            m = min(4, h.max_size + rng.randint(0, 2))
            m = max(m, h.max_size)
            t = hr.from_hypergraph(hr.uplift(h, m))
            dense = hr.dense_oracle(t)
            for _ in range(3):
                x = xrng.uniform(-1, 1, t.dim)
                assert np.max(np.abs(hr.apply(t, x) - dense_apply(dense, x))) <= 1e-12
            assert np.array_equal(hr.flattening_matrix(t), dense_flattening(dense))


class TestScoreVector:
    def test_tag_must_match_norm(self):
        with pytest.raises(hr.DataError):
            hr.ScoreVector(np.array([1.0, 1.0]), "l1")
        # a NaN norm is not 1
        with pytest.raises(hr.DataError):
            hr.ScoreVector.normalized([math.nan, 1.0], "l1")
        with pytest.raises(hr.DataError):
            hr.ScoreVector([math.nan], "l2")
        with pytest.raises(hr.DataError, match="unknown normalization 'l3'"):
            hr.ScoreVector([1.0], "l3")

    def test_normalized_factory(self):
        sv = hr.ScoreVector.normalized([3.0, 4.0], "l2")
        assert math.isclose(float(np.sqrt((sv.values**2).sum())), 1.0)
        sv1 = hr.ScoreVector.normalized([3.0, 1.0], "l1")
        assert math.isclose(float(sv1.values.sum()), 1.0)
        for norm in ("l1", "l2"):
            with pytest.raises(hr.DataError, match="cannot normalize the zero vector"):
                hr.ScoreVector.normalized(np.zeros(3), norm)

    def test_none_tag_unchecked(self):
        sv = hr.ScoreVector(np.array([5.0, -2.0]), "none")
        assert sv.values[0] == 5.0

    def test_values_read_only(self):
        sv = hr.ScoreVector.normalized([1.0, 1.0], "l1")
        with pytest.raises(ValueError):
            sv.values[0] = 7.0
