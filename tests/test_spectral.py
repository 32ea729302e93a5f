import math
import random
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperrank as hr
from conftest import TABLE_ROWS
from oracles import (
    all_compositions_up_to,
    dense_apply,
    dense_h_power,
    matrix_power_method,
    random_connected_graph,
    random_connected_hypergraph,
)


class TestEigenvectorCentrality:
    def test_path_closed_form(self, path3):
        res = hr.eigenvector_centrality(hr.from_hypergraph(path3))
        expected = np.array([1.0, math.sqrt(2), 1.0]) / (2 + math.sqrt(2))
        assert np.allclose(res.scores.values, expected, atol=1e-9)
        assert res.eigenvalue == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_complete_graph_uniform(self):
        k3 = hr.Hypergraph.from_edge_list([[1, 2], [2, 3], [1, 3]])
        res = hr.eigenvector_centrality(hr.from_hypergraph(k3))
        assert np.allclose(res.scores.values, 1 / 3, atol=1e-10)

    def test_single_edge(self):
        res = hr.eigenvector_centrality(
            hr.from_hypergraph(hr.Hypergraph.from_edge_list([[1, 2]]))
        )
        assert np.allclose(res.scores.values, 0.5, atol=1e-10)
        assert res.eigenvalue == pytest.approx(1.0, abs=1e-10)

    def test_disconnected_errors_with_lcc_hint(self):
        h = hr.Hypergraph.from_edge_list([[1, 2], [3, 4]])
        with pytest.raises(hr.DataError, match="largest connected component"):
            hr.eigenvector_centrality(hr.from_hypergraph(h))
        # nor can a tensor with no entries be built, so none reaches the solver
        with pytest.raises(hr.DataError, match="edgeless"):
            hr.h_eigen_power(hr.from_hypergraph(hr.Hypergraph(1)))

    def test_rejects_higher_order(self, fig1):
        t = hr.from_hypergraph(hr.uplift(fig1, 3))
        with pytest.raises(hr.DataError):
            hr.eigenvector_centrality(t)


class TestHEigenPower:
    def test_single_triangle_edge_symmetric(self):
        h = hr.Hypergraph.from_edge_list([[1, 2, 3]])
        res = hr.h_eigen_power(hr.from_hypergraph(h))
        assert np.allclose(res.scores.values, 1 / 3, atol=1e-12)
        assert res.converged and res.residual <= 1e-10

    def test_order2_matches_matrix_power_method(self, example6):
        t = hr.from_hypergraph(hr.project(example6, 2))
        res = hr.h_eigen_power(t)
        lam, x = matrix_power_method(hr.dense_oracle(t))
        assert np.allclose(res.scores.values, x, atol=1e-10)
        assert res.eigenvalue == pytest.approx(lam, abs=1e-9)

    def test_uplifted_pairwise_relation(self):
        # on a graph uplift, the solution obeys lam * c_i^2 = (2/3) sum a_ij c_j
        # after rescaling the auxiliary component to 1
        g = hr.Hypergraph.from_edge_list([[1, 2], [2, 3], [3, 4], [1, 3]])
        up = hr.uplift(g, 3)
        t = hr.from_hypergraph(up)
        res = hr.h_eigen_power(t, hr.SolverOptions(tol=1e-13), labels=up.labels,
                               aux_indices=up.aux.nodes)
        c_star = res.aux_scores["*"]
        raw_real = res.scores.values * (1 - c_star)  # undo the renormalization
        c = raw_real / c_star  # gauge: auxiliary component = 1
        A = hr.dense_oracle(hr.from_hypergraph(g))
        assert np.allclose(res.eigenvalue * c**2, (2 / 3) * (A @ c), atol=1e-8)

    def test_positive_scores_and_residual(self):
        rng = random.Random(31)
        for _ in range(15):
            h = random_connected_hypergraph(rng)
            t = hr.from_hypergraph(hr.uplift(h, h.max_size))
            res = hr.h_eigen_power(t)
            assert res.converged
            assert np.all(res.scores.values > 0)
            assert res.residual <= 1e-10

    def test_restarts_agree(self):
        rng = random.Random(77)
        for seed in range(5):
            h = random_connected_hypergraph(rng, n_max=7)
            t = hr.from_hypergraph(hr.uplift(h, h.max_size + 1))
            a = hr.h_eigen_power(t, hr.SolverOptions(seed=seed))
            b = hr.h_eigen_power(t, hr.SolverOptions(seed=seed + 1000))
            assert np.allclose(a.scores.values, b.scores.values, atol=1e-9)

    def test_tensor_scale_moves_eigenvalue_not_scores(self, example6):
        g = hr.uplift_project(example6, 3)
        t1 = hr.from_hypergraph(g)
        gamma = 3.7
        t2 = hr.from_hypergraph(hr.Hypergraph(
            g.n, g.labels, g.aux,
            blocks={s: (rows, gamma * w) for s, (rows, w) in g.blocks.items()}))
        r1 = hr.h_eigen_power(t1)
        r2 = hr.h_eigen_power(t2)
        assert np.allclose(r1.scores.values, r2.scores.values, atol=1e-9)
        assert r2.eigenvalue == pytest.approx(gamma * r1.eigenvalue, rel=1e-8)

    def test_rejects_labels_that_do_not_fit(self, example6):
        # refused before the solve, not an IndexError or a silent truncation
        g = hr.uplift(example6, 4)
        t = hr.from_hypergraph(g)
        assert t.dim == 7 and g.aux.nodes == (6,)
        for labels in (("a",), g.labels[:-1], g.labels + ("x",)):
            with pytest.raises(hr.DataError, match="labels"):
                hr.h_eigen_power(t, labels=labels)
        for aux in ((7,), (6, 9), (-1,)):
            with pytest.raises(hr.DataError, match="auxiliary"):
                hr.h_eigen_power(t, labels=g.labels, aux_indices=aux)
        res = hr.h_eigen_power(t, labels=g.labels, aux_indices=g.aux.nodes)
        assert set(res.aux_scores) == {"*"} and len(res.labels) == 6
        # a repeated label would drop a node from `as_mapping`
        path = hr.from_hypergraph(hr.Hypergraph.from_edge_list([[1, 2], [2, 3]]))
        for labels in (("a", "a", "b"), ("a", ["b"], "c")):
            with pytest.raises(hr.DataError, match="labels"):
                hr.h_eigen_power(path, labels=labels)

    def test_rejects_aux_indices_that_are_not_integers(self):
        # refused before the first contraction, not a TypeError after the
        # whole solve or numpy's error from x[True]
        t = hr.from_hypergraph(hr.Hypergraph.from_edge_list([[0, 1], [1, 2], [0, 2], [2, 3]]))
        for aux in ((1.5,), (True,), (np.bool_(True),), (np.float64(1.0),), ("1",)):
            with mock.patch("hyperrank.spectral._contraction", side_effect=AssertionError), \
                    pytest.raises(hr.DataError, match="auxiliary"):
                hr.h_eigen_power(t, aux_indices=aux)
        res = hr.h_eigen_power(t, aux_indices=(np.int64(1),))
        assert list(res.aux_scores) == [1] and res.labels == (0, 2, 3)
        # no labels name the indices 0..dim-1, as None does
        assert hr.h_eigen_power(t, labels=()).labels == (0, 1, 2, 3)

    def test_max_iter_flags_nonconverged(self, example6):
        t = hr.from_hypergraph(hr.uplift_project(example6, 2))
        res = hr.h_eigen_power(t, hr.SolverOptions(max_iter=2))
        assert not res.converged
        assert res.iterations == 2
        # the eigenvalue reported is the bracket midpoint of the returned vector
        x = res.scores.values
        ratios = hr.apply(t, x) / x
        assert res.eigenvalue == pytest.approx(0.5 * (ratios.min() + ratios.max()), rel=1e-12)


def k57(weight):
    """Complete bipartite K_{5,7} with every edge weight equal: connected, but
    of period 2, so not primitive."""
    edges = [[i, 5 + j] for i in range(5) for j in range(7)]
    return hr.from_hypergraph(hr.Hypergraph.from_edge_list(edges, [weight] * 35))


def underflow_chain():
    """Order-20 chain: 60 edges of 20 nodes, consecutive edges sharing one
    node, edge k weighted 1e-3**k."""
    edges = [list(range(19 * k, 19 * k + 20)) for k in range(60)]
    return hr.from_hypergraph(
        hr.Hypergraph.from_edge_list(edges, [1e-3**k for k in range(60)]))


class TestShift:
    def test_k57_iterations_do_not_depend_on_weight_scale(self):
        # Perron vector of K_{a,b}: sqrt(b) on the a side, sqrt(a) on the b side
        want = np.r_[np.full(5, math.sqrt(7)), np.full(7, math.sqrt(5))]
        want /= want.sum()
        base = hr.eigenvector_centrality(k57(1.0))
        for weight in (1e-6, 1.0, 1e6):
            res = hr.eigenvector_centrality(k57(weight))
            assert res.converged
            assert abs(res.iterations - base.iterations) <= 0.1 * base.iterations
            assert res.iterations <= 60
            assert np.allclose(res.scores.values, want, atol=1e-10)
            assert res.eigenvalue == pytest.approx(weight * math.sqrt(35), rel=1e-9)

    @pytest.mark.parametrize("field, value", [
        ("max_iter", 0), ("max_iter", -3), ("tol", -1.0), ("tol", float("nan")),
        ("tol", float("inf")), ("max_iter", 2.5), ("max_iter", True), ("max_iter", None),
        ("tol", "x"), ("tol", True), ("seed", 1.5), ("seed", False), ("seed", "1"),
        ("seed", -1), ("tol", 0.0), ("tol", 1e-15),
    ])
    def test_rejects_bad_shift(self, field, value):
        # the shift is not a setting; the settings that remain are refused
        # when the options are built, before any solve, as the CLI refuses
        # them in a stored manifest: a bool is no count and no tolerance
        with pytest.raises(hr.DataError, match=field):
            hr.SolverOptions(**{field: value})
        # numpy scalars are numbers like any other, and the tolerance floor
        # is a tolerance the solver takes
        hr.SolverOptions(tol=np.float32(1e-6), max_iter=np.int64(5), seed=np.uint8(1))
        assert hr.SolverOptions(tol=1e-14).tol == 1e-14

    def test_underflow_fails_fast(self):
        t = underflow_chain()
        assert (t.order, t.dim) == (20, 1141)
        with pytest.raises(hr.ConvergenceError, match="underflow"):
            hr.h_eigen_power(t)
        # edges of the smallest subnormal weight: T x^(m-1) underflows to 0
        # everywhere, so the bracket is [0, 0], which positive weights rule
        # out as an eigenvalue; this is no convergence
        h = hr.Hypergraph(20, blocks={20: (np.arange(20)[None, :], np.array([5e-324]))})
        with pytest.raises(hr.ConvergenceError, match="underflow"):
            hr.hec(h)
        path = hr.Hypergraph.from_edge_list([[1, 2], [2, 3]], [5e-324] * 2)
        with pytest.raises(hr.ConvergenceError, match="underflow"):
            hr.uphec(path, 2)
        # a path weighted 1, 1e-310, 1e-310: node 4's contraction 1e-310 *
        # x_3 underflows to 0, so the bracket's lower end is 0, the shift
        # starts and x_4 shrinks by about 3 a step until the shifted term
        # rounds to 0 too
        path = hr.Hypergraph.from_edge_list([[1, 2], [2, 3], [3, 4]], [1.0, 1e-310, 1e-310])
        with pytest.raises(hr.ConvergenceError, match="produced a zero component: the "
                                                      "iterate underflowed"):
            hr.hec(path)


@st.composite
def uniform_inputs(draw, bipartite=None):
    """(n, rows, weights, bipartite) of a small connected uniform hypergraph:
    a weighted bipartite graph (period 2), or a weighted hypergraph of mixed
    sizes uplifted to one order, with or without a gauge order on top."""
    if bipartite is None:
        bipartite = draw(st.booleans())
    if bipartite:
        left, right = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        sides = [[0], [left]]
        edges = {(0, left)}
        rest = draw(st.permutations([(0, v) for v in range(1, left)]
                                    + [(1, v) for v in range(left + 1, left + right)]))
        for side, v in rest:  # a spanning tree across the two sides
            u = draw(st.sampled_from(sides[1 - side]))
            edges.add((min(u, v), max(u, v)))
            sides[side].append(v)
        extra = draw(st.lists(st.tuples(st.integers(0, left - 1),
                                        st.integers(left, left + right - 1)), max_size=4))
        edges.update(extra)
        rows = np.array(sorted(edges), dtype=np.int64)
        weights = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=len(rows),
                                         max_size=len(rows))))
        return left + right, rows, weights, True
    n = draw(st.integers(3, 6))
    edges, weights = [], []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(2, min(n, 4)))
        edges.append(draw(st.permutations(range(n)))[:size])
        weights.append(draw(st.floats(0.25, 4.0)))
    h = hr.largest_connected_component(
        hr.Hypergraph.from_edge_list(edges, weights, nodes=range(n)))
    g = hr.uplift(h, h.max_size + draw(st.integers(0, 1)))
    ((_, (rows, weights)),) = g.blocks.items()
    return g.n, np.array(rows), np.array(weights), False


def solve(n, rows, weights, **options):
    t = hr.from_hypergraph(hr.Hypergraph(n, blocks={rows.shape[1]: (rows, weights)}))
    return hr.h_eigen_power(t, hr.SolverOptions(tol=1e-12, **options))


class TestSolverProperties:
    """Results that must not depend on what does not matter, on inputs with
    and without bipartite structure."""

    @given(uniform_inputs(), st.integers(-6, 6))
    @settings(max_examples=60, deadline=None)
    def test_weight_scale(self, inp, k):
        n, rows, weights, _ = inp
        a = solve(n, rows, weights)
        b = solve(n, rows, weights * 10.0**k)
        assert a.converged and b.converged
        assert np.allclose(a.scores.values, b.scores.values, atol=1e-9)
        assert abs(a.iterations - b.iterations) <= 0.1 * a.iterations

    @given(uniform_inputs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabelling_permutes_scores(self, inp, data):
        n, rows, weights, _ = inp
        perm = np.array(data.draw(st.permutations(range(n))))
        a = solve(n, rows, weights)
        b = solve(n, np.sort(perm[rows], axis=1), weights)
        assert np.allclose(b.scores.values[perm], a.scores.values, atol=1e-9)

    @given(uniform_inputs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_edge_into_duplicates(self, inp, data):
        n, rows, weights, _ = inp
        e = data.draw(st.integers(0, len(rows) - 1))
        share = data.draw(st.floats(0.1, 0.9))
        split_rows = np.vstack([rows, rows[e:e + 1]])
        split_weights = np.r_[weights, weights[e] * (1 - share)]
        split_weights[e] *= share
        a = solve(n, rows, weights)
        b = solve(n, split_rows, split_weights)
        assert np.allclose(a.scores.values, b.scores.values, atol=1e-9)

    @given(uniform_inputs(bipartite=True), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_start_vector_on_bipartite_input(self, inp, seed):
        n, rows, weights, _ = inp
        a = solve(n, rows, weights)
        b = solve(n, rows, weights, seed=seed)
        assert b.converged
        assert np.allclose(a.scores.values, b.scores.values, atol=1e-9)


class TestPipelines:
    def test_uhec_at_max_order_equals_hec(self):
        h = hr.Hypergraph.from_edge_list([[1, 2, 3], [2, 3, 4], [1, 3, 4]])
        a = hr.uhec(h, 3)
        b = hr.hec(h)
        assert np.allclose(a.scores.values, b.scores.values, atol=1e-10)
        assert a.eigenvalue == pytest.approx(b.eigenvalue, abs=1e-9)

    def test_uphec_at_max_on_uniform_equals_hec(self):
        h = hr.Hypergraph.from_edge_list([[1, 2, 3], [2, 3, 4], [1, 3, 4]])
        a = hr.uphec(h, 3)
        b = hr.hec(h)
        assert np.allclose(a.scores.values, b.scores.values, atol=1e-10)

    def test_gauge_flag_equals_explicit_composition(self, example6):
        opts = hr.SolverOptions(tol=1e-12)
        flagged = hr.uphec(example6, 3, opts, aux_gauge=True)
        composed = hr.uhec(hr.uplift_project(example6, 3), 4, opts)
        assert np.allclose(
            flagged.scores.values, composed.scores.values, atol=1e-10
        )

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_example_rows_with_gauge(self, example6, p):
        res = hr.uphec(example6, p, hr.SolverOptions(tol=1e-13), aux_gauge=True)
        assert res.labels == (1, 2, 3, 4, 5, 6)
        assert np.allclose(res.scores.values, TABLE_ROWS[p], atol=5e-4)

    def test_symmetric_nodes_get_identical_scores(self, example6):
        for p in (2, 3, 4):
            res = hr.uphec(example6, p, hr.SolverOptions(tol=1e-13), aux_gauge=True)
            scores = res.as_mapping()
            assert abs(scores[4] - scores[5]) <= 1e-10

    def test_uhec_p4_row(self, example6):
        res = hr.uhec(example6, 4, hr.SolverOptions(tol=1e-13), aux_gauge=True)
        assert np.allclose(res.scores.values, TABLE_ROWS[4], atol=5e-4)

    def test_alt_equals_uphec_at_order_two(self, example6):
        a = hr.alt_centrality(example6, 2)
        u = hr.uphec(example6, 2)
        assert np.allclose(a.scores.values, u.scores.values, atol=1e-10)

    def test_alt_small_instance_matches_dense_solver(self, path3):
        res = hr.alt_centrality(path3, 3)
        g = hr.alternative_uniformization(path3, 3)
        lam, x = dense_h_power(hr.dense_oracle(hr.from_hypergraph(g)))
        assert np.all(res.scores.values > 0)
        assert np.allclose(res.scores.values, x / x.sum(), atol=1e-9)
        assert res.eigenvalue == pytest.approx(lam, rel=1e-8)

    def test_alt_at_max_order_on_uniform_equals_hec(self):
        h = hr.Hypergraph.from_edge_list([[1, 2, 3], [2, 3, 4], [1, 2, 4]])
        a = hr.alt_centrality(h, 3)
        b = hr.hec(h)
        assert np.allclose(a.scores.values, b.scores.values, atol=1e-9)

    def test_disconnected_input_rejected(self):
        h = hr.Hypergraph.from_edge_list([[1, 2], [3, 4, 5]])
        for call in (lambda: hr.uhec(h, 3), lambda: hr.uphec(h, 2),
                     lambda: hr.alt_centrality(h, 3)):
            with pytest.raises(hr.DataError, match="connected"):
                call()

    def test_hec_rejects_non_uniform(self, fig1):
        with pytest.raises(hr.DataError, match="uniform"):
            hr.hec(fig1)


class TestDetectUpliftStructure:
    def test_two_aux_example(self, two_aux_uplift):
        aux = hr.detect_uplift_structure(two_aux_uplift)
        assert aux is not None
        assert aux.nodes == (3, 4)
        assert aux.multiplicities == (1, 2)

    def test_single_triangle_edge_decomposes(self):
        # every node is a candidate; the highest index wins and the result is
        # a genuine decomposition (single pair {1,2} plus padding node 3)
        h = hr.Hypergraph.from_edge_list([[1, 2, 3]])
        aux = hr.detect_uplift_structure(h)
        assert aux is not None and aux.nodes == (2,) and aux.multiplicities == (1,)
        pair = hr.z_via_uplift(h, "z2")
        t = hr.from_hypergraph(h)
        check = hr.verify_z_eigenpair(t, pair.eigenvalue, pair.eigenvector, "z2")
        assert check.passed

    def test_uplift_roundtrip_recovers_star(self):
        rng = random.Random(55)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(3, 9))
            up = hr.multi_uplift(g, 3, (1,))
            aux = hr.detect_uplift_structure(up)
            assert aux is not None
            assert aux.nodes == (g.n,) and aux.multiplicities == (1,)

    def test_none_on_pairwise_input(self, path3):
        assert hr.detect_uplift_structure(path3) is None

    def test_none_on_non_uniform(self, fig1):
        assert hr.detect_uplift_structure(fig1) is None

    def test_none_when_no_common_padding(self):
        h = hr.Hypergraph.from_edge_list([[1, 2, 3], [4, 5, 6]])
        assert hr.detect_uplift_structure(h) is None

    def test_none_when_multiplicity_exceeds_slack(self):
        # removing the tripled node would leave a single leftover node
        h = hr.Hypergraph.from_edge_list([[1, 3, 3, 3]],
                                         keep_multiplicities=True)
        assert hr.detect_uplift_structure(h) is None

    def test_none_when_repeated_node_varies(self):
        h = hr.Hypergraph.from_edge_list([[1, 2, 4, 4], [2, 3, 4, 5]],
                                         keep_multiplicities=True)
        assert hr.detect_uplift_structure(h) is None


class TestZViaUplift:
    def test_worked_z1_vector(self, two_aux_uplift):
        pair = hr.z_via_uplift(two_aux_uplift, "z1")
        v = np.array([1.0, math.sqrt(2), 1.0, math.sqrt(2), 2.0])
        assert np.allclose(pair.eigenvector.values, v / v.sum(), atol=1e-12)
        assert pair.omega == 12
        assert pair.base_eigenvalue == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_z2_vector_is_unit_euclidean(self, two_aux_uplift):
        pair = hr.z_via_uplift(two_aux_uplift, "z2")
        v = np.array([1.0, math.sqrt(2), 1.0, math.sqrt(2), 2.0])
        assert np.allclose(pair.eigenvector.values, v / np.linalg.norm(v),
                           atol=1e-12)
        assert float(np.linalg.norm(pair.eigenvector.values)) == pytest.approx(1.0)

    def test_residual_against_dense_contraction(self, two_aux_uplift):
        t = hr.from_hypergraph(two_aux_uplift)
        dense = hr.dense_oracle(t)
        for norm in ("z1", "z2"):
            pair = hr.z_via_uplift(two_aux_uplift, norm)
            c = pair.eigenvector.values
            resid = np.max(np.abs(dense_apply(dense, c) - pair.eigenvalue * c))
            assert resid <= 1e-12

    def test_eigenvalue_relation(self, two_aux_uplift):
        pair = hr.z_via_uplift(two_aux_uplift, "z2")
        c = pair.eigenvector.values
        expected = pair.base_eigenvalue * pair.omega * c[3] * c[4] ** 2
        assert pair.eigenvalue == pytest.approx(expected, rel=1e-12)

    def test_sign_structure_even_and_odd_orders(self, path3):
        # even order: -c solves with the same eigenvalue; odd order: with -lam
        even = hr.multi_uplift(path3, 4, (2,))
        odd = hr.multi_uplift(path3, 5, (3,))
        for h, flip_lambda in ((even, False), (odd, True)):
            pair = hr.z_via_uplift(h, "z2")
            t = hr.from_hypergraph(h)
            lam = -pair.eigenvalue if flip_lambda else pair.eigenvalue
            check = hr.verify_z_eigenpair(t, lam, -pair.eigenvector.values, "z2")
            assert check.passed

    def test_rejects_unrecognized_structure(self, fig1):
        up = hr.uplift(fig1, 3)  # mixed pairs and triple, not a graph padding
        with pytest.raises(hr.DataError, match="out of scope"):
            hr.z_via_uplift(up, "z1")

    def test_rejects_disconnected_underlying_graph(self):
        g = hr.Hypergraph.from_edge_list([[1, 2], [3, 4]])
        up = hr.multi_uplift(g, 3, (1,))
        with pytest.raises(hr.DataError, match="disconnected"):
            hr.z_via_uplift(up, "z1")

    def test_refuses_order_above_cap(self):
        # two pairs padded by 200 common nodes; omega would be 201!
        common = list(range(100, 300))
        h = hr.Hypergraph.from_edge_list([[1, 2, *common], [2, 3, *common]])
        with pytest.raises(hr.DataError, match="tensor order 202 exceeds supported 20"):
            hr.z_via_uplift(h, "z1")

    def test_refuses_graph_too_large_for_the_dense_solver(self):
        # a path on 4,473 nodes padded by one star: 4,473^2 = 20,007,729 cells
        path = hr.Hypergraph.from_edge_list([[i, i + 1] for i in range(4472)])
        h = hr.multi_uplift(path, 3, (1,))
        with pytest.raises(hr.DataError, match="would hold 20007729 cells"):
            hr.z_via_uplift(h, "z1")

    def test_bad_norm_name(self, two_aux_uplift):
        with pytest.raises(hr.DataError):
            hr.z_via_uplift(two_aux_uplift, "l2")

    def test_refuses_a_perron_vector_with_a_zero_component(self):
        # the star-padded path 1 - 2 - 3 weighted 1 and the smallest
        # subnormal: the dense eigensolver splits the matrix at that
        # negligible coupling and returns 0 as node 3's component
        path = hr.Hypergraph.from_edge_list([[1, 2], [2, 3]], [1.0, 5e-324])
        with pytest.raises(hr.ConvergenceError, match="non-positive Perron vector"):
            hr.z_via_uplift(hr.multi_uplift(path, 3, (1,)), "z1")

    def test_roundtrip_parallel_to_graph_eigenvector(self):
        rng = random.Random(2024)
        for comp in ((1,), (2,), (1, 1), (1, 2)):
            g = random_connected_graph(rng, rng.randint(3, 10))
            up = hr.multi_uplift(g, 2 + sum(comp), comp)
            pair = hr.z_via_uplift(up, "z2")
            real = pair.eigenvector.values[: g.n]
            ec = hr.eigenvector_centrality(
                hr.from_hypergraph(g), hr.SolverOptions(tol=1e-13)
            )
            cos = float(real @ ec.scores.values /
                        (np.linalg.norm(real) * np.linalg.norm(ec.scores.values)))
            assert cos >= 1 - 1e-10


class TestVerify:
    def test_solver_output_passes(self, example6):
        g = hr.uplift_project(example6, 3)
        t = hr.from_hypergraph(g)
        res = hr.h_eigen_power(t)  # no aux split: scores are the full iterate
        check = hr.verify_h_eigenpair(t, res.eigenvalue, res.scores.values,
                                      tol=1e-10)
        assert check.passed

    def test_uniform_vector_fails_at_high_order(self):
        # at order 8 on 41 indices the unit-l1 iterate's x^[m-1] is about
        # 1e-13: a residual relative to |lambda| alone passes any vector
        n = 40
        edges = [[i, (i + 1) % n, (i + 3) % n] for i in range(0, n, 2)]
        edges += [[i, (i + 1) % n] for i in range(1, n, 2)]
        h = hr.Hypergraph.from_edge_list(edges, [1 + k % 5 for k in range(len(edges))])
        t = hr.from_hypergraph(hr.uplift(h, 8))
        res = hr.h_eigen_power(t)  # no aux split: scores are the full iterate
        assert hr.verify_h_eigenpair(t, res.eigenvalue, res.scores.values).passed
        uniform = np.full(t.dim, 1.0 / t.dim)
        tx, rhs = hr.apply(t, uniform), uniform ** (t.order - 1)
        assert np.max(np.abs(tx - res.eigenvalue * rhs)) / res.eigenvalue <= 1e-10
        check = hr.verify_h_eigenpair(t, res.eigenvalue, uniform)
        assert not check.passed and check.residual > 1.0

    def test_perturbed_vector_fails(self, two_aux_uplift):
        t = hr.from_hypergraph(two_aux_uplift)
        pair = hr.z_via_uplift(two_aux_uplift, "z2")
        bad = pair.eigenvector.values + 0.01
        check = hr.verify_z_eigenpair(t, pair.eigenvalue, bad, "z2", tol=1e-9)
        assert not check.passed
        assert check.residual > 1e-9

    def test_norm_violation_reported(self, two_aux_uplift):
        t = hr.from_hypergraph(two_aux_uplift)
        pair = hr.z_via_uplift(two_aux_uplift, "z2")
        scaled = pair.eigenvector.values * 0.5
        lam_scaled = pair.eigenvalue * 0.5 ** (t.order - 2)
        check = hr.verify_z_eigenpair(t, lam_scaled, scaled, "z2", tol=1e-9)
        assert check.residual <= 1e-9  # still an eigenpair
        assert check.norm_violation == pytest.approx(0.5)
        assert not check.passed

    def test_bad_norm_name(self, two_aux_uplift):
        t = hr.from_hypergraph(two_aux_uplift)
        pair = hr.z_via_uplift(two_aux_uplift, "Z2")
        assert pair.norm == "z2"
        for norm in ("z3", 2, None, ["z2"], np.array(["z1", "z2"])):
            message = f"norm must be 'z1' or 'z2', got {norm!r}"
            # refused before any contraction
            with mock.patch("hyperrank.spectral.apply", side_effect=AssertionError), \
                    pytest.raises(hr.DataError) as err:
                hr.verify_z_eigenpair(t, pair.eigenvalue, pair.eigenvector, norm)
            assert str(err.value) == message
            with pytest.raises(hr.DataError) as err:
                hr.z_via_uplift(two_aux_uplift, norm)
            assert str(err.value) == message


class TestReadmeQuickstart:
    def test_runs_as_written(self, capsys):
        # README's library quickstart, its one python block, as printed there
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], str(readme), "exec"), {})
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3 and out[-1].endswith("passed=True)")


class TestCompositionsOracle:
    def test_all_compositions_up_to_three(self):
        comps = set(all_compositions_up_to(3))
        assert comps == {
            (1,), (2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)
        }
