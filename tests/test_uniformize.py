import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperrank as hr
from hyperrank.hypergraph import component_roots
from hyperrank.spectral import _require_connected
from hyperrank.tensor import _CompositionTensor, _uplifted, _UpliftTensor
from oracles import project_weight_scan, random_hypergraph


def edge_map(h):
    """{support on labels: weight} for readable comparisons."""
    return {
        tuple((h.labels[v], c) for v, c in e.support): e.weight for e in h.edges
    }


class TestUplift:
    def test_fig1_values_exact(self, fig1):
        g = hr.uplift(fig1, 3)
        got = edge_map(g)
        assert got[((1, 1), (2, 1), (3, 1))] == 1.0
        assert got[((2, 1), (4, 1), ("*", 1))] == 1 / 3
        assert got[((3, 1), (5, 1), ("*", 1))] == 1 / 3
        assert g.aux.nodes == (5,) and g.aux.multiplicities == (None,)

    def test_pair_to_order_four(self):
        g = hr.uplift(hr.Hypergraph.from_edge_list([[1, 2]]), 4)
        assert edge_map(g) == {((1, 1), (2, 1), ("*", 2)): 1 / 6}

    def test_identity_on_uniform_input(self):
        h = hr.Hypergraph.from_edge_list([[1, 2, 3], [2, 3, 4]])
        assert hr.uplift(h, 3) is h

    def test_rejects_m_below_max_size(self, fig1):
        with pytest.raises(hr.DataError):
            hr.uplift(fig1, 2)

    def test_weighted_edges_scale_multiplicatively(self):
        h = hr.Hypergraph.from_edge_list([[1, 2]], weights=[5.0])
        g = hr.uplift(h, 3)
        assert g.edges[0].weight == 5.0 * (1 / 3)

    def test_mixed_sizes_keep_full_edges(self, fig1):
        g = hr.uplift(fig1, 3)
        sizes = {e.size for e in g.edges}
        assert sizes == {3}
        full = [e for e in g.edges if g.aux.nodes[0] not in e.nodes]
        assert len(full) == 1 and full[0].weight == 1.0


class TestMultiUplift:
    def test_two_aux_supports(self, path3):
        g = hr.multi_uplift(path3, 5, (1, 2))
        assert g.labels == (1, 2, 3, "*1", "*2")
        assert edge_map(g) == {
            ((1, 1), (2, 1), ("*1", 1), ("*2", 2)): 1.0,
            ((2, 1), (3, 1), ("*1", 1), ("*2", 2)): 1.0,
        }
        assert g.aux.nodes == (3, 4) and g.aux.multiplicities == (1, 2)

    def test_single_aux_matches_uplift_supports(self, path3):
        g1 = hr.multi_uplift(path3, 3, (1,))
        g2 = hr.uplift(path3, 3)
        assert [e.support for e in g1.edges] == [e.support for e in g2.edges]

    def test_squared_aux(self):
        h = hr.Hypergraph.from_edge_list([[1, 2], [2, 3]])
        g = hr.multi_uplift(h, 4, (2,))
        assert all(dict(e.support)[3] == 2 for e in g.edges)
        assert all(e.weight == 1.0 for e in g.edges)

    def test_rejects_non_uniform(self, fig1):
        with pytest.raises(hr.DataError):
            hr.multi_uplift(fig1, 5, (1, 1))

    def test_rejects_bad_multiplicity_sum(self, path3):
        with pytest.raises(hr.DataError):
            hr.multi_uplift(path3, 5, (1, 1))

    @pytest.mark.parametrize("m", [1, 2])
    def test_rejects_order_not_above_edge_size(self, path3, m):
        with pytest.raises(hr.DataError, match=f"target order must exceed edge size: m={m}, M=2"):
            hr.multi_uplift(path3, m, ())


class TestProject:
    def test_worked_example_pairs(self, example6):
        g = hr.project(example6, 2)
        got = edge_map(g)
        expected_pairs = {
            (1, 2): 1.0, (2, 3): 1.0, (2, 4): 1.0, (2, 5): 1.0,
            (3, 4): 1.0, (3, 5): 1.0, (4, 5): 2.0, (4, 6): 1.0, (5, 6): 1.0,
        }
        assert got == {
            ((a, 1), (b, 1)): w for (a, b), w in expected_pairs.items()
        }

    def test_identity_on_two_uniform(self, path3):
        g = hr.project(path3, 2)
        assert edge_map(g) == edge_map(path3)

    def test_rejects_order_below_two(self, path3):
        with pytest.raises(hr.DataError, match="projection order must be >= 2, got 1"):
            hr.project(path3, 1)

    def test_identity_when_no_edge_lies_above_p(self):
        rng = random.Random(7)
        for _ in range(40):
            h = random_hypergraph(rng, n_max=7, size_max=5, n_edges_max=12)
            assert hr.project(h, max(2, h.max_size) + rng.randint(0, 3)) is h

    def test_weights_match_bruteforce_scan(self):
        rng = random.Random(99)
        for _ in range(40):
            h = random_hypergraph(rng, n_max=7, size_max=5, n_edges_max=12,
                                  weighted=True)
            p = rng.randint(2, 4)
            g = hr.project(h, p)
            scan = project_weight_scan(h, p)
            got = {frozenset(e.nodes): e.weight for e in g.edges}
            assert set(got) == set(scan)
            for key in scan:
                assert got[key] == pytest.approx(scan[key], abs=1e-12)


class TestUpliftProject:
    def test_example_p3_includes_every_triple(self, example6):
        g = hr.uplift_project(example6, 3)
        got = edge_map(g)
        assert set(got) == {
            ((1, 1), (2, 1), ("*", 1)),
            ((2, 1), (3, 1), (4, 1)),
            ((2, 1), (3, 1), (5, 1)),
            ((2, 1), (4, 1), (5, 1)),
            ((3, 1), (4, 1), (5, 1)),
            ((4, 1), (5, 1), (6, 1)),
        }
        assert got[((1, 1), (2, 1), ("*", 1))] == 1 / 3

    def test_example_p4(self, example6):
        g = hr.uplift_project(example6, 4)
        got = edge_map(g)
        assert got == {
            ((1, 1), (2, 1), ("*", 2)): 1 / 6,
            ((2, 1), (3, 1), (4, 1), (5, 1)): 1.0,
            ((4, 1), (5, 1), (6, 1), ("*", 1)): 1 / 4,
        }

    def test_example_p2_has_no_aux(self, example6):
        g = hr.uplift_project(example6, 2)
        assert not g.aux.nodes
        assert all(e.size == 2 for e in g.edges)

    def test_rejects_out_of_range_order(self, example6):
        with pytest.raises(hr.DataError):
            hr.uplift_project(example6, 5)
        with pytest.raises(hr.DataError):
            hr.uplift_project(example6, 1)


class TestAlternativeUniformization:
    def test_pair_to_order_three(self):
        h = hr.Hypergraph.from_edge_list([[1, 2]])
        g = hr.alternative_uniformization(h, 3)
        assert edge_map(g) == {
            ((1, 2), (2, 1)): 1 / 3,
            ((1, 1), (2, 2)): 1 / 3,
        }

    def test_full_size_edge_value(self):
        h = hr.Hypergraph.from_edge_list([[1, 2, 3]])
        g = hr.alternative_uniformization(h, 3)
        assert edge_map(g) == {((1, 1), (2, 1), (3, 1)): 3 / math.factorial(3)}

    def test_shared_supports_aggregate(self):
        h = hr.Hypergraph.from_edge_list([[1, 2], [1, 2, 3]])
        g = hr.alternative_uniformization(h, 3)
        got = edge_map(g)
        # {1,2} contributes to {1,1,2} and {1,2,2}; {1,2,3} to its own support
        assert got[((1, 2), (2, 1))] == 1 / 3
        assert got[((1, 1), (2, 1), (3, 1))] == 0.5
        assert len(got) == 3

    def test_rejects_m_below_max(self):
        h = hr.Hypergraph.from_edge_list([[1, 2, 3]])
        with pytest.raises(hr.DataError):
            hr.alternative_uniformization(h, 2)


@st.composite
def small_hypergraphs(draw):
    n = draw(st.integers(3, 10))
    n_edges = draw(st.integers(1, 8))
    edges = []
    for _ in range(n_edges):
        size = draw(st.integers(2, min(n, 6)))
        edges.append(draw(st.permutations(range(n)).map(lambda p: list(p)[:size])))
    return hr.Hypergraph.from_edge_list(edges, nodes=range(n))


class TestOrderCap:
    """Orders above the tensor's cap of 20 are refused before any row is
    built, with the tensor's message."""

    def test_rewrites_refuse_order_above_cap(self, fig1, path3):
        counter = hr.BuildCounter()
        calls = [
            lambda: hr.uplift(fig1, 25, counter),
            lambda: hr.multi_uplift(path3, 30, (28,), counter),
            lambda: hr.alternative_uniformization(fig1, 21),
            lambda: hr.project(fig1, 21, counter),
        ]
        for call in calls:
            with pytest.raises(hr.DataError, match="tensor order .* exceeds supported 20"):
                call()
        assert counter == hr.BuildCounter()

    def test_cap_itself_is_allowed(self, fig1):
        g = hr.uplift(fig1, 20)
        assert hr.from_hypergraph(g).order == 20


class TestInvariants:
    @given(small_hypergraphs(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_all_rewrites_are_uniform(self, h, bump):
        m = h.max_size + bump
        for g in (
            hr.uplift(h, m),
            hr.alternative_uniformization(h, m),
            hr.uplift_project(h, max(2, min(h.max_size, m))),
        ):
            assert {e.size for e in g.edges} <= {max(2, min(h.max_size, m)), m}
            assert g.is_uniform()

    @given(small_hypergraphs(), st.integers(0, 2), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_connectivity_preserved(self, h, bump, known):
        # every construction maps a connected input to a connected output,
        # by a fresh pass; only `project` hands the input's verdict to its
        # output's cached roots, when the input's roots were already
        # computed and name one component, and a handed-on verdict is a
        # fresh pass's; every view a pipeline solves on has a connected
        # hypergraph, whose check then needs no pass of its own
        if known:
            hr.is_strongly_connected(h)
        m = h.max_size + bump
        orders = range(2, m + 1)
        projections = [hr.project(h, p) for p in orders]
        others = [hr.uplift(h, m), hr.multi_uplift(hr.uplift(h, m), m + 2, (1, 1)),
                  h.with_labels(tuple(f"v{i}" for i in range(h.n)))]
        others += [hr.uplift(g, p) for p, g in zip(orders, projections)]
        others += [hr.alternative_uniformization(g, p) for p, g in zip(orders, projections)]
        views = [_uplifted(h, p) for p in orders] + [_CompositionTensor(h, p) for p in orders]
        views += [hr.from_hypergraph(g) for g in projections if g.is_uniform()]
        views += [_UpliftTensor((t,), t.order + 1, t.hypergraph) for t in views]  # the gauge
        connected = hr.is_strongly_connected(h)
        for g in projections + others:
            fresh = component_roots(g.n, [rows for rows, _ in g.blocks.values()])
            if connected:
                assert not fresh.any()
            if g is h:  # an identity rewrite
                continue
            handed = "_component_roots" in vars(g)
            if any(g is q for q in projections):  # also an uplift that pads nothing
                assert handed == (known and connected)
                if handed:
                    assert np.array_equal(g._component_roots, fresh)
            else:
                assert not handed
        if connected:
            for u in views:
                if known:  # h's own roots, or the verdict `project` handed on
                    assert "_component_roots" in vars(u.hypergraph)
                assert hr.is_strongly_connected(u.hypergraph)
                _require_connected(u.hypergraph)

    @given(small_hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_largest_component_is_marked_connected(self, h):
        lcc = hr.largest_connected_component(h)
        assert not component_roots(lcc.n, [r for r, _ in lcc.blocks.values()]).any()
        if lcc is not h:
            assert not vars(lcc)["_component_roots"].any()

    def test_uplift_at_max_on_uniform_is_identity(self):
        h = hr.Hypergraph.from_edge_list([[0, 1, 2], [1, 2, 3]])
        g = hr.uplift(h, 3)
        assert [e.support for e in g.edges] == [e.support for e in h.edges]
        assert [e.weight for e in g.edges] == [e.weight for e in h.edges]


class TestOperationCounters:
    def closed_form(self, h, m, p):
        up = sum(m - e.size for e in h.edges if e.size < m)
        pr = sum(p * math.comb(e.size, p) for e in h.edges if e.size > p)
        return up, pr

    def test_uplift_counter(self, fig1):
        counter = hr.BuildCounter()
        hr.uplift(fig1, 4, counter)
        assert counter.uplift_ops == (4 - 2) + (4 - 2) + (4 - 3)

    def test_multi_uplift_counter(self, path3):
        counter = hr.BuildCounter()
        hr.multi_uplift(path3, 5, (1, 2), counter)
        assert (counter.uplift_ops, counter.project_ops) == ((5 - 2) * 2, 0)

    def test_project_counter(self, example6):
        counter = hr.BuildCounter()
        hr.project(example6, 2, counter)
        # {2,3,4,5} -> 6 pairs, {4,5,6} -> 3 pairs, 2 touches each
        assert counter.project_ops == 2 * (6 + 3)

    def test_counters_match_closed_form_on_random_inputs(self):
        rng = random.Random(4242)
        for _ in range(50):
            h = random_hypergraph(rng, n_max=8, size_max=6, n_edges_max=10)
            m = h.max_size + rng.randint(0, 2)
            p = rng.randint(2, h.max_size)
            counter = hr.BuildCounter()
            hr.uplift(h, m, counter)
            hr.project(h, p, counter)
            up, pr = self.closed_form(h, m, p)
            assert counter.uplift_ops == up
            assert counter.project_ops == pr
