import math
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hyperrank as hr
import hyperrank.hypergraph as hg
import reference
from hyperrank.hypergraph import _sorted_distinct, component_roots
from conftest import child_env
from oracles import random_hypergraph


def comp_labels(h, comps):
    return [sorted(h.labels[i] for i in c) for c in comps]


class TestConnectedComponents:
    def test_fig1_single_component(self, fig1):
        comps = hr.connected_components(fig1)
        assert comp_labels(fig1, comps) == [[1, 2, 3, 4, 5]]
        assert hr.is_strongly_connected(fig1)

    def test_disjoint_edges(self):
        h = hr.Hypergraph.from_edge_list([[1, 2], [3, 4]])
        comps = hr.connected_components(h)
        assert comp_labels(h, comps) == [[1, 2], [3, 4]]
        assert not hr.is_strongly_connected(h)

    def test_isolated_nodes_are_singletons(self):
        h = hr.Hypergraph.from_edge_list([], nodes=[1, 2, 3])
        comps = hr.connected_components(h)
        assert comp_labels(h, comps) == [[1], [2], [3]]

    def test_no_nodes_no_components(self):
        assert hr.connected_components(hr.Hypergraph(0)) == []


class TestLargestConnectedComponent:
    def test_picks_larger_component(self):
        h = hr.Hypergraph.from_edge_list([[1, 2], [3, 4], [4, 5]])
        lcc = hr.largest_connected_component(h)
        assert lcc.labels == (3, 4, 5)
        assert sorted(tuple(lcc.labels[v] for v in e.nodes) for e in lcc.edges) == [
            (3, 4), (4, 5)
        ]

    def test_identity_on_connected(self, fig1):
        lcc = hr.largest_connected_component(fig1)
        assert lcc.labels == fig1.labels
        assert lcc.edges == fig1.edges

    def test_tie_breaks_by_smallest_label(self):
        h = hr.Hypergraph.from_edge_list([[7, 8], [1, 3]])
        lcc = hr.largest_connected_component(h)
        assert lcc.labels == (1, 3)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            h = random_hypergraph(rng)
            once = hr.largest_connected_component(h)
            twice = hr.largest_connected_component(once)
            assert once.labels == twice.labels
            assert once.edges == twice.edges


class TestOrderSlice:
    def test_fig1_pairs(self, fig1):
        sl = hr.order_slice(fig1, 2)
        assert sl.labels == (2, 3, 4, 5)
        assert sorted(tuple(sl.labels[v] for v in e.nodes) for e in sl.edges) == [
            (2, 4), (3, 5)
        ]

    def test_fig1_triples(self, fig1):
        sl = hr.order_slice(fig1, 3)
        assert sl.labels == (1, 2, 3)
        assert [tuple(sl.labels[v] for v in e.nodes) for e in sl.edges] == [(1, 2, 3)]

    def test_missing_order_gives_empty(self, fig1):
        sl = hr.order_slice(fig1, 7)
        assert sl.n == 0 and sl.edges == ()

    def test_rejects_order_below_two(self, fig1):
        with pytest.raises(hr.DataError):
            hr.order_slice(fig1, 1)


class TestStats:
    def test_fig1(self, fig1):
        rec = hr.stats(fig1)
        assert rec.nodes == 5 and rec.edges == 3
        assert rec.size_histogram == {2: 2, 3: 1}
        assert rec.lcc_fraction == 1.0

    def test_single_edge(self):
        rec = hr.stats(hr.Hypergraph.from_edge_list([[1, 2]]))
        assert (rec.nodes, rec.edges, rec.size_histogram) == (2, 1, {2: 1})

    def test_per_order_matches_slices(self):
        rng = random.Random(11)
        for _ in range(20):
            h = random_hypergraph(rng)
            rec = hr.stats(h)
            assert sum(rec.size_histogram.values()) == rec.edges
            for m, row in rec.per_order.items():
                sl = hr.order_slice(h, m)
                assert row.edges == rec.size_histogram[m] == len(sl.edges)
                assert row.nodes == sl.n

    @given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=5), max_size=12),
           st.lists(st.integers(10, 13), max_size=3), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    @example([], [], False, False)  # no nodes
    @example([], [10, 11], False, False)  # nodes but no edges
    @example([[1, 1], [2, 3, 3]], [], True, True)  # repeats, then an aux node
    def test_matches_edge_scan_reference(self, edges, isolated, keep, lift):
        # isolated nodes, repeated nodes kept as multiplicities, an uplift's
        # aux node (repeated in the rows it pads) and edgeless hypergraphs
        if not keep:
            edges = [e for e in edges if len(set(e)) >= 2]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # repeats collapsing to a set
            h = hr.Hypergraph.from_edge_list(edges, nodes=isolated,
                                             keep_multiplicities=keep)
        if lift and h.blocks:
            h = hr.uplift(h, h.max_size + 1)
        rec = hr.stats(h)
        assert rec == reference.stats(h)
        shares = [rec.lcc_fraction, *(row.lcc_fraction for row in rec.per_order.values())]
        assert all(type(share) is float for share in shares)

    def test_makes_no_slice_and_no_component_list(self, monkeypatch):
        # each order's share is read off its own block's component roots
        def refuse(*args):
            raise AssertionError("stats called a slice or component-list builder")

        monkeypatch.setattr(hg, "order_slice", refuse)
        monkeypatch.setattr(hg, "connected_components", refuse)
        h = hr.Hypergraph.from_edge_list([[1, 2, 3], [2, 4], [3, 5], [6, 7], [8, 9, 9]],
                                         keep_multiplicities=True)
        assert hr.stats(h) == reference.stats(h)
        assert "_label_rank" not in vars(h)  # no label sort either


class TestFlatteningAgreement:
    def test_components_match_flattening_graph(self):
        # partition from shared-edge union-find == components of the pairwise
        # flattening of the uniformized tensor
        rng = random.Random(23)
        for _ in range(30):
            h = random_hypergraph(rng, n_max=8)
            g = hr.uplift(h, h.max_size)
            mat = hr.flattening_matrix(hr.from_hypergraph(g))
            adj = (mat > 0) | (mat > 0).T
            np.fill_diagonal(adj, False)
            seen = np.zeros(g.n, dtype=bool)
            flat_comps = []
            for start in range(g.n):
                if seen[start]:
                    continue
                stack, comp = [start], []
                seen[start] = True
                while stack:
                    v = stack.pop()
                    comp.append(v)
                    for w in np.nonzero(adj[v])[0]:
                        if not seen[w]:
                            seen[w] = True
                            stack.append(int(w))
                flat_comps.append(sorted(comp))
            uf_comps = sorted(sorted(c) for c in hr.connected_components(g))
            assert sorted(flat_comps) == uf_comps
            # a node repeated in a row (the star padding a short edge) joins
            # as its distinct nodes do
            distinct = [np.array([e.nodes]) for e in g.edges]
            assert np.array_equal(component_roots(g.n, distinct),
                                  component_roots(g.n, [g.blocks[g.max_size][0]]))


class TestConstruction:
    def test_duplicate_edges_merge_weights(self):
        h = hr.Hypergraph.from_edge_list([[1, 2], [2, 1]])
        assert len(h.edges) == 1
        assert h.edges[0].weight == 2.0

    def test_repeated_nodes_collapse_with_warning(self):
        with pytest.warns(UserWarning):
            h = hr.Hypergraph.from_edge_list([[1, 2, 2]])
        assert h.edges[0].support == ((0, 1), (1, 1))

    def test_keep_multiplicities(self):
        h = hr.Hypergraph.from_edge_list([[1, 2, 2]], keep_multiplicities=True)
        assert h.edges[0].support == ((0, 1), (1, 2))

    def test_rejects_singleton_edge(self):
        with pytest.raises(hr.DataError, match="at least 2 nodes"):
            hr.Hypergraph(4, blocks={1: ([[3]], [1.0])})
        with pytest.raises(hr.DataError, match="at least 2 nodes"):
            hr.Hypergraph.from_edge_list([[1], [1, 2]])
        with pytest.raises(hr.DataError, match="size-0 edge"):
            hr.Hypergraph.from_edge_list([[], [], [1, 2]])

    def test_rejects_nonpositive_weight(self):
        for w in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(hr.DataError, match="positive and finite"):
                hr.Hypergraph(2, blocks={2: ([[0, 1]], [w])})
        # checked before duplicates merge: -0.5 would merge into 1 - 0.5 = 0.5
        with pytest.raises(hr.DataError, match="positive and finite"):
            hr.Hypergraph.from_edge_list([[1, 2], [2, 3], [1, 3], [1, 2]], [1, 2, 1, -0.5])

    def test_rejects_non_ascending_rows(self):
        # [0, 1, 0] would read as node 0 twice in `edges` but as three
        # distinct columns in the tensor
        with pytest.raises(hr.DataError, match="not ascending"):
            hr.Hypergraph(2, blocks={3: ([[0, 1, 0]], [1.0])})
        assert hr.Hypergraph(2, blocks={3: ([[0, 0, 1]], [1.0])}).num_edges == 1

    @pytest.mark.parametrize("n, labels, blocks, message", [
        (-1, (), {}, "node count must be nonnegative"),
        (3, ("a", "b"), {}, "labels must have length n"),
        (3, ("a", "b", "a"), {}, "labels must be distinct"),
        (3, (), {2: ([[0, 1], [1, 2]], [1.0])}, r"size-2 block has shape \(2, 2\)"),
        (3, (), {2: ([[0, 1, 2]], [1.0])}, r"size-2 block has shape \(1, 3\)"),
        (3, (), {2: ([[1, 3]], [1.0])}, r"size-2 block references a node outside 0\.\.2"),
        (3, (), {3: ([[-1, 0, 1]], [1.0])}, r"size-3 block references a node outside 0\.\.2"),
    ])
    def test_rejects_malformed_arguments(self, n, labels, blocks, message):
        with pytest.raises(hr.DataError, match=message):
            hr.Hypergraph(n, labels, blocks=blocks)

    def test_empty_block_is_dropped(self):
        h = hr.Hypergraph(3, blocks={2: ([[0, 1]], [1.0]), 3: (np.zeros((0, 3)), [])})
        assert list(h.blocks) == [2] and h.max_size == 2

    def test_aux_spec_aligns_nodes_and_multiplicities(self):
        with pytest.raises(hr.DataError, match="must align"):
            hr.AuxSpec((0, 1), (None,))
        assert not hr.AuxSpec()
        assert hr.AuxSpec((0,), (None,))

    def test_rejects_aux_node_that_is_not_an_index(self):
        # a -1 would index from the end: `largest_connected_component` would
        # make real node e the aux node, and `hec` would leave e unranked
        blocks = {2: ([[0, 1], [2, 3], [3, 4]], [1.0, 1.0, 1.0])}
        for a in (-1, 5, 1.0, 4.5, True):
            with pytest.raises(hr.DataError, match=rf"aux node {a!r} is not an index in 0\.\.4"):
                hr.Hypergraph(5, labels=tuple("abcde"), aux=hr.AuxSpec((a,), (None,)),
                              blocks=blocks)
        h = hr.Hypergraph(5, aux=hr.AuxSpec((np.int64(4),), (None,)), blocks=blocks)
        assert h.aux.nodes == (4,)

    def test_weights_must_match_edges(self):
        for weights in ([1.0], 1.0):
            with pytest.raises(hr.DataError, match="one per edge"):
                hr.Hypergraph.from_edge_list([[1, 2], [2, 3]], weights)
        # the labels the edges list must be hashable too
        for build in (lambda edges: hr.Hypergraph.from_edge_list(edges, [1.0, 1.0]),
                      hr.build_preprocessed):
            with pytest.raises(hr.DataError, match=r"hashable, got \[2\]"):
                build([[1, [2]], [2, 3]])
        with pytest.raises(hr.DataError, match="hashable"):
            hr.Hypergraph(2, labels=("a", {"b": 1}))

    def test_blocks_are_read_only_copies(self):
        rows = np.array([[0, 1], [1, 2]])
        weight = np.array([1.0, 2.0])
        h = hr.Hypergraph(3, blocks={2: (rows, weight)})
        rows[0, 0] = 2  # the caller's arrays stay writable and are not shared
        assert h.blocks[2][0].tolist() == [[0, 1], [1, 2]]
        with pytest.raises(ValueError):
            h.blocks[2][1][0] = 5.0
        with pytest.raises(TypeError):
            h.blocks[3] = h.blocks[2]
        with pytest.raises(AttributeError):
            h.n = 4

    def test_labels_roundtrip(self):
        h = hr.Hypergraph.from_edge_list([["b", "a"], ["a", "c"]])
        assert h.labels == ("a", "b", "c")

    @given(st.lists(
        st.lists(st.integers(0, 9), min_size=2, max_size=5).map(
            lambda e: sorted(set(e)) if len(set(e)) >= 2 else [0, 1]
        ),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=50, deadline=None)
    def test_indices_always_dense(self, edges):
        h = hr.Hypergraph.from_edge_list(edges)
        assert all(0 <= v < h.n for e in h.edges for v in e.nodes)
        assert len(h.labels) == h.n


INT64 = np.iinfo(np.int64)


class TestSortedDistinct:
    @given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                      elements=st.one_of(st.integers(-3, 3),
                                         st.sampled_from([INT64.min, INT64.max]),
                                         st.integers(INT64.min, INT64.max))))
    @example(np.zeros(0, dtype=np.int64))
    @example(np.zeros((2, 0, 3), dtype=np.int64))
    @example(np.full((3, 2), 7, dtype=np.int64))
    @example(np.array(INT64.min))
    @example(np.array([[INT64.max, INT64.min], [INT64.max, 0]]))
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, a):
        got, want = _sorted_distinct(a), np.unique(a)
        assert (got.dtype, got.shape, got.tolist()) == (want.dtype, want.shape, want.tolist())


class TestPreprocess:
    def test_pipeline_counts(self):
        simplices = [[7], [1, 2], [2, 1], [3, 3, 4], [9, 9]]
        h, report = hr.build_preprocessed(simplices)
        assert report.raw_simplices == 5
        assert report.dropped_small == 2  # [7] and the collapsed [9,9]
        assert report.merged_duplicates == 1  # [1,2] and [2,1]
        assert report.dropped_isolated == 2  # ids 7 and 9 vanish
        assert h.n == 4 and len(h.edges) == 2
        merged = {tuple(h.labels[v] for v in e.nodes): e.weight for e in h.edges}
        assert merged == {(1, 2): 2.0, (3, 4): 1.0}

    def test_keep_multiplicities_pipeline(self):
        h, report = hr.build_preprocessed([[1, 2, 5, 5]], keep_multiplicities=True)
        assert h.edges[0].size == 4
        assert report.simplices_with_repeats == 1

    @given(st.lists(st.lists(st.integers(0, 9), max_size=5), min_size=1, max_size=15),
           st.booleans(), st.sampled_from([1, 3, 2**40]), st.integers(-2**62, 2**61))
    @settings(max_examples=150, deadline=None)
    def test_stream_ids_map_by_table_or_by_sort(self, simplices, keep, step, shift):
        # ids 0..9 moved to `step * id + shift`: a narrow span maps through the
        # lookup table, a wide one through a sort; the same blocks and report,
        # and the labels move with the ids
        sizes = [len(x) for x in simplices]
        ids = np.array([v for x in simplices for v in x], dtype=np.int64)
        h, report = hr.preprocess_stream(sizes, ids, keep)
        g, moved = hr.preprocess_stream(sizes, step * ids + shift, keep)
        assert moved == report
        assert g.labels == tuple(step * v + shift for v in h.labels)
        assert [(s, r.tobytes(), w.tobytes()) for s, (r, w) in g.blocks.items()] == \
            [(s, r.tobytes(), w.tobytes()) for s, (r, w) in h.blocks.items()]

    def test_negative_size_is_refused(self):
        with pytest.raises(hr.DataError, match="simplex sizes must be nonnegative"):
            hr.preprocess_stream([2, -1, 1], [1, 2])

    def test_size_stream_whose_int64_sum_wraps_is_refused(self):
        # four sizes near 2**62 sum to 3 in int64; trusted, that count made
        # the ingest kernel write past its buffer and crash the interpreter,
        # so the call runs in a child process
        code = ("import numpy as np, hyperrank as hr\n"
                "try:\n"
                "    hr.preprocess_stream(np.array([2**62, 2**62, 2**62, 2**62 + 3]),\n"
                "                         np.array([1, 2, 3]))\n"
                "except hr.DataError as exc:\n"
                "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("count mismatch: the simplex sizes sum to "
                               "18446744073709551619 but the id stream holds 3 ids\n")
