"""The size-class array kernels against the object-path reference
(`reference.py`) and the dense oracle, on small random non-uniform
hypergraphs."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperrank as hr
import reference
from hyperrank.hypergraph import _edge_blocks, merge_rows
from hyperrank.tensor import _CompositionTensor, _contraction, _uplifted, _UpliftTensor
from hyperrank.uniformize import (_MAX_ORDER, MAX_PROJECTED_ROWS, _alpha, _composition_rows,
                                  projected_rows)
from oracles import dense_apply

INT64 = np.iinfo(np.int64)


@st.composite
def hypergraphs(draw, n_max=6, size_max=4):
    """Weighted simple hypergraph with mixed sizes, reduced to its largest
    connected component."""
    n = draw(st.integers(3, n_max))
    edges, weights = [], []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(2, min(n, size_max)))
        edges.append(draw(st.permutations(range(n)))[:size])
        weights.append(draw(st.floats(0.25, 2.0)))
    h = hr.Hypergraph.from_edge_list(edges, weights, nodes=range(n))
    return hr.largest_connected_component(h)


def build(h, kind, m, aux_gauge):
    """The uniform hypergraph of one construction, built by the array path,
    and the same built by the reference; "project" is the plain order-2
    projection."""
    if kind == "project":
        got, ref = hr.project(h, 2), reference.project(h, 2)
    elif kind == "uplift":
        got, ref = hr.uplift(h, m), reference.uplift(h, m)
    elif kind == "uplift_project":
        got, ref = hr.uplift_project(h, m), reference.uplift_project(h, m)
    else:
        got = hr.alternative_uniformization(hr.project(h, m), m)
        ref = reference.alternative_uniformization(reference.project(h, m), m)
    if aux_gauge:
        got, ref = hr.uplift(got, got.max_size + 1), reference.uplift(ref, ref.max_size + 1)
    return got, ref


def gauge(t):
    """The aux gauge over t, as the solver builds it: t is the one part of
    its uplift one order up."""
    return _UpliftTensor((t,), t.order + 1, t.hypergraph)


def check_view_is_materialized(view, up, xrng):
    """The uplift view `view` (the aux gauge included) against the tensor of
    the materialized uplift `up`: shape, labels and aux, entries, dense
    array, contraction and the H-eigenpair residual, to rounding."""
    want = hr.from_hypergraph(up)
    assert (view.order, view.dim) == (want.order, want.dim)
    assert (view.labels, view.aux) == (up.labels, up.aux)
    assert [s for s, _ in view.entries] == [s for s, _ in want.entries]
    for (_, got), (_, value) in zip(view.entries, want.entries):
        assert got == pytest.approx(value, rel=1e-14)
    np.testing.assert_allclose(hr.dense_oracle(view), hr.dense_oracle(want),
                               rtol=1e-14, atol=0)
    for _ in range(3):
        x = xrng.uniform(-1, 1, view.dim)
        assert np.max(np.abs(hr.apply(view, x) - hr.apply(want, x))) <= 1e-12
    x = xrng.uniform(0.5, 1.5, view.dim)
    lam = float(xrng.uniform(0.5, 2.0))
    assert hr.verify_h_eigenpair(view, lam, x).residual == pytest.approx(
        hr.verify_h_eigenpair(want, lam, x).residual, rel=1e-12)


KINDS = ("uplift", "project", "uplift_project", "alt")


def kernel_mults(t):
    """The multiplicity pattern of each apply kernel of `t`: column j's
    leave-one-out factor sequence holds j mult_j - 1 times."""
    return [tuple(seq.count(j) + 1 for j, seq in enumerate(sequences))
            for _, _, _, sequences in t._apply_arrays]


class TestTensorKernel:
    @given(hypergraphs(), st.sampled_from(KINDS), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_apply_matches_reference_and_dense(self, h, kind, aux_gauge, data):
        big_m = h.max_size
        if kind == "uplift_project":
            m = data.draw(st.integers(2, big_m))
        else:
            m = big_m + data.draw(st.integers(0, 1))
        g, ref = build(h, kind, m, aux_gauge)
        assert g.labels == ref.labels
        assert g.aux == ref.aux
        t = hr.from_hypergraph(g)
        assert (t.order, t.dim) == (ref.max_size, ref.n)
        assert sum(cells.size for _, cells, _, _ in t._apply_arrays) == \
            sum(len(s) for s, _ in t.entries)

        want = reference.tensor_entries(ref)
        assert len(t.entries) == len(want)
        assert [s for s, _ in t.entries] == [s for s, _ in want]
        for (_, got), (_, value) in zip(t.entries, want):
            assert got == pytest.approx(value, rel=1e-14)

        rows = reference.apply_rows(t.order, want)
        dense = hr.dense_oracle(t)
        xrng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(3):
            x = xrng.uniform(-1, 1, t.dim)
            y = hr.apply(t, x)
            assert np.max(np.abs(y - reference.apply(rows, t.dim, x))) <= 1e-12
            assert np.max(np.abs(y - dense_apply(dense, x))) <= 1e-12

    @given(hypergraphs(), st.sampled_from(KINDS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_gauged_view_is_the_uplifted_tensor(self, h, kind, data):
        # the aux gauge as an operator on the base tensor is the tensor of
        # the hypergraph uplifted one more order, to rounding
        if kind == "uplift_project":
            m = data.draw(st.integers(2, h.max_size))
        else:
            m = h.max_size + data.draw(st.integers(0, 1))
        g, _ = build(h, kind, m, aux_gauge=False)
        view = gauge(hr.from_hypergraph(g))
        assert view.hypergraph is g
        xrng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        check_view_is_materialized(view, hr.uplift(g, g.max_size + 1), xrng)

    def test_multiset_rows_split_into_patterns(self, two_aux_uplift):
        t = hr.from_hypergraph(two_aux_uplift)
        assert sorted(kernel_mults(t)) == [(1, 1, 1, 2)]
        t6 = hr.from_hypergraph(hr.uplift(two_aux_uplift, 6))
        assert sorted(kernel_mults(t6)) == [(1, 1, 1, 2, 1)]
        assert t6.entries == reference.tensor_entries(reference.uplift(two_aux_uplift, 6))


def fresh_contraction(t, vec):
    """`reference.contract_kernels` on t; on an uplift view, each part's
    fresh contraction of the real part, scaled by the star's powers as
    `tensor.apply` states them and added in part order. The aux gauge (one
    part, k = 1) is the earlier rescaling of the base contraction."""
    if not isinstance(t, _UpliftTensor):
        return reference.contract_kernels(t._apply_arrays, vec, t.dim)
    real, star, m = vec[:-1], vec[-1], t.order
    if len(t.parts) == 1 and t.parts[0].order == m - 1:
        z, m = fresh_contraction(t.parts[0], real), m - 1
        return np.append(m / (m + 1) * vec[-1] * z, (real * z).sum() / (m + 1))
    y = np.zeros(t.dim)
    for part in t.parts:
        z, k = fresh_contraction(part, real), m - part.order
        if k:
            den = m * math.factorial(k - 1)
            y[-1] += (real * z).sum() * star ** (k - 1) * k / den
            z = part.order / den * star ** k * z
        y[:-1] += z
    return y


def tensor_of(h, kind, m, gauged):
    """The tensor a pipeline solves on for one construction: the uplift
    view for "uplift" and "uplift_project", and the materialized ALT
    tensor for "alt"; with `gauged`, its aux gauge."""
    if kind in ("uplift", "uplift_project"):  # the view projects h itself
        t = _uplifted(h, m)
    else:
        t = hr.from_hypergraph(build(h, kind, m, aux_gauge=False)[0])
    return gauge(t) if gauged else t


class TestContractionBuffers:
    @given(hypergraphs(), st.sampled_from(["uplift", "uplift_project", "alt"]),
           st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_kept_buffers_give_fresh_results_bit_for_bit(self, h, kind, gauged, data):
        # one solver contraction refills its buffers on every call; each
        # result, and `apply`'s, is the fresh-array contraction's to the bit
        if kind == "uplift_project":
            m = data.draw(st.integers(2, h.max_size))
        else:
            m = h.max_size + data.draw(st.integers(0, 1))
        t = tensor_of(h, kind, m, gauged)
        contract = _contraction(t)
        xrng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(3):
            x = xrng.uniform(0.5, 1.5, t.dim)
            want = fresh_contraction(t, x).view(np.int64)
            assert np.array_equal(contract(x).view(np.int64), want)
            assert np.array_equal(hr.apply(t, x).view(np.int64), want)

    @pytest.mark.parametrize("rows", [[[0, 0], [0, 1], [1, 2], [2, 2]],
                                      [[0, 0, 1], [0, 1, 2], [1, 2, 2], [2, 2, 2]]])
    def test_rows_with_repeated_nodes(self, rows):
        h = hr.Hypergraph(3, blocks={len(rows[0]): (np.array(rows), np.arange(1.0, 5.0))})
        xrng = np.random.default_rng(7)
        for t in (hr.from_hypergraph(h), gauge(hr.from_hypergraph(h)),
                  _uplifted(h, len(rows[0]) + 2)):
            contract = _contraction(t)
            for _ in range(3):
                x = xrng.uniform(0.5, 1.5, t.dim)
                want = fresh_contraction(t, x).view(np.int64)
                assert np.array_equal(contract(x).view(np.int64), want)


class TestCompositionView:
    @given(hypergraphs(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_view_is_the_materialized_tensor_bit_for_bit(self, h, gauged, data):
        # the view's kernels, a solver contraction over 3 successive vectors,
        # `apply` and the entries are those of the materialized ALT tensor
        m = data.draw(st.integers(max(2, h.max_size - 2), 7))
        view = _CompositionTensor(h, m)
        g = view.hypergraph  # the view projects h itself
        assert g.edges == hr.project(h, m).edges
        want = hr.from_hypergraph(hr.alternative_uniformization(g, m))
        assert (view.order, view.dim) == (want.order, want.dim)
        for (rows, cells, coef, seq), (w_rows, w_cells, w_coef, w_seq) in zip(
                view._apply_arrays, want._apply_arrays, strict=True):
            assert np.array_equal(rows, w_rows) and np.array_equal(cells, w_cells)
            assert (coef.tobytes(), seq) == (w_coef.tobytes(), w_seq)
        if gauged:
            view, want = gauge(view), gauge(want)
            assert view.hypergraph is g
        contract = _contraction(view)
        xrng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(3):
            x = xrng.uniform(0.5, 1.5, view.dim)
            expected = fresh_contraction(want, x).view(np.int64)
            assert np.array_equal(contract(x).view(np.int64), expected)
            assert np.array_equal(hr.apply(view, x).view(np.int64), expected)
        with mock.patch.object(np, "take", wraps=np.take) as take:
            contract(x)
        assert take.call_count == len(g.blocks)  # one gather per size
        assert view.entries == want.entries

    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_each_product_is_taken_once(self, m):
        # the sequences on one rows array (every composition of one size)
        # share their products: one multiplication per distinct prefix of
        # two or more factors, where a chain per sequence takes one for each
        # factor after its first
        g = hr.Hypergraph.from_edge_list([[0, 1], [1, 2, 3], [0, 2, 3, 4], [1, 2, 3, 4, 5]])
        view = _CompositionTensor(g, m)
        prefixes, steps = {}, 0
        for rows, _, _, sequences in view._apply_arrays:
            for seq in sequences:
                prefixes.setdefault(id(rows), set()).update(
                    seq[:k] for k in range(2, len(seq) + 1))
                steps += len(seq) - 1
        distinct = sum(map(len, prefixes.values()))
        assert len(prefixes) == len(g.blocks) and distinct < steps
        if m == 5:
            assert (steps, distinct) == (141, 108)
        contract = _contraction(view)
        with mock.patch.object(np, "multiply", wraps=np.multiply) as multiply:
            contract(np.full(view.dim, 1.0 / view.dim))
        assert multiply.call_count == distinct

    @pytest.mark.parametrize("h, m, message", [
        # 217 rows of size 10 make C(19, 9) = 92,378 composition rows each
        (hr.Hypergraph(217 * 9 + 1, blocks={10: (
            np.arange(10) + 9 * np.arange(217)[:, None], np.ones(217))}), 20,
         "uniformizing to order 20 would generate 20046026 composition rows"),
        (hr.Hypergraph(3, blocks={3: (np.array([[0, 0, 1], [0, 1, 2]]), np.ones(2))}), 4,
         "alternative uniformization requires simple \\(set\\) hyperedges"),
        (hr.Hypergraph.from_edge_list([[0, 1], [1, 2]]), 21,
         "tensor order 21 exceeds supported 20"),
    ])
    def test_alt_refuses_as_the_materialized_construction(self, h, m, message):
        # the view runs the construction's refusals, with its messages
        for build in (lambda: hr.alternative_uniformization(hr.project(h, m), m),
                      lambda: hr.alt_centrality(h, m)):
            with pytest.raises(hr.DataError, match=message):
                build()


class TestUpliftView:
    @given(hypergraphs(), st.booleans(), st.integers(0, 2), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_view_is_the_materialized_uplift(self, h, projected, bump, gauged, data):
        # uhec's and uphec's tensor, and the aux gauge over it, as views of
        # the size classes are the tensors of the padded rows
        m = data.draw(st.integers(2, h.max_size)) if projected else h.max_size + bump
        projection = hr.project(h, m)  # h itself when no edge exceeds m
        view, up = _uplifted(h, m), hr.uplift(projection, m)
        g = view.hypergraph  # the view projects h itself
        assert g.edges == projection.edges
        if up is projection:  # uplift's identity case: no star
            assert type(view) is hr.UniformTensor
        if gauged:
            view, up = gauge(view), hr.uplift(up, m + 1)
            assert view.hypergraph is g
        xrng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        check_view_is_materialized(view, up, xrng)

    @pytest.mark.parametrize("m", [6, 7])
    def test_rows_with_repeated_nodes(self, two_aux_uplift, m):
        mixed = hr.Hypergraph.from_edge_list(
            [[1, 1, 2], [2, 3, 3, 3], [1, 3], [1, 2, 3, 3, 3]], [1.0, 2.0, 0.5, 1.5],
            keep_multiplicities=True)
        xrng = np.random.default_rng(m)
        for g in (two_aux_uplift, mixed):
            check_view_is_materialized(_uplifted(g, m), hr.uplift(g, m), xrng)
            check_view_is_materialized(gauge(_uplifted(g, m)),
                                       hr.uplift(hr.uplift(g, m), m + 1), xrng)

    @pytest.mark.parametrize("m, message", [
        (2, "cannot uplift below max edge size: m=2 < M=3"),
        (21, "tensor order 21 exceeds supported 20"),
    ])
    def test_refuses_as_uplift(self, fig1, m, message):
        for build in (lambda: hr.uplift(fig1, m), lambda: hr.uhec(fig1, m)):
            with pytest.raises(hr.DataError, match=message):
                build()
        with pytest.raises(hr.DataError, match="tensor order 21 exceeds supported 20"):
            hr.uhec(fig1, 20, aux_gauge=True)

    @pytest.mark.parametrize("aux_gauge", [False, True])
    def test_pipelines_build_no_uplift(self, example6, aux_gauge):
        # the solves run on views: the materialized constructions are never
        # called, and the scores are the reference's
        opts = hr.SolverOptions(tol=1e-13)
        with mock.patch("hyperrank.uniformize.uplift", side_effect=AssertionError), \
                mock.patch("hyperrank.uniformize.uplift_project",
                           side_effect=AssertionError):
            results = [(hr.uhec(example6, m, opts, aux_gauge), "uplift", m)
                       for m in (4, 5)]
            results += [(hr.uphec(example6, p, opts, aux_gauge), "uplift_project", p)
                        for p in (2, 3, 4)]
        for res, kind, m in results:
            lam, scores = reference.centrality(
                reference.construction(example6, kind, m, aux_gauge), 1e-13)
            assert res.converged
            assert np.max(np.abs(res.scores.values - scores)) <= 1e-12
            assert res.eigenvalue == pytest.approx(lam, rel=1e-10)


class TestKernelOwnership:
    @given(hypergraphs(), st.sampled_from(["project", "uplift", "uplift_project", "alt"]),
           st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_contraction_reads_only_arrays_its_tensor_owns(self, h, kind, gauged, data):
        # numpy copies a read-only `take` index on every call: every
        # kernel's rows and cells are writable arrays that the tensor made,
        # and the compositions of one size share them: one column-major copy
        # of the rows, also when every row has size m
        if kind == "alt":
            m = data.draw(st.integers(max(2, h.max_size - 2), 7))
            t = _CompositionTensor(h, m)
        else:
            m = data.draw(st.integers(2, h.max_size)) if kind == "uplift_project" \
                else h.max_size
            t = hr.from_hypergraph(build(h, kind, m, aux_gauge=False)[0])
        kernels, by_size = t._apply_arrays, {}
        for rows, cells, _, _ in kernels:
            assert rows.flags.writeable and cells.flags.writeable
            by_size.setdefault(rows.shape[1], set()).add((id(rows), id(cells)))
        if kind == "alt":
            assert all(len(arrays) == 1 for arrays in by_size.values())
            assert all(rows.flags.f_contiguous for rows, _, _, _ in kernels)
        if gauged:
            t = gauge(t)
        contract = _contraction(t)
        with mock.patch.object(np, "take", wraps=np.take) as take, \
                mock.patch.object(np, "add", wraps=np.add) as add:
            contract(np.full(t.dim, 1.0 / t.dim))
        assert all(call.args[1].flags.writeable for call in take.call_args_list)
        # one accumulation per kernel, in kernel order, into its own cells
        accumulations = add.at.call_args_list
        assert len(accumulations) == len(kernels)
        for call, (_, cells, _, _) in zip(accumulations, kernels):
            assert call.args[1] is cells and call.args[1].flags.writeable


class TestPipelinesMatchReference:
    @given(hypergraphs(), st.sampled_from(["hec", "uhec", "uphec", "alt"]),
           st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_scores(self, h, method, aux_gauge, data):
        opts = hr.SolverOptions(tol=1e-13)
        big_m = h.max_size
        if method == "hec":
            size = data.draw(st.sampled_from(sorted(h.blocks)))
            h = hr.largest_connected_component(hr.order_slice(h, size))
            res = hr.hec(h, opts, aux_gauge=aux_gauge)
            ref = reference.construction(h, "uplift", size, aux_gauge)
        elif method == "uhec":
            m = big_m + data.draw(st.integers(0, 1))
            res = hr.uhec(h, m, opts, aux_gauge=aux_gauge)
            ref = reference.construction(h, "uplift", m, aux_gauge)
        elif method == "uphec":
            p = data.draw(st.integers(2, big_m))
            res = hr.uphec(h, p, opts, aux_gauge=aux_gauge)
            ref = reference.construction(h, "uplift_project", p, aux_gauge)
        else:
            m = data.draw(st.integers(2, big_m + 1))
            res = hr.alt_centrality(h, m, opts, aux_gauge=aux_gauge)
            ref = reference.construction(h, "alt", m, aux_gauge)
        lam, scores = reference.centrality(ref, 1e-13)
        assert res.converged
        assert res.labels == tuple(ref.labels[i] for i in range(ref.n)
                                   if i not in ref.aux.nodes)
        assert np.max(np.abs(res.scores.values - scores)) <= 1e-12
        assert res.eigenvalue == pytest.approx(lam, rel=1e-10)

    @given(hypergraphs())
    @settings(max_examples=30, deadline=None)
    def test_eigenvector_centrality(self, h):
        pairs = hr.project(h, 2)
        res = hr.eigenvector_centrality(hr.from_hypergraph(pairs),
                                        hr.SolverOptions(tol=1e-13))
        lam, scores = reference.centrality(reference.project(h, 2), 1e-13)
        assert np.max(np.abs(res.scores.values - scores)) <= 1e-12
        assert res.eigenvalue == pytest.approx(lam, rel=1e-10)


@st.composite
def padded_graphs(draw, n_max=7):
    """(edges, weights, p): a random connected graph on the labels 10, 11, ...
    and aux multiplicities p, a tuple of positive ints summing to 1..5."""
    n = draw(st.integers(2, n_max))
    nodes = draw(st.permutations(range(10, 10 + n)))
    edges = [[nodes[k], nodes[draw(st.integers(0, k - 1))]] for k in range(1, n)]
    for _ in range(draw(st.integers(0, 5))):
        edges.append(draw(st.permutations(nodes))[:2])
    weights = [draw(st.floats(0.25, 2.0)) for _ in edges]
    p = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    return edges, weights, p[:1] if sum(p) > 5 else p


@st.composite
def uniform_multisets(draw):
    """A uniform hypergraph whose edges draw m nodes with repetition from a
    few labels; most are not uplifts."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(3, 6))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
                          min_size=1, max_size=6))
    weights = [draw(st.floats(0.25, 2.0)) for _ in edges]
    return hr.Hypergraph.from_edge_list(edges, weights, keep_multiplicities=True)


def z_outcome(solve, h, norm):
    """(eigenvector bytes, eigenvalue) of one Z-eigenpair solver, or the
    type of the error it raised."""
    try:
        vector, value = solve(h, norm)
    except hr.HyperrankError as exc:
        return type(exc)
    return vector.tobytes(), value


def package_z(h, norm):
    pair = hr.z_via_uplift(h, norm)
    return pair.eigenvector.values, pair.eigenvalue


class TestUpliftDetectionMatchesReference:
    """The block scan of `detect_uplift_structure` and `z_via_uplift` against
    the edge-by-edge reference: the same `AuxSpec` (or None), and the same
    vector and eigenvalue bit for bit."""

    def check(self, h):
        assert hr.detect_uplift_structure(h) == reference.detect_uplift_structure(h)
        for norm in ("z1", "z2"):
            want = z_outcome(reference.z_via_uplift, h, norm)
            assert z_outcome(package_z, h, norm) == want

    @given(padded_graphs())
    @settings(max_examples=60, deadline=None)
    def test_multi_uplift(self, graph):
        edges, weights, p = graph
        g = hr.Hypergraph.from_edge_list(edges, weights)
        self.check(hr.multi_uplift(g, 2 + sum(p), p))

    @given(padded_graphs())
    @settings(max_examples=60, deadline=None)
    def test_aux_labels_sort_first(self, graph):
        # aux labels 0, 1, ... sort before the graph's 10, 11, ..., so the
        # aux nodes take the lowest indices, and the highest-index preference
        # can pick graph nodes where every edge shares one
        edges, weights, p = graph
        pad = [k for k, c in enumerate(p) for _ in range(c)]
        h = hr.Hypergraph.from_edge_list([e + pad for e in edges], weights,
                                         keep_multiplicities=True)
        self.check(h)

    @given(padded_graphs(), st.integers(0, 2), st.integers(0, 2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_plain_uplift(self, graph, triples, extra, data):
        # the auxiliary node pads pairs and triples to different multiplicities
        edges, weights, _ = graph
        nodes = sorted({v for e in edges for v in e})
        if len(nodes) >= 3:
            for _ in range(triples):
                edges.append(data.draw(st.permutations(nodes))[:3])
                weights.append(1.0)
        h = hr.Hypergraph.from_edge_list(edges, weights)
        self.check(hr.uplift(h, max(3, h.max_size) + extra))

    @given(uniform_multisets())
    @settings(max_examples=150, deadline=None)
    def test_random_uniform_inputs(self, h):
        self.check(h)


def drawn_compositions(total, parts, count=8):
    """Up to `count` compositions of total into parts, each from seeded cut
    points: sampled, as order 20 has 2^19 of them."""
    rng = np.random.default_rng([total, parts])
    cuts = {tuple(np.sort(rng.choice(np.arange(1, total), parts - 1, replace=False)).tolist())
            for _ in range(count)}
    return sorted(tuple(np.diff((0,) + c + (total,)).tolist()) for c in cuts)


class TestCountsUpToOrderCap:
    """Each arrangement count at every order up to the cap against the
    reference's own form of it; the random draws above stay near order 6."""

    orders = [(m, s) for m in range(2, _MAX_ORDER + 1) for s in range(1, m + 1)]

    def test_alpha(self):
        for m, s in self.orders:
            assert _alpha(m, s) == reference.alpha(m, s)

    def test_kernel_counts(self):
        # one row that repeats its node j comp[j] times: the tensor's one
        # kernel holds weight 1 times each column's count
        for m, s in self.orders:
            for comp in drawn_compositions(m, s):
                row = np.repeat(np.arange(s), comp)
                t = hr.from_hypergraph(hr.Hypergraph(s, blocks={m: ([row], [1.0])}))
                (_, _, coef, _), = t._apply_arrays
                _, want, _ = reference.apply_rows(m, t.entries)
                assert coef.tolist() == [want.tolist()]

    def test_omega(self):
        triangle = hr.Hypergraph.from_edge_list([[0, 1], [1, 2], [0, 2]])
        for m in range(3, _MAX_ORDER + 1):
            for s in range(1, m - 1):
                for p in drawn_compositions(m - 2, s):
                    pair = hr.z_via_uplift(hr.multi_uplift(triangle, m, p), "z2")
                    assert pair.omega == reference.omega(m, p)


class TestPreprocessMatchesReference:
    @given(st.lists(st.lists(st.one_of(st.integers(0, 9), st.sampled_from(
        [-1, INT64.min, INT64.max])), max_size=5), min_size=1, max_size=15),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_report_labels_and_edges(self, simplices, keep):
        # raw ids include negative and int64-extreme ones: the stream form
        # densifies them before the ingest kernel sees them
        h, report = hr.build_preprocessed(simplices, keep_multiplicities=keep)
        labels, edges, want = reference.build_preprocessed(simplices, keep)
        assert report.as_dict() == want
        assert h.labels == labels
        assert {e.support: e.weight for e in h.edges} == edges
        # the stream form on the raw ids, whose labels are the ids themselves:
        # same report, and each block's rows are the reference edges spelled
        # out (a node of multiplicity c c times) in lexicographic order
        rows = {}
        for support, w in edges.items():
            row = [v for v, c in support for _ in range(c)]
            rows.setdefault(len(row), []).append((row, w))
        hs, rs = hr.preprocess_stream([len(x) for x in simplices],
                                      [v for x in simplices for v in x], keep)
        want_blocks = {s: tuple(map(list, zip(*sorted(r)))) for s, r in rows.items()}
        got_blocks = {s: (r.tolist(), w.tolist()) for s, (r, w) in hs.blocks.items()}
        assert (rs, hs.labels, got_blocks) == (report, labels, want_blocks)

    @given(st.lists(st.lists(st.one_of(st.integers(0, 6), st.sampled_from("ab")),
                             max_size=6), max_size=12),
           st.booleans(), st.booleans(),
           st.lists(st.integers(0, 9), max_size=3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_edge_list(self, edges, weighted, keep, nodes, data):
        # same labels, block rows, weight bytes, warnings and refusals as the loop
        weights = data.draw(st.lists(st.floats(0.25, 2.0), min_size=len(edges),
                                     max_size=len(edges))) if weighted else None

        def outcome(build):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    h = build(edges, weights, nodes, keep)
                except hr.DataError as exc:
                    got = str(exc)
                else:
                    got = (h.labels, [(s, r.tobytes(), w.tobytes())
                                      for s, (r, w) in h.blocks.items()])
            return got, [str(w.message) for w in caught]

        assert outcome(hr.Hypergraph.from_edge_list) == outcome(reference.from_edge_list)


# weights whose sums depend on their order: 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
ORDERED_WEIGHTS = st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 1.0])
# (row length s, bit length of the largest id) with s * bits at 62, 63 and 64;
# a row packs into one int64 key up to 63
PACKINGS = [(1, 62), (2, 31), (31, 2), (1, 63), (3, 21), (7, 9), (63, 1),
            (2, 32), (4, 16), (16, 4), (64, 1)]


def spelled(rows, weight):
    return rows.shape, rows.tobytes(), weight.tobytes()


class TestIngestKernel:
    @given(st.sampled_from(PACKINGS), st.sampled_from([None, -1, INT64.min, INT64.max]),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_packed_keys_merge_as_lexsort(self, packing, extreme, data):
        # rows drawn from a small pool, so equal rows merge; the same rows and
        # weight bytes as the lexsort merge, and lexsort only where the rows
        # cannot pack: past 63 bits, or with a negative or int64-extreme id
        s, bits = packing
        top = 2 ** bits - 1
        pool = np.array(data.draw(st.lists(
            st.lists(st.integers(0, top), min_size=s, max_size=s),
            min_size=1, max_size=5)), dtype=np.int64)
        pool[0, data.draw(st.integers(0, s - 1))] = top
        rows = pool[[0, *data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                            max_size=12))]]
        if extreme is not None:
            rows[data.draw(st.integers(1, len(rows) - 1)),
                 data.draw(st.integers(0, s - 1))] = extreme
        weight = np.array(data.draw(st.lists(ORDERED_WEIGHTS, min_size=len(rows),
                                             max_size=len(rows))))
        lexsort = mock.Mock(wraps=np.lexsort)
        with mock.patch.object(np, "lexsort", lexsort):
            got = merge_rows(rows, weight)
        assert spelled(*got) == spelled(*reference.merge_rows(rows, weight))
        packs = s * bits <= 63 and (extreme is None or (extreme == INT64.max and s == 1))
        assert lexsort.called != packs

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_heavy_duplicates_sum_in_input_order(self, s, data):
        # a few distinct rows repeated many times, with weights spanning
        # 10^-5 to 10^5: whatever order the key sort leaves equal rows in,
        # each merged weight is the reference's input-order sum to the bit
        pool = np.array(data.draw(st.lists(st.lists(st.integers(0, 9), min_size=s,
                                                    max_size=s),
                                           min_size=1, max_size=4)), dtype=np.int64)
        rows = pool[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=2,
                                       max_size=200))]
        weight = np.array(data.draw(st.lists(
            st.floats(1e-5, 1e5, allow_nan=False).filter(lambda w: w != int(w)),
            min_size=len(rows), max_size=len(rows))))
        assert spelled(*merge_rows(rows, weight)) == \
            spelled(*reference.merge_rows(rows, weight))

    @given(st.lists(st.tuples(st.lists(st.one_of(st.integers(0, 5), st.just(2**40)),
                                       max_size=6), ORDERED_WEIGHTS), max_size=12),
           st.booleans())
    @example([([1, 1, 2], 0.1), ([1, 2], 0.2), ([2, 1], 0.3)], False)
    @settings(max_examples=300, deadline=None)
    def test_edge_blocks_match_reference(self, edges, keep):
        # simplices of sizes 0-6 over few node indices, so repeats are common,
        # and a large index; the same merged blocks (bytes), sizes after
        # collapse and edges with repeats as the per-edge loop. In the
        # example a collapsed edge comes first, so [1, 2] weighs
        # 0.1 + 0.2 + 0.3 = 0.6000000000000001, not 0.2 + 0.3 + 0.1 = 0.6.
        sizes = np.array([len(e) for e, _ in edges], dtype=np.int64)
        ids = np.array([v for e, _ in edges for v in e], dtype=np.int64)
        weight = np.array([w for _, w in edges])

        def spell(blocks, size, repeated):
            return ([(s, *spelled(*b)) for s, b in blocks.items()],
                    size.tolist(), repeated.tolist())

        assert spell(*_edge_blocks(sizes, ids, weight, keep)) == \
            spell(*reference.edge_blocks(sizes, ids, weight, keep))

    def test_edge_blocks_refuse_keys_beyond_int64(self):
        # 2^20 edges over indices up to 2^43 need keys up to 2^63: refused
        # before anything is sorted, rather than wrapped into wrong edges
        sizes = np.zeros(2**20, dtype=np.int64)
        sizes[-1] = 1
        with pytest.raises(hr.DataError, match="int64"):
            _edge_blocks(sizes, np.array([2**43]), np.ones(len(sizes)), False)


class TestMergeOnlyWhereRowsCollide:
    @given(hypergraphs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_alt_and_projection_pass_rows_on(self, h, data):
        m = data.draw(st.integers(2, h.max_size + 1))
        p = hr.project(h, m)
        for s, (rows, w) in p.blocks.items():
            if s < m:  # passed through, not re-merged
                assert np.array_equal(rows, h.blocks[s][0])
                assert w.tobytes() == h.blocks[s][1].tobytes()
        g = hr.alternative_uniformization(p, m)
        rows, w = g.blocks[m]
        merged = merge_rows(rows, w)
        assert len(merged[0]) == len(rows)  # no two composition rows coincide
        want = hr.from_hypergraph(hr.Hypergraph(g.n, g.labels, g.aux, blocks={m: merged}))
        got = hr.from_hypergraph(g)
        got, want = got._apply_arrays, want._apply_arrays
        assert [k[3] for k in got] == [k[3] for k in want]  # the same patterns
        for a, b in zip(got, want):
            assert np.array_equal(a[0], b[0])
            assert a[2].tobytes() == b[2].tobytes()


class TestComponentOrder:
    def test_ties_break_on_smallest_label(self):
        # equal sizes: the component holding the smallest label in
        # `sort_labels` order comes first
        for edges, first in [
            ([[9, 12], [10, 11]], (9, 12)),  # natural order: 9 < 10, though "10" < "9"
            ([[9, 20], [10, 30]], (9, 20)),
            # labels that do not compare order as `sort_labels` orders them: by
            # type name, then string, so int 1 comes before str "0"
            ([["0", "a"], [1, 2]], (1, 2)),
        ]:
            h = hr.Hypergraph.from_edge_list(edges)
            comps = hr.connected_components(h)
            assert tuple(h.labels[v] for v in comps[0]) == first
            assert hr.largest_connected_component(h).labels == first

    def test_larger_component_first(self):
        h = hr.Hypergraph.from_edge_list([[9, 12], [10, 11], [11, 13]])
        comps = hr.connected_components(h)
        assert [[h.labels[v] for v in c] for c in comps] == [[10, 11, 13], [9, 12]]


class TestProjectionGuard:
    def test_count_from_histogram(self):
        assert projected_rows({2: 5, 3: 4, 5: 2}, 3) == 4 + 2 * 10

    def test_rejects_blow_up_before_building(self):
        # one 30-node edge at p=10 would make C(30, 10) = 30,045,015 rows
        assert 30_045_015 > MAX_PROJECTED_ROWS
        with pytest.raises(hr.DataError, match="30045015"):
            projected_rows({30: 1}, 10)
        with pytest.raises(hr.DataError, match="30045015"):
            hr.project(hr.Hypergraph.from_edge_list([list(range(30))]), 10)


class TestCompositionGuard:
    def test_count_from_histogram(self):
        # compositions of 4 into s parts: C(3, s - 1) = 3, 3, 1 for s = 2, 3, 4
        assert _composition_rows({2: 5, 3: 4, 4: 2}, 4) == 5 * 3 + 4 * 3 + 2 * 1

    def test_rejects_criterion_9_histogram_at_order_16(self):
        sizes = {2: 28134, 3: 52282, 4: 39158, 5: 25475}
        assert _composition_rows(sizes, 12) == 18_052_804
        # 28134*15 + 52282*105 + 39158*455 + 25475*1365 rows of 16 columns
        with pytest.raises(hr.DataError, match="58501885"):
            _composition_rows(sizes, 16)

    def test_rejects_huge_order_before_enumerating(self):
        # C(m - 1, 1) = 20,000,001 compositions of one pair at m = 20,000,002
        with pytest.raises(hr.DataError, match="20000001"):
            hr.alternative_uniformization(hr.Hypergraph.from_edge_list([[0, 1]]),
                                          20_000_002)
