"""Hypergraph data model: size-class edge blocks, connectivity, order slicing,
summary statistics, and the ingestion preprocessing pipeline.

Nodes are dense internal indices 0..n-1; every hypergraph carries a label
tuple mapping indices back to the caller's node names. Edges are stored as
one block per edge size s: an int64 array of shape (E_s, s) whose rows list
each edge's node indices ascending (a node of multiplicity c appears c
times) and a float64 weight array of length E_s; the blocks are the only
way to build one. `HyperEdge` is the record that the read-only
`Hypergraph.edges` view lists, built on demand. A `Hypergraph` is immutable:
its attributes cannot be reassigned and its arrays are read-only, so it is
safe to share across threads.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from types import MappingProxyType
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from .errors import DataError

Support = tuple[tuple[int, int], ...]
Blocks = dict[int, tuple[np.ndarray, np.ndarray]]


def _label_sort_key(label):
    # stable ordering for mixed label types: group by type name, then value
    try:
        hash(label)
    except TypeError:
        raise DataError(f"node labels must be hashable, got {label!r}")
    return (type(label).__name__, str(label))


def _distinct_labels(labels: Sequence) -> set:
    """The set of `labels`; a label that cannot be hashed or compared is a `DataError`."""
    try:
        return set(labels)
    except TypeError as exc:
        for label in labels:
            _label_sort_key(label)  # raises for the first unhashable label
        raise DataError(f"node labels must compare for equality: {exc}") from None


def _node_labels(labels, n: int, mismatch: str = "labels must have length n") -> tuple:
    """`labels` as the tuple of n distinct node labels, each hashable and
    comparable for equality; None or no labels stand for 0..n-1. Any other
    count is a `DataError` that opens with `mismatch`."""
    labels = () if labels is None else tuple(labels)
    labels = labels or tuple(range(n))
    if len(labels) != n:
        raise DataError(f"{mismatch}: {len(labels)} labels for {n} nodes")
    if len(_distinct_labels(labels)) != n:
        raise DataError("labels must be distinct")
    return labels


def _check_size(value, what: str = "order") -> int:
    """The order or edge size `value` as an int; else a `DataError` naming `what`."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DataError(f"{what} must be an integer, got {value!r}")
    if value < 2:
        raise DataError(f"{what} must be >= 2, got {value}")
    return int(value)


def _check_indices(indices, n: int, what: str) -> None:
    """Refuse an entry of `indices` that is not an integer (a bool is none)
    in 0..n-1, naming it as a `what`."""
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, Integral) or not 0 <= i < n:
            raise DataError(f"{what} {i!r} is not an index in 0..{n - 1}")


def _label_stream(groups: Sequence[Sequence[Hashable]], extra: Iterable[Hashable] = ()
                  ) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The `sort_labels` universe of the labels in `groups` and `extra`, the
    size of each group, and every group's labels in turn as indices into
    that universe."""
    tokens = [v for g in groups for v in g]
    labels = tuple(sort_labels(_distinct_labels([*extra, *tokens])))
    index = {lab: i for i, lab in enumerate(labels)}
    return (labels, np.array([len(g) for g in groups], dtype=np.int64),
            np.array([index[v] for v in tokens], dtype=np.int64))


def _sorted_distinct(a) -> np.ndarray:
    """The distinct values of the integer array `a`, flattened and ascending,
    as `np.unique(a)` gives them, from one sort. In numpy 2.x a plain
    `np.unique` imports `numpy.ma` on first use, and hashes rather than sorts."""
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _check_weights(weight: np.ndarray) -> None:
    """Refuse weights that are not positive and finite (NaN included)."""
    if not (np.isfinite(weight) & (weight > 0)).all():
        raise DataError("edge weights must be positive and finite")


def sort_labels(labels: Iterable[Hashable]) -> list:
    """Sort labels naturally when comparable, otherwise by (type, repr)."""
    labels = list(labels)
    try:
        return sorted(labels)
    except TypeError:
        return sorted(labels, key=_label_sort_key)


@dataclass(frozen=True)
class HyperEdge:
    """One edge as `Hypergraph.edges` lists it: `support` is the sorted tuple
    of (node, multiplicity) pairs and `weight` the edge weight."""

    support: Support
    weight: float

    @property
    def size(self) -> int:
        return sum(c for _, c in self.support)

    @property
    def nodes(self) -> tuple[int, ...]:
        """Distinct node indices, ascending."""
        return tuple(v for v, _ in self.support)


@dataclass(frozen=True)
class AuxSpec:
    """Bookkeeping for auxiliary nodes introduced by uplifting.

    `multiplicities[k]` is the per-edge multiplicity of `nodes[k]` when it is
    the same in every edge (multi-uplift), and None when it varies by edge
    (plain uplift, where short edges absorb the slack).
    """

    nodes: tuple[int, ...] = ()
    multiplicities: tuple[Optional[int], ...] = ()

    def __post_init__(self):
        if len(self.nodes) != len(self.multiplicities):
            raise DataError("aux nodes and multiplicities must align")

    def __bool__(self) -> bool:
        return bool(self.nodes)


def merge_rows(rows: np.ndarray, weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the rows of an (E, s) array lexicographically and merge equal rows
    by summing their weights (in input order, so the result is deterministic).

    Rows of nonnegative ids whose bit length b has b * s <= 63 sort as one
    packed int64 key each; others under a lexsort. Both give the same order
    of distinct rows. Equal rows may leave the sort in any order, so each
    row's group number goes back to its input position, and bincount adds
    every group's weights in input order."""
    if len(rows) < 2:
        return rows, weight
    bits = int(rows.max()).bit_length()
    if rows.min() >= 0 and bits * rows.shape[1] <= 63:
        key = rows[:, 0].copy()
        for j in range(1, rows.shape[1]):
            key <<= bits
            key |= rows[:, j]
        order = np.argsort(key)
        key = key[order]
    else:
        order = np.lexsort(rows.T[::-1])
        key = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (key[1:] != key[:-1]).reshape(len(rows) - 1, -1).any(axis=1)
    group = np.empty(len(rows), dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    return rows[order[first]], np.bincount(group, weights=weight)


def _frozen(a, dtype) -> np.ndarray:
    """A read-only array of `a`. A writable input array is copied first, so
    the caller's array stays writable; read-only ones (another hypergraph's)
    are shared."""
    out = np.asarray(a, dtype=dtype)
    if out is a and out.flags.writeable:
        out = out.copy()
    out.setflags(write=False)
    return out


class Hypergraph:
    """Immutable hypergraph on dense indices 0..n-1 with weighted edges.

    Built from size-class blocks (`blocks`: {s: (nodes int64[E_s, s] with
    ascending rows, weight[E_s])}). Rows merge only where they can collide
    (ingest, a projection's order-p block); every other rewrite passes rows on
    as they are. `edges` lists the blocks as `HyperEdge` records on first
    access, sorted by support.
    """

    def __init__(
        self,
        n: int,
        labels: tuple = (),
        aux: Optional[AuxSpec] = None,
        *,
        blocks: Optional[Blocks] = None,
    ):
        if n < 0:
            raise DataError("node count must be nonnegative")
        labels = _node_labels(labels, n)
        aux = aux if aux is not None else AuxSpec()
        _check_indices(aux.nodes, n, "aux node")
        clean: Blocks = {}
        blocks = {_check_size(s, "edge size"): b for s, b in (blocks or {}).items()}
        for s in sorted(blocks):
            rows, weight = blocks[s]
            rows, weight = _frozen(rows, np.int64), _frozen(weight, float)
            if not len(rows):
                continue
            if rows.shape != (len(weight), s):
                raise DataError(f"size-{s} block has shape {rows.shape}")
            if rows.min() < 0 or rows.max() >= n:
                raise DataError(f"size-{s} block references a node outside 0..{n - 1}")
            if not (rows[:, 1:] >= rows[:, :-1]).all():
                raise DataError(f"size-{s} block has a row that is not ascending")
            _check_weights(weight)
            clean[s] = (rows, weight)
        self.__dict__.update(n=n, labels=labels, aux=aux, blocks=MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError(f"Hypergraph is immutable; cannot set {name!r}")

    @cached_property
    def edges(self) -> tuple[HyperEdge, ...]:
        """The edges as `HyperEdge` objects, sorted by support."""
        out = []
        for rows, weight in self.blocks.values():
            for row, w in zip(rows.tolist(), weight.tolist()):
                out.append(HyperEdge(tuple(Counter(row).items()), w))
        out.sort(key=lambda e: e.support)
        return tuple(out)

    @property
    def max_size(self) -> int:
        """Largest hyperedge size M (0 for an edgeless hypergraph)."""
        return max(self.blocks, default=0)

    @property
    def num_edges(self) -> int:
        return sum(len(w) for _, w in self.blocks.values())

    def is_uniform(self) -> bool:
        return len(self.blocks) == 1

    def edge_sizes(self) -> Counter:
        return Counter({s: len(w) for s, (_, w) in self.blocks.items()})

    def with_labels(self, labels: tuple) -> "Hypergraph":
        """The same hypergraph under new node labels."""
        return Hypergraph(self.n, labels=labels, aux=self.aux, blocks=self.blocks)

    @cached_property
    def _component_roots(self) -> np.ndarray:
        """`component_roots` over every block: computed once per hypergraph,
        or handed on by `project` from a connected input (`_hand_on_connected`)
        and set by the largest-component extraction (`_mark_connected`)."""
        return component_roots(self.n, (rows for rows, _ in self.blocks.values()))

    @cached_property
    def _largest_component(self) -> "Hypergraph":
        """`largest_connected_component` of a disconnected hypergraph: extracted
        once, so every consumer of this hypergraph shares the sub-hypergraph."""
        comp = np.asarray(connected_components(self)[0])
        inside = np.zeros(self.n, dtype=bool)
        inside[comp] = True
        kept = {}
        for s, (rows, w) in self.blocks.items():
            mask = inside[rows[:, 0]]
            kept[s] = (rows[mask], w[mask])
        return _mark_connected(self.restrict(np.sort(comp), kept))

    @cached_property
    def _label_rank(self) -> np.ndarray:
        """Rank of each node's label in `sort_labels` order."""
        rank = {lab: i for i, lab in enumerate(sort_labels(self.labels))}
        return np.array([rank[lab] for lab in self.labels], dtype=np.int64)

    @staticmethod
    def from_edge_list(
        edge_lists: Iterable[Sequence[Hashable]],
        weights: Optional[Sequence[float]] = None,
        nodes: Iterable[Hashable] = (),
        keep_multiplicities: bool = False,
    ) -> "Hypergraph":
        """Build a hypergraph from edges given as sequences of node labels.

        Repeated labels inside one edge are collapsed to a set with a warning
        unless `keep_multiplicities` is set. Duplicate edges are merged by
        summing weights. `nodes` adds isolated nodes to the universe.
        """
        edge_lists = [list(e) for e in edge_lists]
        weights = np.ones(len(edge_lists)) if weights is None \
            else np.asarray(weights, dtype=float)
        if weights.shape != (len(edge_lists),):
            raise DataError(f"weights have shape {weights.shape}, expected "
                            f"({len(edge_lists)},), one per edge")
        _check_weights(weights)  # before duplicate edges merge
        labels, sizes, ids = _label_stream(edge_lists, nodes)
        blocks, size, repeated = _edge_blocks(sizes, ids, weights, keep_multiplicities)
        if not keep_multiplicities:
            for k in repeated.tolist():
                warnings.warn(f"collapsing repeated nodes within edge "
                              f"{edge_lists[k]!r} to a set", stacklevel=2)
        if len(size):
            _check_size(size.min(), "edge size")
        return Hypergraph(len(labels), labels, blocks=blocks)

    def restrict(self, keep: np.ndarray, blocks: Blocks) -> "Hypergraph":
        """Sub-hypergraph on the ascending index array `keep`, re-densified and
        holding `blocks` (rows over kept nodes only); labels kept."""
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        new_blocks = {s: (remap[rows], w) for s, (rows, w) in blocks.items()}
        aux_pairs = [(int(remap[a]), m)
                     for a, m in zip(self.aux.nodes, self.aux.multiplicities)
                     if remap[a] >= 0]
        aux = AuxSpec(tuple(a for a, _ in aux_pairs), tuple(m for _, m in aux_pairs))
        labels = tuple(self.labels[i] for i in keep.tolist())
        return Hypergraph(len(keep), labels=labels, aux=aux, blocks=new_blocks)


def _mark_connected(h: Hypergraph) -> Hypergraph:
    """`h`, its cached `_component_roots` set to those of one component:
    every node's root is node 0. For hypergraphs connected by construction."""
    h.__dict__["_component_roots"] = np.zeros(h.n, dtype=int)  # component_roots' dtype
    return h


def _hand_on_connected(source: Hypergraph, out: Hypergraph) -> Hypergraph:
    """`out`, marked connected when `source` has nodes and cached roots that
    are all 0; for `project`, whose output is connected when its input is.
    An input whose roots were never computed hands nothing on: no pass runs."""
    roots = source.__dict__.get("_component_roots")
    if roots is not None and source.n > 0 and not roots.any():
        _mark_connected(out)
    return out


def component_roots(n: int, rows: Iterable[np.ndarray]) -> np.ndarray:
    """Smallest node index of each node's component, where every row of every
    (E, k) array in `rows` joins its nodes.

    Hook-and-compress: each round hooks the larger of two differing roots
    onto the smaller, then pointer-jumps every node to its root.
    """
    parent = np.arange(n)
    firsts, others = [], []
    for r in rows:
        new = r[:, 1:] != r[:, :-1]  # each distinct node joins once
        firsts.append(np.repeat(r[:, 0], new.sum(axis=1)))
        others.append(r[:, 1:][new])
    if not firsts:
        return parent
    u, v = np.concatenate(firsts), np.concatenate(others)
    while True:
        pu, pv = parent[u], parent[v]
        differ = pu != pv
        if not differ.any():
            return parent
        u, v, pu, pv = u[differ], v[differ], pu[differ], pv[differ]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped


def connected_components(h: Hypergraph) -> list[list[int]]:
    """Partition of node indices induced by shared hyperedge membership.

    Two nodes are connected when some chain of hyperedges joins them; isolated
    nodes form singleton components. Components are sorted largest first,
    ties broken by the smallest minimum node label.
    """
    if h.n == 0:
        return []
    roots = h._component_roots
    order = np.argsort(roots, kind="stable")
    starts = np.flatnonzero(np.r_[True, roots[order][1:] != roots[order][:-1]])
    groups = np.split(order, starts[1:])
    first_label = np.minimum.reduceat(h._label_rank[order], starts)
    ranked = sorted(range(len(groups)), key=lambda g: (-len(groups[g]), first_label[g]))
    return [groups[g].tolist() for g in ranked]


def is_strongly_connected(h: Hypergraph) -> bool:
    return h.n > 0 and not h._component_roots.any()


def largest_connected_component(h: Hypergraph) -> Hypergraph:
    """Sub-hypergraph induced by the largest component (labels preserved);
    `h` itself when it is connected or empty."""
    if h.n == 0 or is_strongly_connected(h):
        return h
    return h._largest_component


def order_slice(h: Hypergraph, m: int) -> Hypergraph:
    """Keep only hyperedges of size m and the nodes incident to them.

    Returns an empty hypergraph when no edge has size m.
    """
    m = _check_size(m)
    if m not in h.blocks:
        return Hypergraph(0)
    rows, w = h.blocks[m]
    return h.restrict(_sorted_distinct(rows), {m: (rows, w)})


@dataclass(frozen=True)
class OrderStats:
    nodes: int
    edges: int
    lcc_fraction: float


@dataclass(frozen=True)
class HypergraphStats:
    """Node/edge counts, edge-size histogram, and LCC fractions per order."""

    nodes: int
    edges: int
    size_histogram: dict[int, int]
    per_order: dict[int, OrderStats]
    lcc_fraction: float


def _largest_share(roots: np.ndarray, nodes: int) -> float:
    """The share of `nodes` in the largest component of `component_roots`'
    `roots` (0.0 of no nodes); the uncounted nodes there are singletons."""
    return int(np.bincount(roots).max()) / nodes if nodes else 0.0


def stats(h: Hypergraph) -> HypergraphStats:
    """Summary statistics: counts, size histogram, per-order LCC fractions.
    Order m counts the nodes of its size-m edges, as `order_slice(h, m)` has.
    The whole input's components join the per-order ones: each order's
    roots, as one (root, node) row per node, make a pass over n rows per
    order instead of over every edge."""
    per_order, joins = {}, []
    nodes_index = np.arange(h.n)
    for m, (rows, w) in h.blocks.items():
        incident = np.zeros(h.n, dtype=bool)
        incident[rows] = True
        nodes = int(incident.sum())
        roots = component_roots(h.n, [rows])
        per_order[m] = OrderStats(nodes, len(w), _largest_share(roots, nodes))
        joins.append(np.column_stack([roots, nodes_index]))
    hist = {m: row.edges for m, row in per_order.items()}
    return HypergraphStats(h.n, h.num_edges, hist, per_order,
                           _largest_share(component_roots(h.n, joins), h.n))


@dataclass(frozen=True)
class PreprocessReport:
    """Counts from the ingestion pipeline, for run manifests."""

    raw_simplices: int
    simplices_with_repeats: int
    dropped_small: int
    merged_duplicates: int
    raw_node_ids: int
    dropped_isolated: int
    final_nodes: int
    final_edges: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _stream_total(sizes: np.ndarray) -> int:
    """The exact sum of the int64 array `sizes`, which numpy's int64 sum could
    wrap, added as Python ints without a list of them all."""
    return int(sizes.sum(dtype=object))


def _edge_blocks(sizes: np.ndarray, ids: np.ndarray, weight: np.ndarray,
                 keep_multiplicities: bool) -> tuple[Blocks, np.ndarray, np.ndarray]:
    """The ingest kernel: edge k holds the next `sizes[k]` ids, which are node
    indices (>= 0), and weighs `weight[k]`. Each edge's ids are sorted and
    lose their repeats unless asked to keep them. Returns each size s >= 2's
    edges as a block merged by `merge_rows`, every edge's size after that,
    and the edges that held a repeated id.

    One sort orders the whole stream: id v of edge k is keyed k * span + v,
    where span is the largest id + 1, so each edge's ids land ascending in
    its own slots, and a repeated id is a key equal to its left neighbour.
    Collapsing drops those keys. Each size's rows are gathered in edge order,
    so equal rows merge in input order. A stream whose keys would pass the
    int64 range (len(sizes) * span > 2**63 - 1) is refused with a
    `DataError`."""
    span = int(ids.max(initial=0)) + 1
    if len(sizes) * span > np.iinfo(np.int64).max:
        raise DataError(f"{len(sizes)} simplices over node indices up to {span - 1} "
                        f"need sort keys beyond the int64 range")
    key = np.repeat(np.arange(len(sizes)) * span, sizes)
    key += ids
    key.sort()
    repeat = np.flatnonzero(key[1:] == key[:-1]) + 1  # the slots of repeated ids
    dup = key[repeat] // span  # the edge of each
    size = sizes
    if len(repeat) and not keep_multiplicities:
        key = np.delete(key, repeat)
        size = sizes - np.bincount(dup, minlength=len(sizes))
    by_size = np.argsort(size)
    count = np.bincount(size, minlength=2)
    end = np.cumsum(count)
    starts = np.cumsum(size) - size
    groups = {}
    for s in (np.flatnonzero(count[2:]) + 2).tolist():
        edges = by_size[end[s] - count[s]:end[s]]
        edges.sort()  # back in input order
        # edge k's row: the s keys from its start (a window view), less k * span
        rows = np.ndarray((len(key) - s + 1, s), key.dtype, key,
                          strides=key.strides * 2)[starts[edges]]
        rows -= (edges * span)[:, None]
        groups[s] = rows, edges
    del key, starts  # every row is gathered: free the stream before the merges
    blocks = {}
    for s in list(groups):
        rows, edges = groups.pop(s)  # each size's rows go once merged
        blocks[s] = merge_rows(rows, weight[edges])
    return blocks, size, _sorted_distinct(dup)


def _dense_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the int64 array `ids`, ascending, and the index
    of each id among them. Ids spanning at most twice their count map through
    a lookup table, whose int64 running count then holds at most twice as
    many entries as `ids`; others map through one sort."""
    if not len(ids):
        return ids, ids
    lo = int(ids.min())
    span = int(ids.max()) - lo + 1
    if span <= 2 * len(ids):
        offset = ids - lo
        seen = np.zeros(span, dtype=bool)
        seen[offset] = True
        index = np.cumsum(seen)
        index -= 1
        return np.flatnonzero(seen) + lo, index[offset]
    distinct = _sorted_distinct(ids)
    return distinct, np.searchsorted(distinct, ids)


def preprocess_stream(
    sizes: np.ndarray,
    ids: np.ndarray,
    keep_multiplicities: bool = False,
) -> tuple[Hypergraph, PreprocessReport]:
    """`build_preprocessed` on the simplicial stream form: `sizes[k]` is the
    length of simplex k and `ids` concatenates the int64 node ids of all
    simplices. Node labels are the ids as Python ints, ascending.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if (sizes < 0).any():
        raise DataError("simplex sizes must be nonnegative")
    total = _stream_total(sizes)
    if total != len(ids):
        raise DataError(f"count mismatch: the simplex sizes sum to {total} but "
                        f"the id stream holds {len(ids)} ids")
    raw = len(sizes)
    node_ids, index = _dense_ids(ids)
    del ids  # freed once densified when, as in `ingest_simplicial`, it is passed unnamed
    blocks, size, repeated = _edge_blocks(sizes, index, np.ones(raw), keep_multiplicities)
    kept = size >= 2
    used = np.zeros(len(node_ids), dtype=bool)
    for rows, _ in blocks.values():
        used[rows] = True
    dense = np.cumsum(used)
    dense -= 1
    blocks = {s: (dense[r], w) for s, (r, w) in blocks.items()}
    h = Hypergraph(int(used.sum()), labels=tuple(node_ids[used].tolist()), blocks=blocks)
    seen = len(node_ids)
    report = PreprocessReport(
        raw_simplices=raw,
        simplices_with_repeats=len(repeated),
        dropped_small=int(raw - kept.sum()),
        merged_duplicates=int(kept.sum()) - h.num_edges,
        raw_node_ids=seen,
        dropped_isolated=seen - h.n,
        final_nodes=h.n,
        final_edges=h.num_edges,
    )
    return h, report


def build_preprocessed(
    simplices: Iterable[Sequence[Hashable]],
    keep_multiplicities: bool = False,
) -> tuple[Hypergraph, PreprocessReport]:
    """Standard cleanup: collapse within-simplex repeats (unless asked to keep
    them), drop simplices smaller than 2, merge duplicate edges by summing
    weights, and drop nodes left incident to no edge.

    Labels are ordered by `sort_labels` over every id in the input.
    """
    universe, sizes, ids = _label_stream([list(s) for s in simplices])
    h, report = preprocess_stream(sizes, ids, keep_multiplicities)
    return h.with_labels(tuple(universe[i] for i in h.labels)), report
