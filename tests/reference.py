"""Object-path reference for the array kernels, used only as a verifier.

These are the per-edge implementations the package used before its
size-class array kernels: every rewrite builds (support, weight) pairs, a
tensor is a sorted tuple of (support, value) entries, `apply` expands every
(entry, node) pair into a row of m-1 indices, and the uplift detection and
Z-eigenpair scan edge by edge. They read hypergraphs through the
`Hypergraph.edges` view only, and build them through `hypergraph` below, so
they share no code with the kernels under test; `merge_rows` here is the
plain lexsort merge that the package packs into one key where it can, and
the star factor and alpha(m, s) are computed here, over
`oracles.compositions`. The rank sweep at the end is the
one-pair-at-a-time form of the batched sweep in `rankcmp`, with `_tau_b`,
the scalar formula on exact Python ints, in place of its array form.
`stats` scans the edges and finds each order's components with scipy.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from itertools import combinations
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import hyperrank as hr
from hyperrank.hypergraph import (HypergraphStats, OrderStats, _check_weights,
                                  _distinct_labels, _fresh_label, _label_sort_key,
                                  sort_labels)
from oracles import compositions


# ---- ingestion ---------------------------------------------------------

def merge_rows(rows, weight):
    """`hypergraph.merge_rows` as a stable lexsort on the columns: equal rows
    merge by summing their weights in input order."""
    if len(rows) < 2:
        return rows, weight
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    if first.all():
        return rows, weight[order]
    return rows[first], np.bincount(np.cumsum(first) - 1, weights=weight[order])


def edge_blocks(sizes, ids, weight, keep_multiplicities):
    """`hypergraph._edge_blocks` as a loop over the edges: each sorted, its
    repeats collapsed unless kept, grouped by size and each size merged."""
    groups: dict[int, tuple[list, list]] = {}
    size, repeated, pos = [], [], 0
    for k, (s, w) in enumerate(zip(sizes.tolist(), weight.tolist())):
        row = sorted(ids[pos:pos + s].tolist())
        pos += s
        if len(set(row)) < len(row):
            repeated.append(k)
            if not keep_multiplicities:
                row = sorted(set(row))
        size.append(len(row))
        if len(row) >= 2:
            rows, ws = groups.setdefault(len(row), ([], []))
            rows.append(row)
            ws.append(w)
    blocks = {s: merge_rows(np.array(rows, dtype=np.int64), np.array(ws))
              for s, (rows, ws) in sorted(groups.items())}
    return blocks, np.array(size, dtype=np.int64), np.array(repeated, dtype=np.int64)


def build_preprocessed(simplices, keep_multiplicities=False):
    """(labels, {support: weight}, report counts) of the old ingest."""
    raw = [list(s) for s in simplices]
    seen_ids: set = set()
    for s in raw:
        seen_ids.update(s)
    with_repeats = dropped_small = kept = 0
    merged: dict[tuple, float] = {}
    for s in raw:
        counts = Counter(s)
        if any(c > 1 for c in counts.values()):
            with_repeats += 1
            if not keep_multiplicities:
                counts = Counter(dict.fromkeys(counts, 1))
        if sum(counts.values()) < 2:
            dropped_small += 1
            continue
        kept += 1
        key = tuple(sorted((_label_sort_key(v), v, c) for v, c in counts.items()))
        merged[key] = merged.get(key, 0.0) + 1.0
    labels_set = set()
    for key in merged:
        labels_set.update(v for _, v, _ in key)
    labels = tuple(sort_labels(labels_set))
    index = {lab: i for i, lab in enumerate(labels)}
    edges = {tuple(sorted((index[v], c) for _, v, c in key)): w
             for key, w in merged.items()}
    report = {
        "raw_simplices": len(raw),
        "simplices_with_repeats": with_repeats,
        "dropped_small": dropped_small,
        "merged_duplicates": kept - len(edges),
        "raw_node_ids": len(seen_ids),
        "dropped_isolated": len(seen_ids) - len(labels),
        "final_nodes": len(labels),
        "final_edges": len(edges),
    }
    return labels, edges, report


def from_edge_list(edge_lists, weights=None, nodes=(), keep_multiplicities=False):
    """`Hypergraph.from_edge_list` as the per-edge loop it was before the
    array ingest kernel: each edge sorted, collapsed with a warning, grouped
    by size, and each size merged."""
    edge_lists = [list(e) for e in edge_lists]
    weights = np.ones(len(edge_lists)) if weights is None \
        else np.asarray(weights, dtype=float)
    if weights.shape != (len(edge_lists),):
        raise hr.DataError(f"weights have shape {weights.shape}, expected "
                           f"({len(edge_lists)},), one per edge")
    _check_weights(weights)
    universe = _distinct_labels([*nodes, *(v for e in edge_lists for v in e)])
    labels = tuple(sort_labels(universe))
    index = {lab: i for i, lab in enumerate(labels)}

    groups: dict[int, tuple[list, list]] = {}
    for e, w in zip(edge_lists, weights):
        row = sorted(index[v] for v in e)
        if not keep_multiplicities and len(set(row)) < len(row):
            warnings.warn(f"collapsing repeated nodes within edge {e!r} to a set",
                          stacklevel=2)
            row = sorted(set(row))
        rows, ws = groups.setdefault(len(row), ([], []))
        rows.append(row)
        ws.append(w)
    if min(groups, default=2) < 2:
        raise hr.DataError(f"a hyperedge needs at least 2 nodes, got a "
                           f"size-{min(groups)} edge")
    blocks = {s: merge_rows(np.array(rows, dtype=np.int64), np.array(ws))
              for s, (rows, ws) in groups.items()}
    return hr.Hypergraph(len(labels), labels, blocks=blocks)


# ---- statistics --------------------------------------------------------

def _largest_share(nodes: list, edges: list) -> float:
    """The share of `nodes` in the largest component of the graph that joins
    each edge's first node to its others, by scipy; 0.0 of no nodes."""
    if not nodes:
        return 0.0
    index = {v: i for i, v in enumerate(nodes)}
    pairs = [(index[e.nodes[0]], index[v]) for e in edges for v in e.nodes[1:]]
    rows, cols = zip(*pairs) if pairs else ((), ())
    graph = coo_matrix((np.ones(len(pairs)), (rows, cols)), shape=(len(nodes),) * 2)
    _, labels = connected_components(graph, directed=False)
    return int(np.bincount(labels).max()) / len(nodes)


def stats(h: hr.Hypergraph) -> HypergraphStats:
    """`hypergraph.stats` from one scan of `h.edges`: order m holds the size-m
    edges and the nodes they touch."""
    by_size: dict[int, list] = {}
    for e in h.edges:
        by_size.setdefault(e.size, []).append(e)
    per_order = {}
    for m, edges in sorted(by_size.items()):
        nodes = sorted({v for e in edges for v in e.nodes})
        per_order[m] = OrderStats(len(nodes), len(edges), _largest_share(nodes, edges))
    hist = {m: row.edges for m, row in per_order.items()}
    return HypergraphStats(h.n, len(h.edges), hist, per_order,
                           _largest_share(list(range(h.n)), list(h.edges)))


# ---- rewrites ----------------------------------------------------------

def hypergraph(n, edges, labels, aux) -> hr.Hypergraph:
    """The hypergraph holding `edges`, (support, weight) pairs whose supports
    list their nodes ascending, one block row per pair."""
    groups: dict[int, tuple[list, list]] = {}
    for support, w in edges:
        row = [v for v, c in support for _ in range(c)]
        rows, weights = groups.setdefault(len(row), ([], []))
        rows.append(row)
        weights.append(w)
    blocks = {s: (np.array(rows, dtype=np.int64), np.array(weights))
              for s, (rows, weights) in groups.items()}
    return hr.Hypergraph(n, labels, aux, blocks=blocks)


def star_factor(m: int, s: int) -> float:
    """Weight multiplier of a size-s edge padded to order m: (m - s) s! / m!."""
    return (m - s) * math.factorial(s) / math.factorial(m)


def alpha(m: int, s: int) -> int:
    """Index tuples of length m onto s nodes, all present: the sum of the
    multinomials of the compositions of m into s parts."""
    return sum(math.factorial(m) // math.prod(math.factorial(k) for k in comp)
               for comp in compositions(m, s))


def uplift(h: hr.Hypergraph, m: int) -> hr.Hypergraph:
    if all(e.size == m for e in h.edges):
        return h
    star = h.n
    new_edges = []
    for e in h.edges:
        if e.size == m:
            new_edges.append((e.support, e.weight))
        else:
            new_edges.append((e.support + ((star, m - e.size),),
                              e.weight * star_factor(m, e.size)))
    aux = hr.AuxSpec(h.aux.nodes + (star,), h.aux.multiplicities + (None,))
    return hypergraph(h.n + 1, new_edges,
                      h.labels + (_fresh_label(set(h.labels), "*"),), aux)


def project(h: hr.Hypergraph, p: int) -> hr.Hypergraph:
    merged: dict[tuple, float] = {}
    for e in h.edges:
        if e.size <= p:
            merged[e.support] = merged.get(e.support, 0.0) + e.weight
            continue
        for sub in combinations(e.nodes, p):
            support = tuple((v, 1) for v in sub)
            merged[support] = merged.get(support, 0.0) + e.weight
    return hypergraph(h.n, sorted(merged.items()), h.labels, h.aux)


def uplift_project(h: hr.Hypergraph, p: int) -> hr.Hypergraph:
    return uplift(project(h, p), p)


def alternative_uniformization(h: hr.Hypergraph, m: int) -> hr.Hypergraph:
    merged: dict[tuple, float] = {}
    for e in h.edges:
        value = e.weight * e.size / alpha(m, e.size)
        for comp in compositions(m, e.size):
            support = tuple((v, c) for v, c in zip(e.nodes, comp))
            merged[support] = merged.get(support, 0.0) + value
    return hypergraph(h.n, sorted(merged.items()), h.labels, h.aux)


def construction(h: hr.Hypergraph, kind: str, m: int, aux_gauge: bool) -> hr.Hypergraph:
    """The uniform hypergraph a pipeline solves on: `kind` is "uplift"
    (uhec / hec), "uplift_project" (uphec) or "alt" (alt_centrality)."""
    if kind == "uplift":
        g = uplift(h, m)
    elif kind == "uplift_project":
        g = uplift_project(h, m)
    else:
        g = alternative_uniformization(project(h, m), m)
    return uplift(g, m + 1) if aux_gauge else g


# ---- tensors -----------------------------------------------------------

def tensor_entries(g: hr.Hypergraph) -> tuple:
    """Sorted (support, value) entries of a uniform hypergraph's tensor."""
    merged: dict[tuple, float] = {}
    for e in g.edges:
        merged[e.support] = merged.get(e.support, 0.0) + e.weight
    return tuple(sorted(merged.items()))


def apply_rows(order: int, entries) -> tuple:
    """One row per (entry, node): lead node, value * arrangements, and the
    other m-1 indices whose x-components get multiplied."""
    fact = math.factorial
    lead, coef, rest = [], [], []
    for support, value in entries:
        for node, mult in support:
            c = fact(order - 1) // fact(mult - 1)
            row = [node] * (mult - 1)
            for other, omult in support:
                if other != node:
                    c //= fact(omult)
                    row.extend([other] * omult)
            lead.append(node)
            coef.append(value * c)
            rest.append(row)
    return np.asarray(lead), np.asarray(coef), np.asarray(rest)


def contract_kernels(kernels, vec: np.ndarray, dim: int) -> np.ndarray:
    """`tensor.apply`'s contraction on the kernels of `_apply_arrays` as it
    was before its buffers were kept: a fresh gather, fresh leave-one-out
    products and a fresh term array on every call."""
    y = np.zeros(dim)
    for rows, cells, coef, sequences in kernels:
        xr = vec[rows]
        factors = [xr[:, j] for j in range(rows.shape[1])]
        terms = np.empty(coef.shape)
        for j, seq in enumerate(sequences):
            product = factors[seq[0]]
            for l in seq[1:]:
                product = product * factors[l]
            terms[:, j] = product
        terms *= coef
        y += np.bincount(cells, weights=terms.ravel(), minlength=dim)
    return y


def apply(rows: tuple, dim: int, x: np.ndarray) -> np.ndarray:
    lead, coef, rest = rows
    terms = coef * np.prod(np.asarray(x)[rest], axis=1)
    return np.bincount(lead, weights=terms, minlength=dim)


def h_eigen_power(order, dim, entries, tol, shift=1.0, max_iter=100_000):
    """The package's shifted power iteration and stop rule on `apply` above;
    returns (eigenvalue, l1-normalized iterate over all indices)."""
    rows = apply_rows(order, entries)
    e = order - 1
    x = np.full(dim, 1.0 / dim)
    lam_lo = lam_hi = 0.0
    for _ in range(max_iter):
        xe = x**e
        y = apply(rows, dim, x) + shift * xe
        ratios = y / xe - shift
        lam_lo, lam_hi = float(ratios.min()), float(ratios.max())
        if lam_hi - lam_lo <= tol * lam_hi:
            break
        x = y ** (1.0 / e)
        x /= x.sum()
    return 0.5 * (lam_lo + lam_hi), x


def centrality(g: hr.Hypergraph, tol: float) -> tuple[float, np.ndarray]:
    """(eigenvalue, l1-normalized scores over the non-auxiliary nodes)."""
    lam, x = h_eigen_power(g.max_size, g.n, tensor_entries(g), tol)
    real = [i for i in range(g.n) if i not in set(g.aux.nodes)]
    return lam, x[real] / x[real].sum()


# ---- Z-eigenpairs via uplift structure -----------------------------------

def detect_uplift_structure(h: hr.Hypergraph) -> Optional[hr.AuxSpec]:
    """The aux subset of a padded pairwise graph, tried over every candidate
    subset, highest node indices first."""
    if not h.edges or not h.is_uniform():
        return None
    m = h.max_size
    slack = m - 2
    if slack < 1:
        return None

    common: dict[int, int] = {}
    for v, c in h.edges[0].support:
        if all(dict(e.support).get(v, 0) == c for e in h.edges[1:]):
            common[v] = c
    for e in h.edges:
        for v, c in e.support:
            if c >= 2 and common.get(v) != c:
                return None  # a repeated node that cannot be removed

    mandatory = [v for v, c in common.items() if c >= 2]
    base = sum(common[v] for v in mandatory)
    if base > slack:
        return None
    unit = sorted((v for v, c in common.items() if c == 1), reverse=True)
    need = slack - base
    if need > len(unit):
        return None
    for pick in combinations(unit, need):
        sel = set(mandatory) | set(pick)
        if _leftover_is_pairwise(h, sel):
            nodes = tuple(sorted(sel))
            return hr.AuxSpec(nodes, tuple(common[v] for v in nodes))
    return None


def _leftover_is_pairwise(h: hr.Hypergraph, sel: set[int]) -> bool:
    for e in h.edges:
        rest = [(v, c) for v, c in e.support if v not in sel]
        if len(rest) != 2 or rest[0][1] != 1 or rest[1][1] != 1:
            return False
    return True


def z_via_uplift(h: hr.Hypergraph, norm: str) -> tuple[np.ndarray, float]:
    """(eigenvector, eigenvalue) of the package's closed-form Z-eigenpair,
    with the pairwise matrix summed edge by edge."""
    aux = detect_uplift_structure(h)
    if aux is None:
        raise hr.DataError(
            "hypergraph is not recognizable as an uplift of a pairwise graph; "
            "general Z-eigenvector computation is out of scope"
        )
    sel = set(aux.nodes)
    real = [i for i in range(h.n) if i not in sel]
    pos = {v: k for k, v in enumerate(real)}
    n_g = len(real)
    if n_g < 2:
        raise hr.DataError("underlying pairwise graph needs at least 2 nodes")
    A = np.zeros((n_g, n_g))
    for e in h.edges:
        i, j = [pos[v] for v, c in e.support if v not in sel]
        A[i, j] += e.weight
        A[j, i] += e.weight
    if connected_components(A, directed=False, return_labels=False) != 1:
        raise hr.DataError("underlying pairwise graph is disconnected")
    eigvals, eigvecs = np.linalg.eigh(A)
    lam = float(eigvals[-1])
    c = eigvecs[:, -1]
    if c.sum() < 0:
        c = -c
    if not (c > 0).all():
        raise hr.ConvergenceError("dense eigensolver returned a non-positive Perron vector")
    q = 0.5 * float(c @ A @ c)
    full = np.zeros(h.n)
    full[real] = c
    for a, p_a in zip(aux.nodes, aux.multiplicities):
        full[a] = math.sqrt(p_a * q / lam)
    vector = hr.ScoreVector.normalized(full, "l1" if norm == "z1" else "l2").values
    omega = math.factorial(h.max_size - 1)
    for p_a in aux.multiplicities:
        omega //= math.factorial(p_a)
    lam_tensor = lam * omega
    for a, p_a in zip(aux.nodes, aux.multiplicities):
        lam_tensor *= float(vector[a]) ** p_a
    return vector, lam_tensor


# ---- rank sweep --------------------------------------------------------

def _tau_b(n: int, ties_a: int, ties_b: int, ties_ab: int, discordant: int) -> float:
    """Tau-b of one prefix's pair counts, NaN when a column is fully tied."""
    n0 = n * (n - 1) // 2
    numerator = n0 - ties_a - ties_b + ties_ab - 2 * discordant
    # one sqrt of the exact Python-int product keeps the +/-1 cases exact
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    if denom == 0:
        return float("nan")
    return numerator / denom


def _run_offsets(starts: np.ndarray) -> np.ndarray:
    pos = np.arange(starts.size)
    return pos - np.maximum.accumulate(np.where(starts, pos, 0))


def _earlier_counts(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per position j, the positions i < j with rank[i] < rank[j] and those
    with rank[i] == rank[j], by one bottom-up merge sort of one column."""
    n = rank.size
    bits = (n - 1).bit_length()
    size = 1 << bits
    idx = np.arange(size, dtype=np.int64)
    keys = np.zeros(size, dtype=np.int64)
    keys[:n] = rank
    keys = (keys << bits) | idx
    lower_eq = np.zeros(size, dtype=np.int64)
    for k in range(bits):
        keys = np.sort(keys.reshape(-1, 2 << k), axis=1).ravel()
        right = (keys >> k) & 1
        before = idx + 1 - np.cumsum(right) - ((idx >> (k + 1)) << k)
        lower_eq[keys & (size - 1)] += right * before
    in_order = keys >> bits
    equal = np.empty(size, dtype=np.int64)
    equal[keys & (size - 1)] = _run_offsets(np.r_[True, in_order[1:] != in_order[:-1]])
    return (lower_eq - equal)[:n], equal[:n]


def _prefix_counts(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ends, sums): the end of each tie group of a, descending, and the
    ties_a, ties_b, ties_ab and discordant counts of each such prefix."""
    if np.isnan(a).any() or np.isnan(b).any():
        raise hr.DataError("scores to rank must not be NaN")
    n = a.size
    rank_a, rank_b = (np.unique(x, return_inverse=True)[1] for x in (a, b))
    key = np.sort(rank_a * n + rank_b)[::-1]
    rank_a, rank_b = np.divmod(key, n)
    new_a = np.r_[True, rank_a[1:] != rank_a[:-1]]
    lower, equal = _earlier_counts(rank_b)
    ends = np.flatnonzero(np.r_[new_a[1:], True]) + 1
    sums = np.cumsum([
        _run_offsets(new_a),
        equal,
        _run_offsets(np.r_[True, key[1:] != key[:-1]]),
        lower,
    ], axis=1)
    return ends, sums[:, ends - 1]


def kendall_tau(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise hr.DataError("kendall_tau needs two equal-length 1-d score arrays")
    n = a.size
    if n < 2:
        raise hr.DataError("kendall_tau needs at least 2 entries")
    _, sums = _prefix_counts(a, b)
    return _tau_b(n, *sums[:, -1].tolist())


def topk_curve(a, b, ks) -> list:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise hr.DataError("topk_curve needs two equal-length 1-d score arrays")
    ks = list(ks)
    if ks != sorted(ks):
        raise hr.DataError("Ks must be sorted ascending")
    n = a.size
    ks = [k for k in ks if k >= 2]
    for k in ks:
        if k > n:
            raise hr.DataError(f"K={k} exceeds table size {n}")
    if not ks:
        return []
    ends, sums = _prefix_counts(a, b)
    # each K reads the prefix that ends with the tie group of its K-th node
    g = np.unique(np.searchsorted(ends, ks))
    rows = zip(ends[g].tolist(), *sums[:, g].tolist())
    return [(row[0], _tau_b(*row)) for row in rows]


def heatmap_and_curves(table: hr.RankingTable, ks) -> tuple[np.ndarray, dict]:
    """One sweep per ordered pair of columns; a heatmap cell is the K = n
    point of its pair's curve, or its own `kendall_tau` sweep."""
    k, n = len(table.tags), len(table.labels)
    if k < 2:
        raise hr.DataError("heatmap needs at least 2 columns")
    heat = np.eye(k)
    curves: dict = {}
    for i, tag_a in enumerate(table.tags):
        for j, tag_b in enumerate(table.tags):
            if i == j:
                continue
            a, b = table.columns[i], table.columns[j]
            curve = topk_curve(a, b, ks)
            curves[(tag_a, tag_b)] = curve
            if i < j:
                heat[i, j] = heat[j, i] = (curve[-1][1] if curve and curve[-1][0] == n
                                           else kendall_tau(a, b))
    return heat, curves
