"""Object-path reference for the array kernels, used only as a verifier.

These are the per-edge implementations the package used before its
size-class array kernels: every rewrite builds `HyperEdge` objects, a tensor
is a sorted tuple of (support, value) entries, and `apply` expands every
(entry, node) pair into a row of m-1 indices. They read hypergraphs through
`Hypergraph.edges` only, so they share no code with the kernels under test.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np

import hyperrank as hr
from hyperrank.hypergraph import _label_sort_key, sort_labels
from hyperrank.uniformize import _alpha, _compositions, _fresh_label, star_factor


# ---- ingestion ---------------------------------------------------------

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


# ---- rewrites ----------------------------------------------------------

def uplift(h: hr.Hypergraph, m: int) -> hr.Hypergraph:
    if all(e.size == m for e in h.edges):
        return h
    star = h.n
    new_edges = []
    for e in h.edges:
        if e.size == m:
            new_edges.append(e)
        else:
            new_edges.append(hr.HyperEdge(e.support + ((star, m - e.size),),
                                          e.weight * star_factor(m, e.size)))
    aux = hr.AuxSpec(h.aux.nodes + (star,), h.aux.multiplicities + (None,))
    return hr.Hypergraph(h.n + 1, tuple(new_edges),
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
    edges = tuple(hr.HyperEdge(s, w) for s, w in sorted(merged.items()))
    return hr.Hypergraph(h.n, edges, h.labels, h.aux)


def uplift_project(h: hr.Hypergraph, p: int) -> hr.Hypergraph:
    return uplift(project(h, p), p)


def alternative_uniformization(h: hr.Hypergraph, m: int) -> hr.Hypergraph:
    merged: dict[tuple, float] = {}
    for e in h.edges:
        value = e.weight * e.size / _alpha(m, e.size)
        for comp in _compositions(m, e.size):
            support = tuple((v, c) for v, c in zip(e.nodes, comp))
            merged[support] = merged.get(support, 0.0) + value
    edges = tuple(hr.HyperEdge(s, w) for s, w in sorted(merged.items()))
    return hr.Hypergraph(h.n, edges, h.labels, h.aux)


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
