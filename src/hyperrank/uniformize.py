"""Hypergraph rewriting: uplift, multi-uplift, projection, the combined
uplift-project construction, and the composition-based alternative
uniformization used for comparison runs.

Edge weights double as tensor component values throughout: the uplift
multiplies weights by the combinatorial star factor, projection assigns
participation counts, and the multi-uplift leaves weights untouched
(its combinatorics are accounted for at contraction time).

All rewrites work on the size-class edge blocks of `Hypergraph`: an uplift
appends auxiliary columns to each block's rows, a projection gathers column
subsets, and the composition construction repeats columns.

Each rewrite maps a connected input to a connected output: an uplift's star
joins edges that were already connected, the p-subsets (p >= 2) of an edge
chain its nodes, and every composition row holds every node of its edge.
Only `project`, whose output the solvers check, hands an input known to be
connected that verdict, and the check finds no pass left to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .errors import DataError
from .hypergraph import AuxSpec, Hypergraph, _fresh_label, _hand_on_connected, merge_rows

__all__ = [
    "BuildCounter",
    "MAX_PROJECTED_ROWS",
    "projected_rows",
    "star_factor",
    "uplift",
    "multi_uplift",
    "project",
    "uplift_project",
    "alternative_uniformization",
]

# Largest number of p-subset rows `project` may gather (about 0.5 GB of
# int64 rows at p = 3), and of composition rows `alternative_uniformization`
# may repeat; larger requests fail before allocating anything.
MAX_PROJECTED_ROWS = 20_000_000

_MAX_ORDER = 20  # bounds each `_multinomial` and `_compositions` list; no real dataset gets close


@dataclass
class BuildCounter:
    """Edge-touch operation counters for tensor construction.

    Uplifting a size-s edge to order m costs m-s insertions; projecting a
    size-k edge to order p costs p touches per generated p-subset.
    """

    uplift_ops: int = 0
    project_ops: int = 0


def star_factor(m: int, s: int) -> float:
    """Weight multiplier for a size-s edge padded up to order m."""
    m_star = m - s
    return (m_star * math.factorial(m - m_star)) / math.factorial(m)


def _check_max_order(order: int) -> None:
    """Refuse orders whose arrangement counts the tensor kernels do not support."""
    if order > _MAX_ORDER:
        raise DataError(f"tensor order {order} exceeds supported {_MAX_ORDER}")


def _check_order(h: Hypergraph, m: int, verb: str) -> None:
    if m < h.max_size:
        raise DataError(f"cannot {verb} below max edge size: m={m} < M={h.max_size}")


def _require_simple(rows: np.ndarray, what: str) -> None:
    if not (rows[:, 1:] > rows[:, :-1]).all():
        raise DataError(f"{what} requires simple (set) hyperedges")


def _starred(labels: tuple, aux: AuxSpec) -> tuple[tuple, AuxSpec]:
    """`labels` and `aux` with one shared auxiliary node, the star, appended
    as index len(labels): those of every uplift that pads an edge."""
    return (labels + (_fresh_label(set(labels), "*"),),
            AuxSpec(aux.nodes + (len(labels),), aux.multiplicities + (None,)))


def _check_uplift(h: Hypergraph, m: int) -> bool:
    """Refuse what `uplift(h, m)` refuses; True when no edge needs padding."""
    _check_order(h, m, "uplift")
    _check_max_order(m)
    return all(s == m for s in h.blocks)


def uplift(h: Hypergraph, m: int, counter: BuildCounter | None = None) -> Hypergraph:
    """Pad every hyperedge below size m with a shared auxiliary node.

    A size-s edge gains the auxiliary node with multiplicity m-s and its
    weight is multiplied by (m-s) * s! / m!; edges already at size m pass
    through. Identity when nothing needs padding (no auxiliary node added).
    Solvers do not build it but solve on its view, `tensor._UpliftTensor`.
    """
    if _check_uplift(h, m):
        return h
    star = h.n
    rows, weights = [], []
    for s, (r, w) in h.blocks.items():
        if s < m:
            if counter is not None:
                counter.uplift_ops += (m - s) * len(r)
            r = np.hstack([r, np.full((len(r), m - s), star)])
            w = w * star_factor(m, s)
        rows.append(r)
        weights.append(w)
    labels, aux = _starred(h.labels, h.aux)
    return Hypergraph(h.n + 1, labels=labels, aux=aux,
                      blocks={m: (np.concatenate(rows), np.concatenate(weights))})


def multi_uplift(
    h: Hypergraph, m: int, p: tuple[int, ...] | list[int],
    counter: BuildCounter | None = None,
) -> Hypergraph:
    """Pad a uniform hypergraph with s distinct auxiliary nodes, the k-th one
    appearing p[k] times in every edge. Weights are left unchanged.
    """
    p = tuple(int(v) for v in p)
    _check_max_order(m)
    if not h.is_uniform():
        raise DataError("multi_uplift requires a uniform hypergraph with edges")
    big_m = h.max_size
    if m <= big_m:
        raise DataError(f"target order must exceed edge size: m={m}, M={big_m}")
    if any(v < 1 for v in p) or sum(p) != m - big_m:
        raise DataError(f"multiplicities {p} must be positive and sum to {m - big_m}")
    labels = list(h.labels)
    for k in range(len(p)):
        labels.append(_fresh_label(set(labels), f"*{k + 1}"))
    aux_nodes = tuple(range(h.n, h.n + len(p)))
    rows, weight = h.blocks[big_m]
    if counter is not None:
        counter.uplift_ops += (m - big_m) * len(rows)
    pad = np.repeat(np.array(aux_nodes, dtype=np.int64), p)
    rows = np.hstack([rows, np.broadcast_to(pad, (len(rows), len(pad)))])
    aux = AuxSpec(h.aux.nodes + aux_nodes, h.aux.multiplicities + p)
    return Hypergraph(h.n + len(p), labels=tuple(labels), aux=aux, blocks={m: (rows, weight)})


def _row_budget(total: int, claim: str, advice: str = "") -> int:
    """`total`; a DataError that states `claim` and `advice` above the limit."""
    if total > MAX_PROJECTED_ROWS:
        raise DataError(f"{claim}, above the limit of {MAX_PROJECTED_ROWS}{advice}")
    return total


def projected_rows(size_histogram: Mapping[int, int], p: int) -> int:
    """Rows `project` gathers for order p: the sum over sizes s of
    E_s * C(s, p). Raises DataError above MAX_PROJECTED_ROWS."""
    total = sum(count * math.comb(s, p) for s, count in size_histogram.items())
    return _row_budget(total, f"projecting to order {p} would generate {total} subsets",
                       "; choose a larger order")


def project(h: Hypergraph, p: int, counter: BuildCounter | None = None) -> Hypergraph:
    """Replace every hyperedge larger than p by all of its p-subsets.

    Each distinct p-subset is weighted by the total weight of the larger
    edges containing it, aggregated with the weight of the subset if it was
    already an edge. Blocks below p pass through unchanged: only the order-p
    block, where subsets collide, is merged. Identity when no edge is larger
    than p.
    """
    if p < 2:
        raise DataError(f"projection order must be >= 2, got {p}")
    _check_max_order(p)
    if h.max_size <= p:
        return h
    projected_rows(h.edge_sizes(), p)
    blocks = {}
    rows_p, weights_p = [], []
    for s, (rows, w) in h.blocks.items():
        if s < p:
            blocks[s] = (rows, w)
            continue
        if s > p:
            _require_simple(rows, "projection")
            subsets = np.array(list(combinations(range(s), p)))
            if counter is not None:
                counter.project_ops += p * len(subsets) * len(rows)
            rows = rows[:, subsets].reshape(-1, p)
            w = np.repeat(w, len(subsets))
        rows_p.append(rows)
        weights_p.append(w)
    blocks[p] = merge_rows(np.concatenate(rows_p), np.concatenate(weights_p))
    return _hand_on_connected(h, Hypergraph(h.n, labels=h.labels, aux=h.aux, blocks=blocks))


def _check_uplift_project(h: Hypergraph, p: int) -> None:
    if not 2 <= p <= h.max_size:
        raise DataError(f"order p={p} must satisfy 2 <= p <= M={h.max_size}")


def uplift_project(
    h: Hypergraph, p: int, counter: BuildCounter | None = None
) -> Hypergraph:
    """Project edges above p, then uplift the rest: a p-uniform result."""
    _check_uplift_project(h, p)
    return uplift(project(h, p, counter), p, counter)


def _composition_rows(size_histogram: Mapping[int, int], m: int) -> int:
    """Rows `alternative_uniformization` builds for order m: the sum over
    sizes s of E_s * C(m-1, s-1), the compositions of m into s parts.
    Raises DataError above MAX_PROJECTED_ROWS."""
    total = sum(count * math.comb(m - 1, s - 1) for s, count in size_histogram.items())
    return _row_budget(
        total, f"uniformizing to order {m} would generate {total} composition rows",
        "; choose a smaller order")


def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """All orderings of positive integers summing to `total` in `parts` slots."""
    out = []
    for cuts in combinations(range(1, total), parts - 1):
        prev = 0
        comp = []
        for c in cuts + (total,):
            comp.append(c - prev)
            prev = c
        out.append(tuple(comp))
    return tuple(out)


def _multinomial(counts) -> int:
    """Orderings of a multiset with these multiplicities: sum(counts)! over
    the product of each count's factorial, exact."""
    return math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)


def _alpha(m: int, s: int) -> int:
    """Number of index tuples of length m drawn onto s nodes, all present:
    the surjections onto s nodes, s^m less the tuples that miss a node, by
    inclusion-exclusion over the j nodes missed, exact."""
    return sum((-1) ** j * math.comb(s, j) * (s - j) ** m for j in range(s + 1))


def _check_composable(h: Hypergraph, m: int) -> None:
    """The refusals of the composition construction at order m, in order:
    an order below the largest edge, too many composition rows, an order
    above the cap, and rows that repeat a node."""
    _check_order(h, m, "uniformize")
    _composition_rows(h.edge_sizes(), m)
    _check_max_order(m)
    for r, _ in h.blocks.values():
        _require_simple(r, "alternative uniformization")


def alternative_uniformization(h: Hypergraph, m: int) -> Hypergraph:
    """Uniformize by index duplication: a size-s edge becomes every multiset
    over its nodes with all multiplicities >= 1 summing to m, each entry
    valued at weight * s / alpha with alpha the total arrangement count. No
    rows merge: sorted, distinct input rows (as ingest and `project` emit)
    give sorted, distinct rows, one chunk per (size, composition) pattern.
    Solvers do not build it: `tensor._CompositionTensor` is its tensor as a
    view of h.
    """
    _check_composable(h, m)
    rows, weights = [], []
    for s, (r, w) in h.blocks.items():
        value = w * s / _alpha(m, s)
        for comp in _compositions(m, s):
            rows.append(np.repeat(r, comp, axis=1))
            weights.append(value)
    blocks = {m: (np.concatenate(rows), np.concatenate(weights))} if rows else {}
    return Hypergraph(h.n, labels=h.labels, aux=h.aux, blocks=blocks)
