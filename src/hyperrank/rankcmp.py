"""Ranking alignment and rank-correlation analysis: tie-corrected Kendall
tau, zero-filled score tables across methods, pairwise correlation matrices,
top-K correlation curves, and the max/min curve filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError
from .hypergraph import _sorted_distinct, sort_labels

Curve = list[tuple[int, float]]


# ──────────────────────────────────────────────────────────────────────
#  Kendall tau (tau-b)
# ──────────────────────────────────────────────────────────────────────

# Keys (pairs times padded width) one batch of the rank sweep holds: enough
# that the per-call overhead is paid once at small n, small enough that the
# working set stays a few MB at large n.
_BATCH_KEYS = 1 << 16


def _run_offsets(starts: np.ndarray) -> np.ndarray:
    """Index of each element within its run, row by row; `starts` flags the
    run heads, and each row starts with one (as `_heads` gives)."""
    pos = np.arange(starts.size).reshape(starts.shape)
    return pos - np.maximum.accumulate(np.where(starts, pos, 0).ravel()).reshape(pos.shape)


def _heads(x: np.ndarray) -> np.ndarray:
    """Flags the elements of each row that differ from their left neighbour."""
    new = np.ones(x.shape, dtype=bool)
    new[:, 1:] = x[:, 1:] != x[:, :-1]
    return new


def _earlier_counts(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row and position j, count the positions i < j with
    rank[i] < rank[j] and those with rank[i] == rank[j].

    Bottom-up merge sort of the keys `rank << bits | position`, every row
    padded to a power of two at the end, where no real element counts the
    padding. Once the blocks of width 2^(k+1) are sorted, an element of a
    block's right half (position bit k set) is preceded by exactly the
    left-half elements of rank <= its own: its index in the block less the
    right-half elements up to it. Each element carries that running count
    in its own key: entering level k, its low bits hold position >> k above
    a count below 2^k, and a right-half element trades position bit k,
    which no later level reads, for the count it gains. Among equal ranks
    the counts grow with the position, so every sort still orders by
    (rank, position); one sort up front maps the final keys back to their
    positions, and the final runs of equal rank give the equal counts.
    """
    p, n = rank.shape
    bits = (n - 1).bit_length()
    size = 1 << bits
    idx = np.arange(size, dtype=np.int64)
    keys = np.zeros((p, size), dtype=np.int64)
    keys[:, :n] = rank
    keys = (keys << bits) | idx
    at = (np.argsort(keys, axis=1) + np.arange(p, dtype=np.int64)[:, None] * size).ravel()
    for k in range(bits):
        keys = np.sort(keys.reshape(p, -1, 2 << k), axis=-1).reshape(p, size)
        right = (keys >> k) & 1
        # each earlier block of the row holds 2^k right-half elements
        before = idx + 1 - np.cumsum(right, axis=1) - ((idx >> (k + 1)) << k)
        keys += right * (before - (1 << k))
    lower_eq = np.empty(p * size, dtype=np.int64)
    equal = np.empty(p * size, dtype=np.int64)
    lower_eq[at] = (keys & (size - 1)).ravel()
    equal[at] = _run_offsets(_heads(keys >> bits)).ravel()
    lower_eq, equal = lower_eq.reshape(p, size), equal.reshape(p, size)
    return (lower_eq - equal)[:, :n], equal[:, :n]


def _prefix_counts(rank_a: np.ndarray, rank_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts of every tie-inclusive top prefix of a, for each row pair
    of the (P, n) dense ranks, in one sweep.

    Returns `ends`, whose (p, i) entry is the size of the smallest such
    prefix holding position i (the end of i's tie group of a in descending
    order), and `sums`, an int64 (4, P, n) array whose (:, p, i) column
    holds ties_a, ties_b, ties_ab and the discordant pairs of the top-(i+1)
    nodes. Within a tie group of a the order is b descending, so an earlier
    node with a smaller b always lies in an earlier group: that pair is
    discordant, never tied in a.
    """
    p, n = rank_a.shape
    key = np.sort(rank_a * n + rank_b, axis=1)[:, ::-1]
    rank_a, rank_b = np.divmod(key, n)
    new_a = _heads(rank_a)
    lower, equal = _earlier_counts(rank_b)
    last = np.ones_like(new_a)
    last[:, :-1] = new_a[:, 1:]
    # each row ends with a group end, so the reversed running minimum
    # stays within its row
    pos = np.arange(p * n).reshape(p, n)
    ends = np.minimum.accumulate(np.where(last, pos, p * n).ravel()[::-1])[::-1]
    ends = ends.reshape(p, n) - pos[:, :1] + 1
    sums = np.cumsum([_run_offsets(new_a), equal, _run_offsets(_heads(key)), lower],
                     axis=-1)
    return ends, sums


def _dense_ranks(columns: np.ndarray) -> np.ndarray:
    """Dense integer ranks of each row; a NaN score, which has no rank, is a
    `DataError`."""
    if np.isnan(columns).any():
        raise DataError("scores to rank must not be NaN")
    return np.stack([np.unique(c, return_inverse=True)[1] for c in columns])


def _tau_b(n, ties_a, ties_b, ties_ab, discordant) -> np.ndarray:
    """Tau-b of int64 pair counts, element by element; NaN where a column is
    fully tied. Below 2^53 both factors of the denominator convert exactly
    and their one float product rounds as the exact integer product does,
    so each value is the correctly rounded quotient of exact counts (the
    integer product overflows int64 from n of about 78,000)."""
    n0 = n * (n - 1) // 2
    numerator = n0 - ties_a - ties_b + ties_ab - 2 * discordant
    product = (n0 - ties_a).astype(float) * (n0 - ties_b).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(product == 0, np.nan, numerator / np.sqrt(product))


def _sweep(ranks: np.ndarray, pairs: Sequence[tuple[int, int]], ks: Sequence[int]):
    """For each ordered pair (i, j) of rows of the dense ranks, yield the
    top-K curve of column j over the top-K nodes of column i and the
    whole-ranking tau, from one batched sweep per `_BATCH_KEYS` keys.

    Each K reads the prefix that ends with the tie group of its K-th node;
    sorted Ks give nondecreasing ends, and each distinct end is kept once.
    """
    n = ranks.shape[1]
    per_batch = max(1, _BATCH_KEYS >> (n - 1).bit_length())
    at = np.asarray(ks, dtype=np.int64) - 1
    for start in range(0, len(pairs), per_batch):
        i, j = np.array(pairs[start:start + per_batch]).T
        ends, sums = _prefix_counts(ranks[i], ranks[j])
        ends = ends[:, at]
        rows, cols = np.nonzero(_heads(ends))
        ends = ends[rows, cols]
        points = list(zip(ends.tolist(), _tau_b(ends, *sums[:, rows, ends - 1]).tolist()))
        bounds = np.searchsorted(rows, np.arange(len(i) + 1)).tolist()
        for a, b, whole in zip(bounds, bounds[1:], _tau_b(n, *sums[:, :, -1]).tolist()):
            yield points[a:b], whole


def _check_ks(ks: Sequence[int], n: int) -> list[int]:
    """The Ks of at least 2, after refusing unsorted Ks and any K above n."""
    ks = list(ks)
    if ks != sorted(ks):
        raise DataError("Ks must be sorted ascending")
    ks = [k for k in ks if k >= 2]
    for k in ks:
        if k > n:
            raise DataError(f"K={k} exceeds table size {n}")
    return ks


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (tau-b) in O(n log² n).

    The pair counts come from the same sweep as `topk_curve` (its full-size
    prefix) and stay exact integers. Returns NaN when either column is fully
    tied (tau undefined).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("kendall_tau needs two equal-length 1-d score arrays")
    if a.size < 2:
        raise DataError("kendall_tau needs at least 2 entries")
    ((_, tau),) = _sweep(_dense_ranks(np.stack([a, b])), [(0, 1)], [])
    return tau


# ──────────────────────────────────────────────────────────────────────
#  Aligned score tables
# ──────────────────────────────────────────────────────────────────────

@dataclass(frozen=True, eq=False)
class RankingTable:
    """Score columns of distinct method tags, aligned on the union of node
    labels; a node a method does not score is zero-filled."""

    labels: tuple
    tags: tuple[str, ...]
    columns: np.ndarray

    def __post_init__(self):
        if self.columns.shape != (len(self.tags), len(self.labels)):
            raise DataError("column matrix shape mismatch")
        repeated = [tag for tag in dict.fromkeys(self.tags) if self.tags.count(tag) > 1]
        if repeated:
            raise DataError(f"method tags are repeated: {', '.join(map(repr, repeated))}")

    @staticmethod
    def from_scores(scores: Mapping[str, Mapping]) -> "RankingTable":
        """Build from {method tag: {node label: score}}."""
        if not scores:
            raise DataError("no score columns given")
        labels = tuple(sort_labels(set().union(*scores.values())))
        index = {lab: i for i, lab in enumerate(labels)}
        columns = np.zeros((len(scores), len(labels)))
        for row, col in zip(columns, scores.values()):
            row[[index[lab] for lab in col]] = list(col.values())
        return RankingTable(labels, tuple(scores), columns)

    def column(self, tag: str) -> np.ndarray:
        return self.columns[self.tags.index(tag)]


def pairwise_heatmap(table: RankingTable) -> np.ndarray:
    """Symmetric matrix of whole-ranking tau values between all columns."""
    return heatmap_and_curves(table, [])[0]


def topk_curve(a: Sequence[float], b: Sequence[float], ks: Sequence[int]) -> Curve:
    """Tau between the two columns restricted to the top-K nodes of column a.

    Nodes tied with the K-th score are all included, so each point records
    the actual set size; requested sizes below 2 are skipped and duplicate
    actual sizes are emitted once. Direction matters: the selection always
    comes from column a. One O(n log² n) sweep yields the pair counts of
    every such prefix, so the cost does not grow with the number of Ks.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("topk_curve needs two equal-length 1-d score arrays")
    ks = _check_ks(ks, a.size)
    if not ks:
        return []
    ((curve, _),) = _sweep(_dense_ranks(np.stack([a, b])), [(0, 1)], ks)
    return curve


def heatmap_and_curves(
    table: RankingTable, ks: Sequence[int],
) -> tuple[np.ndarray, dict[tuple[str, str], Curve]]:
    """The `pairwise_heatmap` of the table and the `topk_curve` of every
    ordered pair of tags, from one batched sweep over all ordered pairs of
    columns.

    Each column is ranked once. A heatmap cell is its pair's full-size
    prefix, the whole-ranking tau bit for bit, whatever the Ks.
    """
    k, n = len(table.tags), len(table.labels)
    if k < 2:
        raise DataError("heatmap needs at least 2 columns")
    ks = _check_ks(ks, n)
    if n < 2:
        raise DataError("kendall_tau needs at least 2 entries")
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    heat = np.eye(k)
    curves: dict[tuple[str, str], Curve] = {}
    for (i, j), (curve, tau) in zip(pairs, _sweep(_dense_ranks(table.columns), pairs, ks)):
        curves[(table.tags[i], table.tags[j])] = curve
        if i < j:
            heat[i, j] = heat[j, i] = tau
    return heat, curves


def default_ks(n: int) -> list[int]:
    """Roughly geometric grid of 24 Ks from 10 up to n (n always included:
    `np.geomspace` ends at n exactly); [n] when n is 2 to 10."""
    if n < 2:
        return []
    return _sorted_distinct(np.round(np.geomspace(min(10, n), n, num=24)).astype(int)).tolist()


def method_family(tag: str) -> str:
    """Strip digits: U2 -> U, H5 -> H. Used to group curves into panels."""
    fam = "".join(ch for ch in tag if not ch.isdigit())
    return fam or tag


def curve_filter(curves: Mapping[tuple[str, str], Curve]) -> dict[tuple[str, str], Curve]:
    """Per `method_family` pair, keep at most the curve with the highest
    maximum, the one with the lowest minimum, and the ones with the highest
    and lowest mean (deduplicated, first-come tie-breaking)."""
    groups: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for key in curves:
        fam = (method_family(key[0]), method_family(key[1]))
        groups.setdefault(fam, []).append(key)

    selected: dict[tuple[str, str], Curve] = {}
    for fam_keys in groups.values():
        stats = []
        for key in fam_keys:
            taus = [t for _, t in curves[key] if not math.isnan(t)]
            if taus:
                stats.append((key, max(taus), min(taus), sum(taus) / len(taus)))
        if not stats:
            selected[fam_keys[0]] = curves[fam_keys[0]]
            continue
        picks = [
            max(stats, key=lambda s: s[1])[0],
            min(stats, key=lambda s: s[2])[0],
            max(stats, key=lambda s: s[3])[0],
            min(stats, key=lambda s: s[3])[0],
        ]
        for key in picks:
            if key not in selected:
                selected[key] = curves[key]
    return {key: curves[key] for key in curves if key in selected}


# ──────────────────────────────────────────────────────────────────────
#  CSV emission
# ──────────────────────────────────────────────────────────────────────

def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_heatmap_csv(path, table: RankingTable, matrix: np.ndarray) -> None:
    lines = ["method," + ",".join(table.tags)]
    for i, tag in enumerate(table.tags):
        lines.append(tag + "," + ",".join(_fmt(v) for v in matrix[i]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_curves_csv(path, curves: Mapping[tuple[str, str], Curve]) -> None:
    lines = ["method_a,method_b,K,tau"]
    for (tag_a, tag_b) in sorted(curves):
        for k, tau in curves[(tag_a, tag_b)]:
            lines.append(f"{tag_a},{tag_b},{k},{_fmt(tau)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
