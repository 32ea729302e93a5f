"""Ranking alignment and rank-correlation analysis: tie-corrected Kendall
tau, zero-filled score tables across methods, pairwise correlation matrices,
top-K correlation curves, and the max/min curve filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .hypergraph import sort_labels

Curve = list[tuple[int, float]]


# ──────────────────────────────────────────────────────────────────────
#  Kendall tau (tau-b)
# ──────────────────────────────────────────────────────────────────────

def _run_offsets(starts: np.ndarray) -> np.ndarray:
    """Index of each element within its run; `starts` flags the run heads."""
    pos = np.arange(starts.size)
    return pos - np.maximum.accumulate(np.where(starts, pos, 0))


def _earlier_counts(rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each position j, count the positions i < j with rank[i] < rank[j]
    and those with rank[i] == rank[j].

    Bottom-up merge sort of the keys `rank << bits | position`, padded to a
    power of two at the end, where no real element counts the padding. Once
    the blocks of width 2^(k+1) are sorted, an element of a block's right
    half (position bit k set) is preceded by exactly the left-half elements
    of rank <= its own: its index in the block less the right-half elements
    up to it. The final order is by (rank, position), so its runs give the
    equal counts.
    """
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
        # each earlier block holds 2^k right-half elements
        before = idx + 1 - np.cumsum(right) - ((idx >> (k + 1)) << k)
        lower_eq[keys & (size - 1)] += right * before
    in_order = keys >> bits
    equal = np.empty(size, dtype=np.int64)
    equal[keys & (size - 1)] = _run_offsets(np.r_[True, in_order[1:] != in_order[:-1]])
    return (lower_eq - equal)[:n], equal[:n]


def _prefix_counts(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts of every tie-inclusive top prefix of column a, in one sweep.

    Returns `ends`, the prefix sizes (the end of each tie group of a in
    descending order), and `sums`, an int64 array whose rows are ties_a,
    ties_b, ties_ab and the discordant pairs of the top-`ends[g]` nodes.
    Within a tie group of a the order is b descending, so an earlier node
    with a smaller b always lies in an earlier group: that pair is
    discordant, never tied in a. A NaN score, which has no rank, is a
    `DataError`.
    """
    if np.isnan(a).any() or np.isnan(b).any():
        raise DataError("scores to rank must not be NaN")
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


def _tau_b(n: int, ties_a: int, ties_b: int, ties_ab: int, discordant: int) -> float:
    n0 = n * (n - 1) // 2
    numerator = n0 - ties_a - ties_b + ties_ab - 2 * discordant
    # one sqrt of the exact Python-int product keeps the +/-1 cases exact
    # (the product overflows int64 from n of about 78,000)
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    if denom == 0:
        return float("nan")
    return numerator / denom


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
    n = a.size
    if n < 2:
        raise DataError("kendall_tau needs at least 2 entries")
    _, sums = _prefix_counts(a, b)
    return _tau_b(n, *sums[:, -1].tolist())


# ──────────────────────────────────────────────────────────────────────
#  Aligned score tables
# ──────────────────────────────────────────────────────────────────────

@dataclass(frozen=True, eq=False)
class RankingTable:
    """Score columns aligned on the union of node labels, zero-filled.

    `present[k, i]` distinguishes a genuine score of zero from a zero fill
    for a node absent from method k.
    """

    labels: tuple
    tags: tuple[str, ...]
    columns: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        if self.columns.shape != (len(self.tags), len(self.labels)):
            raise DataError("column matrix shape mismatch")

    @staticmethod
    def from_scores(scores) -> "RankingTable":
        """Build from {method tag: {node label: score}} or (tag, scores) pairs.

        Repeated tags are allowed (they become identical-by-construction
        columns useful as determinism checks).
        """
        pairs = list(scores.items()) if isinstance(scores, Mapping) else list(scores)
        if not pairs:
            raise DataError("no score columns given")
        union: set = set()
        for _, col in pairs:
            union.update(col.keys())
        labels = tuple(sort_labels(union))
        index = {lab: i for i, lab in enumerate(labels)}
        tags = tuple(tag for tag, _ in pairs)
        columns = np.zeros((len(tags), len(labels)))
        present = np.zeros((len(tags), len(labels)), dtype=bool)
        for k, (_, col) in enumerate(pairs):
            for lab, val in col.items():
                columns[k, index[lab]] = val
                present[k, index[lab]] = True
        return RankingTable(labels, tags, columns, present)

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
    if a.shape != b.shape:
        raise DataError("columns must align")
    ks = list(ks)
    if ks != sorted(ks):
        raise DataError("Ks must be sorted ascending")
    n = a.size
    ks = [k for k in ks if k >= 2]
    for k in ks:
        if k > n:
            raise DataError(f"K={k} exceeds table size {n}")
    if not ks:
        return []
    ends, sums = _prefix_counts(a, b)
    # each K reads the prefix that ends with the tie group of its K-th node
    g = np.unique(np.searchsorted(ends, ks))
    rows = zip(ends[g].tolist(), *sums[:, g].tolist())
    return [(row[0], _tau_b(*row)) for row in rows]


def heatmap_and_curves(
    table: RankingTable, ks: Sequence[int],
) -> tuple[np.ndarray, dict[tuple[str, str], Curve]]:
    """The `pairwise_heatmap` of the table and the `topk_curve` of every
    ordered pair of distinct tags, from one sweep per ordered pair.

    A heatmap cell is the K = n point of its pair's curve, which is the
    whole-ranking tau bit for bit; only when the Ks stop short of n's tie
    group does a cell take its own `kendall_tau` sweep.
    """
    k, n = len(table.tags), len(table.labels)
    if k < 2:
        raise DataError("heatmap needs at least 2 columns")
    heat = np.eye(k)
    curves: dict[tuple[str, str], Curve] = {}
    for i, tag_a in enumerate(table.tags):
        for j, tag_b in enumerate(table.tags):
            if i == j:
                continue
            a, b = table.columns[i], table.columns[j]
            curve = topk_curve(a, b, ks)
            if tag_a != tag_b:
                curves[(tag_a, tag_b)] = curve
            if i < j:
                heat[i, j] = heat[j, i] = (curve[-1][1] if curve and curve[-1][0] == n
                                           else kendall_tau(a, b))
    return heat, curves


def default_ks(n: int, points: int = 24, start: int = 10) -> list[int]:
    """Roughly geometric K grid from `start` up to n (n always included)."""
    if n < 2:
        return []
    start = min(max(2, start), n)
    if n == start:
        return [n]
    grid = np.unique(
        np.round(np.geomspace(start, n, num=points)).astype(int)
    ).tolist()
    if grid[-1] != n:
        grid.append(n)
    return grid


def method_family(tag: str) -> str:
    """Strip digits: U2 -> U, H5 -> H. Used to group curves into panels."""
    fam = "".join(ch for ch in tag if not ch.isdigit())
    return fam or tag


def curve_filter(
    curves: Mapping[tuple[str, str], Curve],
    family: Callable[[str], str] = method_family,
) -> dict[tuple[str, str], Curve]:
    """Per family pair, keep at most the curve with the highest maximum, the
    one with the lowest minimum, and the ones with the highest and lowest
    mean (deduplicated, first-come tie-breaking)."""
    groups: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for key in curves:
        fam = (family(key[0]), family(key[1]))
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
