"""Ranking alignment and rank-correlation analysis: tie-corrected Kendall
tau, zero-filled score tables across methods, pairwise correlation matrices,
top-K correlation curves, and the max/min curve filter.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .hypergraph import sort_labels

Curve = list[tuple[int, float]]


def _thread_cap() -> int:
    raw = os.environ.get("HYPERRANK_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ──────────────────────────────────────────────────────────────────────
#  Kendall tau (tau-b)
# ──────────────────────────────────────────────────────────────────────

def _count_inversions(x: list) -> tuple[list, int]:
    """Merge sort counting strict inversions (pairs i<j with x[i] > x[j])."""
    n = len(x)
    if n <= 1:
        return x, 0
    mid = n // 2
    left, cl = _count_inversions(x[:mid])
    right, cr = _count_inversions(x[mid:])
    merged: list = []
    count = cl + cr
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            count += len(left) - i
            merged.append(right[j])
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, count


def _tie_pairs(sorted_vals: np.ndarray) -> int:
    total = 0
    run = 1
    for k in range(1, len(sorted_vals)):
        if sorted_vals[k] == sorted_vals[k - 1]:
            run += 1
        else:
            total += run * (run - 1) // 2
            run = 1
    total += run * (run - 1) // 2
    return total


def _joint_tie_pairs(a_s: np.ndarray, b_s: np.ndarray) -> int:
    total = 0
    run = 1
    for k in range(1, len(a_s)):
        if a_s[k] == a_s[k - 1] and b_s[k] == b_s[k - 1]:
            run += 1
        else:
            total += run * (run - 1) // 2
            run = 1
    total += run * (run - 1) // 2
    return total


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (tau-b) in O(n log n).

    Returns NaN when either column is fully tied (tau undefined).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("kendall_tau needs two equal-length 1-d score arrays")
    n = a.size
    if n < 2:
        raise DataError("kendall_tau needs at least 2 entries")
    order = np.lexsort((b, a))
    a_s, b_s = a[order], b[order]
    n0 = n * (n - 1) // 2
    ties_a = _tie_pairs(a_s)
    ties_b = _tie_pairs(np.sort(b))
    ties_ab = _joint_tie_pairs(a_s, b_s)
    _, discordant = _count_inversions(b_s.tolist())
    numerator = n0 - ties_a - ties_b + ties_ab - 2 * discordant
    # single sqrt of the exact integer product keeps the +/-1 cases exact
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    if denom == 0:
        return float("nan")
    return numerator / denom


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
    k = len(table.tags)
    if k < 2:
        raise DataError("heatmap needs at least 2 columns")
    out = np.eye(k)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]

    def fill(pair):
        i, j = pair
        out[i, j] = out[j, i] = kendall_tau(table.columns[i], table.columns[j])

    cap = _thread_cap()
    if cap > 1:
        # imported here: the pool is opt-in, and the import costs every CLI start
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cap) as pool:
            list(pool.map(fill, pairs))
    else:
        for pair in pairs:
            fill(pair)
    return out


def topk_curve(a: Sequence[float], b: Sequence[float], ks: Sequence[int]) -> Curve:
    """Tau between the two columns restricted to the top-K nodes of column a.

    Nodes tied with the K-th score are all included, so each point records
    the actual set size; requested sizes below 2 are skipped and duplicate
    actual sizes are emitted once. Direction matters: the selection always
    comes from column a.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DataError("columns must align")
    ks = list(ks)
    if ks != sorted(ks):
        raise DataError("Ks must be sorted ascending")
    n = a.size
    a_desc = np.sort(a)[::-1]
    out: Curve = []
    seen: set[int] = set()
    for k in ks:
        if k < 2:
            continue
        if k > n:
            raise DataError(f"K={k} exceeds table size {n}")
        boundary = a_desc[k - 1]
        sel = a >= boundary
        actual = int(sel.sum())
        if actual in seen:
            continue
        seen.add(actual)
        out.append((actual, kendall_tau(a[sel], b[sel])))
    return out


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
