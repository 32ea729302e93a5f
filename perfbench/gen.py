"""Seeded synthetic inputs in the simplicial text format.

Two shapes, both written as ``PREFIX-nverts.txt`` + ``PREFIX-simplices.txt``
(the program under test only ever sees these files):

- ``cotag``: co-tagging-shaped simplices of sizes 2-5 over power-law node
  popularity. Each order gets its *distinct* edge count drawn exactly, then a
  share of simplices is emitted again so that ingestion has duplicates to
  merge. At ``scale=1.0`` the ingested statistics match the criterion-9
  targets of the acceptance suite (3,021 nodes; 28,134 / 52,282 / 39,158 /
  25,475 edges at orders 2-5) within 1%; ``python3 perfbench/gen.py
  --self-check`` verifies that with the program's own ingest.
- ``bipartite``: a repeated-interaction stream of (left, right) pairs drawn
  from two power-law popularity profiles. Repeats merge into heavy edge
  weights, which is what makes the shifted power method slow on it.

Only numpy is needed, and the same seed always gives the same bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

COTAG_NODES = 3021
COTAG_EDGES = {2: 28134, 3: 52282, 4: 39158, 5: 25475}
DUP_SHARE = 0.04  # extra copies of existing simplices, as a share of edges


def _popularity(n: int, exponent: float, offset: float) -> np.ndarray:
    w = (np.arange(n) + offset) ** -exponent
    return w / w.sum()


def _distinct_rows(rng, n: int, size: int, count: int, p: np.ndarray) -> np.ndarray:
    """`count` distinct sorted rows of `size` distinct nodes, drawn by weight p."""
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    found = np.zeros((0, size), dtype=np.int64)
    while len(found) < count:
        batch = max(1024, 2 * (count - len(found)))
        rows = np.searchsorted(cdf, rng.random((batch, size)), side="right")
        rows.sort(axis=1)
        rows = rows[(np.diff(rows, axis=1) > 0).all(axis=1)]
        # keep first occurrences in draw order, so truncation stays seeded
        merged = np.concatenate([found, rows])
        _, first = np.unique(merged, axis=0, return_index=True)
        found = merged[np.sort(first)]
    return found[:count]


def _write(prefix: Path, simplices: list[np.ndarray]) -> None:
    prefix.parent.mkdir(parents=True, exist_ok=True)
    sizes = np.array([len(s) for s in simplices], dtype=np.int64)
    flat = np.concatenate(simplices)
    Path(f"{prefix}-nverts.txt").write_text(
        "\n".join(map(str, sizes.tolist())) + "\n", encoding="ascii")
    Path(f"{prefix}-simplices.txt").write_text(
        "\n".join(map(str, flat.tolist())) + "\n", encoding="ascii")


def cotag(prefix: Path, seed: int, nodes: int = COTAG_NODES,
          edge_scale: float = 1.0) -> dict:
    """Write a co-tagging-shaped dataset; returns its generation summary."""
    rng = np.random.default_rng([seed, 1])
    p = _popularity(nodes, 1.0, 10.0)
    ids = rng.permutation(nodes) + 1  # popularity is not aligned with ids
    simplices: list[np.ndarray] = []
    edges = {}
    for size, target in COTAG_EDGES.items():
        count = max(1, round(target * edge_scale))
        rows = _distinct_rows(rng, nodes, size, count, p)
        dups = rows[rng.choice(count, round(DUP_SHARE * count), replace=False)]
        rows = ids[np.concatenate([rows, dups])]
        simplices.extend(rng.permuted(rows, axis=1))
        edges[size] = count
    order = rng.permutation(len(simplices))
    _write(prefix, [simplices[i] for i in order])
    return {"shape": "cotag", "nodes": nodes, "edges": edges,
            "simplices": len(simplices)}


def bipartite(prefix: Path, seed: int, left: int, right: int, draws: int,
              exponent: float = 1.0) -> dict:
    """Write a bipartite repeated-interaction pair stream."""
    rng = np.random.default_rng([seed, 2])
    u = rng.choice(left, draws, p=_popularity(left, exponent, 5.0))
    v = rng.choice(right, draws, p=_popularity(right, exponent, 5.0))
    u = rng.permutation(left)[u] + 1
    v = rng.permutation(right)[v] + 1 + left
    _write(prefix, list(np.stack([u, v], axis=1)))
    return {"shape": "bipartite", "left": left, "right": right, "draws": draws,
            "exponent": exponent}


def self_check(workdir: Path, seed: int) -> list[str]:
    """Ingest the scale-1.0 co-tagging set with the program and compare the
    node and per-order edge counts to the criterion-9 targets (1%)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from hyperrank.cli import ingest_simplicial
    from hyperrank.hypergraph import stats

    prefix = workdir / f"selfcheck-{seed}" / "cotag"
    cotag(prefix, seed)
    h, _ = ingest_simplicial(f"{prefix}-nverts.txt", f"{prefix}-simplices.txt")
    rec = stats(h)
    errors = []
    if abs(rec.nodes - COTAG_NODES) > 0.01 * COTAG_NODES:
        errors.append(f"nodes {rec.nodes}, target {COTAG_NODES}")
    for size, target in COTAG_EDGES.items():
        got = rec.per_order[size].edges if size in rec.per_order else 0
        if abs(got - target) > 0.01 * target:
            errors.append(f"order {size}: {got} edges, target {target}")
    print(f"seed {seed}: {rec.nodes} nodes, per-order edges "
          f"{[rec.per_order[s].edges for s in sorted(rec.per_order)]}, "
          f"per-order nodes {[rec.per_order[s].nodes for s in sorted(rec.per_order)]}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-check", action="store_true",
                        help="generate at scale 1.0 and check criterion-9 counts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", default=".perfbench/gen")
    args = parser.parse_args()
    if not args.self_check:
        parser.print_help()
        return 1
    errors = self_check(Path(args.workdir), args.seed)
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
