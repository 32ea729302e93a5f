"""Command-line front end: dataset ingestion, preprocessing, centrality runs,
ranking comparisons, and per-order statistics, with JSON run manifests for
reproducibility.

Datasets use the simplicial text format: `PREFIX-nverts.txt` holds one
simplex size per line, `PREFIX-simplices.txt` the concatenated node ids, and
an optional `PREFIX-node-labels.txt` maps ids to display labels. A
`PREFIX-times.txt` file may be present and is ignored.

Exit codes: 0 success, 1 usage error, 2 data error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DataError, HyperrankError, UsageError
from .hypergraph import (
    Hypergraph,
    PreprocessReport,
    is_strongly_connected,
    largest_connected_component,
    order_slice,
    preprocess_stream,
    stats,
)
from .rankcmp import (
    RankingTable,
    _fmt,
    curve_filter,
    default_ks,
    pairwise_heatmap,
    topk_curve,
    write_curves_csv,
    write_heatmap_csv,
)
from .spectral import (
    SolverOptions,
    alt_centrality,
    eigenvector_centrality,
    hec,
    uhec,
    uphec,
    z_via_uplift,
)
from .tensor import from_hypergraph

METHODS = ("ec", "hec", "uhec", "uphec", "alt", "zec-uplift")


# ──────────────────────────────────────────────────────────────────────
#  Ingestion
# ──────────────────────────────────────────────────────────────────────

def _read_int_stream(path: Path) -> np.ndarray:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    tokens = text.split()
    if not tokens:
        raise DataError(f"empty file: {path}")
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    for tok in tokens:  # locate the token numpy rejected
        try:
            value = int(tok)
        except ValueError:
            raise DataError(f"non-integer token {tok!r} in {path}")
        if not np.iinfo(np.int64).min <= value <= np.iinfo(np.int64).max:
            raise DataError(f"integer token {tok!r} in {path} is outside the int64 range")
    raise DataError(f"cannot parse integers from {path}")


def _read_label_map(path: Path) -> dict[int, str]:
    mapping: dict[int, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t") if "\t" in line else line.split(None, 1)
        if len(parts) == 1:
            continue
        try:
            mapping[int(parts[0])] = parts[1]
        except ValueError:
            raise DataError(f"bad node-label line in {path}: {line!r}")
    return mapping


def _relabel(h: Hypergraph, mapping: dict[int, str]) -> Hypergraph:
    new = []
    seen: set = set()
    for lab in h.labels:
        name = mapping.get(lab, lab)
        if name in seen:
            name = f"{name} ({lab})"
        seen.add(name)
        new.append(name)
    return h.with_labels(tuple(new))


def ingest_simplicial(
    nverts_path,
    simplices_path,
    labels_path=None,
    keep_multiplicities: bool = False,
) -> tuple[Hypergraph, PreprocessReport]:
    """Decode the simplicial stream pair and run the preprocessing pipeline."""
    nverts = _read_int_stream(Path(nverts_path))
    flat = _read_int_stream(Path(simplices_path))
    total = sum(nverts.tolist())  # Python ints: no int64 overflow
    if total != len(flat):
        raise DataError(
            f"count mismatch: nverts sums to {total} but the simplex "
            f"stream holds {len(flat)} ids"
        )
    if (nverts < 1).any():
        raise DataError("simplex sizes must be positive")
    h, report = preprocess_stream(nverts, flat, keep_multiplicities=keep_multiplicities)
    if labels_path is not None:
        h = _relabel(h, _read_label_map(Path(labels_path)))
    return h, report


def _resolve_dataset(raw: str) -> tuple[Path, Path, Optional[Path]]:
    """Resolve --input into (nverts, simplices, labels?) paths.

    Accepts a file prefix (`PREFIX-nverts.txt` etc.) or a directory holding
    exactly one such trio.
    """
    p = Path(raw)
    if p.is_dir():
        candidates = sorted(p.glob("*-nverts.txt"))
        if len(candidates) != 1:
            raise DataError(
                f"{raw}: expected exactly one *-nverts.txt in directory, "
                f"found {len(candidates)}"
            )
        p = Path(str(candidates[0])[: -len("-nverts.txt")])
    nverts = Path(f"{p}-nverts.txt")
    simplices = Path(f"{p}-simplices.txt")
    labels = Path(f"{p}-node-labels.txt")
    if not nverts.exists() or not simplices.exists():
        raise DataError(f"dataset files not found for prefix {p}")
    return nverts, simplices, labels if labels.exists() else None


def _print_report(report: PreprocessReport) -> None:
    d = report.as_dict()
    print(
        "ingested {raw_simplices} simplices: dropped {dropped_small} below size 2, "
        "{simplices_with_repeats} had repeated ids, merged {merged_duplicates} "
        "duplicates, dropped {dropped_isolated} isolated nodes -> "
        "{final_nodes} nodes, {final_edges} edges".format(**d)
    )


# ──────────────────────────────────────────────────────────────────────
#  Output helpers
# ──────────────────────────────────────────────────────────────────────

def _write_scores_csv(path: Path, pairs) -> None:
    ordered = sorted(pairs, key=lambda kv: (-kv[1], str(kv[0])))
    lines = ["node,score"]
    lines.extend(f"{lab},{_fmt(score)}" for lab, score in ordered)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _ensure_connected(h: Hypergraph, use_lcc: bool) -> Hypergraph:
    if h.n and is_strongly_connected(h):
        return h
    if not use_lcc:
        raise DataError(
            "input is not strongly connected; pass --lcc to analyze the "
            "largest connected component"
        )
    return largest_connected_component(h)


def _solver_options(args) -> SolverOptions:
    return SolverOptions(
        tol=args.tol, max_iter=args.max_iter, shift=args.shift, seed=args.seed
    )


# ──────────────────────────────────────────────────────────────────────
#  centrality
# ──────────────────────────────────────────────────────────────────────

def _run_method(h: Hypergraph, args) -> tuple[dict, dict]:
    """Dispatch one centrality method; returns (label->score, result meta)."""
    opts = _solver_options(args)
    method = args.method
    if method in ("ec", "hec"):
        m = 2 if method == "ec" else args.order
        if m is None:
            raise DataError("--order is required for hec")
        sl = order_slice(h, m)
        if not sl.blocks:
            raise DataError(f"no hyperedges of size {m} in the input")
        sl = _ensure_connected(sl, args.lcc)
        if method == "ec":
            res = eigenvector_centrality(from_hypergraph(sl), opts, labels=sl.labels)
        else:
            res = hec(sl, opts, aux_gauge=args.aux_gauge)
    elif method == "uhec":
        if args.order is None:
            raise DataError("--order is required for uhec")
        res = uhec(_ensure_connected(h, args.lcc), args.order, opts,
                   aux_gauge=args.aux_gauge)
    elif method == "uphec":
        if args.p is None:
            raise DataError("--p is required for uphec")
        res = uphec(_ensure_connected(h, args.lcc), args.p, opts,
                    aux_gauge=args.aux_gauge)
    elif method == "alt":
        if args.order is None:
            raise DataError("--order is required for alt")
        res = alt_centrality(_ensure_connected(h, args.lcc), args.order, opts,
                             aux_gauge=args.aux_gauge)
    elif method == "zec-uplift":
        pair = z_via_uplift(_ensure_connected(h, args.lcc), args.norm)
        scores = dict(zip(pair.labels, (float(v) for v in pair.eigenvector.values)))
        meta = {
            "eigenvalue": pair.eigenvalue,
            "base_eigenvalue": pair.base_eigenvalue,
            "omega": pair.omega,
            "norm": pair.norm,
            "converged": True,
            "iterations": 0,
            "residual": 0.0,
        }
        return scores, meta
    else:  # pragma: no cover - argparse restricts choices
        raise DataError(f"unknown method {method!r}")
    meta = {
        "eigenvalue": res.eigenvalue,
        "residual": res.residual,
        "iterations": res.iterations,
        "converged": res.converged,
        "aux_scores": {str(k): v for k, v in res.aux_scores.items()},
    }
    return res.as_mapping(), meta


def cmd_centrality(args) -> int:
    if args.from_manifest:
        stored = json.loads(Path(args.from_manifest).read_text(encoding="utf-8"))
        for key in ("method", "order", "p", "norm", "lcc", "aux_gauge",
                    "tol", "max_iter", "shift", "seed", "input"):
            if key in stored:
                setattr(args, key, stored[key])
    nverts, simplices, labels = _resolve_dataset(args.input)
    keep = args.method == "zec-uplift"
    h, report = ingest_simplicial(nverts, simplices, labels, keep_multiplicities=keep)
    _print_report(report)

    scores, meta = _run_method(h, args)

    out = Path(args.out)
    _write_scores_csv(out, scores.items())
    manifest = {
        "command": "centrality",
        "method": args.method,
        "order": args.order,
        "p": args.p,
        "norm": args.norm,
        "lcc": args.lcc,
        "aux_gauge": args.aux_gauge,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "shift": args.shift,
        "seed": args.seed,
        "input": args.input,
        "normalization": "l1",
        "preprocessing": report.as_dict(),
        "result": meta,
        "output": str(out),
    }
    _write_manifest(Path(args.manifest or f"{out}.manifest.json"), manifest)
    if not meta.get("converged", True):
        print("error: solver did not converge within max_iter", file=sys.stderr)
        return 3
    print(f"wrote {out}")
    return 0


# ──────────────────────────────────────────────────────────────────────
#  compare
# ──────────────────────────────────────────────────────────────────────

def _parse_compare_tag(tag: str) -> tuple[str, int]:
    tag = tag.strip().lower()
    if len(tag) < 2 or tag[0] not in "uha" or not tag[1:].isdigit():
        raise UsageError(
            f"unknown method tag {tag!r}: expected u<p>, h<m>, or a<m>"
        )
    return tag[0], int(tag[1:])


def _parse_topk(raw: str) -> list[int]:
    try:
        return sorted(int(x) for x in raw.split(","))
    except ValueError:
        raise UsageError(
            f"--topk expects comma-separated integers, got {raw!r}"
        ) from None


def _compare_scores(h: Hypergraph, kind: str, order: int, args) -> dict:
    opts = _solver_options(args)
    if kind == "h":
        sl = order_slice(h, order)
        if not sl.blocks:
            raise DataError(f"no hyperedges of size {order} for method h{order}")
        sl = largest_connected_component(sl)
        res = hec(sl, opts, aux_gauge=args.aux_gauge)
    elif kind == "u":
        res = uphec(_ensure_connected(h, args.lcc), order, opts,
                    aux_gauge=args.aux_gauge)
    else:
        res = alt_centrality(_ensure_connected(h, args.lcc), order, opts,
                             aux_gauge=args.aux_gauge)
    if not res.converged:
        raise ConvergenceError(f"method {kind}{order} did not converge")
    return res.as_mapping()


def cmd_compare(args) -> int:
    ks = _parse_topk(args.topk) if args.topk else None
    nverts, simplices, labels = _resolve_dataset(args.input)
    h, report = ingest_simplicial(nverts, simplices, labels)
    _print_report(report)

    tags = [t for t in args.methods.split(",") if t.strip()]
    if len(tags) < 2:
        raise DataError("compare needs at least 2 method tags")
    cache: dict[tuple[str, int], dict] = {}
    columns: list[tuple[str, dict]] = []
    for raw in tags:
        kind, order = _parse_compare_tag(raw)
        if (kind, order) not in cache:
            print(f"running {kind.upper()}{order} ...")
            cache[(kind, order)] = _compare_scores(h, kind, order, args)
        columns.append((f"{kind.upper()}{order}", cache[(kind, order)]))

    table = RankingTable.from_scores(columns)
    heat = pairwise_heatmap(table)

    if ks is None:
        ks = default_ks(len(table.labels))
    curves = {}
    for tag_a in table.tags:
        for tag_b in table.tags:
            if tag_a != tag_b:
                curves[(tag_a, tag_b)] = topk_curve(
                    table.column(tag_a), table.column(tag_b), ks
                )
    filtered = curve_filter(curves)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_heatmap_csv(out_dir / "heatmap.csv", table, heat)
    write_curves_csv(out_dir / "topk_curves.csv", curves)
    write_curves_csv(out_dir / "topk_curves_filtered.csv", filtered)
    manifest = {
        "command": "compare",
        "methods": list(table.tags),
        "input": args.input,
        "lcc": args.lcc,
        "aux_gauge": args.aux_gauge,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "shift": args.shift,
        "seed": args.seed,
        "topk": ks,
        "preprocessing": report.as_dict(),
        "outputs": ["heatmap.csv", "topk_curves.csv", "topk_curves_filtered.csv"],
    }
    _write_manifest(out_dir / "compare_manifest.json", manifest)
    print(f"wrote {out_dir}/heatmap.csv and top-K curve tables")
    return 0


# ──────────────────────────────────────────────────────────────────────
#  stats
# ──────────────────────────────────────────────────────────────────────

def cmd_stats(args) -> int:
    nverts, simplices, labels = _resolve_dataset(args.input)
    h, report = ingest_simplicial(nverts, simplices, labels)
    _print_report(report)
    rec = stats(h)
    lines = ["order,nodes,hyperedges,lcc_pct"]
    for m, row in sorted(rec.per_order.items()):
        lines.append(f"{m},{row.nodes},{row.edges},{_fmt(100 * row.lcc_fraction)}")
    lines.append(
        f"complete,{rec.nodes},{rec.edges},{_fmt(100 * rec.lcc_fraction)}"
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


# ──────────────────────────────────────────────────────────────────────
#  Parser / entry point
# ──────────────────────────────────────────────────────────────────────

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True,
                     help="dataset prefix or directory (simplicial text format)")
    sub.add_argument("--lcc", action="store_true",
                     help="analyze the largest connected component when disconnected")
    sub.add_argument("--tol", type=float, default=1e-10)
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=100_000)
    sub.add_argument("--shift", type=float, default=1.0,
                     help="diagonal shift of the power iteration")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for a random positive start vector (default: uniform start)")
    sub.add_argument("--aux-gauge", dest="aux_gauge", action="store_true",
                     help="solve on the once-more-uplifted tensor with the auxiliary "
                          "component as scale gauge (flatter scores)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperrank",
        description="Spectral centralities for non-uniform hypergraphs via "
                    "uplift and projection.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    cen = subs.add_parser("centrality", help="compute one centrality ranking")
    cen.add_argument("--method", choices=METHODS, required=True)
    cen.add_argument("--order", type=int, default=None,
                     help="target order m (hec/uhec/alt)")
    cen.add_argument("--p", type=int, default=None, help="projection order (uphec)")
    cen.add_argument("--norm", choices=("z1", "z2"), default="z2",
                     help="unit norm for zec-uplift")
    _add_common(cen)
    cen.add_argument("--out", required=True, help="output CSV path")
    cen.add_argument("--manifest", default=None,
                     help="manifest path (default: <out>.manifest.json)")
    cen.add_argument("--from-manifest", dest="from_manifest", default=None,
                     help="re-run with the parameters stored in a manifest")
    cen.set_defaults(func=cmd_centrality)

    cmp_ = subs.add_parser("compare", help="run several methods and compare rankings")
    cmp_.add_argument("--methods", required=True,
                      help="comma-separated tags, e.g. u2,u3,u4,u5,h2,h3,a3")
    _add_common(cmp_)
    cmp_.add_argument("--topk", default=None,
                      help="comma-separated K values for top-K curves")
    cmp_.add_argument("--out-dir", dest="out_dir", required=True)
    cmp_.set_defaults(func=cmd_compare)

    st = subs.add_parser("stats", help="per-order node/edge/LCC table")
    st.add_argument("--input", required=True)
    st.add_argument("--out", required=True)
    st.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except HyperrankError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
