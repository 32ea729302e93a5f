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
import csv
import json
import sys
import warnings
from pathlib import Path
from types import NoneType
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DataError, UsageError
from .hypergraph import (
    Hypergraph,
    PreprocessReport,
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
    heatmap_and_curves,
    write_curves_csv,
    write_heatmap_csv,
)
from .spectral import (
    SolverOptions,
    alt_centrality,
    hec,
    uhec,
    uphec,
    z_via_uplift,
)

# method -> (pipeline, order, `compare` tag, solves on the size-`order` slice).
# The order is the option that sets it, a fixed order, or None. Pipelines are
# named, not held: `_solve` looks each one up in this module when it runs, so
# a wrapper rebound over the name (a tracer, say) sees every solve. `ec` is
# `hec` on the order-2 slice.
_METHODS = {
    "ec": ("hec", 2, None, True),
    "hec": ("hec", "order", "h", True),
    "uhec": ("uhec", "order", None, False),
    "uphec": ("uphec", "p", "u", False),
    "alt": ("alt_centrality", "order", "a", False),
    "zec-uplift": ("z_via_uplift", None, None, False),
}
METHODS = tuple(_METHODS)
_TAGS = {tag: method for method, (_, _, tag, _) in _METHODS.items() if tag}

# run parameter -> the JSON types its value may have: the parameters the
# manifests record and `--from-manifest` restores (`compare` records those
# its parser defines); null is allowed where the option's default is None
_PARAMS = {"method": (str,), "order": (int, NoneType), "p": (int, NoneType),
           "norm": (str,), "input": (str,), "lcc": (bool,), "aux_gauge": (bool,),
           "tol": (int, float), "max_iter": (int,), "seed": (int, NoneType)}


# ──────────────────────────────────────────────────────────────────────
#  Ingestion
# ──────────────────────────────────────────────────────────────────────

def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _read_int_stream(path: Path) -> np.ndarray:
    """The whitespace-separated int64 tokens of the file at `path`, in order.

    numpy's C parser reads a file of equal-length lines of plain decimal
    integers. Anything it refuses or warns about (no tokens, lines of
    differing length, a token such as `1_000` that Python's `int` takes, a
    token that is no integer at all, an unreadable file) goes to
    `_scan_int_stream`. numpy opens a file by its name and would read a
    compressed suffix decompressed, or a missing file's compressed namesake,
    so those go to the scan too.
    """
    if path.is_file() and path.suffix not in (".gz", ".bz2", ".xz", ".lzma"):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ids = np.loadtxt(path, dtype=np.int64, ndmin=1, comments=None,
                                 encoding="utf-8").ravel()
            if len(ids):
                return ids
        except (ValueError, OSError, Warning):  # UnicodeDecodeError is a ValueError
            pass
    return _scan_int_stream(path)


def _scan_int_stream(path: Path) -> np.ndarray:
    """`_read_int_stream` one Python token at a time: it takes what `int`
    takes and names the first token it refuses."""
    tokens = _read_text(path).split()
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
    raise DataError(f"cannot parse integers from {path}")  # pragma: no cover - loop raises first


def _read_label_map(path: Path) -> dict[int, str]:
    mapping: dict[int, str] = {}
    for line in _read_text(path).splitlines():
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
    seen: set[str] = set()  # names as the CSVs print them: id 5 and label "5" collide
    for lab in h.labels:
        name = mapping.get(lab, lab)
        while str(name) in seen:
            name = f"{name} ({lab})"
        seen.add(str(name))
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
    if (nverts < 1).any():  # then `preprocess_stream` checks the sizes' sum
        raise DataError("simplex sizes must be positive")
    h, report = preprocess_stream(nverts, _read_int_stream(Path(simplices_path)),
                                  keep_multiplicities=keep_multiplicities)
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


def _ingest(raw: str, keep_multiplicities: bool = False) -> tuple[Hypergraph, dict]:
    """Ingest the dataset --input names, print its preprocessing report and
    return the report as a dict."""
    h, report = ingest_simplicial(*_resolve_dataset(raw),
                                  keep_multiplicities=keep_multiplicities)
    d = report.as_dict()
    print(
        "ingested {raw_simplices} simplices: dropped {dropped_small} below size 2, "
        "{simplices_with_repeats} had repeated ids, merged {merged_duplicates} "
        "duplicates, dropped {dropped_isolated} isolated nodes -> "
        "{final_nodes} nodes, {final_edges} edges".format(**d)
    )
    return h, d


# ──────────────────────────────────────────────────────────────────────
#  Output and solving helpers
# ──────────────────────────────────────────────────────────────────────

def _write_scores_csv(path: Path, pairs) -> None:
    ordered = sorted(pairs, key=lambda kv: (-kv[1], str(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(
            [("node", "score"), *((lab, _fmt(score)) for lab, score in ordered)])


def _write_manifest(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _check_writable(path: Path) -> None:
    """Raise the `OSError` that writing `path` would raise, before any work is
    done; its directory is created, and a file this check creates is removed.
    A symlink to a missing file is kept: the file created at its target goes."""
    existed = path.exists()
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8"):
        pass
    if not existed:
        path.resolve().unlink()


def _params(args) -> dict:
    return {key: getattr(args, key) for key in _PARAMS if hasattr(args, key)}


def _restore(args, path: Path) -> None:
    """Set the run parameters stored in the manifest at `path` on `args`;
    other keys are ignored."""
    try:
        stored = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"cannot parse manifest {path}: {exc}") from None
    if not isinstance(stored, dict):
        raise DataError(f"manifest {path} does not hold a JSON object")
    for key, types in _PARAMS.items():
        if key not in stored:
            continue
        value = stored[key]
        if type(value) not in types:  # exact type: JSON true is a bool, not a count
            names = " or ".join("null" if t is NoneType else t.__name__ for t in types)
            raise DataError(f"manifest {path}: {key!r} must be {names}, got {value!r}")
        setattr(args, key, value)


def _options(args) -> SolverOptions:
    """The solver settings of the parsed arguments, validated."""
    return SolverOptions(tol=args.tol, max_iter=args.max_iter, seed=args.seed)


def _solve(h: Hypergraph, method: str, order: Optional[int], args,
           opts: SolverOptions, lcc: bool) -> tuple[dict, dict]:
    """Run one method at `order`; returns (label->score, result meta).

    A sliced method solves on the size-`order` edges alone. With `lcc` the
    largest component of what it solves on stands in for it; a disconnected
    input that remains is refused by the solver with a `DataError`.
    """
    pipeline, _, _, sliced = _METHODS[method]
    solve = globals()[pipeline]
    if sliced:
        h = order_slice(h, order)
        if not h.blocks:
            raise DataError(f"no hyperedges of size {order} in the input")
    if lcc:
        h = largest_connected_component(h)
    if method == "zec-uplift":
        pair = solve(h, args.norm)
        scores = dict(zip(pair.labels, (float(v) for v in pair.eigenvector.values)))
        return scores, {"eigenvalue": pair.eigenvalue, "omega": pair.omega,
                        "base_eigenvalue": pair.base_eigenvalue, "norm": pair.norm,
                        "converged": True, "iterations": 0, "residual": 0.0}
    if sliced:
        res = solve(h, opts, aux_gauge=args.aux_gauge)
    else:
        res = solve(h, order, opts, aux_gauge=args.aux_gauge)
    return res.as_mapping(), {
        "eigenvalue": res.eigenvalue, "residual": res.residual,
        "iterations": res.iterations, "converged": res.converged,
        "aux_scores": {str(k): v for k, v in res.aux_scores.items()},
    }


# ──────────────────────────────────────────────────────────────────────
#  centrality
# ──────────────────────────────────────────────────────────────────────

def _method_order(args) -> Optional[int]:
    """The order `--method` runs at: fixed, none, or given by its option."""
    if args.method not in _METHODS:  # only a stored manifest can get here
        raise DataError(f"unknown method {args.method!r}")
    order = _METHODS[args.method][1]
    if isinstance(order, str):
        if getattr(args, order) is None:
            raise UsageError(f"--{order} is required for {args.method}")
        return getattr(args, order)
    return order


def cmd_centrality(args) -> int:
    if args.from_manifest:
        _restore(args, Path(args.from_manifest))
    order = _method_order(args)
    opts = _options(args)
    out = Path(args.out)
    manifest_path = Path(args.manifest or f"{out}.manifest.json")
    for path in (out, manifest_path):  # an unusable path fails before ingest
        _check_writable(path)
    h, report = _ingest(args.input, keep_multiplicities=args.method == "zec-uplift")
    scores, meta = _solve(h, args.method, order, args, opts, args.lcc)
    _write_scores_csv(out, scores.items())
    manifest = {"command": "centrality", **_params(args), "normalization": "l1",
                "preprocessing": report, "result": meta, "output": str(out)}
    _write_manifest(manifest_path, manifest)
    if not meta["converged"]:
        print("error: solver did not converge within max_iter", file=sys.stderr)
        return 3
    print(f"wrote {out}")
    return 0


# ──────────────────────────────────────────────────────────────────────
#  compare
# ──────────────────────────────────────────────────────────────────────

def _parse_compare_tag(tag: str) -> tuple[str, int, str]:
    """A tag such as `u3` as (method, order, column name)."""
    tag = tag.strip().lower()
    if tag[:1] not in _TAGS or not tag[1:].isdecimal():
        raise UsageError(
            f"unknown method tag {tag!r}: expected u<p>, h<m>, or a<m>"
        )
    return _TAGS[tag[0]], int(tag[1:]), f"{tag[0].upper()}{int(tag[1:])}"


def _parse_topk(raw: str) -> list[int]:
    try:
        return sorted(int(x) for x in raw.split(","))
    except ValueError:
        raise UsageError(
            f"--topk expects comma-separated integers, got {raw!r}"
        ) from None


def cmd_compare(args) -> int:
    ks = _parse_topk(args.topk) if args.topk else None
    runs = [_parse_compare_tag(t) for t in args.methods.split(",") if t.strip()]
    if len(runs) < 2:
        raise UsageError("compare needs at least 2 method tags")
    names = [name for _, _, name in runs]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise UsageError(f"method tag {name!r} is repeated in --methods")
    opts = _options(args)
    h, report = _ingest(args.input)
    # the table never holds more labels than the input has nodes; a K that
    # fits those but not the table is refused by `heatmap_and_curves`
    if ks and ks[-1] > h.n:
        raise DataError(f"K={ks[-1]} exceeds the {h.n} nodes of the input")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable path fails before any solve
    scores: dict[str, dict] = {}
    for method, order, name in runs:
        print(f"running {name} ...")
        # an h<m> slice is always reduced to its largest component
        scores[name], meta = _solve(h, method, order, args, opts,
                                    lcc=args.lcc or method == "hec")
        if not meta["converged"]:
            raise ConvergenceError(f"method {name} did not converge")

    table = RankingTable.from_scores(scores)
    if ks is None:
        ks = default_ks(len(table.labels))
    heat, curves = heatmap_and_curves(table, ks)
    filtered = curve_filter(curves)
    write_heatmap_csv(out_dir / "heatmap.csv", table, heat)
    write_curves_csv(out_dir / "topk_curves.csv", curves)
    write_curves_csv(out_dir / "topk_curves_filtered.csv", filtered)
    manifest = {"command": "compare", "methods": list(table.tags), **_params(args),
                "topk": ks, "preprocessing": report,
                "outputs": ["heatmap.csv", "topk_curves.csv", "topk_curves_filtered.csv"]}
    _write_manifest(out_dir / "compare_manifest.json", manifest)
    print(f"wrote {out_dir}/heatmap.csv and top-K curve tables")
    return 0


# ──────────────────────────────────────────────────────────────────────
#  stats
# ──────────────────────────────────────────────────────────────────────

def cmd_stats(args) -> int:
    out = Path(args.out)
    _check_writable(out)  # an unusable path fails before ingest
    h, _ = _ingest(args.input)
    rec = stats(h)
    lines = ["order,nodes,hyperedges,lcc_pct"]
    for m, row in sorted(rec.per_order.items()):
        lines.append(f"{m},{row.nodes},{row.edges},{_fmt(100 * row.lcc_fraction)}")
    lines.append(
        f"complete,{rec.nodes},{rec.edges},{_fmt(100 * rec.lcc_fraction)}"
    )
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
    sub.add_argument("--tol", type=float, default=SolverOptions.tol)
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=SolverOptions.max_iter)
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for a random positive start vector (default: uniform start)")
    sub.add_argument("--aux-gauge", dest="aux_gauge", action="store_true",
                     help="solve on the once-more-uplifted tensor with the auxiliary "
                          "component as scale gauge (flatter scores); applied as an "
                          "operator on the tensor, with the same math")


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
    except (DataError, OSError) as exc:  # OSError: mostly an unwritable output path,
        print(f"data error: {exc}", file=sys.stderr)  # as `_read_text` reads inputs
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover - runs under `python -m`, in its own process
    sys.exit(main())
