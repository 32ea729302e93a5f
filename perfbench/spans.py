"""Span recorder for traced passes, applied to the program from outside.

`install` wraps the public functions of the ``cli``, ``hypergraph``,
``uniformize``, ``tensor``, ``spectral`` and ``rankcmp`` modules. Several
modules import their callees by name (``cli`` and ``spectral`` do), so each
wrapper replaces the original in *every* ``hyperrank`` module namespace that
binds it; calls between functions of one module go through that module's
globals and are caught the same way. Nothing under ``src/`` is modified.

A span is (name, start, end, parent). Spans stay in memory and are written
once, when the pass ends. A layer's self time is its span time minus the time
covered by its direct child spans. Counting that needs more than a few dict
operations runs inside a ``trace.bookkeeping`` child span, so it is charged to
the tracer and not to the layer that was being measured.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from math import comb

PIPELINES = ("hec", "uhec", "uphec", "alt_centrality", "eigenvector_centrality")

# counts that must repeat bit-for-bit for the same input and program
EXACT_COUNTS = (
    "spectral.iterations",
    "spectral.solves",
    "tensor.entries",
    "tensor.apply.calls",
    "tensor.apply.bytes_computed",
    "uniformize.edges_out",
    "uniformize.project_ops",
    "uniformize.uplift_ops",
    "rankcmp.kendall_tau.calls",
    "hypergraph.connected_components.calls",
)


class Recorder:
    """In-memory span list with a stack of open spans (one thread only)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.edges_out: dict[int, int] = {}  # uniformize span -> output edges
        self.gauged: set[int] = set()  # pipeline spans run with aux_gauge

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, after=None):
        """Return `fn` wrapped in a span. `name` may be a callable of the call
        arguments; `after(rec, span, args, kwargs, result)` runs as
        bookkeeping once the span is closed."""

        def traced(*args, **kwargs):
            idx = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                book = self._open("trace.bookkeeping")
                try:
                    after(self, idx, args, kwargs, result)
                finally:
                    self._close(book)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "starts": self.starts,
                       "ends": self.ends, "parents": self.parents}, fh)

    def summary(self) -> dict:
        """Per-name totals plus the exact counts of this pass."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        names = list(self.names)
        # under --aux-gauge the last uplift a pipeline makes itself is the gauge
        last_uplift: dict[int, int] = {}
        for i in range(n):
            if names[i] == "uniformize.uplift" and self.parents[i] in self.gauged:
                last_uplift[self.parents[i]] = i
        for i in last_uplift.values():
            names[i] = "uniformize.uplift_gauge"
        total, self_s, calls = Counter(), Counter(), Counter()
        for i in range(n):
            total[names[i]] += dur[i]
            self_s[names[i]] += dur[i] - child[i]
            calls[names[i]] += 1
        counts = dict(self.counts)
        # edges handed on by a uniformize call that no other uniformize call made
        counts["uniformize.edges_out"] = sum(
            e for i, e in self.edges_out.items()
            if self.parents[i] < 0
            or not self.names[self.parents[i]].startswith("uniformize."))
        counts["rankcmp.kendall_tau.calls"] = calls["rankcmp.kendall_tau"]
        counts["hypergraph.connected_components.calls"] = calls[
            "hypergraph.connected_components"]
        for key in EXACT_COUNTS:
            counts.setdefault(key, 0)
        return {"total": dict(total), "self": dict(self_s), "calls": dict(calls),
                "counts": counts}


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _after_uplift(rec, idx, args, kwargs, result):
    from hyperrank.uniformize import uplift
    a = _bind(uplift, args, kwargs)
    m = a["m"]
    rec.counts["uniformize.uplift_ops"] += sum(
        (m - s) * c for s, c in a["h"].edge_sizes().items() if s < m)
    rec.edges_out[idx] = len(result.edges)


def _after_project(rec, idx, args, kwargs, result):
    from hyperrank.uniformize import project
    a = _bind(project, args, kwargs)
    p = a["p"]
    rec.counts["uniformize.project_ops"] += sum(
        p * comb(s, p) * c for s, c in a["h"].edge_sizes().items() if s > p)
    rec.edges_out[idx] = len(result.edges)


def _after_edges_out(rec, idx, args, kwargs, result):
    rec.edges_out[idx] = len(result.edges)


def _after_tensor(rec, idx, args, kwargs, result):
    rec.counts["tensor.entries"] += len(result.entries)


def _after_apply(rec, idx, args, kwargs, result):
    t = args[0]
    rec.counts["tensor.apply.calls"] += 1
    rec.counts["tensor.apply.bytes_computed"] += (
        len(t._apply_arrays[0]) * (t.order + 1) * 8)


def _apply_name(args) -> str:
    # the first apply of a tensor pays the lazy row build
    return ("tensor.apply.first" if "_apply_arrays" not in vars(args[0])
            else "tensor.apply.rest")


def _after_solve(rec, idx, args, kwargs, result):
    rec.counts["spectral.iterations"] += result.iterations
    rec.counts["spectral.solves"] += 1


def _pipeline_after(fn):
    def after(rec, idx, args, kwargs, result):
        if _bind(fn, args, kwargs).get("aux_gauge"):
            rec.gauged.add(idx)
    return after


def install(rec: Recorder) -> None:
    """Wrap the public layer functions in every hyperrank namespace."""
    import hyperrank.cli as cli
    import hyperrank.hypergraph as hg
    import hyperrank.rankcmp as rk
    import hyperrank.spectral as sp
    import hyperrank.tensor as tn
    import hyperrank.uniformize as un

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "ingest_simplicial", "cli.ingest_simplicial", None),
        (hg, "build_preprocessed", "hypergraph.build_preprocessed", None),
        (hg, "connected_components", "hypergraph.connected_components", None),
        (hg, "is_strongly_connected", "hypergraph.is_strongly_connected", None),
        (hg, "largest_connected_component",
         "hypergraph.largest_connected_component", None),
        (hg, "order_slice", "hypergraph.order_slice", None),
        (hg, "stats", "hypergraph.stats", None),
        (un, "uplift", "uniformize.uplift", _after_uplift),
        (un, "project", "uniformize.project", _after_project),
        (un, "uplift_project", "uniformize.uplift_project", _after_edges_out),
        (un, "alternative_uniformization", "uniformize.alternative_uniformization",
         _after_edges_out),
        (tn, "from_hypergraph", "tensor.from_hypergraph", _after_tensor),
        (tn, "apply", _apply_name, _after_apply),
        (sp, "h_eigen_power", "spectral.h_eigen_power", _after_solve),
        (rk, "pairwise_heatmap", "rankcmp.pairwise_heatmap", None),
        (rk, "topk_curve", "rankcmp.topk_curve", None),
        (rk, "kendall_tau", "rankcmp.kendall_tau", None),
        (rk, "curve_filter", "rankcmp.curve_filter", None),
        (rk, "default_ks", "rankcmp.default_ks", None),
        (rk, "write_heatmap_csv", "rankcmp.write_csv", None),
        (rk, "write_curves_csv", "rankcmp.write_csv", None),
    ]
    targets += [(sp, name, "spectral.pipeline", _pipeline_after(getattr(sp, name)))
                for name in PIPELINES]
    modules = [m for k, m in sys.modules.items()
               if k == "hyperrank" or k.startswith("hyperrank.")]
    for module, attr, name, after in targets:
        original = getattr(module, attr)
        wrapped = rec.wrap(name, original, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    from_scores = rk.RankingTable.__dict__["from_scores"].__func__
    rk.RankingTable.from_scores = staticmethod(
        rec.wrap("rankcmp.from_scores", from_scores))
