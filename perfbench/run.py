#!/usr/bin/env python3
"""hyperrank benchmark: seeded synthetic inputs, the CLI run pass after pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. Load is one closed-loop client in one process at a time: a pass is
one fresh interpreter that imports ``hyperrank.cli`` and calls
``hyperrank.cli.main(argv)`` for each CLI command of the workload, and the
next pass starts when it has exited. Passes repeat until S seconds are used
(at least MIN_PASSES). After them, one untimed checker process re-runs the
commands, checks every solve and ranking, and confirms that every pass wrote
the same outputs. Workloads, metrics and predictions: perfbench/README.md.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of `spans.py` (traced passes alternate
with untraced ones, which give ``trace.overhead_s``). The line before it is a
JSON record with the environment fingerprint, samples and check results;
the same record is kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from spans import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

THREAD_VARS = {
    "HYPERRANK_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_PASSES = 3  # per kind of pass (untraced, and traced with --trace 1)
LOOP_CAP_S = 100.0  # stop adding passes after this, whatever MIN_PASSES says
RUN_BUDGET_S = 160.0  # children still running after this are killed

COMPARE_METHODS = "u2,u3,u4,u5,h2,h3,h4,h5,a3,a4,a5"

# Sizes are chosen so that one pass takes under 1 s on a 2-core x86 VM, which
# gives 30-50 passes in a run. Why each workload exists: README.md.
WORKLOADS = {
    "cotag_compare": {
        "shape": "cotag", "params": {"nodes": 150, "edge_scale": 1 / 240},
        "check": "compare", "ops_per_pass": 12,  # 11 solves + the ranking stage
        "calls": lambda p, d: [
            ["stats", "--input", p, "--out", f"{d}/stats.csv"],
            ["compare", "--methods", COMPARE_METHODS, "--lcc", "--aux-gauge",
             "--tol", "1e-8", "--input", p, "--out-dir", d],
        ],
    },
    "cotag_uphec": {
        "shape": "cotag", "params": {"nodes": 1500, "edge_scale": 1 / 20},
        "check": "solve", "ops_per_pass": 1,
        "calls": lambda p, d: [
            ["centrality", "--method", "uphec", "--p", "3", "--lcc",
             "--input", p, "--out", f"{d}/scores.csv"],
        ],
    },
    "bipartite_ec": {
        "shape": "bipartite", "params": {"left": 300, "right": 450, "draws": 15000,
                                        "exponent": 1.3},
        "check": "oracle", "ops_per_pass": 1,
        "calls": lambda p, d: [
            ["centrality", "--method", "ec", "--lcc",
             "--input", p, "--out", f"{d}/scores.csv"],
        ],
    },
}

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_sha256(top: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(top.rglob("*.py")):
        if "__pycache__" not in f.parts:
            h.update(str(f.relative_to(top)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def ensure_inputs(name: str, seed: int) -> tuple[str, dict]:
    """Generate the workload's input for `seed` once; later runs reuse it."""
    wl = WORKLOADS[name]
    key = hashlib.sha256(
        (json.dumps([wl["shape"], wl["params"]]) + _sha256(HERE / "gen.py")).encode()
    ).hexdigest()[:12]
    d = WORK / "inputs" / f"{name}-s{seed}-{key}"
    meta_path = d / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    else:
        shutil.rmtree(d, ignore_errors=True)
        start = time.perf_counter()
        make = gen.cotag if wl["shape"] == "cotag" else gen.bipartite
        summary = make(d / "data", seed, **wl["params"])
        meta = {"summary": summary, "generate_s": time.perf_counter() - start,
                "sha256": {f.name: _sha256(f) for f in sorted(d.glob("data-*"))}}
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
    return str(d / "data"), meta


def fingerprint(input_meta: dict) -> dict:
    init = (ROOT / "src" / "hyperrank" / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'__version__ = "([^"]+)"', init)
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    import numpy
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hyperrank": version.group(1) if version else None,
        "git_commit": commit,
        "src_sha256": _tree_sha256(ROOT / "src"),
        "inputs_sha256": input_meta["sha256"],
        "threads": THREAD_VARS,
        "synthetic_inputs": True,
    }


class Runner:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, **THREAD_VARS)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.count = 0

    def spawn(self, mode: str, spec: dict) -> dict | None:
        """Run one worker; returns its result with ``t_spawn``, or None."""
        self.count += 1
        tag = f"{self.count:03d}-{mode}"
        spec = dict(spec, result=str(self.run_dir / f"{tag}.result.json"),
                    package=str(ROOT / "src" / "hyperrank"))
        spec_path = self.run_dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        with open(self.run_dir / f"{tag}.log", "wb") as log:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), mode, str(spec_path)],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env,
                    cwd=str(ROOT), timeout=max(1.0, self.deadline - t_spawn))
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                return None
        if proc.returncode != 0:
            return None
        out = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        out["t_spawn"] = t_spawn
        return out


def _tail_percentile(samples: list[float]) -> dict | None:
    """Highest of p75/p90/p95/p99 with at least ten samples above it."""
    n = len(samples)
    best = None
    for q in (75, 90, 95, 99):
        if n * (100 - q) / 100 >= 10:
            best = {"q": q, "value": statistics.quantiles(samples, n=100)[q - 1]}
    return best


LAYER_TOTALS = {  # metric -> span name whose inclusive time it reports
    "hypergraph.build_preprocessed.s": "hypergraph.build_preprocessed",
    "hypergraph.connected_components.s": "hypergraph.connected_components",
    "hypergraph.order_slice.s": "hypergraph.order_slice",
    "hypergraph.stats.s": "hypergraph.stats",
    "uniformize.project.s": "uniformize.project",
    "uniformize.uplift.s": "uniformize.uplift",
    "uniformize.uplift_gauge.s": "uniformize.uplift_gauge",
    "uniformize.alternative_uniformization.s": "uniformize.alternative_uniformization",
    "tensor.from_hypergraph.s": "tensor.from_hypergraph",
    "tensor.apply.first_s": "tensor.apply.first",
    "tensor.apply.rest_s": "tensor.apply.rest",
    "rankcmp.from_scores.s": "rankcmp.from_scores",
    "rankcmp.pairwise_heatmap.s": "rankcmp.pairwise_heatmap",
    "rankcmp.topk_curve.s": "rankcmp.topk_curve",
    "rankcmp.curve_filter.s": "rankcmp.curve_filter",
    "rankcmp.write_csv.s": "rankcmp.write_csv",
}
LAYER_SELF = {  # metric -> span name whose self time it reports
    "cli.ingest_simplicial.self_s": "cli.ingest_simplicial",
    "cli.main.self_s": "cli.main",
    "hypergraph.largest_connected_component.self_s":
        "hypergraph.largest_connected_component",
    "spectral.pipeline.self_s": "spectral.pipeline",
    "spectral.h_eigen_power.self_s": "spectral.h_eigen_power",
}
LAYER_UNITS = {"tensor.apply.bytes_computed": "B",
               "hypergraph.connected_components.calls_per_solve": "calls/solve",
               "trace.coverage": "fraction", "trace.overhead_s": "s"}


def layer_metrics(summary: dict) -> dict:
    total, self_s, counts = summary["total"], summary["self"], summary["counts"]
    out = {k: total.get(v, 0.0) for k, v in LAYER_TOTALS.items()}
    out.update({k: self_s.get(v, 0.0) for k, v in LAYER_SELF.items()})
    out.update({k: counts[k] for k in EXACT_COUNTS})
    out["hypergraph.connected_components.calls_per_solve"] = (
        counts["hypergraph.connected_components.calls"]
        / max(1, counts["spectral.solves"]))
    # share of the CLI's time spent under a named layer, not in dispatch
    out["trace.coverage"] = 1.0 - self_s["cli.main"] / total["cli.main"]
    return out


def _unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "count" if name in EXACT_COUNTS else "s"


def check_exact_counts(name: str, fp: dict, counts: dict) -> list[str]:
    """Counts of this run must equal those of any earlier run of the same
    program on the same input; the first run records them."""
    key = hashlib.sha256(json.dumps(
        [fp["src_sha256"], fp["inputs_sha256"]], sort_keys=True).encode()).hexdigest()
    path = WORK / "counts" / f"{name}-{key[:16]}.json"
    problems = []
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        for count, value in counts.items():
            if count in before and before[count] != value:
                problems.append(f"exact count {count} was {before[count]}, now {value}")
        counts = dict(before, **counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return problems


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    wl = WORKLOADS[name]
    prefix, input_meta = ensure_inputs(name, seed)
    run_dir = WORK / "runs" / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, deadline)
    problems: list[str] = []

    # compile bytecode and warm the file cache; not a sample
    if runner.spawn("setup", {}) is None:
        raise SystemExit("error: the program cannot be imported (see .perfbench/runs)")

    passes = []  # (traced, result or None, out_dir)
    took = []  # seconds per pass, spawn to exit
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        kinds = [t for t, _, _ in passes]
        enough = all(kinds.count(t) >= MIN_PASSES for t in {False, trace})
        # start no pass that would typically end after the measuring window
        if enough and elapsed + statistics.median(took) > seconds \
                or elapsed >= LOOP_CAP_S:
            break
        traced = trace and len(passes) % 2 == 1
        out_dir = run_dir / f"pass{len(passes):02d}"
        spec = {"calls": wl["calls"](prefix, str(out_dir)), "trace": traced,
                "spans_out": str(run_dir / f"pass{len(passes):02d}.spans.json")}
        passes.append((traced, runner.spawn("pass", spec), out_dir))
        took.append(time.monotonic() - start - elapsed)

    check = runner.spawn("check", {
        "calls": wl["calls"](prefix, str(run_dir / "check")),
        "kind": wl["check"], "input": prefix, "out_dir": str(run_dir / "check"),
        "pass_dirs": [str(d) for _, _, d in passes],
    })

    # operations: one per solve plus the ranking stage, per pass
    ops = wl["ops_per_pass"]
    ok_ops = 0
    if check is None:
        problems.append("checker failed")
    elif any(check["codes"]) or len(check["ops"]) != ops:
        problems.append(f"checker exit codes {check['codes']}, {len(check['ops'])} ops")
    else:
        ok_ops = sum(not op["problems"] for op in check["ops"])
        problems += [f"{op['op']}: {p}" for op in check["ops"] for p in op["problems"]]
    failed = 0
    for k, (_, res, _) in enumerate(passes):
        if res is None or any(res["codes"]) or check is None \
                or not check["same_outputs"][k]:
            failed += ops
            problems.append(f"pass {k} failed or wrote different outputs")
        else:
            failed += ops - ok_ops

    good = [(t, r) for t, r, _ in passes if r is not None]
    walls = [sum(r["walls"]) for t, r in good if not t]
    setups = [r["t_imported"] - r["t_spawn"] for _, r in good]
    rss = [r["rss_mb"] for t, r in good if not t]
    fp = fingerprint(input_meta)

    exact = {}
    if check is not None:
        exact.update({f"check.{k}": v for k, v in check["counts"].items()})
    metrics = {}
    traced_walls = [sum(r["walls"]) for t, r in good if t]
    if trace and traced_walls and walls:
        summaries = [r["summary"] for t, r in good if t]
        first = {k: summaries[0]["counts"][k] for k in sorted(summaries[0]["counts"])}
        for s in summaries[1:]:
            if s["counts"] != summaries[0]["counts"]:
                problems.append("exact counts differ between traced passes")
        exact.update({f"trace.{k}": v for k, v in first.items()})
        per_pass = [layer_metrics(s) for s in summaries]
        for key in per_pass[0]:
            metrics[key] = (per_pass[0][key] if key in EXACT_COUNTS  # all equal
                            else statistics.median(p[key] for p in per_pass))
        metrics["trace.overhead_s"] = min(traced_walls) - min(walls)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())}
    elif not trace and walls:
        # the fastest pass: slower ones were slowed by other tenants of the
        # host (see README.md, "Steadiness"); the median is in the record
        metrics = {
            "wall_s": {"value": min(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    else:
        problems.append("no successful pass")
    problems += check_exact_counts(name, fp, exact)

    attempted = max(1, ops * len(passes))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "fingerprint": fp,
        "input": input_meta,
        "passes": len(passes),
        "wall_s": {"n": len(walls), "min": min(walls, default=None),
                   "median": statistics.median(walls) if walls else None,
                   "tail": _tail_percentile(walls), "samples": walls},
        "traced_wall_s": traced_walls,
        "setup_s": setups,
        "peak_rss_mb": rss,
        "fail_frac": failed / attempted,
        "exact_counts": exact,
        "checks": check["ops"] if check else None,
        "problems": problems,
        "result": {"correct": not problems, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }
    # keep the record and spans; drop the bulky per-pass outputs
    for _, _, d in passes:
        shutil.rmtree(d, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description="hyperrank benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hyperrank" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'hyperrank'}",
              file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for p in record["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
