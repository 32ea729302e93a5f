"""One benchmark child process: ``python3 perfbench/worker.py MODE SPEC``.

Every pass runs in a fresh interpreter, as a CLI user's run does, so it pays
the import and the program's lazy caches each time. MODE is one of

- ``setup``: import ``hyperrank.cli`` and report when that finished;
- ``pass``: call ``hyperrank.cli.main(argv)`` for each argv of the pass and
  time each call; with ``"trace": true`` the layer spans of `spans.py` are
  installed first;
- ``check``: run the same calls once more, untimed, capturing every solve,
  and check the outputs (see ``do_check``).

SPEC is a JSON file written by `run.py`; the result goes to ``spec["result"]``.
"""

import json
import resource
import sys
import time

import hyperrank.cli as cli

T_IMPORTED = time.monotonic()

from pathlib import Path  # noqa: E402  (after the timed import on purpose)

ORACLE_RTOL = 1e-8  # eigsh Perron vector vs CLI scores, relative to the top score


def run_calls(calls) -> tuple[list, list]:
    walls, codes = [], []
    for argv in calls:
        start = time.perf_counter()
        code = cli.main(argv)
        walls.append(time.perf_counter() - start)
        codes.append(code)
        if code != 0:
            break
    return walls, codes


def do_pass(spec: dict) -> dict:
    rec = None
    if spec.get("trace"):
        import spans
        rec = spans.Recorder()
        spans.install(rec)
    walls, codes = run_calls(spec["calls"])
    out = {"walls": walls, "codes": codes,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if rec is not None:
        rec.write(spec["spans_out"])
        out["summary"] = rec.summary()
    return out


# ──────────────────────────────────────────────────────────────────────
#  Output checks
# ──────────────────────────────────────────────────────────────────────

def _patch_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "hyperrank" or name.startswith("hyperrank."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def _check_solve(t, res, arguments) -> tuple[list[str], float]:
    """Positive, l1-normalized, converged, and a small H-residual recomputed
    with the public verifier on the tensor the solver was given. Returns the
    problems found and the residual."""
    import numpy as np
    from hyperrank.spectral import SolverOptions, verify_h_eigenpair

    tol = (arguments.get("options") or SolverOptions()).tol
    labels = arguments.get("labels") or tuple(range(t.dim))
    aux = tuple(arguments.get("aux_indices") or ())
    s = res.scores.values
    problems = []
    if not res.converged:
        problems.append("did not converge")
    if not (s > 0).all():
        problems.append("non-positive score")
    if abs(float(s.sum()) - 1.0) > 1e-12:
        problems.append(f"scores sum to {float(s.sum())!r}, not 1")
    # rebuild the solver's l1 iterate over all indices, auxiliaries included
    x = np.empty(t.dim)
    real = [i for i in range(t.dim) if i not in set(aux)]
    x[real] = s * (1.0 - sum(res.aux_scores.values()))
    for i in aux:
        x[i] = res.aux_scores[labels[i]]
    check = verify_h_eigenpair(t, res.eigenvalue, x, tol=tol)
    if not check.passed:
        problems.append(f"H-residual {check.residual:.3e} above {tol:g}")
    return problems, check.residual


def _check_ranking(out_dir: Path) -> list[str]:
    """Heatmap symmetric with a unit diagonal; every top-K curve ends at its
    heatmap cell (the whole-ranking tau)."""
    rows = (out_dir / "heatmap.csv").read_text(encoding="utf-8").splitlines()
    tags = rows[0].split(",")[1:]
    cells = [r.split(",")[1:] for r in rows[1:]]
    problems = []
    for i in range(len(tags)):
        if float(cells[i][i]) != 1.0:
            problems.append(f"heatmap diagonal {tags[i]} is {cells[i][i]}")
        for j in range(i):
            if cells[i][j] != cells[j][i]:
                problems.append(f"heatmap not symmetric at {tags[i]},{tags[j]}")
    last = {}
    lines = (out_dir / "topk_curves.csv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        a, b, _, tau = line.split(",")
        last[(a, b)] = float(tau)
    if len(last) != len(tags) * (len(tags) - 1):
        problems.append(f"{len(last)} top-K curves for {len(tags)} methods")
    for (a, b), tau in last.items():
        cell = float(cells[tags.index(a)][tags.index(b)])
        if not abs(tau - cell) <= 1e-12:
            problems.append(f"curve {a},{b} ends at {tau!r}, heatmap has {cell!r}")
    return problems


def _check_oracle(prefix: str, scores_csv: Path) -> tuple[list[str], float]:
    """Perron vector of the merged pair graph's largest component, built from
    the input files with scipy alone, against the CLI's scores. Returns the
    problems found and the largest deviation relative to the top score."""
    import numpy as np
    import scipy.sparse as sps
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import eigsh

    sizes = np.array(Path(f"{prefix}-nverts.txt").read_text().split(), dtype=np.int64)
    flat = np.array(Path(f"{prefix}-simplices.txt").read_text().split(), dtype=np.int64)
    if not (sizes == 2).all():
        return ["oracle expects a pair stream"], float("nan")
    pairs = flat.reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    ids, inv = np.unique(pairs, return_inverse=True)
    inv = inv.reshape(-1, 2)
    n = len(ids)
    a = sps.coo_matrix((np.ones(len(inv)), (inv[:, 0], inv[:, 1])), shape=(n, n))
    a = (a + a.T).tocsr()  # duplicate pairs sum into the weight
    _, comp = connected_components(a, directed=False)
    keep = comp == np.argmax(np.bincount(comp))
    a, ids = a[keep][:, keep], ids[keep]
    _, vecs = eigsh(a, k=1, which="LA", tol=0)
    want = np.abs(vecs[:, 0])
    want /= want.sum()
    got_map = {}
    for line in scores_csv.read_text(encoding="utf-8").splitlines()[1:]:
        label, score = line.split(",")
        got_map[int(label)] = float(score)
    if set(got_map) != set(ids.tolist()):
        return [f"scored {len(got_map)} nodes, oracle component has {len(ids)}"], \
            float("nan")
    got = np.array([got_map[i] for i in ids.tolist()])
    err = float(np.max(np.abs(got - want)) / want.max())
    return ([] if err <= ORACLE_RTOL else [f"oracle deviation {err:.3e}"]), err


def _digest(out_dir: Path) -> dict:
    """Content of every output file; manifests without their own output path."""
    import hashlib
    digest = {}
    for f in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = f.read_bytes()
        if f.suffix == ".json":
            obj = json.loads(data)
            obj.pop("output", None)
            data = json.dumps(obj, sort_keys=True).encode()
        digest[str(f.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
    return digest


def do_check(spec: dict) -> dict:
    import inspect

    import hyperrank.spectral as sp

    original = sp.h_eigen_power
    signature = inspect.signature(original)
    captured = []

    def capture(*args, **kwargs):
        res = original(*args, **kwargs)
        captured.append((signature.bind(*args, **kwargs).arguments, res))
        return res

    _patch_everywhere(original, capture)
    _, codes = run_calls(spec["calls"])
    ops = []
    for arguments, res in captured:
        problems, residual = _check_solve(arguments["t"], res, arguments)
        ops.append({"op": f"solve {res.method}", "problems": problems,
                    "residual": residual})
    out_dir = Path(spec["out_dir"])
    if spec["kind"] == "compare":
        ops.append({"op": "ranking", "problems": _check_ranking(out_dir)})
    if spec["kind"] == "oracle":
        problems, deviation = _check_oracle(spec["input"], out_dir / "scores.csv")
        ops[0]["problems"] += problems
        ops[0]["oracle_deviation"] = deviation
    mine = _digest(out_dir)
    return {
        "codes": codes,
        "ops": ops,
        "same_outputs": [_digest(Path(d)) == mine for d in spec["pass_dirs"]],
        "counts": {
            "solve_iterations": [res.iterations for _, res in captured],
            "tensor_entries": [len(a["t"].entries) for a, _ in captured],
        },
    }


def main() -> int:
    mode, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import hyperrank
    if Path(hyperrank.__file__).resolve().parent != Path(spec["package"]).resolve():
        print(f"hyperrank imported from {hyperrank.__file__}, not {spec['package']}",
              file=sys.stderr)
        return 2
    out = {"t_imported": T_IMPORTED}
    if mode == "pass":
        out.update(do_pass(spec))
    elif mode == "check":
        out.update(do_check(spec))
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
