"""Eigenvector solvers and verifiers: pairwise eigenvector centrality, the
shifted tensor power method for Perron H-eigenpairs, the uplift/projection
centrality pipelines, closed-form Z-eigenpairs for hypergraphs recognizable
as uplifts of pairwise graphs, and residual checks.

Two solver conventions are exposed for the uniformized pipelines. The default
solves the order-m H-eigenproblem of the constructed tensor directly. With
``aux_gauge=True`` the solve runs on the tensor uplifted one more order, with
the extra auxiliary component acting as the scale gauge; this is equivalent
to the fixed point of ``lambda * c^[m] = T c^(m-1)`` and produces flatter
score distributions. The uplift and the gauge are not built as hypergraphs:
the solves run on `tensor._UpliftTensor`, which scales its parts' contractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from types import NoneType
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DataError
from .hypergraph import (AuxSpec, Hypergraph, _check_indices, _check_size, _node_labels,
                         component_roots, is_strongly_connected)
from .tensor import (ScoreVector, UniformTensor, _as_array, _CompositionTensor,
                     _contraction, _norm_value, _uplifted, _UpliftTensor, apply,
                     from_hypergraph)
from .uniformize import (_check_max_order, _check_uplift, _check_uplift_project, _multinomial,
                         _row_budget)

__all__ = [
    "SolverOptions",
    "CentralityResult",
    "ZEigenpair",
    "EigenpairCheck",
    "eigenvector_centrality",
    "h_eigen_power",
    "hec",
    "uhec",
    "uphec",
    "alt_centrality",
    "detect_uplift_structure",
    "z_via_uplift",
    "verify_h_eigenpair",
    "verify_z_eigenpair",
]

_DISCONNECTED_MSG = (
    "input is not strongly connected; extract the largest connected component "
    "first (largest_connected_component / --lcc)"
)


@dataclass(frozen=True)
class SolverOptions:
    """Power-method settings: the relative bracket width `tol` that stops
    the iteration, the step limit `max_iter`, and the start vector, uniform
    or a seeded positive random draw when `seed` is set (useful for
    restart-agreement checks). The shift is not a setting: `h_eigen_power`
    picks it. Construction refuses, with a `DataError` naming the field, a
    `max_iter` or `seed` that is not an integer, a `tol` that is not a real
    number (a bool is neither), `max_iter` < 1, an infinite or NaN `tol` or
    one below 1e-14, which a bracket a few float spacings of the eigenvalue
    wide may never meet in `max_iter` steps, and a negative `seed`.
    """

    tol: float = 1e-10
    max_iter: int = 100_000
    seed: Optional[int] = None

    def __post_init__(self):
        for name, kind, what in (("tol", Real, "a real number"),
                                 ("max_iter", Integral, "an integer"),
                                 ("seed", (Integral, NoneType), "an integer or None")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise DataError(f"{name} must be {what}, got {value!r}")
        if self.max_iter < 1:
            raise DataError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 1e-14 <= self.tol < math.inf:
            raise DataError(f"tol must be finite and at least 1e-14, got {self.tol}")
        if self.seed is not None and self.seed < 0:
            raise DataError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class CentralityResult:
    """Perron-like centrality scores over the real (non-auxiliary) nodes."""

    method: str
    labels: tuple
    scores: ScoreVector
    eigenvalue: float
    residual: float
    iterations: int
    converged: bool
    aux_scores: dict = field(default_factory=dict)

    def as_mapping(self) -> dict:
        return {lab: float(s) for lab, s in zip(self.labels, self.scores.values)}


@dataclass(frozen=True, eq=False)
class ZEigenpair:
    """A Z-eigenpair over all nodes (auxiliaries included), unit in `norm`.

    `norm` is "z1" (sum of |c| = 1) or "z2" (sqrt(sum of c^2) = 1).
    """

    labels: tuple
    eigenvector: ScoreVector
    eigenvalue: float
    norm: str
    omega: int
    aux: AuxSpec
    base_eigenvalue: float


@dataclass(frozen=True)
class EigenpairCheck:
    residual: float
    norm_violation: float
    passed: bool


def _relative_residual(tx: np.ndarray, eigenvalue: float, rhs: np.ndarray) -> float:
    """max |tx - eigenvalue * rhs| relative to |eigenvalue| * max |rhs| (at least 1e-300)."""
    scale = abs(eigenvalue) * float(np.max(np.abs(rhs)))
    return float(np.max(np.abs(tx - eigenvalue * rhs)) / max(scale, 1e-300))


def _z_norm(norm) -> tuple[str, str]:
    """The Z-norm name `norm`, "z1" or "z2" in any case, lowercased, and the
    vector norm it fixes to 1, l1 or l2; any other `norm` is a `DataError`."""
    name = norm.lower() if isinstance(norm, str) else None
    if name not in ("z1", "z2"):
        raise DataError(f"norm must be 'z1' or 'z2', got {norm!r}")
    return name, "l" + name[1]


def _require_connected(h: Hypergraph):
    if not h.blocks:
        raise DataError("hypergraph has no edges")
    if not is_strongly_connected(h):
        raise DataError(_DISCONNECTED_MSG)


# ──────────────────────────────────────────────────────────────────────
#  Power method
# ──────────────────────────────────────────────────────────────────────

# The adaptive shift: once the iteration needs one, rho is this fraction of
# the current upper eigenvalue bound, and stays.
_SHIFT_FRACTION = 0.5
# The bracket has stalled when its width after two more steps is still above
# (1 - _STALL_DELTA) times the earlier width.
_STALL_DELTA = 0.01
# A weakly irreducible tensor with positive entries has a positive eigenvalue
# and keeps every iterate positive: a bracket that is not finite and
# positive, or a zero component, can only come from this.
_UNDERFLOW_MSG = "the iterate underflowed (weights or order too extreme)"


def h_eigen_power(
    t: UniformTensor,
    options: Optional[SolverOptions] = None,
    labels: Optional[tuple] = None,
    aux_indices: tuple[int, ...] = (),
    method: str = "HEC",
) -> CentralityResult:
    """Perron H-eigenpair of a nonnegative weakly irreducible tensor.

    Shifted power iteration (Ng, Qi & Zhou 2009; Liu, Zhou & Ibrahim 2010):
    y = T x^(m-1) + rho * x^[m-1], then x <- y^[1/(m-1)] renormalized to
    unit l1 norm. For every positive x the Collatz-Wielandt bracket, min/max
    of (T x^(m-1))_i / x_i^(m-1), bounds the eigenvalue whatever rho is, so
    rho may change between steps; iteration stops when the bracket's
    relative width falls below `tol`.

    rho starts at 0, which is fastest on primitive tensors. It becomes
    `_SHIFT_FRACTION` times the current upper bound, once, when the bracket
    stalls (the period-2 oscillation of a bipartite input) or when
    T x^(m-1) has a zero component. The shift thus scales with the tensor,
    so the iteration count does not depend on the weight scale. Reaching
    `max_iter` returns the last iterate, whose bracket gives the eigenvalue
    and residual, flagged as non-converged. A bracket that is not finite
    and positive, or a zero component of the next iterate, means the
    iterate underflowed and raises `ConvergenceError`.

    `labels` names the tensor's indices (None or empty: 0..dim-1) and
    `aux_indices` the auxiliary ones, reported in `aux_scores`. A
    disconnected hypergraph (the tensor is then not weakly irreducible),
    labels that are not `dim` distinct hashables or an auxiliary index that
    is not an integer in 0..dim-1 (a bool is none) is refused with a
    `DataError` before the iteration starts.
    """
    opts = options or SolverOptions()
    _require_connected(t.hypergraph)  # weak irreducibility; cached per hypergraph
    m, n = t.order, t.dim
    labels = _node_labels(labels, n)
    _check_indices(aux_indices, n, "auxiliary node")
    if opts.seed is not None:
        x = np.random.default_rng(opts.seed).uniform(0.5, 1.5, size=n)
        x /= x.sum()
    else:
        x = np.full(n, 1.0 / n)
    contract = _contraction(t)  # its buffers serve every step of this solve
    ratios = np.empty(n)
    e = m - 1
    rho = 0.0
    width_1 = width_2 = math.inf  # bracket widths one and two steps back
    # a zero component of x^[m-1] makes a ratio infinite or NaN: the bracket
    # check below refuses it
    with np.errstate(divide="ignore", invalid="ignore"):
        for iterations in range(1, opts.max_iter + 1):  # max_iter >= 1: at least once
            xe = x**e
            tx = contract(x)
            np.divide(tx, xe, out=ratios)
            # NaN propagates through both reductions, as through min and max
            lam_lo, lam_hi = float(np.minimum.reduce(ratios)), float(np.maximum.reduce(ratios))
            if not (math.isfinite(lam_lo) and math.isfinite(lam_hi) and lam_hi > 0):
                raise ConvergenceError(
                    f"eigenvalue bracket [{lam_lo}, {lam_hi}] at iteration "
                    f"{iterations} is not finite and positive: {_UNDERFLOW_MSG}"
                )
            width = lam_hi - lam_lo
            converged = width <= opts.tol * lam_hi
            if converged or iterations == opts.max_iter:
                break
            if rho == 0.0 and (lam_lo == 0.0 or width > (1.0 - _STALL_DELTA) * width_2):
                rho = _SHIFT_FRACTION * lam_hi
            width_1, width_2 = width, width_1
            y = tx + rho * xe
            if not np.minimum.reduce(y) > 0:  # NaN fails too
                raise ConvergenceError(
                    f"iteration {iterations} produced a zero component: {_UNDERFLOW_MSG}"
                )
            x = y ** (1.0 / e)
            x /= np.add.reduce(x)
    eigenvalue = 0.5 * (lam_lo + lam_hi)
    residual = _relative_residual(tx, eigenvalue, xe)

    aux_set = set(aux_indices)
    real = [i for i in range(n) if i not in aux_set]
    scores = ScoreVector.normalized(x[real], "l1")
    aux_scores = {labels[i]: float(x[i]) for i in sorted(aux_set)}
    return CentralityResult(
        method=method,
        labels=tuple(labels[i] for i in real),
        scores=scores,
        eigenvalue=eigenvalue,
        residual=residual,
        iterations=iterations,
        converged=converged,
        aux_scores=aux_scores,
    )


def eigenvector_centrality(
    t: UniformTensor,
    options: Optional[SolverOptions] = None,
    labels: Optional[tuple] = None,
) -> CentralityResult:
    """Perron eigenvector of an order-2 tensor (a weighted adjacency matrix),
    l1-normalized, by the shifted power method."""
    if t.order != 2:
        raise DataError(f"eigenvector centrality needs an order-2 tensor, got {t.order}")
    return h_eigen_power(t, options, labels, method="EC")


# ──────────────────────────────────────────────────────────────────────
#  Uniformization pipelines
# ──────────────────────────────────────────────────────────────────────

def _solve_order(order, aux_gauge: bool) -> int:
    """The order a solve at `order` runs at, checked: one up under the aux gauge."""
    order = _check_size(order)
    return _check_max_order(order + 1 if aux_gauge else order)


def _solve_uniformized(
    t: UniformTensor | _CompositionTensor | _UpliftTensor, method: str,
    options: Optional[SolverOptions], aux_gauge: bool,
) -> CentralityResult:
    """Solve on the tensor t of a uniformized hypergraph or, when `aux_gauge`
    is set, on its aux-gauged view: the tensor uplifted one more order."""
    if aux_gauge:  # t is the one part of its uplift one order up
        t = _UpliftTensor((t,), _solve_order(t.order, True), t.hypergraph)
    return h_eigen_power(t, options, labels=t.labels, aux_indices=t.aux.nodes,
                         method=method)


def hec(
    h: Hypergraph,
    options: Optional[SolverOptions] = None,
    aux_gauge: bool = False,
) -> CentralityResult:
    """H-eigenvector centrality of a uniform hypergraph."""
    _require_connected(h)
    return _solve_uniformized(from_hypergraph(h), f"HEC({h.max_size})", options, aux_gauge)


def uhec(
    h: Hypergraph,
    m: int,
    options: Optional[SolverOptions] = None,
    aux_gauge: bool = False,
) -> CentralityResult:
    """Uplift to order m, then solve for the Perron H-eigenvector.

    Scores cover the non-auxiliary nodes, renormalized to unit l1 norm;
    auxiliary components are reported separately at their raw solver values.
    """
    _require_connected(h)
    m = _check_uplift(h, m)
    return _solve_uniformized(_uplifted(h, m), f"UHEC({m})", options, aux_gauge)


def uphec(
    h: Hypergraph,
    p: int,
    options: Optional[SolverOptions] = None,
    aux_gauge: bool = False,
) -> CentralityResult:
    """Project edges above order p, uplift the rest, and solve at order p."""
    _require_connected(h)
    p = _check_uplift_project(h, p)
    return _solve_uniformized(_uplifted(h, p), f"UPHEC({p})", options, aux_gauge)


def alt_centrality(
    h: Hypergraph,
    m: int,
    options: Optional[SolverOptions] = None,
    aux_gauge: bool = False,
) -> CentralityResult:
    """Centrality from the composition-based uniformization at order m.

    Edges above m are first projected down (the composition construction only
    reaches upward), then every edge is expanded over its index multisets:
    the solve runs on that tensor as a view of the projection, without the
    expanded rows (`tensor._CompositionTensor`).
    """
    _require_connected(h)
    return _solve_uniformized(_CompositionTensor(h, m), f"ALT({m})", options, aux_gauge)


# ──────────────────────────────────────────────────────────────────────
#  Z-eigenpairs via uplift structure
# ──────────────────────────────────────────────────────────────────────

def detect_uplift_structure(h: Hypergraph) -> Optional[AuxSpec]:
    """Find auxiliary nodes exposing the hypergraph as a padded pairwise graph.

    Looks for a node subset present in every hyperedge with edge-independent
    multiplicities summing to (order - 2) whose removal leaves simple pairs.
    Every node repeated within some edge must belong to it; the rest of the
    subset is taken from the common single nodes, highest indices first, so
    freshly appended auxiliaries win when several decompositions exist.
    """
    if not h.is_uniform():
        return None
    m = h.max_size
    slack = m - 2
    if slack < 1:
        return None

    rows = h.blocks[m][0]
    nodes, counts = np.unique(rows[0], return_counts=True)
    common = {v: c for v, c in zip(nodes.tolist(), counts.tolist())
              if ((rows == v).sum(axis=1) == c).all()}
    mandatory = [v for v, c in common.items() if c >= 2]
    if not np.isin(rows[:, 1:][rows[:, 1:] == rows[:, :-1]], mandatory).all():
        return None  # a repeated node that cannot be removed
    unit = sorted((v for v, c in common.items() if c == 1), reverse=True)
    need = slack - sum(common[v] for v in mandatory)
    if not 0 <= need <= len(unit):
        return None
    # Each edge keeps two cells outside the subset; a node repeated in an
    # edge is mandatory, so those two cells are always distinct nodes.
    nodes = tuple(sorted(mandatory + unit[:need]))
    return AuxSpec(nodes, tuple(common[v] for v in nodes))


def z_via_uplift(h: Hypergraph, norm: str) -> ZEigenpair:
    """Positive Z-eigenpair of a hypergraph that pads a pairwise graph.

    The real components come from the Perron eigenpair of the underlying
    weighted graph; each auxiliary component is the positive root of
    lambda * c_a^2 = multiplicity_a * sum over graph edges of w c_i c_j.
    The whole vector is scaled to the requested unit norm, z1 (sum of
    |c| = 1) or z2 (sqrt(sum of c^2) = 1), and the tensor eigenvalue is the
    graph eigenvalue times the arrangement factor
    omega = (order-1)! / prod(multiplicity_k!) times the product of scaled
    auxiliary components raised to their multiplicities.
    """
    norm, vector_norm = _z_norm(norm)
    _require_connected(h)
    m = _check_max_order(h.max_size)
    aux = detect_uplift_structure(h)
    if aux is None:
        raise DataError(
            "hypergraph is not recognizable as an uplift of a pairwise graph; "
            "general Z-eigenvector computation is out of scope"
        )
    is_aux = np.zeros(h.n, dtype=bool)
    is_aux[list(aux.nodes)] = True
    real = np.flatnonzero(~is_aux)
    n_g = len(real)  # at least 2: every edge keeps two distinct real nodes
    _row_budget(n_g * n_g,  # the dense adjacency matrix eigh solves
                f"the dense eigensolver would hold {n_g * n_g} cells for {n_g} graph nodes")

    rows, weight = h.blocks[m]
    pairs = (np.cumsum(~is_aux) - 1)[rows[~is_aux[rows]]].reshape(-1, 2)
    A = np.zeros((n_g, n_g))
    np.add.at(A, (pairs[:, 0], pairs[:, 1]), weight)
    np.add.at(A, (pairs[:, 1], pairs[:, 0]), weight)
    if (component_roots(n_g, [pairs]) != 0).any():
        raise DataError("underlying pairwise graph is disconnected; " + _DISCONNECTED_MSG)

    eigvals, eigvecs = np.linalg.eigh(A)
    lam = float(eigvals[-1])
    c = eigvecs[:, -1]
    if c.sum() < 0:
        c = -c
    if not (c > 0).all():
        raise ConvergenceError("dense eigensolver returned a non-positive Perron vector")

    q = 0.5 * float(c @ A @ c)  # sum over graph edges of w * c_i * c_j
    full = np.zeros(h.n)
    full[real] = c
    for a, p_a in zip(aux.nodes, aux.multiplicities):
        full[a] = math.sqrt(p_a * q / lam)

    vector = ScoreVector.normalized(full, vector_norm)
    omega = _multinomial((1,) + aux.multiplicities)
    lam_tensor = lam * omega
    for a, p_a in zip(aux.nodes, aux.multiplicities):
        lam_tensor *= float(vector.values[a]) ** p_a
    return ZEigenpair(
        labels=h.labels,
        eigenvector=vector,
        eigenvalue=lam_tensor,
        norm=norm,
        omega=omega,
        aux=aux,
        base_eigenvalue=lam,
    )


# ──────────────────────────────────────────────────────────────────────
#  Residual checks
# ──────────────────────────────────────────────────────────────────────

def verify_h_eigenpair(
    t: UniformTensor, eigenvalue: float, vector, tol: float = 1e-10
) -> EigenpairCheck:
    """Relative infinity-norm residual of T c^(m-1) = lambda c^[m-1]."""
    c = _as_array(vector, t.dim)
    resid = _relative_residual(apply(t, c), eigenvalue, c ** (t.order - 1))
    return EigenpairCheck(resid, 0.0, resid <= tol)


def verify_z_eigenpair(
    t: UniformTensor, eigenvalue: float, vector, norm: str = "z2",
    tol: float = 1e-9,
) -> EigenpairCheck:
    """Residual of T c^(m-1) = lambda c plus the unit-norm violation."""
    _, vector_norm = _z_norm(norm)
    c = _as_array(vector, t.dim)
    resid = _relative_residual(apply(t, c), eigenvalue, c)
    nv = abs(_norm_value(c, vector_norm) - 1.0)
    return EigenpairCheck(resid, nv, resid <= tol and nv <= tol)
