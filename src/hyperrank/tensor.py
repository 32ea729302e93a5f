"""Implicit symmetric nonnegative tensors: the adjacency tensor of a uniform
weighted hypergraph, its contraction (tensor apply), flattening matrix, and a
dense materialization oracle for verification.

A `UniformTensor` wraps the uniform `Hypergraph` it is built from, which has
already checked every row and weight; the tensor is weakly irreducible exactly
when that hypergraph is connected. Each row adds its weight to the entry
whose support is the row's multiset of nodes. The represented array has an
entry's value at every index tuple whose multiset of indices equals its
support. `_kernels` builds every tensor's contraction kernels, on arrays the
tensor owns, on first use; `apply` allocates its work arrays per call, the
power method once per solve (`_contraction`). The read-only
`UniformTensor.entries` view lists the (support, value) pairs on demand for
`flattening_matrix` and `dense_oracle`, which exist for cross-checking on
small instances; nothing is densified in production paths.

The uplift, the aux gauge included, is `_UpliftTensor`: a view that scales
its parts' contractions and pads no row. Nor is the composition construction
a tensor of its own: `_CompositionTensor` contracts with its input's rows,
once per size, and builds `alternative_uniformization` only for its `entries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import DataError
from .hypergraph import Hypergraph, Support
from .uniformize import (_alpha, _check_composable, _check_max_order, _check_uplift,
                         _compositions, _starred, alternative_uniformization, star_factor)

NORMS = ("l1", "l2", "none")


def _norm_value(values: np.ndarray, norm: str) -> float:
    if norm == "l1":
        return float(np.abs(values).sum())
    if norm == "l2":
        return float(np.sqrt((values * values).sum()))
    return 1.0


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """A real vector tagged with the normalization it satisfies."""

    values: np.ndarray
    normalization: str = "none"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.normalization not in NORMS:
            raise DataError(f"unknown normalization {self.normalization!r}")
        actual = _norm_value(vals, self.normalization)  # 1 for "none"
        if not abs(actual - 1.0) <= 1e-12:  # NaN fails too
            raise DataError(
                f"vector does not satisfy {self.normalization} norm: {actual}"
            )

    @staticmethod
    def normalized(values: Iterable[float], norm: str = "l1") -> "ScoreVector":
        vals = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                          dtype=float)
        scale = _norm_value(vals, norm)
        if scale == 0:
            raise DataError("cannot normalize the zero vector")
        return ScoreVector(vals / scale, norm)


ArrayLike = Union[np.ndarray, ScoreVector, Iterable[float]]


def _as_array(x: ArrayLike, n: int) -> np.ndarray:
    if isinstance(x, ScoreVector):
        x = x.values
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise DataError(f"vector has shape {arr.shape}, expected ({n},)")
    return arr


def _arrangements(order: int, mults: tuple[int, ...], k: int) -> int:
    """Orderings of the other order-1 indices of a support with one index
    of multiplicity mults[k] fixed in front."""
    count = math.factorial(order - 1) // math.factorial(mults[k] - 1)
    for j, c in enumerate(mults):
        if j != k:
            count //= math.factorial(c)
    return count


def _kernels(m: int, groups) -> tuple:
    """The contraction kernels of an order-m tensor from its groups
    (run-start mask, rows, cells, value): a group holds the rows of one
    multiplicity pattern, whose mask marks the columns that start a run,
    cut to their distinct nodes, and its cells are those rows flattened
    row-major. One kernel per group, sorted by mask, False first: its rows;
    its cells; value times the pattern's arrangement count for every cell;
    and each column's leave-one-out factor sequence, the column repeated
    mult - 1 times, then every other column l repeated mults[l] times.

    Callers pass rows and cells that they own, writable: numpy copies a
    read-only `take` index or `bincount` input on every call.
    """
    kernels = []
    for starts, rows, cells, value in sorted(groups, key=lambda g: g[0]):
        mults = tuple(np.diff(np.r_[np.flatnonzero(starts), m]).tolist())
        counts = np.array([_arrangements(m, mults, j) for j in range(len(mults))],
                          dtype=float)
        sequences = tuple(
            (j,) * (mults[j] - 1)
            + tuple(l for l, c in enumerate(mults) if l != j for _ in range(c))
            for j in range(len(mults)))
        kernels.append((rows, cells, value[:, None] * counts, sequences))
    return tuple(kernels)


class UniformTensor:
    """Adjacency tensor of a uniform hypergraph h, kept as `hypergraph`:
    order h.max_size on `dim = h.n` indices, with h's `labels` and `aux`.
    Auxiliary nodes are ordinary indices; duplicate supports merge additively.
    """

    def __init__(self, h: Hypergraph):
        if not h.blocks:
            raise DataError("cannot build a tensor from an edgeless hypergraph")
        if not h.is_uniform():
            raise DataError(
                f"hypergraph is not uniform (sizes {sorted(h.edge_sizes())}); "
                "uniformize it first"
            )
        _check_max_order(h.max_size)
        self.hypergraph = h
        self.order = h.max_size
        self.dim = h.n
        self.labels, self.aux = h.labels, h.aux

    @cached_property
    def entries(self) -> tuple[tuple[Support, float], ...]:
        """(support, value) pairs, one per distinct support, sorted; the
        weights of equal supports sum in edge order."""
        merged: dict[Support, float] = {}
        for e in self.hypergraph.edges:
            merged[e.support] = merged.get(e.support, 0.0) + e.weight
        return tuple(merged.items())

    @cached_property
    def _apply_arrays(self):
        """`_kernels` of the hypergraph's rows grouped by multiplicity
        pattern, each group's rows in their order and cut to their distinct
        nodes."""
        m = self.order
        rows, weight = self.hypergraph.blocks[m]
        starts = np.ones(rows.shape, dtype=bool)
        starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
        if starts.all():  # one all-distinct pattern: one owned copy of the rows
            rows = rows.copy()
            return _kernels(m, [((True,) * m, rows, rows.ravel(), weight)])
        # a stable sort keeps each pattern's rows in their order; numpy cuts
        # them column-major, which keeps `apply`'s column products fast
        order = np.lexsort(starts.T[::-1])
        starts = starts[order]
        first = np.flatnonzero(np.r_[True, (starts[1:] != starts[:-1]).any(axis=1)])
        groups = []
        for a, sel in zip(first, np.split(order, first[1:])):
            cut = rows[sel][:, starts[a]]
            groups.append((tuple(starts[a].tolist()), cut, cut.ravel(), weight[sel]))
        return _kernels(m, groups)


def from_hypergraph(h: Hypergraph) -> UniformTensor:
    """Adjacency tensor of a uniform weighted hypergraph."""
    return UniformTensor(h)


class _CompositionTensor:
    """The tensor of `alternative_uniformization(g, m)` without building it,
    with g as its `hypergraph`: order m on g's n indices, weakly irreducible
    exactly when g is connected. It refuses what the construction refuses,
    with the same messages.

    A size-s row r and a composition c of m into s parts make the row that
    repeats r[j] c[j] times: its distinct nodes are r and its multiplicity
    pattern is c. So the materialized tensor's kernels are one per
    (size, composition), on that size's rows in their order, with the
    coefficients (w * s / alpha(m, s)) times c's arrangement counts.
    """

    def __init__(self, g: Hypergraph, m: int):
        _check_composable(g, m)
        if not g.blocks:
            raise DataError("cannot build a tensor from an edgeless hypergraph")
        self.hypergraph = g
        self.order = m
        self.dim = g.n
        self.labels, self.aux = g.labels, g.aux

    @cached_property
    def entries(self) -> tuple[tuple[Support, float], ...]:
        """The entries of the materialized tensor (built for verification)."""
        return UniformTensor(alternative_uniformization(self.hypergraph, self.order)).entries

    @cached_property
    def _apply_arrays(self):
        """`_kernels` of the materialized tensor, one group per (size,
        composition). Each size's compositions share one column-major copy
        of its rows, as the materialized cut copies each pattern's rows, and
        one row-major copy for the cells.
        """
        m = self.order
        groups = []
        for s, (rows, weight) in self.hypergraph.blocks.items():
            rows = np.array(rows, order="F")
            cells, value = rows.ravel(), weight * s / _alpha(m, s)
            for comp in _compositions(m, s):
                starts = np.zeros(m, dtype=bool)
                starts[np.cumsum((0,) + comp[:-1])] = True
                groups.append((tuple(starts.tolist()), rows, cells, value))
        return _kernels(m, groups)


class _UpliftTensor:
    """The tensor of `uplift` to order m as a view of `parts`, tensors of
    orders s <= m on n indices with shared `labels` and `aux`: order m on
    `dim` n+1 indices, the star last. Its `hypergraph` is the hypergraph
    whose connectivity makes the view weakly irreducible (the star joins
    every short row): the pipeline's checked input, or the projection that
    `project` hands that verdict to."""

    def __init__(self, parts: tuple, m: int, hypergraph: Hypergraph):
        _check_max_order(m)
        self.parts, self.hypergraph, self.order = parts, hypergraph, m
        self.dim = parts[0].dim + 1
        self.labels, self.aux = _starred(parts[0].labels, parts[0].aux)

    @cached_property
    def entries(self) -> tuple[tuple[Support, float], ...]:
        """The parts' entries, short ones starred and scaled, sorted by support."""
        m, star = self.order, self.dim - 1
        out = [(s + ((star, m - t.order),), v * star_factor(m, t.order))
               if t.order < m else (s, v) for t in self.parts for s, v in t.entries]
        return tuple(sorted(out, key=lambda entry: entry[0]))


def _uplifted(g: Hypergraph, m: int) -> Union[UniformTensor, _UpliftTensor]:
    """The tensor of `uplift(g, m)`, with its refusals, as a view of g's size
    classes; `UniformTensor(g)` when no edge needs padding."""
    if _check_uplift(g, m):
        return UniformTensor(g)
    return _UpliftTensor(tuple(UniformTensor(Hypergraph(g.n, g.labels, g.aux, blocks={s: b}))
                               for s, b in g.blocks.items()), m, g)


def _contraction(t):
    """`apply` on t as a function of a float vector of length t.dim. Each
    kernel's gather and term buffers are allocated here, once, and refilled
    on every call by the multiplications of a fresh contraction, in their
    order, so every result is bit-identical to one. Kernels on one rows
    array (a composition view's) share its gather. A solver builds one
    contraction per solve: no two threads share buffers (numpy releases the
    GIL inside `take` and `multiply`). An uplift view adds its parts' contractions, scaled.
    """
    if isinstance(t, _UpliftTensor):
        n, m, parts = t.dim - 1, t.order, []
        for part in t.parts:
            k = m - part.order
            den = m * math.factorial(k - 1) if k else 1
            parts.append((_contraction(part), k, part.order / den, den))
        def contract_uplift(vec: np.ndarray) -> np.ndarray:
            real, star = vec[:n], vec[n]
            y = np.zeros(n + 1)
            for part, k, scale, den in parts:
                z = part(real)
                if k:  # in this order: the gauge (k = 1) is pinned bit for bit
                    y[n] += (real * z).sum() * star ** (k - 1) * k / den
                    z *= scale * star ** k
                y[:n] += z
            return y
        return contract_uplift
    dim, arrays = t.dim, t._apply_arrays
    # products of 3 or more factors build up here, one kernel at a time
    scratch = np.empty(max(len(rows) for rows, _, _, _ in arrays))
    gathers, gathered, kernels = [], {}, []
    for rows, cells, coef, sequences in arrays:
        terms = np.empty(coef.shape)
        if len(sequences[0]) == 1:  # order 2: each term is one gathered factor
            gathers.append((rows[:, [seq[0] for seq in sequences]].ravel(), terms.ravel()))
            xr, sequences = None, ()
        elif id(rows) in gathered:
            xr = gathered[id(rows)]
        else:  # gather in the rows' own layout, as `vec[rows]` does: a
            # column-major kernel's products then read contiguous columns
            layout = "F" if np.isfortran(rows) else "C"
            xr = gathered[id(rows)] = np.empty(rows.shape, order=layout)
            gathers.append((rows.ravel(layout), xr.ravel(layout)))
        kernels.append((xr, cells, coef, sequences, terms, scratch[:len(rows)]))

    def contract(vec: np.ndarray) -> np.ndarray:
        # the rows were range-checked when their hypergraph was built;
        # under mode="raise" numpy gathers into a temporary, then copies
        for index, out in gathers:
            np.take(vec, index, out=out, mode="clip")
        y = np.zeros(dim)
        for xr, cells, coef, sequences, terms, partial in kernels:
            for j, (first, *rest) in enumerate(sequences):
                # only a product's last step writes its strided column
                product = xr[:, first]
                for l in rest[:-1]:
                    product = np.multiply(product, xr[:, l], out=partial)
                np.multiply(product, xr[:, rest[-1]], out=terms[:, j])
            terms *= coef
            y += np.bincount(cells, weights=terms.ravel(), minlength=dim)
        return y

    return contract


def apply(t: UniformTensor, x: ArrayLike) -> np.ndarray:
    """Contract the tensor with m-1 copies of x.

    Returns y with y_i = sum over index tuples starting at i of the tensor
    component times the product of the x components at the remaining indices.
    Accepts signed input; equals the dense contraction exactly up to float
    rounding of a pattern-ordered reduction (deterministic). Per pattern this
    is one gather, the leave-one-out products of each column (multiplied in
    support order, so nodes in symmetric positions get bit-identical terms)
    and one bincount.

    On an order-m uplift view, with z_s an order-s part's contraction of the
    real part x[:n], x_* the star's component and k = m - s >= 1, y[:n]
    gains s/(m (k-1)!) x_*^k z_s and y_* gains k/(m (k-1)!) x_*^(k-1)
    (x[:n] . z_s): the star factor times the ratios of arrangement counts,
    also for rows that repeat a node. A part of order m adds z_m to y[:n].
    """
    return _contraction(t)(_as_array(x, t.dim))


def flattening_matrix(t: UniformTensor) -> np.ndarray:
    """Pairwise flattening: M[i, j] sums all components with first index i and
    second index j. Cells are accumulated with an exactly rounded summation,
    so the result is independent of entry order.
    """
    m = t.order
    fact = math.factorial
    cells: dict[tuple[int, int], list[float]] = {}
    for support, value in t.entries:
        for i, mi in support:
            for j, mj in support:
                need = 2 if i == j else 1
                if (mi if i == j else mj) < need:
                    continue
                count = fact(m - 2)
                for v, c in support:
                    rem = c - (1 if v == i else 0) - (1 if v == j else 0)
                    count //= fact(rem)
                cells.setdefault((i, j), []).append(value * count)
    out = np.zeros((t.dim, t.dim))
    for (i, j), vals in cells.items():
        out[i, j] = math.fsum(vals)
    return out


def _multiset_permutations(items: tuple[int, ...]):
    """Yield all distinct orderings of a sorted tuple with repetitions."""
    if not items:
        yield ()
        return
    prev = None
    for k, v in enumerate(items):
        if v == prev:
            continue
        prev = v
        for tail in _multiset_permutations(items[:k] + items[k + 1:]):
            yield (v,) + tail


def dense_oracle(t: UniformTensor) -> np.ndarray:
    """Materialize the full m-way array (verification only; size-guarded)."""
    if t.dim ** t.order > 10**7:
        raise DataError(
            f"dense tensor would hold {t.dim ** t.order} components (> 1e7)"
        )
    out = np.zeros((t.dim,) * t.order)
    for support, value in t.entries:
        expanded = []
        for v, c in support:
            expanded.extend([v] * c)
        for tup in _multiset_permutations(tuple(expanded)):
            out[tup] = value
    return out
