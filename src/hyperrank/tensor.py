"""Implicit symmetric nonnegative tensors: the adjacency tensor of a uniform
weighted hypergraph, its contraction (tensor apply), flattening matrix, and a
dense materialization oracle for verification.

A `UniformTensor` wraps the uniform `Hypergraph` it is built from, which has
already checked every row and weight; the tensor is weakly irreducible exactly
when that hypergraph is connected. Each row adds its weight to the entry
whose support is the row's multiset of nodes. The represented array has an
entry's value at every index tuple whose multiset of indices equals its
support, so an uplifted edge costs one row with its auxiliary node as
one more column. `_kernels` builds every tensor's contraction kernels, on
arrays the tensor owns, on first use; `apply` allocates its work arrays per
call, the power method once per solve (`_contraction`). The read-only
`UniformTensor.entries` view lists the (support, value) pairs on demand for
`flattening_matrix` and `dense_oracle`, which exist for cross-checking on
small instances; nothing is densified in production paths.

The aux gauge is not a tensor of its own but `_GaugedTensor`, a view whose
`apply` rescales the base contraction. Nor is the composition construction:
`_CompositionTensor` contracts with its input's rows, once per size, and
builds `alternative_uniformization` only for its `entries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .errors import DataError
from .hypergraph import Hypergraph, Support
from .uniformize import (_alpha, _check_composable, _check_max_order, _compositions,
                         _starred, alternative_uniformization)

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
    order h.max_size on `dim = h.n` indices. Auxiliary nodes are ordinary
    indices; duplicate supports merge additively.
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

    @cached_property
    def entries(self) -> tuple[tuple[Support, float], ...]:
        """The entries of the materialized tensor (built for verification)."""
        return UniformTensor(alternative_uniformization(self.hypergraph, self.order)).entries

    @cached_property
    def _apply_arrays(self):
        """`_kernels` of the materialized tensor, one group per (size,
        composition). Each size's compositions share one column-major copy
        of its rows, as the materialized cut copies each pattern's rows, and
        one row-major copy for the cells; rows that are all of size m are
        one all-distinct pattern, whose one C copy serves as both.
        """
        m, blocks = self.order, self.hypergraph.blocks
        layout = "C" if list(blocks) == [m] else "F"
        groups = []
        for s, (rows, weight) in blocks.items():
            rows = np.array(rows, order=layout)
            cells, value = rows.ravel(), weight * s / _alpha(m, s)
            for comp in _compositions(m, s):
                starts = np.zeros(m, dtype=bool)
                starts[np.cumsum((0,) + comp[:-1])] = True
                groups.append((tuple(starts.tolist()), rows, cells, value))
        return _kernels(m, groups)


class _GaugedTensor:
    """The aux-gauged view over the tensor t of an m-uniform hypergraph g:
    the tensor of `uplift(g, m + 1)` without building it. It has order m+1
    on `dim` n+1 indices, the star last, and its `hypergraph` is g (for a
    `_CompositionTensor`, its projection): the star joins every row, so the
    gauged tensor is weakly irreducible whenever g is connected, which every
    pipeline requires. `labels` and `aux_indices` are those of the uplift.
    """

    def __init__(self, t: Union[UniformTensor, _CompositionTensor]):
        _check_max_order(t.order + 1)
        h = t.hypergraph
        self.base = t
        self.hypergraph = h
        self.order = t.order + 1
        self.dim = t.dim + 1
        self.labels, aux = _starred(h)
        self.aux_indices = aux.nodes

    @cached_property
    def entries(self) -> tuple[tuple[Support, float], ...]:
        """The base entries with the star appended once, value / (m+1)."""
        star = ((self.dim - 1, 1),)
        return tuple((s + star, v / self.order) for s, v in self.base.entries)


def _contraction(t):
    """`apply` on t as a function of a float vector of length t.dim. Each
    kernel's gather and term buffers are allocated here, once, and refilled
    on every call by the multiplications of a fresh contraction, in their
    order, so every result is bit-identical to one. Kernels on one rows
    array (a composition view's) share its gather. A solver builds one
    contraction per solve: no two threads share buffers (numpy releases the
    GIL inside `take` and `multiply`).
    """
    gauged = isinstance(t, _GaugedTensor)
    dim = t.dim - 1 if gauged else t.dim
    arrays = (t.base if gauged else t)._apply_arrays
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

    if not gauged:
        return contract
    m = t.base.order

    def contract_gauged(vec: np.ndarray) -> np.ndarray:
        real = vec[:-1]
        z = contract(real)
        y = np.empty(dim + 1)
        np.multiply(m / (m + 1) * vec[-1], z, out=y[:-1])
        y[-1] = (real * z).sum() / (m + 1)
        return y

    return contract_gauged


def apply(t: UniformTensor, x: ArrayLike) -> np.ndarray:
    """Contract the tensor with m-1 copies of x.

    Returns y with y_i = sum over index tuples starting at i of the tensor
    component times the product of the x components at the remaining indices.
    Accepts signed input; equals the dense contraction exactly up to float
    rounding of a pattern-ordered reduction (deterministic). Per pattern this
    is one gather, the leave-one-out products of each column (multiplied in
    support order, so nodes in symmetric positions get bit-identical terms)
    and one bincount.

    On the aux-gauged view of an order-m tensor, with z the base contraction
    of the real part x[:n] and x_* the star's component: a real column's
    arrangement count is m times its base count, and the star's is the base
    row's full count, so y[:n] = (m/(m+1)) x_* z and y_* = (x[:n] . z)/(m+1).
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
