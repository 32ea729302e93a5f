"""Implicit symmetric nonnegative tensors: the adjacency tensor of a uniform
weighted hypergraph, its contraction (tensor apply), flattening matrix, and a
dense materialization oracle for verification.

A `UniformTensor` wraps the uniform `Hypergraph` it is built from, which has
already checked every row and weight; the tensor is weakly irreducible exactly
when that hypergraph is connected. Each row adds its weight to the entry
whose support is the row's multiset of nodes. The represented array has an
entry's value at every index tuple whose multiset of indices equals its
support. `_kernels` builds every tensor's contraction kernels, one per
multiplicity pattern (a composition of the order) with `_multinomial`
arrangement counts, on arrays the tensor owns, on first use.
`_contraction` plans a contraction once, for one `apply` call or for every
step of a solve: its gathers, each distinct leave-one-out product taken
once, and one ordered `np.add.at` accumulation per kernel. The read-only
`UniformTensor.entries` view lists the (support, value) pairs on demand for
`flattening_matrix` and `dense_oracle`, which exist for cross-checking on
small instances; nothing is densified in production paths.

The uplift, the aux gauge included, is `_UpliftTensor`: a view that scales
its parts' contractions and pads no row. Nor is the composition construction
a tensor of its own: `_CompositionTensor` contracts with its rows, once per
size, and builds `alternative_uniformization` only for its `entries`. Both
views project the pipeline's input themselves and keep the projection, to
which `project` hands a connected input's verdict, as `hypergraph`.
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
                         _multinomial, _starred, alternative_uniformization, project,
                         star_factor)

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


def _kernels(groups) -> tuple:
    """The contraction kernels of a tensor from its groups (mults, rows,
    cells, value): a group holds the rows of one multiplicity pattern, cut
    to their distinct nodes, and mults is that pattern, the composition of
    the order whose part j is column j's multiplicity; its cells are those
    rows flattened row-major. One kernel per group, sorted by composition,
    descending: its rows; its cells; value times each column's arrangement
    count, the `_multinomial` of mults with part j lowered by one;
    and each column's leave-one-out factor sequence, the column repeated
    mults[j] - 1 times, then every other column l repeated mults[l] times.

    Callers pass rows and cells that they own, writable: numpy copies a
    read-only `take` index on every call.
    """
    kernels = []
    for mults, rows, cells, value in sorted(groups, key=lambda g: g[0], reverse=True):
        counts = np.array([_multinomial(mults[:j] + (c - 1,) + mults[j + 1:])
                           for j, c in enumerate(mults)], dtype=float)
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
            return _kernels([((1,) * m, rows, rows.ravel(), weight)])
        # a stable sort keeps each pattern's rows in their order; numpy cuts
        # them column-major, which keeps `apply`'s column products fast
        order = np.lexsort(starts.T[::-1])
        starts = starts[order]
        first = np.flatnonzero(np.r_[True, (starts[1:] != starts[:-1]).any(axis=1)])
        groups = []
        for a, sel in zip(first, np.split(order, first[1:])):
            cut = rows[sel][:, starts[a]]
            mults = tuple(np.diff(np.r_[np.flatnonzero(starts[a]), m]).tolist())
            groups.append((mults, cut, cut.ravel(), weight[sel]))
        return _kernels(groups)


def from_hypergraph(h: Hypergraph) -> UniformTensor:
    """Adjacency tensor of a uniform weighted hypergraph."""
    return UniformTensor(h)


class _CompositionTensor:
    """The tensor of `alternative_uniformization(g, m)` without building it,
    where g is `project(h, m)`, kept as its `hypergraph`: order m on g's n
    indices, weakly irreducible exactly when g is connected. It refuses what
    the projection and the construction refuse, with the same messages.

    A size-s row r and a composition c of m into s parts make the row that
    repeats r[j] c[j] times: its distinct nodes are r and its multiplicity
    pattern is c. So the materialized tensor's kernels are one per
    (size, composition), on that size's rows in their order, with the
    coefficients (w * s / alpha(m, s)) times c's arrangement counts.
    """

    def __init__(self, h: Hypergraph, m: int):
        g = project(h, m)
        _check_composable(g, m)
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
            groups.extend((comp, rows, cells, value) for comp in _compositions(m, s))
        return _kernels(groups)


class _UpliftTensor:
    """The tensor of `uplift` to order m as a view of `parts`, tensors of
    orders s <= m on n indices with shared `labels` and `aux`: order m on
    `dim` n+1 indices, the star last. Its `hypergraph` is the hypergraph
    whose connectivity makes the view weakly irreducible (the star joins
    every short row): the pipeline's checked input, or the projection that
    `project` hands that verdict to. Its callers state its refusals."""

    def __init__(self, parts: tuple, m: int, hypergraph: Hypergraph):
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


def _uplifted(h: Hypergraph, m: int) -> Union[UniformTensor, _UpliftTensor]:
    """The tensor of `uplift(g, m)`, where g is `project(h, m)`, as a view of
    g's size classes; `UniformTensor(g)` when no edge needs padding. Its
    refusals are `project`'s: `uplift`'s are its callers' to state."""
    g = project(h, m)
    if all(s == m for s in g.blocks):
        return UniformTensor(g)
    return _UpliftTensor(tuple(UniformTensor(Hypergraph(g.n, g.labels, g.aux, blocks={s: b}))
                               for s, b in g.blocks.items()), m, g)


def _contraction(t):
    """`apply` on t as a function of a float vector of length t.dim, planned
    here once: a solver builds one contraction per solve. Kernels on one rows
    array (a composition view's) share its gather and one prefix tree of
    their leave-one-out sequences, and each distinct prefix of two or more
    factors is one `np.multiply` on prebuilt column views, into its term
    column or a depth-first partial-product buffer. Then each kernel scales
    its terms, `np.add.at` adds them into its cells of one zeroed buffer in
    order, and the buffer is added into y. Every product and sum is a fresh
    contraction's, so every result is bit-identical to one. No two threads
    share buffers (numpy releases the GIL inside `take` and `multiply`). An
    uplift view adds its parts' contractions, scaled.
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
    dim, factors, arrays = t.dim, t.order - 1, t._apply_arrays
    # a product of k factors, 2 <= k < factors, waits in partials[k - 2]
    # while the products that extend it are taken, on any rows array
    longest = max(len(rows) for rows, _, _, _ in arrays)
    partials = [np.empty(longest) for _ in range(factors - 2)]
    gathers, trees, kernels = [], {}, []
    for rows, cells, coef, sequences in arrays:
        terms = np.empty(coef.shape)
        flat = terms.ravel()
        kernels.append((cells, coef, terms, flat))
        if factors == 1:  # order 2: each term is one gathered factor
            gathers.append((rows[:, [seq[0] for seq in sequences]].ravel(), flat))
            continue
        if id(rows) not in trees:  # gather in the rows' own layout, as
            # `vec[rows]` does: a column-major kernel's products then read
            # contiguous columns
            layout = "F" if np.isfortran(rows) else "C"
            xr = np.empty(rows.shape, order=layout)
            gathers.append((rows.ravel(layout), xr.ravel(layout)))
            trees[id(rows)] = (xr, {})
        # no two sequences on one rows array are equal: column j's holds its
        # pattern less one j, and two columns whose sequences hold the same
        # multiset differ in their first factor
        trees[id(rows)][1].update((seq, terms[:, j]) for j, seq in enumerate(sequences))
    products = []
    for xr, leaves in trees.values():
        cols, held = [xr[:, l] for l in range(xr.shape[1])], [buf[:len(xr)] for buf in partials]
        # sorted, the prefixes run depth-first: the one that a prefix
        # extends is the last of its length taken before it
        for p in sorted({seq[:k] for seq in leaves for k in range(2, factors + 1)}):
            first = cols[p[0]] if len(p) == 2 else held[len(p) - 3]
            # only a sequence's last product writes its strided term column
            out = leaves[p] if len(p) == factors else held[len(p) - 2]
            products.append((first, cols[p[-1]], out))
    accumulator = np.empty(dim)

    def contract(vec: np.ndarray) -> np.ndarray:
        # the rows were range-checked when their hypergraph was built;
        # under mode="raise" numpy gathers into a temporary, then copies
        for index, out in gathers:
            np.take(vec, index, out=out, mode="clip")
        for a, b, out in products:
            np.multiply(a, b, out=out)
        # `add.at` adds each term into its cell in term order, from +0.0, as
        # `bincount` does: each kernel's sums reach y in kernel order
        y = np.zeros(dim)
        for cells, coef, terms, flat in kernels:
            terms *= coef
            accumulator.fill(0.0)
            np.add.at(accumulator, cells, flat)
            y += accumulator
        return y

    return contract


def apply(t: UniformTensor, x: ArrayLike) -> np.ndarray:
    """Contract the tensor with m-1 copies of x.

    Returns y with y_i = sum over index tuples starting at i of the tensor
    component times the product of the x components at the remaining indices.
    Accepts signed input; equals the dense contraction exactly up to float
    rounding of a pattern-ordered reduction (deterministic). Per pattern this
    is one gather, the leave-one-out products of each column (multiplied in
    support order, so nodes in symmetric positions get bit-identical terms;
    a product that two columns share is taken once) and one ordered
    `np.add.at` accumulation.

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
    cells: dict[tuple[int, int], list[float]] = {}
    for support, value in t.entries:
        for i, _ in support:
            for j, _ in support:
                rest = [c - (v == i) - (v == j) for v, c in support]
                if min(rest) >= 0:  # i == j needs a multiplicity of 2
                    cells.setdefault((i, j), []).append(value * _multinomial(rest))
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
