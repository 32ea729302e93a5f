import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau as scipy_kendalltau

import hyperrank as hr
import hyperrank.rankcmp as rankcmp
import reference
from oracles import kendall_tau_bruteforce, pair_counts_real_nodes


class TestKendallTau:
    def test_identical_columns(self):
        assert hr.kendall_tau([3, 1, 2], [3, 1, 2]) == 1.0

    def test_reversed_ranking(self):
        assert hr.kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_one_swap(self):
        assert hr.kendall_tau([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(2 / 3)

    def test_all_tied_column_is_nan(self):
        assert math.isnan(hr.kendall_tau([1.0, 1.0, 1.0], [1, 2, 3]))

    def test_rejects_short_or_mismatched(self):
        with pytest.raises(hr.DataError):
            hr.kendall_tau([1.0], [2.0])
        with pytest.raises(hr.DataError):
            hr.kendall_tau([1, 2], [1, 2, 3])
        # a NaN score has no rank: refused in every entry point's sweep
        nan = float("nan")
        for a, b in (([1, nan, 3], [1, 2, 3]), ([1, 2, 3], [3, nan, 1])):
            with pytest.raises(hr.DataError, match="NaN"):
                hr.kendall_tau(a, b)
            with pytest.raises(hr.DataError, match="NaN"):
                hr.topk_curve(a, b, [2, 3])
        table = hr.RankingTable.from_scores({"A": {1: 1.0, 2: nan, 3: 3.0},
                                             "B": {1: 1.0, 2: 2.0, 3: 3.0}})
        with pytest.raises(hr.DataError, match="NaN"):
            hr.heatmap_and_curves(table, [2, 3])
        with pytest.raises(hr.DataError, match="NaN"):
            hr.pairwise_heatmap(table)

    @given(st.lists(st.integers(0, 8), min_size=2, max_size=60),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_bruteforce_with_ties(self, a, seed):
        rng = random.Random(seed)
        b = [rng.randint(0, 8) for _ in a]
        got = hr.kendall_tau(a, b)
        want = kendall_tau_bruteforce(a, b)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-14)
        # the batched sweep against the one-pair reference, bit for bit
        assert _outcome(hr.kendall_tau, a, b) == _outcome(reference.kendall_tau, a, b)
        ks = hr.default_ks(len(a))
        assert (_outcome(hr.topk_curve, a, b, ks)
                == _outcome(reference.topk_curve, a, b, ks))

    def test_matches_bruteforce_large_instances(self):
        rng = random.Random(8)
        for n in (50, 120, 200):
            a = [rng.uniform(0, 1) for _ in range(n)]
            b = [rng.choice(a[:10]) if rng.random() < 0.3 else rng.uniform(0, 1)
                 for _ in range(n)]
            assert hr.kendall_tau(a, b) == pytest.approx(
                kendall_tau_bruteforce(a, b), abs=1e-13
            )

    def test_matches_scipy_variant_b(self):
        rng = random.Random(15)
        for _ in range(30):
            n = rng.randint(2, 40)
            a = [rng.randint(0, 6) for _ in range(n)]
            b = [rng.randint(0, 6) for _ in range(n)]
            want = scipy_kendalltau(a, b, variant="b").statistic
            got = hr.kendall_tau(a, b)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)

    @given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=40,
                    unique=True),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_monotone_transform(self, a, seed):
        rng = random.Random(seed)
        b = list(a)
        rng.shuffle(b)
        base = hr.kendall_tau(a, b)
        transformed = hr.kendall_tau([3 * x + 7 for x in a],
                                     [math.atan(y) for y in b])
        assert transformed == pytest.approx(base, abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(3)
        a = [rng.random() for _ in range(25)]
        b = [rng.random() for _ in range(25)]
        assert hr.kendall_tau(a, b) == pytest.approx(hr.kendall_tau(b, a))


class TestZeroFill:
    def test_fill_changes_only_tie_structure(self):
        rng = random.Random(21)
        a = [rng.uniform(0.1, 1) for _ in range(12)]
        b = [rng.uniform(0.1, 1) for _ in range(12)]
        real = list(range(12))
        before = pair_counts_real_nodes(a, b, real)
        # a node absent from both methods enters with a double zero fill
        after = pair_counts_real_nodes(a + [0.0], b + [0.0], real)
        assert before == after

    def test_ranking_table_zero_fill_and_mask(self):
        table = hr.RankingTable.from_scores({
            "U2": {"a": 0.5, "b": 0.3},
            "H3": {"b": 0.2, "c": 0.8},
        })
        assert table.labels == ("a", "b", "c")
        np.testing.assert_allclose(table.column("U2"), [0.5, 0.3, 0.0])
        np.testing.assert_allclose(table.column("H3"), [0.0, 0.2, 0.8])

    def test_ranking_table_labels_are_node_labels(self):
        # two nodes named 1 would rank as two nodes in every tau
        cols = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(hr.DataError, match="labels must be distinct"):
            hr.RankingTable((1, 1), ("a", "b"), cols)
        for labels in (None, (), np.array([0, 1])):
            assert hr.RankingTable(labels, ("a", "b"), cols).labels == (0, 1)

    def test_ranking_table_refuses_repeated_tags(self):
        cols = np.zeros((4, 2))
        with pytest.raises(hr.DataError, match="repeated: 'B', 'A'$"):
            hr.RankingTable((1, 2), ("B", "A", "B", "A"), cols)
        with pytest.raises(hr.DataError, match="repeated: 'U2'$"):
            hr.RankingTable((1, 2), ("U2", "U3", "U2", "U4"), cols)
        table = hr.RankingTable.from_scores({"a": {1: 1.0}, "b": {1: 2.0}})
        with pytest.raises(hr.DataError, match="no column is tagged 'c'"):
            table.column("c")

    def test_ranking_table_refuses_mismatched_or_no_columns(self):
        with pytest.raises(hr.DataError, match="column matrix shape mismatch"):
            hr.RankingTable((1, 2, 3), ("U2", "U3"), np.zeros((2, 2)))
        with pytest.raises(hr.DataError, match="column matrix shape mismatch"):
            hr.RankingTable((1, 2), ("U2", "U3"), np.zeros(2))
        with pytest.raises(hr.DataError, match="no score columns given"):
            hr.RankingTable.from_scores({})


class TestHeatmap:
    def test_identical_columns_give_ones(self):
        table = hr.RankingTable.from_scores({
            "A": {1: 0.6, 2: 0.4},
            "B": {1: 0.6, 2: 0.4},
        })
        np.testing.assert_allclose(hr.pairwise_heatmap(table), np.ones((2, 2)))

    def test_needs_two_columns(self):
        table = hr.RankingTable.from_scores({"A": {1: 0.3, 2: 0.7}})
        with pytest.raises(hr.DataError):
            hr.pairwise_heatmap(table)

    def test_needs_two_labels(self):
        table = hr.RankingTable.from_scores({"A": {1: 0.3}, "B": {1: 0.7}})
        with pytest.raises(hr.DataError, match="at least 2 entries"):
            hr.heatmap_and_curves(table, [])


class TestTopKCurve:
    def test_equal_columns_give_ones(self):
        a = np.linspace(1, 0, 20)
        curve = hr.topk_curve(a, a, [2, 5, 10, 20])
        assert [k for k, _ in curve] == [2, 5, 10, 20]
        assert all(t == 1.0 for _, t in curve)

    def test_full_size_equals_whole_ranking_tau(self):
        rng = random.Random(6)
        a = np.array([rng.random() for _ in range(40)])
        b = np.array([rng.random() for _ in range(40)])
        curve = hr.topk_curve(a, b, [40])
        assert curve == [(40, hr.kendall_tau(a, b))]

    def test_small_ks_skipped(self):
        a = np.linspace(1, 0, 8)
        curve = hr.topk_curve(a, a, [1, 2, 3])
        assert [k for k, _ in curve] == [2, 3]
        assert hr.topk_curve(a, a, [0, 1]) == []

    def test_boundary_ties_expand_selection(self):
        a = np.array([5.0, 4.0, 4.0, 4.0, 1.0])
        b = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        curve = hr.topk_curve(a, b, [2, 3, 4, 5])
        # top-2 pulls in every score tied with the 2nd: actual size 4
        assert [k for k, _ in curve] == [4, 5]

    def test_direction_matters(self):
        a = np.array([10.0, 9.0, 8.0, 1.0, 1.0])
        b = np.array([1.0, 5.0, 10.0, 9.0, 8.0])
        ab = dict(hr.topk_curve(a, b, [3]))
        ba = dict(hr.topk_curve(b, a, [3]))
        assert ab[3] == -1.0
        assert ba[3] == pytest.approx(2 / math.sqrt(6))

    def test_rejects_unsorted_ks(self):
        with pytest.raises(hr.DataError):
            hr.topk_curve([1.0, 2.0], [1.0, 2.0], [2, 1])
        # a K that is not an integer: 2.5 would read as 2, "3" would not sort
        table = hr.RankingTable.from_scores({"a": {i: i for i in range(5)},
                                             "b": {i: -i for i in range(5)}})
        for ks in ([2.5, 4], ["3"], [2, True], [np.float64(3.0)]):
            for run in (lambda: hr.topk_curve(table.column("a"), table.column("b"), ks),
                        lambda: hr.heatmap_and_curves(table, ks)):
                with pytest.raises(hr.DataError, match="K must be an integer, got "):
                    run()
        assert hr.topk_curve(table.column("a"), table.column("b"), [np.int64(3)]) == \
            hr.topk_curve(table.column("a"), table.column("b"), [3])

    def test_rejects_k_above_size(self):
        with pytest.raises(hr.DataError):
            hr.topk_curve([1.0, 2.0], [1.0, 2.0], [3])

    @pytest.mark.parametrize("a, b", [
        ([[1, 2], [3, 4]], [[1, 2], [3, 4]]),
        (5.0, 5.0),
        ([1.0, 2.0], [1.0, 2.0, 3.0]),
    ])
    def test_rejects_columns_that_are_not_equal_1d(self, a, b):
        with pytest.raises(hr.DataError, match="equal-length 1-d"):
            hr.topk_curve(a, b, [2])


def _same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def _outcome(fn, *args):
    """What `fn` returns or raises, comparable bit for bit: floats as bytes,
    so NaN positions compare too."""
    def exact(value):
        if isinstance(value, float):
            return np.float64(value).tobytes()
        if isinstance(value, np.ndarray):
            return value.shape, value.tobytes()
        if isinstance(value, (tuple, list)):
            return type(value).__name__, [exact(v) for v in value]
        if isinstance(value, dict):
            return [(k, exact(v)) for k, v in value.items()]
        return value
    try:
        return "value", exact(fn(*args))
    except hr.DataError as exc:
        return "error", type(exc).__name__, str(exc)


@st.composite
def _tie_heavy_column(draw, n):
    kind = draw(st.sampled_from(["pool", "zero_filled", "free"]))
    values = st.floats(0, 1, allow_nan=False)
    if kind == "pool":
        pool = draw(st.lists(values, min_size=1, max_size=4))
        return [draw(st.sampled_from(pool)) for _ in range(n)]
    col = draw(st.lists(values, min_size=n, max_size=n))
    if kind == "zero_filled":
        absent = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        col = [0.0 if gone else v for v, gone in zip(col, absent)]
    return col


class TestOneSweepExactness:
    """Every curve point and heatmap cell equals brute force with `==`."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_curve_points_heatmap_and_symmetry(self, data):
        n = data.draw(st.integers(2, 70))
        a, b, c = (data.draw(_tie_heavy_column(n)) for _ in range(3))
        ks = sorted(data.draw(st.lists(st.integers(0, n), max_size=8)) + [n])
        a_desc = sorted(a, reverse=True)
        want, seen = [], set()
        for k in ks:
            if k < 2:
                continue
            sel = [i for i in range(n) if a[i] >= a_desc[k - 1]]
            if len(sel) not in seen:
                seen.add(len(sel))
                want.append((len(sel), kendall_tau_bruteforce(
                    [a[i] for i in sel], [b[i] for i in sel])))
        got = hr.topk_curve(a, b, ks)
        assert [k for k, _ in got] == [k for k, _ in want]
        assert all(_same(g, w) for (_, g), (_, w) in zip(got, want))

        table = hr.RankingTable.from_scores(
            {tag: dict(enumerate(col)) for tag, col in (("A", a), ("B", b), ("C", c))})
        heat = hr.pairwise_heatmap(table)
        assert _same(heat[0, 1], got[-1][1])
        assert heat.tobytes() == heat.T.copy().tobytes()
        assert _same(hr.kendall_tau(b, a), hr.kendall_tau(a, b))

    @given(st.data(), st.sampled_from([rankcmp._BATCH_KEYS, 1]))
    @settings(max_examples=150, deadline=None)
    def test_heatmap_and_curves_reuse_the_curve_sweeps(self, data, batch_keys):
        # the batched sweep over all ordered pairs equals one reference sweep
        # per pair bit for bit: taus, sizes, NaN positions, dict order and
        # refusals; with one key per batch, every pair is its own batch
        n = data.draw(st.integers(0, 50))
        k = data.draw(st.integers(1, 4))
        tags = tuple(data.draw(st.permutations("ABCD"))[:k])
        cols = [data.draw(_tie_heavy_column(n)) for _ in range(k)]
        if n and data.draw(st.booleans()):
            cols[-1][data.draw(st.integers(0, n - 1))] = float("nan")
        table = hr.RankingTable(tuple(range(n)), tags, np.array(cols).reshape(k, n))
        # Ks that reach n, Ks that may stop short of n's tie group, and Ks
        # that may be out of range or unsorted
        ks = data.draw(st.sampled_from([
            hr.default_ks(n),
            sorted(data.draw(st.lists(st.integers(0, n), max_size=6))),
            data.draw(st.lists(st.integers(-1, n + 1), max_size=6))]))
        old = rankcmp._BATCH_KEYS
        rankcmp._BATCH_KEYS = batch_keys
        try:
            got = _outcome(hr.heatmap_and_curves, table, ks)
        finally:
            rankcmp._BATCH_KEYS = old
        assert got == _outcome(reference.heatmap_and_curves, table, ks)

    def test_batches_split_pairs_exactly(self):
        # 6 ordered pairs of 32,768 padded keys each: 2 pairs per batch, so
        # the sweep runs 3 batches; the curves and cells match the reference
        n = 20_000
        rng = np.random.default_rng(12)
        base = rng.random(n)
        cols = np.stack([base, np.round(base + 0.3 * rng.random(n), 2),
                         np.where(rng.random(n) < 0.3, 0.0, rng.random(n))])
        table = hr.RankingTable(tuple(range(n)), ("A", "B", "C"), cols)
        assert rankcmp._BATCH_KEYS // 32_768 == 2
        ks = hr.default_ks(n)
        assert (_outcome(hr.heatmap_and_curves, table, ks)
                == _outcome(reference.heatmap_and_curves, table, ks))

    def test_large_tied_columns_stay_exact(self):
        # about 1,000 tie groups; n0 * n0 no longer fits in int64 here
        n = 100_000
        x = np.round(np.random.default_rng(4).random(n), 3)
        assert hr.kendall_tau(x, x) == 1.0
        assert hr.kendall_tau(x, -x) == -1.0
        curve = hr.topk_curve(x, -x, [1000, n])
        assert [t for _, t in curve] == [-1.0, -1.0]
        assert curve[0][0] >= 1000 and curve[-1][0] == n


# n(n-1)/2 stays below 2^53 up to n = 2^27
_N_MAX = 2**27


@st.composite
def _pair_counts(draw):
    """(n, ties_a, ties_b, ties_ab, discordant) of a consistent tie structure:
    the pairs tied in neither column number at least the discordant ones.
    Fully tied columns (zero denominators) and +/-1 come up often."""
    n = draw(st.one_of(st.integers(2, 50), st.integers(2, _N_MAX), st.just(_N_MAX)))
    n0 = n * (n - 1) // 2
    ties_ab = draw(st.one_of(st.just(0), st.just(n0), st.integers(0, n0)))
    only_a = draw(st.one_of(st.just(0), st.integers(0, n0 - ties_ab)))
    only_b = draw(st.one_of(st.just(0), st.integers(0, n0 - ties_ab - only_a)))
    untied = n0 - ties_ab - only_a - only_b
    discordant = draw(st.one_of(st.just(0), st.just(untied), st.integers(0, untied)))
    return n, ties_ab + only_a, ties_ab + only_b, ties_ab, discordant


class TestTauFormula:
    @given(st.lists(_pair_counts(), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_array_form_equals_exact_int_formula(self, counts):
        # every value, NaN included, is the scalar formula's to the bit
        got = rankcmp._tau_b(*np.array(counts, dtype=np.int64).T)
        want = np.array([reference._tau_b(*c) for c in counts])
        assert got.tobytes() == want.tobytes()

    def test_extremes(self):
        n = _N_MAX
        n0 = n * (n - 1) // 2
        assert n0 < 2**53
        counts = [(n, 0, 0, 0, 0), (n, 0, 0, 0, n0), (n, n0, 0, 0, 0), (n, n0, n0, n0, 0),
                  (2, 0, 0, 0, 0), (2, 0, 0, 0, 1), (2, 1, 1, 1, 0)]
        got = rankcmp._tau_b(*np.array(counts, dtype=np.int64).T)
        assert got[:2].tolist() == [1.0, -1.0] and got[4:6].tolist() == [1.0, -1.0]
        assert np.isnan(got[[2, 3, 6]]).all()


class TestEarlierCounts:
    @pytest.mark.parametrize("n", sorted(
        {1, 2, 3} | {v for k in range(2, 8) for v in (2**k - 1, 2**k, 2**k + 1)}))
    def test_rows_equal_the_one_column_sweep(self, n):
        # batched rows of few and many ties, each equal to its own sweep
        rng = np.random.default_rng(n)
        rank = np.stack([rng.integers(0, top, n) for top in (1, 2, max(1, n // 3), n, n)])
        lower, equal = rankcmp._earlier_counts(rank)
        for row, got_lower, got_equal in zip(rank, lower, equal):
            want_lower, want_equal = reference._earlier_counts(row)
            assert got_lower.tolist() == want_lower.tolist()
            assert got_equal.tolist() == want_equal.tolist()


class TestCurveFilter:
    def test_single_curve_kept(self):
        curves = {("U2", "U3"): [(10, 0.5), (20, 0.6)]}
        assert hr.curve_filter(curves) == curves

    def test_identical_curves_dedup_to_one(self):
        data = [(10, 0.5), (20, 0.6)]
        curves = {("U2", "U3"): list(data), ("U2", "U4"): list(data),
                  ("U3", "U4"): list(data), ("U3", "U2"): list(data)}
        kept = hr.curve_filter(curves)
        assert len(kept) == 1

    def test_selection_matches_bruteforce(self):
        rng = random.Random(17)
        curves = {}
        for i in range(6):
            taus = [rng.uniform(-1, 1) for _ in range(5)]
            curves[("U2", f"H{i}")] = [(k + 2, t) for k, t in enumerate(taus)]
        kept = hr.curve_filter(curves)
        stats = {
            key: (max(t for _, t in c), min(t for _, t in c),
                  sum(t for _, t in c) / len(c))
            for key, c in curves.items()
        }
        expect = {
            max(stats, key=lambda k: stats[k][0]),
            min(stats, key=lambda k: stats[k][1]),
            max(stats, key=lambda k: stats[k][2]),
            min(stats, key=lambda k: stats[k][2]),
        }
        assert set(kept) == expect
        assert len(kept) <= 4

    def test_families_grouped_separately(self):
        curves = {
            ("U2", "H3"): [(5, 0.9)],
            ("U3", "H4"): [(5, 0.1)],
            ("A3", "H4"): [(5, 0.2)],
        }
        kept = hr.curve_filter(curves)
        # U->H family keeps both extremes; A->H keeps its only curve
        assert ("A3", "H4") in kept
        assert ("U2", "H3") in kept and ("U3", "H4") in kept

    def test_family_without_a_tau_keeps_its_first_curve(self):
        nan = math.nan
        curves = {("U2", "H3"): [(5, nan)], ("U3", "H3"): [(5, nan), (8, nan)],
                  ("U2", "A3"): [(5, 0.4)]}
        assert hr.curve_filter(curves) == {("U2", "H3"): [(5, nan)],
                                           ("U2", "A3"): [(5, 0.4)]}


class TestCsv:
    def test_heatmap_csv_layout(self, tmp_path):
        table = hr.RankingTable.from_scores({
            "U2": {1: 0.6, 2: 0.4}, "U3": {1: 0.5, 2: 0.5},
        })
        mat = hr.pairwise_heatmap(table)
        out = tmp_path / "heat.csv"
        from hyperrank.rankcmp import write_heatmap_csv
        write_heatmap_csv(out, table, mat)
        lines = out.read_text().splitlines()
        assert lines[0] == "method,U2,U3"
        assert lines[1].startswith("U2,1,")

    def test_curves_csv_layout(self, tmp_path):
        from hyperrank.rankcmp import write_curves_csv
        out = tmp_path / "curves.csv"
        write_curves_csv(out, {("U2", "U3"): [(10, 0.25)]})
        assert out.read_text().splitlines() == [
            "method_a,method_b,K,tau", "U2,U3,10,0.25",
        ]

    def test_default_ks_covers_full_size(self):
        ks = hr.default_ks(500)
        assert ks[0] >= 2 and ks[-1] == 500
        assert ks == sorted(ks)

    def test_default_ks_tiny_tables(self):
        assert hr.default_ks(1) == []
        assert hr.default_ks(2) == [2]
        assert hr.default_ks(7)[-1] == 7
