import dataclasses
import functools
import heapq
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from fdabands import (
    ChangePointSet,
    FunctionalTimeSeries,
    Grid,
    InvalidInputError,
    LrvConfig,
    PipelineConfig,
    RelevantChangeConfig,
    ScenarioSpec,
    SegmentationConfig,
    analyze,
    auto_delta,
    detect_change_points,
    estimate_lrv,
    fit_segments,
    generate,
    relevant_set,
    segments_from_indices,
)
import fdabands.core as core
import fdabands.pipeline as pipeline
import fdabands.segmentation as segmentation
from fdabands.segmentation import _best_split, _binary_segmentation


def make_series(values):
    values = np.asarray(values, dtype=float)
    return FunctionalTimeSeries(values, Grid.uniform(values.shape[1]))


def brute_force_cusum(values, lo, hi):
    """Independent scan of every split point of [lo, hi); returns the argmax
    split index and the statistic, computed with plain loops."""
    m = hi - lo
    best_stat, best_j = -1.0, None
    total = values[lo:hi].sum(axis=0)
    for k in range(1, m):
        partial = values[lo : lo + k].sum(axis=0)
        stat = np.max(np.abs(partial - (k / m) * total)) / np.sqrt(m)
        if stat > best_stat:
            best_stat, best_j = stat, lo + k
    return best_j, best_stat


def jump_series(n, grid_size, jumps, noise_sd, seed):
    """Piecewise-constant means with specified (location, mean curve) jumps."""
    rng = np.random.default_rng(seed)
    grid = Grid.uniform(grid_size)
    vals = rng.normal(scale=noise_sd, size=(n, grid_size))
    for s, curve in jumps:
        vals[int(n * s) :] += np.asarray(curve)
    return FunctionalTimeSeries(vals, grid)


class TestDetectChangePoints:
    def test_single_jump(self):
        grid_size = 20
        t = np.linspace(0, 1, grid_size)
        x = jump_series(200, grid_size, [(0.5, 10.0 * t)], noise_sd=0.1, seed=0)
        cps = detect_change_points(x)
        assert cps.m == 1
        assert 0.45 <= cps.locations[0] <= 0.55
        # the split must sit at the peak of an independent brute-force scan
        j_oracle, _ = brute_force_cusum(np.asarray(x.values), 0, 200)
        assert cps.indices[0] == j_oracle

    def test_constant_mean_returns_empty(self):
        rng = np.random.default_rng(1)
        x = make_series(rng.normal(size=(150, 8)))
        cps = detect_change_points(x, SegmentationConfig(threshold=50.0))
        assert cps.indices == ()
        assert cps.m == 0

    def test_two_jumps(self):
        grid_size = 15
        x = jump_series(
            300,
            grid_size,
            [(1 / 3, np.full(grid_size, 10.0)), (2 / 3, np.full(grid_size, -10.0))],
            noise_sd=0.1,
            seed=2,
        )
        cps = detect_change_points(x)
        assert cps.m == 2
        assert abs(cps.locations[0] - 1 / 3) <= 0.05
        assert abs(cps.locations[1] - 2 / 3) <= 0.05
        # brute-force binary segmentation oracle: first split, then each side
        vals = np.asarray(x.values)
        j1, _ = brute_force_cusum(vals, 0, 300)
        left, _ = brute_force_cusum(vals, 0, j1)
        right, _ = brute_force_cusum(vals, j1, 300)
        assert set(cps.indices) <= {j1, left, right}

    def test_noiseless_exact_recovery(self):
        # unequal jump sizes keep the CUSUM argmax unique (equal same-sign
        # jumps create a flat plateau with no distinguished maximizer)
        grid_size = 6
        x = jump_series(
            120,
            grid_size,
            [(1 / 3, np.full(grid_size, 5.0)), (2 / 3, np.full(grid_size, 3.0))],
            noise_sd=0.0,
            seed=3,
        )
        cps = detect_change_points(x)
        assert cps.indices == (40, 80)

    def test_series_too_short(self):
        x = make_series(np.zeros((30, 4)))
        with pytest.raises(InvalidInputError):
            detect_change_points(x)  # default msl = 20 needs n >= 40

    def test_deterministic(self):
        x = jump_series(200, 10, [(0.5, np.full(10, 8.0))], noise_sd=0.5, seed=4)
        a = detect_change_points(x)
        b = detect_change_points(x)
        assert a.indices == b.indices and a.threshold == b.threshold

    def test_grid_permutation_equivariance(self):
        # the CUSUM takes a sup over t, so reordering grid columns
        # consistently across curves leaves the detected indices unchanged
        x = jump_series(200, 10, [(0.4, np.linspace(0, 9, 10))], noise_sd=0.3, seed=5)
        perm = np.random.default_rng(6).permutation(10)
        x_perm = FunctionalTimeSeries(np.asarray(x.values)[:, perm], x.grid)
        assert detect_change_points(x).indices == detect_change_points(x_perm).indices

    def test_max_changes_cap(self):
        grid_size = 5
        x = jump_series(
            240,
            grid_size,
            [(0.25, np.full(grid_size, 10.0)), (0.5, np.full(grid_size, 10.0)), (0.75, np.full(grid_size, 10.0))],
            noise_sd=0.1,
            seed=7,
        )
        cps = detect_change_points(x, SegmentationConfig(max_changes=1))
        assert cps.m == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_offset_leaves_indices_unchanged(self, seed):
        # the scans take each partial sum as P[lo + k] - P[lo] of one prefix
        # sum of the whole series, which cancels the offset's sums of up to
        # n * c; the changes must not move
        grid_size = 20
        x = jump_series(
            10_000,
            grid_size,
            [(0.3, np.linspace(0.0, 0.6, grid_size)), (0.7, np.full(grid_size, -0.4))],
            noise_sd=1.0,
            seed=seed,
        )
        base = detect_change_points(x).indices
        assert len(base) == 2
        for c in (1e4, 1e6, 1e8):
            shifted = FunctionalTimeSeries(np.asarray(x.values) + c, x.grid)
            assert detect_change_points(shifted).indices == base, c


class TestAutoDelta:
    def test_identical_end_windows(self):
        x = make_series(np.ones((100, 5)))
        assert auto_delta(x) == 0.0

    def test_fixture_19_8(self):
        # first and last 5% windows differ by exactly 19.8 in sup-norm
        vals = np.zeros((100, 5))
        vals[50:] = 19.8
        x = make_series(vals)
        assert auto_delta(x) == pytest.approx(6.6, abs=1e-12)

    def test_constant_shift(self):
        vals = np.zeros((200, 4))
        vals[100:] = 9.0
        x = make_series(vals)
        assert auto_delta(x) == pytest.approx(3.0, abs=1e-12)

    def test_scaling(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(100, 4))
        vals[50:] += 5.0
        x = make_series(vals)
        lam = 2.5
        x_scaled = make_series(lam * vals)
        assert auto_delta(x_scaled) == pytest.approx(lam * auto_delta(x), rel=1e-12)


def two_jump_series(sizes=(8.1, 2.0), n=120, grid_size=5, seed=9, noise_sd=0.0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(scale=noise_sd, size=(n, grid_size))
    vals[n // 3 :] += sizes[0]
    vals[2 * n // 3 :] += sizes[1]
    return make_series(vals)


class TestRelevantSet:
    def test_no_change_points(self):
        x = make_series(np.zeros((50, 3)) + 1.0)
        cps = ChangePointSet(indices=(), n=50, threshold=1.0)
        rel = relevant_set(x, cps, RelevantChangeConfig(delta=1.0))
        assert rel.indices == (0,)
        assert rel.all_jumps == ()

    def test_plugin_filter(self):
        x = two_jump_series((8.1, 2.0))
        cps = ChangePointSet(indices=(40, 80), n=120, threshold=1.0)
        rel = relevant_set(x, cps, RelevantChangeConfig(delta=6.6))
        assert rel.indices == (0, 1)
        assert rel.all_jumps == pytest.approx((8.1, 2.0), abs=1e-12)

    def test_boundary_jump_excluded(self):
        # strict inequality: a jump exactly equal to delta is not relevant
        x = two_jump_series((3.0, 1.0))
        cps = ChangePointSet(indices=(40, 80), n=120, threshold=1.0)
        rel = relevant_set(x, cps, RelevantChangeConfig(delta=3.0))
        assert rel.indices == (0,)

    def test_monotone_in_delta(self):
        x = two_jump_series((8.1, 2.0), noise_sd=0.2)
        cps = ChangePointSet(indices=(40, 80), n=120, threshold=1.0)
        previous = None
        for delta in (0.5, 2.5, 9.0):
            rel = relevant_set(x, cps, RelevantChangeConfig(delta=delta))
            if previous is not None:
                assert set(rel.indices) <= set(previous)
            previous = rel.indices
        assert 0 in previous

    def test_scaling_leaves_relevance_unchanged(self):
        x = two_jump_series((8.1, 2.0), noise_sd=0.3)
        cps = ChangePointSet(indices=(40, 80), n=120, threshold=1.0)
        lam = 4.0
        x_scaled = make_series(lam * np.asarray(x.values))
        base = relevant_set(x, cps, RelevantChangeConfig(delta=3.0))
        scaled = relevant_set(x_scaled, cps, RelevantChangeConfig(delta=lam * 3.0))
        assert base.indices == scaled.indices
        assert scaled.all_jumps == pytest.approx([lam * jump for jump in base.all_jumps], rel=1e-12)

    def test_bootstrap_calibrated_mode(self):
        x = two_jump_series((8.1, 2.0), noise_sd=0.5, n=180)
        cps = ChangePointSet(indices=(60, 120), n=180, threshold=1.0)
        cfg = RelevantChangeConfig(delta=6.0, beta=0.1, method="bootstrap")
        rel = relevant_set(x, cps, cfg)
        # the large jump clears delta plus the calibrated margin; the small
        # one never does
        assert rel.indices == (0, 1)

    def test_change_points_of_another_series_rejected(self):
        x = two_jump_series((8.1, 2.0))
        cps = ChangePointSet(indices=(40, 80), n=x.n + 1, threshold=1.0)
        with pytest.raises(InvalidInputError, match="change point set was computed for a different series"):
            relevant_set(x, cps, RelevantChangeConfig(delta=3.0))

    @pytest.mark.parametrize("method", ["plugin", "bootstrap"])
    def test_fit_over_other_segments_rejected(self, method):
        # a 4-segment fit with a 1-change set once gave relevant indices
        # (0, 2) and three jumps for m = 1
        x = two_jump_series((8.1, 2.0), noise_sd=0.2)
        cps = ChangePointSet(indices=(40,), n=120, threshold=1.0)
        own = fit_segments(x, cps.segments)
        other_grid = FunctionalTimeSeries(x.values, Grid(np.linspace(0.0, 0.5, len(x.grid))))
        for fit in (fit_segments(x, segments_from_indices(x.n, [30, 40, 80])), fit_segments(other_grid, cps.segments)):
            with pytest.raises(InvalidInputError, match="segment fit is not over the change point set's segments"):
                relevant_set(x, cps, RelevantChangeConfig(delta=3.0, method=method), fit=fit)
        assert relevant_set(x, cps, RelevantChangeConfig(delta=3.0), fit=own) == relevant_set(
            x, cps, RelevantChangeConfig(delta=3.0)
        )

    @pytest.mark.parametrize("method", ["plugin", "bootstrap"])
    def test_fit_of_another_series_rejected(self, method):
        # the fit of another series of the same shape once gave a jump of
        # 0.264 where the fit of x gives 3.204, and relevant indices (0,)
        # for (0, 1), with no error
        rng = np.random.default_rng(0)
        x = make_series(rng.normal(size=(400, 20)) + np.repeat([0.0, 3.0], 200)[:, None])
        x2 = make_series(rng.normal(size=(400, 20)))
        cps = ChangePointSet(indices=(200,), n=400, threshold=1.0)
        cfg = RelevantChangeConfig(delta=1.0, method=method, calibration_replications=200)
        for fit in (fit_segments(x2, cps.segments), fit_segments(make_series(x.values), cps.segments)):
            with pytest.raises(InvalidInputError, match="segment fit is not over the change point set's segments of this series"):
                relevant_set(x, cps, cfg, fit=fit)
        assert relevant_set(x, cps, cfg, fit=fit_segments(x, cps.segments)).indices == (0, 1)

    def test_auto_delta_zero_rejected(self):
        x = make_series(np.ones((60, 3)))
        cps = ChangePointSet(indices=(), n=60, threshold=1.0)
        with pytest.raises(InvalidInputError):
            relevant_set(x, cps, RelevantChangeConfig(delta="auto"))


class TestConfigValidation:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0, "abc", "1.5", True, None])
    def test_bad_threshold_rejected(self, value):
        with pytest.raises(InvalidInputError, match="threshold"):
            SegmentationConfig(threshold=value)

    @pytest.mark.parametrize("value", [float("nan"), float("-inf"), -2.0, 0, "x", [1.0]])
    def test_bad_delta_rejected(self, value):
        with pytest.raises(InvalidInputError, match="delta"):
            RelevantChangeConfig(delta=value)

    def test_unknown_relevant_method_rejected(self):
        with pytest.raises(InvalidInputError, match="method must be 'plugin' or 'bootstrap'"):
            RelevantChangeConfig(method="x")

    def test_numbers_and_auto_accepted(self):
        for value in ("auto", 2, 0.5, np.float64(3.0)):
            SegmentationConfig(threshold=value)
            RelevantChangeConfig(delta=value)


def columns(values):
    """The (T, n + 1) prefix sums P[:, i] = sum_{l<i} x_l of an (n, T) series,
    the array that `_best_split` scans."""
    values = np.asarray(values)
    prefix = np.zeros((values.shape[1], values.shape[0] + 1))
    np.cumsum(values.T, axis=1, out=prefix[:, 1:])
    return prefix


def heap_binseg(values, xi, msl, max_changes):
    """The definition: one best-first heap run per threshold, splitting while
    the popped CUSUM sup exceeds xi."""
    heap = []
    cols = columns(values)

    def push(lo, hi):
        found = _best_split(cols, lo, hi, msl)
        if found is not None:
            stat, j = found
            heapq.heappush(heap, (-stat, j, lo, hi))

    push(0, values.shape[0])
    changes = []
    while heap and len(changes) < max_changes:
        neg_stat, j, lo, hi = heapq.heappop(heap)
        if -neg_stat <= xi:
            break
        changes.append(j)
        push(lo, j)
        push(j, hi)
    return sorted(changes)


def bump_series(n=240, grid_size=4, noise_sd=0.2, seed=12):
    """Mean a on the middle third only: the root's best split (one end of the
    bump) has a smaller statistic than its child's, which holds the whole
    step."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(scale=noise_sd, size=(n, grid_size))
    vals[n // 3 : 2 * n // 3] += 3.0
    return vals


def path_cases():
    rng = np.random.default_rng(21)
    piecewise = rng.normal(size=(300, 5))
    for start, shift in ((50, 1.5), (120, -2.0), (200, 1.0), (260, 3.0)):
        piecewise[start:] += shift
    return {
        "noise": rng.normal(size=(200, 3)),
        "piecewise": piecewise,
        "bump": bump_series(),
        "steps_noise_free": np.repeat(np.arange(6.0)[:, None] * [1.0, 2.0], 30, axis=0),
    }


class TestSplitPath:
    """`_binary_segmentation` over one memoized scan, as `detect_change_points`
    runs it for the pilot and the final threshold."""

    MSL = 10

    def counting_scan(self, values, scanned):
        """The memoized scan, with every interval that reaches `_best_split`
        appended to `scanned`."""
        cols = columns(values)

        def counting(lo, hi):
            scanned.append((lo, hi))
            return _best_split(cols, lo, hi, self.MSL)

        return functools.cache(counting)

    def sweep(self, values):
        """Thresholds at, between and around every statistic the full path
        scans."""
        found = {}
        cols = columns(values)

        def recording(lo, hi):
            found[lo, hi] = _best_split(cols, lo, hi, self.MSL)
            return found[lo, hi]

        _binary_segmentation(recording, values.shape[0], 0.0, values.shape[0])
        stats = sorted(split[0] for split in found.values() if split is not None)
        mids = [(a + b) / 2 for a, b in zip(stats, stats[1:])]
        return sorted({0.0, *stats, *mids, stats[-1] * 2 if stats else 1.0})

    @pytest.mark.parametrize("name", ["noise", "piecewise", "bump", "steps_noise_free"])
    @pytest.mark.parametrize("order", ["increasing", "decreasing"])
    def test_matches_heap_oracle(self, name, order):
        values = path_cases()[name]
        queries = [(xi, cap) for xi in self.sweep(values) for cap in (0, 1, 2, 3, 50)]
        if order == "decreasing":
            queries.reverse()
        scanned = []
        scan = self.counting_scan(values, scanned)
        for xi, cap in queries:
            expected = heap_binseg(values, xi, self.MSL, cap)
            assert _binary_segmentation(scan, values.shape[0], xi, cap) == expected, (xi, cap)
        assert len(set(scanned)) == len(scanned)

    def test_path_is_not_monotone_on_a_bump(self):
        # the second split's statistic exceeds the first's
        values = bump_series()
        n = values.shape[0]
        root_stat, j = _best_split(columns(values), 0, n, self.MSL)
        assert heap_binseg(values, 0.0, self.MSL, 1) == [j]
        (second,) = set(heap_binseg(values, 0.0, self.MSL, 2)) - {j}
        lo, hi = (0, j) if second < j else (j, n)
        child_stat, child_j = _best_split(columns(values), lo, hi, self.MSL)
        assert child_j == second and child_stat > root_stat

    def test_child_scanned_only_when_a_threshold_accepts_its_parent(self):
        values = path_cases()["piecewise"]
        scanned = []
        scan = self.counting_scan(values, scanned)
        assert _binary_segmentation(scan, 300, np.inf, 50) == [] and scanned == [(0, 300)]
        (j,) = _binary_segmentation(scan, 300, 0.0, 1)
        assert scanned == [(0, 300), (0, j), (j, 300)]


def old_best_split(values, lo, hi, msl):
    """The scan as first written, on the (n, T) rows: divide every entry,
    then take row maxima."""
    m = hi - lo
    if m < 2 * msl:
        return None
    cs = np.cumsum(values[lo:hi], axis=0)
    total = cs[-1]
    ks = np.arange(msl, m - msl + 1)
    u = (cs[ks - 1] - np.outer(ks / m, total)) / np.sqrt(m)
    stats = np.abs(u).max(axis=1)
    best = int(np.argmax(stats))
    return float(stats[best]), lo + int(ks[best])


def prefix_best_split(values, lo, hi, msl):
    """The scan's formula without row blocks, on the (n, T) rows: from one
    prefix sum P of the whole series, U_k = P[lo + k] - (P[lo] + (k / m) S_m)
    with S_m = P[hi] - P[lo]; divide every entry, then take row maxima."""
    m = hi - lo
    if m < 2 * msl:
        return None
    prefix = np.zeros((values.shape[0] + 1, values.shape[1]))
    np.cumsum(values, axis=0, out=prefix[1:])
    ks = np.arange(msl, m - msl + 1)
    total = prefix[hi] - prefix[lo]
    u = (prefix[lo + ks] - (prefix[lo] + np.outer(ks / m, total))) / np.sqrt(m)
    stats = np.abs(u).max(axis=1)
    best = int(np.argmax(stats))
    return float(stats[best]), lo + int(ks[best])


class TestBestSplit:
    @pytest.mark.parametrize("seed", range(6))
    def test_fused_scan_is_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(157, 7)) * rng.uniform(1e-3, 1e3)
        cols = columns(values)
        for lo, hi, msl in ((0, 157, 5), (13, 140, 20), (3, 45, 21), (0, 157, 1), (10, 50, 21)):
            assert _best_split(cols, lo, hi, msl) == prefix_best_split(values, lo, hi, msl)

    def test_random_intervals_of_a_larger_series(self):
        rng = np.random.default_rng(30)
        values = rng.normal(size=(3000, 40)) + np.repeat(rng.normal(size=(6, 40)), 500, axis=0)
        cols = columns(values)
        for _ in range(50):
            lo, hi = sorted(int(v) for v in rng.choice(3001, size=2, replace=False))
            msl = int(rng.integers(1, 60))
            assert _best_split(cols, lo, hi, msl) == prefix_best_split(values, lo, hi, msl), (lo, hi, msl)

    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4])
    def test_agrees_with_the_per_interval_cumsum(self, offset):
        # P[lo + k] - P[lo] cancels the sums of the curves before lo, which
        # grow with the offset; the per-interval cumsum never forms them
        rng = np.random.default_rng(33)
        values = rng.normal(size=(3000, 20)) + np.repeat(rng.normal(size=(6, 20)), 500, axis=0)
        values += offset
        cols = columns(values)
        for _ in range(60):
            lo, hi = sorted(int(v) for v in rng.choice(3001, size=2, replace=False))
            msl = int(rng.integers(1, 60))
            found, expected = _best_split(cols, lo, hi, msl), old_best_split(values, lo, hi, msl)
            if expected is None:
                assert found is None
                continue
            assert found[1] == expected[1], (lo, hi, msl)
            assert found[0] == pytest.approx(expected[0], rel=1e-9), (lo, hi, msl)

    def test_ties_take_the_smallest_index(self):
        # a bump of equal steps up and down, at dyadic fractions so both ends
        # give exactly the same statistic
        values = np.zeros((128, 3))
        values[32:96] = 1.0
        stat, j = _best_split(columns(values), 0, 128, 10)
        assert (stat, j) == old_best_split(values, 0, 128, 10)
        assert j == 32
        # integer-valued data with many equal row maxima
        values = np.random.default_rng(3).integers(-2, 3, size=(90, 2)).astype(float)
        for msl in (1, 5, 30):
            assert _best_split(columns(values), 0, 90, msl) == old_best_split(values, 0, 90, msl)


class TestBlockedScan:
    # the scan reads core._BLOCK_ENTRIES // m rows of the (T, n + 1) prefix
    # sums at a time; T = 16 rows are one block up to m = _BLOCK_ENTRIES / 16
    # and two blocks of 15 and 1 rows just above
    T = 16

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "above"])
    def test_block_seams(self, extra):
        m = core._BLOCK_ENTRIES // self.T + extra
        values = np.random.default_rng(extra + 1).normal(size=(m + 10, self.T))
        values[m // 3 :] += np.linspace(-1.0, 1.0, self.T)
        for lo, hi, msl in ((3, m + 3, 40), (10, m + 10, 1)):
            assert _best_split(columns(values), lo, hi, msl) == prefix_best_split(values, lo, hi, msl)

    def test_many_small_blocks(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 150)
        rng = np.random.default_rng(31)
        values = rng.normal(size=(400, 7)) + np.repeat(rng.normal(size=(4, 7)), 100, axis=0)
        cols = columns(values)
        for _ in range(40):
            lo, hi = sorted(int(v) for v in rng.choice(401, size=2, replace=False))
            msl = int(rng.integers(1, 30))
            assert _best_split(cols, lo, hi, msl) == prefix_best_split(values, lo, hi, msl), (lo, hi, msl)

    def test_extra_memory_is_a_few_blocks(self):
        # a whole-interval scan of the prefix sums would hold (T, n)
        # differences and products: about 16 MB at n = 10 000, T = 100
        cols = columns(np.random.default_rng(32).normal(size=(10_000, 100)))
        tracemalloc.start()
        try:
            assert _best_split(cols, 0, 10_000, 100) is not None
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < 2.0

    def test_detection_holds_one_series_sized_array_beside_the_series(self):
        # one (n, T) array at a time beside the series: the pilot's first
        # differences, then the prefix sums while the pilot scans (the final
        # threshold here scans no interval the pilot did not); the rest are
        # block-sized temporaries, among them the pilot LRV's residual rows
        grid_size = 100
        x = jump_series(
            10_000,
            grid_size,
            [(0.25, np.full(grid_size, 0.5)), (0.6, np.linspace(-0.5, 0.5, grid_size))],
            noise_sd=1.0,
            seed=34,
        )
        tracemalloc.start()
        try:
            detect_change_points(x, pilot_out=[])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * x.values.nbytes


class TestScale:
    """A finite series whose sums of squares would overflow is refused
    where it is built, before numpy warns (CI turns RuntimeWarning into an
    error), so every entry point that takes a series is covered."""

    def series(self, scale):
        values = np.random.default_rng(40).normal(size=(400, 20))
        values[200:] += 2.0
        return make_series(scale * values)

    @pytest.mark.parametrize("scale", [1e300, 1e306])
    def test_overflowing_series_is_refused(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="rescale"):
                self.series(scale)

    @pytest.mark.parametrize("entry", ["relevant_set", "estimate_lrv"])
    def test_entry_points_that_skip_detection_are_covered(self, entry):
        # called directly, both once overflowed on a series detection refused
        cps = ChangePointSet(indices=(200,), n=400, threshold=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="rescale"):
                x = self.series(1e300)
                if entry == "relevant_set":
                    relevant_set(x, cps, RelevantChangeConfig(method="bootstrap"))
                else:
                    estimate_lrv(fit_segments(x, cps.segments))

    def test_large_series_finds_the_unscaled_changes(self):
        base = analyze(self.series(1.0), PipelineConfig(replications=200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = analyze(self.series(1e100), PipelineConfig(replications=200))
        assert base.change_points.indices == (200,)
        assert res.change_points.indices == base.change_points.indices
        assert res.relevant.indices == base.relevant.indices


def test_auto_threshold_scans_each_interval_once(monkeypatch):
    # the pilot and the final threshold read one split path, so no interval
    # is scanned twice
    grid_size = 8
    x = jump_series(
        600,
        grid_size,
        [(0.25, np.full(grid_size, 2.0)), (0.5, np.linspace(-2, 2, grid_size)), (0.75, np.full(grid_size, -1.5))],
        noise_sd=1.0,
        seed=8,
    )
    scanned = Counter()

    def counting(cols, lo, hi, msl):
        assert cols.shape == (grid_size, x.n + 1) and cols.flags["C_CONTIGUOUS"]
        scanned[lo, hi] += 1
        return _best_split(cols, lo, hi, msl)

    monkeypatch.setattr(segmentation, "_best_split", counting)
    cps = detect_change_points(x)
    assert cps.m == 3
    assert len(scanned) == 2 * cps.m + 1
    assert max(scanned.values()) == 1


def ma_jump_series(seed, n=400, grid_size=8, theta=-0.6):
    """MA(1) errors e_j = z_j + theta z_{j-1}, a jump of 3 at n/2 and one of
    1.2 at 3n/4 in the first two phases only.  At theta = -0.6 the errors'
    LRV, (1 + theta)^2 = 0.16, lies far below the first-difference proxy,
    1 + theta^2 - theta = 1.96, so the final threshold lies below the
    pilot's: the pilot keeps the jump at n/2 only, and the final threshold
    also keeps the one at 3n/4, which the median over phases of the pilot
    LRV hardly sees."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n + 1, grid_size))
    vals = z[1:] + theta * z[:-1]
    vals[n // 2 :] += 3.0
    vals[3 * n // 4 :, :2] += 1.2
    return make_series(vals)


def test_final_threshold_below_the_pilots_forms_the_prefix_again(monkeypatch):
    # the pilot's prefix sums are dropped before its residuals are formed;
    # the final threshold forms them again for the first interval the pilot
    # never scanned, and scans no interval twice
    x = ma_jump_series(0)
    msl = segmentation._default_msl(x.n)
    pilot = pilot_indices(x)
    scans = []

    def recording(cols, lo, hi, msl):
        scans.append((cols, (lo, hi)))
        return _best_split(cols, lo, hi, msl)

    monkeypatch.setattr(segmentation, "_best_split", recording)
    pilot_out = []
    cps = detect_change_points(x, pilot_out=pilot_out)
    assert pilot == (200,) and cps.indices == (200, 300) and pilot_out == []
    assert cps.indices == tuple(heap_binseg(x.values, cps.threshold, msl, SegmentationConfig().max_changes))
    prefixes = []  # the distinct prefix arrays, in the order they were formed
    for cols, _ in scans:
        if not any(cols is seen for seen in prefixes):
            prefixes.append(cols)
    assert len(prefixes) == 2
    for cols in prefixes:
        assert cols.tobytes() == columns(x.values).tobytes()
    # the pilot's three intervals read the first prefix, the final
    # threshold's two new ones the second
    assert [(interval, cols is prefixes[1]) for cols, interval in scans] == [
        ((0, 400), False),
        ((0, 200), False),
        ((200, 400), False),
        ((200, 300), True),
        ((300, 400), True),
    ]


def test_analyze_reads_the_residuals_of_the_pilots_fit_alone(monkeypatch):
    # the final changes here are the pilot's: the pilot's fit, formed for
    # its LRV, is handed to analyze, and the bootstrap margin, the LRV, the
    # bootstrap and the bands all read that one fit
    grid_size = 8
    x = jump_series(400, grid_size, [(0.5, np.full(grid_size, 3.0))], noise_sd=1.0, seed=4)
    cfg = PipelineConfig(
        relevant=RelevantChangeConfig(delta=2.0, method="bootstrap", calibration_replications=200),
        replications=200,
    )
    formed, read = [], Counter()

    def forming(x, segments):
        formed.append(fit_segments(x, segments))
        return formed[-1]

    def reading(stage):
        def wrapper(fit, *args):
            read[stage, id(fit)] += 1
            return stage(fit, *args)

        return wrapper

    monkeypatch.setattr(segmentation, "fit_segments", forming)
    monkeypatch.setattr(pipeline, "fit_segments", forming)
    for module, name in [
        (segmentation, "estimate_lrv"),
        (segmentation, "bootstrap_margin"),
        (pipeline, "run_bootstrap"),
        (pipeline, "build_bands"),
    ]:
        monkeypatch.setattr(module, name, reading(getattr(module, name)))
    res = analyze(x, cfg)
    assert len(formed) == 1 and formed[0].series is x
    assert {fit for _, fit in read} == {id(formed[0])}
    assert len(read) == 4  # the pilot's LRV, the margin, the bootstrap and the bands
    alone = relevant_set(x, res.change_points, cfg.relevant)
    assert (alone.indices, alone.all_jumps) == (res.relevant.indices, res.relevant.all_jumps)


def test_analyze_forms_the_final_fits_residuals_when_the_pilot_differs(monkeypatch):
    # the pilot's fit goes to analyze only when the final changes are the
    # pilot's; here the final threshold drops one (see ar_jump_series), so
    # analyze forms a fit of its own and estimates the LRV of that fit
    x = ar_jump_series(3)
    formed, estimated = [], []

    def forming(x, segments):
        formed.append(fit_segments(x, segments))
        return formed[-1]

    def counting(fit, cfg=None):
        estimated.append(fit)
        return estimate_lrv(fit, cfg)

    monkeypatch.setattr(segmentation, "fit_segments", forming)
    monkeypatch.setattr(pipeline, "fit_segments", forming)
    monkeypatch.setattr(segmentation, "estimate_lrv", counting)
    monkeypatch.setattr(pipeline, "estimate_lrv", counting)
    res = analyze(x, PipelineConfig(replications=200))
    assert len(formed) == 2 and formed[0].segments != formed[1].segments
    assert list(formed[1].segments) == res.change_points.segments
    assert estimated == formed


def ar_jump_series(seed, n=300, grid_size=6, rho=0.6, jump=3.0):
    """AR(1) errors with one jump at n/2.  The pilot's first-difference
    proxy underestimates the long-run variance of such errors, so the pilot
    threshold may keep a change that the final threshold drops."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, grid_size))
    vals = np.empty_like(z)
    vals[0] = z[0]
    for j in range(1, n):
        vals[j] = rho * vals[j - 1] + z[j]
    vals[n // 2 :] += jump
    return make_series(vals)


def pilot_indices(x):
    """The changes that the auto threshold's pilot keeps, at the defaults."""
    scan, drop_prefix = segmentation._interval_scan(x.values, segmentation._default_msl(x.n))
    return tuple(segmentation._auto_threshold(x, scan, drop_prefix, SegmentationConfig().max_changes)[1])


@pytest.mark.parametrize(
    "seed, cfg",
    [(0, SegmentationConfig(threshold=5.0)), (3, SegmentationConfig())],
    ids=["fixed_threshold", "pilot_differs"],
)
def test_pilot_out_stays_empty_without_the_pilots_changes(seed, cfg):
    x = ar_jump_series(seed)
    pilot = []
    detect_change_points(x, cfg, pilot_out=pilot)
    assert pilot == []


def test_pilot_out_holds_the_pilots_fit_residuals_and_lrv():
    # the final changes here are the pilot's; what the list holds, and the
    # residuals of its fit, must be what analyze would otherwise form
    # itself, bit for bit
    x = ar_jump_series(0)
    pilot = []
    cps = detect_change_points(x, pilot_out=pilot)
    assert pilot_indices(x) == cps.indices
    fit, lrv = pilot
    fresh = fit_segments(x, cps.segments)
    fresh_lrv = estimate_lrv(fresh)
    assert fit.series is x and fit.segments == fresh.segments
    assert fit.means.tobytes() == fresh.means.tobytes()
    assert fit.rows(0, x.n).tobytes() == fresh.rows(0, x.n).tobytes()
    assert lrv.sigma2.values.tobytes() == fresh_lrv.sigma2.values.tobytes()
    assert lrv.bandwidth == fresh_lrv.bandwidth


@pytest.mark.parametrize(
    "seed, cfg, calls",
    [
        (0, PipelineConfig(replications=200), 1),
        (0, PipelineConfig(lrv=LrvConfig(kernel="flat_top"), replications=200), 2),
        (0, PipelineConfig(segmentation=SegmentationConfig(threshold=5.0), replications=200), 1),
        (3, PipelineConfig(replications=200), 2),
    ],
    ids=["auto", "flat_top", "fixed_threshold", "pilot_differs"],
)
def test_analyze_estimates_the_lrv_once_when_the_pilot_fit_is_final(monkeypatch, seed, cfg, calls):
    # the auto threshold's pilot estimates the default-config LRV; analyze
    # reuses it only when the final changes are the pilot's and it asks for
    # the default config
    x = ar_jump_series(seed)
    differs = seed == 3
    assert (pilot_indices(x) != detect_change_points(x).indices) == differs
    counted = []

    def counting(y, cfg=None):
        counted.append(cfg)
        return estimate_lrv(y, cfg)

    monkeypatch.setattr(pipeline, "estimate_lrv", counting)
    monkeypatch.setattr(segmentation, "estimate_lrv", counting)
    res = analyze(x, cfg)
    assert len(counted) == calls
    fit = fit_segments(x, res.change_points.segments)
    fresh = estimate_lrv(fit, cfg.lrv)
    assert res.lrv.sigma2.values.tobytes() == fresh.sigma2.values.tobytes()
    assert res.lrv.bandwidth == fresh.bandwidth


def test_analysis_result_holds_no_series_sized_array():
    # the result is kept by callers (the bench holds the previous one), so
    # no (n, T) matrix such as the pilot's residuals may ride along on it
    x = ar_jump_series(0)
    res = analyze(x, PipelineConfig(replications=200))
    seen, arrays = set(), []

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                walk(item)
        elif isinstance(obj, dict):
            for key, item in obj.items():
                walk(key)
                walk(item)

    walk(res)
    assert any(a is res.lrv.sigma2.values for a in arrays)
    assert arrays and all(a.ndim == 0 or a.shape[0] != x.n for a in arrays)


@pytest.mark.parametrize("method", ["plugin", "bootstrap"])
def test_analyze_holds_one_series_sized_array_beside_the_series(method):
    # detection holds one (n, T) array at a time beside the series (see
    # test_detection_holds_one_series_sized_array_beside_the_series); the
    # relevant filter's margin, the LRV and the bootstrap form the residual
    # rows they read a block at a time, so no (n, T) residual matrix joins
    # it.  The series exists before tracing starts.
    spec = ScenarioSpec(
        n=10_000,
        grid_size=100,
        means=[0.0, {"kind": "constant", "value": 3.0}, {"kind": "constant", "value": 0.5}],
        change_locations=[0.3, 0.7],
        error_process="ar1",
        error_param=0.4,
        rng_seed=6,
    )
    x, _ = generate(spec)
    cfg = PipelineConfig(relevant=RelevantChangeConfig(delta=2.0, method=method))
    tracemalloc.start()
    try:
        res = analyze(x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.change_points.m == 2
    assert peak <= 1.15 * x.values.nbytes


def test_results_do_not_depend_on_the_input_layout():
    # numpy reduces C- and Fortran-ordered arrays in different orders, so the
    # series is stored C-ordered whatever layout it is given in
    rng = np.random.default_rng(1)
    values = rng.normal(size=(400, 50))
    values[200:] += 3.0
    cfg = PipelineConfig(relevant=RelevantChangeConfig(delta=2.0), replications=500)
    c_res = analyze(make_series(values), cfg)
    f_res = analyze(make_series(np.asfortranarray(values)), cfg)
    assert c_res.bands.quantile.hex() == f_res.bands.quantile.hex()
    assert c_res.lrv.sigma2.values.tobytes() == f_res.lrv.sigma2.values.tobytes()
    assert len(c_res.bands.bands) == len(f_res.bands.bands)
    for c_band, f_band in zip(c_res.bands.bands, f_res.bands.bands):
        for side in ("lower", "center", "upper"):
            c_vals, f_vals = getattr(c_band, side).values, getattr(f_band, side).values
            assert c_vals.tobytes() == f_vals.tobytes(), (c_band.index, side)
