import dataclasses
import math
import multiprocessing
import os
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from fdabands import (
    BootstrapConfig,
    Curve,
    FunctionalTimeSeries,
    Grid,
    InvalidInputError,
    LrvConfig,
    PipelineConfig,
    RelevantChangeConfig,
    ScenarioSpec,
    Segment,
    analyze,
    auto_block_length,
    estimate_lrv,
    fit_segments,
    generate,
    run_bootstrap,
    segments_from_locations,
)
import fdabands.bootstrap as bootstrap
import fdabands.core as core
import fdabands.pipeline as pipeline
from fdabands.bootstrap import (
    _block_averages,
    _draw_sups,
    _empirical_quantile,
    _segment_grams,
    _sqrt_factor,
    bootstrap_margin,
)
from oracles import block_averages_by_index, bootstrap_segment_mean, zero_mean_fit


def make_series(values):
    values = np.asarray(values, dtype=float)
    return FunctionalTimeSeries(values, Grid.uniform(values.shape[1]))


def two_segment_series():
    values = np.random.default_rng(34).normal(size=(200, 10))
    return make_series(values + np.repeat([0.0, 5.0], 100)[:, None])


def unit_sigma2(grid):
    return Curve(np.ones(len(grid)), grid)


class TestBootstrapSegmentMean:
    def test_zero_multipliers(self):
        rng = np.random.default_rng(2)
        y = zero_mean_fit(rng.normal(size=(12, 3)))
        out = bootstrap_segment_mean(y, Segment(0, 12), L=3, multipliers=np.zeros(12))
        assert np.array_equal(out.values, np.zeros(3))

    def test_L1_matches_direct_loop(self):
        rng = np.random.default_rng(3)
        yv = rng.normal(size=(9, 4))
        nu = rng.normal(size=9)
        y = zero_mean_fit(yv)
        out = bootstrap_segment_mean(y, Segment(0, 9), L=1, multipliers=nu)
        expected = np.zeros(4)
        for j in range(9):
            expected += nu[j] * yv[j]
        expected /= 9
        assert np.allclose(out.values, expected, atol=1e-14)

    def test_zero_residuals(self):
        y = zero_mean_fit(np.zeros((10, 2)))
        nu = np.random.default_rng(4).normal(size=10)
        out = bootstrap_segment_mean(y, Segment(0, 10), L=2, multipliers=nu)
        assert np.array_equal(out.values, np.zeros(2))

    def test_block_truncation_rescaling(self):
        # the last block has only one available index; its sum is rescaled by
        # sqrt(1) instead of sqrt(L)
        yv = np.arange(8.0).reshape(4, 2)
        y = zero_mean_fit(yv)
        nu = np.array([0.0, 0.0, 0.0, 1.0])
        out = bootstrap_segment_mean(y, Segment(0, 4), L=2, multipliers=nu)
        assert np.allclose(out.values, yv[3] / 4.0)

    def test_block_longer_than_segment(self):
        y = zero_mean_fit(np.zeros((6, 2)))
        with pytest.raises(InvalidInputError):
            bootstrap_segment_mean(y, Segment(0, 3), L=4, multipliers=np.zeros(3))


def margin_series(resid, left, right):
    """A zero-mean fit whose residual rows are `resid`, with the adjacent
    segments `left` and `right`, padded by a segment on either side where they leave
    rows, and the index of the change between them."""
    bounds = sorted({0, left.start, right.start, right.end, len(resid)})
    segments = [Segment(a, b) for a, b in zip(bounds, bounds[1:])]
    return zero_mean_fit(resid, segments), segments.index(right)


def joined_block_averages(y_values, L, stop=None):
    """The row blocks that `_block_averages` yields for the residual rows
    `y_values`, joined into one array, after checking that they follow one
    another from row 0."""
    n = len(y_values)
    parts, start = [], 0
    for a, block in _block_averages(zero_mean_fit(y_values), L, Segment(0, n), n if stop is None else stop):
        assert a == start
        parts.append(block.copy())  # the next block overwrites this one
        start += len(block)
    return np.concatenate(parts)


class TestBlockAverages:
    @pytest.mark.parametrize("n, L", [(9, 1), (9, 9), (9, 4), (50, 7), (1, 1)], ids=["L=1", "L=n", "L<n", "long", "n=1"])
    def test_matches_index_formula(self, n, L):
        yv = np.random.default_rng(n + L).normal(size=(n, 3))
        assert np.array_equal(joined_block_averages(yv, L), block_averages_by_index(yv, L))

    @pytest.mark.parametrize("L", [1, 7, 1400, 3000])
    def test_matches_index_formula_across_blocks(self, L):
        # 1310 rows of 50 per block: n = 3000 takes three blocks, and L = 1400
        # needs prefix sums from beyond the next block
        yv = np.random.default_rng(L).normal(size=(3000, 50))
        expected = block_averages_by_index(yv, L)
        assert joined_block_averages(yv, L).tobytes() == expected.tobytes()
        for stop in (1, 1310, 1311, 3000 - L + 1, 3000 - L // 2, 2999):
            assert joined_block_averages(yv, L, stop).tobytes() == expected[:stop].tobytes(), stop

    def test_many_small_blocks(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_ENTRIES", 12)
        rng = np.random.default_rng(11)
        for n, T, L in ((40, 3, 1), (40, 3, 5), (41, 5, 17), (9, 2, 9), (1, 4, 1)):
            yv = rng.normal(size=(n, T))
            expected = block_averages_by_index(yv, L)
            for stop in range(1, n + 1):
                assert joined_block_averages(yv, L, stop).tobytes() == expected[:stop].tobytes(), (n, T, L, stop)

    def test_reads_the_series_only_up_to_the_last_block_needed(self):
        # block averages before `stop` read Y up to row stop + L - 2 only
        yv = np.random.default_rng(12).normal(size=(3000, 50))
        cut = yv.copy()
        cut[1000 + 6 :] = np.random.default_rng(13).normal(size=(3000 - 1006, 50))
        assert joined_block_averages(cut, 7, 1000).tobytes() == joined_block_averages(yv, 7, 1000).tobytes()


def assert_close_gram(gram, expected):
    assert np.allclose(gram, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


class TestSegmentGrams:
    """Each segment's Gram matrix, summed over the row blocks of the block
    averages, is B_i^T B_i of the index formula's block averages to rounding."""

    @pytest.mark.parametrize("entries", [None, 12], ids=["default_blocks", "many_blocks"])
    def test_matches_index_formula(self, monkeypatch, entries):
        if entries is not None:
            # 12 // 5 = 2 rows of 5 per block: odd segment edges straddle blocks
            monkeypatch.setattr(core, "_BLOCK_ENTRIES", entries)
        yv = np.random.default_rng(37).normal(size=(41, 5))
        for L in (1, 3, 5):
            expected = block_averages_by_index(yv, L)
            for segs in (
                [Segment(0, 41)],
                [Segment(0, 17), Segment(17, 41)],
                [Segment(5, 10), Segment(23, 34)],  # stop = 34 < n, rows 0-4 unused
                [Segment(23, 34), Segment(3, 23)],  # any order
            ):
                grams = _segment_grams(zero_mean_fit(yv), L, Segment(0, 41), segs)
                assert grams.shape == (len(segs), 5, 5)
                for gram, seg in zip(grams, segs):
                    rows = expected[seg.start : seg.end]
                    assert_close_gram(gram, rows.T @ rows)

    def test_segments_across_default_blocks(self):
        # 1310 rows of 50 per block; the segments straddle the block edges at
        # 1310 and 2620, and the last ends before the truncated blocks
        yv = np.random.default_rng(38).normal(size=(3000, 50))
        segs = [Segment(0, 1000), Segment(1000, 2700), Segment(2700, 2990)]
        expected = block_averages_by_index(yv, 7)
        for gram, seg in zip(_segment_grams(zero_mean_fit(yv), 7, Segment(0, 3000), segs), segs):
            rows = expected[seg.start : seg.end]
            assert_close_gram(gram, rows.T @ rows)

    @pytest.mark.parametrize("entries", [None, 12], ids=["default_blocks", "many_blocks"])
    def test_margin_gram_of_the_two_segment_window(self, monkeypatch, entries):
        # G_l / n_l^2 + G_r / n_r^2 is the Gram matrix of
        # [-B_l / n_l; B_r / n_r], the block averages of the two segments'
        # window alone
        if entries is not None:
            monkeypatch.setattr(core, "_BLOCK_ENTRIES", entries)
        resid = np.random.default_rng(39).normal(size=(90, 4))
        left, right = Segment(11, 40), Segment(40, 77)
        seen = []
        factor = bootstrap._sqrt_factor

        def recording(gram, scale=1.0):
            seen.append(gram)
            return factor(gram, scale)

        monkeypatch.setattr(bootstrap, "_sqrt_factor", recording)
        bootstrap_margin(*margin_series(resid, left, right), 0.1, 50, 0)
        B = block_averages_by_index(resid[left.start : right.end], auto_block_length(min(left.length, right.length)))
        diff = np.vstack([-B[: left.length] / left.length, B[left.length :] / right.length])
        (gram,) = seen
        assert_close_gram(gram, diff.T @ diff)


class TestAutoBlockLength:
    def test_values(self):
        assert auto_block_length(8) == 2
        assert auto_block_length(1000) == 10
        assert auto_block_length(610) == 8  # floor(610^(1/3)) by hand
        assert auto_block_length(2) == 1

    def test_too_small(self):
        with pytest.raises(InvalidInputError):
            auto_block_length(1)


def residuals_fixture(n=80, grid_size=6, seed=5, changes=(0.5,)):
    rng = np.random.default_rng(seed)
    x = make_series(rng.normal(size=(n, grid_size)))
    segs = segments_from_locations(n, list(changes))
    y = fit_segments(x, segs)
    sigma2 = estimate_lrv(y, LrvConfig(bandwidth=2)).sigma2
    return x, segs, y, sigma2


class TestRunBootstrap:
    def test_degenerate_residuals(self):
        y = zero_mean_fit(np.zeros((40, 3)))
        segs = segments_from_locations(40, [])
        res = run_bootstrap(y, range(len(segs)), unit_sigma2(y.grid), BootstrapConfig(replications=200))
        assert np.array_equal(res.statistics, np.zeros(200))
        assert res.quantile == 0.0

    def test_determinism(self):
        _, segs, y, sigma2 = residuals_fixture()
        cfg = BootstrapConfig(replications=300, rng_seed=17)
        a = run_bootstrap(y, range(len(segs)), sigma2, cfg)
        b = run_bootstrap(y, range(len(segs)), sigma2, cfg)
        assert np.array_equal(a.statistics, b.statistics)
        assert a.quantile == b.quantile

    def test_quantile_continuous_in_sigma2(self):
        # The simulator's innovations span N_BASIS = 20 cosines, so at T = 60
        # every block matrix has numerical rank about 20: factoring it after
        # dividing it by sigma_hat let a last-bit change in sigma_hat turn r;
        # on this input q moved by 0.6%.
        spec = ScenarioSpec(n=400, grid_size=60, error_process="ar1", error_param=0.4, rng_seed=5)
        x, _ = generate(spec)
        segs = segments_from_locations(x.n, [])
        y = fit_segments(x, segs)
        sigma2 = estimate_lrv(y).sigma2
        wiggle = 1.0 + 1e-15 * np.random.default_rng(6).choice([-1.0, 1.0], size=len(sigma2.grid))
        cfg = BootstrapConfig(replications=500, rng_seed=7)
        q = run_bootstrap(y, range(len(segs)), sigma2, cfg).quantile
        q_wiggled = run_bootstrap(y, range(len(segs)), Curve(sigma2.values * wiggle, sigma2.grid), cfg).quantile
        assert abs(q_wiggled - q) / q < 1e-12

    def test_quantile_continuous_in_residuals(self):
        # The simulator's innovations span N_BASIS = 20 cosines, so at T = 40
        # the block matrices are nearly rank-deficient: a QR factor turned
        # with last-bit changes of the residuals and moved q by 1% here.
        spec = ScenarioSpec(n=200, grid_size=40, error_process="ar1", error_param=0.4, rng_seed=3)
        x, _ = generate(spec)
        segs = segments_from_locations(x.n, [0.5])
        y = fit_segments(x, segs)
        sigma2 = estimate_lrv(y).sigma2
        cfg = BootstrapConfig(replications=500, rng_seed=7)
        q = run_bootstrap(y, range(len(segs)), sigma2, cfg).quantile
        for seed in range(3):
            noise = 1.0 + 1e-14 * np.random.default_rng(seed).standard_normal((y.n, len(y.grid)))
            y_noisy = zero_mean_fit(y.rows(0, y.n) * noise, segs)
            assert abs(run_bootstrap(y_noisy, range(len(segs)), sigma2, cfg).quantile - q) / q < 1e-6

    def test_quantile_monotone_in_alpha(self):
        _, segs, y, sigma2 = residuals_fixture()
        base = BootstrapConfig(replications=500, rng_seed=3)
        qs = [
            run_bootstrap(y, range(len(segs)), sigma2, dataclasses.replace(base, alpha=a)).quantile
            for a in (0.2, 0.1, 0.05)
        ]
        assert qs[0] <= qs[1] <= qs[2]

    def test_scale_equivariance_replicatewise(self):
        # scaling the data by lambda cancels in mu*/sigma, replicate by replicate
        x, segs, y, sigma2 = residuals_fixture()
        cfg = BootstrapConfig(replications=250, rng_seed=9)
        base = run_bootstrap(y, range(len(segs)), sigma2, cfg)
        lam = 3.7
        x2 = make_series(lam * np.array(x.values))
        y2 = fit_segments(x2, segs)
        sigma2_scaled = estimate_lrv(y2, LrvConfig(bandwidth=2)).sigma2
        scaled = run_bootstrap(y2, range(len(segs)), sigma2_scaled, cfg)
        assert np.allclose(scaled.statistics, base.statistics, rtol=1e-10)

    def test_constant_shift_invariance(self):
        # adding a constant curve to every observation of one segment leaves
        # the residuals, hence the replicates, unchanged
        x, segs, y, sigma2 = residuals_fixture()
        cfg = BootstrapConfig(replications=250, rng_seed=11)
        base = run_bootstrap(y, range(len(segs)), sigma2, cfg)
        shifted_vals = np.array(x.values)
        shifted_vals[segs[1].start : segs[1].end] += 42.0
        x2 = make_series(shifted_vals)
        y2 = fit_segments(x2, segs)
        assert np.allclose(y2.rows(0, y2.n), y.rows(0, y.n), atol=1e-12)
        again = run_bootstrap(y2, range(len(segs)), sigma2, cfg)
        assert np.allclose(again.statistics, base.statistics, rtol=1e-12)

    def test_replication_validation(self):
        _, segs, y, sigma2 = residuals_fixture()
        with pytest.raises(InvalidInputError):
            run_bootstrap(y, range(len(segs)), sigma2, BootstrapConfig(replications=0))
        with pytest.warns(UserWarning, match="quantile unstable"):
            run_bootstrap(y, range(len(segs)), sigma2, BootstrapConfig(replications=50))

    def test_block_length_bounds(self):
        _, segs, y, sigma2 = residuals_fixture()
        n_min = min(s.length for s in segs)
        with pytest.raises(InvalidInputError):
            run_bootstrap(y, range(len(segs)), sigma2, BootstrapConfig(block_length=n_min + 1, replications=100))

    def test_empty_segments_rejected(self):
        _, _, y, sigma2 = residuals_fixture()
        with pytest.raises(InvalidInputError):
            run_bootstrap(y, [], sigma2, BootstrapConfig(replications=100))

    def test_segment_past_the_series_end_rejected(self):
        # segment [20, 60) of a 40-row series once warned from a sqrt and
        # then failed to broadcast; the bootstrap reads its segments off its
        # fit, and a fit past the series' end is refused where it is built
        values = np.random.default_rng(46).normal(size=(40, 3))
        with pytest.raises(InvalidInputError, match=r"do not partition \[0, n\) in order, n = 40"):
            zero_mean_fit(values, [Segment(0, 20), Segment(20, 60)])
        y = zero_mean_fit(values, [Segment(0, 20), Segment(20, 40)])
        for indices in ([0, 2], [-1], [Segment(0, 20), Segment(20, 60)]):
            with pytest.raises(InvalidInputError, match=r"must be one or more integers in 0\.\.1"):
                run_bootstrap(y, indices, unit_sigma2(y.grid), BootstrapConfig(replications=200))

    @pytest.mark.parametrize(
        "indices", [[1, 1], [1, 0], [True]], ids=["repeated", "decreasing", "bool"]
    )
    def test_indices_that_are_no_relevant_set_rejected(self, indices):
        # [1, 1] once drew T* over two independent draws of one segment,
        # [1, 0] gave another q than [0, 1], and [True] read segment 1
        _, _, y, sigma2 = residuals_fixture()
        with pytest.raises(InvalidInputError, match=r"must be one or more integers in 0\.\.1, strictly increasing"):
            run_bootstrap(y, indices, sigma2, BootstrapConfig(replications=200))

    def test_margin_segment_past_the_series_end_rejected(self):
        # the margin once scaled the 20 rows of [20, 40) as if [20, 60) held
        # 40; it reads its two segments off the fit, and takes only a change
        # of it
        values = np.random.default_rng(46).normal(size=(40, 3))
        with pytest.raises(InvalidInputError, match=r"do not partition \[0, n\) in order, n = 40"):
            zero_mean_fit(values, [Segment(0, 20), Segment(20, 60)])
        y = zero_mean_fit(values, [Segment(0, 20), Segment(20, 40)])
        for pair in (0, 2):
            with pytest.raises(InvalidInputError, match=r"not one of the fit's changes 1\.\.1"):
                bootstrap_margin(y, pair, 0.1, 200, 0)

    @pytest.mark.parametrize(
        "grid", [Grid(np.linspace(0.0, 0.5, 6)), Grid.uniform(7)], ids=["same_size", "other_size"]
    )
    def test_sigma2_on_another_grid_rejected(self, grid):
        # one of the same size was once taken; one of another size failed to
        # broadcast
        _, segs, y, _ = residuals_fixture()
        with pytest.raises(InvalidInputError, match="segment means and sigma\\^2 are on different grids"):
            run_bootstrap(y, range(len(segs)), unit_sigma2(grid), BootstrapConfig(replications=200))

    @pytest.mark.parametrize("alpha, R", [(0.059, 2000), (0.059, 1000), (0.059, 4000), (0.1, 2000)])
    def test_quantile_reads_the_smallest_rank_at_or_above_the_level(self, alpha, R):
        # the rank is the smallest k >= (1 - alpha) * R in exact decimals; in
        # floats (1 - 0.059) * 2000 is 1882.0000000000002, which a ceil reads
        # as rank 1883, whose value has an empirical CDF above 0.941
        values = np.random.default_rng(R).permutation(np.arange(float(R)))
        rank = math.ceil((1 - Fraction(str(alpha))) * R)
        assert _empirical_quantile(values, 1.0 - alpha) == rank - 1

    def test_analyze_reads_the_rank_of_its_level(self):
        # analyze reads T* at level 1 - alpha / 2 = 0.941: rank 1882 of 2000
        res = analyze(two_segment_series(), PipelineConfig(alpha=0.118))
        assert res.bootstrap.quantile == np.sort(res.bootstrap.statistics)[1881]


def basis_rows(y, seg, L, scale=1.0):
    """Row j: scale * bootstrap_segment_mean under the multiplier nu = e_j, so
    nu @ rows is the definitional bootstrap mean for any nu."""
    return np.array(
        [scale * bootstrap_segment_mean(y, seg, L, e).values for e in np.eye(seg.length)]
    )


def margin_rows(resid, left, right):
    """Definitional stacked matrix of the margin's bootstrap jump difference
    mu_right* - mu_left*, over the residuals of the two segments only."""
    y = zero_mean_fit(resid[left.start : right.end])
    L = auto_block_length(min(left.length, right.length))
    lo, mid, hi = 0, left.length, left.length + right.length
    return np.vstack([-basis_rows(y, Segment(lo, mid), L), basis_rows(y, Segment(mid, hi), L)])


def assert_same_covariance(r, rows):
    sigma = rows.T @ rows  # sum_j b_j b_j^T
    if not sigma.any():
        assert not r.any()
        return
    assert np.allclose(r.T @ r, sigma, rtol=1e-12, atol=1e-12 * np.abs(sigma).max())


class TestGaussianDraws:
    """The draws' covariance r^T r equals the definitional bootstrap covariance
    built from bootstrap_segment_mean at the basis multipliers."""

    @pytest.mark.parametrize(
        "n, grid_size, seg, L, zero",
        [
            (90, 6, Segment(30, 90), 3, False),  # n_i > T, blocks truncated at the end
            (12, 9, Segment(4, 8), 2, False),  # n_i < T: rank-deficient
            (40, 5, Segment(0, 40), 3, True),  # all-zero residuals
        ],
        ids=["long_segment", "rank_deficient", "zero_residuals"],
    )
    def test_factor_matches_segment_mean_oracle(self, n, grid_size, seg, L, zero):
        rng = np.random.default_rng(31)
        values = np.zeros((n, grid_size)) if zero else rng.normal(size=(n, grid_size))
        y = zero_mean_fit(values)
        sigma = np.sqrt(rng.uniform(0.5, 2.0, size=grid_size))
        # the Gram matrix and column scale run_bootstrap draws this segment from
        (gram,) = _segment_grams(y, L, Segment(0, n), [seg])
        r = _sqrt_factor(gram, np.sqrt(seg.length) * sigma)
        assert r.shape == (grid_size, grid_size)
        assert_same_covariance(r, basis_rows(y, seg, L, np.sqrt(seg.length) / sigma))

    def test_run_bootstrap_factors_read_whole_segments(self, monkeypatch):
        # run_bootstrap forms the block averages only up to the last
        # segment's end; each factor's Gram matrix still sums all of its
        # segment's rows
        n, grid_size, L = 120, 4, 5
        segs = [Segment(0, 40), Segment(40, 90)]
        y = zero_mean_fit(np.random.default_rng(33).normal(size=(n, grid_size)), [*segs, Segment(90, n)])
        seen = []
        factor = bootstrap._sqrt_factor

        def recording(gram, scale=1.0):
            seen.append(gram)
            return factor(gram, scale)

        monkeypatch.setattr(bootstrap, "_sqrt_factor", recording)
        run_bootstrap(y, [0, 1], unit_sigma2(y.grid), BootstrapConfig(block_length=L, replications=100))
        full = block_averages_by_index(y.rows(0, n), L)
        expected = [full[seg.start : seg.end].T @ full[seg.start : seg.end] for seg in segs]
        # the caller and a pool worker may factorize in either order
        assert len(seen) == len(expected)
        for gram in expected:
            assert sum(np.allclose(g, gram, rtol=1e-12, atol=1e-12 * np.abs(gram).max()) for g in seen) == 1

    @pytest.mark.parametrize(
        "left, right",
        [(Segment(10, 40), Segment(40, 60)), (Segment(0, 3), Segment(3, 6))],
        ids=["long_segments", "rank_deficient"],
    )
    def test_margin_matrix_matches_two_segment_difference(self, monkeypatch, left, right):
        resid = np.random.default_rng(32).normal(size=(70, 8))
        seen = []

        def record(factors, replications, seed, keys, pool):
            seen.extend(factors)
            return _draw_sups(factors, replications, seed, keys, pool)

        monkeypatch.setattr(bootstrap, "_draw_sups", record)
        bootstrap_margin(*margin_series(resid, left, right), 0.1, 50, 0)
        (r,) = seen
        assert_same_covariance(r, margin_rows(resid, left, right))


def substream_sups(r, replications, seed, key):
    """The row-block draws by hand: block b's rows from SeedSequence(seed,
    spawn_key=(*key, b)), drawn and multiplied in chunks of
    `core.row_blocks` rows."""
    blocks = bootstrap.DRAW_BLOCKS
    rows = []
    for b in range(blocks):
        lo, hi = b * replications // blocks, (b + 1) * replications // blocks
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(*key, b))))
        for a, c in core.row_blocks(hi - lo, r.shape[0]):
            rows.append(np.abs(rng.standard_normal((c - a, r.shape[0])) @ r).max(axis=1))
    return np.concatenate(rows)


def _in_child(queue, one_cpu, target):
    if one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    queue.put(target())


def run_in_forked_child(target, one_cpu):
    """target() run in a forked child, on one CPU if `one_cpu`."""
    if one_cpu and not hasattr(os, "sched_setaffinity"):
        pytest.skip("no sched_setaffinity")
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_in_child, args=(queue, one_cpu, target))
    child.start()
    try:
        result = queue.get(timeout=60)
        child.join(timeout=30)
        assert not child.is_alive()
    finally:
        child.kill()
    return result


def on_main_thread():
    return threading.current_thread() is threading.main_thread()


class TestDrawBlocks:
    """Each (segment or pair, row block) has its own substream, so the draws
    do not depend on which thread runs a block, or on how many there are."""

    def test_blocks_come_from_their_substreams(self):
        rng = np.random.default_rng(33)
        factors = [rng.normal(size=(5, 5)), rng.normal(size=(5, 5))]
        keys = [(0, 0), (1, 3)]
        out = _draw_sups(factors, 101, 9, keys, None)
        assert out.shape == (2, 101)
        assert bootstrap.RNG_ALGORITHM == "sfc64"  # the generator substream_sups builds
        for r, key, row in zip(factors, keys, out):
            assert np.array_equal(row, substream_sups(r, 101, 9, key))

    def test_results_independent_of_worker_count(self, monkeypatch):
        # inline the caller runs every factor and block; with a pool it runs
        # one share of run_bootstrap's two factors and of every call's
        # blocks, and a pool worker runs the other
        _, segs, y, sigma2 = residuals_fixture()
        cfg = BootstrapConfig(replications=301, rng_seed=4)
        blocks_on_main, factors_on_main = [], []
        fill, factor = bootstrap._fill_block, bootstrap._sqrt_factor

        def record_block(*args):
            blocks_on_main.append(on_main_thread())
            fill(*args)

        def record_factor(*args):
            factors_on_main.append(on_main_thread())
            return factor(*args)

        monkeypatch.setattr(bootstrap, "_fill_block", record_block)
        results = []
        for workers in ("default", 1, 2, "inline"):
            pool = ThreadPoolExecutor(workers) if isinstance(workers, int) else None
            if workers != "default":
                monkeypatch.setattr(bootstrap, "_executor", lambda: pool)
            threaded = bootstrap._executor() is not None
            blocks_on_main.clear()
            factors_on_main.clear()
            try:
                with monkeypatch.context() as m:
                    m.setattr(bootstrap, "_sqrt_factor", record_factor)
                    res = run_bootstrap(y, range(len(segs)), sigma2, cfg)
                margin = bootstrap_margin(y, 1, 0.1, 301, 4)
            finally:
                if pool is not None:
                    pool.shutdown()
            assert len(blocks_on_main) == 3 * bootstrap.DRAW_BLOCKS
            assert len(factors_on_main) == len(segs)
            shared = {True, False} if threaded else {True}
            assert set(blocks_on_main) == set(factors_on_main) == shared
            results.append((res.statistics.tobytes(), margin))
        assert results[1:] == results[:-1]

    @pytest.mark.parametrize("key", [(0, 0, 1), (0, 0, 0)], ids=["caller", "worker"])
    def test_failed_block_is_raised_after_every_share_ends(self, monkeypatch, key):
        # the shares are block-major: every segment's block 1 is the caller's
        # share and every segment's block 0 the worker's
        _, segs, y, sigma2 = residuals_fixture()
        cfg = BootstrapConfig(replications=301, rng_seed=4)
        expected = run_bootstrap(y, range(len(segs)), sigma2, cfg).statistics.tobytes()
        fill = bootstrap._fill_block
        running, failed_on_main = [], []
        other_share_started = threading.Event()

        def failing(r, seed, block_key, out, scratch):
            if block_key == key:
                failed_on_main.append(on_main_thread())
                # fail while the other share is drawing
                assert other_share_started.wait(timeout=10)
                raise RuntimeError("block failed")
            running.append(block_key)
            other_share_started.set()
            time.sleep(0.05)
            fill(r, seed, block_key, out, scratch)
            running.remove(block_key)

        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(bootstrap, "_executor", lambda: pool)
        try:
            with monkeypatch.context() as m:
                m.setattr(bootstrap, "_fill_block", failing)
                with pytest.raises(RuntimeError, match="block failed"):
                    run_bootstrap(y, range(len(segs)), sigma2, cfg)
            assert failed_on_main == [key[2] == 1]
            assert not running  # no block still writes into the discarded array
            assert run_bootstrap(y, range(len(segs)), sigma2, cfg).statistics.tobytes() == expected
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_draws_hold_one_scratch_pair_per_share(self, monkeypatch, cpus):
        # 3 factors at R = 2000, T = 100: each 1000-row block is drawn in
        # chunks of 655 rows, and one (z, w) pair of chunks is 1.05 MB (a
        # pair of whole blocks would be 1.6 MB); on one CPU every block is
        # drawn into one pair, on two each share has its own
        R, T = 2000, 100
        pair_bytes = 2 * core.row_blocks(R // bootstrap.DRAW_BLOCKS, T)[0][1] * T * 8
        shares = min(bootstrap.DRAW_BLOCKS, cpus)
        rng = np.random.default_rng(36)
        factors = [rng.normal(size=(T, T)) for _ in range(3)]
        keys = [(0, k) for k in range(3)]
        monkeypatch.setattr(bootstrap, "_cpu_count", lambda: cpus)
        expected = np.vstack([substream_sups(r, R, 4, key) for r, key in zip(factors, keys)])
        tracemalloc.start()
        try:
            out = _draw_sups(factors, R, 4, keys, bootstrap._executor())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, expected)
        assert peak - out.nbytes < (shares + 0.5) * pair_bytes

    def test_substream_keys_are_distinct_in_one_analyze(self, monkeypatch):
        # Both configs' seeds default to 0, and SeedSequence pads short
        # entropy with zeros: keys (seed, k, b) for segment k and (seed, i, b)
        # for change i would give change 1's margin the stream of segment 1.
        x = two_segment_series()
        seen = []
        substream = bootstrap._substream

        def record(seed, key):
            gen = substream(seed, key)
            seen.append((key, gen.bit_generator.state["state"]["state"].tobytes()))
            return gen

        monkeypatch.setattr(bootstrap, "_substream", record)
        cfg = PipelineConfig(relevant=RelevantChangeConfig(delta=1.0, method="bootstrap"))
        assert analyze(x, cfg).relevant.indices == (0, 1)
        keys = [key for key, _ in seen]
        assert {(0, 1, 0), (1, 1, 0)} <= set(keys)
        assert len(set(keys)) == len(keys) == len({state for _, state in seen})


class TestDrawAhead:
    """analyze's bootstrap statistics are those of run_bootstrap run alone on
    the same arguments, with any number of draw workers."""

    def test_analyze_matches_run_bootstrap_without_draw_ahead(self, monkeypatch):
        x = two_segment_series()
        cfg = PipelineConfig(replications=301, rng_seed=4, relevant=RelevantChangeConfig(delta=1.0, method="bootstrap"))
        calls = []
        boot = pipeline.run_bootstrap

        def record_call(*args, **kwargs):
            calls.append(args)
            return boot(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_bootstrap", record_call)
        results = []
        for workers in ("default", 1, 2, "inline"):
            pool = ThreadPoolExecutor(workers) if isinstance(workers, int) else None
            with monkeypatch.context() as m:
                if workers != "default":
                    m.setattr(bootstrap, "_executor", lambda: pool)
                calls.clear()
                try:
                    stats = analyze(x, cfg).bootstrap.statistics.tobytes()
                    (args,) = calls
                    alone = boot(*args).statistics.tobytes()
                finally:
                    if pool is not None:
                        pool.shutdown()
            assert len(args[1]) == 2  # both segments relevant
            assert stats == alone
            results.append(stats)
        assert results[1:] == results[:-1]


class TestDrawBuffers:
    """The calling thread allocates every block-sized array of the draws and
    the pool's thread only fills them, so no block is ever allocated, and
    cached, by the pool thread's heap."""

    R, T = 2000, 100
    BLOCK_BYTES = R // 2 * T * 8

    def test_worker_share_allocates_less_than_a_block(self, monkeypatch):
        n = 300
        segs = segments_from_locations(n, [1 / 3, 2 / 3])
        y = zero_mean_fit(np.random.default_rng(36).normal(size=(n, self.T)), segs)
        cfg = BootstrapConfig(replications=self.R, rng_seed=4)
        expected = run_bootstrap(y, range(len(segs)), unit_sigma2(y.grid), cfg).statistics.tobytes()
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(bootstrap, "_executor", lambda: pool)
        run_share, fill = bootstrap._run_share, bootstrap._fill_block
        worker_done = threading.Event()
        worker_peaks, written = [], []

        def recording_fill(r, seed, key, out, scratch):
            written.append((on_main_thread(), (out, *scratch)))
            fill(r, seed, key, out, scratch)

        def held_share(fn, share):
            if fn is not recording_fill:  # the square-root factors
                return run_share(fn, share)
            if on_main_thread():  # the caller's draws wait for the worker's
                assert worker_done.wait(timeout=30)
                return run_share(fn, share)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            try:
                return run_share(fn, share)
            finally:
                worker_peaks.append(tracemalloc.get_traced_memory()[1] - start)
                worker_done.set()

        monkeypatch.setattr(bootstrap, "_fill_block", recording_fill)
        monkeypatch.setattr(bootstrap, "_run_share", held_share)
        tracemalloc.start()
        try:
            stats = run_bootstrap(y, range(len(segs)), unit_sigma2(y.grid), cfg).statistics.tobytes()
        finally:
            tracemalloc.stop()
            pool.shutdown()
        assert stats == expected
        assert len(worker_peaks) == 1 and worker_peaks[0] < self.BLOCK_BYTES
        assert len(written) == bootstrap.DRAW_BLOCKS * len(segs)
        assert {main for main, _ in written} == {True, False}
        # tasks of different shares run at the same time: they write into
        # no common array
        for main, arrays in written:
            for other_main, others in written:
                if main != other_main:
                    assert not any(np.shares_memory(a, b) for a in arrays for b in others)


def _draw_statistics():
    _, segs, y, sigma2 = residuals_fixture()
    res = run_bootstrap(y, range(len(segs)), sigma2, BootstrapConfig(replications=300, rng_seed=2))
    return res.statistics.tobytes(), bootstrap._executor() is None


def _draw_threads_after_analyze():
    cfg = PipelineConfig(replications=300, relevant=RelevantChangeConfig(delta=1.0, method="bootstrap"))
    analyze(two_segment_series(), cfg)  # a quantile and a margin on the pool
    threads = [t for t in threading.enumerate() if t.name.startswith("fdabands-draw")]
    return len(threads), bootstrap._cpu_count()


fork_only = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
cpus = pytest.mark.parametrize("one_cpu", [False, True], ids=["all_cpus", "one_cpu"])


@fork_only
@cpus
def test_forked_child_draws_on_its_own_pool(one_cpu):
    # the child inherits the parent's pool object but none of its threads;
    # drawing on it would wait forever
    expected = _draw_statistics()[0]
    stats, inline = run_in_forked_child(_draw_statistics, one_cpu)
    assert stats == expected
    assert inline == (one_cpu or bootstrap._cpu_count() < 2)


@fork_only
@cpus
def test_draw_pool_threads_leave_a_cpu_to_the_caller(one_cpu):
    threads, cpu_count = run_in_forked_child(_draw_threads_after_analyze, one_cpu)
    assert threads <= min(bootstrap.DRAW_BLOCKS, cpu_count) - 1
    assert cpu_count > 1 or threads == 0


def ar1_fixture(n=120, grid_size=6, rho=0.5, seed=41):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(n, grid_size))
    for j in range(1, n):
        e[j] += rho * e[j - 1]
    segs = segments_from_locations(n, [0.4])
    x = make_series(e)
    y = fit_segments(x, segs)
    return segs, y


class TestDistributionalAgreement:
    """At R = 20000 the Gaussian draws' 0.9-quantile agrees with the
    definitional path, which draws every multiplier in one (R, n) matrix,
    within 3%.  Over 20 seeds the two quantiles' difference had a standard
    deviation of 0.4-0.5% of their value, so the bound sits at about six
    standard deviations and still fails a 5% scale error."""

    R = 20000
    TOL = 0.03

    def test_run_bootstrap_quantile(self):
        segs, y = ar1_fixture()
        sigma2 = Curve(np.linspace(0.8, 1.6, 6), y.grid)
        res = run_bootstrap(y, range(len(segs)), sigma2, BootstrapConfig(replications=self.R, alpha=0.1, rng_seed=5))
        nu = np.random.default_rng(6).standard_normal((self.R, y.n))
        sigma = np.sqrt(sigma2.values)
        per_segment = []
        for seg in segs:
            rows = basis_rows(y, seg, res.block_length, np.sqrt(seg.length) / sigma)
            per_segment.append(np.abs(nu[:, seg.start : seg.end] @ rows).max(axis=1))
        q_def = np.quantile(np.max(per_segment, axis=0), 0.9)
        assert res.quantile == pytest.approx(q_def, rel=self.TOL)

    def test_bootstrap_margin_quantile(self):
        segs, y = ar1_fixture()
        left, right = segs
        margin = bootstrap_margin(y, 1, 0.1, self.R, 5)
        nu = np.random.default_rng(7).standard_normal((self.R, y.n))
        q_def = np.quantile(np.abs(nu @ margin_rows(y.rows(0, y.n), left, right)).max(axis=1), 0.9)
        assert margin == pytest.approx(q_def, rel=self.TOL)


def test_run_bootstrap_memory_is_independent_of_R_times_n():
    # n = 10000, T = 20, R = 2000: an (R, n) multiplier matrix alone is 160 MB,
    # and an (n, T) block-average matrix 1.6 MB.  What is left are arrays of
    # one row block each (core._BLOCK_ENTRIES entries, 0.52 MB): the block
    # averages' prefix window and one block of them, then the draws' (z, w)
    # chunk pairs, two of 0.16 MB each per share
    n, grid_size, R = 10000, 20, 2000
    segs = segments_from_locations(n, [0.3, 0.7])
    y = zero_mean_fit(np.random.default_rng(8).normal(size=(n, grid_size)), segs)
    sigma2 = unit_sigma2(y.grid)
    tracemalloc.start()
    try:
        run_bootstrap(y, range(len(segs)), sigma2, BootstrapConfig(replications=R))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * core._BLOCK_ENTRIES
