import numpy as np
import pytest

from fdabands import (
    KERNELS,
    FunctionalTimeSeries,
    Grid,
    InvalidInputError,
    LrvConfig,
    ScenarioSpec,
    auto_bandwidth,
    estimate_lrv,
    fit_segments,
    generate,
    segments_from_indices,
    segments_from_locations,
)
import fdabands.core as core
from oracles import lag_covariance


def error_series(n, grid_size, process, param, seed, tau2=1.0):
    """Zero-mean series drawn from the synthetic error model."""
    spec = ScenarioSpec(
        n=n,
        grid_size=grid_size,
        means=[0.0],
        change_locations=[],
        error_process=process,
        error_param=param,
        tau2=tau2,
        rng_seed=seed,
    )
    x, truth = generate(spec)
    return x, truth


def single_segment_fit(x):
    return fit_segments(x, segments_from_locations(x.n, []))


def mean_matrix(fit):
    """(n, T) matrix whose row j is the mean of the segment holding j, the
    mean assignment that the oracle `lag_covariance` takes."""
    return np.repeat(fit.means, [seg.length for seg in fit.segments], axis=0)


def single_segment_means(x):
    return mean_matrix(single_segment_fit(x))


class TestKernels:
    @pytest.mark.parametrize("kernel", list(KERNELS.items()))  # (name, function)
    def test_axioms(self, kernel):
        _, kernel = kernel
        assert kernel(0.0) == 1.0
        assert kernel(1.0) == 0.0
        assert kernel(-1.0) == 0.0
        xs = np.linspace(-3.0, 3.0, 121)
        vals = kernel(xs)
        assert np.all(vals[np.abs(xs) > 1.0] == 0.0)
        assert np.allclose(kernel(xs), kernel(-xs))  # symmetry

    def test_lookup(self):
        assert LrvConfig(kernel="parzen").kernel == "parzen"
        for name in ("gaussian", KERNELS["bartlett"], None):
            with pytest.raises(InvalidInputError, match="unknown kernel"):
                LrvConfig(kernel=name)
        assert set(KERNELS) == {"bartlett", "parzen", "flat_top"}


class TestLagCovariance:
    def test_lag0_is_biased_variance(self):
        x, _ = error_series(200, 10, "iid", 0.0, seed=0)
        mu = single_segment_means(x)
        cov0 = lag_covariance(x, mu, 0)
        resid = x.values - mu
        assert np.allclose(cov0.values, (resid**2).sum(axis=0) / x.n)

    def test_iid_lag1_near_zero(self):
        x, _ = error_series(5000, 10, "iid", 0.0, seed=1)
        cov1 = lag_covariance(x, single_segment_means(x), 1)
        assert np.all(np.abs(cov1.values) < 0.1)  # true value is 0

    def test_ma1_lag1(self):
        # MA(1) with theta = 0.5 and unit innovation variance has lag-1
        # autocovariance theta * tau^2 = 0.5
        x, _ = error_series(5000, 10, "ma1", 0.5, seed=2)
        cov1 = lag_covariance(x, single_segment_means(x), 1)
        assert np.all(np.abs(cov1.values - 0.5) < 0.1)

    def test_symmetry_single_segment(self):
        # with one segment the centering is the same in both directions, so
        # the +l and -l sums run over identical products
        x, _ = error_series(80, 6, "ar1", 0.3, seed=3)
        mu = single_segment_means(x)
        for l in (1, 2, 5):
            assert np.allclose(
                lag_covariance(x, mu, l).values,
                lag_covariance(x, mu, -l).values,
                atol=1e-14,
            )

    def test_lag_bound(self):
        x, _ = error_series(10, 4, "iid", 0.0, seed=4)
        with pytest.raises(InvalidInputError):
            lag_covariance(x, single_segment_means(x), 10)
        with pytest.raises(InvalidInputError):
            lag_covariance(x, single_segment_means(x), -10)


class TestAutoBandwidth:
    def test_values(self):
        assert auto_bandwidth(16) == 2
        assert auto_bandwidth(10000) == 10
        assert auto_bandwidth(1830) == 6  # floor(1830^0.25) computed by hand
        assert auto_bandwidth(4) == 1

    def test_too_small(self):
        with pytest.raises(InvalidInputError):
            auto_bandwidth(3)


def kernel_sum(x, fit, c, name="bartlett"):
    """The lag-window sum of definitional lag covariances, l = -c..c."""
    mu, kernel = mean_matrix(fit), KERNELS[name]
    return sum(float(kernel(l / c)) * lag_covariance(x, mu, l).values for l in range(-c, c + 1))


@pytest.mark.filterwarnings("ignore:bandwidth c = .* violates")
@pytest.mark.parametrize(
    "changes",
    [
        [],  # one segment: no boundary
        [0, 30],  # windows cut at row 0
        [10, 48],  # a segment of one row at the end: windows cut at row n - 1 - a
        [20, 22, 23, 24],  # segments shorter than the lag: windows overlap
    ],
    ids=["no_boundary", "reaches_row_0", "reaches_row_n_minus_1_minus_a", "overlapping"],
)
def test_boundary_corrections_match_lag_covariance(changes):
    # a boundary follows each row in `changes`; each boundary's correction
    # reads the rows within c of it, and lags that cross several
    # boundaries add up each one's step
    x, _ = error_series(50, 3, "ar1", 0.5, seed=11)
    fit = fit_segments(x, segments_from_indices(x.n, [j + 1 for j in changes]))
    for c in range(1, 9):
        expected = kernel_sum(x, fit, c)
        assert expected.min() > 0.0
        est = estimate_lrv(fit.residuals(x), LrvConfig(bandwidth=c))
        assert np.allclose(est.sigma2.values, expected, rtol=1e-12, atol=0.0), c


def test_blocked_lag_sums_match_lag_covariance(monkeypatch):
    # 12 // 7 = 1 row per block: every lag product pairs rows of a block
    # with the c rows past its end, and every boundary reads rows of
    # several blocks
    monkeypatch.setattr(core, "_BLOCK_ENTRIES", 12)
    x, _ = error_series(300, 7, "ar1", 0.5, seed=10)
    fit = fit_segments(x, segments_from_indices(x.n, [100, 101, 103, 200, 299]))
    for name in KERNELS:
        expected = kernel_sum(x, fit, 5, name)
        assert expected.min() > 0.0
        est = estimate_lrv(fit.residuals(x), LrvConfig(bandwidth=5, kernel=name))
        assert np.allclose(est.sigma2.values, expected, rtol=1e-12, atol=0.0), name


class TestEstimateLrv:
    def test_iid_matches_pointwise_variance(self):
        tau2_spec = {"kind": "linear", "intercept": 0.5, "slope": 1.0}  # 0.5 + t
        x, truth = error_series(5000, 20, "iid", 0.0, seed=13, tau2=tau2_spec)
        fit = single_segment_fit(x)
        est = estimate_lrv(fit.residuals(x), LrvConfig(bandwidth=10))
        rel = np.abs(est.sigma2.values - truth.lrv.values) / truth.lrv.values
        assert rel.max() < 0.10

    def test_ar1_long_run_variance(self):
        # AR(1): long-run variance tau^2 / (1 - rho)^2
        x, truth = error_series(10000, 20, "ar1", 0.4, seed=5)
        fit = single_segment_fit(x)
        est = estimate_lrv(fit.residuals(x), LrvConfig(bandwidth="auto", kernel="flat_top"))
        assert est.bandwidth == 10
        rel = np.abs(est.sigma2.values - truth.lrv.values) / truth.lrv.values
        assert rel.max() < 0.15

    def test_bandwidth_warning(self):
        x, _ = error_series(60, 5, "iid", 0.0, seed=6)
        fit = single_segment_fit(x)
        with pytest.warns(UserWarning, match="c\\^3/n"):
            est = estimate_lrv(fit.residuals(x), LrvConfig(bandwidth=5))
        assert est.sigma2.values.shape == (5,)

    def test_bandwidth_too_large(self):
        x, _ = error_series(20, 5, "iid", 0.0, seed=7)
        fit = single_segment_fit(x)
        with pytest.raises(InvalidInputError):
            estimate_lrv(fit.residuals(x), LrvConfig(bandwidth=20))

    def test_mismatched_fit(self):
        # the estimate reads the fit off its residuals, which refuse a fit
        # of another series, and takes no second fit
        x, _ = error_series(40, 5, "iid", 0.0, seed=7)
        fit = single_segment_fit(x)
        shorter = FunctionalTimeSeries(x.values[:30], x.grid)
        other_grid = FunctionalTimeSeries(x.values, Grid(np.linspace(0.0, 0.5, 5)))
        for other in (shorter, other_grid):
            with pytest.raises(InvalidInputError, match="segment fit does not match"):
                fit.residuals(other)
        two = fit_segments(x, segments_from_indices(x.n, [20]))
        with pytest.raises(InvalidInputError, match="cfg must be an LrvConfig, got SegmentFit"):
            estimate_lrv(two.residuals(x), fit)

    def test_scaling_by_lambda_squared(self):
        x, _ = error_series(400, 8, "ma1", 0.3, seed=8)
        fit = single_segment_fit(x)
        est = estimate_lrv(fit.residuals(x), LrvConfig(bandwidth=4))
        scaled = FunctionalTimeSeries(3.0 * np.array(x.values), x.grid)
        fit_scaled = single_segment_fit(scaled)
        est_scaled = estimate_lrv(fit_scaled.residuals(scaled), LrvConfig(bandwidth=4))
        assert np.allclose(est_scaled.sigma2.values, 9.0 * est.sigma2.values, rtol=1e-12)

    def test_indicator_kernel_recovers_lag0(self, monkeypatch):
        x, _ = error_series(300, 6, "ar1", 0.5, seed=9)
        fit = single_segment_fit(x)

        def indicator(v):
            return np.where(np.asarray(v) == 0.0, 1.0, 0.0)

        monkeypatch.setitem(KERNELS, "indicator", indicator)
        est = estimate_lrv(fit.residuals(x), LrvConfig(bandwidth=3, kernel="indicator"))
        assert np.allclose(est.sigma2.values, lag_covariance(x, mean_matrix(fit), 0).values)

    @pytest.mark.parametrize("name", ["bartlett", "parzen", "flat_top"])
    # segment [100, 103) is shorter than c = 5, so lags 4 and 5 reach across
    # both of its boundaries; one segment has no boundary to correct at
    @pytest.mark.parametrize(
        "cuts", [[100, 103, 200], []], ids=["piecewise_constant", "one_segment"]
    )
    def test_matches_lag_covariance_sum(self, name, cuts):
        x, _ = error_series(300, 7, "ar1", 0.5, seed=10)
        fit = fit_segments(x, segments_from_indices(x.n, cuts))
        mu = mean_matrix(fit)
        c = 5
        kernel = KERNELS[name]
        expected = sum(
            float(kernel(l / c)) * lag_covariance(x, mu, l).values for l in range(-c, c + 1)
        )
        assert expected.min() > 0.0
        est = estimate_lrv(fit.residuals(x), LrvConfig(bandwidth=c, kernel=name))
        assert np.allclose(est.sigma2.values, expected, rtol=1e-12, atol=0.0)

    def test_floor_on_degenerate_data(self):
        x = FunctionalTimeSeries(np.ones((50, 4)), Grid.uniform(4))
        fit = single_segment_fit(x)
        est = estimate_lrv(fit.residuals(x), LrvConfig(bandwidth=2))
        assert np.all(est.sigma2.values > 0.0)

    def test_consistency_trend(self):
        # sup error decreases statistically as n grows (trend over seeds)
        true = 1.0 / (1.0 - 0.4) ** 2
        mean_errs = []
        for n in (500, 2000, 10000):
            errs = []
            for seed in range(5):
                x, _ = error_series(n, 10, "ar1", 0.4, seed=100 + seed)
                fit = single_segment_fit(x)
                est = estimate_lrv(fit.residuals(x), LrvConfig(kernel="flat_top"))
                errs.append(np.max(np.abs(est.sigma2.values - true)))
            mean_errs.append(np.mean(errs))
        assert mean_errs[0] > mean_errs[1] > mean_errs[2]
