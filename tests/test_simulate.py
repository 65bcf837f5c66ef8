import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from fdabands import (
    Curve,
    Grid,
    InvalidInputError,
    PipelineConfig,
    RelevantChangeConfig,
    ScenarioSpec,
    curve_values,
    generate,
    run_coverage_study,
)
from fdabands import pipeline, segmentation, simulate
from oracles import coverage_study_by_replication, generate_by_recursion


class TestCurveValues:
    def test_constant_and_scalar(self):
        g = Grid.uniform(5)
        assert np.array_equal(curve_values(3.5, g), np.full(5, 3.5))
        assert np.array_equal(curve_values({"kind": "constant", "value": -1.0}, g), np.full(5, -1.0))

    def test_linear(self):
        g = Grid.uniform(3)
        out = curve_values({"kind": "linear", "intercept": 1.0, "slope": 2.0}, g)
        assert np.allclose(out, [1.0, 2.0, 3.0])

    def test_hat(self):
        g = Grid.uniform(5)
        out = curve_values({"kind": "hat", "peak": 6.6, "center": 0.5}, g)
        assert np.allclose(out, [0.0, 3.3, 6.6, 3.3, 0.0])
        # a peak at either end is a ramp, computed without dividing by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ramp = curve_values({"kind": "hat", "peak": 2.0, "center": 1.0}, g)
            down = curve_values({"kind": "hat", "peak": 2.0, "center": 0.0}, g)
        assert np.allclose(ramp, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.allclose(down, [2.0, 1.5, 1.0, 0.5, 0.0])

    def test_array_and_curve(self):
        g = Grid.uniform(4)
        arr = np.array([0.0, 1.0, 4.0, 9.0])
        assert np.array_equal(curve_values(arr, g), arr)
        assert np.array_equal(curve_values(Curve(arr, g), g), arr)

    def test_bad_specs(self):
        g = Grid.uniform(4)
        with pytest.raises(InvalidInputError):
            curve_values({"kind": "spline"}, g)
        with pytest.raises(InvalidInputError):
            curve_values(np.zeros(3), g)
        for spec, message in (
            ({"kind": "constant"}, "needs key 'value'"),
            ({"kind": "sine", "amplitude": "2"}, "'amplitude' must be a number"),
            ("x", "not a number, an array or a dict"),
            (float("inf"), "non-finite"),
            ({"kind": "hat", "peak": 1.0, "center": 1.5}, "hat center must lie in"),
            (Curve(np.zeros(5), Grid(np.array([0.0, 0.1, 0.5, 0.9, 1.0]))), "curve spec is on a different grid"),
        ):
            with pytest.raises(InvalidInputError, match=message):
                curve_values(spec, g)


class TestScenarioSpec:
    def test_mean_count_must_match(self):
        with pytest.raises(InvalidInputError):
            ScenarioSpec(n=100, means=[0.0, 1.0], change_locations=[])

    def test_locations_sorted_interior(self):
        with pytest.raises(InvalidInputError):
            ScenarioSpec(n=100, means=[0.0, 1.0, 2.0], change_locations=[0.7, 0.3])
        with pytest.raises(InvalidInputError):
            ScenarioSpec(n=100, means=[0.0, 1.0], change_locations=[1.0])

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"means": 5}, "means"),
            ({"means": {"kind": "constant", "value": 1.0}}, "means"),
            ({"means": [0.0, 1.0], "change_locations": 0.5}, "change_locations"),
        ],
        ids=["int_means", "dict_means", "float_change_locations"],
    )
    def test_sequence_keys_must_be_lists(self, kwargs, key):
        with pytest.raises(InvalidInputError, match=f"^scenario key {key!r} must be a list or tuple, got "):
            ScenarioSpec(n=100, **kwargs)

    def test_unknown_error_process(self):
        with pytest.raises(InvalidInputError, match="error_process must be one of"):
            ScenarioSpec(n=100, error_process="arma")

    def test_ar_coefficient_bound(self):
        with pytest.raises(InvalidInputError):
            ScenarioSpec(n=100, error_process="ar1", error_param=1.0)

    def test_negative_tau2_rejected(self):
        for tau2 in (-1.0, {"kind": "linear", "intercept": 1.0, "slope": -2.0}):
            with pytest.raises(InvalidInputError, match="^scenario key 'tau2': variance must be >="):
                ScenarioSpec(n=100, tau2=tau2)
        assert ScenarioSpec(n=100, tau2=0.0).tau2 == 0.0

    def test_dict_roundtrip(self):
        spec = ScenarioSpec(
            n=400,
            grid_size=50,
            means=[0.0, {"kind": "constant", "value": 5.0}],
            change_locations=[0.5],
            error_process="ar1",
            error_param=0.4,
            rng_seed=7,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestGenerate:
    def test_noise_free_equals_means(self):
        spec = ScenarioSpec(
            n=40,
            grid_size=6,
            means=[1.0, {"kind": "linear", "intercept": 0.0, "slope": 4.0}],
            change_locations=[0.5],
            tau2=0.0,
        )
        x, truth = generate(spec)
        t = x.grid.points
        assert np.allclose(x.values[:20], 1.0, atol=1e-14)
        assert np.allclose(x.values[20:], 4.0 * t, atol=1e-14)
        # jump curve is 4t - 1, so the sup-norm is |4 - 1| = 3 at t = 1
        assert truth.jump_sizes == (pytest.approx(3.0),)
        assert truth.relevant_indices(2.0) == (0, 1)
        assert truth.relevant_indices(3.0) == (0,)  # strict inequality

    def test_determinism(self):
        spec = ScenarioSpec(n=60, grid_size=8, rng_seed=11, error_process="ar1", error_param=0.3)
        x1, _ = generate(spec)
        x2, _ = generate(spec)
        assert np.array_equal(x1.values, x2.values)
        x3, _ = generate(dataclasses.replace(spec, rng_seed=12))
        assert not np.array_equal(x1.values, x3.values)

    def test_analytic_lrv_fields(self):
        _, truth_ar = generate(
            ScenarioSpec(n=10, grid_size=4, error_process="ar1", error_param=0.4)
        )
        assert np.allclose(truth_ar.lrv.values, 1.0 / 0.36)
        assert np.allclose(truth_ar.pointwise_variance.values, 1.0 / 0.84)
        _, truth_ma = generate(
            ScenarioSpec(n=10, grid_size=4, error_process="ma1", error_param=0.5)
        )
        assert np.allclose(truth_ma.lrv.values, 2.25)
        assert np.allclose(truth_ma.pointwise_variance.values, 1.25)

    def test_iid_pointwise_variance(self):
        # sample variance at each grid point matches tau^2(t) = 2 within
        # Monte Carlo error at n = 10000
        tau2 = {"kind": "constant", "value": 2.0}
        x, truth = generate(ScenarioSpec(n=10000, grid_size=10, tau2=tau2, rng_seed=5))
        sample_var = x.values.var(axis=0)
        assert np.max(np.abs(sample_var - truth.pointwise_variance.values)) < 0.15

    def test_ar1_lag1_autocorrelation(self):
        x, _ = generate(
            ScenarioSpec(n=10000, grid_size=6, error_process="ar1", error_param=0.4, rng_seed=6)
        )
        v = x.values - x.values.mean(axis=0)
        corr = (v[1:] * v[:-1]).mean(axis=0) / v.var(axis=0)
        assert np.max(np.abs(corr - 0.4)) < 0.05

    @pytest.mark.parametrize(
        "process, tau2, changes",
        itertools.product(
            [("iid", 0.0), ("ma1", 0.6), ("ma1", -0.3), ("ar1", 0.4), ("ar1", -0.7)],
            [1.0, {"kind": "linear", "intercept": 0.0, "slope": 2.0}],
            [False, True],
        ),
    )
    def test_bits_match_the_recursion(self, process, tau2, changes):
        # the linear tau^2 is 0 at t = 0, so there the innovations are signed
        # zeros, and the sine mean is -0.0: the sign of each zero is compared
        spec = ScenarioSpec(
            n=150,
            grid_size=9,
            means=[0.0, {"kind": "sine", "amplitude": -5.0}] if changes else [0.0],
            change_locations=[0.4] if changes else [],
            error_process=process[0],
            error_param=process[1],
            tau2=tau2,
            rng_seed=3,
        )
        x, truth = generate(spec)
        values, lrv = generate_by_recursion(spec)
        assert x.values.tobytes() == values.tobytes()
        assert truth.lrv.values.tobytes() == lrv.tobytes()

    @pytest.mark.parametrize(
        "process, tau2, changes",
        itertools.product(
            [("iid", 0.0), ("ma1", 0.6), ("ar1", 0.4)],
            [1.0, {"kind": "linear", "intercept": 0.0, "slope": 2.0}],
            [False, True],
        ),
    )
    def test_batch_rows_match_generate(self, process, tau2, changes):
        spec = ScenarioSpec(
            n=150,
            grid_size=9,
            means=[0.0, {"kind": "sine", "amplitude": -5.0}] if changes else [0.0],
            change_locations=[0.4] if changes else [],
            error_process=process[0],
            error_param=process[1],
            tau2=tau2,
        )
        seeds = [3, 0, 2**63 + 5]
        batch, truth = simulate._generate_batch(spec, seeds)
        assert batch.shape == (3, 150, 9)
        for seed, values in zip(seeds, batch):
            x, truth_1 = generate(dataclasses.replace(spec, rng_seed=seed))
            assert values.tobytes() == x.values.tobytes()
            assert truth.lrv.values.tobytes() == truth_1.lrv.values.tobytes()

    @pytest.mark.parametrize("process", ["ar1", "ma1"])
    def test_peak_memory_is_near_one_series(self, process):
        # the innovations, serial dependence and means share one array, the
        # MA(1) step forms block-sized temporaries only, and the series takes
        # the array over without a copy
        spec = ScenarioSpec(n=10_000, grid_size=101, error_process=process, error_param=0.4)
        tracemalloc.start()
        try:
            x, _ = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * x.values.nbytes

    def test_overflowing_mean_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="rescale"):
                generate(ScenarioSpec(n=100, grid_size=10, means=[1e300], change_locations=[]))

    def test_ma1_negative_theta(self):
        # theta = -0.5 gives a long-run variance (1 + theta)^2 = 0.25 well
        # below the pointwise variance 1.25
        _, truth = generate(
            ScenarioSpec(n=10, grid_size=4, error_process="ma1", error_param=-0.5)
        )
        assert np.allclose(truth.lrv.values, 0.25)


def small_study_spec(**overrides):
    base = dict(
        n=120,
        grid_size=10,
        means=[0.0, {"kind": "constant", "value": 5.0}],
        change_locations=[0.5],
        error_process="iid",
        tau2=0.5,
        rng_seed=3,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def small_pipeline(**overrides):
    base = dict(
        replications=200,
        relevant=RelevantChangeConfig(delta=2.0),
    )
    base.update(overrides)
    return PipelineConfig(**base)


def fix_quantile(monkeypatch, q):
    """Make every analyze call build its bands from the quantile q."""
    real_run_bootstrap = pipeline.run_bootstrap

    def run_bootstrap(*args, **kwargs):
        return dataclasses.replace(real_run_bootstrap(*args, **kwargs), quantile=q)

    monkeypatch.setattr(pipeline, "run_bootstrap", run_bootstrap)


class TestRunCoverageStudy:
    def test_huge_quantile_gives_full_coverage(self, monkeypatch):
        fix_quantile(monkeypatch, 1e6)
        report = run_coverage_study(small_study_spec(), small_pipeline(), replications=20)
        assert report.coverage == 1.0
        assert report.m_match_rate == 1.0
        assert report.relevant_match_rate == 1.0
        assert report.mean_location_error < 0.05

    def test_noise_free_coverage_is_exact(self):
        # zero residuals give q = 0: zero-width bands around exactly
        # recovered means still contain them
        report = run_coverage_study(small_study_spec(tau2=0.0), small_pipeline(), replications=5)
        assert report.coverage == 1.0
        assert report.mean_location_error == 0.0
        assert report.average_band_width == 0.0

    def test_deterministic(self):
        a = run_coverage_study(small_study_spec(), small_pipeline(), replications=10)
        b = run_coverage_study(small_study_spec(), small_pipeline(), replications=10)
        assert a.contained == b.contained
        assert a.coverage == b.coverage
        assert a.average_band_width == b.average_band_width

    def test_coverage_monotone_in_alpha(self):
        # per-replication data and bootstrap draws are seed-locked, so a
        # smaller alpha can only widen every band: containment is monotone
        # replication by replication, not just on average
        lo = run_coverage_study(
            small_study_spec(), small_pipeline(alpha=0.3), replications=15
        )
        hi = run_coverage_study(
            small_study_spec(), small_pipeline(alpha=0.05), replications=15
        )
        for narrow, wide in zip(lo.contained, hi.contained):
            assert (not narrow) or wide
        assert lo.average_band_width <= hi.average_band_width

    def test_failure_rate_guard(self):
        # constant noise-free scenario: auto delta is 0, every replication
        # fails on invalid input, and the study refuses to report
        spec = small_study_spec(means=[1.0], change_locations=[], tau2=0.0)
        with pytest.raises(InvalidInputError, match="5 of 5 replications failed"):
            run_coverage_study(
                spec,
                small_pipeline(relevant=RelevantChangeConfig(delta="auto")),
                replications=5,
            )

    def test_each_replication_draws_its_own_margin(self, monkeypatch):
        seeds = []
        real_margin = segmentation.bootstrap_margin

        def spy(resid, left, right, beta, replications, seed, pair):
            seeds.append(seed)
            return real_margin(resid, left, right, beta, replications, seed, pair)

        monkeypatch.setattr(segmentation, "bootstrap_margin", spy)
        relevant = RelevantChangeConfig(delta=2.0, method="bootstrap", calibration_replications=50)
        run_coverage_study(small_study_spec(), small_pipeline(relevant=relevant), replications=4)
        assert len(seeds) == 4 and len(set(seeds)) == 4

    @pytest.mark.parametrize("batch", [None, 2])
    def test_matches_one_replication_at_a_time(self, monkeypatch, batch):
        # 7 replications: one partial batch, or batches of 2, 2, 2 and 1
        spec = small_study_spec(error_process="ar1", error_param=0.3)
        if batch is not None:
            monkeypatch.setattr(simulate, "_BATCH_ENTRIES", batch * (spec.n + 100) * spec.grid_size)
        calls = {"analyze": 0, "check_containment": 0}
        for name in calls:
            real = getattr(simulate, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(simulate, name, counted)
        report = run_coverage_study(spec, small_pipeline(), replications=7)
        reference = coverage_study_by_replication(spec, small_pipeline(), replications=7)
        assert report.contained == reference.contained
        assert repr(report.summary_rows()) == repr(reference.summary_rows())
        assert calls["analyze"] == 7
        # containment is checked where the relevant set is right
        assert calls["check_containment"] == round(7 * report.relevant_match_rate)

    def test_only_invalid_input_is_recorded(self, monkeypatch):
        real_analyze = simulate.analyze

        def fail_first_with(exc):
            pending = [exc]

            def analyze(x, cfg):
                if pending:
                    raise pending.pop()
                return real_analyze(x, cfg)

            return analyze

        fix_quantile(monkeypatch, 1e6)
        cfg = small_pipeline()
        # a bug propagates instead of being counted as a failed replication
        monkeypatch.setattr(simulate, "analyze", fail_first_with(RuntimeError("bug")))
        with pytest.raises(RuntimeError, match="bug"):
            run_coverage_study(small_study_spec(), cfg, replications=20)

        monkeypatch.setattr(simulate, "analyze", fail_first_with(InvalidInputError("bad replication")))
        report = run_coverage_study(small_study_spec(), cfg, replications=20)
        assert report.failures == ("replication 0: bad replication",)
        assert len(report.contained) == 19

    def test_replication_validation(self):
        for replications in (0, 2.5):
            with pytest.raises(InvalidInputError, match="replications must be an integer >= 1"):
                run_coverage_study(small_study_spec(), small_pipeline(), replications=replications)

    def test_summary_rows(self, monkeypatch):
        fix_quantile(monkeypatch, 1.0)
        report = run_coverage_study(small_study_spec(), small_pipeline(), replications=5)
        keys = [k for k, _ in report.summary_rows()]
        assert keys == [
            "replications",
            "coverage",
            "average_band_width",
            "m_match_rate",
            "relevant_match_rate",
            "mean_location_error",
            "failures",
        ]
