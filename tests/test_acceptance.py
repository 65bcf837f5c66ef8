"""End-to-end acceptance checks for the statistical guarantees.

Each test prints one PASS/FAIL line with the measured value so the suite
output doubles as a verification report.  The Monte Carlo coverage study
(criteria 1 and 8) is computed once per session and shared.
"""

import numpy as np
import pytest

from fdabands import (
    BootstrapConfig,
    ChangePointSet,
    Curve,
    FunctionalTimeSeries,
    Grid,
    LrvConfig,
    PipelineConfig,
    RelevantChangeConfig,
    ScenarioSpec,
    Segment,
    SegmentFit,
    analyze,
    auto_delta,
    build_bands,
    detect_change_points,
    estimate_lrv,
    fit_segments,
    generate,
    relevant_set,
    run_bootstrap,
    run_coverage_study,
    segments_from_locations,
)
from oracles import bootstrap_segment_mean, residual_series

# Standard normal quantiles: P(|Z| <= 1.6449) = 0.9 and, for the max of two
# independent half-normals, (2 * Phi(1.9545) - 1)^2 = 0.9.
HALF_NORMAL_Q90 = 1.6449
MAX_OF_TWO_Q90 = 1.9545


def report(num, name, ok, detail):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def mc_study():
    """Shared Monte Carlo study: AR(1) errors (rho = 0.4, unit innovation
    variance), n = 400 curves on a 50-point grid, one constant jump of
    sup-norm 5 at s = 0.5, Delta = 2, alpha = 0.1, 500 replications."""
    spec = ScenarioSpec(
        n=400,
        grid_size=50,
        means=[0.0, {"kind": "constant", "value": 5.0}],
        change_locations=[0.5],
        error_process="ar1",
        error_param=0.4,
        tau2=1.0,
        rng_seed=1,
    )
    cfg = PipelineConfig(
        alpha=0.1,
        relevant=RelevantChangeConfig(delta=2.0),
        replications=2000,
    )
    return run_coverage_study(spec, cfg, replications=500)


def test_criterion_1_simultaneous_coverage(mc_study):
    ok = 0.85 <= mc_study.coverage <= 0.95
    report(1, "simultaneous coverage at 1 - alpha = 0.9", ok,
           f"coverage = {mc_study.coverage:.3f}, target [0.85, 0.95]")


def test_criterion_2_lrv_consistency():
    # sup_t relative error of sigma2_hat against the analytic AR(1) long-run
    # variance 1 / (1 - rho)^2, over 50 independent seeds at n = 10000
    true = 1.0 / (1.0 - 0.4) ** 2
    errors = []
    for seed in range(50):
        spec = ScenarioSpec(
            n=10000, grid_size=20, error_process="ar1", error_param=0.4, rng_seed=seed
        )
        x, _ = generate(spec)
        fit = fit_segments(x, segments_from_locations(x.n, []))
        est = estimate_lrv(fit.residuals(x), LrvConfig(kernel="flat_top"))
        errors.append(float(np.max(np.abs(est.sigma2.values - true)) / true))
    share = float(np.mean([e <= 0.15 for e in errors]))
    ok = share >= 0.90
    report(2, "long-run variance sup-norm consistency", ok,
           f"{share:.0%} of 50 seeds within 15% (mean sup rel err {np.mean(errors):.3f})")


def iid_residuals(n, grid, seed):
    x = FunctionalTimeSeries(
        np.repeat(np.random.default_rng(seed).standard_normal((n, 1)), len(grid), axis=1),
        grid,
    )
    return x


def test_criterion_3_bootstrap_quantiles():
    # scalar-equivalent setting: every grid column identical, so the sup over
    # t is trivial; sigma^2 fixed to 1, block length 1, 20000 replications
    grid = Grid.uniform(2)
    unit = Curve(np.ones(2), grid)

    x = iid_residuals(5000, grid, seed=0)
    segs = segments_from_locations(5000, [])
    y = fit_segments(x, segs).residuals(x)
    res = run_bootstrap(
        y, [0], unit, BootstrapConfig(block_length=1, replications=20000, alpha=0.1, rng_seed=0)
    )
    err_one = abs(res.quantile - HALF_NORMAL_Q90)

    x2 = iid_residuals(10000, grid, seed=1)
    segs2 = segments_from_locations(10000, [0.5])
    y2 = fit_segments(x2, segs2).residuals(x2)
    res2 = run_bootstrap(
        y2, [0, 1], unit, BootstrapConfig(block_length=1, replications=20000, alpha=0.1, rng_seed=1)
    )
    err_two = abs(res2.quantile - MAX_OF_TWO_Q90)

    ok = err_one <= 0.05 and err_two <= 0.05
    report(3, "bootstrap quantile against closed-form oracles", ok,
           f"one segment q = {res.quantile:.4f} (target {HALF_NORMAL_Q90}), "
           f"two segments q = {res2.quantile:.4f} (target {MAX_OF_TWO_Q90})")


def test_criterion_4_band_formula_exactness():
    rng = np.random.default_rng(7)
    grid = Grid.uniform(33)
    worst = 0.0
    for q, n_hat in ((0.0, 5), (1.7, 64), (123.456, 997)):
        mean = rng.normal(scale=50.0, size=33)
        sigma2 = Curve(rng.uniform(1e-6, 40.0, size=33), grid)
        fit = SegmentFit((Segment(0, n_hat),), mean[None, :], grid)
        band = build_bands(fit, [0], sigma2, q=q).bands[0]
        half = np.sqrt(sigma2.values) * q / np.sqrt(n_hat)
        worst = max(
            worst,
            float(np.max(np.abs((band.upper.values - band.center.values) - half))),
            float(np.max(np.abs((band.center.values - band.lower.values) - half))),
        )
    ok = worst <= 1e-12
    report(4, "band half-width formula exactness", ok, f"max deviation {worst:.2e}")


def test_criterion_5_relevant_set_semantics():
    grid_size = 5
    vals = np.zeros((120, grid_size))
    vals[40:] += 3.0
    vals[80:] += 8.0
    x = FunctionalTimeSeries(vals, Grid.uniform(grid_size))
    cps = ChangePointSet(indices=(40, 80), n=120, threshold=1.0)

    boundary = relevant_set(x, cps, RelevantChangeConfig(delta=3.0))
    strict_ok = boundary.indices == (0, 2)  # jump == Delta excluded

    monotone_ok, previous = True, None
    for delta in (0.5, 3.5, 20.0):
        rel = relevant_set(x, cps, RelevantChangeConfig(delta=delta))
        if previous is not None and not set(rel.indices) <= set(previous):
            monotone_ok = False
        previous = rel.indices
    zero_ok = previous[0] == 0 and len(previous) >= 1

    ok = strict_ok and monotone_ok and zero_ok
    report(5, "relevant-set strictness, monotonicity, 0 membership", ok,
           f"boundary -> {boundary.indices}, largest Delta -> {previous}")


def test_criterion_6_auto_delta_rule():
    # noise-free fixture whose first/last-window mean distance is 19.8
    vals = np.zeros((200, 11))
    vals[100:, 3] = 19.8
    x = FunctionalTimeSeries(vals, Grid.uniform(11))
    delta = auto_delta(x)
    err = abs(delta - 6.6)
    ok = err <= 1e-12
    report(6, "automatic Delta = window distance / 3", ok,
           f"delta = {delta!r}, |delta - 6.6| = {err:.2e}")


def test_criterion_7_determinism_and_equivariance():
    rng = np.random.default_rng(3)
    vals = rng.normal(scale=0.5, size=(160, 12))
    vals[80:] += 6.0
    x = FunctionalTimeSeries(vals, Grid.uniform(12))
    cfg = PipelineConfig(replications=400, relevant=RelevantChangeConfig(delta=2.0), rng_seed=5)

    a, b = analyze(x, cfg), analyze(x, cfg)
    repro_ok = (
        np.array_equal(a.bootstrap.statistics, b.bootstrap.statistics)
        and a.bands.quantile == b.bands.quantile
        and all(
            np.array_equal(p.lower.values, q.lower.values)
            and np.array_equal(p.upper.values, q.upper.values)
            for p, q in zip(a.bands.bands, b.bands.bands)
        )
    )

    lam = 3.0
    scaled = analyze(
        FunctionalTimeSeries(lam * vals, x.grid),
        PipelineConfig(replications=400, relevant=RelevantChangeConfig(delta=lam * 2.0), rng_seed=5),
    )
    scale_ok = scaled.bands.quantile == pytest.approx(a.bands.quantile, rel=1e-9) and all(
        np.allclose(s.lower.values, lam * p.lower.values, rtol=1e-9)
        and np.allclose(s.upper.values, lam * p.upper.values, rtol=1e-9)
        for s, p in zip(scaled.bands.bands, a.bands.bands)
    )

    grid = Grid.uniform(3)
    y = residual_series(np.random.default_rng(8).normal(size=(30, 3)))
    annihilated = bootstrap_segment_mean(y, Segment(0, 30), L=3, multipliers=np.zeros(30))
    zero_y = residual_series(np.zeros((30, 3)))
    degenerate = run_bootstrap(
        zero_y,
        [0],
        Curve(np.ones(3), grid),
        BootstrapConfig(replications=200),
    )
    degenerate_ok = (
        np.array_equal(annihilated.values, np.zeros(3))
        and np.array_equal(degenerate.statistics, np.zeros(200))
        and degenerate.quantile == 0.0
    )

    ok = repro_ok and scale_ok and degenerate_ok
    report(7, "determinism, scale equivariance, degenerate cases", ok,
           f"repro={repro_ok} scale={scale_ok} degenerate={degenerate_ok}")


def test_criterion_8_change_point_recovery(mc_study):
    # noiseless piecewise-constant: every change index recovered exactly
    grid_size = 8
    vals = np.zeros((150, grid_size))
    vals[50:] += 4.0
    vals[100:] += 7.0
    x = FunctionalTimeSeries(vals, Grid.uniform(grid_size))
    exact_ok = detect_change_points(x).indices == (50, 100)

    noisy_ok = mc_study.m_match_rate >= 0.95 and mc_study.mean_location_error <= 0.02
    ok = exact_ok and noisy_ok
    report(8, "change-point recovery (exact and Monte Carlo)", ok,
           f"noiseless exact={exact_ok}, m match rate {mc_study.m_match_rate:.3f}, "
           f"mean location error {mc_study.mean_location_error:.4f}")
