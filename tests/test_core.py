import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    SegmentFit,
    SegmentationConfig,
    fit_segments,
    segments_from_locations,
    sup_norm,
)
from fdabands.core import median
from fdabands.segmentation import ChangePointSet


def hat(peak, center, t):
    return peak * (t / center if t <= center else (1.0 - t) / (1.0 - center))


class TestGrid:
    def test_uniform(self):
        g = Grid.uniform(5)
        assert np.allclose(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert len(g) == 5

    def test_rejects_too_short(self):
        with pytest.raises(InvalidInputError):
            Grid([0.5])

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            Grid([0.0, 0.7, 0.3, 1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Grid([0.0, 0.5, 1.5])

    def test_immutability(self):
        g = Grid.uniform(4)
        with pytest.raises(ValueError):
            g.points[0] = 0.9


def test_series_copies_any_array_that_can_still_be_written():
    grid = Grid.uniform(3)
    owner = np.arange(12.0).reshape(4, 3).copy()
    frozen_view = owner[1:]
    frozen_view.setflags(write=False)
    for values in (owner, frozen_view, owner.tolist()):
        assert not np.shares_memory(FunctionalTimeSeries(values, grid).values, owner)
    owner.setflags(write=False)
    # read-only all the way down: kept as it is, unless it is not C-ordered
    for values in (owner, owner[1:], owner.reshape(3, 4).T):
        x = FunctionalTimeSeries(values, grid if values.shape[1] == 3 else Grid.uniform(4))
        assert (x.values is values) == values.flags.c_contiguous
        assert x.values.flags.c_contiguous and not x.values.flags.writeable


class TestSeriesPeak:
    """The series is checked once, where it is built: one max and one min
    give max |x| and refuse NaN and +-inf."""

    @pytest.mark.parametrize(
        "bad",
        [[np.nan], [np.inf], [-np.inf], [np.nan, np.inf], [np.inf, np.nan], [-np.inf, np.nan]],
        ids=["nan", "inf", "-inf", "nan_inf", "inf_nan", "-inf_nan"],
    )
    def test_non_finite_values_are_refused(self, bad):
        values = np.zeros((4, 3))
        values.flat[[1, 7][: len(bad)]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^series values must be finite$"):
                FunctionalTimeSeries(values, Grid.uniform(3))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_peak_is_the_largest_absolute_value(self, order):
        values = np.random.default_rng(5).normal(size=(30, 7))
        for sign in (1.0, -1.0):  # the peak may be a maximum or minus a minimum
            signed = np.array(sign * values, order=order)
            x = FunctionalTimeSeries(signed, Grid.uniform(7))
            assert x.peak == np.abs(x.values).max() == np.abs(signed).max()

    def test_peak_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError, match="peak"):
            FunctionalTimeSeries(np.ones((4, 3)), Grid.uniform(3), peak=1.0)
        assert "peak" not in repr(FunctionalTimeSeries(np.ones((4, 3)), Grid.uniform(3)))


@pytest.mark.parametrize(
    "values, message",
    [
        (np.zeros(3), "series values must be an (n, T) matrix"),
        (np.zeros((0, 3)), "series needs at least one curve"),
        (np.zeros((4, 2)), "series has 2 columns but grid has 3 points"),
    ],
    ids=["one_dimensional", "no_curves", "grid_mismatch"],
)
def test_series_shape_is_checked(values, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        FunctionalTimeSeries(values, Grid.uniform(3))


class TestCurve:
    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            Curve([1.0, 2.0], Grid.uniform(3))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Curve([1.0, np.nan, 2.0], Grid.uniform(3))


class TestSupNorm:
    def test_zero_curve(self):
        assert sup_norm(Curve(np.zeros(7), Grid.uniform(7))) == 0.0

    def test_forced_max(self):
        assert sup_norm(Curve([-3.0, 1.0, 2.0], Grid.uniform(3))) == 3.0

    def test_hat_function(self):
        # peak 6.6 at t=0.5; grid with odd size contains the apex exactly
        grid = Grid.uniform(101)
        values = [hat(6.6, 0.5, t) for t in grid.points]
        expected = max(abs(v) for v in values)  # evaluated by hand loop
        assert expected == 6.6
        assert sup_norm(Curve(values, grid)) == 6.6

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            sup_norm(np.array([]))


def series_from(values):
    values = np.asarray(values, dtype=float)
    return FunctionalTimeSeries(values, Grid.uniform(values.shape[1]))


class TestSegmentMean:
    def test_identical_curves(self):
        x = series_from(np.tile([1.0, -2.0, 0.5], (3, 1)))
        mu = fit_segments(x, [Segment(0, 3)]).means[0]
        assert np.array_equal(mu, [1.0, -2.0, 0.5])

    def test_two_curve_average(self):
        x = series_from([[0.0, 0.0], [2.0, 2.0]])
        assert np.array_equal(fit_segments(x, [Segment(0, 2)]).means[0], [1.0, 1.0])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        vals = rng.normal(size=(10, 6))
        x = series_from(vals)
        mu = fit_segments(x, [Segment(0, 2), Segment(2, 7), Segment(7, 10)]).means[1]
        for t in range(6):
            acc = 0.0
            for j in range(2, 7):
                acc += vals[j, t]
            assert mu[t] == pytest.approx(acc / 5, abs=1e-14)

    def test_out_of_range(self):
        # segments running past the series, or leaving a gap, are no partition
        x = series_from(np.zeros((4, 3)))
        with pytest.raises(InvalidInputError, match=r"do not partition \[0, n\) in order, n = 4"):
            fit_segments(x, [Segment(0, 2), Segment(2, 5)])
        with pytest.raises(InvalidInputError, match=r"do not partition \[0, n\) in order, n = 4"):
            fit_segments(x, [Segment(0, 1), Segment(2, 4)])

    def test_empty_segment_rejected(self):
        with pytest.raises(InvalidInputError):
            Segment(3, 3)

    def test_residuals_are_the_rows_minus_their_repeated_means(self):
        vals = np.random.default_rng(43).normal(scale=3.0, size=(50, 7))
        x = series_from(vals)
        fit = fit_segments(x, [Segment(0, 1), Segment(1, 18), Segment(18, 49), Segment(49, 50)])
        expected = vals - np.repeat(fit.means, [1, 17, 31, 1], axis=0)
        rows = fit.rows(0, 50)
        assert rows.tobytes() == expected.tobytes()
        assert rows.flags["C_CONTIGUOUS"]
        # the fit holds the series and the means, both read-only
        assert fit.series is x and (fit.n, fit.grid) == (x.n, x.grid)
        assert not x.values.flags["WRITEABLE"] and not fit.means.flags["WRITEABLE"]

    def test_every_row_range_is_its_rows_minus_their_segment_means(self):
        # ranges that start, end or lie inside a 1-row segment, and ranges
        # that straddle any number of segment edges, formed into a new array
        # and into the leading rows of a buffer
        vals = np.random.default_rng(44).normal(scale=3.0, size=(12, 5))
        x = series_from(vals)
        segs = [Segment(0, 1), Segment(1, 5), Segment(5, 6), Segment(6, 11), Segment(11, 12)]
        fit = fit_segments(x, segs)
        owner = np.repeat(np.arange(len(segs)), [seg.length for seg in segs])
        buffer = np.full((13, 5), np.nan)
        for a in range(12):
            for b in range(a + 1, 13):
                expected = np.stack([x.values[j] - fit.means[owner[j]] for j in range(a, b)])
                assert fit.rows(a, b).tobytes() == expected.tobytes(), (a, b)
                out = fit.rows(a, b, out=buffer)
                assert np.shares_memory(out, buffer) and out.tobytes() == expected.tobytes(), (a, b)

    def test_residuals_need_the_fit_of_their_series(self):
        # a fit holds its series: the segments and means of a 10-row fit make
        # no fit of a shorter series or of a series on a grid of another
        # size, and the grid of a fit is its series' grid
        x = series_from(np.random.default_rng(45).normal(size=(10, 3)))
        fit = fit_segments(x, [Segment(0, 4), Segment(4, 10)])
        with pytest.raises(InvalidInputError, match=r"do not partition \[0, n\) in order, n = 8"):
            SegmentFit(series_from(x.values[:8]), fit.segments, fit.means)
        with pytest.raises(InvalidInputError, match=r"means of shape \(2, 3\), not \(2, 4\)"):
            SegmentFit(series_from(np.zeros((10, 4))), fit.segments, fit.means)
        other_grid = FunctionalTimeSeries(x.values, Grid(np.linspace(0.0, 0.5, 3)))
        assert SegmentFit(other_grid, fit.segments, fit.means).grid is other_grid.grid


class TestFitResiduals:
    def test_noise_free_piecewise_constant(self):
        vals = np.vstack([np.zeros((5, 3)), np.full((5, 3), 4.0)])
        fit = fit_segments(series_from(vals), segments_from_locations(10, [0.5]))
        assert np.array_equal(fit.rows(0, 10), np.zeros((10, 3)))

    def test_single_segment_mean_subtraction(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(size=(8, 4))
        fit = fit_segments(series_from(2.5 + noise), segments_from_locations(8, []))
        assert np.allclose(fit.rows(0, 8), noise - noise.mean(axis=0), atol=1e-13)

    def test_per_segment_means_vanish(self):
        rng = np.random.default_rng(1)
        x = series_from(rng.normal(size=(60, 5)) + 3.0)
        segs = segments_from_locations(60, [0.4])
        fit = fit_segments(x, segs)
        for seg in segs:
            # independently recomputed per-segment residual means
            assert np.max(np.abs(fit.rows(seg.start, seg.end).mean(axis=0))) < 1e-10

    def test_uncovered_index_rejected(self):
        x = series_from(np.zeros((10, 2)))
        with pytest.raises(InvalidInputError, match=r"do not partition \[0, n\) in order, n = 10"):
            fit_segments(x, [Segment(0, 5)])
        with pytest.raises(InvalidInputError, match=r"do not partition \[0, n\) in order, n = 10"):
            fit_segments(x, [])


class TestSegmentFit:
    """A fit is built over a partition of [0, n) of its series or not at
    all, so no residual rows are formed from overlapping, gapped, shifted
    or short segments."""

    x = series_from(np.zeros((400, 3)))

    @pytest.mark.parametrize(
        "segments",
        [
            [Segment(0, 300), Segment(100, 400)],
            [Segment(0, 100), Segment(150, 400)],
            [Segment(50, 100), Segment(100, 400)],
            [Segment(0, 100), Segment(100, 300)],
            [Segment(0, 100), Segment(100, 500)],
            [],
        ],
        ids=["overlap", "gap", "not_from_0", "short_of_n", "past_n", "empty"],
    )
    def test_segments_that_do_not_partition_are_refused(self, segments):
        with pytest.raises(InvalidInputError, match=r"do not partition \[0, n\) in order, n = 400"):
            SegmentFit(self.x, tuple(segments), np.zeros((len(segments), 3)))

    @pytest.mark.parametrize("shape", [(1, 3), (3, 3), (2, 4), (6,)])
    def test_means_of_another_shape_are_refused(self, shape):
        with pytest.raises(InvalidInputError, match=r"means of shape \(.*\), not \(2, 3\)"):
            SegmentFit(self.x, (Segment(0, 5), Segment(5, 400)), np.zeros(shape))

    def test_fields_are_a_tuple_and_read_only_means(self):
        means = np.zeros((2, 3))
        x = series_from(np.ones((9, 3)))
        fit = SegmentFit(x, [Segment(0, 5), Segment(5, 9)], means)
        assert fit.segments == (Segment(0, 5), Segment(5, 9))
        assert not fit.means.flags["WRITEABLE"] and means.flags["WRITEABLE"]
        assert fit.rows(0, 9).tobytes() == np.ones((9, 3)).tobytes()


finite_curves = st.integers(0, 2**32 - 1).map(
    lambda seed: np.random.default_rng(seed).normal(scale=5.0, size=11)
)


class TestSupNormProperties:
    @given(finite_curves, finite_curves)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b):
        assert sup_norm(a + b) <= sup_norm(a) + sup_norm(b) + 1e-12

    @given(finite_curves, st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_absolute_homogeneity(self, a, lam):
        assert sup_norm(lam * a) == pytest.approx(abs(lam) * sup_norm(a), rel=1e-12, abs=1e-12)

    @given(finite_curves, finite_curves)
    @settings(max_examples=50, deadline=None)
    def test_zero_iff_identical(self, a, b):
        assert (sup_norm(a - b) == 0.0) == bool(np.array_equal(a, b))
        assert sup_norm(a - a) == 0.0


def float_bytes(value):
    return np.float64(value).tobytes()


class TestMedian:
    """`median` returns np.median's bits, so compare float64 bytes: `==`
    would take -0.0 for +0.0."""

    def test_matches_np_median_for_sizes_1_to_64(self):
        rng = np.random.default_rng(3)
        for size in range(1, 65):
            for values in (
                rng.standard_normal(size),  # negative and positive values
                rng.integers(-2, 3, size).astype(float),  # ties
                rng.choice([-0.0, 0.0, -1.0], size),  # signed zeros in the middle
            ):
                assert float_bytes(median(values)) == float_bytes(np.median(values)), values

    @pytest.mark.parametrize(
        "values",
        [[-0.0], [-0.0, -0.0], [-1.0, -0.0, 2.0], [-0.0, -0.0, 0.0, 3.0], [-2.0, -0.0, -0.0, -0.0]],
    )
    def test_negative_zero_middle_reads_positive_zero(self, values):
        assert float_bytes(np.median(values)) == float_bytes(0.0)
        assert float_bytes(median(values)) == float_bytes(0.0)

    # bounded so that the middle pair's sum stays finite: np.median would
    # warn on the overflow
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_matches_np_median_on_finite_floats(self, values):
        assert float_bytes(median(values)) == float_bytes(np.median(values))


class TestSegmentProperties:
    def test_length_one_identity(self):
        rng = np.random.default_rng(7)
        x = series_from(rng.normal(size=(6, 5)))
        fit = fit_segments(x, [Segment(j, j + 1) for j in range(6)])
        for j in range(6):
            assert np.array_equal(fit.means[j], x.values[j])

    def test_concatenation_consistency(self):
        rng = np.random.default_rng(8)
        x = series_from(rng.normal(size=(20, 9)))
        a, b, c = 3, 11, 18
        parts = fit_segments(x, [Segment(0, a), Segment(a, b), Segment(b, c), Segment(c, 20)])
        left, right = parts.means[1], parts.means[2]
        combined = ((b - a) * left + (c - b) * right) / (c - a)
        whole = fit_segments(x, [Segment(0, a), Segment(a, c), Segment(c, 20)]).means[1]
        assert np.max(np.abs(whole - combined)) < 1e-12


class TestSegmentsFromLocations:
    def test_half_open_convention(self):
        segs = segments_from_locations(10, [0.3, 0.7])
        assert [(s.start, s.end) for s in segs] == [(0, 3), (3, 7), (7, 10)]
        assert ChangePointSet((3, 7), 10, 1.0).locations == (0.3, 0.7)

    def test_index_roundtrip_is_exact(self):
        # floor(n * (j/n)) must recover j despite float rounding
        n = 400
        for j in (1, 3, 7, 133, 200, 399):
            segs = segments_from_locations(n, [j / n])
            assert segs[0].end == j

    def test_empty_segment_rejected(self):
        with pytest.raises(InvalidInputError):
            segments_from_locations(10, [0.05])


# (config class, keyword arguments); the last argument is the bad integer
BAD_INTEGER_SETTINGS = [
    (PipelineConfig, {"replications": 2.5}),
    (PipelineConfig, {"replications": 0}),
    (PipelineConfig, {"block_length": 0}),
    (PipelineConfig, {"rng_seed": 1.5}),
    (PipelineConfig, {"rng_seed": -1}),
    (SegmentationConfig, {"max_changes": 2.5}),
    (SegmentationConfig, {"max_changes": -1}),
    (SegmentationConfig, {"min_segment_length": 2.5}),
    (SegmentationConfig, {"min_segment_length": 1}),
    (RelevantChangeConfig, {"method": "bootstrap", "calibration_replications": 0}),
    (RelevantChangeConfig, {"method": "bootstrap", "calibration_replications": -3}),
    (RelevantChangeConfig, {"rng_seed": -1}),
    (LrvConfig, {"bandwidth": "abc"}),
    (LrvConfig, {"bandwidth": 2.5}),
    (LrvConfig, {"bandwidth": True}),
    (LrvConfig, {"bandwidth": 0}),
    (BootstrapConfig, {"block_length": "abc"}),
    (BootstrapConfig, {"replications": 2.5}),
    (BootstrapConfig, {"rng_seed": -1}),
    (ScenarioSpec, {"n": 10.5}),
    (ScenarioSpec, {"n": True}),
    (ScenarioSpec, {"n": 10, "grid_size": 2.5}),
    (ScenarioSpec, {"n": 10, "rng_seed": -1}),
    (ScenarioSpec, {"n": 10, "rng_seed": 1.5}),
]


@pytest.mark.parametrize(
    "cls, kwargs",
    BAD_INTEGER_SETTINGS,
    ids=[f"{cls.__name__}-{list(kw)[-1]}={list(kw.values())[-1]!r}" for cls, kw in BAD_INTEGER_SETTINGS],
)
def test_integer_settings_are_checked_as_integers(cls, kwargs):
    with pytest.raises(InvalidInputError, match=f"^{list(kwargs)[-1]} must be an integer >= "):
        cls(**kwargs)


@pytest.mark.parametrize("size", [2.5, "5", True, 1])
def test_uniform_grid_size_is_checked_as_an_integer(size):
    # reached by ingest(path, grid_size=...) and cli.run_pipeline, which a
    # library caller may call without the command line's checks
    with pytest.raises(InvalidInputError, match="^grid size must be an integer >= 2"):
        Grid.uniform(size)


# (config class, keyword arguments, message start); the last argument is the bad float
BAD_FLOAT_SETTINGS = [
    (PipelineConfig, {"alpha": "0.1"}, "alpha must be a finite number"),
    (PipelineConfig, {"alpha": True}, "alpha must be a finite number"),
    (PipelineConfig, {"alpha": float("nan")}, "alpha must be a finite number"),
    (PipelineConfig, {"alpha": 1.0}, "alpha must lie in (0, 1)"),
    (BootstrapConfig, {"alpha": "0.1"}, "alpha must be a finite number"),
    (BootstrapConfig, {"alpha": np.float64(0.0)}, "alpha must lie in (0, 1)"),
    (RelevantChangeConfig, {"beta": "x"}, "beta must be a finite number"),
    (RelevantChangeConfig, {"beta": 1.5}, "beta must lie in (0, 1)"),
    (ScenarioSpec, {"n": 10, "error_param": "x"}, "error parameter must be a finite number"),
    (ScenarioSpec, {"n": 10, "error_param": True}, "error parameter must be a finite number"),
    (ScenarioSpec, {"n": 10, "error_param": float("inf")}, "error parameter must be a finite"),
]


@pytest.mark.parametrize(
    "cls, kwargs, message",
    BAD_FLOAT_SETTINGS,
    ids=[
        f"{cls.__name__}-{list(kw)[-1]}={list(kw.values())[-1]!r}"
        for cls, kw, _ in BAD_FLOAT_SETTINGS
    ],
)
def test_float_settings_are_checked_as_floats(cls, kwargs, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
        cls(**kwargs)
    cls(**{**kwargs, list(kwargs)[-1]: np.float64(0.5)})  # numpy floats pass
