import numpy as np
import pytest

from fdabands import (
    Curve,
    FunctionalTimeSeries,
    Grid,
    InvalidInputError,
    Segment,
    SegmentFit,
    build_bands,
    check_containment,
    fit_segments,
    segments_from_indices,
)


def make_fit(mean_rows, lengths):
    """A fit of a zero series whose segment i has length lengths[i] and mean
    curve mean_rows[i]."""
    means = np.asarray(mean_rows, float)
    grid = Grid.uniform(means.shape[1])
    x = FunctionalTimeSeries(np.zeros((sum(lengths), len(grid))), grid)
    segments = segments_from_indices(x.n, np.cumsum(lengths)[:-1])
    return SegmentFit(x, segments, means), grid


class TestBuildBands:
    def test_width_formula(self):
        # half-width sigma(t) * q / sqrt(n_hat), verified pointwise by hand
        fit, grid = make_fit([[1.0, -2.0, 0.5]], [25])
        sigma2 = Curve(np.array([4.0, 1.0, 9.0]), grid)
        bs = build_bands(fit, [0], sigma2, q=2.0)
        band = bs.bands[0]
        half = np.array([2.0, 1.0, 3.0]) * 2.0 / 5.0
        assert np.allclose(band.upper.values - band.center.values, half, atol=1e-15)
        assert np.allclose(band.center.values - band.lower.values, half, atol=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        fit, grid = make_fit([rng.normal(size=12)], [40])
        sigma2 = Curve(rng.uniform(0.5, 2.0, size=12), grid)
        band = build_bands(fit, [0], sigma2, q=1.7).bands[0]
        assert np.allclose(
            band.upper.values - band.center.values,
            band.center.values - band.lower.values,
            rtol=0.0,
            atol=1e-15,
        )

    def test_zero_quantile_collapses(self):
        fit, grid = make_fit([[3.0, 3.0]], [10])
        band = build_bands(fit, [0], Curve(np.ones(2), grid), q=0.0).bands[0]
        assert np.array_equal(band.lower.values, band.center.values)
        assert np.array_equal(band.upper.values, band.center.values)

    def test_width_scales_inverse_sqrt_n(self):
        # n_hat 400 vs 100 with equal sigma: widths differ by a factor 2
        fit, grid = make_fit(np.zeros((2, 4)), [100, 400])
        sigma2 = Curve(np.full(4, 2.0), grid)
        bs = build_bands(fit, [0, 1], sigma2, q=1.5)
        w_small = bs.bands[0].upper.values - bs.bands[0].lower.values
        w_large = bs.bands[1].upper.values - bs.bands[1].lower.values
        assert np.allclose(w_small, 2.0 * w_large, rtol=1e-14)

    def test_affine_equivariance(self):
        # shifting the mean shifts the band; scaling data by lambda scales
        # mu by lambda and sigma^2 by lambda^2, hence the band by lambda
        rng = np.random.default_rng(1)
        mean = rng.normal(size=6)
        sigma2_vals = rng.uniform(0.5, 3.0, size=6)
        fit, grid = make_fit([mean], [30])
        base = build_bands(fit, [0], Curve(sigma2_vals, grid), q=2.0).bands[0]
        lam, shift = 2.5, -4.0
        fit2, _ = make_fit([lam * mean + shift], [30])
        scaled = build_bands(fit2, [0], Curve(lam**2 * sigma2_vals, grid), q=2.0).bands[0]
        assert np.allclose(scaled.lower.values, lam * base.lower.values + shift, rtol=1e-10, atol=1e-10)
        assert np.allclose(scaled.upper.values, lam * base.upper.values + shift, rtol=1e-10, atol=1e-10)

    def test_negative_quantile_rejected(self):
        fit, grid = make_fit([[0.0, 0.0]], [5])
        with pytest.raises(InvalidInputError):
            build_bands(fit, [0], Curve(np.ones(2), grid), q=-0.5)

    def test_nonpositive_sigma2_rejected(self):
        fit, grid = make_fit([[0.0, 0.0]], [5])
        with pytest.raises(InvalidInputError):
            build_bands(fit, [0], Curve(np.array([1.0, 0.0]), grid), q=1.0)

    def test_grid_mismatch_rejected(self):
        fit, _ = make_fit([[0.0, 0.0, 0.0]], [5])
        sigma2 = Curve(np.ones(2), Grid.uniform(2))
        with pytest.raises(InvalidInputError):
            build_bands(fit, [0], sigma2, q=1.0)

    @pytest.mark.parametrize(
        "indices",
        [[-1], [], [5], [0.0], [True], [1, 1], [1, 0]],
        ids=["negative", "empty", "past_k", "float", "bool", "repeated", "decreasing"],
    )
    def test_indices_that_are_no_relevant_set_rejected(self, indices):
        # [-1] once gave a band labelled -1 over the last segment, [] an
        # empty band set, and [5], [0.0] and [True] an IndexError, a
        # TypeError and Curve's error
        fit, grid = make_fit(np.zeros((2, 3)), [200, 200])
        with pytest.raises(InvalidInputError, match=r"must be one or more integers in 0\.\.1, strictly increasing"):
            build_bands(fit, indices, Curve(np.ones(3), grid), q=3.0)

    def test_index_labels(self):
        # band i is built around segment i of the fit and labelled i
        fit, grid = make_fit(np.arange(12.0).reshape(4, 3), [10, 20, 5, 7])
        bs = build_bands(fit, [0, 3], Curve(np.ones(3), grid), q=1.0)
        assert [b.index for b in bs.bands] == [0, 3]
        assert [b.segment for b in bs.bands] == [Segment(0, 10), Segment(35, 42)]
        assert np.array_equal(bs.bands[1].center.values, [9.0, 10.0, 11.0])

    def test_bands_from_series_fit(self):
        # n_hat_i is the segment length and the center the segment mean
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(10, 4))
        grid = Grid.uniform(4)
        fit = fit_segments(FunctionalTimeSeries(vals, grid), [Segment(0, 4), Segment(4, 10)])
        bs = build_bands(fit, [0, 1], Curve(np.ones(4), grid), q=1.0)
        assert [b.segment.length for b in bs.bands] == [4, 6]
        assert np.allclose(bs.bands[1].center.values, vals[4:].mean(axis=0), atol=1e-14)
        half = bs.bands[1].upper.values - bs.bands[1].center.values
        assert np.allclose(half, 1.0 / np.sqrt(6.0), atol=1e-15)


class TestCheckContainment:
    def band_set(self):
        fit, grid = make_fit([np.zeros(3), np.full(3, 10.0)], [4, 4])
        return build_bands(fit, [0, 1], Curve(np.ones(3), grid), q=2.0), grid

    def test_contained(self):
        bs, grid = self.band_set()
        # half-width is 2/sqrt(4) = 1 everywhere
        res = check_containment(bs, [np.full(3, 0.9), Curve(np.full(3, 10.5), grid)])
        assert res.per_segment == (True, True) and res.overall

    def test_boundary_inclusive(self):
        bs, _ = self.band_set()
        res = check_containment(bs, [np.full(3, 1.0), np.full(3, 9.0)])
        assert res.overall

    def test_single_point_escape(self):
        bs, _ = self.band_set()
        truth = [np.array([0.0, 1.0 + 1e-9, 0.0]), np.full(3, 10.0)]
        res = check_containment(bs, truth)
        assert res.per_segment == (False, True)
        assert not res.overall

    def test_length_mismatch(self):
        bs, _ = self.band_set()
        with pytest.raises(InvalidInputError):
            check_containment(bs, [np.zeros(3)])
        with pytest.raises(InvalidInputError):
            check_containment(bs, [np.zeros(4), np.zeros(3)])

    def test_grid_mismatch(self):
        bs, _ = self.band_set()
        other = Grid(np.array([0.0, 0.3, 1.0]))
        with pytest.raises(InvalidInputError, match="truth curve grid does not match the band grid"):
            check_containment(bs, [Curve(np.zeros(3), other), np.full(3, 10.0)])

    def test_alpha_monotone_widths(self):
        # a band built from a larger quantile contains the smaller one
        fit, grid = make_fit([np.random.default_rng(3).normal(size=5)], [16])
        sigma2 = Curve(np.full(5, 1.3), grid)
        narrow = build_bands(fit, [0], sigma2, q=1.0).bands[0]
        wide = build_bands(fit, [0], sigma2, q=2.0).bands[0]
        assert np.all(wide.lower.values <= narrow.lower.values)
        assert np.all(narrow.upper.values <= wide.upper.values)
