"""Simultaneous uniform confidence bands for the relevant segment means."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Curve,
    FunctionalTimeSeries,
    InvalidInputError,
    Segment,
    SegmentFit,
    fit_segments,
)
from .lrv import LrvEstimate


@dataclass(frozen=True)
class SegmentEstimate:
    segment: Segment
    n_hat: int
    mean: Curve

    def __post_init__(self):
        if self.n_hat != self.segment.length:
            raise InvalidInputError("n_hat must equal the segment length")


def fit_estimates(fit: SegmentFit, indices) -> list:
    """Estimates of the fitted segments at `indices`, in that order."""
    return [
        SegmentEstimate(fit.segments[i], fit.segments[i].length, Curve(fit.means[i], fit.grid))
        for i in indices
    ]


def segment_estimates(x: FunctionalTimeSeries, segments) -> list:
    """Estimates of every segment of a partition of [0, n), in order."""
    fit = fit_segments(x, segments)
    return fit_estimates(fit, range(len(fit.segments)))


@dataclass(frozen=True)
class Band:
    index: int
    segment: Segment
    lower: Curve
    center: Curve
    upper: Curve


@dataclass(frozen=True)
class ConfidenceBandSet:
    bands: tuple
    quantile: float
    alpha: float
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ContainmentResult:
    per_segment: tuple  # bool per band, in band order
    overall: bool


def build_bands(
    estimates,
    sigma2: LrvEstimate | Curve,
    q: float,
    alpha: float,
    indices=None,
    metadata=None,
) -> ConfidenceBandSet:
    """Bands mu_hat_i(t) +/- sigma_hat(t) * q / sqrt(n_hat_i) per segment.

    `indices` optionally labels each band with its relevant-set index
    (defaults to positional numbering).
    """
    estimates = list(estimates)
    if q < 0.0:
        raise InvalidInputError("quantile must be nonnegative")
    sigma2_curve = sigma2.sigma2 if isinstance(sigma2, LrvEstimate) else sigma2
    if np.any(sigma2_curve.values <= 0.0):
        raise InvalidInputError("sigma^2 must be floored strictly positive")
    sigma = np.sqrt(sigma2_curve.values)
    if indices is None:
        indices = range(len(estimates))
    bands = []
    for idx, est in zip(indices, estimates):
        if est.mean.grid != sigma2_curve.grid:
            raise InvalidInputError("segment mean and sigma^2 are on different grids")
        half = sigma * q / np.sqrt(est.n_hat)
        bands.append(
            Band(
                index=idx,
                segment=est.segment,
                lower=Curve(est.mean.values - half, est.mean.grid),
                center=est.mean,
                upper=Curve(est.mean.values + half, est.mean.grid),
            )
        )
    return ConfidenceBandSet(
        bands=tuple(bands), quantile=float(q), alpha=float(alpha), metadata=dict(metadata or {})
    )


def check_containment(band_set: ConfidenceBandSet, truth) -> ContainmentResult:
    """Whether each band contains its true mean at every grid point, and the
    simultaneous AND across bands."""
    truth = list(truth)
    if len(truth) != len(band_set.bands):
        raise InvalidInputError(
            f"got {len(truth)} truth curves for {len(band_set.bands)} bands"
        )
    per = []
    for band, mu in zip(band_set.bands, truth):
        vals = mu.values if isinstance(mu, Curve) else np.asarray(mu, dtype=float)
        if isinstance(mu, Curve) and mu.grid != band.center.grid:
            raise InvalidInputError("truth curve grid does not match the band grid")
        if vals.shape != band.center.values.shape:
            raise InvalidInputError("truth curve length does not match the band grid")
        per.append(bool(np.all((band.lower.values <= vals) & (vals <= band.upper.values))))
    return ContainmentResult(per_segment=tuple(per), overall=all(per))
