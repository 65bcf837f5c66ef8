"""Simultaneous uniform confidence bands for the relevant segment means.

`build_bands` reads the segment means mu_hat_i and lengths n_hat_i from the
SegmentFit that `analyze` forms once over all detected segments and shares
with the relevant filter, the LRV and the bootstrap, so no second copy of
the means is made on the way to the bands.  The quantile q and sigma_hat
come from `run_bootstrap` and `estimate_lrv`; the definitional bootstrap
segment mean and lag covariance that the tests check them against are in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Curve, InvalidInputError, Segment, SegmentFit, check_selection


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


@dataclass(frozen=True)
class ContainmentResult:
    per_segment: tuple  # bool per band, in band order
    overall: bool


def build_bands(fit: SegmentFit, indices, sigma2: Curve, q: float) -> ConfidenceBandSet:
    """Band i is mu_hat_i(t) +/- sigma_hat(t) * q / sqrt(n_hat_i) for each i in
    `indices`, with mu_hat_i = fit.means[i] and n_hat_i the length of
    fit.segments[i]; the band is labelled i.  `indices` and `sigma2` pass
    `core.check_selection`, the check that `run_bootstrap` makes too."""
    if q < 0.0:
        raise InvalidInputError("quantile must be nonnegative")
    indices = check_selection(fit, indices, sigma2)
    sigma = np.sqrt(sigma2.values)
    bands = []
    for i in indices:
        seg, mean = fit.segments[i], fit.means[i]
        half = sigma * q / np.sqrt(seg.length)
        bands.append(
            Band(
                index=i,
                segment=seg,
                lower=Curve(mean - half, fit.grid),
                center=Curve(mean, fit.grid),
                upper=Curve(mean + half, fit.grid),
            )
        )
    return ConfidenceBandSet(bands=tuple(bands), quantile=float(q))


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
