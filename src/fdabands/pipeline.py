"""End-to-end analysis: detect changes, filter relevant ones, estimate the
long-run variance, bootstrap the quantile, and build the bands."""

from __future__ import annotations

from dataclasses import dataclass, field

from .bands import ConfidenceBandSet, build_bands
from .bootstrap import BootstrapConfig, BootstrapResult, run_bootstrap
from .core import FunctionalTimeSeries, check_float, check_integer, fit_segments
from .lrv import LrvConfig, LrvEstimate, estimate_lrv
from .segmentation import (
    ChangePointSet,
    RelevantChangeConfig,
    RelevantSet,
    SegmentationConfig,
    detect_change_points,
    relevant_set,
)


@dataclass(frozen=True)
class PipelineConfig:
    alpha: float = 0.1
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    relevant: RelevantChangeConfig = field(default_factory=RelevantChangeConfig)
    lrv: LrvConfig = field(default_factory=LrvConfig)
    block_length: int | str = "auto"
    replications: int = 2000
    rng_seed: int = 0

    def __post_init__(self):
        check_float("alpha", self.alpha, (0, 1))
        check_integer("block_length", self.block_length, 1, auto=True)
        check_integer("replications", self.replications, 1)
        check_integer("rng_seed", self.rng_seed, 0)


@dataclass(frozen=True)
class AnalysisResult:
    change_points: ChangePointSet
    relevant: RelevantSet
    lrv: LrvEstimate
    bootstrap: BootstrapResult
    bands: ConfidenceBandSet
    delta: float
    config: PipelineConfig


def analyze(x: FunctionalTimeSeries, cfg: PipelineConfig | None = None) -> AnalysisResult:
    """Bands for the relevant segments of `x`.

    One fit over the detected changes and its residuals feed the relevant
    filter, the LRV and the bootstrap.  When the auto threshold's pilot found
    the same changes, the pilot's fit and residuals are this fit and its
    residuals and are taken over, and when the analysis also asks for the
    default LrvConfig, the pilot's LRV is the LRV of this fit and is not
    estimated again.
    """
    cfg = cfg or PipelineConfig()

    pilot = []
    cps = detect_change_points(x, cfg.segmentation, pilot_out=pilot)
    if pilot:
        fit, y = pilot
    else:
        fit = fit_segments(x, cps.segments)
        y = fit.residuals(x)
    rel = relevant_set(x, cps, cfg.relevant, fit=fit, residuals=y)
    if cps.pilot_lrv is not None and cfg.lrv == LrvConfig():
        lrv_est = cps.pilot_lrv
    else:
        lrv_est = estimate_lrv(y, fit, cfg.lrv)

    # The bands use the (1 - alpha/2)-quantile of T*, not the (1 - alpha)-
    # quantile: at moderate n the block bootstrap scale is biased low for
    # short blocks, and the (1 - alpha)-quantile undercovers.
    boot = run_bootstrap(
        y,
        [fit.segments[i] for i in rel.indices],
        lrv_est.sigma2,
        BootstrapConfig(
            block_length=cfg.block_length,
            replications=cfg.replications,
            alpha=cfg.alpha / 2.0,
            rng_seed=cfg.rng_seed,
        ),
    )

    bands = build_bands(fit, rel.indices, lrv_est.sigma2, boot.quantile, cfg.alpha)

    return AnalysisResult(
        change_points=cps,
        relevant=rel,
        lrv=lrv_est,
        bootstrap=boot,
        bands=bands,
        delta=rel.delta,
        config=cfg,
    )
