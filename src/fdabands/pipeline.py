"""End-to-end analysis: detect changes, filter relevant ones, estimate the
long-run variance, bootstrap the quantile, and build the bands.

The auto threshold's pilot segmentation reaches `analyze` through one
channel: the `pilot_out` list of `detect_change_points`, which holds the
pilot's fit and default-config LRV when the final changes are the pilot's
and is empty otherwise.  The residuals are the series and its fit; the
relevant filter's margin, the LRV and the bootstrap read their segments off
that fit, so no stage gets a second copy of it, and each forms the residual
rows it reads, a block at a time, so no (n, T) residual matrix is formed."""

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

    One fit over the detected changes feeds the relevant filter, the LRV,
    the bootstrap and the bands.  When the auto threshold's pilot found the same
    changes, `detect_change_points` hands over the pilot's fit and its
    default-config LRV through `pilot_out`; the LRV is estimated again only
    when there is no pilot or the analysis asks for another LrvConfig.
    """
    cfg = cfg or PipelineConfig()

    pilot = []
    cps = detect_change_points(x, cfg.segmentation, pilot_out=pilot)
    if pilot:
        fit, lrv_est = pilot
    else:
        fit = fit_segments(x, cps.segments)
    rel = relevant_set(x, cps, cfg.relevant, fit=fit)
    y = fit.residuals(x)
    if not pilot or cfg.lrv != LrvConfig():
        lrv_est = estimate_lrv(y, cfg.lrv)

    # The bands use the (1 - alpha/2)-quantile of T*, not the (1 - alpha)-
    # quantile: at moderate n the block bootstrap scale is biased low for
    # short blocks, and the (1 - alpha)-quantile undercovers.
    boot = run_bootstrap(
        y,
        rel.indices,
        lrv_est.sigma2,
        BootstrapConfig(
            block_length=cfg.block_length,
            replications=cfg.replications,
            alpha=cfg.alpha / 2.0,
            rng_seed=cfg.rng_seed,
        ),
    )

    bands = build_bands(fit, rel.indices, lrv_est.sigma2, boot.quantile)

    return AnalysisResult(
        change_points=cps,
        relevant=rel,
        lrv=lrv_est,
        bootstrap=boot,
        bands=bands,
        delta=rel.delta,
        config=cfg,
    )
