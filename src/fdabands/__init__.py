"""Simultaneous uniform confidence bands for the segment means of a
functional time series, after change point detection and relevant-change
filtering, calibrated by a multiplier block bootstrap."""

__version__ = "0.1.0"

from .bands import (
    Band,
    ConfidenceBandSet,
    ContainmentResult,
    build_bands,
    check_containment,
)
from .bootstrap import (
    BootstrapConfig,
    BootstrapResult,
    auto_block_length,
    run_bootstrap,
)
from .core import (
    Curve,
    FunctionalTimeSeries,
    Grid,
    InvalidInputError,
    Segment,
    SegmentFit,
    fit_segments,
    segments_from_indices,
    segments_from_locations,
    sup_norm,
)
from .lrv import KERNELS, LrvConfig, LrvEstimate, auto_bandwidth, estimate_lrv
from .pipeline import AnalysisResult, PipelineConfig, analyze
from .segmentation import (
    ChangePointSet,
    RelevantChangeConfig,
    RelevantSet,
    SegmentationConfig,
    auto_delta,
    detect_change_points,
    relevant_set,
)
from .simulate import (
    CoverageReport,
    GroundTruth,
    ScenarioSpec,
    curve_values,
    generate,
    run_coverage_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]
