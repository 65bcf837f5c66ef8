"""Change point estimation and the relevant-change filter.

Detection is binary segmentation on the functional CUSUM statistic: within
an interval, split at the argmax over candidate split points of
sup_t |U(s, t)|, recursing while the sup exceeds the threshold xi_n.  The
splits are taken best-first.  A `detect_change_points` call memoizes the
interval scan over one (T, n + 1) array of the series' prefix sums,
P[:, i] = sum_{l<i} x_l, read off the series with one cumsum: an interval
[lo, hi) reads its partial sums as P[:, lo + k] - P[:, lo] and runs no
cumsum of its own, and the pilot threshold in `_auto_threshold` and the
final threshold run the same loop, so no interval is scanned twice.  A scan
reads a few rows of P at a time (blocks of about `core._BLOCK_ENTRIES`
entries), so its (T, m) temporaries stay in the cache, and keeps a running
maximum: max is exact, so the blocks do not change the bits.  P lives only
while intervals are scanned, so one (n, T) array at a time is alive beside
the series: the pilot's first-difference proxy, one pass over the whole
series, runs first; P is formed on the first scan and dropped when the
pilot's segmentation ends, before the pilot's LRV is estimated.  The
pilot's residuals are the series and its segment means, and the LRV forms
their rows a block at a time, so no (n, T) residual matrix exists.  The
final threshold forms P again only for an interval that the pilot never
scanned, which needs its xi below the pilot's.  When the final threshold
keeps the pilot's changes, the pilot's fit and its default-config LRV are
handed to a caller that asks for them through one list, `pilot_out`, so
`analyze` neither fits the segments nor estimates the LRV again.  A series whose sums of squares could overflow is refused
where it is built (`FunctionalTimeSeries`).  The detector sits behind
this module's function interface so an alternative detector can be
substituted.

A change i is relevant when the plug-in jump estimate
||mu_hat_i - mu_hat_{i-1}||_inf strictly exceeds the threshold Delta.  Index
0 is always part of the relevant set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bootstrap import bootstrap_margin
from .core import (
    FunctionalTimeSeries,
    InvalidInputError,
    SegmentFit,
    check_float,
    check_integer,
    check_positive_or_auto,
    fit_segments,
    median,
    row_blocks,
    segments_from_indices,
    sup_norm,
)
from .lrv import estimate_lrv

# Gaussian-maximum scaling constant in the auto threshold
XI_SCALE = 1.5
# auto Delta: the end windows hold this fraction of the curves, and their
# means' sup-norm distance is divided by AUTO_DIVISOR
AUTO_FRACTION = 0.05
AUTO_DIVISOR = 3.0


@dataclass(frozen=True)
class SegmentationConfig:
    threshold: float | str = "auto"  # xi_n
    min_segment_length: int | None = None  # default max(20, ceil(sqrt(n)))
    max_changes: int = 50

    def __post_init__(self):
        check_positive_or_auto("threshold", self.threshold)
        if self.min_segment_length is not None:
            check_integer("min_segment_length", self.min_segment_length, 2)
        check_integer("max_changes", self.max_changes, 0)


@dataclass(frozen=True)
class ChangePointSet:
    """Ordered change indices and their rescaled locations s_i = j_i / n."""

    indices: tuple
    n: int
    threshold: float

    @property
    def locations(self) -> tuple:
        return tuple(j / self.n for j in self.indices)

    @property
    def m(self) -> int:
        return len(self.indices)

    @property
    def segments(self) -> list:
        return segments_from_indices(self.n, self.indices)


@dataclass(frozen=True)
class RelevantChangeConfig:
    delta: float | str = "auto"
    beta: float = 0.05
    method: str = "plugin"  # or "bootstrap" for a beta-calibrated margin
    calibration_replications: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        check_float("beta", self.beta, (0, 1))
        check_positive_or_auto("delta", self.delta)
        if self.method not in ("plugin", "bootstrap"):
            raise InvalidInputError("method must be 'plugin' or 'bootstrap'")
        check_integer("calibration_replications", self.calibration_replications, 1)
        check_integer("rng_seed", self.rng_seed, 0)


@dataclass(frozen=True)
class RelevantSet:
    """Indices {0, i_1, ..., i_k} whose jumps strictly exceed delta."""

    indices: tuple
    delta: float
    all_jumps: tuple  # ||mu_i - mu_{i-1}||_inf at every detected change i, in order


def _best_split(prefix: np.ndarray, lo: int, hi: int, msl: int):
    """Max over admissible splits of the interval CUSUM; ties -> smallest index.

    `prefix` is the (T, n + 1) array of the series' prefix sums,
    P[:, i] = sum_{l<i} x_l, so the partial sums of [lo, hi) are
    S_k = P[:, lo + k] - P[:, lo] and the interval runs no cumsum of its
    own.  U_k = S_k - (k / m) S_m is formed as P[:, lo + k] - (P[:, lo] +
    (k / m) S_m), so one block-sized buffer holds it.  The rows are scanned
    in blocks of about `core._BLOCK_ENTRIES` entries, keeping a running
    np.maximum of each block's column maxima, so the (T, m) products never
    leave the cache; max is exact, so blocking does not change the bits.
    Returns (statistic, global split index) or None when no split leaves
    both sides with at least msl curves.  Only the column maxima are divided
    by sqrt(m): rounding x / s is monotone in x, so this gives the same bits
    as dividing every entry first.
    """
    m = hi - lo
    if m < 2 * msl:
        return None
    ks = np.arange(msl, m - msl + 1)
    fractions = ks / m
    blocks = row_blocks(prefix.shape[0], m)
    u = np.empty((blocks[0][1], ks.size))
    stats, block_max = np.full(ks.size, -np.inf), np.empty(ks.size)
    for a, b in blocks:
        ub = u[: b - a]
        np.multiply.outer(prefix[a:b, hi] - prefix[a:b, lo], fractions, out=ub)
        ub += prefix[a:b, lo, None]
        np.subtract(prefix[a:b, lo + msl : hi - msl + 1], ub, out=ub)
        np.abs(ub, out=ub).max(axis=0, out=block_max)
        np.maximum(stats, block_max, out=stats)
    stats /= np.sqrt(m)
    best = int(np.argmax(stats))  # first max: smallest split index
    return float(stats[best]), lo + int(ks[best])


def _binary_segmentation(scan, n: int, xi: float, max_changes: int) -> list:
    """Sorted split indices that best-first binary segmentation at xi keeps.

    `scan(lo, hi)` is `_best_split` of the interval.  The heap pops the
    largest statistic first, ties by (j, lo, hi), and stops at the first pop
    whose statistic is <= xi or at max_changes changes; each accepted split
    pushes both of its sides.
    """
    heap = []

    def push(lo: int, hi: int) -> None:
        found = scan(lo, hi)
        if found is not None:
            heapq.heappush(heap, (-found[0], found[1], lo, hi))

    push(0, n)
    changes = []
    while heap and len(changes) < max_changes:
        neg_stat, j, lo, hi = heapq.heappop(heap)
        if -neg_stat <= xi:
            break
        changes.append(j)
        push(lo, j)
        push(j, hi)
    return sorted(changes)


def _default_msl(n: int) -> int:
    return max(20, int(np.ceil(np.sqrt(n))))


def _interval_scan(values: np.ndarray, msl: int) -> tuple:
    """(scan, drop_prefix): scan(lo, hi) is the memoized `_best_split` of
    [lo, hi) over the (T, n + 1) prefix sums P[:, i] = sum_{l<i} x_l of the
    (n, T) series `values`.  P is read off the series in one strided cumsum
    on the first interval that is not memoized, and drop_prefix() lets it
    go; a later interval that is not memoized forms it again."""
    prefix = []

    @cache
    def scan(lo: int, hi: int):
        if not prefix:
            p = np.empty((values.shape[1], values.shape[0] + 1))
            p[:, 0] = 0.0
            np.cumsum(values.T, axis=1, out=p[:, 1:])
            prefix.append(p)
        return _best_split(prefix[0], lo, hi, msl)

    return scan, prefix.clear


def _auto_threshold(x: FunctionalTimeSeries, scan, drop_prefix, max_changes: int) -> tuple:
    """xi_n = 1.5 * sigma_bar * sqrt(2 log n), sigma_bar from the lag-window LRV.

    The LRV needs segment means, so a pilot segmentation breaks the circular
    dependency: its threshold uses a first-difference variance proxy, which is
    robust to mean shifts.  The pilot segments with the caller's memoized
    `scan`, which the final threshold then reuses.  The proxy's differences
    are dropped before the pilot's scans form the prefix sums, and the prefix
    sums (`drop_prefix`) before the pilot's LRV is estimated, so no two of
    these (n, T) arrays are alive at once.  The pilot LRV always uses
    the default LrvConfig, whatever kernel and bandwidth the analysis asks for.
    The thresholds' floor scales with max |x|, `x.peak`.  Returns xi_n, the
    pilot's change indices, and the pilot's (fit, LRV).
    """
    n = x.n
    scale = np.sqrt(2.0 * np.log(n))
    floor = 1e-10 * max(1.0, x.peak)

    d = np.diff(x.values, axis=0)
    np.square(d, out=d)
    proxy = d.mean(axis=0) / 2.0
    del d  # gone before the pilot's scans form the prefix sums
    pilot_xi = max(XI_SCALE * median(np.sqrt(proxy)) * scale, floor)
    pilot = _binary_segmentation(scan, n, pilot_xi, max_changes)
    drop_prefix()

    fit = fit_segments(x, segments_from_indices(n, pilot))
    lrv = estimate_lrv(fit.residuals(x))
    sigma_bar = median(np.sqrt(lrv.sigma2.values))
    return max(XI_SCALE * sigma_bar * scale, floor), pilot, (fit, lrv)


def detect_change_points(
    x: FunctionalTimeSeries, cfg: SegmentationConfig | None = None, *, pilot_out: list | None = None
) -> ChangePointSet:
    """Estimate the number and rescaled locations of mean change points.

    The scans read the series' (T, n + 1) prefix sums.  With the auto
    threshold, the final threshold forms them again only for an interval
    the pilot never scanned, which needs a final xi below the pilot's.
    When the final indices equal the pilot's and the caller passes a list
    as `pilot_out`, the pilot's `SegmentFit` and its default-config
    `LrvEstimate` are appended to it; otherwise the list is left empty.
    """
    cfg = cfg or SegmentationConfig()
    msl = cfg.min_segment_length or _default_msl(x.n)
    if x.n < 2 * msl:
        raise InvalidInputError(
            f"series length {x.n} is below 2 * min_segment_length = {2 * msl}"
        )
    scan, drop_prefix = _interval_scan(x.values, msl)
    pilot = None
    if cfg.threshold == "auto":
        xi, pilot, pilot_results = _auto_threshold(x, scan, drop_prefix, cfg.max_changes)
    else:
        xi = float(cfg.threshold)
    changes = _binary_segmentation(scan, x.n, xi, cfg.max_changes)
    if changes == pilot and pilot_out is not None:
        pilot_out.extend(pilot_results)
    return ChangePointSet(indices=tuple(changes), n=x.n, threshold=xi)


def auto_delta(x: FunctionalTimeSeries) -> float:
    """Data-driven Delta: sup-norm distance of the early and late window means
    divided by AUTO_DIVISOR (windows hold the first and last
    ceil(AUTO_FRACTION * n) curves, at least one)."""
    w = int(np.ceil(AUTO_FRACTION * x.n))
    mu_initial = x.values[:w].mean(axis=0)
    mu_final = x.values[-w:].mean(axis=0)
    return sup_norm(mu_final - mu_initial) / AUTO_DIVISOR


def relevant_set(
    x: FunctionalTimeSeries,
    cps: ChangePointSet,
    cfg: RelevantChangeConfig | None = None,
    *,
    fit: SegmentFit | None = None,
) -> RelevantSet:
    """Filter detected changes down to those with jump sup-norm > Delta.

    Index 0 is always included.  In the default plug-in mode the comparison
    margin is 0; method='bootstrap' adds a beta-calibrated margin.  A caller
    that has formed the fit of `x` over cps.segments passes it in so it is
    not formed twice; a fit over other segments or on another grid is
    refused.
    """
    cfg = cfg or RelevantChangeConfig()
    if cps.n != x.n:
        raise InvalidInputError("change point set was computed for a different series")
    delta = auto_delta(x) if cfg.delta == "auto" else float(cfg.delta)
    if delta <= 0.0:
        raise InvalidInputError(
            "auto delta is zero (identical end windows); supply an explicit delta"
        )
    if fit is None:
        fit = fit_segments(x, cps.segments)
    elif fit.segments != tuple(cps.segments) or fit.grid != x.grid:
        raise InvalidInputError("segment fit is not over the change point set's segments on the series' grid")
    jumps = [sup_norm(fit.means[i] - fit.means[i - 1]) for i in range(1, len(fit.means))]

    margins = [0.0] * len(jumps)
    if cfg.method == "bootstrap":
        y = fit.residuals(x)
        margins = [
            bootstrap_margin(y, i, cfg.beta, cfg.calibration_replications, cfg.rng_seed)
            for i in range(1, len(fit.segments))
        ]

    indices = (0,) + tuple(
        i for i, (jump, margin) in enumerate(zip(jumps, margins), start=1) if jump > delta + margin
    )
    return RelevantSet(indices=indices, delta=delta, all_jumps=tuple(jumps))
