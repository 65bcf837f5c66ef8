"""Multiplier block bootstrap for the sup-norm statistic of segment means.

A replicate weights L-length block averages of the segment-centered residuals
by iid standard normal multipliers, one per time index.  Given the data,
segment i's sqrt(n_i) * mu_i* / sigma_hat is then exactly N(0, M_i^T M_i) for
its scaled block matrix M_i = B_i / (sqrt(n_i) * sigma_hat), independently
across segments, and is drawn as z @ r with z ~ N(0, I) and r the symmetric
square root of B_i^T B_i with its columns divided by sqrt(n_i) * sigma_hat:
no (R, n) multiplier matrix.  The empirical (1 - alpha)-quantile of the
replicates of T* = max_i sqrt(n_i) * sup_t |mu_i*(t) / sigma_hat(t)|
calibrates the bands.
`bootstrap_margin` draws the relevant filter's jump-estimate fluctuation
between two adjacent segments the same way.  The definitional bootstrap
segment mean that the tests compare against is `bootstrap_segment_mean` in
tests/oracles.py.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Curve, InvalidInputError, ResidualSeries, Segment, check_float, check_integer

# the bit generator of every draw, named in diagnostics.txt
RNG_ALGORITHM = "philox"


@dataclass(frozen=True)
class BootstrapConfig:
    block_length: int | str = "auto"
    replications: int = 2000
    alpha: float = 0.1
    rng_seed: int = 0

    def __post_init__(self):
        check_float("alpha", self.alpha, (0, 1))
        check_integer("block_length", self.block_length, 1, auto=True)
        check_integer("replications", self.replications, 1)
        check_integer("rng_seed", self.rng_seed, 0)


@dataclass(frozen=True)
class BootstrapResult:
    statistics: np.ndarray = field(repr=False)
    quantile: float
    alpha: float
    block_length: int
    segment_diagnostics: dict = field(default_factory=dict)


def auto_block_length(n_min: int) -> int:
    """Default block length floor(n_min^(1/3)), clamped to [1, n_min]."""
    if n_min < 2:
        raise InvalidInputError("auto block length needs a segment of length >= 2")
    return min(n_min, max(1, int(np.floor(np.cbrt(n_min) + 1e-9))))


def _block_averages(y_values: np.ndarray, L: int) -> np.ndarray:
    """B_j = len_j^(-1/2) * sum_{l<L} Y_{j+l}, truncated at the series end.

    Blocks that would run past the last index use the available indices only
    and rescale by the square root of the actual block length.  Needs
    1 <= L <= n.
    """
    n = y_values.shape[0]
    padded = np.vstack([np.zeros((1,) + y_values.shape[1:]), np.cumsum(y_values, axis=0)])
    full = n + 1 - L  # blocks j < full hold L indices, block j >= full holds n - j
    out = np.empty_like(padded[1:])
    np.subtract(padded[L:], padded[:full], out=out[:full])
    np.subtract(padded[n], padded[full:n], out=out[full:])
    out[:full] /= np.sqrt(L)
    out[full:] /= np.sqrt(np.arange(L - 1, 0, -1))[:, None]
    return out


def _gaussian_draws(
    mat: np.ndarray, replications: int, rng: np.random.Generator, scale=1.0
) -> np.ndarray:
    """Rows drawn from N(0, M^T M) with M = mat / scale (columns divided by a
    positive `scale`), the law of nu @ M for standard normal nu: with S the
    symmetric square root of mat^T mat, r = S / scale has r^T r = M^T M, also
    when mat is rank-deficient or zero.

    S is continuous in mat: a change of eps in mat^T mat moves S by at most
    about sqrt(eps), where a QR factor of a block matrix of low numerical rank
    turns by far more.  For the same reason the columns of S are scaled
    rather than those of mat: a last-bit change in sigma_hat then only
    rescales the draws.
    """
    lam, v = np.linalg.eigh(mat.T @ mat)
    r = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.T / scale
    return rng.standard_normal((replications, r.shape[0])) @ r


def _empirical_quantile(values: np.ndarray, level: float) -> float:
    """Smallest value whose ascending rank is >= ceil(level * R)."""
    r = values.size
    rank = int(np.ceil(level * r))
    rank = min(max(rank, 1), r)
    return float(np.sort(values)[rank - 1])


def bootstrap_margin(
    residuals: np.ndarray, left: Segment, right: Segment, beta: float, replications: int, seed
) -> float:
    """(1 - beta)-quantile of the bootstrapped jump-estimate fluctuation.

    Reuses the multiplier block bootstrap on the residuals of the two segments
    adjacent to a change to calibrate how far a jump estimate can stray from
    its target under the null; the jump difference nu @ [-B_left / n_left;
    B_right / n_right] is Gaussian given the data and is drawn exactly.
    """
    resid = residuals[left.start : right.end]
    L = auto_block_length(min(left.length, right.length))
    B = _block_averages(resid, L)
    diff = np.vstack([-B[: left.length] / left.length, B[left.length :] / right.length])
    rng = np.random.Generator(np.random.Philox(seed))  # seed: an int or (rng_seed, i)
    draws = np.abs(_gaussian_draws(diff, replications, rng)).max(axis=1)
    return _empirical_quantile(draws, 1.0 - beta)


def run_bootstrap(
    y: ResidualSeries,
    segments,
    sigma2: Curve,
    cfg: BootstrapConfig,
) -> BootstrapResult:
    """R replicate statistics T* and their empirical (1 - alpha)-quantile.

    Segments draw their replicates in order from one Philox stream seeded
    with cfg.rng_seed, so results are bit-identical for a fixed seed.
    """
    segments = list(segments)
    if not segments:
        raise InvalidInputError("need at least one segment (index 0 is always relevant)")
    R = cfg.replications
    if R < 100:
        warnings.warn("fewer than 100 bootstrap replications: quantile unstable", stacklevel=2)
    n_min = min(seg.length for seg in segments)
    L = auto_block_length(n_min) if cfg.block_length == "auto" else cfg.block_length
    if not 1 <= L <= n_min:
        raise InvalidInputError(
            f"block length {L} must lie in [1, {n_min}] (shortest segment)"
        )
    if np.any(sigma2.values <= 0.0):
        raise InvalidInputError("sigma^2 must be floored strictly positive")
    sigma = np.sqrt(sigma2.values)

    B = _block_averages(y.values, L)
    rng = np.random.Generator(np.random.Philox(cfg.rng_seed))
    per_segment = np.empty((R, len(segments)))
    for k, seg in enumerate(segments):
        # nu @ block / (sqrt(n_i) * sigma) is sqrt(n_i) * mu_i* / sigma
        block = B[seg.start : seg.end]
        draws = _gaussian_draws(block, R, rng, np.sqrt(seg.length) * sigma)
        per_segment[:, k] = np.abs(draws).max(axis=1)
    stats = per_segment.max(axis=1)
    q = _empirical_quantile(stats, 1.0 - cfg.alpha)

    argmax = per_segment.argmax(axis=1)
    diagnostics = {
        k: {
            "quantile": _empirical_quantile(per_segment[:, k], 1.0 - cfg.alpha),
            "max_share": float(np.mean(argmax == k)),
        }
        for k in range(len(segments))
    }
    stats.setflags(write=False)
    return BootstrapResult(
        statistics=stats,
        quantile=q,
        alpha=cfg.alpha,
        block_length=L,
        segment_diagnostics=diagnostics,
    )
