"""Long-run variance estimation via the lag-window (kernel) estimator.

The pointwise long-run variance sigma^2(t) is the sum over all lags of the
error autocovariances at t.  It is estimated by a weighted sum of empirical
lag covariances, sigma2_hat = sum_{l=-c}^{c} sigma2_hat_l * K(l/c), where K
is a kernel with K(0)=1, K(1)=0, K symmetric and vanishing outside [-1, 1].

Both factors of a lag covariance are centred at the estimated segment mean
of the left index j, so with the residual e = x - mu_hat of the segment fit,
lag +a is sum_j e_j * e_{j+a} plus the boundary correction
sum_j e_j * (mu_{j+a} - mu_j), and lag -a is the same main sum minus
sum_j e_{j+a} * (mu_{j+a} - mu_j).  The corrections vanish unless j and j+a
lie in different segments, and mu_{j+a} - mu_j is the sum of the steps
d_i = mu_i - mu_{i-1} of the boundaries that j and j+a straddle, so each
correction is a sum over boundaries: d_i times the sum of e_j (or e_{j+a})
over the at most a rows j just before boundary i.  `estimate_lrv` forms
one main sum per |a|, over the residual rows a row block at a time, and
reads the corrections off the rows within the bandwidth of each boundary
of `y.fit`, the fit the rows are formed from, so the two cannot come from
two fits; no (n, T) residual matrix is formed.  The definitional lag
covariance that the tests compare against is `lag_covariance` in
tests/oracles.py.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Curve, InvalidInputError, ResidualSeries, check_integer, row_blocks


def _bartlett(x):
    x = np.abs(np.asarray(x, dtype=float))
    return np.where(x <= 1.0, 1.0 - x, 0.0)


def _parzen(x):
    x = np.abs(np.asarray(x, dtype=float))
    inner = 1.0 - 6.0 * x**2 + 6.0 * x**3
    outer = 2.0 * (1.0 - np.clip(x, 0.0, 1.0)) ** 3
    return np.where(x <= 0.5, inner, np.where(x <= 1.0, outer, 0.0))


def _flat_top(x):
    # unit plateau to 1/2, linear taper hitting zero at 1
    x = np.abs(np.asarray(x, dtype=float))
    return np.clip(np.minimum(1.0, 2.0 * (1.0 - x)), 0.0, 1.0)


# Lag-window kernels by name: symmetric weight functions with K(0)=1, K(1)=0
# and K=0 outside [-1, 1].
KERNELS = {"bartlett": _bartlett, "parzen": _parzen, "flat_top": _flat_top}


@dataclass(frozen=True)
class LrvConfig:
    bandwidth: int | str = "auto"
    kernel: str = "bartlett"  # a name in KERNELS

    def __post_init__(self):
        check_integer("bandwidth", self.bandwidth, 1, auto=True)
        if not isinstance(self.kernel, str) or self.kernel not in KERNELS:
            raise InvalidInputError(
                f"unknown kernel {self.kernel!r}; choose from {sorted(KERNELS)}"
            )


@dataclass(frozen=True)
class LrvEstimate:
    """Floored pointwise long-run variance and the bandwidth c it used."""

    sigma2: Curve
    bandwidth: int


def auto_bandwidth(n: int) -> int:
    """Default bandwidth floor(n^(1/4)); satisfies c -> inf and c^3/n -> 0."""
    if n < 4:
        raise InvalidInputError("auto bandwidth needs n >= 4")
    return max(1, int(np.floor(n**0.25 + 1e-9)))


def estimate_lrv(y: ResidualSeries, cfg: LrvConfig | None = None) -> LrvEstimate:
    """Lag-window long-run variance estimate from `y`, the residuals of `y.fit`.

    Sums kernel-weighted lag covariances for l = -c..c, then floors the result
    at 1e-8 times its maximum so later divisions by sigma_hat are safe.  Lags
    +a and -a share the main sum sum_j y_j * y_{j+a}, summed over the row
    blocks of `core.row_blocks`; each adds its boundary correction, summed
    boundary by boundary of `y.fit` (see the module docstring).  Equal to the
    kernel-weighted sum of definitional lag covariances up to rounding;
    bit-reproducible for fixed inputs.
    """
    cfg = cfg or LrvConfig()
    if not isinstance(cfg, LrvConfig):  # such as a second copy of the fit
        raise InvalidInputError(f"cfg must be an LrvConfig, got {type(cfg).__name__}")
    n = y.n
    c = auto_bandwidth(n) if cfg.bandwidth == "auto" else cfg.bandwidth
    if c >= n:
        raise InvalidInputError(f"bandwidth c = {c} must be < n = {n}")
    if c**3 / n >= 1.0:
        warnings.warn(
            f"bandwidth c = {c} violates c^3/n < 1 (n = {n}); estimate may be unstable",
            stacklevel=2,
        )
    width = len(y.grid)
    # main[a] = sum_j y_j * y_{j+a}: a block of rows j reads rows j + a of
    # the c rows past its end too
    main = np.zeros((c + 1, width))
    blocks = row_blocks(n, width)
    rows = np.empty((blocks[0][1] + c, width))
    for lo, hi in blocks:
        e = y.rows(lo, min(hi + c, n), out=rows)
        for a in range(c + 1):
            m = min(hi, n - a) - lo  # rows j in [lo, hi) with j + a < n
            if m > 0:
                main[a] += np.einsum("ij,ij->j", e[:m], e[a : a + m])
    # the rows j that straddle the boundary at s by lag a are
    # [max(s - a, 0), min(s, n - a)); from the prefix sums of the rows within
    # c of s, sums[a - 1] is their sum of y_j and shifted[a - 1] their sum
    # of y_{j+a}
    lags = np.arange(1, c + 1)
    plus, minus = np.zeros((c, width)), np.zeros((c, width))
    prefix = np.empty((2 * c + 1, width))
    for seg, step in zip(y.fit.segments[1:], np.diff(y.fit.means, axis=0)):
        s = seg.start
        lo, hi = max(s - c, 0), min(s + c, n)
        p = prefix[: hi - lo + 1]  # p[i]: the sum of rows [lo, lo + i)
        p[0] = 0.0
        np.cumsum(y.rows(lo, hi, out=p[1:]), axis=0, out=p[1:])
        first, last = np.maximum(s - lags, 0) - lo, np.minimum(s, n - lags) - lo
        sums = p[last] - p[first]
        shifted = p[last + lags] - p[first + lags]
        plus += sums * step
        minus += shifted * step
    kernel = KERNELS[cfg.kernel]
    total = float(kernel(0.0)) * main[0]
    for a in range(1, c + 1):
        total += (
            float(kernel(a / c)) * (main[a] + plus[a - 1])
            + float(kernel(-a / c)) * (main[a] - minus[a - 1])
        )
    total /= n
    floor = 1e-8 * max(float(total.max()), 0.0)
    if floor <= 0.0:
        floor = float(np.finfo(float).tiny)
    return LrvEstimate(sigma2=Curve(np.maximum(total, floor), y.grid), bandwidth=c)
