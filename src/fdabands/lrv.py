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
lie in different segments, which happens only on the a rows before each
segment boundary, so `estimate_lrv` forms one main sum per |a| and corrects
it on those rows only.  The definitional lag covariance that the tests
compare against is `lag_covariance` in tests/oracles.py.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Curve, InvalidInputError, ResidualSeries, SegmentFit, check_integer


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


def _boundary_rows(changes: np.ndarray, a: int, n: int) -> np.ndarray:
    """Rows j < n - a whose lag-a partner j + a lies past a segment boundary,
    where a boundary follows each row in `changes`: each row once, ascending.

    These are np.unique's rows, sorted and deduplicated here because numpy
    >= 2 imports numpy.ma on a process's first np.unique call.
    """
    j = np.sort(changes[:, None] - np.arange(a), axis=None)
    j = j[(j >= 0) & (j < n - a)]
    return j[np.diff(j, prepend=-1) != 0]  # the -1 keeps the first row


def estimate_lrv(y: ResidualSeries, fit: SegmentFit, cfg: LrvConfig | None = None) -> LrvEstimate:
    """Lag-window long-run variance estimate from `y`, the residuals of `fit`.

    Sums kernel-weighted lag covariances for l = -c..c, then floors the result
    at 1e-8 times its maximum so later divisions by sigma_hat are safe.  Lags
    +a and -a share the main sum sum_j y_j * y_{j+a}; each adds its boundary
    correction over the rows j just before a segment boundary of `fit` (see
    the module docstring).  Equal to the kernel-weighted sum of definitional
    lag covariances up to rounding; bit-reproducible for fixed inputs.
    """
    cfg = cfg or LrvConfig()
    n = y.n
    if fit.segments[-1].end != n or fit.grid != y.grid:
        raise InvalidInputError("segment fit does not match the residual series")
    c = auto_bandwidth(n) if cfg.bandwidth == "auto" else cfg.bandwidth
    if c >= n:
        raise InvalidInputError(f"bandwidth c = {c} must be < n = {n}")
    if c**3 / n >= 1.0:
        warnings.warn(
            f"bandwidth c = {c} violates c^3/n < 1 (n = {n}); estimate may be unstable",
            stacklevel=2,
        )
    e = y.values
    # row j lies in segment k[j]; segment i + 1 starts after row changes[i]
    k = np.repeat(np.arange(len(fit.segments)), [seg.length for seg in fit.segments])
    changes = np.array([seg.start - 1 for seg in fit.segments[1:]], dtype=int)
    kernel = KERNELS[cfg.kernel]
    total = float(kernel(0.0)) * np.einsum("ij,ij->j", e, e)
    for a in range(1, c + 1):
        main = np.einsum("ij,ij->j", e[: n - a], e[a:])
        j = _boundary_rows(changes, a, n)
        step = fit.means[k[j + a]] - fit.means[k[j]]
        plus = main + np.einsum("ij,ij->j", e[j], step)
        minus = main - np.einsum("ij,ij->j", e[j + a], step)
        total += float(kernel(a / c)) * plus + float(kernel(-a / c)) * minus
    total /= n
    floor = 1e-8 * max(float(total.max()), 0.0)
    if floor <= 0.0:
        floor = float(np.finfo(float).tiny)
    return LrvEstimate(sigma2=Curve(np.maximum(total, floor), y.grid), bandwidth=c)
