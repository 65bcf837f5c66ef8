"""Long-run variance estimation via the lag-window (kernel) estimator.

The pointwise long-run variance sigma^2(t) is the sum over all lags of the
error autocovariances at t.  It is estimated by a weighted sum of empirical
lag covariances, sigma2_hat = sum_{l=-c}^{c} sigma2_hat_l * K(l/c), where K
is a kernel with K(0)=1, K(1)=0, K symmetric and vanishing outside [-1, 1].

Both factors of a lag covariance are centred at mu_hat of the left index j,
so with the residual e = x - mu_hat, taken once, lag +a is
sum_j e_j * e_{j+a} plus the boundary correction sum_j e_j * (mu_{j+a} - mu_j),
and lag -a is the same main sum minus sum_j e_{j+a} * (mu_{j+a} - mu_j).  The
corrections vanish except on the rows j where mu_hat changes between j and
j+a, near the change points, so `estimate_lrv` forms one main sum per |a| and
corrects it on those rows only; `lag_covariance` keeps the definition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Curve, FunctionalTimeSeries, InvalidInputError


@dataclass(frozen=True)
class Kernel:
    """Symmetric lag-window weight function with K(0)=1, K(1)=0, K=0 outside [-1,1]."""

    name: str
    evaluate: Callable[[float], float]

    def __call__(self, x):
        return self.evaluate(x)


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


BARTLETT = Kernel("bartlett", _bartlett)
PARZEN = Kernel("parzen", _parzen)
FLAT_TOP = Kernel("flat_top", _flat_top)

KERNELS = {k.name: k for k in (BARTLETT, PARZEN, FLAT_TOP)}


def get_kernel(name: str) -> Kernel:
    try:
        return KERNELS[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown kernel {name!r}; choose from {sorted(KERNELS)}"
        ) from None


@dataclass(frozen=True)
class LrvConfig:
    bandwidth: int | str = "auto"
    kernel: Kernel = BARTLETT

    def __post_init__(self):
        if self.bandwidth != "auto":
            if int(self.bandwidth) < 1:
                raise InvalidInputError("bandwidth must be a positive integer or 'auto'")


@dataclass(frozen=True)
class LrvEstimate:
    """Floored pointwise long-run variance plus the settings that built it."""

    sigma2: Curve
    config: LrvConfig
    bandwidth: int
    floor: float


def lag_covariance(x: FunctionalTimeSeries, seg_means: np.ndarray, l: int) -> Curve:
    """Empirical lag-l covariance curve with both factors centered at mu_hat^(j).

    For l >= 0 the sum runs over j = 0..n-l-1; for l < 0 over j = -l..n-1.
    Divisor is n in both cases.
    """
    mu = np.asarray(seg_means, dtype=float)
    n = x.n
    if mu.shape != x.values.shape:
        raise InvalidInputError("mean assignment shape must match the series")
    if abs(l) >= n:
        raise InvalidInputError(f"|lag| = {abs(l)} must be < n = {n}")
    if l >= 0:
        left = x.values[: n - l] - mu[: n - l]
        right = x.values[l:] - mu[: n - l]
    else:
        a = -l
        left = x.values[a:] - mu[a:]
        right = x.values[: n - a] - mu[a:]
    return Curve((left * right).sum(axis=0) / n, x.grid)


def auto_bandwidth(n: int) -> int:
    """Default bandwidth floor(n^(1/4)); satisfies c -> inf and c^3/n -> 0."""
    if n < 4:
        raise InvalidInputError("auto bandwidth needs n >= 4")
    return max(1, int(np.floor(n**0.25 + 1e-9)))


def estimate_lrv(
    x: FunctionalTimeSeries, seg_means: np.ndarray, cfg: LrvConfig | None = None
) -> LrvEstimate:
    """Lag-window long-run variance estimate on the grid.

    Sums kernel-weighted lag covariances for l = -c..c, then floors the result
    at 1e-8 times its maximum so later divisions by sigma_hat are safe.  The
    residual e = x - seg_means is formed once; lags +a and -a share the main
    sum sum_j e_j * e_{j+a}, and each adds its boundary correction over the
    rows j where seg_means changes between j and j+a (see the module
    docstring).  Equal to the kernel-weighted sum of `lag_covariance` up to
    rounding; bit-reproducible for fixed inputs.
    """
    cfg = cfg or LrvConfig()
    n = x.n
    c = auto_bandwidth(n) if cfg.bandwidth == "auto" else int(cfg.bandwidth)
    if c >= n:
        raise InvalidInputError(f"bandwidth c = {c} must be < n = {n}")
    if c**3 / n >= 1.0:
        warnings.warn(
            f"bandwidth c = {c} violates c^3/n < 1 (n = {n}); estimate may be unstable",
            stacklevel=2,
        )
    mu = np.asarray(seg_means, dtype=float)
    if mu.shape != x.values.shape:
        raise InvalidInputError("mean assignment shape must match the series")
    e = x.values - mu
    # mu changes between rows i and i + 1 exactly for i in `changes`
    changes = np.flatnonzero(np.any(mu[1:] != mu[:-1], axis=1))
    total = float(cfg.kernel(0.0)) * np.einsum("ij,ij->j", e, e)
    for a in range(1, c + 1):
        main = np.einsum("ij,ij->j", e[: n - a], e[a:])
        # rows j whose lag-a partner j + a lies past a change of mu
        j = np.unique(changes[:, None] - np.arange(a))
        j = j[(j >= 0) & (j < n - a)]
        step = mu[j + a] - mu[j]
        plus = main + np.einsum("ij,ij->j", e[j], step)
        minus = main - np.einsum("ij,ij->j", e[j + a], step)
        total += float(cfg.kernel(a / c)) * plus + float(cfg.kernel(-a / c)) * minus
    total /= n
    floor = 1e-8 * max(float(total.max()), 0.0)
    if floor <= 0.0:
        floor = float(np.finfo(float).tiny)
    sigma2 = Curve(np.maximum(total, floor), x.grid)
    return LrvEstimate(sigma2=sigma2, config=cfg, bandwidth=c, floor=floor)
