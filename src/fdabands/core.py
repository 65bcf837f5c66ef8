"""Core data model: grids, curves, functional time series, segments.

All types are immutable after construction (backing arrays are marked
read-only) and safe to share across parallel workers.
"""

from __future__ import annotations

import bisect
import math
import numbers
import typing
from dataclasses import dataclass, field

import numpy as np


class InvalidInputError(ValueError):
    """Raised when user-supplied data or configuration is unusable."""


class InternalInvariantError(RuntimeError):
    """Raised when an internal consistency check fails (a bug, not bad input)."""


def check_field_value(cls, key: str, value, what: str) -> None:
    """A value read from JSON must fit the type of dataclass `cls`'s field
    `key`: an integer may stand for a float and a list for a tuple, a bool is
    no number, and a numeric field takes a string only as "auto"."""
    hint = typing.get_type_hints(cls)[key]
    allowed = set(typing.get_args(hint) or (hint,))
    if object in allowed:
        return
    numeric = bool(allowed & {int, float})
    if float in allowed:
        allowed.add(int)
    if tuple in allowed:
        allowed.add(list)
    if isinstance(value, bool) or not isinstance(value, tuple(allowed)) or (
        numeric and isinstance(value, str) and value != "auto"
    ):
        expected = str(cls.__dataclass_fields__[key].type)
        expected = expected.replace("str", "'auto'") if numeric else expected
        raise InvalidInputError(f"{what} {key!r} must be {expected}, got {value!r}")


def check_positive_or_auto(name: str, value) -> None:
    """A threshold is "auto" or a finite positive number: every comparison
    with NaN is false, so a NaN threshold would accept every split."""
    if value == "auto":
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        math.isfinite(value) and value > 0.0
    ):
        raise InvalidInputError(f"{name} must be a finite positive number or 'auto', got {value!r}")


def check_integer(name: str, value, minimum: int, auto: bool = False) -> None:
    """An integer setting is an integer (not a bool) >= `minimum`, or "auto"
    where `auto` allows it; a float would be truncated where it is used."""
    if auto and value == "auto":
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        expected = f"an integer >= {minimum}" + (" or 'auto'" if auto else "")
        raise InvalidInputError(f"{name} must be {expected}, got {value!r}")


def check_float(name: str, value, interval: tuple | None = None) -> None:
    """A float setting is a finite real number (not a bool), inside the open
    `interval` (lo, hi) where one is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
    if interval is not None and not interval[0] < value < interval[1]:
        raise InvalidInputError(f"{name} must lie in ({interval[0]:g}, {interval[1]:g})")


# float64 entries per row block of the blocked passes: the CUSUM interval
# scans over the detection's prefix sums and the bootstrap's block-average
# prefix sums, which run many times per analysis and measured faster
# blocked; ingest's resample, the LRV's lag sums over the residual rows, the
# bootstrap's Gram sums and its draw chunks, and the MA(1) step of
# simulate's `_generate_batch`, whose temporaries a block bounds, so none
# forms a second series-sized array: 512 KB, so a
# block and its temporaries stay in a 2 MB L2 cache
_BLOCK_ENTRIES = 1 << 16


def row_blocks(n: int, width: int) -> list:
    """(start, stop) of the consecutive row blocks that cover [0, n) when a
    row holds `width` entries: _BLOCK_ENTRIES // width rows each, at least
    one, the last block shorter."""
    rows = max(1, _BLOCK_ENTRIES // width)
    return [(a, min(a + rows, n)) for a in range(0, n, rows)]


def _read_only(a: np.ndarray) -> bool:
    """Neither `a` nor any array whose data it views is writable."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None  # a buffer that is not an array may still be written


def _frozen_array(values, dtype=float) -> np.ndarray:
    """`values` as a read-only C-ordered array: `values` itself when it is
    one already and no writable array views its data (a series a generator
    or reader just built and froze), a copy otherwise."""
    # C order whatever the input's layout: numpy reduces C- and Fortran-ordered
    # arrays in different orders, so the layout would change the results' bits
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.flags.c_contiguous
        and _read_only(values)
    ):
        return values
    a = np.array(values, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """Shared sample locations in [0, 1], strictly increasing, length >= 2."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise InvalidInputError("grid needs at least 2 one-dimensional points")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("grid points must be finite")
        if pts[0] < 0.0 or pts[-1] > 1.0 or np.any(np.diff(pts) <= 0):
            raise InvalidInputError("grid points must be strictly increasing within [0, 1]")
        object.__setattr__(self, "points", _frozen_array(pts))

    @classmethod
    def uniform(cls, size: int = 100) -> "Grid":
        """Uniform grid t_k = k/(size-1), k = 0..size-1."""
        check_integer("grid size", size, 2)
        return cls(np.linspace(0.0, 1.0, size))

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash((self.points.size, float(self.points[0]), float(self.points[-1])))


@dataclass(frozen=True, eq=False)
class Curve:
    """One function sampled on a grid; values share the curve's units."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise InvalidInputError("curve values must be one-dimensional")
        if vals.size != len(self.grid):
            raise InvalidInputError(
                f"curve has {vals.size} values but grid has {len(self.grid)} points"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("curve values must be finite")
        object.__setattr__(self, "values", _frozen_array(vals))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class FunctionalTimeSeries:
    """n curves on one shared grid, stored row-wise as an (n, T) matrix.

    `peak` is max |x|, read once here from one max and one min, with no
    (n, T) array of absolute values.  A series with a non-finite value, or
    whose sums of squares could overflow float64, is refused where it is
    built, so every entry point that takes a series is covered.  With
    peak = M, no sum of squares that the analysis forms exceeds
    (2M)^2 n^2 max(4, T): the first-difference proxy sums n - 1 squares of
    differences |d| <= 2M; the LRV sums fewer than 4 n^2 lag products of
    residuals |e| <= 2M and of their boundary steps (bandwidth c < n,
    kernel weights <= 1); and the eigenvalues of the bootstrap's B^T B are
    at most its trace, T n_i L squares of block sums |B| <= sqrt(L) 2M
    (L <= n_i <= n).  So the series is refused before any of them
    overflows into a numpy warning or a non-finite variance.
    """

    values: np.ndarray
    grid: Grid
    peak: float = field(init=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise InvalidInputError("series values must be an (n, T) matrix")
        if vals.shape[0] < 1:
            raise InvalidInputError("series needs at least one curve")
        if vals.shape[1] != len(self.grid):
            raise InvalidInputError(
                f"series has {vals.shape[1]} columns but grid has {len(self.grid)} points"
            )
        # NaN and +-inf propagate through both reductions
        peak = max(float(vals.max()), -float(vals.min()))
        if not math.isfinite(peak):
            raise InvalidInputError("series values must be finite")
        n, width = vals.shape
        if 2.0 * peak * n * math.sqrt(max(4, width)) > math.sqrt(np.finfo(float).max):
            raise InvalidInputError(
                f"series values reach {peak:.3g}, so at n = {n}, T = {width} the analysis's "
                "sums of squares could overflow; rescale the series (e.g. to unit scale)"
            )
        object.__setattr__(self, "values", _frozen_array(vals))
        object.__setattr__(self, "peak", peak)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Segment:
    """Half-open index range [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise InvalidInputError(f"segment [{self.start}, {self.end}) is empty or negative")

    @property
    def length(self) -> int:
        return self.end - self.start


def sup_norm(c) -> float:
    """Maximum absolute value over the grid (the discrete sup-norm)."""
    vals = c.values if isinstance(c, Curve) else np.asarray(c, dtype=float)
    if vals.size == 0:
        raise InvalidInputError("sup_norm of an empty curve is undefined")
    return float(np.max(np.abs(vals)))


def median(values) -> float:
    """The median of the finite 1-D `values`, with np.median's exact bits.

    np.median takes the mean of the one or two middle values of the sorted
    array, and that mean sums from +0.0, so a -0.0 middle value reads +0.0.
    Written out because numpy >= 2 imports numpy.ma on a process's first
    np.median call, and the analysis builds no masked array.
    """
    v = np.sort(np.asarray(values, dtype=float))
    mid = v.size // 2
    if v.size % 2:
        return float(0.0 + v[mid])
    return float((0.0 + v[mid - 1] + v[mid]) / 2.0)


def segments_from_indices(n: int, cuts) -> list:
    """Partition [0, n) at the integer change indices `cuts` (ascending):
    segments [cut_i, cut_{i+1}) with cut_0 = 0 and a final cut at n."""
    bounds = [0, *cuts, n]
    if any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise InvalidInputError(f"change indices {list(cuts)} induce an empty segment for n={n}")
    return [Segment(a, b) for a, b in zip(bounds, bounds[1:])]


def segments_from_locations(n: int, locations) -> list:
    """Partition [0, n) at indices floor(n * s) for each rescaled location s."""
    # the epsilon keeps floor(n * (j/n)) == j despite float rounding
    return segments_from_indices(n, [int(np.floor(n * s + 1e-9)) for s in locations])


def _check_partition(segments: tuple, n: int) -> None:
    """`segments` partition [0, n) in order."""
    bounds = [0, *(seg.end for seg in segments)]
    if len(bounds) < 2 or [seg.start for seg in segments] != bounds[:-1] or bounds[-1] != n:
        raise InvalidInputError(f"segments do not partition [0, n) in order, n = {n}")


@dataclass(frozen=True, eq=False)
class SegmentFit:
    """Mean curves of `series` over a partition of [0, n).

    The fit holds the series it was fit to, so the stages after detection
    read the residuals, segments and means off one object and cannot pair a
    fit with another series.  Only the k mean curves are stored beside the
    series: `rows` forms residual rows Y_j = X_j - mu_hat^(j) where they are
    read, so a kept fit holds no (n, T) matrix.  Segments that are no
    partition and means of another shape than (k, T) are refused.
    """

    series: FunctionalTimeSeries
    segments: tuple  # partition of [0, n), in order
    means: np.ndarray  # (k, T): row i is the mean curve of segments[i]

    def __post_init__(self):
        segments = tuple(self.segments)
        _check_partition(segments, self.series.n)
        means = _frozen_array(self.means)
        if means.shape != (len(segments), len(self.grid)):
            raise InvalidInputError(f"means of shape {means.shape}, not ({len(segments)}, {len(self.grid)})")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "means", means)

    @property
    def n(self) -> int:
        return self.series.n

    @property
    def grid(self) -> Grid:
        return self.series.grid

    def rows(self, a: int, b: int, out: np.ndarray | None = None) -> np.ndarray:
        """Residual rows [a, b), 0 <= a < b <= n, written into out[: b - a]
        (a new array where `out` is None) and returned: one subtract of a
        segment's mean curve per segment that the rows meet."""
        values = self.series.values
        out = np.empty((b - a, values.shape[1])) if out is None else out[: b - a]
        i = bisect.bisect_right(self.segments, a, key=lambda seg: seg.start) - 1
        lo = a
        while lo < b:
            hi = min(self.segments[i].end, b)
            np.subtract(values[lo:hi], self.means[i], out=out[lo - a : hi - a])
            lo, i = hi, i + 1
        return out


def check_selection(fit: SegmentFit, indices, sigma2: Curve) -> list:
    """`indices` as a list, after the one check of what the bootstrap and
    the bands read: one or more strictly increasing integers (not bools)
    into fit.segments, and a sigma^2 floored strictly positive on the fit's
    grid."""
    indices, last = list(indices), len(fit.segments) - 1
    integers = all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in indices)
    if not (integers and indices and 0 <= indices[0] and indices[-1] <= last) or any(
        a >= b for a, b in zip(indices, indices[1:])
    ):
        raise InvalidInputError(
            f"segment indices {indices} must be one or more integers in 0..{last}, strictly increasing"
        )
    if np.any(sigma2.values <= 0.0):
        raise InvalidInputError("sigma^2 must be floored strictly positive")
    if sigma2.grid != fit.grid:
        raise InvalidInputError("segment means and sigma^2 are on different grids")
    return indices


def fit_segments(x: FunctionalTimeSeries, segments) -> SegmentFit:
    """The fit of `x` over `segments`, which must partition [0, n) in order:
    each segment's mean curve."""
    segments = tuple(segments)
    _check_partition(segments, x.n)  # before a mean of rows past the end
    means = np.stack([x.values[seg.start : seg.end].mean(axis=0) for seg in segments])
    return SegmentFit(x, segments, means)
