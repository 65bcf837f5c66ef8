"""Multiplier block bootstrap for the sup-norm statistic of segment means.

A replicate weights L-length block averages of the segment-centered residuals
by iid standard normal multipliers, one per time index.  Given the data,
segment i's sqrt(n_i) * mu_i* / sigma_hat is then exactly N(0, M_i^T M_i) for
its scaled block matrix M_i = B_i / (sqrt(n_i) * sigma_hat), independently
across segments, and is drawn as z @ r with z ~ N(0, I) and r the symmetric
square root of B_i^T B_i with its columns divided by sqrt(n_i) * sigma_hat:
no (R, n) multiplier matrix.  Nor is B an (n, T) matrix: `_block_averages`
forms it a row block at a time, and each segment's Gram matrix B_i^T B_i is
summed over those blocks.  Nor are the residuals: a `ResidualSeries` is the
series and its segment fit, and `_block_averages` forms the residual rows
that one block reads into its prefix-sum window.  The segments are read off
that fit, `y.fit`, by index, so the rows and the segments cannot come from
two fits: `run_bootstrap` takes the indices of the relevant segments, as
`build_bands` does, and `bootstrap_margin` the index of a change.  The
empirical (1 - alpha)-quantile of the replicates of
T* = max_i sqrt(n_i) * sup_t |mu_i*(t) / sigma_hat(t)| calibrates the bands.
`bootstrap_margin` draws the relevant filter's jump-estimate fluctuation
between two adjacent segments the same way.  The definitional bootstrap
segment mean that the tests compare against is `bootstrap_segment_mean` in
tests/oracles.py.

Every segment's (or pair's) R replicates are split into DRAW_BLOCKS row
blocks, and each block is drawn from its own SFC64 substream, keyed by the
seed, the purpose, the segment or pair and the block.  The calling thread
runs one share of the blocks, and of the segments' square-root factors, and
the module's draw pool, one worker thread started on its first task, runs
the rest; with one CPU the pool is not used and the caller runs everything.
A forked child gets a new pool, since it inherits none of the worker
threads.  The blocks are shared block-major: the pool draws block 0 of
every segment, the caller the last block.  numpy releases the interpreter
lock while it factorizes, fills and multiplies the arrays, so the shares run
in parallel, and since no block or factor depends on another, the
replicates are bit-identical for any number of workers.  Each share draws
its blocks in chunks of `core.row_blocks` rows: a chunk's normals z, and
their product w with the factor, go into the leading rows of one (z, w)
scratch pair of one chunk's size, the share's own, allocated by the
calling thread, so the pool thread's heap never takes on, and keeps, a
block.
"""

from __future__ import annotations

import numbers
import os
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Curve,
    InvalidInputError,
    ResidualSeries,
    Segment,
    check_float,
    check_integer,
    row_blocks,
)

# the bit generator of every draw, named in diagnostics.txt
RNG_ALGORITHM = "sfc64"
# row blocks per segment or pair, each from its own substream; the draws
# depend on this number, never on the number of workers
DRAW_BLOCKS = 2
# the first spawn-key entry of each substream: SeedSequence pads short
# entropy with zeros, so keys of one length plus a purpose never collide
_QUANTILE, _MARGIN = 0, 1


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


def _block_averages(y: ResidualSeries, L: int, span: Segment, stop: int):
    """Yield (a, B[a:b]) over consecutive row blocks of the block averages
    B_j = len_j^(-1/2) * sum_{l<L} Y_{s+j+l}, j < stop, of the residual rows
    in `span` = [s, s + m), truncated at the span's end; each block is
    overwritten by the next.

    Blocks that would run past the span's last row use the available rows
    only and rescale by the square root of the actual block length.  B_j is
    P_{j+len_j} - P_j for the prefix sums P_i = sum_{l<i} Y_{s+l}, formed in
    row blocks of about `core._BLOCK_ENTRIES` entries, so no (m, T) array
    is formed: a window holds the P rows that one block of B reads, and each
    block's running sums carry the previous block's last prefix sum in as
    their first row, so every P_i is P_{i-1} + Y_{s+i-1} in the same order
    as one cumsum over the span.  The residual rows are formed into the
    window itself, and only rows before s + stop + L - 1.  Needs
    1 <= L <= m and 1 <= stop <= m.
    """
    n, width = span.length, len(y.grid)
    full = n + 1 - L  # blocks j < full hold L rows, block j >= full holds n - j
    blocks = row_blocks(min(stop, full), width)
    out = np.empty((blocks[0][1], width))
    window = np.empty((blocks[0][1] + L, width))  # P_{a + i} in row i for block [a, b)
    window[0] = 0.0
    first = window[1 : blocks[0][1] + L]
    np.cumsum(y.rows(span.start, span.start + blocks[0][1] + L - 1, out=first), axis=0, out=first)
    last = 0  # the first row of the previous block
    for a, b in blocks:
        if a:
            # keep P_a .. P_{a+L-1}, then continue the sums from P_{a+L-1}
            window[:L] = window[a - last : a - last + L]
            y.rows(span.start + a + L - 1, span.start + b + L - 1, out=window[L : b - a + L])
            np.cumsum(window[L - 1 : b - a + L], axis=0, out=window[L - 1 : b - a + L])
        block = np.subtract(window[L : b - a + L], window[: b - a], out=out[: b - a])
        block /= np.sqrt(L)
        last = a
        yield a, block
    if stop > full:  # the window ends at P_n
        tail = np.subtract(window[n - last], window[full - last : stop - last])
        tail /= np.sqrt(n - np.arange(full, stop))[:, None]  # len_j = n - j
        yield full, tail


def _segment_grams(y: ResidualSeries, L: int, span: Segment, segments) -> np.ndarray:
    """(k, T, T) array whose entry i is B_i^T B_i for the block averages
    B_i = B[seg.start : seg.end] of segments[i], with B those of the
    residual rows in `span` and the segments' rows counted from its start.
    Summed over the row blocks of `_block_averages`, split at the segments'
    edges, so no (n, T) block matrix is formed; B is formed up to the last
    segment's end only."""
    width = len(y.grid)
    grams = np.zeros((len(segments), width, width))
    for a, block in _block_averages(y, L, span, max(seg.end for seg in segments)):
        for gram, seg in zip(grams, segments):
            part = block[max(seg.start - a, 0) : max(seg.end - a, 0)]
            if len(part):
                gram += part.T @ part
    return grams


def _sqrt_factor(gram: np.ndarray, scale=1.0) -> np.ndarray:
    """r with r^T r = M^T M for M = B / scale (columns divided by a
    positive `scale`), given the Gram matrix gram = B^T B: with S the
    symmetric square root of gram, r = S / scale, also when B is
    rank-deficient or zero.  z @ r for standard normal z then has the law
    of nu @ M for standard normal nu.

    S is continuous in B: a change of eps in B^T B moves S by at most
    about sqrt(eps), where a QR factor of a block matrix of low numerical rank
    turns by far more.  For the same reason the columns of S are scaled
    rather than those of B: a last-bit change in sigma_hat then only
    rescales the draws.
    """
    lam, v = np.linalg.eigh(gram)
    return (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.T / scale


def _make_pool():
    """Make the draw pool, one per process.  An executor starts its worker
    on its first task, so this starts no thread.  A forked child makes its
    own, as it inherits the executor but not its worker thread."""
    global _pool
    _pool = ThreadPoolExecutor(1, thread_name_prefix="fdabands-draw")


_make_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_make_pool)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor | None:
    """The draw pool, one worker beside the calling thread; None where one
    CPU is available."""
    return _pool if _cpu_count() > 1 else None


def _run_share(fn, share) -> list:
    return [fn(*task) for task in share]


def _run_split(pool, fn, tasks) -> list:
    """[fn(*task) for task in tasks], with the calling thread and `pool`
    sharing the work: the tasks are cut into DRAW_BLOCKS consecutive shares,
    the caller runs the last one and the pool every other share that is not
    empty, each as one pool task.  The caller waits for every share before
    it returns or raises, so no task outlives the call; an exception in a
    pool share is raised here, after the caller's own share.  With no pool
    the caller runs every task."""
    if pool is None:
        return _run_share(fn, tasks)
    cuts = [i * len(tasks) // DRAW_BLOCKS for i in range(DRAW_BLOCKS + 1)]
    shares = [tasks[a:b] for a, b in zip(cuts, cuts[1:])]
    futures = [pool.submit(_run_share, fn, share) for share in shares[:-1] if share]
    try:
        own = _run_share(fn, shares[-1])
    finally:
        wait(futures)
    return [result for future in futures for result in future.result()] + own


def _substream(seed: int, key: tuple) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


def _row_bounds(replications: int) -> list:
    """Block b holds rows [bounds[b], bounds[b + 1]) of the R replicates."""
    return [b * replications // DRAW_BLOCKS for b in range(DRAW_BLOCKS + 1)]


def _fill_block(r: np.ndarray, seed: int, key: tuple, out: np.ndarray, scratch) -> None:
    """sup_t |z @ r| into `out` for the block's normals z, drawn in chunks of
    `core.row_blocks` rows: a chunk's normals go into the leading rows of the
    first array of the (z, w) pair `scratch`, and their product with r into
    the leading rows of w."""
    rng = _substream(seed, key)
    for a, b in row_blocks(len(out), r.shape[0]):
        z, w = (rows[: b - a] for rows in scratch)
        rng.standard_normal(out=z)
        np.matmul(z, r, out=w)
        np.abs(w, out=w).max(axis=1, out=out[a:b])


def _draw_sups(factors, replications: int, seed: int, keys, pool) -> np.ndarray:
    """(len(factors), R) array whose row k holds sup_t |z @ factors[k]| for
    R draws z ~ N(0, I).  Rows [bounds[b], bounds[b + 1]) of row k, with
    bounds = _row_bounds(R), come from the substream of `seed` keyed
    (*keys[k], b).  The tasks are listed block-major, so with a pool block
    b's tasks are share b of `_run_split`, and each block has a (z, w)
    scratch pair of one draw chunk's rows that no other share touches;
    with no pool every block is drawn into one pair."""
    out = np.empty((len(factors), replications))
    bounds = _row_bounds(replications)
    width = factors[0].shape[0]
    rows = row_blocks(-(-replications // DRAW_BLOCKS), width)[0][1]  # the longest chunk
    pairs = [
        (np.empty((rows, width)), np.empty((rows, width)))
        for _ in range(1 if pool is None else DRAW_BLOCKS)
    ]
    tasks = [
        (r, seed, (*key, b), out[k, lo:hi], pairs[b % len(pairs)])
        for b, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        for k, (r, key) in enumerate(zip(factors, keys))
    ]
    _run_split(pool, _fill_block, tasks)
    return out


def _empirical_quantile(values: np.ndarray, level: float) -> float:
    """Smallest value whose ascending rank is >= ceil(level * R)."""
    r = values.size
    rank = int(np.ceil(level * r))
    rank = min(max(rank, 1), r)
    return float(np.sort(values)[rank - 1])


def bootstrap_margin(y: ResidualSeries, pair: int, beta: float, replications: int, seed: int) -> float:
    """(1 - beta)-quantile of the bootstrapped jump-estimate fluctuation.

    Reuses the multiplier block bootstrap on the residuals of the two
    segments adjacent to change `pair`, left = y.fit.segments[pair - 1] and
    right = y.fit.segments[pair] for 1 <= pair < len(y.fit.segments), to
    calibrate how far a jump estimate can stray from its target under the
    null; the jump difference nu @ [-B_left / n_left; B_right / n_right] is
    Gaussian given the data and is drawn exactly, from the substreams of
    change `pair`.  The block averages are those of the rows
    [left.start, right.end) alone, cut off at right.end.
    """
    segments = y.fit.segments
    if not 1 <= pair < len(segments):
        raise InvalidInputError(f"change {pair} is not one of the fit's changes 1..{len(segments) - 1}")
    left, right = segments[pair - 1], segments[pair]
    L = auto_block_length(min(left.length, right.length))
    span = Segment(left.start, right.end)
    halves = [Segment(0, left.length), Segment(left.length, span.length)]
    g_left, g_right = _segment_grams(y, L, span, halves)
    # the Gram matrix of [-B_left / n_left; B_right / n_right]
    gram = g_left / left.length**2 + g_right / right.length**2
    (draws,) = _draw_sups([_sqrt_factor(gram)], replications, seed, [(_MARGIN, pair)], _executor())
    return _empirical_quantile(draws, 1.0 - beta)


def run_bootstrap(y: ResidualSeries, indices, sigma2: Curve, cfg: BootstrapConfig) -> BootstrapResult:
    """R replicate statistics T* and their empirical (1 - alpha)-quantile
    over the segments y.fit.segments[i], i in `indices`.

    The k-th of those segments takes its replicates from the DRAW_BLOCKS
    SFC64 substreams of cfg.rng_seed keyed by k, its position in `indices`,
    not its index into the fit.  The calling thread and the
    module's draw pool share the segments' square-root factors and the
    draws, so results are bit-identical for a fixed seed whatever the number
    of workers.
    """
    last = len(y.fit.segments) - 1
    if not indices or not all(isinstance(i, numbers.Integral) and 0 <= i <= last for i in indices):
        raise InvalidInputError(f"segment indices {list(indices)} must be one or more integers in 0..{last}")
    segments = [y.fit.segments[i] for i in indices]
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
    if sigma2.grid != y.grid:
        raise InvalidInputError("segment means and sigma^2 are on different grids")
    sigma = np.sqrt(sigma2.values)

    grams = _segment_grams(y, L, Segment(0, y.n), segments)
    # nu @ B_i / (sqrt(n_i) * sigma) is sqrt(n_i) * mu_i* / sigma
    pool = _executor()
    factors = _run_split(
        pool, _sqrt_factor, [(gram, np.sqrt(seg.length) * sigma) for gram, seg in zip(grams, segments)]
    )
    keys = [(_QUANTILE, k) for k in range(len(segments))]
    per_segment = _draw_sups(factors, R, cfg.rng_seed, keys, pool)
    stats = per_segment.max(axis=0)
    q = _empirical_quantile(stats, 1.0 - cfg.alpha)

    argmax = per_segment.argmax(axis=0)
    diagnostics = {
        k: {
            "quantile": _empirical_quantile(per_segment[k], 1.0 - cfg.alpha),
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
