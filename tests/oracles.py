"""Definitional forms of what the library computes another way.

The tests compare the library against these: `lag_covariance` sums one lag
covariance as defined, where `estimate_lrv` shares one main sum between lags
+a and -a; `bootstrap_segment_mean` forms one multiplier-bootstrap segment
mean from explicit multipliers, where `run_bootstrap` draws its exact
Gaussian law without them; `matrix_by_lines` reads a matrix-layout file line
by line and resamples it row by row, where `cli.ingest` parses the file in
one call and resamples all rows at once; `generate_by_recursion` builds a
synthetic series from a separate innovation array, the AR(1) state
recursion and a matrix of segment means, where `simulate.generate` builds it
in place in one array; `coverage_study_by_replication` generates and
analyzes one replication at a time, where `simulate.run_coverage_study`
generates its series in batches.  `zero_mean_fit` gives the fit whose
residual rows are a given matrix, a zero-mean fit of that matrix over given
segments, for tests that start from residuals.
"""

import csv
from dataclasses import replace

import numpy as np

from fdabands import (
    Curve,
    FunctionalTimeSeries,
    Grid,
    InvalidInputError,
    PipelineConfig,
    Segment,
    SegmentFit,
    analyze,
    check_containment,
    curve_values,
    generate,
    segments_from_locations,
)
from fdabands.simulate import N_BASIS, CoverageReport, _derived_seed


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


def block_averages_by_index(y_values, L):
    """B_j from the index formula: padded[j + len_j] - padded[j] over sqrt(len_j),
    with len_j = min(L, n - j) the block length truncated at the series end."""
    n = y_values.shape[0]
    padded = np.vstack([np.zeros((1, y_values.shape[1])), np.cumsum(y_values, axis=0)])
    lengths = np.minimum(L, n - np.arange(n))
    sums = padded[np.arange(n) + lengths] - padded[np.arange(n)]
    return sums / np.sqrt(lengths)[:, None]


def zero_mean_fit(values, segments=None) -> SegmentFit:
    """The fit whose residual rows are the (n, T) matrix `values`: the
    series `values` under a fit of mean zero over `segments` (one segment
    when None), and x - 0.0 is x bit for bit."""
    x = FunctionalTimeSeries(values, Grid.uniform(np.shape(values)[1]))
    segments = tuple(segments or [Segment(0, x.n)])
    return SegmentFit(x, segments, np.zeros((len(segments), len(x.grid))))


def bootstrap_segment_mean(
    fit: SegmentFit, seg: Segment, L: int, multipliers
) -> Curve:
    """One bootstrap segment mean: n_i^(-1) * sum_j nu_j * (block average at j).

    `multipliers` supplies one standard-normal weight per index j in the
    segment, in order.
    """
    if L < 1:
        raise InvalidInputError("block length must be >= 1")
    if L > seg.length:
        raise InvalidInputError(
            f"block length {L} exceeds segment length {seg.length}"
        )
    nu = np.asarray(multipliers, dtype=float)
    if nu.shape != (seg.length,):
        raise InvalidInputError(
            f"need {seg.length} multipliers, got shape {nu.shape}"
        )
    B = block_averages_by_index(fit.rows(0, fit.n), L)[seg.start : seg.end]
    return Curve(nu @ B / seg.length, fit.grid)


def matrix_by_lines(text: str, grid_size: int) -> np.ndarray:
    """A matrix-layout file's cycles on the uniform grid of `grid_size` points.

    The delimiter is the first of ',', ';' and tab under which every whole
    line of the first 4096 characters that has a non-blank cell has the same
    number (at least 2) of cells; otherwise it is the one csv.Sniffer finds
    in those characters (',' when it finds none).  The lines whose cells are
    all blank are dropped; a first line whose first cell is neither blank
    nor a number is a header (a blank cell is a missing value, which
    np.loadtxt refuses); np.loadtxt parses the list of the remaining lines, and each
    row of width W is interpolated from the phases linspace(0, 1, W) by
    np.interp.
    Raises ValueError where the file is not such a matrix.
    """
    head = text[:4096].split("\n")
    if text[4096:4097] not in ("", "\n"):
        head = head[:-1] or head  # the line cut at the 4096th character
    for delimiter in (",", ";", "\t"):
        widths = set()
        for line in head:
            cells = next(csv.reader([line], delimiter=delimiter), [])
            if any(c.strip() for c in cells):
                widths.add(len(cells))
        if len(widths) == 1 and min(widths) >= 2:
            break
    else:
        try:
            delimiter = csv.Sniffer().sniff(text[:4096], delimiters=",;\t ").delimiter
        except csv.Error:
            delimiter = ","
    rows = [next(csv.reader([line], delimiter=delimiter), []) for line in text.splitlines()]
    lines = [line for line, row in zip(text.splitlines(), rows) if any(c.strip() for c in row)]
    if not lines:
        raise ValueError("no rows")
    first = next(csv.reader([lines[0]], delimiter=delimiter))[0]
    try:
        float(first)
        start = 0
    except ValueError:
        start = int(bool(first.strip()))
    if len(lines) == start:
        raise ValueError("a header and no rows")
    values = np.loadtxt(lines[start:], delimiter=delimiter, comments=None, quotechar='"', ndmin=2)
    if values.shape[1] == grid_size:
        return values
    t = np.linspace(0.0, 1.0, grid_size)
    xp = np.linspace(0.0, 1.0, values.shape[1])
    return np.stack([np.interp(t, xp, row) for row in values])


def generate_by_recursion(spec):
    """The series values and long-run variance `simulate.generate` draws for
    the scenario `spec`, by the process equations.

    The innovations are eta_j = (Z_j @ basis) * scale, with Z drawn from the
    scenario seed's Philox stream: n rows for iid, n + 1 for MA(1), where
    eps_j = eta_{j+1} + theta * eta_j, and n + 100 for AR(1), where the state
    s_j = rho * s_{j-1} + eta_j starts at zero and the first 100 states are
    dropped.  The series is the matrix of segment means plus eps.
    """
    grid = Grid.uniform(spec.grid_size)
    tau2 = curve_values(spec.tau2, grid)
    k = np.arange(1, N_BASIS + 1)[:, None]
    basis = np.sqrt(2.0) * np.cos(k * np.pi * grid.points[None, :]) / k
    scale = np.sqrt(tau2 / (basis**2).sum(axis=0))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.rng_seed)))
    n, param = spec.n, spec.error_param

    def innovations(count):
        z = rng.standard_normal((count, N_BASIS))
        return (z @ basis) * scale

    if spec.error_process == "iid":
        eps, lrv_factor = innovations(n), 1.0
    elif spec.error_process == "ma1":
        eta = innovations(n + 1)
        eps, lrv_factor = eta[1:] + param * eta[:-1], (1.0 + param) ** 2
    else:
        burn = 100
        eta = innovations(n + burn)
        eps, lrv_factor = np.empty((n, len(grid))), 1.0 / (1.0 - param) ** 2
        state = np.zeros(len(grid))
        for j in range(n + burn):
            state = param * state + eta[j]
            if j >= burn:
                eps[j - burn] = state
    means = np.empty((n, len(grid)))
    for seg, mean in zip(segments_from_locations(n, spec.change_locations), spec.means):
        means[seg.start : seg.end] = curve_values(mean, grid)
    return means + eps, lrv_factor * tau2


def coverage_study_by_replication(spec, pipeline_cfg=None, replications=100):
    """The CoverageReport of `simulate.run_coverage_study`, each replication
    generated by `generate` from its own seed and then analyzed."""
    pipeline_cfg = pipeline_cfg or PipelineConfig()
    records, failures = [], []
    for rep in range(replications):
        spec_r = replace(spec, rng_seed=_derived_seed(spec.rng_seed, rep, 0))
        cfg_r = replace(
            pipeline_cfg,
            rng_seed=_derived_seed(spec.rng_seed, rep, 1),
            relevant=replace(pipeline_cfg.relevant, rng_seed=_derived_seed(spec.rng_seed, rep, 2)),
        )
        try:
            x, truth = generate(spec_r)
            res = analyze(x, cfg_r)
        except InvalidInputError as exc:
            failures.append(f"replication {rep}: {exc}")
            continue

        true_i = truth.relevant_indices(res.delta)
        m_ok = res.change_points.m == truth.m
        i_ok = m_ok and res.relevant.indices == true_i
        loc_err = None
        if m_ok and truth.m > 0:
            found = np.array(res.change_points.locations)
            loc_err = float(np.mean(np.abs(found - np.array(truth.change_locations))))
        width = float(np.mean([np.mean(b.upper.values - b.lower.values) for b in res.bands.bands]))
        contained = i_ok and check_containment(
            res.bands, [truth.segment_means[i] for i in true_i]
        ).overall
        records.append((contained, width, m_ok, i_ok, loc_err))

    if len(failures) > 0.05 * replications:
        raise InvalidInputError(
            f"{len(failures)} of {replications} replications failed: {failures[:3]}"
        )
    contained, widths, m_ok, i_ok, loc_errs = zip(*records)
    loc_errs = [e for e in loc_errs if e is not None]
    return CoverageReport(
        replications=replications,
        contained=contained,
        coverage=float(np.mean(contained)),
        average_band_width=float(np.mean(widths)),
        m_match_rate=float(np.mean(m_ok)),
        relevant_match_rate=float(np.mean(i_ok)),
        mean_location_error=float(np.mean(loc_errs)) if loc_errs else float("nan"),
        failures=tuple(failures),
    )
