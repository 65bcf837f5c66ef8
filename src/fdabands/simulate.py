"""Synthetic functional time series with known means and long-run variance,
plus the Monte Carlo harness that checks the simultaneous coverage guarantee.

Innovations are smooth random curves eta_j(t) = sum_k Z_jk * sqrt(2) *
cos(k*pi*t) / k (K = 20, iid standard normal Z), rescaled pointwise to hit
the requested innovation variance tau^2(t).  The cosine basis keeps the
variance strictly positive on the whole grid, endpoints included, so the
rescaling is well defined.  Serial dependence (MA(1) or AR(1)) is scalar and
uniform across t, so the pointwise long-run variance has a closed form.

`run_coverage_study` generates its series in batches, each replication from
its own Philox stream, and runs the serial recursion once per row for the
whole batch; `generate` is the batch of one, so a series is bit-identical
either way.  The study aggregates one record per successful replication.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, asdict, dataclass, replace

import numpy as np

from .bands import check_containment
from .core import (
    Curve,
    FunctionalTimeSeries,
    Grid,
    InvalidInputError,
    check_field_value,
    check_float,
    check_integer,
    row_blocks,
    segments_from_locations,
    sup_norm,
)
from .pipeline import PipelineConfig, analyze

N_BASIS = 20

ERROR_PROCESSES = ("iid", "ma1", "ar1")
# rows drawn before the first kept one: MA(1) reads eta_{-1}, AR(1) burns in
_BURN_IN = {"iid": 0, "ma1": 1, "ar1": 100}
# entries of the array a coverage study generates one batch of series in
# (2 MiB of float64); a batch holds at least one replication
_BATCH_ENTRIES = 1 << 18
# curve spec kind -> {key: default}; None marks a required key
_CURVE_KINDS = {
    "constant": {"value": None},
    "linear": {"intercept": 0.0, "slope": 0.0},
    "sine": {"amplitude": None, "frequency": 1.0},
    "hat": {"peak": None, "center": 0.5},
}


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def curve_values(spec, grid: Grid) -> np.ndarray:
    """Evaluate an analytic curve spec on the grid.

    Accepts a Curve, an array of grid values, a scalar (constant curve), or a
    dict: {"kind": "constant", "value": v}, {"kind": "linear", "intercept": a,
    "slope": b}, {"kind": "sine", "amplitude": a, "frequency": k}, or
    {"kind": "hat", "peak": h, "center": c}.  Keys with a default may be left
    out and no other key may be added; any problem raises InvalidInputError
    naming it.
    """
    t = grid.points
    if isinstance(spec, Curve):
        if spec.grid != grid:
            raise InvalidInputError("curve spec is on a different grid")
        return np.array(spec.values)
    if _is_number(spec):
        vals = np.full(t.size, float(spec))
    elif isinstance(spec, dict):
        vals = _kind_values(spec, t)
    else:
        try:
            vals = np.array(spec, dtype=float)
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"curve spec {spec!r} is not a number, an array or a dict"
            ) from None
        if vals.shape != t.shape:
            raise InvalidInputError("curve spec array length does not match the grid")
    if not np.all(np.isfinite(vals)):
        raise InvalidInputError(f"curve spec {spec!r} has non-finite values")
    return vals


def _kind_values(spec: dict, t: np.ndarray) -> np.ndarray:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _CURVE_KINDS:
        raise InvalidInputError(f"unknown curve spec kind {kind!r}")
    unknown = sorted(set(spec) - set(_CURVE_KINDS[kind]) - {"kind"}, key=str)
    if unknown:
        raise InvalidInputError(f"curve spec {spec!r} has unknown keys {unknown!r}")
    p = {}
    for key, default in _CURVE_KINDS[kind].items():
        if key not in spec and default is None:
            raise InvalidInputError(f"curve spec {spec!r} needs key {key!r}")
        value = spec.get(key, default)
        if not _is_number(value):
            raise InvalidInputError(f"curve spec key {key!r} must be a number, got {value!r}")
        p[key] = float(value)
    if kind == "constant":
        return np.full(t.size, p["value"])
    if kind == "linear":
        return p["intercept"] + p["slope"] * t
    if kind == "sine":
        return p["amplitude"] * np.sin(p["frequency"] * np.pi * t)
    c = p["center"]
    if not 0.0 <= c <= 1.0:
        raise InvalidInputError(f"hat center must lie in [0, 1], got {c}")
    up = np.where(t <= c, t / c if c > 0 else 1.0, (1.0 - t) / (1.0 - c) if c < 1 else 0.0)
    return p["peak"] * np.clip(up, 0.0, None)


@dataclass(frozen=True)
class ScenarioSpec:
    n: int
    grid_size: int = 100
    means: tuple = ({"kind": "constant", "value": 0.0},)
    change_locations: tuple = ()
    error_process: str = "iid"
    error_param: float = 0.0  # theta for ma1, rho for ar1
    tau2: object = 1.0  # scalar or curve spec for the innovation variance
    rng_seed: int = 0

    def __post_init__(self):
        for key in ("means", "change_locations"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)):
                raise InvalidInputError(f"scenario key {key!r} must be a list or tuple, got {value!r}")
            object.__setattr__(self, key, tuple(value))
        check_integer("n", self.n, 1)
        check_integer("grid_size", self.grid_size, 2)
        check_integer("rng_seed", self.rng_seed, 0)
        if len(self.means) != len(self.change_locations) + 1:
            raise InvalidInputError("need exactly one mean spec per segment")
        locs = self.change_locations
        if not all(_is_number(s) for s in locs):
            raise InvalidInputError(f"change locations must be numbers, got {list(locs)!r}")
        if any(not 0.0 < s < 1.0 for s in locs) or any(
            b <= a for a, b in zip(locs, locs[1:])
        ):
            raise InvalidInputError("change locations must be strictly increasing in (0, 1)")
        if self.error_process not in ERROR_PROCESSES:
            raise InvalidInputError(f"error_process must be one of {ERROR_PROCESSES}")
        check_float("error parameter", self.error_param)
        if self.error_process == "ar1" and not abs(self.error_param) < 1.0:
            raise InvalidInputError("AR(1) coefficient must satisfy |rho| < 1")
        grid = Grid.uniform(self.grid_size)
        for key, specs in (("means", self.means), ("tau2", (self.tau2,))):
            for spec in specs:
                try:
                    vals = curve_values(spec, grid)
                    if key == "tau2" and vals.min() < 0.0:
                        raise InvalidInputError(f"variance must be >= 0, got {vals.min():g}")
                except InvalidInputError as exc:
                    raise InvalidInputError(f"scenario key {key!r}: {exc}") from None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        fields = cls.__dataclass_fields__
        required = {k for k, f in fields.items() if f.default is f.default_factory is MISSING}
        for problem, keys in (("unknown", set(d) - set(fields)), ("missing", required - set(d))):
            if keys:
                raise InvalidInputError(f"{problem} scenario keys: {sorted(keys)}")
        for key, value in d.items():
            check_field_value(cls, key, value, "scenario key")
        return cls(**d)


@dataclass(frozen=True)
class GroundTruth:
    segment_means: tuple  # Curve per segment
    change_locations: tuple
    jump_sizes: tuple
    lrv: Curve  # analytic long-run variance curve
    pointwise_variance: Curve

    @property
    def m(self) -> int:
        return len(self.change_locations)

    def relevant_indices(self, delta: float) -> tuple:
        return (0,) + tuple(
            i for i, jump in enumerate(self.jump_sizes, start=1) if jump > delta
        )


def generate(spec: ScenarioSpec):
    """Draw one series from the scenario; returns (series, ground truth).

    The series is the batch of one of `_generate_batch`.
    """
    (values,), truth = _generate_batch(spec, [spec.rng_seed])
    return FunctionalTimeSeries(values, truth.lrv.grid), truth


def _generate_batch(spec: ScenarioSpec, seeds):
    """The scenario's series under each of `seeds`, as a (len(seeds), n, T)
    array, and the ground truth they share.

    Row b of one (len(seeds), n + burn, T) array, with burn = 0, 1 and 100
    rows for iid, ma1 and ar1, takes the innovations of the Philox stream of
    seeds[b]; the serial dependence, the burn-in cut and the segment means
    are then applied to the whole array in place, the MA(1) step in blocks of
    time steps and the AR(1) recursion one time step at a time for all of
    the batch.  Every element goes through the same operations as in a batch
    of one, so each series is bit-identical whatever batch it is drawn in.
    The array is read-only.
    """
    grid = Grid.uniform(spec.grid_size)
    tau2_vals = curve_values(spec.tau2, grid)
    k = np.arange(1, N_BASIS + 1)[:, None]
    basis = np.sqrt(2.0) * np.cos(k * np.pi * grid.points[None, :]) / k
    scale = np.sqrt(tau2_vals / (basis**2).sum(axis=0))

    n = spec.n
    burn = _BURN_IN[spec.error_process]
    eps = np.empty((len(seeds), n + burn, len(grid)))
    for seed, eta in zip(seeds, eps):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        np.matmul(rng.standard_normal((n + burn, N_BASIS)), basis, out=eta)
    eps *= scale
    if spec.error_process == "iid":
        lrv_factor, pv_factor = 1.0, 1.0
    elif spec.error_process == "ma1":
        theta = spec.error_param
        # row j becomes eta_j + theta * eta_{j-1}, in time blocks from the last
        # back to row 1: each block reads the row before it, not yet updated,
        # and the right side is formed before the add
        for a, b in reversed(row_blocks(n + burn, eps.shape[0] * eps.shape[2])):
            a = max(a, 1)
            eps[:, a:b] += theta * eps[:, a - 1 : b - 1]
        lrv_factor, pv_factor = (1.0 + theta) ** 2, 1.0 + theta**2
    else:  # ar1
        rho = spec.error_param
        steps = eps.transpose(1, 0, 2)  # steps[j] is time j of every series
        for prev, cur in zip(steps, steps[1:]):
            cur += rho * prev
        lrv_factor = 1.0 / (1.0 - rho) ** 2
        pv_factor = 1.0 / (1.0 - rho**2)
    eps = eps[:, burn:]

    mean_curves = [Curve(curve_values(m, grid), grid) for m in spec.means]
    for seg, mu in zip(segments_from_locations(n, spec.change_locations), mean_curves):
        eps[:, seg.start : seg.end] += mu.values

    jumps = tuple(
        sup_norm(b.values - a.values) for a, b in zip(mean_curves, mean_curves[1:])
    )
    # freeze the series and the array they view, burn-in rows included, so
    # that FunctionalTimeSeries takes each series over without a copy
    for a in (eps.base, eps):
        a.setflags(write=False)
    truth = GroundTruth(
        segment_means=tuple(mean_curves),
        change_locations=spec.change_locations,
        jump_sizes=jumps,
        lrv=Curve(lrv_factor * tau2_vals, grid),
        pointwise_variance=Curve(pv_factor * tau2_vals, grid),
    )
    return eps, truth


@dataclass(frozen=True)
class CoverageReport:
    replications: int
    contained: tuple  # bool per successful replication
    coverage: float
    average_band_width: float
    m_match_rate: float
    relevant_match_rate: float
    mean_location_error: float
    failures: tuple = ()

    def summary_rows(self) -> list:
        return [
            ("replications", self.replications),
            ("coverage", self.coverage),
            ("average_band_width", self.average_band_width),
            ("m_match_rate", self.m_match_rate),
            ("relevant_match_rate", self.relevant_match_rate),
            ("mean_location_error", self.mean_location_error),
            ("failures", len(self.failures)),
        ]


def _derived_seed(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def run_coverage_study(
    spec: ScenarioSpec,
    pipeline_cfg: PipelineConfig | None = None,
    replications: int = 100,
) -> CoverageReport:
    """Generate -> analyze -> containment check, repeated `replications` times.

    Containment is evaluated against the true segment means of the truly
    relevant segments; a replication whose detected structure differs from the
    truth (wrong number of changes or wrong relevant set) counts as not
    covered.  Each replication's data, bootstrap and relevant-filter margin
    seeds derive from the scenario seed and the replication index, so the
    aggregate is identical however replications are scheduled.  The series
    are generated in batches of at most _BATCH_ENTRIES entries (at least one
    replication); each is checked and analyzed on its own, so invalid input
    fails only its replication.  More than 5% of replications failing on
    invalid input raises InvalidInputError.
    """
    check_integer("replications", replications, 1)
    pipeline_cfg = pipeline_cfg or PipelineConfig()
    batch = max(1, _BATCH_ENTRIES // ((spec.n + _BURN_IN[spec.error_process]) * spec.grid_size))

    records, failures = [], []  # one (contained, width, m_ok, i_ok, loc_err) per success
    for first in range(0, replications, batch):
        reps = range(first, min(first + batch, replications))
        batch_values, truth = _generate_batch(
            spec, [_derived_seed(spec.rng_seed, rep, 0) for rep in reps]
        )
        for rep, values in zip(reps, batch_values):
            cfg_r = replace(
                pipeline_cfg,
                rng_seed=_derived_seed(spec.rng_seed, rep, 1),
                relevant=replace(
                    pipeline_cfg.relevant, rng_seed=_derived_seed(spec.rng_seed, rep, 2)
                ),
            )
            try:
                x = FunctionalTimeSeries(values, truth.lrv.grid)
                res = analyze(x, cfg_r)
            except InvalidInputError as exc:  # recorded, not fatal (unless > 5% fail)
                failures.append(f"replication {rep}: {exc}")
                continue

            true_i = truth.relevant_indices(res.delta)
            m_ok = res.change_points.m == truth.m
            i_ok = m_ok and res.relevant.indices == true_i
            loc_err = None
            if m_ok and truth.m > 0:
                found = np.array(res.change_points.locations)
                loc_err = float(np.mean(np.abs(found - np.array(truth.change_locations))))
            width = float(
                np.mean([np.mean(b.upper.values - b.lower.values) for b in res.bands.bands])
            )
            contained = i_ok and check_containment(
                res.bands, [truth.segment_means[i] for i in true_i]
            ).overall
            records.append((contained, width, m_ok, i_ok, loc_err))

    if len(failures) > 0.05 * replications:
        raise InvalidInputError(
            f"{len(failures)} of {replications} replications failed: {failures[:3]}"
        )
    # at most 5% failed, so there is at least one record
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
