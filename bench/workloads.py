"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop: one caller, no concurrency, the next job
starts when the previous one has returned.  Inputs come from
fdabands.generate(ScenarioSpec) with seeds derived from the benchmark's
--seed; the program receives only the generated series or file.

Each workload object is built once per set-up (input generation), then
`run(i)` performs job i, `check(i, out)` returns a list of problems with its
output (empty when correct), and `fingerprint(out)` reduces an output to
exact values for the traced-vs-untraced identity check.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from fdabands import (
    Grid,
    PipelineConfig,
    RelevantChangeConfig,
    ScenarioSpec,
    cli,
    generate,
    pipeline,
    segments_from_locations,
    simulate,
)

ALPHA = 0.1
DELTA = 2.0
AR_RHO = 0.4

# q / reference must lie in this range.  An RNG-stream change moves q by its
# Monte Carlo error (about 1-2% at R=2000) and the block-length bias keeps q
# within about 10% of the reference (ratios 1.00-1.08 measured on 60 seeds
# at n=400); a bootstrap mis-scaled by sqrt(2) or more falls outside.
Q_RATIO_RANGE = (0.8, 1.25)


def derive_seed(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def short_scenario(n, grid_size, rng_seed) -> ScenarioSpec:
    """One constant jump of 5 at s=0.5, AR(1) errors with rho=0.4 (the
    scenario of acceptance criterion 1)."""
    return ScenarioSpec(
        n=n,
        grid_size=grid_size,
        means=[0.0, {"kind": "constant", "value": 5.0}],
        change_locations=[0.5],
        error_process="ar1",
        error_param=AR_RHO,
        rng_seed=rng_seed,
    )


class ReferenceQuantile:
    """Quantile of the bootstrap statistic's limit under the generated truth.

    The simulator's errors are scalar AR(1) over smooth cosine-basis
    innovations, so sqrt(n_i) * (mu_hat_i - mu_i) / sigma(t) tends to a
    unit-variance Gaussian process G with the innovations' correlation over
    t, independently per segment.  T* then tends to the max over m segments
    of sup_t |G(t)|, whose quantile is drawn here once from a fixed seed.
    """

    def __init__(self, grid: Grid, draws: int = 50_000, chunk: int = 5_000):
        k = np.arange(1, simulate.N_BASIS + 1)[:, None]
        basis = np.sqrt(2.0) * np.cos(k * np.pi * grid.points[None, :]) / k
        basis /= np.sqrt((basis**2).sum(axis=0))
        rng = np.random.default_rng(20250212)
        self.sups = np.concatenate(
            [
                np.abs(rng.standard_normal((chunk, basis.shape[0])) @ basis).max(axis=1)
                for _ in range(draws // chunk)
            ]
        )

    def __call__(self, segments: int, level: float) -> float:
        return float(np.quantile(self.sups, level ** (1.0 / segments)))


class OutputChecks:
    """Checks shared by the workloads that return an AnalysisResult."""

    def __init__(self, grid: Grid):
        self._grid = grid
        self._reference = None

    def analysis(self, res, truth, n) -> list:
        problems = []
        true_idx = [seg.start for seg in segments_from_locations(n, truth.change_locations)[1:]]
        tol = max(3, math.ceil(0.01 * n))
        found = list(res.change_points.indices)
        if len(found) != len(true_idx) or any(abs(a - b) > tol for a, b in zip(found, true_idx)):
            problems.append(f"change indices {found} vs truth {true_idx} (tolerance {tol})")
        if res.relevant.indices != truth.relevant_indices(res.delta):
            problems.append(
                f"relevant set {res.relevant.indices} vs truth {truth.relevant_indices(res.delta)}"
            )

        q = res.bands.quantile
        sigma = np.sqrt(res.lrv.sigma2.values)
        for band in res.bands.bands:
            half = sigma * q / np.sqrt(band.segment.length)
            center = band.center.values
            scale = max(1.0, float(np.abs(center).max() + half.max()))
            err = max(
                float(np.abs(band.lower.values - (center - half)).max()),
                float(np.abs(band.upper.values - (center + half)).max()),
            )
            if err > 1e-12 * scale:
                problems.append(f"band {band.index} differs from center +- sigma*q/sqrt(n) by {err:.3g}")

        if res.bootstrap is not None:
            if self._reference is None:
                self._reference = ReferenceQuantile(self._grid)
            ref = self._reference(len(res.bands.bands), 1.0 - res.bootstrap.alpha)
            lo, hi = Q_RATIO_RANGE
            if not lo <= q / ref <= hi:
                problems.append(f"quantile {q:.4g} is {q / ref:.3f} x reference {ref:.4g}")
        return problems


def _band_arrays(res) -> tuple:
    return tuple(
        (b.index, b.lower.values.tobytes(), b.center.values.tobytes(), b.upper.values.tobytes())
        for b in res.bands.bands
    )


def _analysis_fingerprint(res) -> tuple:
    return (
        res.change_points.indices,
        res.relevant.indices,
        repr(res.bands.quantile),
        res.bootstrap.statistics.tobytes() if res.bootstrap is not None else None,
        _band_arrays(res),
    )


class ShortSeries:
    name = "short_series"
    why = (
        "n=400 in memory with the bootstrap relevant filter: the bootstrap (quantile draw "
        "plus per-pair margin) does ~97% of the work"
    )

    # n=400 curves, T=50 grid points, R=2000 replications, 1000 margin draws;
    # a pool of 8 series generated from the seed, cycled through by the jobs.
    POOL = 8

    def __init__(self, seed: int, smoke: bool = False, workdir: Path | None = None):
        self.n, grid_size, replications, margin_reps = (200, 20, 500, 200) if smoke else (400, 50, 2000, 1000)
        self.sizes = {"n": self.n, "T": grid_size, "R": replications,
                      "margin_replications": margin_reps, "pool": self.POOL}
        self.inputs = []
        for i in range(self.POOL):
            x, truth = generate(short_scenario(self.n, grid_size, derive_seed(seed, 1, i)))
            cfg = PipelineConfig(
                alpha=ALPHA,
                relevant=RelevantChangeConfig(
                    delta=DELTA,
                    method="bootstrap",
                    calibration_replications=margin_reps,
                    rng_seed=derive_seed(seed, 2, i),
                ),
                replications=replications,
                rng_seed=derive_seed(seed, 3, i),
            )
            self.inputs.append((x, truth, cfg))
        self.curves_per_job = self.n
        self._checks = OutputChecks(Grid.uniform(grid_size))

    def run(self, i):
        x, _, cfg = self.inputs[i % self.POOL]
        return pipeline.analyze(x, cfg)

    def check(self, i, res) -> list:
        return self._checks.analysis(res, self.inputs[i % self.POOL][1], self.n)

    fingerprint = staticmethod(_analysis_fingerprint)


# Three changes of mixed shapes.  Jumps (sup-norm): 3.0 and 3.5 are
# relevant at Delta=2; 1.5 is detected but filtered out.
LONG_MEANS = (
    {"kind": "constant", "value": 1.0},
    {"kind": "sine", "amplitude": 4.0, "frequency": 1},
    {"kind": "linear", "intercept": 0.5, "slope": 3.0},
    {"kind": "constant", "value": 2.0},
)


class LongRecording:
    name = "long_recording"
    why = (
        "n=10000 matrix CSV through cli.run_pipeline: the only workload where ingest, "
        "writers, segmentation and LRV weigh, and where the O(R*n) bootstrap memory shows"
    )

    # n=10000 cycles x 101 phase samples (~14 MB CSV), analysis grid T=100,
    # R=2000, plug-in relevant filter; every job re-reads the same file.

    def __init__(self, seed: int, smoke: bool = False, workdir: Path | None = None):
        self.n, samples, grid_size, replications = (3000, 21, 20, 500) if smoke else (10_000, 101, 100, 2000)
        self.sizes = {"n": self.n, "phase_samples": samples, "T": grid_size, "R": replications}
        spec = ScenarioSpec(
            n=self.n,
            grid_size=samples,
            means=LONG_MEANS,
            change_locations=[0.25, 0.5, 0.75],
            error_process="ar1",
            error_param=AR_RHO,
            rng_seed=derive_seed(seed, 1),
        )
        x, self.truth = generate(spec)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "recording.csv"
        np.savetxt(path, x.values, fmt="%.12g", delimiter=",")
        self.sizes["input_bytes"] = path.stat().st_size
        self.cfg = cli.RunConfig(
            input=str(path),
            output_dir=str(workdir / "out"),
            grid_size=grid_size,
            delta=DELTA,
            replications=replications,
            seed=derive_seed(seed, 2),
        )
        self.curves_per_job = self.n
        self._checks = OutputChecks(Grid.uniform(grid_size))

    def run(self, i):
        return cli.run_pipeline(self.cfg)

    def check(self, i, res) -> list:
        problems = self._checks.analysis(res, self.truth, self.n)
        table = cli.read_bands(Path(self.cfg.output_dir) / "bands.csv")
        if sorted(table) != [b.index for b in res.bands.bands]:
            return problems + [f"bands.csv segments {sorted(table)} vs {res.relevant.indices}"]
        for band in res.bands.bands:
            row = table[band.index]
            for key, mem in (
                ("t", band.center.grid.points),
                ("lower", band.lower.values),
                ("center", band.center.values),
                ("upper", band.upper.values),
            ):
                # 12 significant digits: relative error below one unit in the 12th digit
                if row[key].shape != mem.shape or np.any(np.abs(row[key] - mem) > 1e-11 * np.abs(mem)):
                    problems.append(f"bands.csv segment {band.index} column {key} differs beyond 12 digits")
        return problems

    def fingerprint(self, res):
        files = tuple(
            (Path(self.cfg.output_dir) / name).read_bytes()
            for name in ("changepoints.csv", "bands.csv", "diagnostics.txt")
        )
        return _analysis_fingerprint(res), files


class CoverageStudy:
    name = "coverage_study"
    why = (
        "run_coverage_study on the short_series scenario with the plug-in filter: many "
        "small analyze calls plus generate and containment; only here shows fan-out"
    )

    # Each job is one study of 10 replications of the short_series scenario
    # (n=400, T=50, R=2000, plug-in filter at Delta=2, as in acceptance
    # criterion 1), seeded from the benchmark seed and the job index.
    REPS_PER_JOB = 10

    def __init__(self, seed: int, smoke: bool = False, workdir: Path | None = None):
        self.n, grid_size, replications = (200, 20, 500) if smoke else (400, 50, 2000)
        self.reps = 3 if smoke else self.REPS_PER_JOB
        self.sizes = {"n": self.n, "T": grid_size, "R": replications, "replications_per_job": self.reps}
        self.seed = seed
        self.spec = short_scenario(self.n, grid_size, 0)
        self.cfg = PipelineConfig(
            alpha=ALPHA, relevant=RelevantChangeConfig(delta=DELTA), replications=replications
        )
        self.curves_per_job = self.n * self.reps
        self.contained = {}  # job index -> containment flag per replication

    def run(self, i):
        spec = replace(self.spec, rng_seed=derive_seed(self.seed, 1, i))
        return simulate.run_coverage_study(spec, self.cfg, replications=self.reps)

    def check(self, i, report) -> list:
        self.contained[i] = report.contained
        if report.failures or report.replications != self.reps:
            return [f"{len(report.failures)} failed replications: {report.failures[:2]}"]
        return []

    def summary(self, job_s) -> dict:
        """Throughput and the coverage of every replication the run made."""
        flags = [c for job in self.contained.values() for c in job]
        coverage = float(np.mean(flags)) if flags else float("nan")
        return {
            "reps_per_s": self.reps * len(job_s) / sum(job_s) if job_s else 0.0,
            "coverage": coverage,
            "coverage_gap": abs(coverage - (1.0 - ALPHA)),
            "coverage_mc_se": math.sqrt(ALPHA * (1.0 - ALPHA) / max(len(flags), 1)),
            "coverage_replications": len(flags),
        }

    @staticmethod
    def fingerprint(report):
        return report.contained, repr(report.summary_rows())


WORKLOADS = {w.name: w for w in (ShortSeries, LongRecording, CoverageStudy)}
