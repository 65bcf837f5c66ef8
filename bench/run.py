"""fdabands benchmark: one workload per process, outputs checked, metrics printed.

    python3 bench/run.py --workload short_series --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the repository root.  The library is imported from ./src, never
from an installed copy.  The set-up (import, input generation and one
warm-up job) is repeated SETUPS times and its median reported as setup_s;
then jobs run back to back for --seconds.

--trace 0 prints the end-to-end metrics.  BENCHMARK.json gates
job_s.p50.adjusted, peak_rss_mb and setup_s; the raw job_s.p50, job_s.p90,
curves_per_s, failed_ratio and the coverage figures are printed beside them.
The host's speed drifts by tens of percent over minutes, so a fixed probe
(speed.py) runs after each job and set-up, and the gated timings are
divided by the slowdown it saw: job_s.p50.adjusted and setup_s are times at
the host's quiet speed, with the raw ones printed beside them.  BLAS runs
on one thread.
--trace 1 alternates untraced and traced jobs on the same inputs, checks
that their outputs are bit-identical, and prints the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A fuller
record (environment, sizes, extra figures and, with --trace 1, every span)
is written to bench/out/.

--smoke runs every workload, untraced and traced, at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUPS = 5
# probe time after each job or set-up, as a share of its time
PROBE_SHARE = 0.15

SPEC = BENCH.parent / "BENCHMARK.json"
# per-layer counts derived by formula from call arguments or results
COMPUTED = ("bootstrap.normals", "bootstrap.multiplier_bytes", "segmentation.margin_normals",
            "lrv.lags", "cli.input_bytes")
# span name and whether the metric is its total or its self time
SPAN_METRICS = {
    "bootstrap.run_s": ("bootstrap.run", "total"),
    "bootstrap.center_s": ("bootstrap.center", "total"),
    "segmentation.relevant_s": ("segmentation.relevant", "total"),
    "segmentation.detect_s": ("segmentation.detect", "total"),
    "segmentation.detect_self_s": ("segmentation.detect", "self"),
    "lrv.estimate_s": ("lrv.estimate", "total"),
    "lrv.mean_assignment_s": ("lrv.mean_assignment", "total"),
    "cli.ingest_s": ("cli.ingest", "total"),
    "cli.write_s": ("cli.write", "total"),
    "simulate.generate_s": ("simulate.generate", "total"),
    "bands.containment_s": ("bands.containment", "total"),
    "bands.build_s": ("bands.build", "total"),
    "pipeline.analyze_self_s": ("pipeline.analyze", "self"),
}
# units of the printed figures that BENCHMARK.json does not list; the layer
# times among them read 0 on every run of a workload that never calls the
# layer, so they are printed rather than reported as metrics
EXTRA_UNITS = {
    "cli.ingest_s": "s",
    "cli.ingest_mb_per_s": "MB/s",
    "cli.write_s": "s",
    "simulate.generate_s": "s",
    "bands.containment_s": "s",
    "job_s.samples": "count",
    "job_s.p50": "s",
    "setup_s.raw": "s",
    "setup_slowdown": "(probe time over its quiet-host time)",
    "job_slowdown.p50": "(probe time over its quiet-host time)",
    "probe.samples": "count",
    "curves_per_s": "1/s",
    "failed_ratio": "ratio",
    "analyze_s_per_call": "s",
    "reps_per_s": "1/s",
    "coverage": "ratio",
    "coverage_gap": "ratio",
    "coverage_mc_se": "ratio",
    "coverage_replications": "count",
    "layer_split": "(share of the traced job's wall time)",
}
# self-time groups for the printed split of a traced job
LAYERS = {
    "ingest": ("cli.ingest",),
    "segmentation": ("segmentation.detect", "segmentation.relevant"),
    "lrv": ("lrv.estimate", "lrv.mean_assignment"),
    "bootstrap": ("bootstrap.center", "bootstrap.run"),
    "bands": ("bands.build", "bands.containment"),
    "simulate": ("simulate.generate",),
    "writers": ("cli.write",),
    "pipeline (self)": ("pipeline.analyze",),
}


def metric_units(kind: str) -> dict:
    """{name: unit} of the 'end_to_end' or 'per_layer' metrics, in the order
    BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def workload_names() -> list:
    return [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_blas_threads() -> int:
    """One BLAS thread: the loop has one caller, and a second thread on a
    shared 2-vCPU host waits on whichever core a neighbour slows."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"L2": sizes.get("L2", "unknown"), "L3": sizes.get("L3", "unknown")}


def environment(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "cache": _cache_sizes(),
        "machine": platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


class Run:
    """Counts jobs and failures; a job that raises is reported, not fatal."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def job(self, i):
        self.attempted += 1
        try:
            out, dt = _timed(self.workload.run, i)
        except Exception:
            self.fail(f"job {i} raised:\n{traceback.format_exc()}")
            return None, None
        problems = self.workload.check(i, out)
        if problems:
            self.fail(f"job {i}: " + "; ".join(problems))
        return out, dt

    def fail(self, message):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {message}", file=sys.stderr)


def set_up(workload_cls, seed, smoke, workdir, probe=None):
    """Build the workload SETUPS times (input generation + one warm-up job),
    probing the host's speed after each; returns the last one, the median
    set-up time and the median slowdown over the set-ups."""
    times, slowdowns = [], []
    for _ in range(SETUPS):
        t = time.perf_counter()
        workload = workload_cls(seed, smoke, workdir)
        workload.run(0)
        times.append(time.perf_counter() - t)
        if probe is not None:
            slowdowns.append(probe.measure(PROBE_SHARE * times[-1]))
    return workload, statistics.median(times), _median(slowdowns) or 1.0


def measure_untraced(run, seconds, probe):
    """Jobs back to back, each followed by the speed probe; returns the raw
    job times and the times divided by the slowdown the probe saw."""
    job_s, adjusted_s = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        _, dt = run.job(i)
        if dt is not None:
            job_s.append(dt)
            adjusted_s.append(dt / probe.measure(PROBE_SHARE * dt))
        i += 1
    return job_s, adjusted_s


def compare(run, i, plain, traced):
    if plain is not None and traced is not None and run.workload.fingerprint(traced) != plain:
        run.fail(f"job {i}: traced output differs from untraced output")


def measure_traced(run, seconds):
    """Untraced then traced job on each input; outputs must match bit for bit."""
    from spans import Tracer

    tracer = Tracer()
    plain_s, traced_s = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        plain, dt = run.job(i)
        if dt is not None:
            plain_s.append(dt)
            plain = run.workload.fingerprint(plain)
        with tracer.job(i):
            traced, dt = run.job(i)
        if dt is not None:
            traced_s.append(dt)
            compare(run, i, plain, traced)
        if i == 0:
            with tracer.memory_job():
                traced, _ = run.job(i)
            compare(run, i, plain, traced)
        i += 1
    return tracer, plain_s, traced_s


def end_to_end_metrics(adjusted_s, setup_s):
    return {
        "job_s.p50.adjusted": _median(adjusted_s),
        # a worker pool's memory counts too: its largest child is added
        "peak_rss_mb": sum(resource.getrusage(who).ru_maxrss for who in
                           (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
        "setup_s": setup_s,
    }


def per_layer_metrics(tracer, plain_s, traced_s):
    jobs = list(tracer.per_job().values())
    metrics = {}
    for name, (span, kind) in SPAN_METRICS.items():
        metrics[name] = _median([j[kind].get(span, 0.0) for j in jobs])
    for name in COMPUTED + ("segmentation.changes",):
        metrics[name] = _median([j["counts"].get(name, 0) for j in jobs])
    metrics["bootstrap.peak_mb"] = _median(tracer.peaks_mb)
    ingest_rates = [
        j["counts"]["cli.input_bytes"] / j["total"]["cli.ingest"] / 1e6
        for j in jobs
        if j["total"].get("cli.ingest")
    ]
    metrics["cli.ingest_mb_per_s"] = _median(ingest_rates)
    metrics["trace.uncovered_s"] = _median([j["uncovered_s"] for j in jobs])
    metrics["trace.overhead_s"] = _median(traced_s) - _median(plain_s)
    return metrics, jobs


def layer_split(jobs) -> dict:
    """Median share of the traced job's wall time per layer (self times)."""
    split = {}
    for layer, spans in LAYERS.items():
        split[layer] = _median([sum(j["self"].get(s, 0.0) for s in spans) / j["job_s"] for j in jobs])
    split["uncovered"] = _median([j["uncovered_s"] / j["job_s"] for j in jobs])
    return split


def _quantile_note(values):
    """p90, reported only when at least ten samples lie beyond it."""
    if len(values) < 2:
        return f"n/a ({len(values)} samples)"
    p90 = statistics.quantiles(values, n=10)[8]
    beyond = sum(v > p90 for v in values)
    if beyond < 10:
        return f"n/a (only {beyond} of {len(values)} samples beyond p90)"
    return f"{p90:.6g} s ({len(values)} samples, {beyond} beyond)"


def run_workload(name, seed, seconds, traced, smoke=False, import_s=0.0, env=None):
    from speed import SpeedProbe
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    probe = None if traced else SpeedProbe()
    try:
        workload, setup_s, setup_slowdown = set_up(workload_cls, seed, smoke, workdir, probe)
        run = Run(workload)
        extra = {}
        if traced:
            tracer, plain_s, traced_s = measure_traced(run, seconds)
            metrics, jobs = per_layer_metrics(tracer, plain_s, traced_s)
            units = metric_units("per_layer")
            extra.update({k: v for k, v in metrics.items() if k not in units})
            extra["layer_split"] = layer_split(jobs)
            extra["analyze_s_per_call"] = _median(
                [j["total"]["pipeline.analyze"] / j["calls"]["pipeline.analyze"] for j in jobs if "pipeline.analyze" in j["calls"]]
            )
            extra["missing_trace_targets"] = tracer.missing
            job_s = plain_s
        else:
            job_s, adjusted_s = measure_untraced(run, seconds, probe)
            metrics = end_to_end_metrics(adjusted_s, (setup_s + import_s) / setup_slowdown)
            units = metric_units("end_to_end")
            extra.update({
                "setup_s.raw": setup_s + import_s,
                "setup_slowdown": setup_slowdown,
                "job_slowdown.p50": _median([a / b for a, b in zip(job_s, adjusted_s)]),
                "probe.samples": len(probe.times),
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra["job_s.samples"] = len(job_s)
    extra["job_s.p50"] = _median(job_s)
    extra["job_s.p90"] = _quantile_note(job_s)
    extra["curves_per_s"] = workload.curves_per_job * len(job_s) / sum(job_s) if job_s else 0.0
    extra["failed_ratio"] = run.failed / run.attempted
    if hasattr(workload, "summary"):
        extra.update(workload.summary(job_s))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    print(f"workload {name}  seed {seed}  trace {int(traced)}  sizes {workload.sizes}")
    print(f"  why: {workload.why}")
    if env:
        print(f"  environment: {json.dumps(env)}")
    for key, unit in units.items():
        label = " (computed)" if key in COMPUTED else ""
        print(f"  {key} = {metrics[key]:.6g} {unit}{label}")
    for key, value in extra.items():
        print(f"  {key} = {value} {EXTRA_UNITS.get(key, '')}".rstrip())
    if traced:
        print("  computed counts come from a formula on call arguments or results, not from the library")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "sizes": workload.sizes, "why": workload.why, "environment": env,
              "result": result, "extra": extra, "job_s": job_s}
    if traced:
        record["spans"] = tracer.dump()
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record))
    return result


def smoke() -> int:
    ok = True
    for name in workload_names():
        for traced in (False, True):
            result = run_workload(name, seed=1, seconds=0.2, traced=traced, smoke=True)
            print(json.dumps(result))
            ok = ok and result["correct"]
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "fdabands" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    blas_threads = _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import fdabands  # noqa: F401  (numpy comes with it)
    import workloads  # noqa: F401
    import_s = time.perf_counter() - t
    if Path(fdabands.__file__).resolve().parent != SRC / "fdabands":
        print(f"error: imported fdabands from {fdabands.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          import_s=import_s, env=environment(blas_threads))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
