"""In-memory span tracer that wraps the library's layer entry points.

Tracing lives entirely in the benchmark: while a traced job runs, the names
that fdabands modules import from each other are replaced by timing
wrappers, and restored afterwards, so untraced jobs run the library exactly
as shipped.  A span is (name, start, end, parent, job); a layer's self time
is its span's duration minus the durations of its direct children.

A separate, untimed memory job records the tracemalloc peak inside the
bootstrap call.

Some wrappers also record counts.  They are computed from a call's
arguments or result by the formula named beside each counter, not measured
inside the library, and every report labels them as computed.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
from contextlib import contextmanager
from functools import partial


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _bootstrap_counts(args, kwargs, result):
    # the (R, n) float64 multiplier matrix that run_bootstrap draws
    y, cfg = _arg(args, kwargs, 0, "y"), _arg(args, kwargs, 3, "cfg")
    normals = int(cfg.replications) * int(y.n)
    return {"bootstrap.normals": normals, "bootstrap.multiplier_bytes": 8 * normals}


def _margin_counts(args, kwargs, result):
    # method="bootstrap" draws calibration_replications normals per curve of
    # the two segments beside every detected change
    cps, cfg = _arg(args, kwargs, 1, "cps"), _arg(args, kwargs, 2, "cfg")
    draws = 0
    if cfg is not None and cfg.method == "bootstrap":
        bounds = (0, *cps.indices, cps.n)
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]
        per_rep = sum(lengths[i - 1] + lengths[i] for i in range(1, len(lengths)))
        draws = int(cfg.calibration_replications) * per_rep
    return {"segmentation.margin_normals": draws}


def _detect_counts(args, kwargs, result):
    return {"segmentation.changes": result.m}


def _lrv_counts(args, kwargs, result):
    # lags -c..c of the lag-window sum
    return {"lrv.lags": 2 * int(result.bandwidth) + 1}


def _ingest_counts(args, kwargs, result):
    return {"cli.input_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute, span name, counter)
TARGETS = (
    ("fdabands.pipeline", "analyze", "pipeline.analyze", None),
    ("fdabands.cli", "analyze", "pipeline.analyze", None),
    ("fdabands.simulate", "analyze", "pipeline.analyze", None),
    ("fdabands.cli", "ingest", "cli.ingest", _ingest_counts),
    ("fdabands.cli", "write_changepoints", "cli.write", None),
    ("fdabands.cli", "write_bands", "cli.write", None),
    ("fdabands.cli", "write_diagnostics", "cli.write", None),
    ("fdabands.simulate", "generate", "simulate.generate", None),
    ("fdabands.simulate", "check_containment", "bands.containment", None),
    ("fdabands.pipeline", "detect_change_points", "segmentation.detect", _detect_counts),
    ("fdabands.pipeline", "relevant_set", "segmentation.relevant", _margin_counts),
    ("fdabands.pipeline", "segment_mean_assignment", "lrv.mean_assignment", None),
    ("fdabands.segmentation", "segment_mean_assignment", "lrv.mean_assignment", None),
    ("fdabands.pipeline", "estimate_lrv", "lrv.estimate", _lrv_counts),
    ("fdabands.segmentation", "estimate_lrv", "lrv.estimate", _lrv_counts),
    ("fdabands.pipeline", "center_residuals", "bootstrap.center", None),
    ("fdabands.pipeline", "run_bootstrap", "bootstrap.run", _bootstrap_counts),
    ("fdabands.pipeline", "build_bands", "bands.build", None),
)

# the call whose tracemalloc peak the memory job records
MEMORY_TARGET = ("fdabands.pipeline", "run_bootstrap")

# counters combined over the calls of one job by max instead of sum
_MAX_COUNTERS = ("lrv.lags",)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self.counts = []  # (job id, counter name, value)
        self.peaks_mb = []  # tracemalloc peak inside the first memory-target call
        self.missing = [f"{m}.{a}" for m, a, _, _ in TARGETS if not hasattr(importlib.import_module(m), a)]
        self._stack = []
        self._job = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, counter, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts.append((self._job, key, value))
            return result

        return traced

    def _wrap_memory(self, fn):
        def traced(*args, **kwargs):
            if self.peaks_mb:  # one call is enough: every call of a workload has the same sizes
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks_mb.append(tracemalloc.get_traced_memory()[1] / 1e6)
                tracemalloc.stop()

        return traced

    @contextmanager
    def _patched(self, wrappers):
        """Replace each present (module, attribute) by make(original) while
        the block runs; wrappers holds (module name, attribute, make)."""
        saved = []
        for mod_name, attr, make in wrappers:
            mod = importlib.import_module(mod_name)
            if hasattr(mod, attr):
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, make(fn))
        try:
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextmanager
    def job(self, job_id):
        """Time one job: every present target becomes a span under a root span
        named 'job'; the original functions are restored on exit."""
        with self._patched([(m, a, partial(self._wrap, name, counter)) for m, a, name, counter in TARGETS]):
            self._job = job_id
            self._open("job")
            try:
                yield
            finally:
                self._close()
                self._job = None

    @contextmanager
    def memory_job(self):
        """Record the tracemalloc peak inside the bootstrap, untimed:
        tracemalloc slows every allocation, so it never runs in a timed job."""
        with self._patched([(*MEMORY_TARGET, self._wrap_memory)]):
            yield

    def per_job(self):
        """{job id: {"total": {name: s}, "self": {name: s}, "calls": {name: k},
        "counts": {name: v}, "job_s": s, "uncovered_s": s}} from the spans."""
        jobs = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            rec = jobs.setdefault(job, {"total": {}, "self": {}, "calls": {}, "counts": {}})
            dur = end - start
            if name == "job":
                rec["job_s"] = dur
                rec["uncovered_s"] = dur - child_time[i]
                continue
            rec["total"][name] = rec["total"].get(name, 0.0) + dur
            rec["self"][name] = rec["self"].get(name, 0.0) + dur - child_time[i]
            rec["calls"][name] = rec["calls"].get(name, 0) + 1
        for job, key, value in self.counts:
            counts = jobs[job]["counts"]
            if key in _MAX_COUNTERS:
                counts[key] = max(counts.get(key, value), value)
            else:
                counts[key] = counts.get(key, 0) + value
        return jobs

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]
