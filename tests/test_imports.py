"""Every name a fdabands module imports from a sibling module is used there,
and no module imports a sibling's private (underscore-prefixed, non-dunder)
name.

The benchmark's tracer (bench/spans.py) patches exactly these imported
names, so a dead import would look like a live trace target whose span
never fires.  A private name belongs to the module that defines it: a
sibling that needs it should get a public function instead.

The tracer skips a target whose name is gone, so a renamed or moved call
would make its per-layer metric read 0 without a failure; the last test
keeps the set of missing targets from growing.

The package's public names are pinned, so one is added or removed only on
purpose.

Importing the package starts no thread: the bootstrap's draw pool starts on
the first draw.  And the analysis never imports numpy.ma, which numpy >= 2
loads on the first np.median or np.unique call.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fdabands"
# trace targets whose calls are gone from the library; the benchmark's
# tracer still lists them, and they read 0
STALE_TRACE_TARGETS = {
    "fdabands.pipeline.segment_mean_assignment",
    "fdabands.segmentation.segment_mean_assignment",
    "fdabands.pipeline.center_residuals",
}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def sibling_imports(path):
    """The aliases of the names `path` imports from sibling modules, and its AST."""
    tree = ast.parse(path.read_text())
    return [
        alias
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ], tree


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_sibling_imports_are_used(path):
    aliases, tree = sibling_imports(path)
    imported = {alias.asname or alias.name for alias in aliases}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_sibling_imports(path):
    aliases, _ = sibling_imports(path)
    private = [a.name for a in aliases if a.name.startswith("_") and not a.name.endswith("__")]
    assert sorted(private) == []


def test_trace_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    assert set(spans.Tracer().missing) <= STALE_TRACE_TARGETS


# `__all__` is every name of the package that has no leading underscore,
# its submodules included
PUBLIC_NAMES = [
    "AnalysisResult", "Band", "BootstrapConfig", "BootstrapResult", "ChangePointSet",
    "ConfidenceBandSet", "ContainmentResult", "CoverageReport", "Curve", "FunctionalTimeSeries",
    "Grid", "GroundTruth", "InvalidInputError", "KERNELS", "LrvConfig",
    "LrvEstimate", "PipelineConfig", "RelevantChangeConfig", "RelevantSet", "ScenarioSpec",
    "Segment", "SegmentFit", "SegmentationConfig", "analyze", "auto_bandwidth",
    "auto_block_length", "auto_delta", "bands", "bootstrap", "build_bands", "check_containment",
    "core", "curve_values", "detect_change_points", "estimate_lrv", "fit_segments", "generate",
    "lrv", "pipeline", "relevant_set", "run_bootstrap", "run_coverage_study", "segmentation",
    "segments_from_indices", "segments_from_locations", "simulate", "sup_norm",
]


def test_public_names_are_pinned():
    import fdabands

    assert len(PUBLIC_NAMES) == 47
    assert sorted(fdabands.__all__) == PUBLIC_NAMES


def test_import_starts_no_thread():
    code = "import threading, fdabands; print([t.name for t in threading.enumerate()])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "['MainThread']"


# analyze with both relevant filters, the CLI pipeline with auto delta and
# its writers, and a coverage study; prints whether numpy.ma was imported by
# `import numpy` alone and by the end
NO_MASKED_ARRAYS = """
import sys
from pathlib import Path

import numpy

print("numpy.ma" in sys.modules)
from fdabands import PipelineConfig, RelevantChangeConfig, ScenarioSpec, analyze, generate, run_coverage_study
from fdabands.cli import RunConfig, run_pipeline

spec = ScenarioSpec(n=120, grid_size=20, means=[0.0, 4.0], change_locations=[0.5], rng_seed=3)
x, _ = generate(spec)
cfg = PipelineConfig(replications=200)
analyze(x, cfg)
analyze(x, PipelineConfig(replications=200, relevant=RelevantChangeConfig(method="bootstrap")))
work = Path(sys.argv[1])
(work / "x.csv").write_text("".join(",".join(map(repr, row)) + "\\n" for row in x.values.tolist()))
run_pipeline(RunConfig(input=str(work / "x.csv"), output_dir=str(work / "out"), grid_size=20, replications=200))
run_coverage_study(spec, cfg, replications=2)
print("numpy.ma" in sys.modules)
"""


def test_analysis_imports_no_numpy_ma(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    with_numpy, at_end = out.stdout.split()
    if with_numpy == "True":
        pytest.skip("this numpy imports numpy.ma with `import numpy`")
    assert (tmp_path / "out" / "diagnostics.txt").is_file()
    assert at_end == "False"
