"""Command line front end: ingest cycle data, run the analysis pipeline, and
emit plot-ready tables.

Verbs: ``analyze`` (data -> change points, bands, diagnostics), ``simulate``
(scenario -> dataset + truth), ``coverage`` (scenario -> Monte Carlo coverage
report), ``version``.  Exit codes: 0 success, 2 invalid input or
configuration, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import RNG_ALGORITHM
from .core import (
    FunctionalTimeSeries,
    Grid,
    InternalInvariantError,
    InvalidInputError,
    check_field_value,
    check_integer,
    median,
    row_blocks,
)
from .lrv import LrvConfig
from .pipeline import AnalysisResult, PipelineConfig, analyze
from .segmentation import RelevantChangeConfig, SegmentationConfig
from .simulate import ScenarioSpec, generate, run_coverage_study

_SIG_DIGITS = ".12g"


def _fmt(x) -> str:
    return format(float(x), _SIG_DIGITS)


def _render(value):
    """A float (Python or numpy) to 12 significant digits, anything else as is."""
    return _fmt(value) if isinstance(value, (float, np.floating)) else value


# ---------------------------------------------------------------------------
# ingestion


# the ingest reads this much of a file to find its delimiter, first line and
# layout; the csv sniffer sees the first _SNIFF_CHARS of it
_HEAD_CHARS = 65536
_SNIFF_CHARS = 4096
# the long layout's columns, named in its header row
_LONG_COLUMNS = ("cycle_id", "phase", "value")


def _read_text(path: Path, size: int = -1) -> str:
    """The first `size` characters of the file (all of it by default), read
    as UTF-8 without a leading byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read(size)
    except FileNotFoundError:
        raise InvalidInputError(f"file not found: {path}") from None
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"cannot read {path} as {exc.encoding} text") from None


def _sniff_delimiter(head: str) -> str:
    """The delimiter of the whole lines of the file's `head`: the first of
    ',', ';' and tab under which every non-blank one splits into the same
    number (at least 2) of cells, else what csv.Sniffer finds in them.  The
    sniffer reads a cell padded inside its quotes, such as " 1.5 ", as
    space-delimited, hence the width rule first.  Only whole lines are read:
    a line cut at the sample's end has fewer delimiters than the rest."""
    sample = head[:_SNIFF_CHARS]
    if head[_SNIFF_CHARS : _SNIFF_CHARS + 1] not in ("", "\n"):
        sample = sample.rpartition("\n")[0] or sample
    try:
        for delimiter in ",;\t":
            rows = csv.reader(sample.split("\n"), delimiter=delimiter)
            widths = {len(row) for row in rows if any(c.strip() for c in row)}
            if len(widths) == 1 and min(widths) >= 2:
                return delimiter
        return csv.Sniffer().sniff(sample, delimiters=",;\t ").delimiter
    except csv.Error:
        return ","


def _stripped_float(text: str) -> float:
    """float() of the cell stripped as np.loadtxt strips it: str.strip()
    also removes U+001C-U+001F, which float() alone refuses."""
    return float(text.strip())


def _parse_cell(text: str, row: int, col: int) -> float:
    """The cell as a number, read by np.loadtxt's rule: `_stripped_float` of
    a cell without underscores or non-ASCII text, else refused by row and
    column."""
    try:
        if "_" in text or not text.strip().isascii():
            raise ValueError
        return _stripped_float(text)
    except ValueError:
        raise InvalidInputError(
            f"row {row}, column {col}: cannot parse {text!r} as a number"
        ) from None


def _rows(rows, first: int):
    """(row number, row) for the csv `rows`, numbered from `first`; a row
    whose width differs from the first row's is refused."""
    width = None
    for r, row in enumerate(rows, start=first):
        width = width or len(row)
        if len(row) != width:
            raise InvalidInputError(f"row {r} has {len(row)} values, expected {width}")
        yield r, row


def ingest(path, grid_size: int = 100) -> FunctionalTimeSeries:
    """Read cycle data and resample every cycle onto the uniform grid.

    Two layouts are accepted: matrix (one row per cycle, columns are equally
    spaced phases) and long (columns cycle_id, phase, value; arbitrary
    per-cycle sampling).  Cycle order is preserved.  Rows end at line ends
    (LF, CRLF or CR) only.  Lines whose cells are all blank are skipped, and
    rows are numbered among the rest.  `_first_row` names the first row the
    long layout's header, a matrix header or a data row, for both parses
    below.  A blank first cell is a missing value, refused by row and
    column: a `,p0,p1` header, which an index column writes, is refused,
    since its data rows would read the index as phase 0.  A header with no
    data rows after it, in either layout, is refused.  Both layouts read
    rows by one rule, `_rows` (every row has the first row's width: a long
    row has its header's), and cells by one rule, `_parse_cell` (stripped
    as `np.loadtxt` strips it, then a float() literal without underscores or
    non-ASCII text, as `np.loadtxt` reads it); a blank cycle_id is a missing
    value, refused by row and column.

    Only a bounded head of the file is read as text up front, for the
    delimiter, the layout and a header row.  A matrix whose first line is
    not blank is then parsed by one `np.loadtxt` call on the path (C parser
    reading the file in chunks, the sniffed delimiter, '"' quoting, no
    comment character).  `np.loadtxt` skips empty lines and rejects a line
    of blank cells, so a file it accepts has no line the line path would
    skip.  Every other file, and every file it rejects, takes the line path:
    the whole text, split into its non-blank lines, goes to `np.loadtxt` or,
    for the long layout, to `csv`; when the matrix parse fails there, the
    rows are read again with `csv` only to name the first ragged row or
    unparseable cell.
    """
    path = Path(path)
    head = _read_text(path, _HEAD_CHARS)
    delimiter = _sniff_delimiter(head)
    grid = Grid.uniform(grid_size)
    values = _parse_matrix_file(path, head, delimiter)
    if values is None:
        # the line path; a file that cannot be decoded raises here
        text = _read_text(path)
        lines = [line for line in text.split("\n") if not _blank_line(line, delimiter)]
        if not lines:
            raise InvalidInputError(f"input file is empty: {path}")
        role = _first_row(_cells(lines[0], delimiter))
        if role != "data" and len(lines) == 1:
            layout = "long" if role == "long" else "matrix"
            raise InvalidInputError(f"{layout} layout has a header but no data rows")
        if role == "long":
            return _ingest_long(csv.reader(lines, delimiter=delimiter), grid)
        start = int(role == "header")
        try:
            values = np.loadtxt(
                lines[start:], delimiter=delimiter, comments=None, quotechar='"', ndmin=2
            )
        except ValueError as exc:
            _raise_matrix_error(lines, delimiter, start, exc)
    if values.shape[1] < 2:
        raise InvalidInputError(f"matrix layout needs at least 2 columns, got {values.shape[1]}")
    if values.shape[1] != len(grid):
        values = _resample(values, grid.points)
    values.setflags(write=False)  # the series takes it over without a copy
    return FunctionalTimeSeries(values, grid)


def _cells(line: str, delimiter: str) -> list:
    return next(csv.reader([line], delimiter=delimiter), [])


def _blank_line(line: str, delimiter: str) -> bool:
    """True when every cell of the line is blank.  A line whose first
    character other than a delimiter, quote, space or tab is not whitespace
    has a non-blank cell; any other line is split with csv to find out."""
    head = line.lstrip(delimiter + '" \t')[:1]
    if head and not head.isspace():
        return False
    return not any(c.strip() for c in _cells(line, delimiter))


def _ingest_long(rows, grid: Grid) -> FunctionalTimeSeries:
    """The cycles of a long-layout file from its csv `rows`, the header
    first: every row has the header's width, and a blank cycle_id is a
    missing value, refused by row and column."""
    rows = _rows(rows, 1)
    header = [c.strip().lower() for c in next(rows)[1]]
    try:
        ci, pi, vi = (header.index(name) for name in _LONG_COLUMNS)
    except ValueError:
        raise InvalidInputError(
            f"long layout needs columns {', '.join(_LONG_COLUMNS)}"
        ) from None
    cycles: dict = {}
    for r, row in rows:
        cid = row[ci].strip()
        if not cid:
            raise InvalidInputError(f"row {r}, column {ci + 1}: blank cycle_id")
        phase = _parse_cell(row[pi], r, pi + 1)
        value = _parse_cell(row[vi], r, vi + 1)
        cycles.setdefault(cid, []).append((phase, value))
    curves = []
    for cid, samples in cycles.items():  # insertion order = stride order
        samples.sort(key=lambda pv: pv[0])
        phases = np.array([p for p, _ in samples])
        values = np.array([v for _, v in samples])
        if phases.size < 2:
            raise InvalidInputError(f"cycle {cid!r} has fewer than 2 samples")
        if not np.all((phases >= 0.0) & (phases <= 1.0)):  # NaN fails both
            raise InvalidInputError(f"cycle {cid!r} has phases outside [0, 1]")
        if np.any(np.diff(phases) <= 0):
            raise InvalidInputError(f"cycle {cid!r} has duplicate phases")
        curves.append(np.interp(grid.points, phases, values))
    values = np.stack(curves)
    values.setflags(write=False)
    return FunctionalTimeSeries(values, grid)


def _first_row(cells) -> str:
    """The role of a file's first non-blank row: "long" when a cell reads
    cycle_id (the long layout's header), "header" when its first cell is
    neither blank nor a number (a matrix header), else "data".  A cell is a
    number when `_stripped_float` reads it, so padding that np.loadtxt
    strips does not make a data row a header; a number that `_parse_cell`
    refuses (underscores, non-ASCII digits) still makes a data row, refused
    by row and column rather than dropped.  A blank first cell is a missing
    value, which the data row's parse refuses by row and column."""
    if _LONG_COLUMNS[0] in (c.strip().lower() for c in cells):
        return "long"
    try:
        _stripped_float(cells[0])
    except ValueError:
        return "header" if cells[0].strip() else "data"
    return "data"


def _parse_matrix_file(path: Path, head: str, delimiter: str):
    """The matrix parsed straight from the file, or None when the line path
    must read it: the first line is blank, or runs past the head; it is the
    long layout's header; a header row has nothing after it in the head
    (which `np.loadtxt` would meet with a warning, not an error); or
    `np.loadtxt` rejects the file."""
    first, newline, rest = head.partition("\n")
    if not (newline or len(head) < _HEAD_CHARS) or _blank_line(first, delimiter):
        return None
    role = _first_row(_cells(first, delimiter))
    if role == "long" or (role == "header" and not rest.strip()):
        return None
    try:
        return np.loadtxt(
            str(path),
            delimiter=delimiter,
            comments=None,
            quotechar='"',
            ndmin=2,
            skiprows=int(role == "header"),
            encoding="utf-8-sig",
        )
    except ValueError:  # also UnicodeDecodeError, which the line path's read reports
        return None


def _raise_matrix_error(lines, delimiter: str, start: int, exc: ValueError):
    """Raise for the first ragged row or unparseable cell `np.loadtxt`
    stopped at, by row number among the non-blank lines."""
    for r, row in _rows(csv.reader(lines[start:], delimiter=delimiter), start + 1):
        for j, cell in enumerate(row, start=1):
            _parse_cell(cell, r, j)
    raise InvalidInputError(f"cannot parse the matrix rows: {exc}")


def _resample(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """np.interp(t, linspace(0, 1, width), row) for every row, with
    np.interp's arithmetic: slope * (t - xp[j]) + row[j] between the phases
    xp[j] <= t < xp[j + 1], and row[j] itself where t == xp[j] or j is last.

    The output is filled in row blocks of about `core._BLOCK_ENTRIES`
    entries, so the gathered left neighbours are one block, not a second
    (n, T) array beside the output; every entry is formed by the same
    operations as on the whole matrix, so the bits do not depend on the
    blocks.
    """
    width = values.shape[1]
    xp = np.linspace(0.0, 1.0, width)
    j = np.searchsorted(xp, t, side="right") - 1
    k = np.minimum(j, width - 2)
    step, offset = xp[k + 1] - xp[k], t - xp[k]
    at_phase = (j == width - 1) | (xp[j] == t)
    exact = j[at_phase]
    # C-ordered like the rows np.interp fills, so later reductions over
    # cycles add in the same order
    out = np.empty((values.shape[0], t.size))
    with np.errstate(all="ignore"):  # np.interp computes in C without warnings
        for a, b in row_blocks(values.shape[0], t.size):
            rows, block = values[a:b], out[a:b]
            left = rows.take(k, axis=1)
            rows.take(k + 1, axis=1, out=block, mode="clip")  # 'clip' fills `block` unbuffered
            # slope * (t - xp[k]) + left formed in place, rounded at the same steps
            np.subtract(block, left, out=block)
            block /= step
            block *= offset
            block += left
            block[:, at_phase] = rows.take(exact, axis=1)
    return out


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    input: str
    output_dir: str
    grid_size: int = 100
    alpha: float = 0.1
    delta: float | str = "auto"
    block_length: int | str = "auto"
    replications: int = 2000
    seed: int = 0
    kernel: str = "bartlett"
    bandwidth: int | str = "auto"
    xi: float | str = "auto"
    min_segment_length: int | None = None
    max_changes: int = 50

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(
            alpha=self.alpha,
            segmentation=SegmentationConfig(
                threshold=self.xi,
                min_segment_length=self.min_segment_length,
                max_changes=self.max_changes,
            ),
            relevant=RelevantChangeConfig(delta=self.delta),
            lrv=LrvConfig(bandwidth=self.bandwidth, kernel=self.kernel),
            block_length=self.block_length,
            replications=self.replications,
            rng_seed=self.seed,
        )


# ---------------------------------------------------------------------------
# serialization


def _write_csv(path, rows) -> None:
    """One CSV line per row (CRLF line ends), cells rendered by `_render`."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([_render(v) for v in row] for row in rows)


def _key_values(rows) -> str:
    """One `key = value` line per (key, value) row, values rendered by `_render`."""
    return "".join(f"{key} = {_render(value)}\n" for key, value in rows)


def write_changepoints(path, result: AnalysisResult) -> None:
    cps, relevant = result.change_points, result.relevant
    flags = [int(i in relevant.indices) for i in range(1, cps.m + 1)]
    rows = zip(cps.indices, cps.locations, relevant.all_jumps, flags)
    _write_csv(path, [("index", "s_hat", "jump_size", "relevant"), *rows])


def write_bands(path, band_set) -> None:
    rows = [("segment", "t", "lower", "center", "upper")]
    for b in band_set.bands:
        columns = (b.center.grid.points, b.lower.values, b.center.values, b.upper.values)
        rows += ((b.index, *values) for values in zip(*columns))
    _write_csv(path, rows)


def read_bands(path) -> dict:
    """Re-read a bands table as {segment index: dict of t/lower/center/upper arrays}."""
    groups: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            g = groups.setdefault(int(row["segment"]), {"t": [], "lower": [], "center": [], "upper": []})
            for key in ("t", "lower", "center", "upper"):
                g[key].append(float(row[key]))
    return {k: {key: np.array(v) for key, v in g.items()} for k, g in groups.items()}


def write_diagnostics(path, result: AnalysisResult) -> None:
    """One `key = value` line per run fact, keys sorted."""
    cfg = result.config
    sigma2 = result.lrv.sigma2.values
    entries = {
        "version": __version__,
        "n": result.change_points.n,
        "grid_size": sigma2.size,
        "alpha": cfg.alpha,
        "delta": result.delta,
        "kernel": cfg.lrv.kernel,
        "bandwidth": result.lrv.bandwidth,
        "block_length": result.bootstrap.block_length,
        "replications": cfg.replications,
        "rng_seed": cfg.rng_seed,
        "rng_algorithm": RNG_ALGORITHM,
        "quantile": result.bands.quantile,
        "segmentation_threshold": result.change_points.threshold,
        "num_changes": result.change_points.m,
        "relevant_indices": ",".join(str(i) for i in result.relevant.indices),
        "sigma2_min": sigma2.min(),
        "sigma2_median": median(sigma2),
        "sigma2_max": sigma2.max(),
    }
    Path(path).write_text(_key_values(sorted(entries.items())))


def _output_dir(path) -> Path:
    """The directory `path`, created with its parents where missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def run_pipeline(cfg: RunConfig) -> AnalysisResult:
    """Ingest, analyze, and write the changepoints/bands/diagnostics tables.

    The output directory is created after the settings (the grid size
    among them) are checked and before the input is read, so one that
    cannot be is reported before the work (an empty one is left when ingest
    then fails).
    """
    pipeline_cfg = cfg.pipeline_config()
    check_integer("grid size", cfg.grid_size, 2)  # Grid.uniform's check, before the mkdir
    out = _output_dir(cfg.output_dir)
    x = ingest(cfg.input, cfg.grid_size)
    result = analyze(x, pipeline_cfg)
    write_changepoints(out / "changepoints.csv", result)
    write_bands(out / "bands.csv", result.bands)
    write_diagnostics(out / "diagnostics.txt", result)
    return result


# ---------------------------------------------------------------------------
# argument parsing


def _auto_or(type_):
    def convert(text):
        return "auto" if text == "auto" else type_(text)

    return convert


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    """Flags named after the RunConfig field they set (dashes for underscores)."""
    p.add_argument("--alpha", type=float, default=None, help="band level (default 0.1)")
    p.add_argument("--delta", type=_auto_or(float), default=None, help="jump threshold or 'auto'")
    p.add_argument("--block-length", type=_auto_or(int), default=None, help="bootstrap block length or 'auto'")
    p.add_argument("--replications", type=int, default=None, help="bootstrap replications (default 2000)")
    p.add_argument("--kernel", default=None, help="lag-window kernel: bartlett, parzen, flat_top")
    p.add_argument("--bandwidth", type=_auto_or(int), default=None, help="lag-window bandwidth or 'auto'")
    p.add_argument("--xi", type=_auto_or(float), default=None, help="segmentation threshold or 'auto'")
    p.add_argument("--min-segment-length", type=int, default=None)
    p.add_argument("--max-changes", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdabands", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="segment a series and emit confidence bands")
    p_an.add_argument("--input", default=None, help="cycle data (matrix or long layout)")
    p_an.add_argument("--output-dir", default=None)
    p_an.add_argument("--config", default=None, help="JSON file presetting any flag; flags override")
    p_an.add_argument("--grid-size", type=int, default=None, help="grid size T (default 100)")
    p_an.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    _add_pipeline_flags(p_an)

    p_sim = sub.add_parser("simulate", help="draw a synthetic dataset with known truth")
    p_sim.add_argument("--spec", required=True, help="scenario spec (JSON)")
    p_sim.add_argument("--output-dir", required=True)

    p_cov = sub.add_parser("coverage", help="Monte Carlo coverage study")
    p_cov.add_argument("--spec", required=True, help="scenario spec (JSON)")
    p_cov.add_argument("--study-replications", type=int, default=100)
    p_cov.add_argument("--output-dir", default=None)
    _add_pipeline_flags(p_cov)

    sub.add_parser("version", help="print the library version")
    return parser


def _load_json(path) -> dict:
    try:
        document = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"cannot parse {path}: {exc}") from None
    if not isinstance(document, dict):
        raise InvalidInputError(f"{path} must hold a JSON object, got {type(document).__name__}")
    return document


def _run_config(args, **settings) -> RunConfig:
    """`settings`, then the --config file (analyze only), then every flag
    given, each overriding the last; flags are read off `args` by RunConfig
    field name."""
    fields = RunConfig.__dataclass_fields__
    if getattr(args, "config", None):
        file_settings = _load_json(args.config)
        unknown = set(file_settings) - set(fields)
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_settings.items():
            check_field_value(RunConfig, key, value, "config key")
        settings.update(file_settings)
    settings.update({k: v for k, v in vars(args).items() if k in fields and v is not None})
    if not settings.get("input"):
        raise InvalidInputError("no input file given (flag --input or config key 'input')")
    if not settings.get("output_dir"):
        raise InvalidInputError("no output directory given (--output-dir)")
    return RunConfig(**settings)


def _cmd_analyze(args) -> int:
    cfg = _run_config(args)
    result = run_pipeline(cfg)
    print(
        f"n={result.change_points.n} changes={result.change_points.m} "
        f"relevant={len(result.relevant.indices)} quantile={_fmt(result.bands.quantile)} "
        f"delta={_fmt(result.delta)}"
    )
    print(f"wrote changepoints.csv, bands.csv, diagnostics.txt to {cfg.output_dir}")
    return 0


def _cmd_simulate(args) -> int:
    spec = ScenarioSpec.from_dict(_load_json(args.spec))
    out = _output_dir(args.output_dir)
    x, truth = generate(spec)
    _write_csv(out / "dataset.csv", x.values)
    truth_doc = {
        "spec": spec.to_dict(),
        "grid": [float(t) for t in x.grid.points],
        "change_locations": list(truth.change_locations),
        "jump_sizes": list(truth.jump_sizes),
        "segment_means": [[float(v) for v in c.values] for c in truth.segment_means],
        "lrv": [float(v) for v in truth.lrv.values],
        "pointwise_variance": [float(v) for v in truth.pointwise_variance.values],
    }
    (out / "truth.json").write_text(json.dumps(truth_doc, indent=2))
    print(f"wrote dataset.csv ({x.n} cycles) and truth.json to {out}")
    return 0


def _cmd_coverage(args) -> int:
    spec = ScenarioSpec.from_dict(_load_json(args.spec))
    # coverage reads no input file and writes no analysis tables
    cfg = _run_config(args, input="-", output_dir="-").pipeline_config()
    check_integer("study replications", args.study_replications, 1)  # before the mkdir
    out = _output_dir(args.output_dir) if args.output_dir else None
    rows = run_coverage_study(spec, cfg, replications=args.study_replications).summary_rows()
    print(_key_values(rows), end="")
    if out is not None:
        _write_csv(out / "coverage.csv", [("metric", "value"), *rows])
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "coverage":
            return _cmd_coverage(args)
        if args.command == "version":
            print(__version__)
            return 0
        raise InternalInvariantError(f"unhandled command {args.command!r}")
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
