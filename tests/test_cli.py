import argparse
import csv
import dataclasses
import inspect
import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdabands.cli as cli
from fdabands import PipelineConfig, ScenarioSpec, __version__, generate
from fdabands.cli import RunConfig, _build_parser, ingest, main, read_bands
from oracles import matrix_by_lines

from fdabands import InvalidInputError


def write_matrix(path, values, delimiter=",", header=None):
    lines = []
    if header is not None:
        lines.append(delimiter.join(header))
    for row in values:
        lines.append(delimiter.join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


# whitespace that np.loadtxt strips from a cell: U+001C-U+001F, which
# float() alone refuses, and three that float() strips too
PADDING = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003"]
padded_by = pytest.mark.parametrize("space", PADDING, ids=[f"U+{ord(c):04X}" for c in PADDING])


class TestIngest:
    def test_matrix_width_equals_grid(self, tmp_path):
        vals = np.random.default_rng(0).normal(size=(6, 10))
        f = tmp_path / "data.csv"
        write_matrix(f, vals)
        x = ingest(f, grid_size=10)
        # repr round-trips doubles exactly, so no resampling and no loss
        assert np.array_equal(x.values, vals)

    def test_matrix_with_header(self, tmp_path):
        vals = np.arange(8.0).reshape(2, 4)
        f = tmp_path / "data.csv"
        write_matrix(f, vals, header=[f"p{j}" for j in range(4)])
        x = ingest(f, grid_size=4)
        assert np.array_equal(x.values, vals)

    def test_matrix_resampling(self, tmp_path):
        # linear curves survive linear interpolation exactly
        f = tmp_path / "data.csv"
        src = np.linspace(0.0, 1.0, 5)
        write_matrix(f, [2.0 * src, 2.0 * src + 1.0])
        x = ingest(f, grid_size=9)
        t = x.grid.points
        assert np.allclose(x.values[0], 2.0 * t, atol=1e-14)
        assert np.allclose(x.values[1], 2.0 * t + 1.0, atol=1e-14)

    def test_semicolon_delimiter(self, tmp_path):
        f = tmp_path / "data.csv"
        write_matrix(f, np.ones((3, 4)), delimiter=";")
        assert ingest(f, grid_size=4).n == 3

    def test_long_layout(self, tmp_path):
        # piecewise-linear knot at phase 0.5; interp must hit it exactly
        f = tmp_path / "long.csv"
        rows = ["cycle_id,phase,value"]
        for cid, scale in (("a", 1.0), ("b", 2.0)):
            for phase, value in ((0.0, 0.0), (0.5, scale), (1.0, 0.0)):
                rows.append(f"{cid},{phase},{value}")
        f.write_text("\n".join(rows) + "\n")
        x = ingest(f, grid_size=5)
        assert x.n == 2
        assert np.allclose(x.values[0], [0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-14)
        assert np.allclose(x.values[1], [0.0, 1.0, 2.0, 1.0, 0.0], atol=1e-14)

    def test_long_layout_unsorted_rows(self, tmp_path):
        f = tmp_path / "long.csv"
        f.write_text(
            "cycle_id,phase,value\nc,1.0,3.0\nc,0.0,1.0\nc,0.5,2.0\n"
        )
        x = ingest(f, grid_size=3)
        assert np.allclose(x.values[0], [1.0, 2.0, 3.0], atol=1e-14)

    def test_bad_cell_reports_position(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(InvalidInputError, match="row 2, column 2"):
            ingest(f, grid_size=2)

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("1.0,2.0,3.0\n4.0,5.0\n")
        with pytest.raises(InvalidInputError, match="row 2"):
            ingest(f, grid_size=3)

    @pytest.mark.parametrize(
        "n, width, T",
        [(7, 2, 9), (7, 5, 9), (7, 9, 9), (7, 14, 9), (1327, 101, 100), (5956, 7, 33)],
        ids=["two", "below_T", "equal_T", "above_T", "1327-101-100", "5956-7-33"],
    )
    def test_resampling_matches_per_row_interp(self, tmp_path, n, width, T):
        vals = np.random.default_rng([n, width]).normal(size=(n, width))
        f = tmp_path / "data.csv"
        write_matrix(f, vals)
        x = ingest(f, grid_size=T)
        xp = np.linspace(0.0, 1.0, width)
        expected = np.stack([np.interp(x.grid.points, xp, row) for row in vals])
        assert x.values.tobytes() == expected.tobytes()
        # segment means add the cycles in memory order, so the layout matters too
        assert x.values.flags["C_CONTIGUOUS"]
        assert cli._resample(np.asfortranarray(vals), x.grid.points).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            " 1.0 , 2.0,3\n4,5 , 6 \n",
            '"1.0","2",3\n4,"5"," 6"\n',
            "1\t2\t3\n4\t 5\t6\n",
            "1 2 3\n4 5 6\n",
            "\n1,2,3\n\n   \n\t\n,,\n4,5,6\n\n",
            "1,2,3\r\n4,5,6\r\n",
            "# phase 0, 0.5, 1\n1,2,3\n4,5,6\n",
            # rows end at line ends only; other whitespace is part of a cell,
            # in the path parse and the line path alike
            "1\f,2,3\n4,5,6\n",
            "1\f,2,3\n,,\n4,5,6\n",
            # csv.Sniffer alone reads cells padded inside quotes as space-delimited
            '" 1 "," 2 "," 3 "\n" 4 "," 5 "," 6 "\n',
            '" 1 ";" 2 ";" 3 "\n" 4 ";" 5 ";" 6 "\n',
            '" 1 "\t" 2 "\t" 3 "\n" 4 "\t" 5 "\t" 6 "\n',
        ],
        ids=["spaces", "quotes", "tabs", "space_delimiter", "blank_lines", "crlf", "hash_header",
             "form_feed", "form_feed_line_path", "padded_inside_quotes",
             "padded_inside_quotes_semicolon", "padded_inside_quotes_tab"],
    )
    def test_matrix_text_forms(self, tmp_path, text):
        f = tmp_path / "data.csv"
        f.write_text(text, newline="")
        assert np.array_equal(ingest(f, grid_size=3).values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2,\n3,4,\n", "row 1, column 3: cannot parse ''"),
            # a first row is a header only when its first cell is not a number
            ("1.0,NA,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n", "row 1, column 2: cannot parse 'NA'"),
            ("1\tNA\t3\n4\t5\t6\n", "row 1, column 2: cannot parse 'NA'"),
            ("1,2\n\n3,x\n", "row 2, column 2: cannot parse 'x'"),  # rows counted without blanks
            ("1,2,3\n4,5_0,6\n", "row 2, column 2: cannot parse '5_0'"),  # no float() underscores
            ("1,2,3\n4,nan,6\n", "series values must be finite"),
            ("1,2,3\n4,-inf,6\n", "series values must be finite"),
            ("1,2,3\n4,inf,6\n", "series values must be finite"),
            # one phase sample per cycle would read as flat curves
            ("1.0\n2.0\n3.0\n", "matrix layout needs at least 2 columns, got 1"),
            ("a\n1.0\n2.0\n3.0\n", "matrix layout needs at least 2 columns, got 1"),
            # a blank first cell is a missing value, in the first row too
            (",1.0,2.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n", "row 1, column 1: cannot parse ''"),
            (" 1.0 2.0 3.0\n 4.0 5.0 6.0\n", "row 1, column 1: cannot parse ''"),
            (",p0,p1\n1,2,3\n", "row 1, column 1: cannot parse ''"),  # an index column's header
            # padded cells that np.loadtxt reads are not the cell it stopped at
            ("1\x1c,2,3\n4,5\x1f,6\n7,x,9\n", "row 3, column 2: cannot parse 'x'"),
        ],
    )
    def test_matrix_errors_name_the_cell(self, tmp_path, text, message):
        f = tmp_path / "data.csv"
        f.write_text(text)
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            ingest(f, grid_size=3)

    @padded_by
    def test_cell_is_stripped_as_loadtxt_strips_it(self, space):
        for cell in (space + "1.5", "1.5" + space, space + "-2e-3" + space):
            assert cli._parse_cell(cell, 1, 1) == np.loadtxt([cell + ",0"], delimiter=",")[0]

    @padded_by
    @pytest.mark.parametrize("blank_first_line", [False, True], ids=["path_parse", "line_path"])
    def test_padded_first_cell_is_data(self, tmp_path, space, blank_first_line):
        # a first cell np.loadtxt reads as a number is not a header: a
        # 45-row file is 45 cycles
        vals = np.random.default_rng(37).normal(size=(45, 5))
        f = tmp_path / "data.csv"
        write_matrix(f, vals)
        text = f.read_text()
        f.write_text("\n" * blank_first_line + space + text, encoding="utf-8")
        x = ingest(f, grid_size=5)
        assert x.n == 45
        assert np.array_equal(x.values, vals)

    @padded_by
    def test_long_layout_padded_values(self, tmp_path, space):
        rows = [(cid, phase, 3.0 * phase + k) for k, cid in enumerate("ab") for phase in (0.0, 0.5, 1.0)]
        clean, padded = tmp_path / "clean.csv", tmp_path / "padded.csv"
        clean.write_text("cycle_id,phase,value\n" + "".join(f"{c},{p},{v}\n" for c, p, v in rows))
        padded.write_text(
            "cycle_id,phase,value\n" + "".join(f"{c},{space}{p},{v}{space}\n" for c, p, v in rows),
            encoding="utf-8",
        )
        assert ingest(padded, grid_size=3).values.tobytes() == ingest(clean, grid_size=3).values.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "1.0,2.0,3.0\n4.0,5.0,6.0\n",
            "p0,p1,p2\n1.0,2.0,3.0\n4.0,5.0,6.0\n",
            "cycle_id,phase,value\na,0,1\na,0.5,2\na,1,3\nb,0,4\nb,0.5,5\nb,1,6\n",
        ],
        ids=["matrix", "matrix_header", "long"],
    )
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        # a UTF-8 byte-order mark made the first cell '\ufeff1.0', which
        # float rejects, so the first cycle was read as a header
        f = tmp_path / "data.csv"
        f.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert np.array_equal(ingest(f, grid_size=3).values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    @pytest.mark.parametrize(
        "text, message",
        [
            # the matrix layout's cell rule: a float() literal without
            # underscores or non-ASCII text
            ("cycle_id,phase,value\na,0,1_0\na,1,2\n", "row 2, column 3: cannot parse '1_0'"),
            ("cycle_id,phase,value\na,0,\u0661\na,1,2\n", "row 2, column 3: cannot parse '\u0661'"),
            ("cycle_id,phase,value\na,0,\uff11\na,1,2\n", "row 2, column 3: cannot parse '\uff11'"),
            # every row has the header's width: a decimal comma in a comma
            # file, and rows one cell short of a 4-column header
            ("cycle_id,phase,value\na,0,1,5\na,1,2\n", "row 2 has 4 values, expected 3"),
            ("cycle_id,phase,value,note\na,0,1\na,1,2\n", "row 2 has 3 values, expected 4"),
            # a blank cycle_id is a missing value
            ("cycle_id,phase,value\na,0,1\na,1,2\n ,0,1\n,1,2\n", "row 4, column 1: blank cycle_id"),
        ],
        ids=["underscore", "arabic_indic_digit", "fullwidth_digit", "decimal_comma",
             "short_row", "blank_id"],
    )
    def test_long_layout_errors_name_the_cell(self, tmp_path, text, message):
        f = tmp_path / "long.csv"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            ingest(f, grid_size=3)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cycle_id,t,y\na,0,1\na,1,2\n", "long layout needs columns cycle_id, phase, value"),
            ("cycle_id,phase,value\na,0,1\na,1,2\nb,0.5,3\n", "cycle 'b' has fewer than 2 samples"),
        ],
        ids=["columns", "one_sample"],
    )
    def test_long_layout_refusals(self, tmp_path, text, message):
        f = tmp_path / "long.csv"
        f.write_text(text)
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            ingest(f, grid_size=3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError, match="not found"):
            ingest(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "data.csv"
        for text in ("\n", ",,\n \n"):  # the second has only blank cells
            f.write_text(text)
            with pytest.raises(InvalidInputError, match="empty"):
                ingest(f)

    def test_long_layout_duplicate_phase(self, tmp_path):
        f = tmp_path / "long.csv"
        f.write_text("cycle_id,phase,value\nc,0.5,1.0\nc,0.5,2.0\n")
        with pytest.raises(InvalidInputError, match="duplicate"):
            ingest(f, grid_size=3)

    @pytest.mark.parametrize(
        "rows", ["a,nan,1\na,0,2\na,1,3\n", "a,0,1\na,nan,2\na,1,3\n"], ids=["first", "middle"]
    )
    def test_long_layout_nan_phase(self, tmp_path, rows):
        # every comparison with NaN is false: a NaN phase was dropped
        # silently, or reported as a non-finite series value
        f = tmp_path / "long.csv"
        f.write_text("cycle_id,phase,value\n" + rows)
        with pytest.raises(InvalidInputError, match=re.escape("cycle 'a' has phases outside [0, 1]")):
            ingest(f, grid_size=3)

    def test_overflowing_matrix_is_refused(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("1e300,2e300,3e300\n4e300,5e300,6e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="rescale"):
                ingest(f, grid_size=3)


@st.composite
def matrix_files(draw):
    """Matrix-layout text: repr values, padded, quoted or padded inside
    quotes, delimited by ',', ';', tab or space, sometimes one data row's
    first cell blank, an optional header, blank lines anywhere (the first
    line included), LF or CRLF line ends."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    width = draw(st.integers(2, 9))
    n_rows = draw(st.integers(1, 6))
    number = st.floats(-1e6, 1e6, allow_subnormal=True).map(repr)
    pad = st.just("") if delimiter == " " else st.sampled_from(["", " ", "  "])
    padded = st.tuples(pad, number, pad).map("".join)
    cell = padded.map(lambda v: f'"{v}"') | padded
    rows = [draw(st.lists(cell, min_size=width, max_size=width)) for _ in range(n_rows)]
    if draw(st.integers(0, 3)) == 0:  # a missing value, which ingest refuses
        rows[draw(st.integers(0, n_rows - 1))][0] = draw(st.sampled_from(["", '""']))
    lines = [delimiter.join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, delimiter.join(f"p{j}" for j in range(width)))
    blank = st.sampled_from(["", " ", "\t", '""', delimiter * (width - 1)])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blank))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([newline, ""]))
    return newline.join(lines) + end


class TestIngestEquivalence:
    """`ingest` against the line-by-line reading of tests/oracles.py."""

    GRID = 6

    @settings(max_examples=200, deadline=None)
    @given(matrix_files())
    def test_matches_line_by_line_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "data.csv"
            f.write_text(text, newline="")
            try:
                expected = matrix_by_lines(f.read_text(), self.GRID)
            except ValueError:  # e.g. a quoted space-delimited row sniffed as ','
                with pytest.raises(InvalidInputError):
                    ingest(f, grid_size=self.GRID)
                return
            x = ingest(f, grid_size=self.GRID)
        assert x.values.tobytes() == expected.tobytes()

    def test_first_line_longer_than_the_head(self, tmp_path):
        vals = np.random.default_rng(1).normal(size=(3, 5000))
        f = tmp_path / "data.csv"
        write_matrix(f, vals)
        assert len(f.read_text().partition("\n")[0]) > cli._HEAD_CHARS
        expected = matrix_by_lines(f.read_text(), self.GRID)
        assert ingest(f, grid_size=self.GRID).values.tobytes() == expected.tobytes()

    def test_clean_file_is_parsed_from_its_path(self, tmp_path, monkeypatch):
        # a clean file is read once by np.loadtxt on its path; only the head
        # is read as text, and no list of lines is built
        vals = np.random.default_rng(2).normal(size=(40, 7))
        f = tmp_path / "data.csv"
        write_matrix(f, vals, header=[f"p{j}" for j in range(7)])
        parsed, read = [], []
        loadtxt, read_text = np.loadtxt, cli._read_text

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def loadtxt(self, fname, *args, **kwargs):
                parsed.append(fname)
                return loadtxt(fname, *args, **kwargs)

        def recording_read(path, size=-1):
            read.append(size)
            return read_text(path, size)

        monkeypatch.setattr(cli, "np", RecordingNumpy())
        monkeypatch.setattr(cli, "_read_text", recording_read)
        x = ingest(f, grid_size=7)
        assert np.array_equal(x.values, vals)
        assert parsed == [str(f)]
        assert read == [cli._HEAD_CHARS]

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", " "], ids=["comma", "semicolon", "tab", "space"])
    def test_sniffs_the_delimiter_from_whole_lines(self, tmp_path, delimiter):
        # 50 columns: the sniffer's sample ends inside a line
        vals = np.random.default_rng(3).normal(size=(30, 50))
        f = tmp_path / "data.csv"
        np.savetxt(f, vals, fmt="%.12g", delimiter=delimiter)
        expected = np.loadtxt(f, delimiter=delimiter, ndmin=2)
        assert np.array_equal(ingest(f, grid_size=50).values, expected)

    @pytest.mark.parametrize(
        "header, layout, tail",
        [
            pytest.param(header, layout, tail, id=prefix + name)
            for header, layout, prefix in (("p0,p1,p2", "matrix", ""), ("cycle_id,phase,value", "long", "long-"))
            for name, tail in (("none", ""), ("empty", "\n\n"), ("blank", " \n,,\n"), ("past_head", "\n" * 70_000))
        ],
    )
    def test_header_only(self, tmp_path, header, layout, tail):
        f = tmp_path / "data.csv"
        f.write_text(header + "\n" + tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"{layout} layout has a header but no data rows"):
                ingest(f, grid_size=3)

    @pytest.mark.parametrize("w, T", [(9, 9), (5, 9), (14, 9)], ids=["equal_T", "below_T", "above_T"])
    def test_long_layout_matches_matrix_layout(self, tmp_path, w, T):
        # the same cycles in both layouts, each cycle's long rows shuffled
        rng = np.random.default_rng([w, T])
        vals = rng.normal(size=(6, w))
        phases = [repr(float(p)) for p in np.linspace(0.0, 1.0, w)]
        matrix, long = tmp_path / "matrix.csv", tmp_path / "long.csv"
        write_matrix(matrix, vals)
        rows = ["cycle_id,phase,value"]
        for i, row in enumerate(vals):
            rows += [f"c{i},{phases[j]},{float(row[j])!r}" for j in rng.permutation(w)]
        long.write_text("\n".join(rows) + "\n")
        assert ingest(long, grid_size=T).values.tobytes() == ingest(matrix, grid_size=T).values.tobytes()


def jump_dataset(tmp_path, n=120, grid_size=12, jump=8.0, noise_sd=0.3, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(scale=noise_sd, size=(n, grid_size))
    vals[n // 2 :] += jump
    f = tmp_path / "data.csv"
    write_matrix(f, vals)
    return f


def analyze_args(data, out, *extra):
    return [
        "analyze",
        "--input", str(data),
        "--output-dir", str(out),
        "--grid-size", "12",
        "--replications", "300",
        "--delta", "2.0",
    ] + list(extra)


def test_run_pipeline_holds_two_series_sized_arrays(tmp_path):
    # a 10 000 x 101 matrix file at T = 100 and R = 2000: ingest holds the
    # parsed matrix and the resampled series, detection the series and one
    # (n, T) array at a time; the LRV and the bootstrap form the residual
    # rows they read, and the rest are row blocks and draw chunks of
    # core._BLOCK_ENTRIES entries.
    # At a smaller n those fixed-size chunks would weigh more against the
    # series, so the bound holds at this size.
    n, samples, grid_size = 10_000, 101, 100
    spec = ScenarioSpec(
        n=n,
        grid_size=samples,
        means=[0.0, {"kind": "constant", "value": 3.0}, {"kind": "constant", "value": 0.5}],
        change_locations=[0.3, 0.7],
        error_process="ar1",
        error_param=0.4,
        rng_seed=6,
    )
    data = tmp_path / "recording.csv"
    np.savetxt(data, generate(spec)[0].values, fmt="%.12g", delimiter=",")
    cfg = RunConfig(input=str(data), output_dir=str(tmp_path / "out"), grid_size=grid_size, delta=2.0)
    tracemalloc.start()
    try:
        res = cli.run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.change_points.m == 2
    assert peak <= 2.4 * n * grid_size * 8


class TestAnalyzeCommand:
    def test_end_to_end(self, tmp_path, capsys):
        data = jump_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(analyze_args(data, out)) == 0
        captured = capsys.readouterr().out
        assert "changes=1" in captured

        cps = (out / "changepoints.csv").read_text().splitlines()
        assert cps[0] == "index,s_hat,jump_size,relevant"
        index, s_hat, jump, relevant = cps[1].split(",")
        assert abs(float(s_hat) - 0.5) < 0.05
        assert float(jump) > 2.0 and relevant == "1"

        groups = read_bands(out / "bands.csv")
        assert set(groups) == {0, 1}
        for g in groups.values():
            assert len(g["t"]) == 12
            assert np.all(g["lower"] <= g["center"])
            assert np.all(g["center"] <= g["upper"])

        diag = (out / "diagnostics.txt").read_text()
        assert f"version = {__version__}" in diag
        assert "quantile = " in diag
        assert "sigma2_median = " in diag

    def test_huge_delta_single_band(self, tmp_path):
        data = jump_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(analyze_args(data, out, "--delta", "100.0")) == 0
        groups = read_bands(out / "bands.csv")
        # change detected but not relevant: only segment 0's band remains
        assert set(groups) == {0}
        cps = (out / "changepoints.csv").read_text().splitlines()
        assert cps[1].endswith(",0")

    def test_byte_identical_reruns(self, tmp_path):
        data = jump_dataset(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(analyze_args(data, out1)) == 0
        assert main(analyze_args(data, out2)) == 0
        for name in ("changepoints.csv", "bands.csv", "diagnostics.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bands_roundtrip_precision(self, tmp_path):
        data = jump_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(analyze_args(data, out)) == 0
        groups = read_bands(out / "bands.csv")
        # 12 significant digits survive the write/read cycle
        width = groups[0]["upper"] - groups[0]["lower"]
        assert np.all(width > 0)
        assert np.allclose(
            groups[0]["center"], (groups[0]["upper"] + groups[0]["lower"]) / 2.0,
            rtol=1e-10,
        )

    def test_config_file_with_flag_override(self, tmp_path):
        data = jump_dataset(tmp_path)
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "input": str(data),
            "output_dir": str(out),
            "grid_size": 12,
            "replications": 300,
            "delta": 0.5,
            "alpha": 0.2,
            "bandwidth": "auto",
            "min_segment_length": None,
        }))
        rc = main(["analyze", "--config", str(cfg), "--delta", "2.0"])
        assert rc == 0
        diag = (out / "diagnostics.txt").read_text()
        assert "delta = 2" in diag  # flag overrode the config file
        assert "alpha = 0.2" in diag

    def test_config_file_with_byte_order_mark(self, tmp_path):
        data = jump_dataset(tmp_path)
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        settings = {"input": str(data), "output_dir": str(out), "grid_size": 12, "replications": 300}
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps(settings).encode())
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert "replications = 300" in (out / "diagnostics.txt").read_text()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": "x.csv", "output_dir": "o", "typo_key": 1}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_mistyped_config_value_is_exit_2(self, tmp_path, capsys):
        data = jump_dataset(tmp_path)
        cfg = tmp_path / "run.json"
        for key, value in (("alpha", "0.1"), ("replications", 300.5), ("delta", "big"),
                           ("seed", True), ("kernel", 3), ("min_segment_length", [20])):
            cfg.write_text(json.dumps({"input": str(data), "output_dir": str(tmp_path / "o"), key: value}))
            assert main(["analyze", "--config", str(cfg)]) == 2
            assert f"config key {key!r}" in capsys.readouterr().err

    def test_missing_input_is_exit_2(self, tmp_path, capsys):
        short_row = tmp_path / "long.csv"
        short_row.write_text("cycle_id,phase,value\n1,0.0,0.5\n1,0.5\n")
        cases = [(tmp_path / "nope.csv", "error:"), (short_row, "row 3")]
        for name, text in (("one_column.csv", "1.0\n2.0\n3.0\n"), ("one_column_header.csv", "a\n1.0\n2.0\n")):
            (tmp_path / name).write_text(text)
            cases.append((tmp_path / name, "at least 2 columns, got 1"))
        for data, message in cases:
            rc = main(["analyze", "--input", str(data), "--output-dir", str(tmp_path)])
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_missing_input_or_output_flag_is_exit_2(self, tmp_path, capsys):
        data = jump_dataset(tmp_path)
        assert main(["analyze", "--output-dir", str(tmp_path / "o")]) == 2
        assert "no input file given" in capsys.readouterr().err
        assert main(["analyze", "--input", str(data)]) == 2
        assert "no output directory given" in capsys.readouterr().err

    def test_config_that_is_not_json_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("input = data.csv\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert f"cannot parse {cfg}" in capsys.readouterr().err

    def test_bad_grid_size_is_exit_2_before_the_output_dir_is_made(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(analyze_args(jump_dataset(tmp_path), out, "--grid-size", "1")) == 2
        assert "grid size must be an integer >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_long_layout_header_only_is_exit_2(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("cycle_id,phase,value\n")
        assert main(["analyze", "--input", str(data), "--output-dir", str(tmp_path / "out")]) == 2
        assert "long layout has a header but no data rows" in capsys.readouterr().err

    def test_nan_threshold_is_exit_2(self, tmp_path, capsys):
        # pure noise: a NaN xi would accept every split
        data = tmp_path / "noise.csv"
        write_matrix(data, np.random.default_rng(4).normal(size=(300, 12)))
        out = tmp_path / "o"
        for flag, value, name in (("--xi", "nan", "threshold"), ("--xi", "inf", "threshold"),
                                  ("--delta", "nan", "delta"), ("--delta", "inf", "delta")):
            assert main(analyze_args(data, out, flag, value)) == 2
            assert f"{name} must be a finite positive number" in capsys.readouterr().err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": str(data), "output_dir": str(out), "xi": float("nan")}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "threshold must be a finite positive number" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_alpha_is_exit_2(self, tmp_path):
        data = jump_dataset(tmp_path)
        assert main(analyze_args(data, tmp_path / "o", "--alpha", "1.5")) == 2

    def test_diagnostics_key_set(self, tmp_path):
        data = jump_dataset(tmp_path)
        out = tmp_path / "out"
        assert main(analyze_args(data, out)) == 0
        lines = (out / "diagnostics.txt").read_text().splitlines()
        record = dict(line.split(" = ", 1) for line in lines)
        assert list(record) == sorted(DIAGNOSTICS_KEYS)
        assert record["n"] == "120"
        assert record["kernel"] == "bartlett"
        assert record["replications"] == "300"
        assert record["rng_seed"] == "0"
        assert record["rng_algorithm"] == "sfc64"

    def test_removed_band_quantile_mode_is_exit_2(self, tmp_path, capsys):
        data = jump_dataset(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(analyze_args(data, tmp_path / "o", "--band-quantile-mode", "alpha"))
        assert exc.value.code == 2
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"input": str(data), "output_dir": str(tmp_path / "o"), "band_quantile_mode": "alpha"}
        ))
        capsys.readouterr()
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "unknown config keys: ['band_quantile_mode']" in capsys.readouterr().err


# The keys of diagnostics.txt, as documented in the README.
DIAGNOSTICS_KEYS = {
    "alpha", "bandwidth", "block_length", "delta", "grid_size", "kernel", "n",
    "num_changes", "quantile", "relevant_indices", "replications", "rng_algorithm",
    "rng_seed", "segmentation_threshold", "sigma2_max", "sigma2_median", "sigma2_min",
    "version",
}


def flag_dests(command):
    """The argument names (dests) of one verb's flags."""
    parser = _build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in verbs.choices[command]._actions if a.dest != "help"}


# flags that are not RunConfig fields
NON_PIPELINE_FLAGS = {"config", "spec", "study_replications"}


@pytest.mark.parametrize("command", ["analyze", "coverage"])
def test_every_flag_sets_a_run_config_field(command):
    # _run_config copies only the flags named after a RunConfig field
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert sorted(flag_dests(command) - NON_PIPELINE_FLAGS - fields) == []


def test_every_run_config_field_has_a_flag():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert sorted(fields - flag_dests("analyze")) == []


def test_run_config_defaults_are_the_library_defaults():
    # RunConfig restates the defaults of the configs it builds and of ingest
    assert RunConfig(input="i", output_dir="o").pipeline_config() == PipelineConfig()
    assert RunConfig.grid_size == inspect.signature(ingest).parameters["grid_size"].default


class TestSeeds:
    def test_negative_analyze_seed_is_exit_2(self, tmp_path, capsys):
        data = jump_dataset(tmp_path)
        assert main(analyze_args(data, tmp_path / "o", "--seed", "-1")) == 2
        assert "rng_seed must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_negative_config_seed_is_exit_2(self, tmp_path, capsys):
        data = jump_dataset(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"input": str(data), "output_dir": str(tmp_path / "o"), "seed": -1}))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "rng_seed must be an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["simulate", "coverage"])
    def test_negative_spec_seed_is_exit_2(self, tmp_path, capsys, verb):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"n": 100, "rng_seed": -1}))
        args = [verb, "--spec", str(spec_file)]
        if verb == "simulate":
            args += ["--output-dir", str(tmp_path / "o")]
        assert main(args) == 2
        assert "rng_seed must be an integer >= 0, got -1" in capsys.readouterr().err


def unreadable_file(tmp_path, kind):
    if kind == "directory":
        path = tmp_path / "data"
        path.mkdir()
        return path
    # a Latin-1 byte, on the first line or past the head that ingest sniffs
    path = tmp_path / "data.csv"
    clean = b"1.0,2.0,3.0\n" * (10_000 if kind == "latin1_past_head" else 0)
    path.write_bytes(clean + b"4.0,\xe9,6.0\n")
    return path


def file_option_args(option, path, out):
    """Command-line arguments that hand `path` to the file option `option`."""
    return {
        "analyze --input": analyze_args(path, out),
        "analyze --config": ["analyze", "--config", str(path), "--output-dir", str(out)],
        "simulate --spec": ["simulate", "--spec", str(path), "--output-dir", str(out)],
        "coverage --spec": ["coverage", "--spec", str(path)],
    }[option]


@pytest.mark.parametrize("kind", ["directory", "latin1", "latin1_past_head"])
@pytest.mark.parametrize("option", ["analyze --input", "analyze --config", "simulate --spec", "coverage --spec"])
def test_unreadable_file_is_exit_2(tmp_path, capsys, option, kind):
    path = unreadable_file(tmp_path, kind)
    assert main(file_option_args(option, path, tmp_path / "out")) == 2
    assert f"cannot read {path}" in capsys.readouterr().err


@pytest.mark.parametrize("document", ["5", "null", "[[1]]", '"abc"'])
@pytest.mark.parametrize("option", ["analyze --config", "simulate --spec", "coverage --spec"])
def test_json_file_that_is_not_an_object_is_exit_2(tmp_path, capsys, option, document):
    path = tmp_path / "settings.json"
    path.write_text(document)
    assert main(file_option_args(option, path, tmp_path / "out")) == 2
    assert f"{path} must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["existing file", "under a file"])
@pytest.mark.parametrize("verb", ["analyze", "simulate", "coverage"])
def test_output_dir_that_cannot_be_created_is_exit_2(tmp_path, capsys, monkeypatch, verb, where):
    # the directory is resolved before any input is read or any work runs
    called = []
    for name in ("ingest", "analyze", "generate", "run_coverage_study"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: called.append(name))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker if where == "existing file" else blocker / "out"
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "n": 80,
        "grid_size": 6,
        "means": [0.0, {"kind": "constant", "value": 5.0}],
        "change_locations": [0.5],
        "tau2": 0.25,
    }))
    args = {
        "analyze": analyze_args(jump_dataset(tmp_path), out),
        "simulate": ["simulate", "--spec", str(spec_file), "--output-dir", str(out)],
        "coverage": [
            "coverage",
            "--spec", str(spec_file),
            "--study-replications", "2",
            "--replications", "200",
            "--delta", "2.0",
            "--output-dir", str(out),
        ],
    }[verb]
    assert main(args) == 2
    assert f"error: cannot create output directory {out}: " in capsys.readouterr().err
    assert called == []


class TestSimulateCommand:
    def test_writes_dataset_and_truth(self, tmp_path):
        spec = {
            "n": 50,
            "grid_size": 8,
            "means": [0.0, {"kind": "constant", "value": 3.0}],
            "change_locations": [0.5],
            "error_process": "ma1",
            "error_param": 0.5,
            "rng_seed": 4,
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "sim"
        assert main(["simulate", "--spec", str(spec_file), "--output-dir", str(out)]) == 0

        x, _ = generate(ScenarioSpec.from_dict(spec))
        lines = (out / "dataset.csv").read_bytes().decode().split("\r\n")
        assert lines[-1] == ""  # every row ends in CRLF
        assert [line.split(",") for line in lines[:-1]] == [
            [format(v, ".12g") for v in row] for row in x.values
        ]
        truth = json.loads((out / "truth.json").read_text())
        assert truth["change_locations"] == [0.5]
        assert truth["jump_sizes"] == [3.0]
        assert np.allclose(truth["lrv"], 2.25)

    def test_bad_spec_is_exit_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        for spec, message in (
            ({"n": 10, "means": [0.0, 1.0], "change_locations": []}, "error:"),
            ({"n": 100, "bogus": 1}, "bogus"),
            ({"grid_size": 5}, "missing scenario keys: ['n']"),
            ({"n": "100"}, "scenario key 'n' must be int, got '100'"),
            ({"n": 100, "grid_size": "5"}, "scenario key 'grid_size' must be int, got '5'"),
            (
                {"n": 100, "means": [0.0, 1.0], "change_locations": ["0.5"]},
                "change locations must be numbers, got ['0.5']",
            ),
            ({"n": 100, "tau2": "x"}, "scenario key 'tau2': curve spec 'x' is not a number"),
            (
                {"n": 100, "means": [{"kind": "constant"}]},
                "scenario key 'means': curve spec {'kind': 'constant'} needs key 'value'",
            ),
            ({"n": 100, "means": [{"kind": "wave"}]}, "unknown curve spec kind 'wave'"),
            (
                {"n": 100, "means": [{"kind": "sine", "amplitude": 1, "frequncy": 3}]},
                "has unknown keys ['frequncy']",
            ),
        ):
            spec_file.write_text(json.dumps(spec))
            for args in (
                ["simulate", "--spec", str(spec_file), "--output-dir", str(tmp_path / "o")],
                ["coverage", "--spec", str(spec_file)],
            ):
                assert main(args) == 2
                assert message in capsys.readouterr().err


class TestCoverageCommand:
    def test_reports_full_coverage_noise_free(self, tmp_path, capsys):
        spec = {
            "n": 80,
            "grid_size": 6,
            "means": [0.0, {"kind": "constant", "value": 5.0}],
            "change_locations": [0.5],
            "tau2": 0.25,
            "rng_seed": 2,
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "cov"
        rc = main([
            "coverage",
            "--spec", str(spec_file),
            "--study-replications", "10",
            "--replications", "200",
            "--delta", "2.0",
            "--output-dir", str(out),
        ])
        assert rc == 0
        printed = [tuple(line.split(" = ")) for line in capsys.readouterr().out.splitlines()]
        with open(out / "coverage.csv", newline="") as fh:
            header, *table = [tuple(row) for row in csv.reader(fh)]
        assert header == ("metric", "value")
        # one rendering of the same rows: floats to 12 significant digits, counts as is
        assert printed == table
        assert [key for key, _ in printed] == [
            "replications", "coverage", "average_band_width", "m_match_rate",
            "relevant_match_rate", "mean_location_error", "failures",
        ]
        values = dict(printed)
        assert values["replications"] == "10" and values["failures"] == "0"
        assert values["m_match_rate"] == "1"
        assert values["average_band_width"] == format(float(values["average_band_width"]), ".12g")

    def test_scenario_every_replication_rejects_is_exit_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"n": 30, "grid_size": 5}))
        assert main(["coverage", "--spec", str(spec_file), "--study-replications", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 5 of 5 replications failed")
        assert "series length 30 is below 2 * min_segment_length = 40" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_study_replications_is_exit_2_before_the_output_dir_is_made(self, tmp_path, capsys, value):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"n": 80, "grid_size": 6}))
        out = tmp_path / "never"
        rc = main(["coverage", "--spec", str(spec_file), "--study-replications", value, "--output-dir", str(out)])
        assert rc == 2
        assert f"study replications must be an integer >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()


class TestVersionCommand:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__
