"""End-to-end tests of the command-line harness."""

import builtins
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from polyfreq import cli, dependence, diagnostics, models

from polyfreq.cli import (
    EXIT_DATA,
    EXIT_MODEL,
    EXIT_OK,
    EXIT_USAGE,
    DataError,
    _check_rows,
    _format_rows,
    _read_column,
    main,
)
from polyfreq.estimators import stone_bandwidth

AR1_SPEC = {
    "schema": 1,
    "family": "arma",
    "a0": 0.0,
    "ar": [0.5],
    "ma": [],
    "noise": {"distribution": "gaussian", "sigma": 1.0},
}
IID_SPEC = {
    "schema": 1,
    "family": "arma",
    "a0": 0.0,
    "ar": [],
    "ma": [],
    "noise": {"distribution": "gaussian", "sigma": 1.0},
}

TAR_SPEC = {
    "schema": 1,
    "family": "nlar_tar",
    "a": 0.6,
    "b": -0.3,
    "noise": {"distribution": "gaussian", "sigma": 1.0},
}


@pytest.fixture
def ar1_model(tmp_path):
    path = tmp_path / "ar1.json"
    path.write_text(json.dumps(AR1_SPEC))
    return str(path)


@pytest.fixture
def iid_model(tmp_path):
    path = tmp_path / "iid.json"
    path.write_text(json.dumps(IID_SPEC))
    return str(path)


def read_csv_rows(path):
    header = None
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows


def read_data_column(path):
    values = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                values.append(float(line))
    return np.asarray(values)


class TestEstimateCommand:
    def test_two_point_reference(self, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("0.25\n0.75\n")
        out = tmp_path / "out.csv"
        code = main([
            "estimate", "--input", str(data), "--bandwidth", "1.0",
            "--grid-min", "0", "--grid-max", "1", "--grid-step", "0.5",
            "--output", str(out),
        ])
        assert code == EXIT_OK
        header, rows = read_csv_rows(out)
        assert header == ["x", "histogram", "frequency_polygon"]
        fp = [float(r[2]) for r in rows]
        assert fp == pytest.approx([0.5, 1.0, 0.5])

    def test_header_optional(self, tmp_path):
        data = tmp_path / "h.csv"
        data.write_text("value\n0.25\n0.75\n1.5\n")
        out = tmp_path / "out.csv"
        assert main(["estimate", "--input", str(data), "--output", str(out)]) == EXIT_OK

    def test_empty_file_is_data_error(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["estimate", "--input", str(data)]) == EXIT_DATA

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_is_data_error(self, tmp_path, capsys, kind):
        path = tmp_path / "missing.csv"
        if kind == "directory":
            path = tmp_path / "dir.csv"
            path.mkdir()
        assert main(["estimate", "--input", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and str(path) in err and "Traceback" not in err

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0.25\n0.75\n")
        out = tmp_path / "nonexistent" / "x.csv"
        assert main(["estimate", "--input", str(data), "--output", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and "--output" in err and str(out) in err
        assert "Traceback" not in err

    def test_unparseable_row_reports_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1.0\n2.0\nnot-a-number\n4.0\n")
        assert main(["estimate", "--input", str(data)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "lines 3" in err

    def test_row_past_the_bin_index_range_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("1.0\n2.0\n1e308\n")
        assert main(["estimate", "--input", str(data)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "1e+308" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "grid",
        [
            ["--grid-min", "0", "--grid-max", "1e4", "--grid-step", "1e-9"],  # 10^13 points
            ["--grid-min=-1.7e308", "--grid-max=1.7e308"],  # span overflows to inf
        ],
    )
    def test_grid_above_the_point_cap_is_usage_error(self, tmp_path, capsys, grid):
        data = tmp_path / "d.csv"
        data.write_text("0.25\n0.75\n")
        assert main(["estimate", "--input", str(data), "--bandwidth", "1.0", *grid]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid,named",
        [
            (["--grid-step", "inf"], "--grid-step"),  # inf * 0 made a nan grid point
            (["--grid-min", "nan"], "--grid-min"),  # read as an empty grid range
            (["--grid-max", "inf"], "--grid-max"),
            (["--grid-min=-inf", "--grid-max", "1"], "--grid-min"),
            # finite flags whose grid ends leave the bin index range |x / b| < 2**52
            (["--grid-min", "1e308", "--grid-max", "1.7e308", "--grid-step", "1e307"],
             "--grid-min"),
            (["--grid-min", "0", "--grid-max", "9.1e15", "--grid-step", "1e12"], "--grid-max"),
        ],
    )
    def test_grid_flag_outside_the_domain_is_refused_by_name(self, tmp_path, capsys,
                                                             monkeypatch, grid, named):
        def unreachable(*args):
            raise AssertionError("evaluated a refused grid")

        monkeypatch.setattr(cli, "histogram_eval", unreachable)
        monkeypatch.setattr(cli, "fp_eval", unreachable)
        data = tmp_path / "d.csv"
        data.write_text("0.25\n0.75\n")
        assert main(["estimate", "--input", str(data), "--bandwidth", "1.0", *grid]) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"polyfreq: usage error: {named}")

    def test_density_scale_past_the_float_maximum_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0.25\n0.75\n1.5\n")  # n * b = 3e308 overflows
        assert main(["estimate", "--input", str(data), "--bandwidth", "1e308"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and "out of float range" in err and "Traceback" not in err

    def test_summary_on_stderr(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("\n".join(str(v) for v in np.linspace(0, 1, 50)) + "\n")
        out = tmp_path / "out.csv"
        assert main(["estimate", "--input", str(data), "--output", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "n=50" in err and "p_n=" in err

    def test_json_format_embeds_histogram(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("0.25\n0.75\n1.5\n")
        out = tmp_path / "out.json"
        assert main([
            "estimate", "--input", str(data), "--bandwidth", "1.0",
            "--format", "json", "--output", str(out),
        ]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["histogram"]["bins"] == [[0, 2], [1, 1]]
        assert payload["config"]["n"] == 3

    def test_streaming_matches_batch(self, tmp_path, rng):
        # more rows than one chunk: the rows of every chunk are binned in one build
        values = rng.normal(0, 1, 70_000)
        data = tmp_path / "big.csv"
        data.write_text("\n".join(format(v, ".17g") for v in values) + "\n")
        out = tmp_path / "out.json"
        assert main([
            "estimate", "--input", str(data), "--bandwidth", "0.25",
            "--format", "json", "--output", str(out),
        ]) == EXIT_OK
        payload = json.loads(out.read_text())
        from polyfreq.estimators import BinningScheme, build_histogram

        h = build_histogram(values, BinningScheme(0.25))
        assert payload["histogram"]["bins"] == np.column_stack([h.keys, h.values]).tolist()
        assert payload["config"]["n"] == values.size

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_build_at_any_chunk_size(self, tmp_path, rng, monkeypatch, fmt):
        data = tmp_path / "d.csv"
        data.write_text("\n".join(format(v, ".17g") for v in rng.normal(0, 1, 5000)) + "\n")
        builds = []
        build = cli.build_histogram

        def counting_build(sample, scheme):
            builds.append(np.size(sample))
            return build(sample, scheme)

        monkeypatch.setattr(cli, "build_histogram", counting_build)
        artifacts = []
        for chunk_lines in (cli._CHUNK_LINES, 64):
            monkeypatch.setattr(cli, "_CHUNK_LINES", chunk_lines)
            out = tmp_path / f"out-{chunk_lines}"
            assert main(["estimate", "--input", str(data), "--format", fmt,
                         "--output", str(out)]) == EXIT_OK
            artifacts.append(out.read_bytes())
        assert builds == [5000, 5000]
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize(
        "line,accepted",
        [
            (" 1.5 ", True),
            ("1e308", True),
            ("1_5", True),  # float() accepts digit separators
            ("1.5 # c", False),
            ("1,2", False),
            ("1 2", False),
            ("nan", False),
            ("inf", False),
            ("-1e309", False),
        ],
    )
    def test_row_accepted_exactly_when_float_parses_it_finite(self, tmp_path, line, accepted):
        data = tmp_path / "d.csv"
        data.write_text(f"0.5\n0.75\n{line}\n1.25\n")
        if accepted:
            values = np.concatenate(list(_read_column(str(data))))
            assert values.tolist() == [0.5, 0.75, float(line.strip()), 1.25]
        else:
            with pytest.raises(DataError, match=r"at lines 3$"):
                list(_read_column(str(data)))

    def test_bad_rows_past_the_first_chunk_keep_absolute_line_numbers(self, tmp_path, capsys):
        lines = ["# header comment"] + ["0.5"] * 70_000
        lines[65_536] = "junk"  # line 65537, first line of the second chunk
        lines[69_999] = "inf"  # line 70000
        data = tmp_path / "d.csv"
        data.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--input", str(data)]) == EXIT_DATA
        assert "at lines 65537, 70000\n" in capsys.readouterr().err

    def test_at_most_ten_bad_rows_reported(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0.5\n" + "x\n" * 12 + "0.75\n")
        assert main(["estimate", "--input", str(data)]) == EXIT_DATA
        reported = capsys.readouterr().err.split("at lines ")[1].strip()
        assert reported == ", ".join(str(k) for k in range(2, 12))

    def test_header_comments_and_blank_lines_skipped(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("value\n\n# note\n  \n0.25\n0.75\n\n1.5\n")
        out = tmp_path / "out.json"
        assert main(["estimate", "--input", str(data), "--bandwidth", "1.0",
                     "--format", "json", "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["histogram"]["bins"] == [[0, 2], [1, 1]]

    def test_header_only_on_line_one(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0.25\nvalue\n0.75\n")
        assert main(["estimate", "--input", str(data)]) == EXIT_DATA
        assert "at lines 2\n" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [2, 65_537])
    def test_non_utf8_line_is_a_data_error_named_by_line(self, tmp_path, capsys, line):
        rows = [b"0.5"] * 70_000
        rows[line - 1] = b"\xff\xfe"
        data = tmp_path / "d.csv"
        data.write_bytes(b"\n".join(rows) + b"\n")
        assert main(["estimate", "--input", str(data)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: unparseable or non-finite rows at lines {line}\n" in err
        assert "Traceback" not in err

    def test_non_utf8_line_one_is_skipped_as_a_header(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"\xff\xfe\n0.5\n0.7\n")
        assert main(["estimate", "--input", str(data), "--output", str(tmp_path / "o")]) == 0
        assert "n=2 " in capsys.readouterr().err

    def test_input_is_opened_once(self, tmp_path, monkeypatch):
        data = tmp_path / "d.csv"
        data.write_text("\n".join(["0.5"] * 70_000) + "\n")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["estimate", "--input", str(data), "--output", str(tmp_path / "o")]) == 0
        assert opened.count(str(data)) == 1

    def test_seed_env_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYFREQ_SEED", "abc")
        data = tmp_path / "d.csv"
        data.write_text("0.25\n0.75\n")
        assert main(["estimate", "--input", str(data), "--output", str(tmp_path / "o")]) == 0

    def test_leaves_scipy_unloaded(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("0.25\n0.75\n")
        code = ("import sys; from polyfreq.cli import main; "
                f"assert main(['estimate', '--input', {str(data)!r}, "
                f"'--output', {str(tmp_path / 'o')!r}]) == 0; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]"


# one line of an ``estimate`` input: numbers in the spellings float() takes,
# padding that float() strips itself or only once str.strip() has, skipped
# lines, text, non-finite values and bytes that are not UTF-8
_PADDING = st.sampled_from(["", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003"])
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".6e")),
    st.integers(0, 10**6).map(lambda k: f"{k:_}.5"),
    st.sampled_from(["1_5", "\u0661\u0662", "\uff13.5", "1E3", "+.5", "-0"]),
)
_LINE = st.one_of(
    st.builds(lambda a, x, b: a + x + b, _PADDING, _NUMBER, _PADDING),
    st.sampled_from(["", "   ", "#", "# note", "value", "1,2", "1 2", "1.5 # c", "nan", "-inf",
                     "1e309", "\udcff\udcfe", "1\udcff"]),
)


class TestChunkParse:
    """Every tier of the chunk parse keeps the rows of the row-by-row reference."""

    @given(lines=st.lists(_LINE, max_size=40), chunk_lines=st.integers(1, 8))
    @example(lines=["0.5", "\x1c1\x1f", "0.75"], chunk_lines=3)  # only the stripped line parses
    @example(lines=["value", "0.5", "", "0.25", "0.75", "x", "1"], chunk_lines=2)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_rows_and_errors_as_the_row_by_row_reference(self, tmp_path, lines,
                                                              chunk_lines):
        data = tmp_path / "d.csv"
        data.write_text("".join(line + "\n" for line in lines), encoding="utf-8",
                        errors="surrogateescape")
        bad = []
        expected = _check_rows([line + "\n" for line in lines], 1, bad)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CHUNK_LINES", chunk_lines)
            if bad:
                with pytest.raises(DataError) as info:
                    list(_read_column(str(data)))
                assert str(info.value).endswith(f"at lines {', '.join(bad)}")
            else:
                values = np.concatenate([np.empty(0), *_read_column(str(data))])
                assert [v.hex() for v in values.tolist()] == [v.hex() for v in expected.tolist()]


def format_columns(*columns):
    """The writer's text for ``columns``, all of it."""
    return "".join(_format_rows(*columns))


def reference_rows(*columns):
    """``format(v, ".17g")`` of every value (``str`` of an integer), one line per row."""
    cells = [[str(v) if isinstance(v, int) else format(v, ".17g") for v in c.tolist()]
             for c in columns]
    return "".join(",".join(row) + "\n" for row in zip(*cells))


class TestChunkFormat:
    """The writer's bytes are those of ``format(v, ".17g")``, value by value."""

    SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1e16, 1e17, 3.0,
               -12.0, 2.0**53, 0.1, 1 / 3]

    @given(values=st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), max_size=30),
           chunk_lines=st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_one_column_is_format_17g(self, values, chunk_lines):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_FORMAT_ROWS", chunk_lines)
            text = format_columns(np.array(values, dtype=float))
        assert text == "".join(format(v, ".17g") + "\n" for v in values)

    @given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=30), chunk_lines=st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_raw_bit_patterns(self, bits, chunk_lines):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_FORMAT_ROWS", chunk_lines)
            assert format_columns(values) == reference_rows(values)

    def test_seventeen_digit_ties(self):
        # m / 4 has 16 integer digits and a fraction .25 or .75 for odd m; m / 8 below 1e15
        # has 15 and a fraction in eighths: the 17th digit is an exact tie, rounded to even
        m = np.arange(2**52 + 1, 2**53, 2**52 // 40_001 | 1, dtype=np.int64).astype(np.float64)
        values = np.concatenate([m / 4, m / 8, -m / 4])
        assert np.count_nonzero((m / 4) % 0.5 == 0.25) > 10_000
        assert format_columns(values) == reference_rows(values)

    @pytest.mark.parametrize("exponent", range(-4, 16))
    def test_seventeen_digit_ties_at_every_exponent(self, exponent):
        # j * 2**(E - 17) is (d + 1/2) * 10**(E - 16) with 17-digit d when j is odd and
        # j * 5**(16 - E) lies in [2e16, 2e17)
        power = 5 ** (16 - exponent)
        j = np.random.default_rng(exponent + 4).integers(
            -(-2 * 10**16 // power), min(2 * 10**17 // power, 2**53), 500) | 1
        values = np.ldexp(j.astype(np.float64), exponent - 17)
        assert format_columns(values) == reference_rows(values)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-5, 18)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        values = np.concatenate([values, -values])
        assert format_columns(values) == reference_rows(values)

    def test_zeros_subnormals_and_non_finite(self):
        values = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                           2.2250738585072014e-308, -2.2250738585072014e-308, 1e-300, math.nan,
                           -math.nan, math.inf, -math.inf, 9.9999999999999991e-5, 1e-4])
        assert format_columns(values, values[::-1]) == reference_rows(values, values[::-1])

    @pytest.mark.parametrize("count", [2**14 - 1, 2**14, 2**14 + 1])
    def test_a_block_boundary(self, count):
        x = np.resize(np.array([*self.SPECIAL, math.nan, -math.inf, 0.5, 123.25]), count)
        y = np.random.default_rng(count).standard_normal(count) * 10.0 ** np.resize(
            np.arange(-6, 19), count)
        assert format_columns(x, y, -x) == reference_rows(x, y, -x)

    def test_integer_columns_up_to_2_53(self):
        k = np.array([0, 1, 9, 10, 99, 100, 12_345, 10**15 - 1, 10**15, 2**53 - 1, 2**53])
        k = np.concatenate([k, np.random.default_rng(3).integers(0, 2**53, 1000)])
        x = np.resize(np.array(self.SPECIAL), k.size)
        assert format_columns(k, x, k) == reference_rows(k, x, k)

    def test_row_templates_across_a_chunk_boundary(self):
        count = cli._CHUNK_LINES + 3
        x = np.resize(np.array(self.SPECIAL), count)
        k = np.arange(count) * 7
        assert format_columns(k, x, k, -x) == "".join(
            f"{a},{format(b, '.17g')},{a},{format(-b, '.17g')}\n"
            for a, b in zip(k.tolist(), x.tolist()))


class TestPinnedBytes:
    """sha256 of artifacts from the two-pass reader and the per-value writer
    that the one-pass reader and the chunked writer replaced: the bytes must
    not change."""

    def test_simulate_then_estimate(self, tmp_path, ar1_model, monkeypatch):
        # relative paths keep the headers, and so the digests, independent of tmp_path
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--model", ar1_model, "--n", "70000", "--seed", "7",
                     "--output", "sample.csv"]) == EXIT_OK
        for fmt in ("csv", "json"):
            assert main(["estimate", "--input", "sample.csv", "--format", fmt,
                         "--output", f"estimate.{fmt}"]) == EXIT_OK
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("sample.csv", "estimate.csv", "estimate.json")}
        assert digests == {
            "sample.csv": "f555406057fe1a9fa06d5e00247e2472029c7da6b59e8f0b7f4ba65b86a4942e",
            "estimate.csv": "0faff9987127022ad174ca96dad30b3347cb02880036a467e642c380b64fdfe2",
            "estimate.json": "13e087210cbf80f39f413faae202335276c7fc5065750049f4cd52cbab2de346",
        }


class TestSimulateCommand:
    def test_reproducible_bytes(self, tmp_path, ar1_model):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = main([
                "simulate", "--model", ar1_model, "--n", "500",
                "--seed", "31", "--output", str(out),
            ])
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_matches_output_file(self, tmp_path, ar1_model, capsys):
        argv = ["simulate", "--model", ar1_model, "--n", "70000", "--seed", "3"]
        assert main([*argv, "--output", str(tmp_path / "x.csv")]) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.encode() == (tmp_path / "x.csv").read_bytes()

    def test_unwritable_output_is_usage_error(self, tmp_path, ar1_model, capsys):
        out = tmp_path / "nonexistent" / "x.csv"
        argv = ["simulate", "--model", ar1_model, "--n", "10", "--output", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and "--output" in err and str(out) in err
        assert "Traceback" not in err

    def test_header_embeds_model_and_seed(self, tmp_path, ar1_model):
        out = tmp_path / "x.csv"
        main(["simulate", "--model", ar1_model, "--n", "10", "--seed", "5", "--output", str(out)])
        text = out.read_text()
        assert "# seed=5" in text
        assert '"family": "arma"' in text

    def test_iid_sample_passes_ks(self, tmp_path, iid_model):
        out = tmp_path / "x.csv"
        main([
            "simulate", "--model", iid_model, "--n", "100000",
            "--seed", "77", "--output", str(out),
        ])
        values = read_data_column(out)
        assert stats.kstest(values, stats.norm.cdf).pvalue > 0.01

    def test_bad_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "family": }')
        assert main(["simulate", "--model", str(bad), "--n", "10"]) == EXIT_DATA
        assert "column" in capsys.readouterr().err

    def test_nonstationary_names_root(self, tmp_path, capsys):
        spec = dict(AR1_SPEC, ar=[1.2])
        bad = tmp_path / "unit.json"
        bad.write_text(json.dumps(spec))
        assert main(["simulate", "--model", bad.as_posix(), "--n", "10"]) == EXIT_MODEL
        assert "root modulus" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", [[], "x", 3], ids=["list", "string", "number"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10"],
        ["delta", "--kmax", "4"],
        ["rate", "--n-min", "256", "--n-max", "16384"],
    ], ids=lambda argv: argv[0])
    def test_non_object_noise_is_data_error(self, tmp_path, capsys, argv, noise):
        bad = tmp_path / "noise.json"
        bad.write_text(json.dumps(dict(AR1_SPEC, noise=noise)))
        assert main([*argv, "--model", str(bad)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("polyfreq: data error: ")
        assert '"noise"' in err and "Traceback" not in err

    def test_env_seed_default(self, tmp_path, ar1_model, monkeypatch):
        monkeypatch.setenv("POLYFREQ_SEED", "31")
        a = tmp_path / "a.csv"
        assert main(["simulate", "--model", ar1_model, "--n", "50", "--output", str(a)]) == EXIT_OK
        b = tmp_path / "b.csv"
        main(["simulate", "--model", ar1_model, "--n", "50", "--seed", "31", "--output", str(b)])
        assert read_data_column(a).tolist() == read_data_column(b).tolist()

    def test_bad_env_seed_is_usage_error(self, ar1_model, monkeypatch, capsys):
        monkeypatch.setenv("POLYFREQ_SEED", "abc")
        assert main(["simulate", "--model", ar1_model, "--n", "10"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "POLYFREQ_SEED" in err and "'abc'" in err

    def test_negative_seed_is_usage_error(self, ar1_model, capsys):
        assert main(["simulate", "--model", ar1_model, "--n", "10", "--seed", "-1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--seed" in err and "'-1'" in err

    @pytest.mark.parametrize("env", [False, True], ids=["flag", "env"])
    def test_seed_past_philox_keys_is_usage_error(self, ar1_model, monkeypatch, capsys, env):
        seed = str(2**128)
        if env:
            monkeypatch.setenv("POLYFREQ_SEED", seed)
        argv = ["simulate", "--model", ar1_model, "--n", "10"] + ([] if env else ["--seed", seed])
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--seed or POLYFREQ_SEED" in err and seed in err and "Traceback" not in err

    def test_largest_seed_accepted(self, tmp_path, ar1_model):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--model", ar1_model, "--n", "10", "--seed", str(2**128 - 1),
                     "--output", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("argv,count,flags", [
        (["delta", "--kmax", "2", "--reps", "100"], 100, "--kmax/--reps/--seed"),
        # two replications, one path each for the seven sizes 256 to 16384
        (["rate", "--n-min", "256", "--n-max", "16384", "--reps", "2"], 2,
         "--n-min/--n-max/--reps/--seed"),
    ], ids=["delta", "rate"])
    def test_seed_range_past_philox_keys_names_its_ends(self, ar1_model, capsys, argv, count,
                                                        flags):
        seed = 2**128 - count // 2
        assert main([*argv, "--model", ar1_model, "--seed", str(seed)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"{flags}: seeds {seed}..{seed + count - 1}: "
                "key must be positive and less than 2**128.") in err
        assert "Traceback" not in err

    def test_flag_seed_overrides_bad_env_seed(self, tmp_path, ar1_model, monkeypatch):
        monkeypatch.setenv("POLYFREQ_SEED", "abc")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--model", ar1_model, "--n", "10", "--seed", "3",
                     "--output", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("extra,expected", [([], 1000), (["--burn-in", "1500"], 1500)])
    def test_header_records_resolved_burn_in(self, tmp_path, ar1_model, extra, expected):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--model", ar1_model, "--n", "10", "--output", str(out),
                     *extra]) == EXIT_OK
        assert f"# burn_in={expected}\n" in out.read_text()

    def test_burn_in_below_the_rounded_arma_default_refused(self, tmp_path, capsys):
        # AR(0.985) burns in 50 * ceil(1 / (1 - rho)) = 3350 steps, not
        # 50 / (1 - rho) = 3333.3: 3349 is refused and 3350 accepted
        spec = tmp_path / "ar.json"
        spec.write_text(json.dumps(dict(AR1_SPEC, ar=[0.985])))
        out = tmp_path / "x.csv"
        argv = ["simulate", "--model", str(spec), "--n", "10", "--output", str(out)]
        assert main([*argv, "--burn-in", "3349"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "below the model's default 3350" in err
        assert "Traceback" not in err and not out.exists()
        assert main([*argv, "--burn-in", "3350"]) == EXIT_OK

    def test_moving_average_header_burn_in_is_zero(self, tmp_path):
        spec = tmp_path / "ma.json"
        spec.write_text(json.dumps({"schema": 1, "family": "linear", "mean": 0.0,
                                    "coeffs": [1.0, 0.5],
                                    "noise": {"distribution": "gaussian", "sigma": 1.0}}))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--model", str(spec), "--n", "10", "--output", str(out)]) == 0
        assert "# burn_in=0\n" in out.read_text()


class TestDeltaCommand:
    def test_csv_columns_and_values(self, tmp_path, ar1_model, capsys):
        out = tmp_path / "d.csv"
        code = main([
            "delta", "--model", ar1_model, "--kmax", "4",
            "--reps", "2000", "--seed", "3", "--output", str(out),
        ])
        assert code == EXIT_OK
        header, rows = read_csv_rows(out)
        assert header == ["k", "delta_hat", "std_error", "replications"]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
        d0 = float(rows[0][1])
        assert d0 == pytest.approx(math.sqrt(2.0), rel=0.05)
        decay = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert decay["slope"] == pytest.approx(math.log(0.5), abs=0.05)

    def test_reproducible_bytes(self, tmp_path, ar1_model):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main([
                "delta", "--model", ar1_model, "--kmax", "3",
                "--reps", "500", "--seed", "9", "--output", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_pinned_bytes(self, tmp_path, ar1_model, capsys):
        # the decay JSON is the report's fields in declaration order
        digests = {}
        for fmt in ("csv", "json"):
            out = tmp_path / f"d.{fmt}"
            assert main(["delta", "--model", ar1_model, "--kmax", "6", "--reps", "1000",
                         "--seed", "9", "--format", fmt, "--output", str(out)]) == EXIT_OK
            digests[fmt] = hashlib.sha256(out.read_bytes()).hexdigest()
            digests[f"{fmt} stderr"] = hashlib.sha256(
                capsys.readouterr().err.encode()).hexdigest()
        assert digests == {
            "csv": "ca7809508424fb62688d8c1f315b43cbbec7a2882947963d1fa60a4e9f71f27a",
            "csv stderr": "c93072f2b1f09b1408acc17a5b7c051a66d8e3463ad41d431374c7a1a4eb919c",
            "json": "c672d85cfbb636e3161495e0e634bd2e25a916c27c9d74b6e87811e737a01646",
            "json stderr": hashlib.sha256(b"").hexdigest(),
        }


@pytest.mark.filterwarnings("ignore:reps=:UserWarning")
class TestRateCommand:
    def test_summary_and_csv(self, tmp_path, ar1_model, capsys):
        out = tmp_path / "rate.csv"
        code = main([
            "rate", "--model", ar1_model, "--n-min", "256", "--n-max", "16384",
            "--reps", "4", "--seed", "11", "--output", str(out),
        ])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_values"] == [256, 512, 1024, 2048, 4096, 8192, 16384]
        assert -0.7 < summary["fitted_slope"] < -0.1
        header, rows = read_csv_rows(out)
        assert header == ["n", "b", "replication", "sup_error", "wall_time_ms"]
        assert len(rows) == 4 * 7

    def test_deterministic_except_wall_time(self, tmp_path, ar1_model, capsys):
        frames = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            main([
                "rate", "--model", ar1_model, "--n-min", "256", "--n-max", "16384",
                "--reps", "2", "--seed", "5", "--output", str(out),
            ])
            capsys.readouterr()
            _, rows = read_csv_rows(out)
            frames.append([r[:4] for r in rows])  # drop wall_time_ms
        assert frames[0] == frames[1]

    def test_bad_range_is_usage_error(self, ar1_model):
        assert main([
            "rate", "--model", ar1_model, "--n-min", "1024", "--n-max", "1024", "--reps", "2",
        ]) == EXIT_USAGE

    def test_insufficient_span_is_usage_error(self, ar1_model):
        assert main([
            "rate", "--model", ar1_model, "--n-min", "1024", "--n-max", "4096", "--reps", "2",
        ]) == EXIT_USAGE

    @pytest.mark.parametrize("n_min", ["1", "0", "-4"])
    def test_n_min_below_two_is_usage_error(self, ar1_model, n_min):
        # a child capped at 2 GiB of address space and a few seconds: a doubling
        # loop that never passes --n-max must not hang or exhaust this process
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
                "from polyfreq.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, "rate", "--model", ar1_model, "--n-min", n_min,
             "--n-max", "16384", "--reps", "2"],
            capture_output=True, text=True, timeout=8)
        assert proc.returncode == EXIT_USAGE
        assert "--n-min" in proc.stderr and "Traceback" not in proc.stderr

    def test_output_dash_is_usage_error(self, ar1_model, capsys):
        assert main(["rate", "--model", ar1_model, "--n-min", "256", "--n-max", "16384",
                     "--reps", "2", "--output", "-"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--output" in captured.err and captured.out == ""

    def test_help_says_no_records_without_output(self, capsys):
        assert main(["rate", "--help"]) == EXIT_OK
        assert "no records file is written" in " ".join(capsys.readouterr().out.split())


def test_thin_rate_warning_is_one_line(ar1_model):
    proc = subprocess.run(
        [sys.executable, "-m", "polyfreq.cli", "rate", "--model", ar1_model,
         "--n-min", "256", "--n-max", "16384", "--reps", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK
    assert proc.stderr.splitlines() == [
        "polyfreq: warning: reps=2 is thin for a rate experiment; slope gates are "
        "calibrated for >= 10 replications"]
    assert "UserWarning" not in proc.stderr and ".py:" not in proc.stderr


class TestNonFiniteOutputRefused:
    """A model whose values leave the float range ends in exit 2, not in ``nan`` rows."""

    SPEC = {"schema": 1, "family": "arma", "ar": [0.5], "a0": 1e308}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "3"],
        ["delta", "--kmax", "1", "--reps", "100"],
        ["delta", "--kmax", "1", "--reps", "100", "--format", "json"],
        ["rate", "--n-min", "256", "--n-max", "16384", "--reps", "10"],
    ], ids=["simulate", "delta-csv", "delta-json", "rate"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_exit_2_naming_the_model_and_nothing_written(self, tmp_path, capsys, argv, to_file):
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps(self.SPEC))
        out = tmp_path / "out"
        flags = ["--output", str(out)] if to_file else []
        assert main([*argv, "--model", str(spec), *flags]) == EXIT_DATA
        captured = capsys.readouterr()
        assert f"data error: model {spec} " in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "warning" not in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("spoil", [
        lambda rep: dataclasses.replace(rep, records=(
            dataclasses.replace(rep.records[0], sup_error=math.nan), *rep.records[1:])),
        lambda rep: dataclasses.replace(rep, fitted_slope=math.inf),
        lambda rep: dataclasses.replace(rep, median_errors=(math.nan, *rep.median_errors[1:])),
        lambda rep: dataclasses.replace(rep, slope_ci=(math.nan, math.nan)),
    ], ids=["sup-error", "slope", "median", "ci"])
    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_rate_refuses_a_non_finite_result(self, tmp_path, ar1_model, monkeypatch, capsys,
                                              spoil, to_file):
        real = cli.rate_experiment
        monkeypatch.setattr(cli, "rate_experiment", lambda *a, **k: spoil(real(*a, **k)))
        out = tmp_path / "out"
        flags = ["--output", str(out)] if to_file else []
        assert main(["rate", "--model", ar1_model, "--n-min", "64", "--n-max", "4096",
                     "--reps", "10", *flags]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"polyfreq: data error: model {ar1_model} gives non-finite sup errors or summary "
            "values; nothing was written"]
        assert captured.out == ""
        assert not out.exists()


class TestNoiseScaleOutOfRange:
    """A noise scale whose variance, or its inverse, leaves the float range is a data error."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "3"],
        ["delta", "--kmax", "1", "--reps", "100"],
        ["rate", "--n-min", "256", "--n-max", "16384", "--reps", "10"],
    ], ids=["simulate", "delta", "rate"])
    @pytest.mark.parametrize("dist,field", [("gaussian", "sigma"), ("uniform", "c"),
                                            ("laplace", "scale")])
    @pytest.mark.parametrize("scale", [1e300, 1e-320])
    def test_exit_2_naming_the_field(self, tmp_path, capsys, argv, dist, field, scale):
        spec = tmp_path / "noise.json"
        spec.write_text(json.dumps({"schema": 1, "family": "arma", "ar": [0.5],
                                    "noise": {"distribution": dist, field: scale}}))
        out = tmp_path / "out"
        assert main([*argv, "--model", str(spec), "--output", str(out)]) == EXIT_DATA
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"polyfreq: data error: model spec {spec} ")
        assert f'"{field}"' in line
        assert captured.out == ""
        assert not out.exists()


class TestMissingSpecField:
    """A spec without a field its family needs is a data error that names the field."""

    @pytest.mark.parametrize("spec_obj,field", [
        ({"schema": 1, "family": "nlar_tar", "a": 0.5}, "b"),
        ({"schema": 1, "family": "nlar_tar", "b": 0.5}, "a"),
        ({"schema": 1, "family": "linear", "mean": 0.5}, "coeffs"),
        ({"schema": 1, "family": "arma", "ar": [0.5], "noise": {"distribution": "gaussian"}},
         "sigma"),
        ({"schema": 1, "family": "nlar_tar", "a": 0.5, "b": 0.2,
          "noise": {"distribution": "uniform"}}, "c"),
    ], ids=["tar-b", "tar-a", "linear-coeffs", "noise-sigma", "noise-c"])
    def test_exit_2_saying_the_field_is_missing(self, tmp_path, capsys, spec_obj, field):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(spec_obj))
        assert main(["simulate", "--n", "10", "--model", str(spec)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"polyfreq: data error: model spec {spec} is malformed: missing field \"{field}\""]


class TestLibraryRefusals:
    """A library call that refuses a model or overflows ends in one stderr line and
    its contract code, with nothing written."""

    RATE = ["rate", "--n-min", "256", "--n-max", "16384", "--reps", "10"]

    @staticmethod
    def run(tmp_path, capsys, argv, spec_obj):
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps(spec_obj))
        out = tmp_path / "out"
        code = main([*argv, "--model", str(spec), "--output", str(out)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        [line] = captured.err.splitlines()
        return code, spec, line

    @pytest.mark.parametrize("coeffs", [[0.0], [1e-300]])  # 1e-300 squares to 0
    def test_rate_on_a_zero_variance_linear_process(self, tmp_path, capsys, coeffs):
        code, spec, line = self.run(tmp_path, capsys, self.RATE,
                                    {"schema": 1, "family": "linear", "coeffs": coeffs})
        assert code == EXIT_MODEL
        assert line.startswith(f"polyfreq: model error: --model {spec}: ")
        assert "variance" in line

    def test_rate_on_a_linear_variance_past_the_float_range(self, tmp_path, capsys):
        code, spec, line = self.run(tmp_path, capsys, self.RATE, {
            "schema": 1, "family": "linear", "coeffs": [1e200, 1e200],
            "noise": {"distribution": "gaussian", "sigma": 1e154}})
        assert code == EXIT_DATA
        assert line == (f"polyfreq: data error: model {spec} gives a marginal outside the "
                        "float range (support [-inf, inf]); nothing was written")

    def test_rate_on_a_tar_model_the_oracle_cannot_resolve(self, tmp_path, capsys):
        # TAR(0, 0.99) mixes too slowly for the oracle to settle within its round cap
        code, spec, line = self.run(
            tmp_path, capsys, ["rate", "--n-min", "64", "--n-max", "4096", "--reps", "10"],
            {"schema": 1, "family": "nlar_tar", "a": 0.0, "b": 0.99})
        assert code == EXIT_MODEL
        assert line.startswith(f"polyfreq: model error: --model {spec}: fixed-point iteration "
                               "did not converge in 500 iterations; last sup-change ")

    @pytest.mark.parametrize("argv,name", [
        (["simulate", "--n", "3"], "simulate"),
        (["delta", "--kmax", "1", "--reps", "100"], "estimate_delta_profile"),
        (RATE, "rate_experiment"),
    ], ids=["simulate", "delta", "rate"])
    def test_overflow_is_a_data_error(self, tmp_path, capsys, monkeypatch, argv, name):
        def overflow(*args, **kwargs):
            raise OverflowError(34, "Numerical result out of range")

        monkeypatch.setattr(cli, name, overflow)
        code, spec, line = self.run(tmp_path, capsys, argv, AR1_SPEC)
        assert code == EXIT_DATA
        assert line == (f"polyfreq: data error: model {spec} gives (34, 'Numerical result out "
                        "of range'); nothing was written")


def test_delta_on_a_large_noise_scale(tmp_path, capsys):
    spec = tmp_path / "tar.json"
    spec.write_text(json.dumps({**TAR_SPEC, "a": 0.5, "b": -0.5,
                                "noise": {"distribution": "gaussian", "sigma": 1e150}}))
    out = tmp_path / "d.csv"
    assert main(["delta", "--model", str(spec), "--kmax", "3", "--reps", "400",
                 "--output", str(out)]) == EXIT_OK
    assert "warning" not in capsys.readouterr().err
    _, rows = read_csv_rows(out)
    values = np.array(rows, dtype=float)
    assert np.isfinite(values).all()
    # lag 0 differences are eps_0 - eps_0': a standard deviation of sqrt(2) sigma
    assert values[0, 1] == pytest.approx(math.sqrt(2.0) * 1e150, rel=0.2)


class TestModelSizeLimits:
    """A spec whose ARMA or linear order or evaluation grid is past its limit is a data
    error, refused before any characteristic root is computed or anything is simulated."""

    @staticmethod
    def refuse(*args):
        raise AssertionError("work started on an oversized model")

    def refused(self, tmp_path, capsys, argv, spec_obj):
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps(spec_obj))
        out = tmp_path / "out"
        assert main([*argv, "--model", str(spec), "--output", str(out)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        [line] = captured.err.splitlines()
        return spec, line

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "3"],
        ["delta", "--kmax", "1", "--reps", "100"],
        ["rate", "--n-min", "256", "--n-max", "16384", "--reps", "10"],
    ], ids=["simulate", "delta", "rate"])
    @pytest.mark.parametrize("field,order", [("ar", 1001), ("ma", 1001), ("ar", 200_001)])
    def test_arma_order(self, tmp_path, capsys, monkeypatch, argv, field, order):
        monkeypatch.setattr(models, "_char_roots", self.refuse)
        spec, line = self.refused(tmp_path, capsys, argv,
                                  {"schema": 1, "family": "arma", field: [1e-6] * order})
        assert line == (f"polyfreq: data error: model spec {spec} is malformed: \"{field}\" "
                        f"holds {order} coefficients, above the limit of 1000")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10"],
        ["delta", "--kmax", "1", "--reps", "100"],
        ["rate", "--n-min", "256", "--n-max", "16384", "--reps", "10"],
    ], ids=["simulate", "delta", "rate"])
    def test_linear_order(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(models, "LinearProcess", self.refuse)
        spec, line = self.refused(tmp_path, capsys, argv,
                                  {"schema": 1, "family": "linear", "coeffs": [1e-6] * 1001})
        assert line == (f"polyfreq: data error: model spec {spec} is malformed: \"coeffs\" "
                        "holds 1001 coefficients, above the limit of 1000")

    def test_rate_evaluation_grid(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(diagnostics, "simulate_rows", self.refuse)
        spec, line = self.refused(
            tmp_path, capsys, ["rate", "--n-min", "2048", "--n-max", "131072"],
            {**AR1_SPEC, "noise": {"distribution": "gaussian", "sigma": 1e6}})
        assert line.startswith(f"polyfreq: data error: model {spec} gives an evaluation grid "
                               "over [")
        assert line.endswith(", more than 10000000 points (3.09198e+09); nothing was written")


class TestBufferCaps:
    """Flags that would size an array of draws past the cap are refused
    before any innovation is drawn."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("innovations drawn")

        # every simulation and coupling draws through NoiseSpec.fill
        monkeypatch.setattr(models.NoiseSpec, "fill", refuse)

    @pytest.mark.parametrize("argv,flags", [
        (["simulate", "--n", str(10**12)], "--n/--burn-in"),
        (["simulate", "--n", "10", "--burn-in", str(10**12)], "--n/--burn-in"),
        (["delta", "--kmax", str(10**8)], "--kmax/--reps"),
        (["delta", "--kmax", "4", "--reps", str(10**6)], "--kmax/--reps"),
        (["rate", "--n-min", "256", "--n-max", str(10**12)], "--n-min/--n-max/--reps"),
        # within the simulation cap, but 500 x 7 x 10^5 bootstrap values are not
        (["rate", "--n-min", "2", "--n-max", "128", "--reps", str(10**5)],
         "--n-min/--n-max/--reps"),
    ], ids=["simulate-n", "simulate-burn-in", "delta-kmax", "delta-reps", "rate-n-max",
            "rate-bootstrap"])
    def test_refused_before_any_draw(self, ar1_model, argv, flags, capsys):
        assert main([*argv, "--model", ar1_model]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert flags in err and "above the limit of 268435456" in err

    @pytest.mark.parametrize("argv,flags", [
        (["simulate", "--n", str(10**19)], "--n/--burn-in"),
        (["simulate", "--n", "10", "--burn-in", str(10**19)], "--n/--burn-in"),
        (["delta", "--kmax", str(10**19)], "--kmax/--reps"),
        (["delta", "--kmax", "2", "--reps", str(10**12)], "--kmax/--reps"),
        (["delta", "--kmax", "2", "--reps", str(10**19)], "--kmax/--reps"),
        (["rate", "--n-min", "256", "--n-max", str(10**19)], "--n-min/--n-max/--reps"),
        (["rate", "--n-min", "256", "--n-max", "16384", "--reps", str(10**12)],
         "--n-min/--n-max/--reps"),
        (["bench", "--n", str(10**19), "--m", "200"], "--n"),
    ], ids=["simulate-n", "simulate-burn-in", "delta-kmax", "delta-reps", "delta-reps-past-int64",
            "rate-n-max", "rate-reps", "bench-n"])
    @pytest.mark.parametrize("spec", [AR1_SPEC, TAR_SPEC], ids=["AR1", "TAR"])
    def test_counts_past_int64_refused_at_once(self, tmp_path, spec, argv, flags, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        assert main(argv if argv[0] == "bench" else [*argv, "--model", str(path)]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert flags in err and "above the limit of 268435456" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,flags", [
        # burn-in 811 + n is exactly 2^28, padded to 82,749 segments of 3,244
        # columns: 268,437,756 values
        (["simulate", "--n", "268434645"], "--n/--burn-in"),
        # the largest size's one row, 811 + 268,434,624 columns, pads to the same
        (["rate", "--reps", "1", "--n-min", "4194291", "--n-max", "268434624"],
         "--n-min/--n-max/--reps"),
    ], ids=["simulate", "rate"])
    def test_padded_markov_batch_refused(self, tmp_path, argv, flags, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**TAR_SPEC, "a": 0.95, "b": -0.9}))
        assert main([*argv, "--model", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert flags in err and "268437756 values, above the limit of 268435456" in err

    @pytest.mark.parametrize("n_min,n_max,spec", [
        # 200 paths of 82 + 2^20 values (TAR) or 1000 + 2^20 (AR(1)) fit under the cap
        (2**10, 2**20, TAR_SPEC), (2**10, 2**20, AR1_SPEC),
        (2**8, 2**17, TAR_SPEC),
    ], ids=["TAR-2^20", "AR1", "TAR-2^17"])
    def test_rate_accepts_what_the_largest_size_fits(self, tmp_path, n_min, n_max, spec):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(AssertionError, match="innovations drawn"):
            main(["rate", "--n-min", str(n_min), "--n-max", str(n_max), "--reps", "200",
                  "--model", str(path)])


class TestOutputCheckedFirst:
    """An ``--output`` that cannot be created is refused before the command
    reads its input, simulates or estimates anything."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("estimate_delta_profile", "rate_experiment", "simulate", "_read_column"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv", [
        ["estimate", "--input", "data.csv"],
        ["simulate", "--n", "10"],
        ["delta", "--kmax", "10", "--reps", "200000"],
        ["rate", "--n-min", "256", "--n-max", "16384", "--reps", "2"],
    ], ids=["estimate", "simulate", "delta", "rate"])
    @pytest.mark.parametrize("where", ["missing-parent", "directory", "read-only-parent",
                                       "read-only-file"])
    def test_refused_before_any_work(self, tmp_path, ar1_model, monkeypatch, capsys, argv,
                                     where):
        out = tmp_path / "out.csv"
        if where == "missing-parent":
            out = tmp_path / "missing" / "out.csv"
        elif where == "directory":
            out.mkdir()
        else:  # a superuser may write anywhere, so os.access is made to refuse
            if where == "read-only-file":
                out.write_text("")
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        if argv[0] != "estimate":
            argv = [*argv, "--model", ar1_model]
        assert main([*argv, "--output", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"usage error: cannot write --output {out}: " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["estimate", "--input", "data.csv"],
        ["simulate", "--n", "10"],
        ["delta", "--kmax", "10", "--reps", "200000"],
        ["rate", "--n-min", "256", "--n-max", "16384", "--reps", "2"],
    ], ids=["estimate", "simulate", "delta", "rate"])
    def test_empty_path_refused_before_any_work(self, ar1_model, capsys, argv):
        if argv[0] != "estimate":
            argv = [*argv, "--model", ar1_model]
        assert main([*argv, "--output", ""]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "polyfreq: usage error: cannot write --output '': the path is empty"]
        assert captured.out == ""


class TestOutputWritable:
    """Writing an existing file needs permission on the file, not on its
    directory."""

    def test_existing_file_in_read_only_directory(self, tmp_path, ar1_model, monkeypatch):
        out = tmp_path / "out.csv"
        out.write_text("")
        access = os.access
        monkeypatch.setattr(cli.os, "access",
                            lambda path, mode: path != str(tmp_path) and access(path, mode))
        assert main(["simulate", "--model", ar1_model, "--n", "10", "--output", str(out)]) \
            == EXIT_OK
        assert out.read_text().count("\n") > 10

    def test_null_device(self, ar1_model, monkeypatch, capsys):
        # the null device's directory (/dev) is read-only to all but root
        access, devices = os.access, os.path.dirname(os.devnull)
        monkeypatch.setattr(cli.os, "access",
                            lambda path, mode: path != devices and access(path, mode))
        assert main(["simulate", "--model", ar1_model, "--n", "10", "--output", os.devnull]) \
            == EXIT_OK
        assert capsys.readouterr() == ("", "")


class TestStdoutWriteFails:
    """A stdout that cannot be written ends in one usage-error line and exit 1,
    not a traceback, whether the write or the last flush fails."""

    @staticmethod
    def command(argv, model):
        return [sys.executable, "-m", "polyfreq.cli",
                *(model if arg == "MODEL" else arg for arg in argv)]

    def test_closed_pipe(self, ar1_model):
        # the reader takes 100 bytes and closes the pipe, as `| head -c 100` does
        proc = subprocess.Popen(
            self.command(["simulate", "--model", "MODEL", "--n", "200000"], ar1_model),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_USAGE
        assert err.splitlines() == ["polyfreq: usage error: cannot write stdout: Broken pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "MODEL", "--n", "200000"],  # fails while writing
        ["simulate", "--model", "MODEL", "--n", "10"],  # fits the buffer: fails at the flush
        ["delta", "--model", "MODEL", "--kmax", "2", "--reps", "100"],
        ["rate", "--model", "MODEL", "--n-min", "256", "--n-max", "16384", "--reps", "10"],
        ["bench", "--n", "10000", "--m", "100"],
    ], ids=["simulate-large", "simulate-small", "delta", "rate", "bench"])
    def test_full_device(self, ar1_model, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(self.command(argv, ar1_model), stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.splitlines() == [
            "polyfreq: usage error: cannot write stdout: No space left on device"]


NONSTATIONARY_SPEC = {**AR1_SPEC, "ar": [1.5]}


class TestFlagErrors:
    """Every bad flag value exits with a contract code and a message that
    names the flag, or the path it was given, without a traceback."""

    CASES = [
        (["estimate", "--input", "{missing}"], "{missing}"),
        (["estimate", "--input", "{dir}"], "{dir}"),
        (["estimate", "--input", "{data}", "--bandwidth", "0"], "--bandwidth"),
        (["estimate", "--input", "{data}", "--bandwidth", "-1"], "--bandwidth"),
        (["estimate", "--input", "{data}", "--bandwidth", "nan"], "--bandwidth"),
        (["estimate", "--input", "{data}", "--bandwidth", "inf"], "--bandwidth"),
        (["estimate", "--input", "{data}", "--bandwidth", "x"], "--bandwidth"),
        (["estimate", "--input", "{data}", "--bandwidth", "1e308"], "--bandwidth"),
        (["estimate", "--input", "{data}", "--bandwidth", "1e-300"], "{data}"),
        (["estimate", "--input", "{data}", "--grid-step", "0"], "--grid-step"),
        (["estimate", "--input", "{data}", "--grid-step", "nan"], "--grid-step"),
        (["estimate", "--input", "{data}", "--grid-step", "1e-12"], "--grid-step"),
        (["estimate", "--input", "{data}", "--grid-min", "2", "--grid-max", "1"], "--grid-min"),
        (["estimate", "--input", "{data}", "--grid-max", "nan"], "--grid-max"),
        (["estimate", "--input", "{data}", "--format", "xml"], "--format"),
        (["estimate", "--input", "{data}", "--output", "{dir}"], "--output"),
        (["simulate", "--model", "{model}", "--n", "0"], "--n"),
        (["simulate", "--model", "{model}", "--n", "x"], "--n"),
        (["simulate", "--model", "{model}", "--n", "1000000000000"], "--n"),
        (["simulate", "--model", "{model}", "--n", "10", "--burn-in", "5"], "--burn-in"),
        (["simulate", "--model", "{model}", "--n", "10", "--burn-in", "-1"], "--burn-in"),
        (["simulate", "--model", "{model}", "--n", "10", "--seed", "-1"], "--seed"),
        (["simulate", "--model", "{model}", "--n", "10", "--seed", "x"], "--seed"),
        (["simulate", "--model", "{missing}", "--n", "10"], "{missing}"),
        (["simulate", "--model", "{data}", "--n", "10"], "{data}"),
        (["simulate", "--model", "{unstable}", "--n", "10"], "{unstable}"),
        (["simulate", "--model", "{model}", "--n", "10", "--output", "{dir}"], "--output"),
        (["delta", "--model", "{model}", "--kmax", "-1"], "--kmax"),
        (["delta", "--model", "{model}", "--kmax", "100000000"], "--kmax"),
        (["delta", "--model", "{model}", "--kmax", "4", "--reps", "5"], "--reps"),
        (["delta", "--model", "{model}", "--kmax", "4", "--reps", "-5"], "--reps"),
        (["delta", "--model", "{model}", "--kmax", "4", "--format", "xml"], "--format"),
        (["delta", "--model", "{unstable}", "--kmax", "4"], "{unstable}"),
        (["delta", "--model", "{model}", "--kmax", "4", "--output", "{dir}"], "--output"),
        (["rate", "--model", "{model}", "--n-min", "1", "--n-max", "4096"], "--n-min"),
        (["rate", "--model", "{model}", "--n-min", "1024", "--n-max", "1024"], "--n-max"),
        (["rate", "--model", "{model}", "--n-min", "1024", "--n-max", "4096"], "--n-max"),
        (["rate", "--model", "{model}", "--n-min", "256", "--n-max", "1000000000000"],
         "--n-max"),
        (["rate", "--model", "{model}", "--n-min", "256", "--n-max", "16384", "--reps", "0"],
         "--reps"),
        (["rate", "--model", "{model}", "--n-min", "256", "--n-max", "16384",
          "--output", "-"], "--output"),
        (["rate", "--model", "{model}", "--n-min", "256", "--n-max", "16384",
          "--output", "{dir}"], "--output"),
        (["rate", "--model", "{unstable}", "--n-min", "256", "--n-max", "16384"], "{unstable}"),
        (["bench", "--n", "5", "--m", "200"], "--n"),
        (["bench", "--n", "20000", "--m", "10"], "--m"),
        (["bench", "--n", "x", "--m", "200"], "--n"),
        (["bench", "--n", "1000000000000000", "--m", "200"], "--n"),
        (["bench", "--n", "20000", "--m", "1000000000000"], "--m"),
        (["bench", "--n", "20000", "--m", "200", "--seed", "-1"], "--seed"),
        (["bench", "--n", "20000", "--m", "200", "--format", "xml"], "--format"),
    ]

    @pytest.mark.parametrize("argv,named", CASES, ids=[" ".join(a) for a, _ in CASES])
    def test_message_names_the_flag(self, tmp_path, ar1_model, capsys, argv, named):
        data = tmp_path / "d.csv"
        data.write_text("0.25\n0.75\n")
        unstable = tmp_path / "unstable.json"
        unstable.write_text(json.dumps(NONSTATIONARY_SPEC))
        paths = {"missing": str(tmp_path / "missing.csv"), "dir": str(tmp_path),
                 "data": str(data), "model": ar1_model, "unstable": str(unstable)}
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code in (EXIT_USAGE, EXIT_DATA, EXIT_MODEL)
        assert "Traceback" not in err
        assert named.format(**paths) in err


class TestBenchCommand:
    def test_small_bench_runs(self, capsys):
        code = main(["bench", "--n", "20000", "--m", "200", "--seed", "2", "--format", "json"])
        assert code == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["p_n"] > 0
        assert result["fp_total_s"] > 0
        assert result["kde_query_s"] > result["fp_query_s"]

    def test_csv_and_json_artifacts(self, capsys):
        # the configuration in the header or "config", one named row of results
        argv = ["bench", "--n", "20000", "--m", "200", "--seed", "2"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-2] == [f"# polyfreq {cli.__version__}", '# command="bench"', "# m=200",
                              "# n=20000", "# repeats=5", "# seed=2"]
        names = ["bandwidth", "p_n", "fp_build_s", "fp_query_s", "fp_total_s", "kde_query_s",
                 "kde_over_fp_total", "kde_over_fp_query"]
        assert lines[-2].split(",") == names
        row = dict(zip(names, map(float, lines[-1].split(","))))
        assert row["bandwidth"] == stone_bandwidth(20000)
        assert row["p_n"] > 0 and row["kde_query_s"] > row["fp_query_s"]

        assert main([*argv, "--format", "json"]) == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert list(result) == ["config", *names]
        assert result["config"] == {"command": "bench", "n": 20000, "m": 200, "seed": 2,
                                    "repeats": 5}
        assert result["bandwidth"] == row["bandwidth"] and result["p_n"] == row["p_n"]

    def test_preconditions(self):
        assert main(["bench", "--n", "100", "--m", "200"]) == EXIT_USAGE
        assert main(["bench", "--n", "20000", "--m", "10"]) == EXIT_USAGE


class TestParserContract:
    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert main(["simulate", "--frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["estimate"],
        ["simulate", "--n", "10"],
        ["delta", "--kmax", "1", "--reps", "10"],
        ["rate", "--n-min", "256", "--n-max", "4096"],
        ["bench", "--n", "10000", "--m", "100"],
    ], ids=["estimate", "simulate", "delta", "rate", "bench"])
    def test_threads_only_on_rate(self, tmp_path, ar1_model, argv, capsys):
        # no command takes --threads: rate sizes its pool from the usable CPUs
        if argv[0] == "estimate":
            data = tmp_path / "d.csv"
            data.write_text("0.25\n0.75\n")
            argv = [*argv, "--input", str(data)]
        elif argv[0] != "bench":
            argv = [*argv, "--model", ar1_model]
        assert main([*argv, "--threads", "2"]) == EXIT_USAGE
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["estimate"], ["--seed", "1"]),
        (["simulate", "--n", "10"], ["--format", "json"]),
        (["rate", "--n-min", "256", "--n-max", "4096"], ["--format", "csv"]),
        (["bench", "--n", "10000", "--m", "100"], ["--output", "f"]),
    ], ids=["estimate-seed", "simulate-format", "rate-format", "bench-output"])
    def test_flags_only_where_read(self, tmp_path, ar1_model, argv, flag, capsys):
        if argv[0] == "estimate":
            data = tmp_path / "d.csv"
            data.write_text("0.25\n0.75\n")
            argv = [*argv, "--input", str(data)]
        elif argv[0] != "bench":
            argv = [*argv, "--model", ar1_model]
        assert main([*argv, *flag]) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polyfreq.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "polyfreq" in proc.stdout
