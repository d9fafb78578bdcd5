"""End-to-end tests of the command-line harness."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from polyfreq.cli import (
    EXIT_DATA,
    EXIT_MODEL,
    EXIT_OK,
    EXIT_USAGE,
    DataError,
    _read_column,
    main,
)

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
        # more rows than one chunk, fed through the two-pass reader
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


@pytest.mark.filterwarnings("ignore:reps=:UserWarning")
class TestRateCommand:
    def test_summary_and_csv(self, tmp_path, ar1_model, capsys):
        out = tmp_path / "rate.csv"
        code = main([
            "rate", "--model", ar1_model, "--n-min", "256", "--n-max", "16384",
            "--reps", "4", "--seed", "11", "--output", str(out), "--threads", "2",
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


class TestBenchCommand:
    def test_small_bench_runs(self, capsys):
        code = main(["bench", "--n", "20000", "--m", "200", "--seed", "2", "--format", "json"])
        assert code == EXIT_OK
        result = json.loads(capsys.readouterr().out)
        assert result["p_n"] > 0
        assert result["fp_total_s"] > 0
        assert result["kde_query_s"] > result["fp_query_s"]

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
        ["bench", "--n", "10000", "--m", "100"],
    ], ids=["estimate", "simulate", "delta", "bench"])
    def test_threads_only_on_rate(self, tmp_path, ar1_model, argv, capsys):
        if argv[0] == "estimate":
            data = tmp_path / "d.csv"
            data.write_text("0.25\n0.75\n")
            argv = [*argv, "--input", str(data)]
        elif argv[0] != "bench":
            argv = [*argv, "--model", ar1_model]
        assert main([*argv, "--threads", "2"]) == EXIT_USAGE
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polyfreq.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "polyfreq" in proc.stdout
