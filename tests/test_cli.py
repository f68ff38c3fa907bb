import argparse
import json
import math
import re
from dataclasses import fields

import jsonschema
import pytest

from distshap import baseline, cli, numerics
from distshap.cli import _experiment_config, build_parser, main
from distshap.experiments import ExperimentConfig
from distshap.output import RESULTS_JSON_SCHEMA, read_results


def run(argv):
    return main(argv)


class TestGenAndValue:
    def test_pipeline_and_determinism(self, tmp_path):
        data = tmp_path / "data.csv"
        assert run(["gen", "--kind", "gaussian-r", "--n", "900", "--p", "3",
                    "--seed", "3", "--output", str(data)]) == 0

        out1 = tmp_path / "v1.csv"
        out2 = tmp_path / "v2.csv"
        common = ["value", "--data", str(data), "--target-column", "y",
                  "--task", "regression", "--m", "100", "--n-value-points", "10",
                  "--background-size", "500", "--heldout-size", "200",
                  "--seed", "7"]
        assert run(common + ["--output", str(out1)]) == 0
        assert run(common + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        table = read_results(out1)
        assert list(table.columns) == ["index", "value", "std_error", "method", "m", "q", "seed"]
        assert len(table.columns["index"]) == 10
        assert table.metadata["task"] == "regression"

    def test_gen_classification(self, tmp_path):
        data = tmp_path / "c.csv"
        assert run(["gen", "--kind", "gaussian-c", "--n", "50",
                    "--seed", "1", "--output", str(data)]) == 0
        lines = data.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "x0,x1,x2,y"

    @pytest.mark.parametrize("task, data", [("regression", "reg"), ("classification", "clf")])
    def test_bounds_below_the_gate_warn_of_the_empty_sum(self, task, data, datasets, tmp_path):
        # --m 2 sits below the gate q = p + 3 = 6: every side is an exact zero, said once
        out = tmp_path / "o.csv"
        argv = ["bounds", "--data", str(datasets[data]), "--target-column", "y", "--task", task,
                "--m", "2", "--n-value-points", "5", "--background-size", "200",
                "--heldout-size", "0", "--output", str(out)]
        with pytest.warns(UserWarning, match="^valuation horizon m=2 is below the utility gate "
                          "q=6; the value is an empty sum and exactly 0$") as record:
            assert run(argv) == 0
        assert len(record) == 1
        assert read_results(out).columns["value"] == [0.0] * 5


class TestErrors:
    def test_missing_file_single_line(self, tmp_path, capsys):
        code = run(["value", "--data", str(tmp_path / "nope.csv"),
                    "--target-column", "y", "--task", "regression",
                    "--output", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_header_width_mismatch_single_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        out = tmp_path / "o.csv"
        for header in ("a,b,y", "a,b,c,d,y"):
            data.write_text(header + "\n" + "".join(f"{i},{i + 1},{i + 2},{i * i}\n"
                                                     for i in range(50)))
            code = run(["value", "--data", str(data), "--target-column", "y",
                        "--task", "regression", "--m", "20", "--n-value-points", "5",
                        "--background-size", "30", "--heldout-size", "10",
                        "--output", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: CsvParseError: ")
            assert "rows have 4" in err
            assert err.count("\n") == 1
            assert not out.exists()

    def test_a_large_finite_input_is_refused_naming_d(self, tmp_path, capsys):
        # x0 = 1e200 is finite, but its squared distance d overflows: the bounds were NaN rows
        data, out = tmp_path / "data.csv", tmp_path / "o.csv"
        assert run(["gen", "--kind", "gaussian-r", "--n", "120", "--p", "2",
                    "--seed", "1", "--output", str(data)]) == 0
        argv = ["bounds", "--data", str(data), "--target-column", "y", "--task", "regression",
                "--m", "40", "--n-value-points", "6", "--background-size", "100",
                "--heldout-size", "0", "--seed", "4", "--output", str(out)]
        assert run(argv) == 0
        valued = read_results(out).columns["index"][0]  # the split depends on n and the seed
        out.unlink()
        lines = data.read_text().splitlines()
        first_row = 1 + next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[first_row + valued] = "1e+200,0.0,1.0"
        data.write_text("\n".join(lines) + "\n")
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: InvalidParameterError: d must be finite and nonnegative, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, task, row", [
        ("gaussian-r", "regression", "1e+200,0.0,1.0"),
        ("gaussian-c", "classification", "1e+200,0.0,0.0,1.0")])
    def test_an_overflowing_background_row_is_refused_by_number(self, kind, task, row,
                                                                 tmp_path, capsys):
        # the background fits refuse a row whose squared norm overflows; the regression fit
        # failed on a singular pivot after two warnings, and IRLS said nothing
        data, out = tmp_path / "data.csv", tmp_path / "o.csv"
        assert run(["gen", "--kind", kind, "--n", "120", "--p", "2",
                    "--seed", "1", "--output", str(data)]) == 0
        argv = ["bounds", "--data", str(data), "--target-column", "y", "--task", task,
                "--m", "40", "--n-value-points", "6", "--background-size", "114",
                "--heldout-size", "0", "--seed", "4", "--output", str(out)]
        assert run(argv) == 0
        valued = set(read_results(out).columns["index"])  # every other row is background
        out.unlink()
        lines = data.read_text().splitlines()
        first_row = 1 + next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[first_row + min(set(range(120)) - valued)] = row
        data.write_text("\n".join(lines) + "\n")
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: InvalidParameterError: background row \d+ has a squared norm "
                            r"that is not finite, got inf\n", err), err
        assert not out.exists()

    def test_negative_split_sizes_exit_code(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert run(["gen", "--kind", "gaussian-r", "--n", "300", "--p", "3",
                    "--seed", "1", "--output", str(data)]) == 0
        capsys.readouterr()
        common = ["value", "--data", str(data), "--target-column", "y",
                  "--task", "regression", "--m", "50", "--n-value-points", "20"]
        for flags in (["--heldout-size", "-5"], ["--background-size", "0"]):
            out = tmp_path / "o.csv"
            assert run(common + flags + ["--output", str(out)]) == 2
            assert "InvalidParameterError" in capsys.readouterr().err
            assert not out.exists()

    def test_singular_background_exit_code(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rows = [(i % 7 * 0.3, i % 11 * 0.2, i % 5 * 0.1 - i % 3 * 0.05) for i in range(200)]
        data.write_text("a,a2,b,y\n" + "".join(f"{a},{a},{b},{a - b + c}\n" for a, b, c in rows))
        out = tmp_path / "o.csv"
        code = run(["value", "--data", str(data), "--target-column", "y",
                    "--task", "regression", "--m", "20", "--n-value-points", "5",
                    "--background-size", "150", "--heldout-size", "10", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SingularMatrixError: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_invalid_bandwidth_grid_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n" + "\n".join(f"{i * 0.01},{i * 0.02}" for i in range(100)))
        out = tmp_path / "o.csv"
        code = run(["value", "--data", str(data), "--task", "density",
                    "--m", "20", "--n-value-points", "5", "--background-size", "50",
                    "--heldout-size", "0", "--density-budget", "50",
                    "--bandwidth-grid=0,0.1", "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameterError")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_empty_bandwidth_grid_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n" + "\n".join(f"{i * 0.01},{i * 0.02}" for i in range(100)))
        out = tmp_path / "o.csv"
        code = run(["value", "--data", str(data), "--task", "density",
                    "--m", "20", "--n-value-points", "5", "--background-size", "50",
                    "--heldout-size", "0", "--bandwidth-grid", "", "--output", str(out)])
        assert code == 2
        assert "InvalidParameterError: bandwidth grid must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    def test_time_bench_counts_exit_code(self, tmp_path, capsys):
        for flags in (["--repetitions", "0"], ["--baseline-points", "0"],
                      ["--tasks", "nope"], ["--tasks", ","]):
            out = tmp_path / "bench.csv"
            code = run(["time-bench", "--cells", "15,2", "--tasks", "regression",
                        "--seed", "0", "--output", str(out)] + flags)
            assert code == 2
            assert "InvalidParameterError" in capsys.readouterr().err
            assert not out.exists()
        for cells, bad in (("200", "'200'"), ("200,10,5", "'200,10,5'"), ("200,10;", "''")):
            out = tmp_path / "bench.csv"
            code = run(["time-bench", "--cells", cells, "--tasks", "regression",
                        "--seed", "0", "--output", str(out)])
            assert code == 2
            assert f"InvalidParameterError: cell {bad} is not" in capsys.readouterr().err
            assert not out.exists()

    def test_thread_count_below_one_exit_code(self, tmp_path, capsys):
        # a thread count below one exited 0 and was echoed into the metadata
        data = tmp_path / "data.csv"
        assert run(["gen", "--kind", "gaussian-r", "--n", "300", "--p", "3",
                    "--seed", "1", "--output", str(data)]) == 0
        capsys.readouterr()
        common = ["--data", str(data), "--target-column", "y", "--task", "regression",
                  "--m", "50", "--n-value-points", "10", "--heldout-size", "50"]
        runs = [[command] + common for command in ("value", "bounds", "baseline", "point-addition")]
        runs.append(["time-bench", "--cells", "15,2", "--tasks", "regression"])
        for argv in runs:
            for threads in ("0", "-4"):
                out = tmp_path / "o.csv"
                assert run(argv + ["--threads", threads, "--output", str(out)]) == 2, argv
                lines = capsys.readouterr().err.splitlines()
                assert lines == [f"error: InvalidParameterError: threads must be at least 1, "
                                 f"got {threads}"], argv
                assert not out.exists()

    def test_classification_horizon_below_one_exit_code(self, tmp_path, capsys):
        data = tmp_path / "c.csv"
        assert run(["gen", "--kind", "gaussian-c", "--n", "400",
                    "--seed", "1", "--output", str(data)]) == 0
        for command in ("value", "bounds"):
            for m in ("0", "-3"):
                out = tmp_path / "o.csv"
                code = run([command, "--data", str(data), "--target-column", "y",
                            "--task", "classification", "--m", m, "--n-value-points", "10",
                            "--background-size", "300", "--heldout-size", "50",
                            "--output", str(out)])
                assert code == 2
                assert "valuation horizon m must be at least 1" in capsys.readouterr().err
                assert not out.exists()

    def test_nonfinite_parameters_exit_code(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        assert run(["gen", "--kind", "gaussian-r", "--n", "300", "--p", "3",
                    "--seed", "1", "--output", str(data)]) == 0
        capsys.readouterr()
        common = ["--data", str(data), "--target-column", "y", "--task", "regression",
                  "--m", "50", "--n-value-points", "20", "--heldout-size", "50"]
        runs = [[command] + common + ["--gamma", gamma]
                for command in ("bounds", "baseline", "point-addition")
                for gamma in ("nan", "inf")]
        runs.append(["bounds"] + common + ["--gamma", "nan", "--format", "json"])
        runs.append(["synergy-scan", "--grid", "0.1", "--c-den", "nan"])
        for argv in runs:
            out = tmp_path / "o.csv"
            assert run(argv + ["--output", str(out)]) == 2, argv
            assert "InvalidParameterError" in capsys.readouterr().err
            assert not out.exists()

    def test_settings_the_route_never_reads_exit_code(self, tmp_path, capsys):
        # each of these exited 0 and was echoed into the output, as no route read it
        cases = [("--bandwidth-grid=-1,nan", "bandwidths must be finite and positive"),
                 ("--gamma=-1", "gamma must be finite and nonnegative"),
                 ("--baseline-draws=1", "baseline_draws must be at least 2"),
                 ("--q=-3", "utility gate q must be at least 1")]
        for task, kind in (("regression", "gaussian-r"), ("classification", "gaussian-c")):
            data = tmp_path / f"{task}.csv"
            assert run(["gen", "--kind", kind, "--n", "300", "--seed", "1", "--output", str(data)]) == 0
            capsys.readouterr()
            for command in ("value", "bounds"):
                for flag, message in cases:
                    out = tmp_path / "o.csv"
                    argv = [command, "--data", str(data), "--target-column", "y", "--task", task,
                            "--m", "50", "--n-value-points", "10", "--heldout-size", "50",
                            flag, "--output", str(out)]
                    assert run(argv) == 2, argv
                    lines = capsys.readouterr().err.splitlines()
                    assert len(lines) == 1 and message in lines[0], (argv, lines)
                    assert not out.exists()

    def test_target_only_data_exit_code(self, tmp_path, capsys):
        # the target was the only column: this exited 0, one value for every point
        data = tmp_path / "y.csv"
        data.write_text("y\n" + "\n".join(f"{y}.0" for y in (1, 2, 3, 4, 5)))
        out = tmp_path / "o.csv"
        assert run(["value", "--data", str(data), "--task", "regression", "--target-column", "y",
                    "--q", "3", "--m", "10", "--n-value-points", "2", "--heldout-size", "0",
                    "--output", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: InvalidParameterError:")
        assert "leaves no feature column" in lines[0]
        assert not out.exists()

    def test_density_task_without_target(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n" + "\n".join(f"{i * 0.01},{i * 0.02}" for i in range(300)))
        code = run(["value", "--data", str(data), "--task", "density",
                    "--m", "50", "--n-value-points", "5", "--background-size", "200",
                    "--heldout-size", "50", "--density-budget", "200",
                    "--output", str(tmp_path / "o.csv")])
        assert code == 0

    def test_empty_heldout_set_exit_code(self, tmp_path, capsys):
        # a curve or supervised-baseline utility built on no held-out rows is refused
        reg, clf = tmp_path / "r.csv", tmp_path / "c.csv"
        assert run(["gen", "--kind", "gaussian-r", "--n", "300", "--p", "3",
                    "--seed", "1", "--output", str(reg)]) == 0
        assert run(["gen", "--kind", "gaussian-c", "--n", "300",
                    "--seed", "1", "--output", str(clf)]) == 0
        common = ["--m", "40", "--n-value-points", "20", "--background-size", "200",
                  "--heldout-size", "0", "--baseline-draws", "30", "--repetitions", "2"]
        cases = (["baseline", "--data", str(clf), "--target-column", "y",
                  "--task", "classification"],
                 ["point-addition", "--data", str(reg), "--target-column", "y",
                  "--task", "regression", "--method", "bounds"],
                 ["point-addition", "--data", str(reg), "--task", "density",
                  "--method", "fast", "--bandwidth-grid", "0.5"])
        for argv in cases:
            out = tmp_path / "o.csv"
            flags = common if argv[0] == "point-addition" else common[:-2]  # no --repetitions
            capsys.readouterr()
            assert run(argv + flags + ["--output", str(out)]) == 2
            assert "InvalidParameterError" in capsys.readouterr().err
            assert not out.exists()
        # value and bounds draw on no held-out rows and keep working without them
        for command in ("value", "bounds"):
            out = tmp_path / f"{command}.csv"
            assert run([command, "--data", str(reg), "--target-column", "y",
                        "--task", "regression", "--output", str(out)] + common[:-2]) == 0

    def test_classification_labels_not_zero_one_exit_code(self, tmp_path, capsys):
        # the accuracy utility fits 0/1 labels only; -1/1 labels are refused, not scored
        data = tmp_path / "c.csv"
        assert run(["gen", "--kind", "gaussian-c", "--n", "300",
                    "--seed", "1", "--output", str(data)]) == 0
        rows = [line for line in data.read_text().splitlines() if not line.startswith("#")]
        data.write_text("\n".join(rows[:1] + [line[:-3] + "-1.0" if line.endswith(",0.0")
                                               else line for line in rows[1:]]) + "\n")
        assert ",-1.0" in data.read_text()
        common = ["--data", str(data), "--target-column", "y", "--task", "classification",
                  "--m", "40", "--n-value-points", "5", "--background-size", "200",
                  "--heldout-size", "50", "--baseline-draws", "30"]
        for argv in (["baseline"], ["point-addition", "--method", "baseline", "--repetitions", "1"]):
            out = tmp_path / "o.csv"
            capsys.readouterr()
            assert run(argv + common + ["--output", str(out)]) == 2
            assert "labels must be 0/1" in capsys.readouterr().err
            assert not out.exists()

    def test_supervised_point_addition_needs_target(self, tmp_path, capsys):
        data = tmp_path / "r.csv"
        assert run(["gen", "--kind", "gaussian-r", "--n", "300", "--p", "3",
                    "--seed", "1", "--output", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "o.csv"
        assert run(["point-addition", "--data", str(data), "--task", "regression",
                    "--m", "40", "--n-value-points", "20", "--background-size", "200",
                    "--repetitions", "1", "--output", str(out)]) == 2
        assert "needs a target column" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_file_defaults_with_flag_override(self, tmp_path):
        data = tmp_path / "data.csv"
        run(["gen", "--kind", "gaussian-r", "--n", "900", "--p", "3",
             "--seed", "3", "--output", str(data)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 100, "n_value_points": 7,
                                   "background_size": 500, "heldout_size": 200}))
        out = tmp_path / "o.csv"
        code = run(["value", "--data", str(data), "--target-column", "y",
                    "--task", "regression", "--config", str(cfg),
                    "--n-value-points", "4", "--output", str(out)])
        assert code == 0
        table = read_results(out)
        assert len(table.columns["index"]) == 4  # flag wins
        assert table.metadata["m"] == "100"  # file value applied

        # a flag equal to its default still wins over the file
        cfg.write_text(json.dumps({"m": 500, "seed": 7, "n_value_points": 3,
                                   "background_size": 500, "heldout_size": 200}))
        code = run(["value", "--data", str(data), "--target-column", "y",
                    "--task", "regression", "--config", str(cfg),
                    "--m", "1000", "--seed", "0", "--output", str(out)])
        assert code == 0
        table = read_results(out)
        assert len(table.columns["index"]) == 3
        assert table.metadata["m"] == "1000"
        assert table.metadata["seed"] == "0"

    def test_file_values_take_the_flag_types(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        run(["gen", "--kind", "gaussian-r", "--n", "300", "--p", "3",
             "--seed", "3", "--output", str(data)])
        cfg = tmp_path / "cfg.json"
        command = ["value", "--data", str(data), "--target-column", "y",
                   "--task", "regression", "--n-value-points", "5",
                   "--background-size", "200", "--heldout-size", "50", "--config", str(cfg)]
        for bad in ({"m": 1.5}, {"seed": 1.5}, {"m": True}, {"m": None}):
            cfg.write_text(json.dumps(bad))
            out = tmp_path / "bad.csv"
            with pytest.raises(SystemExit) as excinfo:  # as for the same value given as a flag
                run(command + ["--output", str(out)])
            assert excinfo.value.code == 2, bad
            assert f"argument --{next(iter(bad))}: invalid int value" in capsys.readouterr().err
            assert not out.exists()
        for good in ({"m": 50}, {"m": "50", "no_header": False, "q": None}):
            cfg.write_text(json.dumps(good))
            out = tmp_path / "good.csv"
            assert run(command + ["--output", str(out)]) == 0, good
            assert read_results(out).metadata["m"] == "50"

        # lists and booleans pass through unconverted
        density = tmp_path / "d.csv"
        density.write_text("\n".join(f"{i * 0.01},{i * 0.02}" for i in range(120)))
        cfg.write_text(json.dumps({"bandwidth_grid": [0.5, 1.0], "no_header": True}))
        out = tmp_path / "density.csv"
        assert run(["value", "--data", str(density), "--task", "density", "--m", "20",
                    "--n-value-points", "5", "--heldout-size", "0", "--config", str(cfg),
                    "--output", str(out)]) == 0
        assert len(read_results(out).columns["index"]) == 5

        # an empty grid is refused, not replaced by the default grid
        cfg.write_text(json.dumps({"bandwidth_grid": [], "no_header": True}))
        out = tmp_path / "empty-grid.csv"
        capsys.readouterr()
        assert run(["value", "--data", str(density), "--task", "density", "--m", "20",
                    "--n-value-points", "5", "--heldout-size", "0", "--config", str(cfg),
                    "--output", str(out)]) == 2
        assert "bandwidth grid must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        run(["gen", "--kind", "gaussian-r", "--n", "100", "--p", "2",
             "--seed", "3", "--output", str(data)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = run(["value", "--data", str(data), "--target-column", "y",
                    "--task", "regression", "--config", str(cfg),
                    "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err


class TestResolvedConfig:
    def test_outputs_echo_every_config_field(self, tmp_path):
        data = tmp_path / "data.csv"
        run(["gen", "--kind", "gaussian-r", "--n", "600", "--p", "3",
             "--seed", "5", "--output", str(data)])
        common = ["--data", str(data), "--target-column", "y", "--task", "regression",
                  "--m", "100", "--n-value-points", "8", "--background-size", "300",
                  "--heldout-size", "150", "--bandwidth-grid", "0.5,2", "--seed", "1"]
        for command, repetitions in ((["value"], 1), (["point-addition", "--repetitions", "2"], 2)):
            for fmt in ("csv", "json"):
                out = tmp_path / f"{command[0]}.{fmt}"
                assert run(command + common + ["--format", fmt, "--output", str(out)]) == 0
                metadata = read_results(out, fmt).metadata
                assert set(metadata) == {field.name for field in fields(ExperimentConfig)}
                echoed = {key: str(metadata[key]) for key in
                          ("method", "repetitions", "q", "m", "bandwidth_grid")}
                assert echoed == {"method": "fast", "repetitions": str(repetitions),
                                  "q": "auto", "m": "100",
                                  "bandwidth_grid": "(0.5, 2.0)" if fmt == "csv" else "[0.5, 2.0]"}

    def test_valuation_flags_default_to_the_config(self):
        parser = build_parser()
        settings = ("m", "q", "gamma", "n_value_points", "background_size", "heldout_size",
                    "baseline_draws", "bound_side", "threads", "seed")
        required = ["--data", "d.csv", "--task", "regression", "--output", "o.csv"]
        for command, method in (("value", "fast"), ("bounds", "bounds"), ("baseline", "baseline"),
                                ("point-addition", "fast")):
            args = parser.parse_args([command] + required)
            extra = ("method", "repetitions") if command == "point-addition" else ()
            for name in settings + extra:
                assert getattr(args, name) == getattr(ExperimentConfig, name), (command, name)
            repetitions = ExperimentConfig.repetitions if extra else 1
            assert _experiment_config(args, method) == ExperimentConfig(
                task="regression", method=method, repetitions=repetitions)
        bench = parser.parse_args(["time-bench", "--cells", "10,2", "--output", "o.csv"])
        assert bench.threads == ExperimentConfig.threads

    def test_one_command_parser_parses_like_the_full_parser(self, tmp_path, monkeypatch, capsys):
        valuation = ["--data", "d.csv", "--task", "density", "--m", "50",
                     "--bandwidth-grid", "0.5,2"]
        flags = {"gen": ["--kind", "gaussian-r", "--n", "5"],
                 **dict.fromkeys(("value", "bounds", "baseline"), valuation),
                 "point-addition": valuation + ["--method", "bounds", "--repetitions", "3"],
                 "time-bench": ["--cells", "10,2", "--tasks", "density", "--threads", "2"],
                 "synergy-scan": ["--draws", "7", "--c-den", "0.3"]}
        full = build_parser()
        commands = next(action for action in full._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert set(flags) == set(commands.choices)
        for command, extra in flags.items():
            argv = [command, *extra, "--output", "o.csv", "--seed", "3"]
            one = build_parser(command)
            assert vars(one.parse_args(argv)) == vars(full.parse_args(argv)), command
            assert one.format_usage() == full.format_usage()
        # main builds the invoked command's parser alone, and every parser for help
        built = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: built.append(command) or build_parser(command))
        assert main(["synergy-scan", "--grid", "0.1", "--draws", "5",
                     "--output", str(tmp_path / "syn.csv")]) == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "synergy-scan" in capsys.readouterr().out
        assert built == ["synergy-scan", None]


class TestOtherSubcommands:
    def test_synergy_scan(self, tmp_path):
        out = tmp_path / "syn.csv"
        assert run(["synergy-scan", "--grid", "0.1,0.2", "--draws", "300",
                    "--seed", "2", "--output", str(out)]) == 0
        table = read_results(out)
        assert list(table.columns) == ["bandwidth", "synergy_threshold", "synergy_probability"]
        assert len(table.columns["bandwidth"]) == 2

    def test_point_addition_small(self, tmp_path):
        data = tmp_path / "data.csv"
        run(["gen", "--kind", "gaussian-r", "--n", "600", "--p", "3",
             "--seed", "5", "--output", str(data)])
        out = tmp_path / "curves.csv"
        code = run(["point-addition", "--data", str(data), "--target-column", "y",
                    "--task", "regression", "--m", "100", "--n-value-points", "8",
                    "--background-size", "300", "--heldout-size", "150",
                    "--repetitions", "2", "--seed", "1", "--output", str(out)])
        assert code == 0
        table = read_results(out)
        assert list(table.columns) == ["ordering", "step", "utility_mean", "utility_stderr",
                                       "repetitions"]
        assert len(table.columns["step"]) == 3 * 9  # three orderings, steps 0..8

    def test_time_bench_json(self, tmp_path):
        out = tmp_path / "bench.json"
        code = run(["time-bench", "--cells", "15,2", "--tasks", "regression",
                    "--repetitions", "1", "--baseline-points", "4",
                    "--seed", "0", "--format", "json", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "task"
        assert len(doc["rows"]) == 1


# integer columns of the result tables; the other numeric columns are floats
INT_COLUMNS = {"index", "m", "q", "seed", "step", "repetitions", "n_points", "p",
               "baseline_draws", "baseline_points_timed", "threads"}
TIMING_COLUMNS = {"fast_seconds", "fast_seconds_std", "baseline_seconds",
                  "baseline_seconds_std", "speedup"}
VALUATION = ["--m", "40", "--n-value-points", "6", "--background-size", "150",
             "--heldout-size", "60", "--baseline-draws", "20", "--seed", "4"]
COMMANDS = {
    "gen-r": ["gen", "--kind", "gaussian-r", "--n", "12", "--p", "3", "--seed", "2"],
    "gen-c": ["gen", "--kind", "gaussian-c", "--n", "12", "--seed", "2"],
    "value": ["value", "--data", "{reg}", "--target-column", "y", "--task", "regression"]
    + VALUATION,
    "value-density": ["value", "--data", "{reg}", "--task", "density",
                      "--bandwidth-grid", "0.5,1"] + VALUATION,
    "bounds": ["bounds", "--data", "{clf}", "--target-column", "y",
               "--task", "classification", "--bound-side", "upper"] + VALUATION,
    "baseline": ["baseline", "--data", "{reg}", "--target-column", "y",
                 "--task", "regression"] + VALUATION,
    "point-addition": ["point-addition", "--data", "{reg}", "--target-column", "y",
                       "--task", "regression", "--repetitions", "2"] + VALUATION,
    # one bandwidth with a synergy threshold and one without
    "synergy-scan": ["synergy-scan", "--grid", "0.1,0.3", "--c-den", "5", "--draws", "200",
                     "--seed", "2"],
    "time-bench": ["time-bench", "--cells", "15,2", "--tasks", "regression",
                   "--repetitions", "1", "--baseline-points", "2", "--seed", "0"],
}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    paths = {"reg": root / "r.csv", "clf": root / "c.csv"}
    assert run(["gen", "--kind", "gaussian-r", "--n", "300", "--p", "3",
                "--seed", "1", "--output", str(paths["reg"])]) == 0
    assert run(["gen", "--kind", "gaussian-c", "--n", "300",
                "--seed", "1", "--output", str(paths["clf"])]) == 0
    return paths


class TestWrittenFormat:
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_csv_and_json_cells(self, name, datasets, tmp_path):
        argv = [arg.format(**datasets) for arg in COMMANDS[name]]
        paths = {fmt: tmp_path / f"out.{fmt}" for fmt in ("csv", "json")}
        for fmt, path in paths.items():
            assert run(argv + ["--format", fmt, "--output", str(path)]) == 0

        document = json.loads(paths["json"].read_text())
        jsonschema.validate(document, RESULTS_JSON_SCHEMA)

        lines = [line for line in paths["csv"].read_text().splitlines()
                 if not line.startswith("# ")]
        header, cells = lines[0].split(","), [line.split(",") for line in lines[1:]]
        assert header == document["columns"]
        assert len(cells) == len(document["rows"]) > 0
        for c, column in enumerate(header):
            for text, value in zip((row[c] for row in cells), (row[c] for row in document["rows"])):
                if column in INT_COLUMNS:
                    assert re.fullmatch(r"-?\d+", text), (column, text)
                    assert type(value) is int, (column, value)
                elif isinstance(value, str):
                    assert text == value
                else:  # a float, or null where the float is not finite
                    assert repr(float(text)) == text, (column, text)
                    assert "." in text or "e" in text or text in ("nan", "inf", "-inf"), text
                    assert (value is None) == (not math.isfinite(float(text))), (column, text)
                    assert value is None or type(value) is float, (column, value)
                    if value is not None and column not in TIMING_COLUMNS:
                        assert repr(value) == text, (column, text)

        def read(fmt):
            columns = read_results(paths[fmt], fmt).columns
            return {key: [None if isinstance(v, float) and math.isnan(v) else v for v in values]
                    for key, values in columns.items() if key not in TIMING_COLUMNS}

        assert read("csv") == read("json")


class TestBudgets:
    # Every bounded kernel these commands run cuts its blocks by a numerics budget: the
    # quadrature and the envelope by the cache budget, LSCV, the kernel means and the
    # density chunks by the memory budget. The reader reads its text and the writer writes
    # its rows in cache blocks; at the tiny budgets a 300-row input spans ~70 text blocks and
    # gen's 200 rows of floats ~20 row blocks. Blocks move, bytes must not.
    @pytest.mark.parametrize("name, extra", [
        ("value", []), ("value-density", []), ("bounds", ["--bound-side", "lower"]),
        ("bounds", []), ("baseline", ["--n-value-points", "2"]), ("gen-r", ["--n", "200"])],
        ids=["value-regression", "value-density", "bounds-lower", "bounds-upper", "baseline",
             "gen"])
    def test_output_bytes_do_not_depend_on_the_budgets(self, name, extra, datasets, tmp_path,
                                                      monkeypatch):
        argv = [arg.format(**datasets) for arg in COMMANDS[name]] + extra
        written = []
        for block_floats, cache_floats in ((numerics._BLOCK_FLOATS, numerics._CACHE_FLOATS),
                                           (300, 40)):
            monkeypatch.setattr(numerics, "_BLOCK_FLOATS", block_floats)
            monkeypatch.setattr(numerics, "_CACHE_FLOATS", cache_floats)
            path = tmp_path / f"{block_floats}.csv"
            assert run(argv + ["--output", str(path)]) == 0
            written.append(path.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("command, extra", [
        ("baseline", ["--n-value-points", "2"]),
        ("point-addition", ["--n-value-points", "40", "--method", "bounds", "--repetitions", "2"])])
    def test_accuracy_bytes_do_not_depend_on_the_fits_per_block(self, command, extra, datasets,
                                                               tmp_path, monkeypatch):
        # the accuracy utility cuts its size-sorted fits into blocks of _FITS_PER_BLOCK, each
        # padded to its widest: a fit's bits depend neither on its block-mates nor on the padding
        argv = [command, "--data", str(datasets["clf"]), "--target-column", "y",
                "--task", "classification", "--m", "40", "--background-size", "150",
                "--heldout-size", "60", "--baseline-draws", "20", "--seed", "4"] + extra
        written = []
        for fits in (1, 5, 32):
            monkeypatch.setattr(baseline, "_FITS_PER_BLOCK", fits)
            path = tmp_path / f"{fits}.csv"
            assert run(argv + ["--output", str(path)]) == 0
            written.append(path.read_bytes())
        assert written[0] == written[1] == written[2]
