import json
from dataclasses import fields

import pytest

from distshap.cli import _experiment_config, build_parser, main
from distshap.experiments import ExperimentConfig
from distshap.output import read_results


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
        assert table.columns == ["index", "value", "std_error", "method", "m", "q", "seed"]
        assert len(table.rows) == 10
        assert table.metadata["task"] == "regression"

    def test_gen_classification(self, tmp_path):
        data = tmp_path / "c.csv"
        assert run(["gen", "--kind", "gaussian-c", "--n", "50",
                    "--seed", "1", "--output", str(data)]) == 0
        lines = data.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "x0,x1,x2,y"


class TestErrors:
    def test_missing_file_single_line(self, tmp_path, capsys):
        code = run(["value", "--data", str(tmp_path / "nope.csv"),
                    "--target-column", "y", "--task", "regression",
                    "--output", str(tmp_path / "o.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

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
        assert len(table.rows) == 4  # flag wins
        assert table.metadata["m"] == "100"  # file value applied

        # a flag equal to its default still wins over the file
        cfg.write_text(json.dumps({"m": 500, "seed": 7, "n_value_points": 3,
                                   "background_size": 500, "heldout_size": 200}))
        code = run(["value", "--data", str(data), "--target-column", "y",
                    "--task", "regression", "--config", str(cfg),
                    "--m", "1000", "--seed", "0", "--output", str(out)])
        assert code == 0
        table = read_results(out)
        assert len(table.rows) == 3
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
        assert len(read_results(out).rows) == 5

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


class TestOtherSubcommands:
    def test_synergy_scan(self, tmp_path):
        out = tmp_path / "syn.csv"
        assert run(["synergy-scan", "--grid", "0.1,0.2", "--draws", "300",
                    "--seed", "2", "--output", str(out)]) == 0
        table = read_results(out)
        assert table.columns == ["bandwidth", "synergy_threshold", "synergy_probability"]
        assert len(table.rows) == 2

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
        assert table.columns == ["ordering", "step", "utility_mean", "utility_stderr",
                                 "repetitions"]
        assert len(table.rows) == 3 * 9  # three orderings, steps 0..8

    def test_time_bench_json(self, tmp_path):
        out = tmp_path / "bench.json"
        code = run(["time-bench", "--cells", "15,2", "--tasks", "regression",
                    "--repetitions", "1", "--baseline-points", "4",
                    "--seed", "0", "--format", "json", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "task"
        assert len(doc["rows"]) == 1
