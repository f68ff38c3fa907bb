import json

import jsonschema
import numpy as np
import pytest

from distshap import InvalidParameterError, ResultTable, read_results, write_results
from distshap.output import RESULTS_JSON_SCHEMA, VALUES_COLUMNS


def sample_table():
    rows = [
        (0, 0.12345678901234567, 0.001, "fast", 100, 5, 42),
        (1, -1.5e-17, 0.0, "fast", 100, 5, 42),
    ]
    return ResultTable(columns=VALUES_COLUMNS, rows=rows,
                       metadata={"seed": 42, "task": "regression"})


class TestCsv:
    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results(ResultTable(columns=["a", "b"], rows=[]), path)
        lines = path.read_text().splitlines()
        assert lines == ["a,b"]

    def test_round_trip_full_precision(self, tmp_path):
        path = tmp_path / "vals.csv"
        table = sample_table()
        write_results(table, path)
        back = read_results(path)
        assert back.columns == VALUES_COLUMNS
        assert back.rows[0][1] == table.rows[0][1]
        assert back.rows[1][1] == table.rows[1][1]
        assert back.metadata["seed"] == "42"

    def test_metadata_lines_sorted_and_prefixed(self, tmp_path):
        path = tmp_path / "vals.csv"
        write_results(sample_table(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=42"
        assert lines[1] == "# task=regression"

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results(sample_table(), p1)
        write_results(sample_table(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_width_checked(self, tmp_path):
        table = ResultTable(columns=["a", "b"], rows=[(1,)])
        with pytest.raises(InvalidParameterError):
            write_results(table, tmp_path / "x.csv")

    def test_numpy_scalars_written_as_python_numbers(self, tmp_path):
        path = tmp_path / "np.csv"
        write_results(ResultTable(columns=["a", "b", "c"],
                                  rows=[(np.float64(1.5), np.int64(3), np.float64(-2e-300))]), path)
        assert path.read_text().splitlines()[-1] == "1.5,3,-2e-300"
        assert read_results(path).rows == [(1.5, 3, -2e-300)]

    def test_unwritable_path(self):
        with pytest.raises(InvalidParameterError, match="cannot write"):
            write_results(sample_table(), "/nonexistent-dir/x.csv")


class TestJson:
    def test_schema_valid(self, tmp_path):
        path = tmp_path / "vals.json"
        write_results(sample_table(), path, format="json")
        document = json.loads(path.read_text())
        jsonschema.validate(document, RESULTS_JSON_SCHEMA)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "vals.json"
        table = sample_table()
        write_results(table, path, format="json")
        back = read_results(path, format="json")
        assert back.rows[0][1] == table.rows[0][1]
        assert back.metadata["seed"] == 42

    def test_numpy_scalars_written_as_python_numbers(self, tmp_path):
        path = tmp_path / "np.json"
        rows = [(np.float64(1.5), np.int64(3), np.float64("nan"))]
        write_results(ResultTable(columns=["a", "b", "c"], rows=rows), path, format="json")
        document = json.loads(path.read_text())
        jsonschema.validate(document, RESULTS_JSON_SCHEMA)
        assert document["rows"] == [[1.5, 3, None]]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            write_results(sample_table(), tmp_path / "x.yaml", format="yaml")

    def test_gaps_become_null(self, tmp_path):
        table = ResultTable(columns=["a"], rows=[(float("nan"),)])
        path = tmp_path / "g.json"
        write_results(table, path, format="json")
        doc = json.loads(path.read_text())
        assert doc["rows"][0][0] is None
        jsonschema.validate(doc, RESULTS_JSON_SCHEMA)
