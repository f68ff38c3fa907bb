import json

import jsonschema
import numpy as np
import pytest

from distshap import InvalidParameterError, ResultTable, read_results, write_results
from distshap.output import RESULTS_JSON_SCHEMA

VALUES_COLUMNS = ["index", "value", "std_error", "method", "m", "q", "seed"]


def sample_table():
    columns = {"index": np.array([0, 1]), "value": np.array([0.12345678901234567, -1.5e-17]),
               "std_error": np.array([0.001, 0.0]), "method": ["fast"] * 2, "m": [100] * 2,
               "q": [5] * 2, "seed": [42] * 2}
    return ResultTable(columns=columns, metadata={"seed": 42, "task": "regression"})


class TestCsv:
    def test_empty_results_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results(ResultTable(columns={"a": [], "b": np.array([])}), path)
        lines = path.read_text().splitlines()
        assert lines == ["a,b"]
        assert read_results(path).columns == {"a": [], "b": []}

    def test_round_trip_full_precision(self, tmp_path):
        path = tmp_path / "vals.csv"
        table = sample_table()
        write_results(table, path)
        back = read_results(path)
        assert list(back.columns) == VALUES_COLUMNS
        assert back.columns["value"][0] == table.columns["value"][0]
        assert back.columns["value"][1] == table.columns["value"][1]
        assert back.metadata["seed"] == "42"

    def test_rows_joined_from_columns(self, tmp_path):
        path = tmp_path / "vals.csv"
        write_results(sample_table(), path)
        assert path.read_text().splitlines()[2:] == [
            "index,value,std_error,method,m,q,seed",
            "0,0.12345678901234566,0.001,fast,100,5,42",
            "1,-1.5e-17,0.0,fast,100,5,42"]

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

    def test_unequal_column_lengths_rejected(self, tmp_path):
        for columns in ({"a": [1, 2], "b": [1]}, {"a": np.zeros(3), "b": [1.0, 2.0]}):
            with pytest.raises(InvalidParameterError, match="unequal length"):
                write_results(ResultTable(columns=columns), tmp_path / "x.csv")
            assert not (tmp_path / "x.csv").exists()

    def test_numpy_scalars_written_as_python_numbers(self, tmp_path):
        path = tmp_path / "np.csv"
        write_results(ResultTable(columns={"a": np.array([1.5]), "b": np.array([3]),
                                           "c": np.array([-2e-300])}), path)
        assert path.read_text().splitlines()[-1] == "1.5,3,-2e-300"
        back = read_results(path).columns
        assert back == {"a": [1.5], "b": [3], "c": [-2e-300]}
        assert [type(v[0]) for v in back.values()] == [float, int, float]

    def test_none_written_empty(self, tmp_path):
        path = tmp_path / "none.csv"
        write_results(ResultTable(columns={"a": [1, None], "b": ["x", "y"]}), path)
        assert path.read_text().splitlines() == ["a,b", "1,x", ",y"]
        assert read_results(path).columns == {"a": [1, None], "b": ["x", "y"]}

    def test_one_column_none_round_trips(self, tmp_path):
        # a one-column row of None is an empty line, which is a cell after the header
        path = tmp_path / "one.csv"
        write_results(ResultTable(columns={"a": [1, None, 3]}, metadata={"k": 1}), path)
        assert path.read_text() == "# k=1\na\n1\n\n3\n"
        assert read_results(path).columns == {"a": [1, None, 3]}
        path.write_text("\n# k=1\n\na\n1\n\n3\n")  # blank lines before the header are skipped
        assert read_results(path).columns == {"a": [1, None, 3]}

    def test_unwritable_path(self):
        with pytest.raises(InvalidParameterError, match="cannot write"):
            write_results(sample_table(), "/nonexistent-dir/x.csv")

    def test_ragged_data_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        for body, row in (("1,2\n3\n", 2), ("1,2,3\n", 1), ("1,2\n3,4\n5,6,7\n", 3),
                          ("1,2\n\n3,4\n", 2)):
            path.write_text("# seed=1\na,b\n" + body)
            with pytest.raises(InvalidParameterError, match=f"data row {row} has"):
                read_results(path)


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
        assert back.columns["value"][0] == table.columns["value"][0]
        assert back.metadata["seed"] == 42

    def test_numpy_scalars_written_as_python_numbers(self, tmp_path):
        path = tmp_path / "np.json"
        columns = {"a": np.array([1.5]), "b": np.array([3]), "c": np.array([np.nan])}
        write_results(ResultTable(columns=columns), path, format="json")
        document = json.loads(path.read_text())
        jsonschema.validate(document, RESULTS_JSON_SCHEMA)
        assert document["rows"] == [[1.5, 3, None]]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            write_results(sample_table(), tmp_path / "x.yaml", format="yaml")

    def test_gaps_become_null(self, tmp_path):
        table = ResultTable(columns={"a": [float("nan"), float("inf"), 1.0],
                                     "b": np.array([1.0, -np.inf, np.nan])})
        path = tmp_path / "g.json"
        write_results(table, path, format="json")
        doc = json.loads(path.read_text())
        assert doc["rows"] == [[None, 1.0], [None, None], [1.0, None]]
        jsonschema.validate(doc, RESULTS_JSON_SCHEMA)
