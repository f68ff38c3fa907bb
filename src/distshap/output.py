"""Deterministic result tables and their CSV / JSON serialization.

A table is named columns: the numpy arrays a valuation returns, as they
are, and lists for string and constant columns. The CSV writer turns each
column's slice of a block of rows into Python values and joins the rows from
them, one block at a time. Given identical inputs the emitted bytes are
identical: floats are written with shortest round-trip precision, metadata
keys are sorted, and no timestamps are recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .numerics import blocks

__all__ = ["ResultTable", "write_results", "read_results", "RESULTS_JSON_SCHEMA"]

RESULTS_JSON_SCHEMA = {
    "type": "object",
    "required": ["metadata", "columns", "rows"],
    "additionalProperties": False,
    "properties": {
        "metadata": {"type": "object"},
        "columns": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "rows": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": ["number", "string", "null"]},
            },
        },
    },
}


@dataclass
class ResultTable:
    """An ordered mapping from column name to an equal-length column, with
    free-form metadata. A column is a numpy array or a list of Python
    numbers, strings and None."""

    columns: dict
    metadata: dict = field(default_factory=dict)


def _python_values(column):
    """A column's entries as Python numbers, strings and None."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _csv_blocks(table: ResultTable, columns: list):
    """The CSV text: the metadata and header lines, then the rows of each block of
    ``numerics.blocks`` at the cache budget, each column's slice turned into Python values
    only when its block is written."""
    yield "".join(f"# {key}={table.metadata[key]}\n" for key in sorted(table.metadata))
    yield ",".join(table.columns) + "\n"
    for rows in blocks(len(columns[0]) if columns else 0, len(columns), cache=True):
        # str of a float is its shortest round-trip repr
        texts = [("" if v is None else str(v) for v in _python_values(column[rows]))
                 for column in columns]
        yield "\n".join(map(",".join, zip(*texts))) + "\n"


def _json_payload(table: ResultTable, columns: list) -> str:
    """The whole JSON document, built at once: no workload writes JSON."""
    # strict JSON has no NaN/infinity tokens
    finite = [(None if isinstance(v, float) and not math.isfinite(v) else v
               for v in _python_values(column)) for column in columns]
    document = {
        "metadata": {k: table.metadata[k] for k in sorted(table.metadata)},
        "columns": list(table.columns),
        "rows": [list(row) for row in zip(*finite)],
    }
    return json.dumps(document, sort_keys=True, indent=1, allow_nan=False) + "\n"


def write_results(table: ResultTable, path, format: str = "csv") -> None:
    """Serialize a result table; metadata rides along as comment lines or a JSON object.

    A CSV is formatted and written a block of rows at a time, so it holds one block's
    strings whatever the row count; a JSON document is built whole before the file opens.
    """
    if format not in ("csv", "json"):
        raise InvalidParameterError(f"unknown output format {format!r}")
    columns = list(table.columns.values())
    if len({len(column) for column in columns}) > 1:
        raise InvalidParameterError("columns of unequal length")
    try:
        chunks = _csv_blocks(table, columns) if format == "csv" else [_json_payload(table, columns)]
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write results to {path}: {exc}") from exc


def _parse_cell(cell: str):
    if cell == "":
        return None
    try:
        return float(cell) if ("." in cell or "e" in cell or "inf" in cell or "nan" in cell) else int(cell)
    except ValueError:
        return cell


def read_results(path, format: str = "csv") -> ResultTable:
    """Parse a table written by :func:`write_results`."""
    if format == "json":
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        names, rows, metadata = doc["columns"], doc["rows"], doc["metadata"]
    else:
        names, rows, metadata = None, [], {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line and names is None:  # after the header, an empty line is one empty cell
                    continue
                if line.startswith("# "):
                    key, _, value = line[2:].partition("=")
                    metadata[key] = value
                elif names is None:
                    names = line.split(",")
                else:
                    rows.append([_parse_cell(c) for c in line.split(",")])
        if names is None:
            raise InvalidParameterError(f"{path} has no header row")
    for r, row in enumerate(rows, start=1):
        if len(row) != len(names):
            raise InvalidParameterError(
                f"{path}: data row {r} has {len(row)} cells, expected {len(names)}")
    columns = zip(*rows) if rows else [()] * len(names)
    return ResultTable(columns=dict(zip(names, map(list, columns))), metadata=metadata)
