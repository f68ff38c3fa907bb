"""Deterministic result tables and their CSV / JSON serialization.

Given identical inputs the emitted bytes are identical: floats are written
with shortest round-trip precision, metadata keys are sorted, and no
timestamps are recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

__all__ = ["ResultTable", "write_results", "read_results", "RESULTS_JSON_SCHEMA"]

VALUES_COLUMNS = ["index", "value", "std_error", "method", "m", "q", "seed"]
CURVE_COLUMNS = ["ordering", "step", "utility_mean", "utility_stderr", "repetitions"]

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
    """A plain columns-and-rows table with free-form metadata."""

    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 too: its repr is "np.float64(...)"
        return float.__repr__(value)
    return str(value)


def write_results(table: ResultTable, path, format: str = "csv") -> None:
    """Serialize a result table; metadata rides along as comment lines or a JSON object."""
    if format not in ("csv", "json"):
        raise InvalidParameterError(f"unknown output format {format!r}")
    try:
        if format == "csv":
            lines = [f"# {key}={table.metadata[key]}" for key in sorted(table.metadata)]
            lines.append(",".join(table.columns))
            for row in table.rows:
                if len(row) != len(table.columns):
                    raise InvalidParameterError("row width does not match the columns")
                lines.append(",".join(_format_cell(v) for v in row))
            payload = "\n".join(lines) + "\n"
        else:
            def cell(v):
                if isinstance(v, np.generic):  # json writes no numpy scalar
                    v = v.item()
                # strict JSON has no NaN/infinity tokens
                if isinstance(v, float) and not math.isfinite(v):
                    return None
                return v

            document = {
                "metadata": {k: table.metadata[k] for k in sorted(table.metadata)},
                "columns": list(table.columns),
                "rows": [[cell(v) for v in row] for row in table.rows],
            }
            payload = json.dumps(document, sort_keys=True, indent=1, allow_nan=False) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
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
        return ResultTable(columns=doc["columns"], rows=[tuple(r) for r in doc["rows"]],
                           metadata=doc["metadata"])
    metadata = {}
    rows = []
    columns = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                metadata[key] = value
                continue
            cells = line.split(",")
            if columns is None:
                columns = cells
            else:
                rows.append(tuple(_parse_cell(c) for c in cells))
    if columns is None:
        raise InvalidParameterError(f"{path} has no header row")
    return ResultTable(columns=columns, rows=rows, metadata=metadata)
