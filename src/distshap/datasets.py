"""Synthetic dataset generators and delimited-text ingestion."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, InvalidParameterError
from .numerics import RandomStream, check_count, inv_logit, text_blocks

__all__ = [
    "Dataset",
    "gen_gaussian_r",
    "gen_gaussian_c",
    "gen_mixture_c",
    "load_csv",
]


@dataclass
class Dataset:
    """Feature matrix with an optional target and generating parameters."""

    x: np.ndarray
    y: np.ndarray | None = None
    beta_true: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def gen_gaussian_r(m: int, p: int, rng: RandomStream) -> Dataset:
    """Regression data with standard normal inputs and unit noise.

    Coefficients are drawn once per dataset from a standard normal and
    recorded so analytic utilities can use the truth.
    """
    check_count(m, 1, "m")
    check_count(p, 1, "p")
    gen = rng.generator
    beta = gen.standard_normal(p)
    x = gen.standard_normal((m, p))
    y = x @ beta + gen.standard_normal(m)
    return Dataset(x=x, y=y, beta_true=beta)


def gen_gaussian_c(m: int, rng: RandomStream) -> Dataset:
    """Binary labels from a logistic model on three standard normal inputs."""
    check_count(m, 1, "m")
    gen = rng.generator
    beta = np.array([2.0, 0.0, 0.0])
    x = gen.standard_normal((m, 3))
    y = (gen.uniform(size=m) < inv_logit(x @ beta)).astype(float)
    return Dataset(x=x, y=y, beta_true=beta)


def gen_mixture_c(m: int, p: int, rng: RandomStream) -> Dataset:
    """Balanced two-class Gaussian mixture with a mean shift on the first coordinate.

    Used by the timing benchmark, where the classification dimension varies.
    """
    check_count(m, 1, "m")
    check_count(p, 1, "p")
    gen = rng.generator
    y = (gen.uniform(size=m) < 0.5).astype(float)
    x = gen.standard_normal((m, p))
    x[:, 0] += 2.0 * y
    return Dataset(x=x, y=y)


def _parse_cells(path, rows) -> np.ndarray:
    """Parse every cell with float(); raise for the first bad one at its 1-based location."""
    values = np.empty((len(rows), len(rows[0])))
    for r, row in enumerate(rows, start=1):
        for c, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError as exc:
                raise CsvParseError(f"{path}: could not parse {cell!r}", row=r, col=c) from exc
            if not math.isfinite(value):
                raise CsvParseError(f"{path}: non-finite value {cell!r}", row=r, col=c)
            values[r - 1, c - 1] = value
    return values


def _parse_text(blocks, has_header: bool):
    """(header, values) of quote-free text parsed in C a block of whole lines at a time, or
    None when the cell-by-cell path must parse the whole file (to locate a bad cell, among
    others).

    Without quotes, csv.reader ends a record at CR LF, CR or LF and splits it at every
    comma; this splits the same way, so a CR LF pair cut between two blocks leaves a blank
    line, which drops. Each block's kept lines go to one ``np.loadtxt`` call, and the result
    is kept only when every kept line gives one row of finite values, as many as the first
    row has. Besides the parsed blocks and their concatenation it holds one block of text.
    """
    header, width, parts = None, None, []
    for text in blocks:
        if '"' in text:
            return None
        lines = [line for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
                 if line and not line.lstrip().startswith("#")]
        if has_header and header is None and lines:
            header = [name.strip() for name in lines.pop(0).split(",")]
        if not lines:
            continue
        if width is None:
            width = lines[0].count(",") + 1
        try:
            # no comment character: "4 # note" is a bad cell, not 4
            values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
        if values.shape != (len(lines), width) or not np.isfinite(values).all():
            return None
        parts.append(values)
    return (header, np.concatenate(parts)) if parts else None


def _parse_records(path, text: str, has_header: bool):
    """(header, values) of the whole file's ``text`` through csv.reader; raises at the first
    bad row or cell. Quoted files and files with a bad cell come here, whole: a quoted
    record may span lines, and a bad cell's row counts every kept line before it."""
    rows = [row for row in csv.reader(io.StringIO(text, newline=""))
            if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise CsvParseError(f"{path} contains no data")

    header = None
    if has_header:
        header = [name.strip() for name in rows[0]]
        rows = rows[1:]
        if not rows:
            raise CsvParseError(f"{path} contains a header but no data rows")

    width = len(rows[0])
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise CsvParseError(
                f"{path}: row has {len(row)} fields, expected {width}", row=r, col=len(row))
    return header, _parse_cells(path, rows)


def load_csv(path, target_column=None, has_header: bool = True) -> Dataset:
    """Load a numeric delimited file into a dataset.

    ``target_column`` may be a column name (requires a header), a 0-based
    index, or None for features-only data. Non-finite and non-numeric
    entries are rejected with their 1-based (data row, column) location.
    Lines whose first cell starts with "#" are comments. The file is parsed
    in C where it can be, read in blocks of whole lines (``numerics.text_blocks``), so
    that besides the array and its parsed blocks only one block of text is held. A file
    with a quote, or one that the C parser rejects, is read again whole and parsed cell by
    cell with ``float()``, which locates the first bad cell.
    """
    with open(path, newline="") as handle:
        parsed = _parse_text(text_blocks(handle), has_header)
        if parsed is None:
            handle.seek(0)
            parsed = _parse_records(path, handle.read(), has_header)
    header, values = parsed
    width = values.shape[1]
    if header is not None and len(header) != width:
        raise CsvParseError(f"{path}: header has {len(header)} fields, rows have {width}")

    if target_column is None:
        return Dataset(x=values, y=None)

    if isinstance(target_column, str):
        if header is None:
            raise InvalidParameterError("a named target column requires a header row")
        try:
            target_idx = header.index(target_column)
        except ValueError:
            raise InvalidParameterError(
                f"target column {target_column!r} not found; header has {header}") from None
    else:
        target_idx = int(target_column)
        if not -width <= target_idx < width:
            raise InvalidParameterError(
                f"target index {target_idx} outside the {width} columns")
        target_idx %= width

    if width == 1:
        raise InvalidParameterError(f"{path}: the target column leaves no feature column")
    y = values[:, target_idx]
    x = np.delete(values, target_idx, axis=1)
    return Dataset(x=x, y=y)
