"""Synthetic dataset generators and delimited-text ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import CsvParseError, InvalidParameterError
from .numerics import RandomStream, check_count, inv_logit, line_blocks

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


def _is_data(line: str) -> bool:
    """Whether a line holds data: a blank line does not, nor does a comment, a line whose
    first non-space character is "#". The rule reads lines, before any quote is read."""
    return line != "\n" and not line.lstrip().startswith("#")


def _records(path, lines):
    """csv.reader over ``lines``, raising its errors (a field longer than
    ``csv.field_size_limit()``, say) as ``CsvParseError``."""
    try:
        yield from csv.reader(lines)
    except csv.Error as exc:
        raise CsvParseError(f"{path}: {exc}") from exc


def _parse_records(path, lines, width, done: int) -> np.ndarray:
    """Values of the data ``lines`` through csv.reader and float(), their rows numbered after
    the ``done`` already parsed. Raises at the first row that has not ``width`` fields (the
    first row's when None), and only then at the first bad cell, by its 1-based location."""
    rows = list(_records(path, lines))
    width = width or len(rows[0])
    for r, row in enumerate(rows, start=done + 1):
        if len(row) != width:
            raise CsvParseError(
                f"{path}: row has {len(row)} fields, expected {width}", row=r, col=len(row))
    values = np.empty((len(rows), width))
    for r, row in enumerate(rows, start=done + 1):
        for c, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError as exc:
                raise CsvParseError(f"{path}: could not parse {cell!r}", row=r, col=c) from exc
            if not math.isfinite(value):
                raise CsvParseError(f"{path}: non-finite value {cell!r}", row=r, col=c)
            values[r - done - 1, c - 1] = value
    return values


def load_csv(path, target_column=None, has_header: bool = True) -> Dataset:
    """Load a numeric delimited file into a dataset.

    ``target_column`` may be a column name (requires a header), a 0-based
    index, or None for features-only data. Non-finite and non-numeric
    entries are rejected with their 1-based (data row, column) location.
    Blank lines and comment lines (first non-space character "#") are dropped; a line may end
    in LF, CR LF or CR. The file is read once: csv.reader reads the header a line at a time,
    then each block of whole lines (``numerics.line_blocks``) goes to one ``np.loadtxt`` call
    while its rows come out finite and of one width. From the first block that does not (a
    quote, a bad cell), csv.reader and ``float()`` parse the rest, holding its rows, and locate
    the first bad row or cell; until then one block of lines is held besides the arrays.
    """
    width, parts, done = None, [], 0
    with open(path) as handle:
        # line by line, so that a quoted name may run over lines wherever blocks would end
        names = next(_records(path, filter(_is_data, handle)), None) if has_header else None
        header = None if names is None else [name.strip() for name in names]
        blocks = (list(filter(_is_data, block)) for block in line_blocks(handle))
        for block in blocks:
            if not block:
                continue
            try:
                # no comment character: "4 # note" is a bad cell, not 4, as is a quoted cell
                values = np.loadtxt(block, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                values = None
            if (values is None or values.shape != (len(block), width or values.shape[1])
                    or not np.isfinite(values).all()):
                rest = chain(block, chain.from_iterable(blocks))
                parts.append(_parse_records(path, rest, width, done))
                break
            width, done = values.shape[1], done + len(block)
            parts.append(values)
    if not parts:
        raise CsvParseError(f"{path} contains a header but no data rows" if header is not None
                            else f"{path} contains no data")
    values = np.concatenate(parts)
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
