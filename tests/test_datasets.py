import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distshap import datasets, numerics
from distshap import (
    CsvParseError,
    InvalidParameterError,
    RandomStream,
    gen_gaussian_c,
    gen_gaussian_r,
    gen_mixture_c,
    load_csv,
)


class TestGaussianRegression:
    def test_fixed_seed_identical(self):
        a = gen_gaussian_r(100, 3, RandomStream(5))
        b = gen_gaussian_r(100, 3, RandomStream(5))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(a.beta_true, b.beta_true)

    def test_population_correlation_1d(self):
        data = gen_gaussian_r(10**5, 1, RandomStream(7))
        beta = float(data.beta_true[0])
        expected = beta * beta / np.sqrt(beta * beta * (beta * beta + 1.0))
        got = np.corrcoef(data.x.ravel() * beta, data.y)[0, 1]
        assert abs(got - expected) < 0.02

    def test_residual_variance(self):
        data = gen_gaussian_r(10**5, 4, RandomStream(8))
        resid = data.y - data.x @ data.beta_true
        assert abs(resid.var() - 1.0) < 0.03


class TestGaussianClassification:
    def test_class_balance(self):
        data = gen_gaussian_c(10**5, RandomStream(9))
        assert abs(data.y.mean() - 0.5) < 0.01

    def test_balanced_at_boundary(self):
        data = gen_gaussian_c(10**5, RandomStream(10))
        band = np.abs(data.x[:, 0]) < 0.05
        assert abs(data.y[band].mean() - 0.5) < 0.03

    def test_mixture_generator_shapes(self):
        data = gen_mixture_c(500, 7, RandomStream(11))
        assert data.x.shape == (500, 7)
        assert set(np.unique(data.y)) <= {0.0, 1.0}
        gap = data.x[data.y == 1, 0].mean() - data.x[data.y == 0, 0].mean()
        assert abs(gap - 2.0) < 0.3


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,target\n1.0,2.0,3.0\n4.5,5.5,6.5\n-1.0,0.25,9.0\n")
        data = load_csv(path, target_column="target")
        assert np.array_equal(data.x, [[1.0, 2.0], [4.5, 5.5], [-1.0, 0.25]])
        assert np.array_equal(data.y, [3.0, 6.5, 9.0])

    def test_target_by_index(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n", )
        data = load_csv(path, target_column=0, has_header=False)
        assert np.array_equal(data.y, [1.0, 3.0])
        assert np.array_equal(data.x, [[2.0], [4.0]])

    def test_nan_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        late = "a,b\n" + "1.0,2.0\n" * 40 + "3.0,inf\n5.0,6.0\n"
        for text, row, col in (("a,b\n1.0,2.0\nNaN,4.0\n", 2, 1), (late, 41, 2)):
            path.write_text(text)
            with pytest.raises(CsvParseError) as excinfo:
                load_csv(path, target_column="b")
            assert excinfo.value.row == row and excinfo.value.col == col

    def test_unparseable_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        late = "a,b\n" + "1.0,2.0\n" * 40 + "3.0,4.0\n1..5,6.0\n"
        for text, row, col in (("a,b\n1.0,oops\n", 1, 2), (late, 42, 1)):
            path.write_text(text)
            with pytest.raises(CsvParseError) as excinfo:
                load_csv(path, target_column="a")
            assert excinfo.value.row == row and excinfo.value.col == col

    def test_cells_numpy_rejects_fall_back_to_float(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1.5,2\n3,4e-1\n")
        expected = load_csv(path, target_column="b")
        real_array = np.array

        def rejecting_array(obj, *args, **kwargs):
            if isinstance(obj, list) and obj and isinstance(obj[0], list):
                raise ValueError("rejected")
            return real_array(obj, *args, **kwargs)

        def rejecting_loadtxt(*args, **kwargs):
            raise ValueError("rejected")

        # both numpy parsers reject, so each cell goes through float()
        monkeypatch.setattr(np, "array", rejecting_array)
        monkeypatch.setattr(np, "loadtxt", rejecting_loadtxt)
        loaded = load_csv(path, target_column="b")
        assert np.array_equal(loaded.x, expected.x) and np.array_equal(loaded.y, expected.y)

    def test_features_only(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("x0,x1\n1.0,2.0\n3.0,4.0\n")
        data = load_csv(path)
        assert data.y is None
        assert data.x.shape == (2, 2)

    def test_target_leaving_no_feature_rejected(self, tmp_path):
        # a design of zero columns valued every point alike
        path = tmp_path / "y.csv"
        path.write_text("y\n1.0\n2.0\n")
        with pytest.raises(InvalidParameterError, match="leaves no feature column"):
            load_csv(path, target_column="y")
        assert load_csv(path).x.shape == (2, 1)  # without a target the column is a feature

    def test_missing_target(self, tmp_path):
        path = tmp_path / "data.csv"
        for text, target, has_header, message in (
                ("a,b\n1.0,2.0\n", "nope", True, "not found"),
                ("1.0,2.0\n", "a", False, "^a named target column requires a header row$"),
                ("a,b\n1.0,2.0\n", 2, True, "^target index 2 outside the 2 columns$"),
                ("a,b\n1.0,2.0\n", -3, True, "^target index -3 outside the 2 columns$")):
            path.write_text(text)
            with pytest.raises(InvalidParameterError, match=message):
                load_csv(path, target_column=target, has_header=has_header)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "data.csv"
        # as are a file of comments and blank lines, a header with no rows, and a field
        # longer than csv.field_size_limit(), in a row or in the header
        long = "x" * (csv.field_size_limit() + 1)
        for text, message in (("a,b\n1.0,2.0\n3.0\n", "row has 1 fields, expected 2"),
                              ("# seed=1\n\n  # note\n\n", "contains no data$"),
                              ("# seed=1\na,b\n\n", "contains a header but no data rows$"),
                              (f"a,b\n1.0,2.0\n{long},1\n", "field larger than field limit"),
                              (f"a,{long}\n1.0,2.0\n", "field larger than field limit")):
            path.write_text(text)
            with pytest.raises(CsvParseError, match=message):
                load_csv(path, target_column="a")

    def test_header_width_must_match_rows(self, tmp_path):
        # unquoted text is parsed in C, quoted text by csv.reader: both check the header
        path = tmp_path / "data.csv"
        rows = "1.0,2.0,3.0,4.0\n5.0,6.0,7.0,8.0\n"
        for names, width in ((["a", "b", "y"], 3), (["a", "b", "c", "d", "y"], 5)):
            for header in (",".join(names), ",".join(f'"{name}"' for name in names)):
                path.write_text(header + "\n" + rows)
                with pytest.raises(CsvParseError,
                                   match=f"header has {width} fields, rows have 4"):
                    load_csv(path, target_column="y")

    def test_quoted_cells(self, tmp_path):
        # a quoted header name or numeric cell reads as its unquoted text; a
        # quoted comma stays inside its cell, which then fails to parse there
        path = tmp_path / "quoted.csv"
        path.write_text('"a","b c","y"\n"1.5",2,"-3e-1"\n4," 5.25 ",6\n')
        data = load_csv(path, target_column="y")
        assert np.array_equal(data.x, [[1.5, 2.0], [4.0, 5.25]])
        assert np.array_equal(data.y, [-0.3, 6.0])
        assert np.array_equal(load_csv(path, target_column="b c").y, [2.0, 5.25])
        path.write_text('"a","b"\n0,1\n"1,5",2\n')
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path, target_column="b")
        assert (excinfo.value.row, excinfo.value.col) == (2, 1)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# seed=3\na,b\n1.0,2.0\n")
        data = load_csv(path, target_column="b")
        assert data.x.shape == (1, 1)
        # a line is a comment when its first cell starts with "#" after
        # leading whitespace; blank lines are dropped, and neither counts as a row
        path.write_text("# seed=3\n  # m=10,x\na,b\n\n1.0,2.0\n#,9\n3.0,4.0\n\n")
        data = load_csv(path, target_column="b")
        assert np.array_equal(data.x, [[1.0], [3.0]]) and np.array_equal(data.y, [2.0, 4.0])
        path.write_text("a,b\n1.0,2.0\n#,9\n3.0,oops\n")
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path, target_column="b")
        assert (excinfo.value.row, excinfo.value.col) == (2, 2)

    def test_inline_hash_is_a_bad_cell(self, tmp_path):
        # "#" only marks a comment as the first character of a line's first cell
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4 # note\n")
        with pytest.raises(CsvParseError) as excinfo:
            load_csv(path, target_column="b")
        assert (excinfo.value.row, excinfo.value.col) == (2, 2)

    def test_whitespace_row_is_ragged(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1.0,2.0\n   \n3.0,4.0\n")
        with pytest.raises(CsvParseError, match="row has 1 fields, expected 2") as excinfo:
            load_csv(path, target_column="b")
        assert (excinfo.value.row, excinfo.value.col) == (2, 1)

    def test_cells_parse_as_float_does(self, tmp_path):
        # float() accepts underscores, surrounding whitespace and non-ASCII digits
        path = tmp_path / "data.csv"
        path.write_text('a,b,c\n1_000,"2.5", 7 \n-0.5,\u0661\u0662,1e-3\n', encoding="utf-8")
        data = load_csv(path)
        assert np.array_equal(data.x, [[1000.0, 2.5, 7.0], [-0.5, 12.0, 0.001]])

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    @pytest.mark.parametrize("header", ["a,b", '"a","b"'])
    def test_line_endings(self, tmp_path, newline, header):
        # a quoted header sends the file through csv.reader
        path = tmp_path / "data.csv"
        path.write_bytes(newline.join(["# c", header, "1.0,2.0", "", "3.0,4.0", ""]).encode())
        data = load_csv(path, target_column="b")
        assert np.array_equal(data.x, [[1.0], [3.0]]) and np.array_equal(data.y, [2.0, 4.0])

    def test_fast_parse_matches_cell_parse(self, tmp_path, monkeypatch):
        # shortest round-trip floats, as the benchmark writes them; the same
        # bytes whether numpy parses the text or each cell goes through float()
        gen = RandomStream(12).generator
        scales = 10.0 ** gen.integers(-300, 300, (300, 4))
        table = np.column_stack([gen.standard_normal((300, 4)) * scales, gen.integers(0, 2, 300)])
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,x2,x3,y\n" + "\n".join(",".join(map(repr, row)) for row in table.tolist()) + "\n")
        calls = []
        real_loadtxt = np.loadtxt

        def counting_loadtxt(*args, **kwargs):
            calls.append(1)
            return real_loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        fast = load_csv(path, target_column="y")

        def rejecting_loadtxt(*args, **kwargs):
            raise ValueError("rejected")

        monkeypatch.setattr(np, "loadtxt", rejecting_loadtxt)
        slow = load_csv(path, target_column="y")
        assert calls == [1]
        assert fast.x.tobytes() == slow.x.tobytes() == table[:, :4].tobytes()
        assert fast.y.tobytes() == slow.y.tobytes() == table[:, 4].tobytes()


# cache budgets of 8- to 40-character line hints, at which a 30-row file spans 10 to 31 blocks
SEAM_BUDGETS = (1, 2, 3, 5)
ROWS = [f"{i}.5,{i * i}.25,{-i}" for i in range(30)]
EXPECTED = np.array([[i + 0.5, i * i + 0.25, -i] for i in range(30)])


def _load_at_budgets(path, monkeypatch, target_column="y", has_header=True):
    """load_csv's outcome at the default cache budget and at each of ``SEAM_BUDGETS``: the
    array bits, or the error's message and location, and whether the file went to csv.reader.
    Every budget must give the default's outcome, which is returned."""
    fallbacks = []
    real_parse_records = datasets._parse_records

    def recording_parse_records(*args):
        fallbacks.append(cache)
        return real_parse_records(*args)

    monkeypatch.setattr(datasets, "_parse_records", recording_parse_records)
    outcomes = []
    for cache in (numerics._CACHE_FLOATS,) + SEAM_BUDGETS:
        monkeypatch.setattr(numerics, "_CACHE_FLOATS", cache)
        try:
            data = load_csv(path, target_column=target_column, has_header=has_header)
        except CsvParseError as exc:
            outcome = (str(exc), exc.row, exc.col)
        else:
            outcome = (data.x.shape, data.x.tobytes(), None if data.y is None else data.y.tobytes())
        outcomes.append((outcome, cache in fallbacks))
    assert outcomes[1:] == outcomes[:1] * len(SEAM_BUDGETS)
    return outcomes[0]


def _parsed(values):
    return (values[:, :2].shape, values[:, :2].tobytes(), values[:, 2].tobytes())


class TestLoadCsvBlockSeams:
    def test_crlf_pair_cut_at_a_seam(self, tmp_path, monkeypatch):
        text = "\r\n".join(["# c", "a,b,y"] + ROWS) + "\r\n"
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert _load_at_budgets(path, monkeypatch) == (_parsed(EXPECTED), False)

    @pytest.mark.parametrize("endings", [("\r",), ("\n", "\r\n", "\r")], ids=["cr", "mixed"])
    def test_cr_only_and_mixed_line_endings(self, tmp_path, endings, monkeypatch):
        lines = ["a,b,y"] + ROWS
        text = "".join(line + endings[i % len(endings)] for i, line in enumerate(lines))
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert _load_at_budgets(path, monkeypatch) == (_parsed(EXPECTED), False)

    def test_no_final_newline(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n" + "\n".join(ROWS))
        assert _load_at_budgets(path, monkeypatch) == (_parsed(EXPECTED), False)

    def test_blank_and_comment_lines_in_a_later_block(self, tmp_path, monkeypatch):
        lines = ["a,b,y"] + ROWS[:20] + ["", "  # note,1", "#", "", ""] + ROWS[20:]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        assert _load_at_budgets(path, monkeypatch) == (_parsed(EXPECTED), False)

    def test_quote_only_in_the_last_block(self, tmp_path, monkeypatch):
        # the block with the quote and the rest go to csv.reader, which unquotes the cell;
        # the earlier blocks stay parsed in C
        text = "a,b,y\n" + "\n".join(ROWS[:29]) + '\n"29.5",841.25,-29\n'
        path = tmp_path / "data.csv"
        path.write_text(text)
        real_parse_records = datasets._parse_records
        for cache in SEAM_BUDGETS:
            monkeypatch.setattr(numerics, "_CACHE_FLOATS", cache)
            handle = io.StringIO(text, newline=None)
            handle.readline()  # the header, which csv.reader reads before the blocks
            last = list(numerics.line_blocks(handle))[-1]
            assert '"' in "".join(last) and '"' not in text[:-len("".join(last))]
            given_lines = []

            def recording_parse_records(path, lines, *rest):
                given_lines.extend(lines)
                return real_parse_records(path, given_lines, *rest)

            with monkeypatch.context() as patch:
                patch.setattr(datasets, "_parse_records", recording_parse_records)
                load_csv(path, target_column="y")
            assert given_lines == last
        assert _load_at_budgets(path, monkeypatch) == (_parsed(EXPECTED), True)
        path.write_text(text.replace('"29.5"', '"29,5"'))
        assert _load_at_budgets(path, monkeypatch) == (
            (f"{path}: could not parse '29,5' at row 30, column 1", 30, 1), True)

    def test_quoted_header_name_over_lines(self, tmp_path, monkeypatch):
        # csv.reader reads the header a line at a time, so a block's end does not cut it,
        # and its quotes send no data row to csv.reader
        path = tmp_path / "data.csv"
        path.write_text('# c\n"a name\nover lines",b,y\n' + "\n".join(ROWS) + "\n")
        assert _load_at_budgets(path, monkeypatch) == (_parsed(EXPECTED), False)
        assert load_csv(path, target_column="a name\nover lines").y.tolist() == EXPECTED[:, 0].tolist()

    def test_quotes_in_comment_lines_are_comments(self, tmp_path, monkeypatch):
        # a comment is a line, so its quotes open no field and the file stays in C
        path = tmp_path / "data.csv"
        path.write_text('a,y\n1,2\n# note,"quoted\n3,4\n5,6\n# end"\n7,8\n')
        expected = (
            ((4, 1), np.array([[1.0], [3.0], [5.0], [7.0]]).tobytes(), np.array([2.0, 4.0, 6.0, 8.0]).tobytes()),
            False)
        assert _load_at_budgets(path, monkeypatch) == expected

    def test_quoted_hash_is_data(self, tmp_path, monkeypatch):
        # the comment rule reads the line, not the cell: a quoted "#q" is a data cell
        path = tmp_path / "data.csv"
        path.write_text('a,y\n1,2\n"#q",4\n')
        assert _load_at_budgets(path, monkeypatch) == (
            (f"{path}: could not parse '#q' at row 2, column 1", 2, 1), True)

    @pytest.mark.parametrize("row, message, col", [
        ("24.5,oops,-24", "could not parse 'oops'", 2),
        ("24.5,576.25,inf", "non-finite value 'inf'", 3),
        ("24.5,nan,-24", "non-finite value 'nan'", 2),
        ("24.5,576.25", "row has 2 fields, expected 3", 2),
    ], ids=["bad-cell", "inf", "nan", "short-row"])
    def test_a_bad_row_in_a_later_block_keeps_its_location(self, tmp_path, monkeypatch,
                                                           row, message, col):
        # comment and blank lines in earlier blocks do not count as rows
        lines = ["# seed=3", "a,b,y"] + ROWS[:10] + ["", "# x"] + ROWS[10:24] + [row] + ROWS[25:]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        assert _load_at_budgets(path, monkeypatch) == (
            (f"{path}: {message} at row 25, column {col}", 25, col), True)


# cells of the digits, ".", "e", "-", "_", "nan", "inf", spaces and "#": mostly numbers
_NUMBER = st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{0,3})?(e-?[0-9]{1,3})?", fullmatch=True)
_SOUP = st.lists(st.sampled_from([*"0123456789.e-_ #", "nan", "inf"]), max_size=4).map("".join)
_CELL = st.one_of(_NUMBER, _NUMBER, _NUMBER, _SOUP)


@st.composite
def _quote_free_texts(draw):
    """Rows of one width among blank, comment, whitespace and ragged lines, each line ending
    in LF, CR LF or CR, or the text in none."""
    width = draw(st.integers(1, 3))
    row = st.lists(_CELL, min_size=width, max_size=width).map(",".join)
    other = st.lists(_CELL, max_size=4).map(",".join)
    lines = draw(st.lists(st.one_of(row, row, row, row, row, other), max_size=30))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@given(_quote_free_texts(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_fast_parse_agrees_with_cell_parse(text, has_header):
    # csv.reader and float() alone give what np.loadtxt and they give together
    def rejecting_loadtxt(*args, **kwargs):
        raise ValueError("rejected")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode())
        with pytest.MonkeyPatch.context() as patch:
            fast = _load_at_budgets(path, patch, target_column=None, has_header=has_header)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "loadtxt", rejecting_loadtxt)
            slow = _load_at_budgets(path, patch, target_column=None, has_header=has_header)
    assert fast[0] == slow[0]
