"""The column-wise CSV reader against the row-by-row reader in ``oracles.py``.

On every generated file the two give the same columns, bit for bit, or
raise ParseError with the same text.
"""

import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedgp.errors import ParseError
from mixedgp.gp import load_model
from mixedgp.space import (
    Categorical,
    Continuous,
    DesignSpace,
    Integer,
    _read_csv,
    load_dataset,
    load_points,
    load_space,
)

import oracles

# cells Python's float reads in its own way, and cells it refuses
SPELLINGS = ("1_0", " 2 ", "infinity", "-Infinity", "nan", "-nan", "+1e3", "-0.0", "0.0",
             "1e400", "0.1", "7")
REFUSED = ("0x1p3", "", "1__0", "_1", "x")
NUMBERS = st.one_of(st.sampled_from(SPELLINGS), st.floats().map(repr))
NAMES = st.text(alphabet='ab,"', min_size=1, max_size=3)
UNKNOWN_LEVEL = "zz"


@st.composite
def spaces(draw):
    variables = []
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from([Continuous, Integer, Categorical]))
        if kind is Categorical:
            levels = draw(st.lists(NAMES, min_size=2, max_size=4, unique=True))
            variables.append(Categorical(f"v{i}", tuple(levels)))
        else:
            variables.append(kind(f"v{i}", 0, 1))
    return DesignSpace(tuple(variables))


@st.composite
def numeric_column(draw, n):
    """n numeric cells: a few repeated ones (parsed through a table) or all distinct ones."""
    if draw(st.booleans()):
        few = draw(st.lists(NUMBERS, min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(few), min_size=n, max_size=n))
    return draw(st.lists(NUMBERS, min_size=n, max_size=n, unique=True))


@st.composite
def files(draw):
    """A space, the rows of a CSV file on it (blank ones included) and its line end."""
    space = draw(spaces())
    n = draw(st.integers(0, 12))
    has_target = draw(st.booleans())
    columns = [draw(st.lists(st.sampled_from(v.levels), min_size=n, max_size=n))
               if isinstance(v, Categorical) else draw(numeric_column(n))
               for v in space.variables]
    columns += [draw(numeric_column(n))] if has_target else []
    rows = [list(row) for row in zip(*columns)]
    defect = draw(st.sampled_from(["none", "cell", "width", "every width"]))
    if rows and defect != "none":
        i = draw(st.integers(0, n - 1))
        if defect != "cell":
            short = draw(st.booleans())
            for k in range(n) if defect == "every width" else [i]:
                rows[k] = rows[k][:-1] if short else rows[k] + ["1"]
        else:
            j = draw(st.integers(0, len(columns) - 1))
            categorical = j < len(space.variables) and isinstance(space.variables[j], Categorical)
            rows[i][j] = UNKNOWN_LEVEL if categorical else draw(st.sampled_from(REFUSED))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [])
    header = list(space.names()) + (["target"] if has_target else [])
    return space, [header] + rows, draw(st.sampled_from(["\r\n", "\n"]))


def bits(column):
    return np.asarray(column, dtype=float).view(np.int64).tolist()


def outcome(read, space, path, expect_target):
    try:
        columns, targets = read(space, path, expect_target)[:2]  # the oracle gives no lines
    except ParseError as exc:
        return str(exc)
    return [bits(c) for c in columns], None if targets is None else bits(targets)


@given(file=files(), expect_target=st.sampled_from([True, None]))
def test_column_reader_gives_what_the_row_reader_gives(tmp_path_factory, file, expect_target):
    space, rows, line_end = file
    path = tmp_path_factory.mktemp("read") / "points.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator=line_end).writerows(rows)
    got = outcome(_read_csv, space, path, expect_target)
    assert got == outcome(oracles._read_csv, space, path, expect_target)
    if not isinstance(got, str):
        columns, targets, _ = _read_csv(space, path, expect_target)
        assert all(isinstance(c, np.ndarray) and c.dtype == np.float64
                   for c in columns + ([] if targets is None else [targets]))


# ---------------------------------------------------------------------------
# fixed cases
# ---------------------------------------------------------------------------

SPACE = DesignSpace((Continuous("x", 0.0, 1.0), Categorical("c", ("u", "v"))))


def test_a_dataset_file_with_a_header_alone_has_no_rows(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("x,c,target\r\n")
    with pytest.raises(ParseError, match="dataset has no rows"):
        load_dataset(SPACE, path)


@pytest.mark.parametrize("reader", ["space", "model", "points"])
def test_a_file_that_is_not_utf8_raises_a_parse_error_naming_it(tmp_path, reader):
    path = tmp_path / f"bad.{reader}"
    path.write_bytes(b"\xff\xfe not text\n")
    read = {"space": load_space, "model": load_model,
            "points": lambda p: load_points(SPACE, p)}[reader]
    with pytest.raises(ParseError, match="cannot read") as info:
        read(path)
    assert str(path) in str(info.value)
