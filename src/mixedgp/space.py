"""Mixed design spaces: variables, points, datasets and their file formats.

A design space is an ordered list of variables of three kinds: continuous
ranges, bounded integers and categorical variables with named levels.
A set of points is a :class:`PointBatch`: arrays split by kind (``X``
continuous, ``Z`` integer, ``C`` categorical as 1-based level indices),
checked once, with vectorised tests, when it enters the program.
:class:`MixedPoint` is its row view, taken by the single-point helpers.

Integer coordinates are whole numbers kept as floats: the kernels treat
integers through continuous relaxation.  :meth:`PointBatch.normalized`
returns the continuous and integer columns mapped onto [0, 1] as plain
arrays.
"""

from __future__ import annotations

import csv
import io
import numbers
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, LevelOutOfRange, NotIntegral, OutOfBounds, ParseError

__all__ = [
    "Continuous",
    "Integer",
    "Categorical",
    "DesignSpace",
    "MixedPoint",
    "PointBatch",
    "Dataset",
    "validate_point",
    "load_space",
    "save_space",
    "load_dataset",
    "save_dataset",
    "load_points",
    "save_points",
    "save_predictions",
]


# ---------------------------------------------------------------------------
# variable specifications
# ---------------------------------------------------------------------------

def _check_name(name: str, what: str) -> None:
    """A name must be one whitespace-free token: the space file splits its lines on whitespace."""
    if not isinstance(name, str) or name.split() != [name]:
        raise ValueError(f"{what} {name!r} must be a non-empty name without whitespace")


def _count(value) -> int:
    """``value`` as an int; TypeError unless it is a whole number, and for a bool."""
    if isinstance(value, bool):
        raise TypeError(f"a count must be a whole number, got {value!r}")
    return operator.index(value)


def _set_bounds(var, whole: bool) -> None:
    """Store real bounds as Python ints (whole numbers only) when ``whole``, else as floats.

    As floats they must be finite, with lower < upper and a finite width upper - lower.
    """
    _check_name(var.name, "variable name")
    if not all(isinstance(b, numbers.Real) and not isinstance(b, bool)
               for b in (var.lower, var.upper)):
        raise ValueError(f"{var.name}: bounds [{var.lower!r}, {var.upper!r}] must be real numbers")
    try:
        lower, upper = float(var.lower), float(var.upper)
    except OverflowError as exc:  # an int too large for a float
        raise ValueError(f"{var.name}: a bound is too large for a float; bounds must be "
                         f"finite") from exc
    if not np.isfinite([lower, upper, upper - lower]).all():
        raise ValueError(f"{var.name}: bounds [{lower!r}, {upper!r}] must be finite floats "
                         f"with a finite width")
    if not lower < upper:
        raise ValueError(f"{var.name}: lower must be < upper")
    if whole and not (lower.is_integer() and upper.is_integer()):
        raise ValueError(f"{var.name}: bounds [{lower!r}, {upper!r}] must be whole numbers")
    object.__setattr__(var, "lower", int(var.lower) if whole else lower)
    object.__setattr__(var, "upper", int(var.upper) if whole else upper)


@dataclass(frozen=True)
class Continuous:
    """Bounded continuous variable; its bounds are stored as Python floats."""

    name: str
    lower: float
    upper: float

    def __post_init__(self):
        _set_bounds(self, whole=False)


@dataclass(frozen=True)
class Integer:
    """Bounded integer variable, relaxed to a real for kernel evaluation; its bounds are ints."""

    name: str
    lower: int
    upper: int

    def __post_init__(self):
        _set_bounds(self, whole=True)


@dataclass(frozen=True)
class Categorical:
    """Categorical variable with at least two uniquely named levels.

    Variable and level names are non-empty and hold no whitespace, as for
    every variable kind.
    """

    name: str
    levels: tuple[str, ...]

    def __post_init__(self):
        _check_name(self.name, "variable name")
        object.__setattr__(self, "levels", tuple(str(v) for v in self.levels))
        for level in self.levels:
            _check_name(level, f"{self.name}: level")
        if len(self.levels) < 2:
            raise ValueError(f"{self.name}: needs at least 2 levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"{self.name}: level names must be unique")

    @property
    def n_levels(self) -> int:
        return len(self.levels)


VariableSpec = Continuous | Integer | Categorical


@dataclass(frozen=True)
class DesignSpace:
    """Ordered mixed variable specification.

    Derived counts follow the usual convention: ``n_continuous`` continuous,
    ``n_integer`` integer and ``n_categorical`` categorical variables, with
    ``relaxed_dim`` the total one-hot dimension of the categorical part.
    """

    variables: tuple[VariableSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) == 0:
            raise ValueError("a design space needs at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")

    # -- derived counts -----------------------------------------------------

    @property
    def continuous(self) -> tuple[Continuous, ...]:
        return tuple(v for v in self.variables if isinstance(v, Continuous))

    @property
    def integer(self) -> tuple[Integer, ...]:
        return tuple(v for v in self.variables if isinstance(v, Integer))

    @property
    def categorical(self) -> tuple[Categorical, ...]:
        return tuple(v for v in self.variables if isinstance(v, Categorical))

    @property
    def n_continuous(self) -> int:
        return len(self.continuous)

    @property
    def n_integer(self) -> int:
        return len(self.integer)

    @property
    def n_categorical(self) -> int:
        return len(self.categorical)

    @property
    def level_counts(self) -> tuple[int, ...]:
        return tuple(v.n_levels for v in self.categorical)

    @property
    def relaxed_dim(self) -> int:
        """One-hot dimension of the categorical part (sum of level counts)."""
        return sum(self.level_counts)

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)


# ---------------------------------------------------------------------------
# points and datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedPoint:
    """One point of a mixed space, coordinates split by variable kind.

    ``categorical`` holds 1-based level indices, as ints; a value that is
    not a whole number stays a float, for :func:`validate_point` to refuse.
    ``integer`` holds floats; one that is not a whole number is kept, for
    :func:`validate_point` to refuse.  A row of a :class:`PointBatch` is
    made from the batch's checked arrays as it stands, without these
    conversions: its floats and ints are already of these types.
    """

    continuous: tuple[float, ...] = ()
    integer: tuple[float, ...] = ()
    categorical: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "continuous", tuple(map(float, self.continuous)))
        object.__setattr__(self, "integer", tuple(map(float, self.integer)))
        object.__setattr__(self, "categorical", tuple(
            int(c) if float(c).is_integer() else float(c) for c in self.categorical))


def _row(continuous: tuple, integer: tuple, categorical: tuple) -> MixedPoint:
    """A MixedPoint of a checked batch's row: the tuples are stored as given, unconverted."""
    point = object.__new__(MixedPoint)
    fields = point.__dict__
    fields["continuous"], fields["integer"] = continuous, integer
    fields["categorical"] = categorical
    return point


def validate_point(space: DesignSpace, point: MixedPoint) -> None:
    """Check every coordinate of ``point`` against its variable spec.

    Raises OutOfBounds (NotIntegral for an integer coordinate that is not a
    whole number) or LevelOutOfRange (for a level that is not a whole number
    in 1..n_levels) on the first violation;
    DimensionMismatch if the coordinate counts disagree with the space.
    """
    if (
        len(point.continuous) != space.n_continuous
        or len(point.integer) != space.n_integer
        or len(point.categorical) != space.n_categorical
    ):
        raise DimensionMismatch(
            f"point has ({len(point.continuous)}, {len(point.integer)}, "
            f"{len(point.categorical)}) coordinates, space expects "
            f"({space.n_continuous}, {space.n_integer}, {space.n_categorical})"
        )
    for i, (spec, x) in enumerate(zip(space.continuous, point.continuous)):
        if not (spec.lower <= x <= spec.upper) or not np.isfinite(x):
            raise OutOfBounds(i, x, spec.lower, spec.upper)
    for i, (spec, z) in enumerate(zip(space.integer, point.integer)):
        if not (spec.lower <= z <= spec.upper) or not np.isfinite(z):
            raise OutOfBounds(i, z, spec.lower, spec.upper)
        if not z.is_integer():
            raise NotIntegral(i, z, spec.lower, spec.upper)
    for i, (spec, c) in enumerate(zip(space.categorical, point.categorical)):
        if not (isinstance(c, int) and 1 <= c <= spec.n_levels):
            raise LevelOutOfRange(i, c, spec.n_levels)


# Rows a batch converts to Python numbers at a time while it is iterated.
_ROW_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class PointBatch:
    """Points of one space as read-only raw-unit arrays, checked on construction.

    ``X`` is (n, n_continuous) float, ``Z`` (n, n_integer) float and ``C``
    (n, n_categorical) int with 1-based levels.  An integer index and
    iteration yield :class:`MixedPoint` rows; a slice, an index array or a
    boolean mask yields a batch of those rows, in that order.  Rows are
    made straight from the checked arrays and are not checked again:
    iteration converts ``_ROW_BLOCK`` rows at a time to Python numbers, so
    it never holds a whole-batch copy of them.
    """

    space: DesignSpace
    X: np.ndarray
    Z: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name, array in zip("XZC", _checked_arrays(self.space, (self.X, self.Z, self.C))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def of(cls, space: DesignSpace, points) -> "PointBatch":
        """Checked batch of ``points`` on ``space``; a batch of an equal space is returned as is."""
        if isinstance(points, PointBatch):
            return points if points.space == space else cls(space, points.X, points.Z, points.C)
        points = list(points)
        return cls(space, [p.continuous for p in points], [p.integer for p in points],
                   [p.categorical for p in points])

    @classmethod
    def from_columns(cls, space: DesignSpace, columns) -> "PointBatch":
        """A batch from one column of raw values per variable, in space order."""
        n, by_kind = len(columns[0]), {Continuous: [], Integer: [], Categorical: []}
        for var, column in zip(space.variables, columns):
            by_kind[type(var)].append(column)
        return cls(space, *(np.array(cols, dtype=float).reshape(len(cols), n).T
                            for cols in by_kind.values()))

    def normalized(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, Z, C) with the continuous and integer columns mapped affinely onto [0, 1]."""
        (lx, ux), (lz, uz) = _bounds(self.space.continuous), _bounds(self.space.integer)
        return (self.X - lx) / (ux - lx), (self.Z - lz) / (uz - lz), self.C

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return _row(*(tuple(A[index].tolist()) for A in (self.X, self.Z, self.C)))
        return PointBatch(self.space, self.X[index], self.Z[index], self.C[index])

    def __iter__(self):
        for start in range(0, len(self), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            for x, z, c in zip(self.X[rows].tolist(), self.Z[rows].tolist(),
                               self.C[rows].tolist()):
                yield _row(tuple(x), tuple(z), tuple(c))

    def __eq__(self, other):
        return isinstance(other, PointBatch) and self.space == other.space and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in "XZC")


def _bounds(specs) -> tuple[np.ndarray, np.ndarray]:
    return tuple(np.array([getattr(v, b) for v in specs], dtype=float) for b in ("lower", "upper"))


def _checked_arrays(space: DesignSpace, rows) -> list[np.ndarray]:
    """Three row sequences as (n, width) arrays; raises as validate_point on the first bad point."""
    n, widths = len(rows[0]), (space.n_continuous, space.n_integer, space.n_categorical)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch(f"X, Z and C hold {[len(r) for r in rows]} rows")
    try:
        # one memory layout for every batch: the sums in a prediction depend on it;
        # levels are read as floats, so a level that is not a whole number is seen
        arrays = [np.array(r, dtype=float, order="C") for r in rows]
        arrays = [a.reshape(n, w) if n == 0 else a for a, w in zip(arrays, widths)]
        shaped = all(a.shape == (n, w) for a, w in zip(arrays, widths))
    except (TypeError, ValueError, OverflowError):
        shaped = False
    bad = np.ones(n, dtype=bool)
    if shaped:
        X, Z, C = arrays
        bad = ~np.all(np.floor(Z) == Z, axis=1) | ~np.all(np.floor(C) == C, axis=1)
        for A, (lower, upper) in ((X, _bounds(space.continuous)), (Z, _bounds(space.integer)),
                                  (C, (1.0, np.array(space.level_counts, dtype=float)))):
            bad |= ~np.all((A >= lower) & (A <= upper) & np.isfinite(A), axis=1)
    for i in np.flatnonzero(bad):  # validate_point raises on the first bad point
        try:
            validate_point(space, MixedPoint(*(r[i] for r in rows)))
        except (OutOfBounds, LevelOutOfRange) as exc:
            exc.row = int(i)  # the 0-based row, which a file reader maps to its line
            raise
    if not shaped:
        raise DimensionMismatch(f"point rows do not have the space's widths {widths}")
    return arrays[:2] + [arrays[2].astype(int)]


def _checked_targets(n_points: int, targets) -> np.ndarray:
    """Targets as a float vector holding one finite value per point."""
    y = np.asarray(targets, dtype=float).reshape(-1)
    if n_points == 0:
        raise ValueError("a dataset needs at least one point")
    if n_points != y.size:
        raise DimensionMismatch(f"{n_points} points but {y.size} targets")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        exc = ValueError(f"targets must be finite: row {bad[0]} (0-based) holds "
                         f"{float(y[bad[0]])!r}")
        exc.row = int(bad[0])
        raise exc
    return y


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design of experiments: points of one space (held as a batch) plus a target per point."""

    space: DesignSpace
    points: PointBatch
    targets: np.ndarray = field(repr=False)

    def __post_init__(self):
        points = self.points if isinstance(self.points, PointBatch) else tuple(self.points)
        object.__setattr__(self, "targets", _checked_targets(len(points), self.targets))
        object.__setattr__(self, "points", PointBatch.of(self.space, points))

    def __len__(self) -> int:
        return len(self.points)

    def with_targets(self, y) -> "Dataset":
        return Dataset(self.space, self.points, np.asarray(y, dtype=float))

    def __eq__(self, other):
        return isinstance(other, Dataset) and self.space == other.space and (
            self.points == other.points and np.array_equal(self.targets, other.targets))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------
#
# Space file: one variable per non-comment line, whitespace separated:
#
#     continuous  <name> <lower> <upper>
#     integer     <name> <lower> <upper>
#     categorical <name> <level> <level> [...]
#
# Points and dataset files: CSV with a header row naming the variables in
# space order, optionally followed by a final ``target`` column.  Categorical
# cells hold level names.  A predictions file appends ``mean`` and ``stddev``.

def save_space(space: DesignSpace, path) -> None:
    lines = ["# mixedgp design space: kind name bounds-or-levels"]
    for v in space.variables:
        if isinstance(v, Continuous):
            lines.append(f"continuous {v.name} {v.lower!r} {v.upper!r}")
        elif isinstance(v, Integer):
            lines.append(f"integer {v.name} {v.lower} {v.upper}")
        else:
            lines.append("categorical " + v.name + " " + " ".join(v.levels))
    Path(path).write_text("\n".join(lines) + "\n")


def load_space(path) -> DesignSpace:
    """Read a space file: one variable a line, ``#`` comments and blank lines skipped.

    Raises ParseError naming the file and line on an unknown kind, a
    continuous or integer line with other than a name and two bounds, or a
    value its variable refuses; and naming the file on two variables with
    one name.
    """
    variables: list[VariableSpec] = []
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read space file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0].lower()
        try:
            if kind in ("continuous", "integer") and len(fields) != 4:
                raise ValueError(f"a {kind} variable takes a name and two bounds, "
                                 f"got {' '.join(fields[1:])!r}")
            if kind == "continuous":
                variables.append(Continuous(fields[1], float(fields[2]), float(fields[3])))
            elif kind == "integer":
                variables.append(Integer(fields[1], int(fields[2]), int(fields[3])))
            elif kind == "categorical":
                variables.append(Categorical(fields[1], tuple(fields[2:])))
            else:
                raise ParseError(f"{path}:{lineno}: unknown variable kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not variables:
        raise ParseError(f"{path}: no variables found")
    try:
        return DesignSpace(tuple(variables))
    except ValueError as exc:  # two variables with one name
        raise ParseError(f"{path}: {exc}") from exc


# A CSV column is a function from a slice of rows to their cells, quoted as
# csv.writer quotes them.  A column of few distinct values formats each once
# and gathers the texts; a column of distinct values formats row by row.

_CHUNK_ROWS = 65536  # rows joined per write: a large file never holds all its text twice


def _gathered(texts, index: np.ndarray):
    """Cells ``texts[index[row]]``."""
    table = np.array(texts, dtype=object)
    return lambda rows: table[index[rows]].tolist()


def _distinct(values, fmt):
    """Cells ``fmt(value)``, formatted once per distinct value.

    Values are told apart by their bits, not by ``==``: ``-0.0`` keeps its
    own text.
    """
    bits, index = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                            return_inverse=True)
    return _gathered([fmt(v) for v in bits.view(float).tolist()], index)


def _reprs(values):
    """Cells ``repr(value)``, formatted row by row."""
    values = np.asarray(values, dtype=float)
    return lambda rows: map(float.__repr__, values[rows].tolist())


def _levels(names, C: np.ndarray):
    """Cells of a categorical column: its level names, quoted once by csv.writer."""
    # names hold no whitespace: one per line, and quoted as in any row
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([name] for name in names)
    return _gathered(buf.getvalue().split("\n")[:-1], C - 1)


def _text_columns(points: PointBatch) -> list:
    """Each variable's CSV column, in space order."""
    columns = {Continuous: iter(points.X.T), Integer: iter(points.Z.T),
               Categorical: iter(points.C.T)}
    cells = []
    for v in points.space.variables:
        values = next(columns[type(v)])
        if isinstance(v, Continuous):
            cells.append(_distinct(values, float.__repr__))
        elif isinstance(v, Integer):
            cells.append(_distinct(values, lambda z: str(int(z))))
        else:
            cells.append(_levels(v.levels, values))
    return cells


def _write_csv(path, header, columns, n_rows: int, lineterminator: str = "\r\n") -> None:
    """The header row, then ``n_rows`` rows of ``columns``: the bytes csv.writer writes."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator=lineterminator).writerow(header)
        for start in range(0, n_rows, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            lines = map(",".join, zip(*(column(rows) for column in columns)))
            fh.write(lineterminator.join(lines) + lineterminator)


def save_points(space: DesignSpace, points, path) -> None:
    """Write a points file (no target column)."""
    points = PointBatch.of(space, points)
    _write_csv(path, space.names(), _text_columns(points), len(points))


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset file (points plus final ``target`` column)."""
    _write_csv(path, list(dataset.space.names()) + ["target"],
               _text_columns(dataset.points) + [_reprs(dataset.targets)], len(dataset))


def save_predictions(points: PointBatch, means, variances, path) -> None:
    """Write the points plus ``mean`` and ``stddev`` columns, lines ending in a bare newline."""
    _write_csv(path, list(points.space.names()) + ["mean", "stddev"],
               _text_columns(points) + [_reprs(means), _reprs(np.sqrt(variances))],
               len(points), lineterminator="\n")


def _read_csv(space: DesignSpace, path, expect_target: bool | None):
    """Float arrays per variable (space order), targets or None, and the data rows' file lines.

    The columns are parsed column by column; a column of repeating cells is
    parsed once per distinct cell.  A defect raises ParseError naming the
    first bad row and cell in file order.  The file lines are None when no
    blank line was skipped: data row r is then on line r + 2.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file, header row required")
    header = [h.strip() for h in rows[0]]
    names = list(space.names())
    has_target = header == names + ["target"]
    if not has_target and header != names:
        raise ParseError(
            f"{path}: header {header!r} does not match space variables {names!r}"
        )
    if expect_target is True and not has_target:
        raise ParseError(f"{path}: expected a final 'target' column")
    parsers = [{name: float(i) for i, name in enumerate(v.levels, start=1)}.__getitem__
               if isinstance(v, Categorical) else float for v in space.variables]
    parsers += [float] if has_target else []
    body, lines = rows[1:], None
    if not all(body):  # csv.reader reads a blank line as an empty row
        lines = [lineno for lineno, row in enumerate(body, start=2) if row]
        body = list(filter(None, body))
    try:
        # one pass transposes the rows and checks that they have one width
        cells = list(zip(*body, strict=True)) or [()] * len(parsers)
        if len(cells) != len(parsers):
            raise ValueError
        columns = [_parsed(parse, column) for parse, column in zip(parsers, cells)]
    except (KeyError, ValueError):
        _raise_first_defect(path, rows, names, parsers)
    return columns[:len(names)], (columns[-1] if has_target else None), lines


def _parsed(parse, column) -> np.ndarray:
    """``parse`` of each cell as a float array; ``float`` runs once per distinct cell
    when at most half the cells are distinct."""
    if parse is float:
        distinct = set(column)
        if 2 * len(distinct) <= len(column):
            parse = dict(zip(distinct, map(float, distinct))).__getitem__
    return np.fromiter(map(parse, column), float, len(column))


def _raise_first_defect(path, rows, names, parsers) -> None:
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(parsers):
            raise ParseError(f"{path}:{lineno}: expected {len(parsers)} cells, got {len(row)}")
        for j, (parse, cell) in enumerate(zip(parsers, row)):
            try:
                parse(cell)
            except (KeyError, ValueError) as exc:
                what = (f"target {cell!r}" if j == len(names)
                        else f"cell {cell!r} for variable {names[j]}")
                raise ParseError(f"{path}:{lineno}: bad {what}") from exc


def _name_line(path, lines, exc) -> None:
    """Prefix the message of ``exc``, an entry check's refusal of data row ``exc.row``
    read from ``path``, with ``<path>:<line>:``; an error that names no row is left as is.

    ``lines`` comes from :func:`_read_csv`, which counts lines as
    :func:`_raise_first_defect` does, blank ones included.
    """
    if hasattr(exc, "row"):
        lineno = exc.row + 2 if lines is None else lines[exc.row]
        exc.args = (f"{path}:{lineno}: {exc}",)


def load_dataset(space: DesignSpace, path) -> Dataset:
    """Read a dataset file; a value refused at entry is reported with its file line."""
    columns, targets, lines = _read_csv(space, path, expect_target=True)
    if len(targets) == 0:
        raise ParseError(f"{path}: dataset has no rows")
    try:
        targets = _checked_targets(len(targets), targets)  # before the points, as Dataset does
        return Dataset(space, PointBatch.from_columns(space, columns), targets)
    except (OutOfBounds, LevelOutOfRange, ValueError) as exc:
        _name_line(path, lines, exc)
        raise


def load_points(space: DesignSpace, path) -> PointBatch:
    """Read a points file; a trailing target column, if present, is ignored.

    A value refused at entry is reported with its file line.
    """
    columns, _, lines = _read_csv(space, path, expect_target=None)
    try:
        return PointBatch.from_columns(space, columns)
    except (OutOfBounds, LevelOutOfRange) as exc:
        _name_line(path, lines, exc)
        raise
