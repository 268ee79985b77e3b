"""Mixed design spaces: variables, points, datasets and their file formats.

A design space is an ordered list of variables of three kinds: continuous
ranges, bounded integers and categorical variables with named levels.
Points are stored split by kind (continuous / integer / categorical), with
categorical coordinates held as 1-based level indices.  The GP layer
converts them to 0-based indices when it builds its correlation workspace.

Integer coordinates are kept as floats: the kernels treat integers through
continuous relaxation, and normalized points reuse the same container.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, LevelOutOfRange, OutOfBounds, ParseError

__all__ = [
    "Continuous",
    "Integer",
    "Categorical",
    "DesignSpace",
    "MixedPoint",
    "Dataset",
    "validate_point",
    "one_hot_encode",
    "normalize",
    "decode_one_hot",
    "load_space",
    "save_space",
    "load_dataset",
    "save_dataset",
    "load_points",
    "save_points",
]


# ---------------------------------------------------------------------------
# variable specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Continuous:
    """Bounded continuous variable."""

    name: str
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"{self.name}: lower must be < upper")


@dataclass(frozen=True)
class Integer:
    """Bounded integer variable, relaxed to a real for kernel evaluation."""

    name: str
    lower: int
    upper: int

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"{self.name}: lower must be < upper")


@dataclass(frozen=True)
class Categorical:
    """Categorical variable with at least two uniquely named levels."""

    name: str
    levels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(str(v) for v in self.levels))
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

    ``categorical`` holds 1-based level indices.  ``integer`` holds numbers
    (floats are accepted so normalized points reuse the container).
    """

    continuous: tuple[float, ...] = ()
    integer: tuple[float, ...] = ()
    categorical: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "continuous", tuple(float(x) for x in self.continuous))
        object.__setattr__(self, "integer", tuple(float(z) for z in self.integer))
        object.__setattr__(self, "categorical", tuple(int(c) for c in self.categorical))


def validate_point(space: DesignSpace, point: MixedPoint) -> None:
    """Check every coordinate of ``point`` against its variable spec.

    Raises OutOfBounds or LevelOutOfRange on the first violation;
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
    for i, (spec, c) in enumerate(zip(space.categorical, point.categorical)):
        if not 1 <= c <= spec.n_levels:
            raise LevelOutOfRange(i, c, spec.n_levels)


def one_hot_encode(space: DesignSpace, point: MixedPoint) -> np.ndarray:
    """One-hot encoding of the categorical part, concatenated per variable.

    Returns a vector of length ``space.relaxed_dim`` with exactly one 1 per
    categorical variable, at the position of its level index.
    """
    validate_point(space, point)
    out = np.zeros(space.relaxed_dim)
    offset = 0
    for spec, level in zip(space.categorical, point.categorical):
        out[offset + level - 1] = 1.0
        offset += spec.n_levels
    return out


def decode_one_hot(space: DesignSpace, encoded: np.ndarray) -> tuple[int, ...]:
    """Recover 1-based level indices from a one-hot block layout (argmax per block)."""
    encoded = np.asarray(encoded, dtype=float)
    if encoded.shape != (space.relaxed_dim,):
        raise DimensionMismatch(
            f"encoded length {encoded.shape} does not match relaxed dim {space.relaxed_dim}"
        )
    levels = []
    offset = 0
    for spec in space.categorical:
        block = encoded[offset:offset + spec.n_levels]
        levels.append(int(np.argmax(block)) + 1)
        offset += spec.n_levels
    return tuple(levels)


def normalize(space: DesignSpace, point: MixedPoint) -> MixedPoint:
    """Map continuous and integer coordinates affinely onto [0, 1].

    Categorical coordinates are unchanged.  Already-normalized unit-range
    variables map to themselves.
    """
    validate_point(space, point)
    cont = tuple(
        (x - v.lower) / (v.upper - v.lower)
        for v, x in zip(space.continuous, point.continuous)
    )
    intg = tuple(
        (z - v.lower) / (v.upper - v.lower)
        for v, z in zip(space.integer, point.integer)
    )
    return MixedPoint(cont, intg, point.categorical)


@dataclass(frozen=True)
class Dataset:
    """Design of experiments: points of one space plus a target per point."""

    space: DesignSpace
    points: tuple[MixedPoint, ...]
    targets: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        y = np.asarray(self.targets, dtype=float).reshape(-1)
        object.__setattr__(self, "targets", y)
        if len(self.points) == 0:
            raise ValueError("a dataset needs at least one point")
        if len(self.points) != y.size:
            raise DimensionMismatch(
                f"{len(self.points)} points but {y.size} targets"
            )
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            raise ValueError(
                f"targets must be finite: row {bad[0]} (0-based) holds {y[bad[0]]!r}"
            )
        for p in self.points:
            validate_point(self.space, p)

    def __len__(self) -> int:
        return len(self.points)

    def with_targets(self, y) -> "Dataset":
        return Dataset(self.space, self.points, np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# array views used by the GP internals
# ---------------------------------------------------------------------------

def normalized_coordinate_arrays(space: DesignSpace, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack points into (X, Z, C) arrays, continuous/integer columns mapped onto [0, 1].

    X is (n_t, n_continuous) float, Z is (n_t, n_integer) float, C is
    (n_t, n_categorical) int with 1-based levels.
    """
    pts = list(points)
    X = np.array([p.continuous for p in pts], dtype=float).reshape(len(pts), space.n_continuous)
    Z = np.array([p.integer for p in pts], dtype=float).reshape(len(pts), space.n_integer)
    C = np.array([p.categorical for p in pts], dtype=int).reshape(len(pts), space.n_categorical)
    for j, v in enumerate(space.continuous):
        X[:, j] = (X[:, j] - v.lower) / (v.upper - v.lower)
    for j, v in enumerate(space.integer):
        Z[:, j] = (Z[:, j] - v.lower) / (v.upper - v.lower)
    return X, Z, C


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
# Dataset file: CSV with a header row naming the variables in space order,
# optionally followed by a final ``target`` column.  Categorical cells hold
# level names.

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
    variables: list[VariableSpec] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read space file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0].lower()
        try:
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
    return DesignSpace(tuple(variables))


def _point_to_row(space: DesignSpace, point: MixedPoint) -> list[str]:
    row = []
    ic = ii = il = 0
    for v in space.variables:
        if isinstance(v, Continuous):
            row.append(repr(point.continuous[ic]))
            ic += 1
        elif isinstance(v, Integer):
            z = point.integer[ii]
            row.append(str(int(z)) if float(z).is_integer() else repr(z))
            ii += 1
        else:
            row.append(v.levels[point.categorical[il] - 1])
            il += 1
    return row


def _row_to_point(space: DesignSpace, row: list[str], where: str) -> MixedPoint:
    cont, intg, cat = [], [], []
    for v, cell in zip(space.variables, row):
        try:
            if isinstance(v, Continuous):
                cont.append(float(cell))
            elif isinstance(v, Integer):
                intg.append(float(cell))
            else:
                cat.append(v.levels.index(cell) + 1)
        except ValueError as exc:
            raise ParseError(f"{where}: bad cell {cell!r} for variable {v.name}") from exc
    return MixedPoint(tuple(cont), tuple(intg), tuple(cat))


def save_points(space: DesignSpace, points, path) -> None:
    """Write a points file (no target column)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(space.names())
        for p in points:
            w.writerow(_point_to_row(space, p))


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset file (points plus final ``target`` column)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(dataset.space.names()) + ["target"])
        for p, y in zip(dataset.points, dataset.targets):
            w.writerow(_point_to_row(dataset.space, p) + [repr(float(y))])


def _read_rows(space: DesignSpace, path, expect_target: bool | None):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
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
    n_cols = len(names) + (1 if has_target else 0)
    points, targets = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != n_cols:
            raise ParseError(f"{path}:{lineno}: expected {n_cols} cells, got {len(row)}")
        points.append(_row_to_point(space, row, f"{path}:{lineno}"))
        if has_target:
            try:
                targets.append(float(row[-1]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad target {row[-1]!r}") from exc
    return points, (targets if has_target else None)


def load_dataset(space: DesignSpace, path) -> Dataset:
    points, targets = _read_rows(space, path, expect_target=True)
    if not points:
        raise ParseError(f"{path}: dataset has no rows")
    return Dataset(space, tuple(points), np.array(targets))


def load_points(space: DesignSpace, path) -> tuple[MixedPoint, ...]:
    """Read a points file; a trailing target column, if present, is ignored."""
    points, _ = _read_rows(space, path, expect_target=None)
    return tuple(points)
