"""The CSV writer against csv.writer: byte for byte, and load(save(x)) == x.

The oracle below is the writer as it was before it went column-wise: every
cell formatted on its own and every row passed through ``csv.writer``.
"""

import csv
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mixedgp import space as space_module
from mixedgp.cli import _write_matrix
from mixedgp.space import (
    Categorical,
    Continuous,
    Dataset,
    DesignSpace,
    Integer,
    PointBatch,
    load_dataset,
    load_points,
    save_dataset,
    save_points,
    save_predictions,
)

from conftest import spaces

# ---------------------------------------------------------------------------
# the oracle: one cell at a time through csv.writer
# ---------------------------------------------------------------------------


def oracle_text_columns(points):
    columns = {Continuous: iter(points.X.T.tolist()), Integer: iter(points.Z.T.tolist()),
               Categorical: iter(points.C.T.tolist())}
    cells = []
    for v in points.space.variables:
        values = next(columns[type(v)])
        if isinstance(v, Continuous):
            cells.append([repr(x) for x in values])
        elif isinstance(v, Integer):
            cells.append([str(int(z)) for z in values])
        else:
            cells.append([v.levels[c - 1] for c in values])
    return cells


def oracle_write_csv(path, header, columns, lineterminator="\r\n"):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator=lineterminator)
        w.writerow(header)
        w.writerows(zip(*columns))


def oracle_save_points(space, points, path):
    oracle_write_csv(path, space.names(), oracle_text_columns(PointBatch.of(space, points)))


def oracle_save_dataset(dataset, path):
    oracle_write_csv(path, list(dataset.space.names()) + ["target"],
                     oracle_text_columns(dataset.points)
                     + [[repr(y) for y in dataset.targets.tolist()]])


def oracle_save_predictions(points, means, variances, path):
    oracle_write_csv(path, list(points.space.names()) + ["mean", "stddev"],
                     oracle_text_columns(points)
                     + [[repr(m) for m in np.asarray(means).tolist()],
                        [repr(s) for s in np.sqrt(variances).tolist()]],
                     lineterminator="\n")


def oracle_write_matrix(matrix, level_names, path):
    oracle_write_csv(path, level_names,
                     [[repr(v) for v in column] for column in matrix.T.tolist()],
                     lineterminator="\n")


# ---------------------------------------------------------------------------
# inputs: conftest's spaces, with level names that need quoting and wide bounds
# ---------------------------------------------------------------------------

WIDE = 1e17
# signed zeros, subnormals, and both sides of repr's switch to exponent form
AWKWARD = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05, 9.999999999999999e-06,
           0.0001, 1e16, 9999999999999998.0, -1e16, 1e17, 0.1, 1 / 3, 2.0)
NAMES = st.text(alphabet='ab,"', min_size=1, max_size=4)


@st.composite
def file_spaces(draw):
    """A conftest space whose continuous ranges hold AWKWARD and whose level names hold , and "."""
    variables = []
    for v in draw(spaces()).variables:
        if isinstance(v, Continuous):
            v = Continuous(v.name, -WIDE, WIDE)
        elif isinstance(v, Categorical):
            v = Categorical(v.name, draw(st.lists(NAMES, min_size=v.n_levels,
                                                  max_size=v.n_levels, unique=True)))
        variables.append(v)
    return DesignSpace(tuple(variables))


def columns(draw, n, values, signed=False):
    """n values drawn with repeats from a few distinct ones (and, signed, maybe their negations)."""
    pool = draw(st.lists(values, min_size=1, max_size=4))
    pool += [-v for v in pool] if signed and draw(st.booleans()) else []
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))]


def floats(low=-WIDE, high=WIDE):
    return st.one_of(st.sampled_from([v for v in AWKWARD if low <= v <= high]),
                     st.floats(low, high, allow_nan=False))


@st.composite
def batches(draw, min_rows=0):
    space = draw(file_spaces())
    n = draw(st.integers(min_rows, 9))
    X = [columns(draw, n, floats(), signed=True) for _ in space.continuous]
    Z = [columns(draw, n, st.sampled_from([-0.0, 0.0, 1.0, 5.0])) for _ in space.integer]
    C = [columns(draw, n, st.integers(1, v.n_levels)) for v in space.categorical]
    arrays = [np.array(cols, dtype=t).reshape(len(cols), n).T
              for cols, t in ((X, float), (Z, float), (C, int))]
    return PointBatch(space, *arrays)


CHUNKS = st.sampled_from([1, 2, 3, space_module._CHUNK_ROWS])


def assert_same_bytes(tmp_path, write, oracle, *args):
    write(*args, tmp_path / "fast.csv")
    oracle(*args, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(points=batches(), chunk=CHUNKS)
def test_points_file_is_what_csv_writer_writes(tmp_path_factory, points, chunk):
    tmp_path = tmp_path_factory.mktemp("points")
    with mock.patch.object(space_module, "_CHUNK_ROWS", chunk):
        assert_same_bytes(tmp_path, save_points, oracle_save_points, points.space, points)
    loaded = load_points(points.space, tmp_path / "fast.csv")
    assert loaded == points and bits(loaded.X) == bits(points.X)


@given(points=batches(min_rows=1), data=st.data(), chunk=CHUNKS)
def test_dataset_file_is_what_csv_writer_writes(tmp_path_factory, points, data, chunk):
    tmp_path = tmp_path_factory.mktemp("dataset")
    dataset = Dataset(points.space, points, columns(data.draw, len(points), floats(), signed=True))
    with mock.patch.object(space_module, "_CHUNK_ROWS", chunk):
        assert_same_bytes(tmp_path, save_dataset, oracle_save_dataset, dataset)
    loaded = load_dataset(points.space, tmp_path / "fast.csv")
    assert loaded == dataset and bits(loaded.targets) == bits(dataset.targets)


@given(points=batches(), data=st.data(), chunk=CHUNKS)
def test_predictions_file_is_what_csv_writer_writes(tmp_path_factory, points, data, chunk):
    tmp_path = tmp_path_factory.mktemp("predictions")
    means = np.array(data.draw(st.lists(floats(), min_size=len(points), max_size=len(points))))
    variances = np.array(data.draw(st.lists(floats(0.0), min_size=len(points),
                                            max_size=len(points))))
    with mock.patch.object(space_module, "_CHUNK_ROWS", chunk):
        assert_same_bytes(tmp_path, save_predictions, oracle_save_predictions,
                          points, means, variances)
    with open(tmp_path / "fast.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert bits([float(r[-2]) for r in rows]) == bits(means)
    assert bits([float(r[-1]) for r in rows]) == bits(np.sqrt(variances))


@given(names=st.lists(NAMES, min_size=2, max_size=6, unique=True), data=st.data())
def test_correlation_export_is_what_csv_writer_writes(tmp_path_factory, names, data):
    tmp_path = tmp_path_factory.mktemp("matrix")
    L = len(names)
    matrix = np.array(data.draw(st.lists(floats(), min_size=L * L, max_size=L * L))).reshape(L, L)
    assert_same_bytes(tmp_path, _write_matrix, oracle_write_matrix, matrix, names)
    with open(tmp_path / "fast.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == names
    assert bits([[float(v) for v in row] for row in rows[1:]]) == bits(matrix)


# ---------------------------------------------------------------------------
# fixed cases the properties must not leave to chance
# ---------------------------------------------------------------------------


def test_negative_zero_next_to_zero_keeps_its_sign(tmp_path):
    space = DesignSpace((Continuous("x", -1.0, 1.0), Categorical("c", ("a,b", '"q"'))))
    points = PointBatch(space, [[-0.0], [0.0], [-0.0], [5e-324]], [[]] * 4, [[1], [2], [2], [1]])
    assert_same_bytes(tmp_path, save_points, oracle_save_points, space, points)
    assert (tmp_path / "fast.csv").read_text().splitlines() == [
        "x,c", '-0.0,"a,b"', '0.0,"""q"""', '-0.0,"""q"""', '5e-324,"a,b"']
    assert bits(load_points(space, tmp_path / "fast.csv").X) == bits(points.X)


def test_an_empty_batch_writes_the_header_alone(tmp_path):
    space = DesignSpace((Continuous("x", 0.0, 1.0), Categorical("c", ("u", "v"))))
    empty = PointBatch(space, np.empty((0, 1)), np.empty((0, 0)), np.empty((0, 1), dtype=int))
    assert_same_bytes(tmp_path, save_points, oracle_save_points, space, empty)
    assert (tmp_path / "fast.csv").read_bytes() == b"x,c\r\n"
    assert_same_bytes(tmp_path, save_predictions, oracle_save_predictions, empty,
                      np.empty(0), np.empty(0))


def test_a_batch_longer_than_one_chunk(tmp_path):
    space = DesignSpace((Continuous("x", 0.0, 1.0), Categorical("c", ("u", "v,w", "x"))))
    n = space_module._CHUNK_ROWS + 7
    rng = np.random.default_rng(0)
    x = np.round(rng.uniform(size=n), 3)
    points = PointBatch(space, x[:, None], np.empty((n, 0)), rng.integers(1, 4, (n, 1)))
    dataset = Dataset(space, points, rng.normal(size=n))
    assert_same_bytes(tmp_path, save_dataset, oracle_save_dataset, dataset)
    assert load_dataset(space, tmp_path / "fast.csv") == dataset
    assert_same_bytes(tmp_path, save_predictions, oracle_save_predictions,
                      points, dataset.targets, np.abs(dataset.targets))
