"""Point batches: the vectorised entry checks, the row view, pinned designs and file formats."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedgp.doe import grid, lhs
from mixedgp.errors import MixedGpError, NotIntegral, OutOfBounds
from mixedgp.gp import build_model, load_model, predict, save_model
from mixedgp.kernels import CategoricalKernelKind, HyperparameterSet
from mixedgp.space import (
    Categorical,
    Continuous,
    Dataset,
    DesignSpace,
    Integer,
    MixedPoint,
    PointBatch,
    load_dataset,
    load_points,
    save_dataset,
    save_points,
    validate_point,
)

K = CategoricalKernelKind
KINDS = ("continuous", "integer", "categorical")


@pytest.fixture
def cat_int_cont():
    """Categorical, then integer, then continuous: space order differs from kind order."""
    return DesignSpace((
        Categorical("c", ("lo", "mid", "hi")),
        Integer("n", -2, 4),
        Continuous("x", -1.5, 2.5),
    ))


def gd_model(space):
    """A GD model on three LHS points, for checking what predict accepts."""
    ds = Dataset(space, lhs(space, 3, seed=0), np.array([0.0, 1.0, 2.0]))
    theta = HyperparameterSet.from_flat(
        space, K.GD, np.ones(space.n_continuous + space.n_integer + space.n_categorical))
    return build_model(ds, theta)


# ---------------------------------------------------------------------------
# vectorised checks against the scalar check
# ---------------------------------------------------------------------------

@st.composite
def spaces(draw):
    variables = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))):
        if kind == "continuous":
            lower = draw(st.floats(-10.0, 10.0))
            variables.append(Continuous(f"v{i}", lower, lower + draw(st.floats(0.5, 20.0))))
        elif kind == "integer":
            lower = draw(st.integers(-5, 5))
            variables.append(Integer(f"v{i}", lower, lower + draw(st.integers(1, 6))))
        else:
            levels = tuple(f"l{j}" for j in range(draw(st.integers(2, 5))))
            variables.append(Categorical(f"v{i}", levels))
    return DesignSpace(tuple(variables))


def valid_point(draw, space):
    return [
        [draw(st.floats(v.lower, v.upper)) for v in space.continuous],
        [float(draw(st.integers(v.lower, v.upper))) for v in space.integer],
        [draw(st.integers(1, v.n_levels)) for v in space.categorical],
    ]


def corrupt(draw, space, coords):
    """Spoil one cell of ``coords`` (or its width) in place."""
    specs = (space.continuous, space.integer, space.categorical)
    options = [("width", k) for k in range(3)]
    options += [(defect, k) for k in (0, 1) if specs[k]
                for defect in ("nan", "inf", "-inf", "below", "above")]
    options += [(defect, 2) for defect in ("level 0", "level L+1") if specs[2]]
    options += [("non-integral", 1)] if specs[1] else []
    defect, k = draw(st.sampled_from(options))
    if defect == "width":
        if coords[k] and draw(st.booleans()):
            coords[k].pop()
        else:
            coords[k].append(1)
        return
    if len(coords[k]) == 0:  # emptied by an earlier width defect
        return
    j = draw(st.integers(0, min(len(specs[k]), len(coords[k])) - 1))
    v = specs[k][j]
    if defect.startswith("level"):
        coords[k][j] = 0 if defect == "level 0" else v.n_levels + 1
    elif defect == "non-integral":
        coords[k][j] = v.lower + draw(st.sampled_from([1e-9, 0.5]))
    elif defect in ("below", "above"):
        step = draw(st.sampled_from([1e-9, 0.5, 3.0]))
        coords[k][j] = v.lower - step if defect == "below" else v.upper + step
    else:
        coords[k][j] = float(defect)


@st.composite
def spaces_and_points(draw):
    space = draw(spaces())
    rows = [valid_point(draw, space) for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        corrupt(draw, space, rows[draw(st.integers(0, len(rows) - 1))])
    return space, [MixedPoint(*coords) for coords in rows]


def first_error(space, points):
    for w in points:
        try:
            validate_point(space, w)
        except MixedGpError as exc:
            return exc
    return None


def assert_raises_like(expected, call):
    with pytest.raises(type(expected)) as info:
        call()
    got = info.value
    assert type(got) is type(expected)
    assert str(got) == str(expected)
    for attr in ("index", "value", "level"):
        assert repr(getattr(got, attr, None)) == repr(getattr(expected, attr, None))


@settings(max_examples=150, deadline=None)
@given(spaces_and_points())
def test_entry_checks_raise_what_validate_point_raises(case):
    space, points = case
    expected = first_error(space, points)
    model = gd_model(space)
    targets = np.zeros(len(points))
    same_width = all(
        (len(w.continuous), len(w.integer), len(w.categorical))
        == (space.n_continuous, space.n_integer, space.n_categorical) for w in points
    )
    arrays = (
        np.array([w.continuous for w in points]).reshape(len(points), space.n_continuous),
        np.array([w.integer for w in points]).reshape(len(points), space.n_integer),
        np.array([w.categorical for w in points], dtype=int).reshape(len(points), space.n_categorical),
    ) if same_width else None
    if expected is None:
        batch = PointBatch.of(space, points)
        assert tuple(batch) == tuple(points)
        assert PointBatch(space, *arrays) == batch
        assert tuple(Dataset(space, points, targets).points) == tuple(points)
        means, variances = predict(model, points)
        assert means.shape == variances.shape == (len(points),)
        return
    assert_raises_like(expected, lambda: PointBatch.of(space, points))
    assert_raises_like(expected, lambda: Dataset(space, points, targets))
    assert_raises_like(expected, lambda: predict(model, points))
    if same_width:
        assert_raises_like(expected, lambda: PointBatch(space, *arrays))


def test_non_integral_integer_fails_at_every_entry(tmp_path, cat_int_cont):
    space = cat_int_cont
    points = tuple(lhs(space, 4, seed=0)) + (MixedPoint((0.1,), (2.5,), (3,)),)
    expected = NotIntegral(0, 2.5, -2, 4)
    assert isinstance(expected, OutOfBounds)
    assert str(expected) == "integer coordinate 0 = 2.5 is not a whole number"
    arrays = [np.array([getattr(w, kind) for w in points]) for kind in KINDS]
    (tmp_path / "p.csv").write_text("c,n,x\nlo,1,0.0\nhi,2.5,0.1\n")
    for call in (lambda: validate_point(space, points[-1]),
                 lambda: PointBatch.of(space, points),
                 lambda: PointBatch(space, *arrays),
                 lambda: Dataset(space, points, np.zeros(5)),
                 lambda: predict(gd_model(space), points),
                 lambda: load_points(space, tmp_path / "p.csv")):
        assert_raises_like(expected, call)


# ---------------------------------------------------------------------------
# the row view
# ---------------------------------------------------------------------------

def test_batch_row_view(cat_int_cont):
    batch = lhs(cat_int_cont, 6, seed=1)
    rows = tuple(batch)
    assert len(batch) == 6 and all(isinstance(w, MixedPoint) for w in rows)
    assert batch[2] == rows[2] and batch[-1] == rows[-1]
    assert isinstance(batch[1:4], PointBatch) and tuple(batch[1:4]) == rows[1:4]
    assert batch == PointBatch.of(cat_int_cont, rows)
    assert batch != lhs(cat_int_cont, 6, seed=2)
    assert PointBatch.of(cat_int_cont, batch) is batch
    assert batch.C.dtype.kind == "i" and batch.X.shape == (6, 1) and batch.Z.shape == (6, 1)
    with pytest.raises(ValueError):
        batch.X[0, 0] = 0.0


# ---------------------------------------------------------------------------
# pinned designs and file formats
# ---------------------------------------------------------------------------

def test_grid_matches_product_oracle(cat_int_cont):
    axes = (
        [1, 2, 3],
        [float(z) for z in np.rint(np.linspace(-2, 4, 4))],
        [float(x) for x in np.linspace(-1.5, 2.5, 5)],
    )
    oracle = tuple(MixedPoint((x,), (z,), (c,)) for c, z, x in itertools.product(*axes))
    assert tuple(grid(cat_int_cont, (4, 5))) == oracle


def test_lhs_reproducible_from_seed_alone(cat_int_cont):
    assert tuple(lhs(cat_int_cont, 5, seed=0)) == (
        MixedPoint((0.12686846024437126,), (4.0,), (2,)),
        MixedPoint((-0.11627564285604475,), (0.0,), (1,)),
        MixedPoint((1.040524496482047,), (1.0,), (3,)),
        MixedPoint((2.3905431378799094,), (-1.0,), (1,)),
        MixedPoint((-1.0668310238007266,), (3.0,), (3,)),
    )


def test_saved_files_reload_and_resave_byte_identical(tmp_path, cat_int_cont):
    space = cat_int_cont
    points = tuple(lhs(space, 9, seed=2)) + (MixedPoint((0.1,), (1.0,), (3,)),)
    dataset = Dataset(space, points, np.linspace(-1.0, 2.0, len(points)) ** 3)

    save_points(space, points, tmp_path / "p1.csv")
    save_points(space, load_points(space, tmp_path / "p1.csv"), tmp_path / "p2.csv")
    assert (tmp_path / "p1.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()

    save_dataset(dataset, tmp_path / "d1.csv")
    save_dataset(load_dataset(space, tmp_path / "d1.csv"), tmp_path / "d2.csv")
    assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    theta = HyperparameterSet.from_flat(space, K.CR, [2.0, 0.5, 0.3, 1.0, 2.0])
    save_model(build_model(dataset, theta), tmp_path / "m1.json")
    save_model(load_model(tmp_path / "m1.json"), tmp_path / "m2.json")
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


def test_predictions_do_not_depend_on_how_the_points_arrive(tmp_path):
    """Bits of a prediction are the same from a design, a file, MixedPoints or Fortran arrays.

    The cross-correlation's sums depend on the memory layout of the two point
    sets, so every batch holds C-ordered arrays, however it was made.
    """
    space = DesignSpace((Categorical("c", ("a", "b", "c")), Continuous("x", 0.0, 1.0),
                         Integer("n", 1, 6), Continuous("y", -2.5, 3.5), Integer("m", 0, 3)))
    train = lhs(space, 20, seed=3)
    theta = HyperparameterSet.from_flat(space, K.CR, [1.5, 0.7, 0.3, 2.0, 0.5, 1.0, 2.0])
    model = build_model(Dataset(space, tuple(train), np.sin(np.arange(20.0))), theta)
    points = grid(space, (6, 6, 5, 4))
    save_points(space, points, tmp_path / "points.csv")
    expected = predict(model, tuple(points))
    for arrived in (points, load_points(space, tmp_path / "points.csv"),
                    PointBatch(space, *(np.asfortranarray(a) for a in (points.X, points.Z, points.C)))):
        means, variances = predict(model, arrived)
        assert np.array_equal(means, expected[0]) and np.array_equal(variances, expected[1])
