import numpy as np
import pytest

from mixedgp.errors import (
    DimensionMismatch,
    LevelOutOfRange,
    OutOfBounds,
    ParseError,
)
from mixedgp.space import (
    Categorical,
    Continuous,
    Dataset,
    DesignSpace,
    Integer,
    MixedPoint,
    decode_one_hot,
    load_dataset,
    load_points,
    load_space,
    normalize,
    one_hot_encode,
    save_dataset,
    save_points,
    save_space,
    validate_point,
)


@pytest.fixture
def mixed_space():
    return DesignSpace((
        Continuous("x", 0.0, 1.0),
        Integer("z", 1, 5),
        Categorical("c", ("red", "blue", "green")),
    ))


def test_variable_invariants():
    with pytest.raises(ValueError):
        Continuous("x", 1.0, 1.0)
    with pytest.raises(ValueError):
        Integer("z", 5, 2)
    with pytest.raises(ValueError):
        Categorical("c", ("only",))
    with pytest.raises(ValueError):
        Categorical("c", ("a", "a"))


def test_space_counts(mixed_space):
    assert mixed_space.n_continuous == 1
    assert mixed_space.n_integer == 1
    assert mixed_space.n_categorical == 1
    assert mixed_space.level_counts == (3,)
    assert mixed_space.relaxed_dim == 3
    with pytest.raises(ValueError):
        DesignSpace(())


def test_validate_point_ok():
    space = DesignSpace((Continuous("x", 0.0, 1.0),))
    validate_point(space, MixedPoint(continuous=(0.5,)))


def test_validate_level_out_of_range():
    space = DesignSpace((Categorical("c", tuple(str(i) for i in range(1, 14))),))
    with pytest.raises(LevelOutOfRange):
        validate_point(space, MixedPoint(categorical=(14,)))


def test_validate_below_lower_bound():
    space = DesignSpace((Continuous("x", 10.0, 20.0),))
    with pytest.raises(OutOfBounds):
        validate_point(space, MixedPoint(continuous=(9.99,)))


def test_validate_dimension_mismatch(mixed_space):
    with pytest.raises(DimensionMismatch):
        validate_point(mixed_space, MixedPoint(continuous=(0.5,)))


def test_one_hot_three_levels():
    space = DesignSpace((Categorical("c", ("a", "b", "c")),))
    assert one_hot_encode(space, MixedPoint(categorical=(2,))).tolist() == [0, 1, 0]


def test_one_hot_first_level():
    space = DesignSpace((Categorical("c", ("a", "b")),))
    assert one_hot_encode(space, MixedPoint(categorical=(1,))).tolist() == [1, 0]


def test_one_hot_concatenation():
    space = DesignSpace((Categorical("u", ("a", "b")), Categorical("v", ("p", "q", "r"))))
    encoded = one_hot_encode(space, MixedPoint(categorical=(2, 3)))
    assert encoded.tolist() == [0, 1, 0, 0, 1]


def test_one_hot_counts_and_roundtrip():
    rng = np.random.default_rng(0)
    space = DesignSpace((
        Categorical("u", tuple("abcd")),
        Categorical("v", tuple("xyz")),
        Categorical("w", tuple(str(i) for i in range(7))),
    ))
    for _ in range(50):
        levels = tuple(int(rng.integers(1, L + 1)) for L in space.level_counts)
        p = MixedPoint(categorical=levels)
        encoded = one_hot_encode(space, p)
        assert encoded.sum() == space.n_categorical
        assert np.count_nonzero(encoded == 0) == space.relaxed_dim - space.n_categorical
        assert decode_one_hot(space, encoded) == levels


def test_normalize_values(mixed_space):
    space = DesignSpace((Continuous("x", 10.0, 20.0),))
    assert normalize(space, MixedPoint(continuous=(15.0,))).continuous == (0.5,)
    space01 = DesignSpace((Continuous("x", 0.0, 1.0),))
    assert normalize(space01, MixedPoint(continuous=(0.3,))).continuous == (0.3,)
    spacez = DesignSpace((Integer("z", 1, 5),))
    assert normalize(spacez, MixedPoint(integer=(5,))).integer == (1.0,)


def test_normalize_idempotent_and_monotone():
    space = DesignSpace((Continuous("x", 0.0, 1.0), Integer("z", 0, 1)))
    rng = np.random.default_rng(1)
    previous = None
    for x in sorted(rng.random(20)):
        p = normalize(space, MixedPoint((x,), (0,), ()))
        again = normalize(space, p)
        assert again == p
        if previous is not None:
            assert p.continuous[0] >= previous
        previous = p.continuous[0]


def test_space_file_roundtrip(tmp_path, mixed_space):
    path = tmp_path / "space.txt"
    save_space(mixed_space, path)
    loaded = load_space(path)
    assert loaded == mixed_space


def test_space_file_errors(tmp_path):
    with pytest.raises(ParseError):
        load_space(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("spline x 0 1\n")
    with pytest.raises(ParseError):
        load_space(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ParseError):
        load_space(empty)


def test_dataset_file_roundtrip(tmp_path, mixed_space):
    points = (
        MixedPoint((0.25,), (2,), (1,)),
        MixedPoint((0.75,), (5,), (3,)),
    )
    ds = Dataset(mixed_space, points, np.array([1.5, -2.25]))
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    loaded = load_dataset(mixed_space, path)
    assert tuple(loaded.points) == points
    assert np.array_equal(loaded.targets, ds.targets)


def test_dataset_equality(mixed_space):
    points = (MixedPoint((0.25,), (2,), (1,)), MixedPoint((0.75,), (5,), (3,)))
    ds = Dataset(mixed_space, points, np.array([1.5, -2.25]))
    assert ds == Dataset(mixed_space, list(points), [1.5, -2.25])
    assert ds != ds.with_targets([1.5, -2.0])
    assert ds != Dataset(mixed_space, points[::-1], ds.targets)
    assert ds != ds.points


def test_points_file_roundtrip(tmp_path, mixed_space):
    points = (MixedPoint((0.1,), (3,), (2,)),)
    path = tmp_path / "points.csv"
    save_points(mixed_space, points, path)
    assert tuple(load_points(mixed_space, path)) == points


def test_dataset_header_required(tmp_path, mixed_space):
    path = tmp_path / "data.csv"
    path.write_text("0.25,2,red,1.5\n")
    with pytest.raises(ParseError):
        load_dataset(mixed_space, path)


def test_dataset_validates_points(mixed_space):
    with pytest.raises(LevelOutOfRange):
        Dataset(mixed_space, (MixedPoint((0.5,), (2,), (9,)),), np.array([0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_targets(mixed_space, bad):
    points = (MixedPoint((0.1,), (1,), (1,)), MixedPoint((0.5,), (2,), (2,)),
              MixedPoint((0.9,), (3,), (3,)))
    with pytest.raises(ValueError, match="row 1"):
        Dataset(mixed_space, points, np.array([0.0, bad, 1.0]))
