import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedgp.doe import lhs
from mixedgp.errors import (
    DimensionMismatch,
    LevelOutOfRange,
    OutOfBounds,
    ParseError,
)
from mixedgp.gp import load_model, predict, save_model
from mixedgp.kernels import CategoricalKernelKind
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
    load_space,
    save_dataset,
    save_points,
    save_space,
    validate_point,
)

from conftest import model_on, spaces
from oracles import decode_one_hot, normalize, one_hot_encode


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


@pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                    (-1e308, 1e308)])
def test_continuous_bounds_must_be_finite_with_a_finite_width(bounds):
    with pytest.raises(ValueError, match="finite"):
        Continuous("x", *bounds)


@pytest.mark.parametrize("bounds", [(0, 10 ** 400), (-10 ** 400, 0)])
def test_integer_bounds_must_fit_a_float(bounds):
    with pytest.raises(ValueError, match="finite"):
        Integer("z", *bounds)


def test_numpy_float_bounds_reload_from_a_space_file(tmp_path):
    space = DesignSpace((Continuous("x", np.float64(0), np.float64(1)),))
    save_space(space, tmp_path / "s.space")
    assert (tmp_path / "s.space").read_text().splitlines()[1] == "continuous x 0.0 1.0"
    assert load_space(tmp_path / "s.space") == space


def test_numpy_int_bounds_save_in_a_model_file(tmp_path):
    space = DesignSpace((Integer("n", np.int64(1), np.int64(6)), Continuous("x", 0.0, 1.0)))
    model = model_on(space, CategoricalKernelKind.GD, 2, 6)
    save_model(model, tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["space"][0] == {"kind": "integer", "name": "n", "lower": 1, "upper": 6}
    assert load_model(tmp_path / "m.json").dataset.space == space


def test_whole_float_integer_bounds_are_stored_as_ints(tmp_path):
    var = Integer("n", 0.0, 5.0)
    assert (var.lower, var.upper) == (0, 5) and type(var.lower) is type(var.upper) is int
    save_space(DesignSpace((var,)), tmp_path / "s.space")
    assert (tmp_path / "s.space").read_text().splitlines()[1] == "integer n 0 5"
    assert load_space(tmp_path / "s.space") == DesignSpace((var,))


def test_integer_bounds_must_be_whole_numbers():
    with pytest.raises(ValueError, match="whole numbers"):
        Integer("n", 0.5, 5.5)


@pytest.mark.parametrize("bounds", [("0", "1"), (0.0, "1"), (None, 1.0), (False, True),
                                    (0.0, 1j)])
def test_bounds_must_be_real_numbers(bounds):
    with pytest.raises(ValueError, match="must be real numbers"):
        Continuous("x", *bounds)
    with pytest.raises(ValueError, match="must be real numbers"):
        Integer("n", *bounds)


@settings(max_examples=40, deadline=None)
@given(spaces(), st.sampled_from(list(CategoricalKernelKind)), st.sampled_from([1, 2]))
def test_spaces_reload_from_both_file_formats_whatever_the_bound_types(tmp_path_factory,
                                                                       space, kind, p):
    for v in space.continuous + space.integer:
        assert {type(v.lower), type(v.upper)} == {int if isinstance(v, Integer) else float}
    model = model_on(space, kind, p, 6)
    at = lhs(space, 5, seed=1)
    means, variances = predict(model, at)
    tmp = tmp_path_factory.mktemp("files")
    save_space(space, tmp / "s.space")
    assert load_space(tmp / "s.space") == space
    save_model(model, tmp / "m.json")
    reloaded = load_model(tmp / "m.json")
    assert reloaded.dataset.space == space
    again = predict(reloaded, at)
    assert again[0].tobytes() == means.tobytes() and again[1].tobytes() == variances.tobytes()


def test_load_space_refuses_infinite_bounds(tmp_path):
    path = tmp_path / "bad.space"
    path.write_text("continuous x 0 inf\n")
    with pytest.raises(ParseError, match="finite"):
        load_space(path)


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


@pytest.mark.parametrize("text, where, match", [
    ("continuous x 0 1 7\n", ":1", "two bounds, got 'x 0 1 7'"),
    ("# a comment\ncategorical c a b\ninteger n 0 3 junk\n", ":3", "two bounds, got 'n 0 3 junk'"),
    ("continuous x 0 1\n\ncategorical x a b\n", "", "variable names must be unique"),
], ids=["continuous-extra-field", "integer-extra-field", "duplicate-name"])
def test_space_file_is_read_strictly(tmp_path, capsys, text, where, match):
    path = tmp_path / "bad.space"
    path.write_text(text)
    with pytest.raises(ParseError, match=match) as info:
        load_space(path)
    assert str(info.value).startswith(f"{path}{where}: ")
    from mixedgp.cli import main

    assert main(["doe", str(path), "--n", "5", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert not (tmp_path / "x.csv").exists()


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


def empty_file(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("")
    return path


@pytest.mark.parametrize("call, error, match", [
    (lambda space, tmp: Dataset(space, (), []), ValueError, "a dataset needs at least one point"),
    (lambda space, tmp: Dataset(space, lhs(space, 3, 0), [0.0, 1.0]), DimensionMismatch,
     "3 points but 2 targets"),
    (lambda space, tmp: PointBatch(space, np.zeros((3, 1)), np.ones((2, 1)), np.ones((3, 1))),
     DimensionMismatch, r"X, Z and C hold \[3, 2, 3\] rows"),
    (lambda space, tmp: load_points(space, empty_file(tmp)), ParseError,
     "points.csv: empty file, header row required"),
], ids=["dataset-without-points", "dataset-target-count", "batch-row-counts", "empty-points-file"])
def test_entry_refusals(mixed_space, tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(mixed_space, tmp_path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_targets(mixed_space, bad):
    points = (MixedPoint((0.1,), (1,), (1,)), MixedPoint((0.5,), (2,), (2,)),
              MixedPoint((0.9,), (3,), (3,)))
    with pytest.raises(ValueError, match="row 1"):
        Dataset(mixed_space, points, np.array([0.0, bad, 1.0]))


@pytest.mark.parametrize("make", [
    lambda: Continuous("my x", 0.0, 1.0),
    lambda: Continuous("", 0.0, 1.0),
    lambda: Integer("n\tm", 0, 3),
    lambda: Categorical("c c", ("a", "d")),
    lambda: Categorical("c", ("a b", "d")),
    lambda: Categorical("c", ("", "d")),
    lambda: Categorical("c", ("a", "d\n")),
])
def test_names_with_whitespace_or_empty_are_refused(make):
    # the space file splits its lines on whitespace: such a name cannot reload
    with pytest.raises(ValueError, match="without whitespace"):
        make()


def test_plain_names_round_trip_byte_identically(tmp_path):
    space = DesignSpace((
        Continuous("x_1", -1.5, 2.0),
        Integer("n-2", 0, 4),
        Categorical("kind.c", ("a,b", '"q"', "#x", "A")),
    ))
    first, second = tmp_path / "first.space", tmp_path / "second.space"
    save_space(space, first)
    reloaded = load_space(first)
    save_space(reloaded, second)
    assert reloaded == space
    assert second.read_bytes() == first.read_bytes()
