import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedgp.doe import grid, lhs
from mixedgp.errors import SizeOverflow
from mixedgp.space import (
    Categorical,
    Continuous,
    DesignSpace,
    Integer,
    validate_point,
)


@pytest.fixture
def cosine_like():
    return DesignSpace((
        Continuous("x", 0.0, 1.0),
        Categorical("c", tuple(str(i) for i in range(1, 14))),
    ))


def test_lhs_stratification_one_dim():
    space = DesignSpace((Continuous("x", 0.0, 1.0),))
    points = lhs(space, 4, seed=0)
    xs = sorted(p.continuous[0] for p in points)
    for i, x in enumerate(xs):
        assert i / 4 <= x <= (i + 1) / 4


def test_lhs_marginals_exactly_flat():
    space = DesignSpace((Continuous("x", -3.0, 5.0), Continuous("y", 0.0, 1.0)))
    n = 50
    points = lhs(space, n, seed=3)
    for get, lo, hi in ((lambda p: p.continuous[0], -3.0, 5.0),
                        (lambda p: p.continuous[1], 0.0, 1.0)):
        unit = [(get(p) - lo) / (hi - lo) for p in points]
        counts = np.bincount(np.minimum((np.array(unit) * n).astype(int), n - 1), minlength=n)
        assert np.all(counts == 1)


def test_lhs_categorical_balance(cosine_like):
    points = lhs(cosine_like, 98, seed=1)
    counts = np.bincount([p.categorical[0] for p in points], minlength=14)[1:]
    assert sorted(counts.tolist()) == [7] * 6 + [8] * 7  # 98 = 7*13 + 7
    assert counts.sum() == 98


def test_lhs_deterministic(cosine_like):
    assert lhs(cosine_like, 31, seed=9) == lhs(cosine_like, 31, seed=9)
    assert lhs(cosine_like, 31, seed=9) != lhs(cosine_like, 31, seed=10)
    with pytest.raises(ValueError):
        lhs(cosine_like, 0)


def test_lhs_integer_rounding():
    space = DesignSpace((Integer("z", 1, 5),))
    points = lhs(space, 40, seed=2)
    values = {p.integer[0] for p in points}
    assert values <= {1.0, 2.0, 3.0, 4.0, 5.0}
    assert len(values) >= 4


def test_lhs_points_validate(cosine_like):
    for p in lhs(cosine_like, 57, seed=5):
        validate_point(cosine_like, p)


def test_grid_cosine_validation_size(cosine_like):
    points = grid(cosine_like, (1000,))
    assert len(points) == 13000
    # row-major: the categorical level cycles fastest
    assert [p.categorical[0] for p in points[:13]] == list(range(1, 14))
    assert points[0].continuous[0] == 0.0
    assert points[-1].continuous[0] == 1.0


def test_grid_beam_size():
    space = DesignSpace((
        Continuous("L", 10.0, 20.0),
        Continuous("S", 1.0, 2.0),
        Categorical("section", tuple(str(i) for i in range(1, 13))),
    ))
    assert len(grid(space, (30, 30))) == 12 * 30 * 30


def test_grid_two_points_hits_bounds():
    space = DesignSpace((Continuous("x", -1.0, 3.0),))
    points = grid(space, (2,))
    assert [p.continuous[0] for p in points] == [-1.0, 3.0]


def test_grid_integer_axis():
    space = DesignSpace((Integer("z", 1, 5),))
    points = grid(space, (5,))
    assert [p.integer[0] for p in points] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_grid_size_overflow():
    space = DesignSpace((Continuous("x", 0.0, 1.0), Continuous("y", 0.0, 1.0)))
    with pytest.raises(SizeOverflow):
        grid(space, (10000, 10000))


def test_grid_counts_must_match():
    space = DesignSpace((Continuous("x", 0.0, 1.0),))
    with pytest.raises(ValueError):
        grid(space, (10, 10))
    with pytest.raises(ValueError):
        grid(space, (0,))


# ---------------------------------------------------------------------------
# LHS properties over random spaces, sizes and seeds
# ---------------------------------------------------------------------------

@st.composite
def lhs_spaces(draw):
    """1-5 variables of every kind, with random bounds and 2-13 levels."""
    variables = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from("cik"), min_size=1, max_size=5))):
        if kind == "c":
            lower = draw(st.floats(-1e3, 1e3))
            variables.append(Continuous(f"v{i}", lower, lower + draw(st.floats(1e-3, 1e3))))
        elif kind == "i":
            lower = draw(st.integers(-50, 50))
            variables.append(Integer(f"v{i}", lower, lower + draw(st.integers(1, 100))))
        else:
            variables.append(Categorical(f"v{i}", tuple(
                f"l{j}" for j in range(draw(st.integers(2, 13))))))
    return DesignSpace(tuple(variables))


@settings(max_examples=150, deadline=None)
@given(lhs_spaces(), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_lhs_stratifies_every_numeric_dimension_and_balances_levels(space, n, seed):
    points = lhs(space, n, seed)
    assert len(points) == n
    numeric = list(zip(space.continuous, points.X.T)) + list(zip(space.integer, points.Z.T))
    for var, column in numeric:
        # bin k is [lower + k/n * width, lower + (k+1)/n * width]: with one sample per
        # bin, the k-th smallest sample lies in bin k (rounding is monotone, so
        # an integer's k-th smallest value lies between its bin's rounded edges)
        edges = var.lower + (np.arange(n + 1) / n) * (var.upper - var.lower)
        if isinstance(var, Integer):
            edges = np.rint(edges)
        ordered = np.sort(column)
        assert np.all(edges[:-1] <= ordered) and np.all(ordered <= edges[1:])
    for var, column in zip(space.categorical, points.C.T):
        counts = np.bincount(column - 1, minlength=var.n_levels)
        assert len(counts) == var.n_levels and counts.sum() == n
        assert counts.max() - counts.min() <= 1
