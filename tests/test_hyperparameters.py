"""The hyperparameter vector over random spaces and all five kinds.

Its views cover it exactly, the search vector maps back onto it, a saved
model reloads an equal set, and EHH is FE with its diagonal at the floor.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedgp.doe import lhs
from mixedgp.errors import NumericalFailure
from mixedgp.gp import build_model, correlation_matrix, load_model, save_model
from mixedgp.kernels import (
    CategoricalKernelKind,
    HyperparameterSet,
    categorical_matrix,
    categorical_param_count,
    search_bounds,
    search_from_natural,
    set_from_search_vector,
)
from mixedgp.space import Dataset

from conftest import spaces

K = CategoricalKernelKind


@st.composite
def sets(draw, kinds=tuple(K)):
    """(space, set) with every search coordinate drawn inside its box."""
    space = draw(spaces())
    kind = draw(st.sampled_from(kinds))
    lower, upper, _ = search_bounds(space, kind)
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=lower.size, max_size=lower.size))
    vector = lower + np.array(fractions) * (upper - lower)
    return space, set_from_search_vector(space, kind, vector)


@settings(max_examples=100, deadline=None)
@given(sets())
def test_views_concatenate_back_to_flat(case):
    space, theta = case
    views = [theta.rates] + [theta.variable(i) for i in range(space.n_categorical)]
    assert np.array_equal(np.concatenate(views), theta.flat)
    assert theta.rates.size == space.n_continuous + space.n_integer
    assert [v.size for v in views[1:]] == [categorical_param_count(theta.kind, L)
                                           for L in space.level_counts]
    assert not theta.flat.flags.writeable


@settings(max_examples=100, deadline=None)
@given(sets())
def test_search_vector_round_trip(case):
    space, theta = case
    vector = search_from_natural(theta.flat, search_bounds(space, theta.kind)[2])
    again = set_from_search_vector(space, theta.kind, vector, theta.epsilon)
    assert again.layout == theta.layout
    np.testing.assert_allclose(again.flat, theta.flat, rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(sets(), st.integers(0, 2**16))
def test_saved_model_reloads_an_equal_set(case, seed):
    space, theta = case
    points = lhs(space, 6, seed)
    try:
        model = build_model(Dataset(space, points, np.sin(np.arange(6.0) + seed)), theta)
    except NumericalFailure:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "model.json")
        loaded = load_model(Path(tmp) / "model.json")
    assert loaded.theta_star == model.theta_star == theta
    assert not loaded.theta_star != theta


@settings(max_examples=60, deadline=None)
@given(sets(kinds=(K.EHH,)))
def test_fe_with_its_diagonal_at_the_floor_is_ehh(case):
    """FE's correlations are EHH's times exp(-(theta_rr + theta_ss)): 1 - 4e-9 at the floor."""
    space, ehh = case
    parts = [ehh.rates]
    for i, L in enumerate(space.level_counts):
        values = np.full(categorical_param_count(K.FE, L), math.exp(-20.0))
        on_diagonal = np.zeros(values.size, dtype=bool)
        on_diagonal[[r * (r + 3) // 2 for r in range(L)]] = True
        values[~on_diagonal] = ehh.variable(i)
        parts.append(values)
    fe = HyperparameterSet.from_flat(space, K.FE, np.concatenate(parts), ehh.epsilon)
    for i, L in enumerate(space.level_counts):
        np.testing.assert_allclose(categorical_matrix(K.FE, L, fe.variable(i)),
                                   categorical_matrix(K.EHH, L, ehh.variable(i)), rtol=1e-8)
    dataset = Dataset(space, lhs(space, 12, 0), np.zeros(12))
    np.testing.assert_allclose(correlation_matrix(dataset, fe), correlation_matrix(dataset, ehh),
                               rtol=1e-8)
