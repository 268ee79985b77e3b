"""The likelihood evaluator: kept factors against fresh workspaces, and R from outside.

``gp._Workspace`` keeps each block's last factor of R (the rates, then
each categorical variable) and rebuilds only the blocks whose slice of the
vector changed.  The oracle runs scripted sequences of evaluations on one
workspace and compares every outcome with ``==`` against a fresh
workspace.  The property tests check R and the likelihood over random
spaces without looking inside the evaluator.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedgp import gp
from mixedgp.benchmarks import cosine_space
from mixedgp.doe import lhs
from mixedgp.errors import NumericalFailure
from mixedgp.gp import (
    JITTER_DEFAULT,
    FitConfig,
    build_model,
    concentrated_log_likelihood,
    correlation_matrix,
    fit,
)
from mixedgp.kernels import (
    EPSILON,
    CategoricalKernelKind,
    categorical_matrix,
    natural_from_search,
    search_bounds,
    set_from_search_vector,
)
from mixedgp.space import Categorical, Dataset, DesignSpace, Integer, PointBatch

from conftest import spaces

K = CategoricalKernelKind

SPACES = {
    "cosine": cosine_space(),
    # two categorical variables, so two categorical factors are kept
    "integer-two-categorical": DesignSpace((
        Integer("z", 0, 6),
        Categorical("a", ("p", "q", "r")),
        Categorical("b", ("u", "v", "w", "x", "y")),
    )),
    # no rates: the numeric factor is all ones
    "categorical-only": DesignSpace((
        Categorical("a", ("p", "q", "r", "s")),
        Categorical("b", ("u", "v", "w")),
    )),
}


def dataset(space, n=14, seed=3):
    points = lhs(space, n, seed)
    return Dataset(space, points, np.sin(1.7 * np.arange(n)) + 0.1 * np.arange(n))


def outcome(ws, kind, flat, epsilon):
    """Everything one evaluation returns, as comparable values."""
    try:
        ev = ws.evaluate(kind, flat, epsilon, JITTER_DEFAULT)
    except NumericalFailure:
        return "NumericalFailure"
    return (repr(ev.log_likelihood), repr(ev.mu), repr(ev.sigma2), repr(ev.jitter),
            ev.chol.tobytes(), ev.r_ones.tobytes(),
            ws.correlation(kind, flat, epsilon).tobytes())


def indefinite(space, kind, flat, excess):
    """(flat, epsilon) at which R is indefinite, or None where no such point exists.

    With every angle at 0, rates and packed diagonals of -excess put
    entries up to about exp(2 excess) off R's diagonal; an EHH epsilon of
    exp(excess) does the same at ``flat``'s angles.  A small excess makes
    the jitter escalate, a large one makes the factorization fail.  HH on
    a categorical-only space has no such point: its R is a Schur product
    of Gram matrices for every angle.
    """
    mask = search_bounds(space, kind)[2]
    if mask.any():
        return np.where(mask, -excess, 0.0), EPSILON
    if kind is K.EHH:
        return flat, math.exp(excess)
    return None


def script(space, kind, seed):
    """(kind, flat, epsilon) steps of one kind, in the order a search could take them.

    Every coordinate is moved alone from a base point, so every block is
    stepped; then the base point again, a repeat, a walk that moves one
    coordinate per step, the low corner of the box, a point that needs a
    larger jitter, a failing point, the base point, and the base point at
    another epsilon.
    """
    rng = np.random.default_rng(seed)
    lower, upper, mask = search_bounds(space, kind)
    width = upper - lower
    base = lower + rng.uniform(0.3, 0.7, lower.size) * width
    steps = [base]
    for i in range(base.size):
        moved = base.copy()
        moved[i] += 0.1 * width[i]
        steps.append(moved)
    steps += [base, base]
    walk = base.copy()
    for i in rng.permutation(base.size):
        walk[i] -= 0.05 * width[i]
        steps.append(walk.copy())
    steps.append(lower)
    out = [(kind, natural_from_search(v, mask), EPSILON) for v in steps]
    for excess in (1e-9, 30.0):
        point = indefinite(space, kind, out[0][1], excess)
        if point is not None:
            out.append((kind, *point))
    out += [out[0], (kind, out[0][1], 1e-3)]
    return out


def run_script(space_name, p):
    space = SPACES[space_name]
    data = dataset(space)
    ws = gp._Workspace(data.points, p, data.targets)
    steps = []
    for seed, kind in enumerate(K):
        steps += script(space, kind, seed)
    # EHH and HH pack the same number of values: one flat, two kinds, in turn
    ehh = [step for step in steps if step[0] is K.EHH][:4]
    for _, flat, epsilon in ehh:
        steps += [(K.EHH, flat, epsilon), (K.HH, flat, epsilon)]
    kept, fresh = [], []
    for kind, flat, epsilon in steps:
        kept.append(outcome(ws, kind, flat, epsilon))
        fresh.append(outcome(gp._Workspace(data.points, p, data.targets), kind, flat, epsilon))
    return steps, kept, fresh


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("space_name", list(SPACES))
def test_kept_factors_match_a_fresh_workspace(space_name, p):
    steps, kept, fresh = run_script(space_name, p)
    for index, (step, a, b) in enumerate(zip(steps, kept, fresh)):
        assert a == b, (index, step[0], step[2])
    # the script reaches the branches it is meant to
    expected = set(K) - ({K.HH} if space_name == "categorical-only" else set())
    failed = {kind for (kind, _, _), out in zip(steps, kept) if out == "NumericalFailure"}
    escalated = {kind for (kind, _, _), out in zip(steps, kept)
                 if out != "NumericalFailure" and float(out[3]) > JITTER_DEFAULT}
    assert failed == escalated == expected


@pytest.mark.parametrize("kind", list(K))
def test_fit_equals_a_fit_on_fresh_workspaces(kind, monkeypatch):
    data = dataset(SPACES["integer-two-categorical"], n=16)
    config = FitConfig(n_starts=2, max_evals=60, seed=1)
    kept = fit(data, kind, 2, config)
    assert kept._workspace._memo == {}  # a model keeps no evaluation state

    evaluate = gp._Workspace.evaluate

    def evaluate_fresh(self, *args):
        return evaluate(gp._Workspace(data.points, self.p, self.y), *args)

    monkeypatch.setattr(gp._Workspace, "evaluate", evaluate_fresh)
    fresh = fit(data, kind, 2, config)
    assert kept.start_log == fresh.start_log
    assert kept.theta_star.flat.tobytes() == fresh.theta_star.flat.tobytes()
    assert repr(kept.log_likelihood) == repr(fresh.log_likelihood)
    assert kept.chol.tobytes() == fresh.chol.tobytes()


def test_built_model_keeps_no_factors():
    data = dataset(SPACES["cosine"])
    lower, upper, _ = search_bounds(data.space, K.CR)
    theta = set_from_search_vector(data.space, K.CR, 0.5 * (lower + upper))
    assert build_model(data, theta)._workspace._memo == {}


# ---------------------------------------------------------------------------
# properties of R and of the likelihood, over random spaces
# ---------------------------------------------------------------------------

@st.composite
def conditioned_cases(draw):
    """(dataset, set, p) on distinct points, with distinct levels correlating well below 1.

    Rates and packed diagonals lie in [1, e^3] and angles in the middle
    30% of their box.
    """
    space = draw(spaces())
    kind = draw(st.sampled_from(list(K)))
    lower, upper, mask = search_bounds(space, kind)
    fractions = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=lower.size,
                                       max_size=lower.size)))
    vector = np.where(mask, 3.0 * fractions, lower + (0.35 + 0.3 * fractions) * (upper - lower))
    n = draw(st.integers(2, 8))
    points = lhs(space, n, draw(st.integers(0, 2**16)))
    assume(len(np.unique(np.hstack([points.X, points.Z, points.C]), axis=0)) == n)
    y = np.cos(2.3 * np.arange(n)) + 0.2 * np.arange(n)
    theta = set_from_search_vector(space, kind, vector)
    return Dataset(space, points, y), theta, draw(st.sampled_from([1, 2]))


@settings(max_examples=80, deadline=None)
@given(conditioned_cases())
def test_correlation_matrix_properties(case):
    data, theta, p = case
    R = correlation_matrix(data, theta, p)
    n = len(data)
    assert np.array_equal(np.diag(R), np.ones(n))
    np.testing.assert_allclose(R, R.T, rtol=0.0, atol=1e-14)
    if theta.kind is K.HH:
        assert np.all((R >= -1.0) & (R <= 1.0))
        return
    assert np.all((R >= 0.0) & (R <= 1.0))
    if theta.kind is K.EHH:
        for i, L in enumerate(data.space.level_counts):
            levels = categorical_matrix(K.EHH, L, theta.variable(i), theta.epsilon)
            assert np.all(levels >= theta.epsilon * (1.0 - 1e-12))
    # the exponential kinds' R is positive definite: no jitter escalation
    assert build_model(data, theta, p).jitter == JITTER_DEFAULT


@settings(max_examples=80, deadline=None)
@given(conditioned_cases(), st.randoms(use_true_random=False))
def test_likelihood_is_invariant_under_a_permutation_of_the_points(case, random):
    data, theta, p = case
    order = list(range(len(data)))
    random.shuffle(order)
    order = np.array(order)
    points = data.points
    permuted = Dataset(data.space, PointBatch(data.space, points.X[order], points.Z[order],
                                              points.C[order]), data.targets[order])
    cond = np.linalg.cond(correlation_matrix(data, theta, p))
    assume(cond < 1e12)
    ll = concentrated_log_likelihood(data, theta, p)
    ll_permuted = concentrated_log_likelihood(permuted, theta, p)
    # rounding in a Cholesky solve grows like n * cond(R) * machine epsilon
    tolerance = len(data) * cond * np.finfo(float).eps * (1.0 + abs(ll))
    assert abs(ll - ll_permuted) <= tolerance
