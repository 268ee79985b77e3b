"""The likelihood evaluator: kept factors against fresh workspaces, and R from outside.

``gp._Workspace`` keeps each block's last factor of R (the rates, then
each categorical variable) and rebuilds only the blocks whose slice of the
vector changed.  The oracle runs scripted sequences of evaluations on one
workspace and compares every outcome with ``==`` against a fresh
workspace.  ``evaluate_block`` scores many rows at once, sharing their
factors; its values are compared with ``==`` against one evaluation per
row, and searches and fits with and without it against each other.  The
property tests check R, the likelihood and saved models over random
spaces without looking inside the evaluator.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixedgp import gp
from mixedgp.benchmarks import cosine_space
from mixedgp.doe import grid, lhs
from mixedgp.errors import NumericalFailure, ObjectiveFailure
from mixedgp.gp import (
    JITTER_DEFAULT,
    FitConfig,
    build_model,
    concentrated_log_likelihood,
    correlation_matrix,
    fit,
    load_model,
    predict,
    save_model,
)
from mixedgp.kernels import (
    EPSILON,
    CategoricalKernelKind,
    categorical_matrix,
    categorical_param_count,
    natural_from_search,
    search_bounds,
    set_from_search_vector,
)
from mixedgp.optimize import BoxBounds, SearchConfig, local_search
from mixedgp.space import Categorical, Dataset, DesignSpace, Integer

from conftest import random_hyper, spaces

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

    evaluate, evaluate_block = gp._Workspace.evaluate, gp._Workspace.evaluate_block

    def evaluate_fresh(self, *args):
        return evaluate(gp._Workspace(data.points, self.p, self.y), *args)

    def evaluate_block_fresh(self, *args):
        return evaluate_block(gp._Workspace(data.points, self.p, self.y), *args)

    monkeypatch.setattr(gp._Workspace, "evaluate", evaluate_fresh)
    monkeypatch.setattr(gp._Workspace, "evaluate_block", evaluate_block_fresh)
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
# the block path: many rows scored at once
# ---------------------------------------------------------------------------

def blocks(steps):
    """The script's flats as blocks of one kind and epsilon, in script order."""
    grouped = {}
    for kind, flat, epsilon in steps:
        grouped.setdefault((kind, epsilon), []).append(flat)
    return [(kind, np.array(flats), epsilon) for (kind, epsilon), flats in grouped.items()]


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("space_name", list(SPACES))
def test_block_scores_equal_one_evaluation_per_row(space_name, p):
    space = SPACES[space_name]
    data = dataset(space)
    ws = gp._Workspace(data.points, p, data.targets)
    failed = set()
    for seed, kind in enumerate(K):
        for _, flats, epsilon in blocks(script(space, kind, seed)):
            # the memo then holds the factors of the block's first row
            outcome(ws, kind, flats[0], epsilon)
            values = ws.evaluate_block(kind, flats, epsilon, JITTER_DEFAULT)
            assert values.shape == (len(flats),)
            for row, flat in enumerate(flats):
                fresh = outcome(gp._Workspace(data.points, p, data.targets), kind, flat, epsilon)
                expected = "-inf" if fresh == "NumericalFailure" else fresh[0]
                assert repr(float(values[row])) == expected, (kind, row)
                # whatever the block left in the memo, one evaluation still matches
                assert outcome(ws, kind, flat, epsilon) == fresh, (kind, row)
            failed |= {kind} if -math.inf in values else set()
    assert failed == set(K) - ({K.HH} if space_name == "categorical-only" else set())


def test_block_keeps_the_shared_factors_in_the_memo():
    data = dataset(SPACES["integer-two-categorical"])
    ws = gp._Workspace(data.points, 2, data.targets)
    lower, upper, mask = search_bounds(data.space, K.CR)
    centre = lower + 0.5 * (upper - lower)
    stencil = np.repeat(centre[None, :], centre.size, axis=0)
    stencil[np.arange(centre.size), np.arange(centre.size)] += 0.1 * (upper - lower)
    ws.evaluate_block(K.CR, natural_from_search(stencil, mask), EPSILON, JITTER_DEFAULT)
    fresh = gp._Workspace(data.points, 2, data.targets)
    fresh.evaluate(K.CR, natural_from_search(centre, mask), EPSILON, JITTER_DEFAULT)
    assert ws._memo.keys() == fresh._memo.keys() == {-1, 0, 1}
    for block, (key, factor) in fresh._memo.items():
        assert ws._memo[block][0] == key
        assert ws._memo[block][1].tobytes() == factor.tobytes()


@pytest.mark.parametrize("L", [2, 3, 5, 13, 20])
@pytest.mark.parametrize("kind", list(K))
def test_stacked_level_matrices_equal_one_call_per_row(kind, L):
    rng = np.random.default_rng(L)
    values = np.array([random_hyper(kind, L, rng) for _ in range(6)])
    values[4] = values[1]  # a repeated row
    for epsilon in (EPSILON, 1e-3):
        stack = categorical_matrix(kind, L, values, epsilon)
        assert stack.shape == (len(values), L, L)
        for row, v in enumerate(values):
            assert stack[row].tobytes() == categorical_matrix(kind, L, v, epsilon).tobytes()
    assert categorical_matrix(kind, L, values[:0]).shape == (0, L, L)
    with pytest.raises(Exception):
        categorical_matrix(kind, L, np.zeros((2, categorical_param_count(kind, L) + 1)))


def likelihood_search(kind, p=2):
    """(objective, batch_objective, bounds, start) of a fit's search on one workspace each."""
    data = dataset(SPACES["integer-two-categorical"], n=16)
    lower, upper, mask = search_bounds(data.space, kind)
    single = gp._Workspace(data.points, p, data.targets)
    block = gp._Workspace(data.points, p, data.targets)

    def objective(v):
        try:
            return single.evaluate(kind, natural_from_search(v, mask), EPSILON,
                                   JITTER_DEFAULT).log_likelihood
        except NumericalFailure:
            return -math.inf

    def batch_objective(V):
        return block.evaluate_block(kind, natural_from_search(V, mask), EPSILON, JITTER_DEFAULT)

    return objective, batch_objective, BoxBounds(lower, upper), lower + 0.3 * (upper - lower)


@pytest.mark.parametrize("kind", list(K))
def test_search_with_a_block_objective_equals_one_by_one(kind):
    objective, batch_objective, bounds, start = likelihood_search(kind)
    dim = bounds.dim
    for max_evals in (1, dim, dim + 1, 37, 150):
        config = SearchConfig(max_evals=max_evals)
        plain = local_search(objective, bounds, start, config)
        blocked = local_search(objective, bounds, start, config, batch_objective=batch_objective)
        assert plain.point.tobytes() == blocked.point.tobytes(), max_evals
        assert repr(plain.value) == repr(blocked.value)
        assert plain.n_evals == blocked.n_evals == min(max_evals, plain.n_evals)


def test_block_objective_sees_only_whole_stencils():
    seen, rows = [], []

    def objective(x):
        seen.append(x.copy())
        if x[1] > 0.8:
            return math.nan  # scored -inf, as one by one
        if x[2] > 0.9:
            return math.inf  # so is +inf
        return -float(np.sum((x - 0.3) ** 2))

    def batch_objective(X):
        rows.append(len(X))
        return [objective(x) for x in X]

    bounds = BoxBounds(np.zeros(5), np.ones(5))
    for max_evals in (1, 5, 6, 37):
        seen.clear()
        plain = local_search(objective, bounds, np.full(5, 0.75), SearchConfig(max_evals=max_evals))
        one_by_one = list(seen)
        seen.clear()
        rows.clear()
        blocked = local_search(objective, bounds, np.full(5, 0.75),
                               SearchConfig(max_evals=max_evals), batch_objective=batch_objective)
        assert [x.tobytes() for x in seen] == [x.tobytes() for x in one_by_one]
        assert plain.point.tobytes() == blocked.point.tobytes()
        assert plain.value == blocked.value
        assert plain.n_evals == blocked.n_evals == len(seen) <= max_evals
        assert all(r == 5 for r in rows)  # every block is a whole stencil


@pytest.mark.parametrize("blocked", [False, True])
def test_a_stencil_the_budget_cannot_cover_is_never_scored(blocked):
    seen, starts = [], []  # every point scored; where each block began in seen

    def value(x):
        return -float(np.sum((x - 0.3) ** 2))

    def objective(x):
        seen.append(x.copy())
        return value(x)

    def batch_objective(X):
        starts.append(len(seen))
        return [objective(x) for x in X]

    def search(max_evals, blocked=blocked):
        seen.clear()
        starts.clear()
        return local_search(objective, bounds, np.full(5, 0.75), SearchConfig(max_evals=max_evals),
                            batch_objective=batch_objective if blocked else None)

    bounds = BoxBounds(np.zeros(5), np.ones(5))
    search(200, blocked=True)
    stencils = [(before, np.array(seen[before:before + 5])) for before in starts[:3]]
    assert len(stencils) == 3
    for before, stencil in stencils:
        # each row moves one coordinate of the point the search holds
        held = np.array([stencil[(j + 1) % 5][j] for j in range(5)])
        for max_evals in range(before, before + 5):
            result = search(max_evals)
            assert result.n_evals == len(seen) == before, max_evals
            assert not any(np.array_equal(x, row) for x in seen for row in stencil)
            assert result.point.tobytes() == held.tobytes()
            assert result.value == value(held)


def test_failing_block_raises_objective_failure_with_a_point():
    def batch_objective(X):
        raise RuntimeError("block failed")

    bounds = BoxBounds(np.zeros(3), np.ones(3))
    with pytest.raises(ObjectiveFailure) as info:
        local_search(lambda x: 0.0, bounds, np.full(3, 0.5), batch_objective=batch_objective)
    assert info.value.point is not None and bounds.contains(info.value.point)
    assert isinstance(info.value.__cause__, RuntimeError)


@pytest.mark.parametrize("kind", list(K))
def test_fit_without_the_block_objective_is_the_same_fit(kind, monkeypatch):
    data = dataset(SPACES["integer-two-categorical"], n=16)
    config = FitConfig(n_starts=2, max_evals=60, seed=1)
    blocked = fit(data, kind, 2, config)
    multistart = gp.multistart

    def one_by_one(*args, batch_objective=None, **kwargs):
        assert batch_objective is not None  # fit passes one
        return multistart(*args, **kwargs)

    monkeypatch.setattr(gp, "multistart", one_by_one)
    plain = fit(data, kind, 2, config)
    assert blocked.start_log == plain.start_log
    assert blocked.theta_star.flat.tobytes() == plain.theta_star.flat.tobytes()
    assert repr(blocked.log_likelihood) == repr(plain.log_likelihood)
    assert blocked.chol.tobytes() == plain.chol.tobytes()


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
    permuted = Dataset(data.space, data.points[order], data.targets[order])
    cond = np.linalg.cond(correlation_matrix(data, theta, p))
    assume(cond < 1e12)
    ll = concentrated_log_likelihood(data, theta, p)
    ll_permuted = concentrated_log_likelihood(permuted, theta, p)
    # rounding in a Cholesky solve grows like n * cond(R) * machine epsilon
    tolerance = len(data) * cond * np.finfo(float).eps * (1.0 + abs(ll))
    assert abs(ll - ll_permuted) <= tolerance


@settings(max_examples=40, deadline=None)
@given(conditioned_cases())
def test_saved_model_reloads_and_predicts_bit_identically(case):
    data, theta, p = case
    try:
        model = build_model(data, theta, p)
    except NumericalFailure:  # HH's R can be indefinite
        assume(False)
    new = grid(data.space, [2] * (data.space.n_continuous + data.space.n_integer))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        loaded = load_model(path)
    for a, b in zip(predict(model, new), predict(loaded, new)):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(loaded.chol, model.chol)
    for m in (model, loaded):
        assert not np.triu(m.chol, 1).any()


@settings(max_examples=15, deadline=None)
@given(conditioned_cases())
def test_fitted_factor_has_a_zero_upper_triangle(case):
    data, theta, p = case
    budget = 2 * (len(theta.flat) + 1)
    try:
        model = fit(data, theta.kind, p, FitConfig(n_starts=1, max_evals=budget))
    except NumericalFailure:  # HH: every point the search tried may be indefinite
        assume(False)
    assert not np.triu(model.chol, 1).any()
    np.testing.assert_allclose(model.chol @ model.chol.T,
                               correlation_matrix(data, model.theta_star, p)
                               + model.jitter * np.eye(len(data)), rtol=0.0, atol=1e-12)
