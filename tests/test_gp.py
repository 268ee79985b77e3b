import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedgp import gp
from mixedgp.benchmarks import beam_space, cosine_function, cosine_space
from mixedgp.doe import lhs
from mixedgp.errors import NumericalFailure
from mixedgp.gp import (
    FitConfig,
    build_model,
    concentrated_log_likelihood,
    correlation_matrix,
    fit,
    load_model,
    predict,
    save_model,
    standardize_targets,
)
from mixedgp.kernels import (
    EPSILON,
    CategoricalKernelKind,
    HyperparameterSet,
    search_bounds,
)
from mixedgp.space import (
    Categorical,
    Continuous,
    Dataset,
    DesignSpace,
    Integer,
    MixedPoint,
)

from conftest import (
    VARIANCE_TOL,
    categorical_only_space,
    model_on,
    one_shot_predict,
    random_hyper,
)
from oracles import mixed_kernel, normalize

K = CategoricalKernelKind


def mixed_space():
    return DesignSpace((
        Continuous("x", 0.0, 1.0),
        Integer("z", 1, 5),
        Categorical("c", ("a", "b", "c", "d", "e")),
    ))


def mixed_truth(w):
    x = w.continuous[0]
    z = w.integer[0]
    c = w.categorical[0]
    bumps = (0.0, 1.0, -0.5, 2.0, 0.7)
    return math.sin(2 * math.pi * x) + 0.3 * z + bumps[c - 1] * math.cos(3 * x)


def mixed_dataset(n=30, seed=42):
    space = mixed_space()
    points = lhs(space, n, seed)
    y = np.array([mixed_truth(w) for w in points])
    return Dataset(space, points, y)


def random_theta(space, kind, rng):
    mats = [random_hyper(kind, L, rng) for L in space.level_counts]
    return HyperparameterSet.from_flat(space, kind, np.concatenate([
        rng.uniform(0.1, 5.0, space.n_continuous),
        rng.uniform(0.1, 5.0, space.n_integer),
        *mats,
    ]))


# ---------------------------------------------------------------------------
# correlation matrix / vector
# ---------------------------------------------------------------------------

def test_correlation_matrix_single_point():
    space = DesignSpace((Continuous("x", 0.0, 1.0),))
    ds = Dataset(space, (MixedPoint((0.4,)),), np.array([1.0]))
    theta = HyperparameterSet.from_flat(space, K.GD, [1.0])
    assert correlation_matrix(ds, theta).tolist() == [[1.0]]


def test_correlation_matrix_duplicates_and_jitter():
    space = DesignSpace((Continuous("x", 0.0, 1.0),))
    ds = Dataset(space, (MixedPoint((0.4,)), MixedPoint((0.4,))), np.array([1.0, 1.0]))
    theta = HyperparameterSet.from_flat(space, K.GD, [1.0])
    R = correlation_matrix(ds, theta)
    assert np.array_equal(R, np.ones((2, 2)))
    # rank-deficient but factorable thanks to escalation
    value = concentrated_log_likelihood(ds, theta)
    assert math.isfinite(value)


def test_correlation_matrix_matches_mixed_kernel_on_normalized_points():
    rng = np.random.default_rng(0)
    ds = mixed_dataset(8)
    normalized = [normalize(ds.space, w) for w in ds.points]
    for kind in K:
        theta = random_theta(ds.space, kind, rng)
        for p in (1, 2):
            R = correlation_matrix(ds, theta, p)
            assert np.allclose(np.diag(R), 1.0)
            assert np.allclose(R, R.T)
            expected = [[mixed_kernel(a, b, theta, p) for b in normalized] for a in normalized]
            assert np.max(np.abs(R - expected)) <= 1e-14, (kind, p)


def test_correlation_matrix_ehh_single_level_difference():
    space = DesignSpace((Categorical("c", ("a", "b", "c")),))
    ds = Dataset(space, (MixedPoint(categorical=(1,)), MixedPoint(categorical=(2,))),
                 np.array([0.0, 1.0]))
    theta = HyperparameterSet.from_flat(space, K.EHH, [math.pi / 2] * 3)
    R = correlation_matrix(ds, theta)
    assert R[0, 1] == pytest.approx(EPSILON, rel=1e-9)


# ---------------------------------------------------------------------------
# concentrated likelihood
# ---------------------------------------------------------------------------

def test_likelihood_identity_matrix_closed_form():
    # far-apart points with huge theta decorrelate: R ~ I
    space = DesignSpace((Continuous("x", 0.0, 1.0),))
    xs = np.linspace(0.05, 0.95, 6)
    y = np.array([1.2, -0.3, 0.0, 0.8, -1.7, 0.0])
    y -= y.mean()
    ds = Dataset(space, tuple(MixedPoint((float(v),)) for v in xs), y)
    theta = HyperparameterSet.from_flat(space, K.GD, [3000.0])
    n = len(y)
    expected = -0.5 * n * math.log(y @ y / n) - 0.5 * n * (1 + math.log(2 * math.pi))
    value = concentrated_log_likelihood(ds, theta, 2, jitter=1e-300)
    assert value == pytest.approx(expected, rel=1e-9)


def test_likelihood_matches_dense_inverse_oracle():
    rng = np.random.default_rng(5)
    ds_full = mixed_dataset(8, seed=7)
    for kind in (K.GD, K.CR, K.EHH, K.FE, K.HH):
        theta = random_theta(ds_full.space, kind, rng)
        jitter = 1e-10
        value = concentrated_log_likelihood(ds_full, theta, 2, jitter)
        R = correlation_matrix(ds_full, theta, 2) + jitter * np.eye(8)
        Rinv = np.linalg.inv(R)
        y = ds_full.targets
        ones = np.ones(8)
        mu = (ones @ Rinv @ y) / (ones @ Rinv @ ones)
        sigma2 = (y - mu) @ Rinv @ (y - mu) / 8
        sign, logdet = np.linalg.slogdet(R)
        oracle = -4 * math.log(sigma2) - 0.5 * logdet - 4 * (1 + math.log(2 * math.pi))
        assert value == pytest.approx(oracle, abs=1e-8)


def test_likelihood_of_constant_targets_is_floored():
    # targets without variance score against the variance floor, not log 0
    space = DesignSpace((Continuous("x", 0.0, 1.0),))
    ds = Dataset(space, (MixedPoint((0.25,)), MixedPoint((0.75,))), np.array([3.0, 3.0]))
    theta = HyperparameterSet.from_flat(space, K.GD, [1.0])
    value = concentrated_log_likelihood(ds, theta)
    assert math.isfinite(value)


def test_cholesky_escalation_raises_on_indefinite():
    # as tests/test_evaluator.py's indefinite() builds one: rates and packed
    # diagonals of -30 put entries near exp(60) off R's diagonal
    ds = Dataset(mixed_space(), lhs(mixed_space(), 6, 2), np.arange(6.0))
    mask = search_bounds(ds.space, K.CR)[2]
    ws = gp._Workspace(ds.points, K.CR, 2, ds.targets)
    with pytest.raises(NumericalFailure):
        ws.evaluate(np.where(mask, -30.0, 0.0))


def test_cholesky_escalation_reports_jitter_used():
    # exact duplicate points make R singular.  JITTER_DEFAULT already makes
    # R + jitter*I factorable, so start from a jitter that 1.0 + jitter
    # rounds away: the factorization fails until the jitter has escalated
    space = DesignSpace((Continuous("x", 0.0, 1.0),))
    ds = Dataset(space, (MixedPoint((0.5,)), MixedPoint((0.5,))), np.array([1.0, 2.0]))
    theta = HyperparameterSet.from_flat(space, K.GD, [1.0])
    start = 1e-18
    ev = gp._Workspace(ds.points, K.GD, 2, ds.targets, start).evaluate(theta.flat)
    assert ev.jitter > start and 1.0 + ev.jitter > 1.0
    lower = np.tril(ev.chol)  # the factor is the lower triangle; the upper one is not cleared
    R = correlation_matrix(ds, theta)
    assert np.array_equal(R, np.ones((2, 2)))
    assert np.allclose(lower @ lower.T, R + ev.jitter * np.eye(2), rtol=0.0, atol=1e-15)


def test_log_det_identity_on_random_matrices():
    rng = np.random.default_rng(9)
    for _ in range(20):
        A = rng.normal(size=(5, 5))
        spd = A @ A.T + 5 * np.eye(5)
        chol = np.linalg.cholesky(spd)
        log_det = 2 * np.sum(np.log(np.diag(chol)))
        assert log_det == pytest.approx(math.log(np.linalg.det(spd)), abs=1e-8)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values", [
    {"n_starts": 0}, {"max_evals": 0}, {"max_evals": -5}, {"jitter": 0.0}, {"jitter": -1e-10},
    {"jitter": math.inf}, {"jitter": math.nan},
], ids=repr)
def test_fit_config_refuses_values_outside_its_domain(values):
    with pytest.raises(ValueError):
        FitConfig(**values)


@pytest.mark.parametrize("values", [{"n_starts": 2.5}, {"max_evals": 20.5}, {"n_starts": 2.0},
                                    {"max_evals": np.float64(20.0)}], ids=repr)
def test_fit_config_counts_must_be_whole_numbers(values):
    with pytest.raises(TypeError):
        FitConfig(**values)


@pytest.mark.parametrize("values", [{"n_starts": True}, {"max_evals": True},
                                    {"max_evals": False}], ids=repr)
def test_fit_config_counts_refuse_bools(values):
    with pytest.raises(TypeError, match="whole number"):
        FitConfig(**values)


def test_fit_config_extra_starts_are_a_tuple_of_hyperparameter_sets():
    space = mixed_space()
    theta = random_theta(space, K.CR, np.random.default_rng(0))
    assert FitConfig(extra_starts=[theta]).extra_starts == (theta,)
    assert FitConfig(extra_starts=iter([theta, theta])).extra_starts == (theta, theta)
    for starts, match in [(theta, "bare"), ([theta.flat], "only"), (np.zeros((1, 3)), "only"),
                          ([theta, None], "only")]:
        with pytest.raises(TypeError, match=match):
            FitConfig(extra_starts=starts)


def test_fit_config_takes_no_diagonal_start_only_with_a_warm_start():
    theta = random_theta(mixed_space(), K.CR, np.random.default_rng(0))
    with pytest.raises(ValueError, match="^n_starts must be >= 1$"):
        FitConfig(n_starts=0)
    # the check runs on the stored tuple, so an iterator of sets counts as a warm start
    config = FitConfig(n_starts=0, extra_starts=iter([theta]))
    assert (config.n_starts, config.extra_starts) == (0, (theta,))
    with pytest.raises(ValueError, match="^n_starts must be >= 0$"):
        FitConfig(n_starts=-1, extra_starts=[theta])


def test_a_fit_with_no_diagonal_start_searches_from_its_warm_starts_alone():
    ds = mixed_dataset(10)
    warm = random_theta(ds.space, K.CR, np.random.default_rng(1))
    model = fit(ds, K.CR, 2, FitConfig(n_starts=0, max_evals=40, extra_starts=(warm,)))
    [record] = model.start_log
    assert record.start_index == 0 and record.best_value == model.log_likelihood
    with_diagonal = fit(ds, K.CR, 2, FitConfig(n_starts=2, max_evals=40, extra_starts=(warm,)))
    assert tuple(with_diagonal.start_log[2])[1:3] == tuple(record)[1:3]


def test_fit_refuses_a_one_point_dataset(monkeypatch):
    # a dataset holds at least one point; a fit needs two
    space = mixed_space()
    ds = Dataset(space, lhs(space, 1, seed=0), [0.5])
    monkeypatch.setattr(gp, "_Workspace", lambda *args: pytest.fail("a likelihood was built"))
    with pytest.raises(ValueError, match="^a fit needs at least 2 points, the dataset has 1$"):
        fit(ds, K.GD, 2, FitConfig(n_starts=1, max_evals=5))


@pytest.mark.parametrize("entry", ["build_model", "concentrated_log_likelihood", "load_model"])
def test_a_one_point_dataset_is_refused_at_every_entry(tmp_path, monkeypatch, entry):
    # one point scores the variance floor's likelihood at every theta, so
    # every entry that scores a design refuses it as fit does
    ds = mixed_dataset(2)
    theta = random_theta(ds.space, K.CR, np.random.default_rng(6))
    path = tmp_path / "model.json"
    save_model(build_model(ds, theta), path)
    doc = json.loads(path.read_text())
    doc["points"] = {name: rows[:1] for name, rows in doc["points"].items()}
    doc["targets"] = doc["targets"][:1]
    path.write_text(json.dumps(doc))
    one = Dataset(ds.space, ds.points[:1], ds.targets[:1])
    calls = {"build_model": lambda: build_model(one, theta),
             "concentrated_log_likelihood": lambda: concentrated_log_likelihood(one, theta),
             "load_model": lambda: load_model(path)}
    monkeypatch.setattr(gp, "_Workspace", lambda *args: pytest.fail("a likelihood was built"))
    with pytest.raises(ValueError, match="^a fit needs at least 2 points, the dataset has 1$"):
        calls[entry]()


def test_fit_config_takes_numpy_integer_counts():
    config = FitConfig(n_starts=np.int64(2), max_evals=np.int32(20))
    model = fit(mixed_dataset(8), K.GD, 2, config)
    assert [record.n_evals <= 20 for record in model.start_log] == [True, True]


@pytest.mark.parametrize("call", ["fit", "build_model"])
@pytest.mark.parametrize("p", [0, 3])
def test_an_exponent_other_than_1_or_2_is_refused(call, p):
    ds = mixed_dataset(8)
    theta = random_theta(ds.space, K.CR, np.random.default_rng(0))
    calls = {"fit": lambda: fit(ds, K.CR, p, FitConfig(n_starts=1, max_evals=10)),
             "build_model": lambda: build_model(ds, theta, p)}
    with pytest.raises(ValueError, match=f"exponent p must be 1 or 2, got {p}"):
        calls[call]()


@pytest.mark.parametrize("call", ["fit", "build_model", "concentrated_log_likelihood",
                                  "correlation_matrix"])
@pytest.mark.parametrize("p", [2.5, 1.9, 2.0, True, np.float64(1.0)], ids=repr)
def test_an_exponent_that_is_not_an_integer_is_refused_not_rounded(call, p):
    ds = mixed_dataset(8)
    theta = random_theta(ds.space, K.CR, np.random.default_rng(0))
    calls = {"fit": lambda: fit(ds, K.CR, p, FitConfig(n_starts=1, max_evals=10)),
             "build_model": lambda: build_model(ds, theta, p),
             "concentrated_log_likelihood": lambda: concentrated_log_likelihood(ds, theta, p),
             "correlation_matrix": lambda: correlation_matrix(ds, theta, p)}
    with pytest.raises(ValueError, match=f"^exponent p must be 1 or 2, got {re.escape(repr(p))}$"):
        calls[call]()


@pytest.mark.parametrize("entry", ["FitConfig", "build_model", "concentrated_log_likelihood"])
@pytest.mark.parametrize("jitter", [True, np.True_], ids=repr)
def test_a_bool_jitter_is_refused_at_every_entry(entry, jitter):
    ds = mixed_dataset(8)
    theta = random_theta(ds.space, K.CR, np.random.default_rng(1))
    calls = {"FitConfig": lambda: FitConfig(jitter=jitter),
             "build_model": lambda: build_model(ds, theta, 2, jitter),
             "concentrated_log_likelihood":
                 lambda: concentrated_log_likelihood(ds, theta, 2, jitter)}
    with pytest.raises(ValueError, match=f"^jitter must be a number, not a bool, "
                                         f"got {re.escape(repr(jitter))}$"):
        calls[entry]()


@pytest.mark.parametrize("entry", ["build_model", "concentrated_log_likelihood", "load_model"])
@pytest.mark.parametrize("jitter", [0.0, -1e-12, math.nan, math.inf], ids=repr)
def test_a_jitter_that_is_not_positive_and_finite_is_refused_at_every_entry(tmp_path, entry,
                                                                           jitter):
    from mixedgp.errors import ParseError

    ds = mixed_dataset(8)
    theta = random_theta(ds.space, K.CR, np.random.default_rng(1))
    message = f"jitter must be positive and finite, got {jitter!r}"
    if entry == "load_model":
        path = tmp_path / "model.json"
        save_model(build_model(ds, theta), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "jitter": jitter}))
        with pytest.raises(ParseError, match=re.escape(f"{path}: invalid model file: {message}")):
            load_model(path)
        return
    calls = {"build_model": lambda: build_model(ds, theta, 2, jitter),
             "concentrated_log_likelihood":
                 lambda: concentrated_log_likelihood(ds, theta, 2, jitter)}
    with pytest.raises(ValueError, match=f"^{message}$"):
        calls[entry]()


def test_fit_interpolates_every_kind():
    ds = mixed_dataset(30)
    for kind in K:
        model = fit(ds, kind, 2, FitConfig(n_starts=2, max_evals=1500))
        means, variances = predict(model, ds.points)
        rel = np.abs(means - ds.targets) / (1.0 + np.abs(ds.targets))
        assert np.max(rel) <= 1e-6
        assert np.max(variances) <= 10.0 * model.jitter * model.sigma2_hat


def test_fit_likelihood_consistency_exact():
    ds = mixed_dataset(20)
    model = fit(ds, K.CR, 2, FitConfig(n_starts=2, max_evals=800))
    again = concentrated_log_likelihood(
        model.standardized_dataset(), model.theta_star, model.p, model.jitter
    )
    assert again == model.log_likelihood


def test_fit_multistart_monotone_on_nested_starts():
    ds = mixed_dataset(18)
    base = fit(ds, K.GD, 2, FitConfig(n_starts=1, max_evals=600))
    richer = fit(
        ds, K.GD, 2,
        FitConfig(n_starts=1, max_evals=600, extra_starts=(base.theta_star,)),
    )
    assert richer.log_likelihood >= base.log_likelihood


def test_every_start_says_why_it_stopped(monkeypatch):
    """Small cosine fits of every kind: each start's stop reason matches how it ended.

    A budget start stopped within one stencil of its budget.  A converged
    start halved its radius after its last stencil, scored at a radius of at
    least ``FINAL_STEP``; rerun alone, that stencil is the objective's last
    block, and its rows step away from the centre by that radius.
    """
    from mixedgp import gp
    from mixedgp.benchmarks import cosine_function, cosine_space
    from mixedgp.optimize import FINAL_STEP, local_search

    calls = []

    def recording(objective, bounds, n_starts, max_evals, **kwargs):
        calls.append((objective, bounds, n_starts, max_evals, kwargs))
        return multistart(objective, bounds, n_starts, max_evals, **kwargs)

    multistart = gp.multistart
    monkeypatch.setattr(gp, "multistart", recording)
    space = cosine_space()
    points = lhs(space, 20, seed=1)
    ds = Dataset(space, points, [cosine_function(w.continuous[0], w.categorical[0])
                                 for w in points])
    seen = set()
    for kind in K:
        model = fit(ds, kind, 2, FitConfig(n_starts=3, max_evals=300))
        objective, bounds, n_starts, max_evals, kwargs = calls.pop()
        assert max_evals == 300
        width = bounds.upper - bounds.lower
        starts = [bounds.lower + (i + 0.5) / n_starts * width for i in range(n_starts)]
        for record in model.start_log:
            seen.add(record.stop)
            if record.stop == "budget":
                assert record.n_evals > max_evals - bounds.dim
                continue
            assert record.stop == "converged"
            blocks = []

            def block(V):
                blocks.append(np.array(V))
                return kwargs["batch_objective"](V)

            again = local_search(objective, bounds, starts[record.start_index], max_evals,
                                 batch_objective=block)
            assert again.n_evals == record.n_evals
            stencil = blocks[-1]
            radius = np.max(np.abs(stencil[0] - stencil[1]) / width)
            assert FINAL_STEP <= radius * (1 + 1e-6) and radius / 2 < FINAL_STEP
    assert seen == {"budget", "converged"}


def test_fit_chol_reproduces_correlation():
    ds = mixed_dataset(15)
    model = fit(ds, K.EHH, 2, FitConfig(n_starts=1, max_evals=500))
    R = correlation_matrix(ds, model.theta_star, 2) + model.jitter * np.eye(15)
    rebuilt = model.chol @ model.chol.T
    assert np.linalg.norm(rebuilt - R) / np.linalg.norm(R) < 1e-10


def test_fit_smooth_1d_recovery():
    space = DesignSpace((Continuous("x", 0.0, 1.0),))
    xs = np.linspace(0.0, 1.0, 20)
    ds = Dataset(space, tuple(MixedPoint((float(x),)) for x in xs), np.sin(2 * np.pi * xs))
    model = fit(ds, K.EHH, 2, FitConfig(n_starts=5))
    grid = np.linspace(0.0, 1.0, 257)
    means, _ = predict(model, tuple(MixedPoint((float(x),)) for x in grid))
    assert math.sqrt(np.mean((means - np.sin(2 * np.pi * grid)) ** 2)) < 1e-2


def test_fit_warm_start_kind_mismatch():
    ds = mixed_dataset(10)
    gd_model = fit(ds, K.GD, 2, FitConfig(n_starts=1, max_evals=300))
    from mixedgp.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        fit(ds, K.CR, 2, FitConfig(n_starts=1, extra_starts=(gd_model.theta_star,)))


@pytest.mark.parametrize("layout", [(1, (3,)), (2, (13,))], ids=["levels", "rates"])
def test_fit_rejects_warm_start_of_another_layout(layout, monkeypatch):
    """A warm start built for another space fails at entry, before any evaluation."""
    from mixedgp.benchmarks import cosine_space
    from mixedgp.errors import ShapeMismatch

    space = cosine_space()
    ds = Dataset(space, lhs(space, 20, seed=0), np.arange(20.0))
    n_rates, (L,) = layout
    warm = HyperparameterSet(K.CR, layout, np.ones(n_rates + L))

    def evaluate(*args):
        raise AssertionError("evaluated before the warm start was checked")

    monkeypatch.setattr("mixedgp.gp._Workspace.evaluate", evaluate)
    with pytest.raises(ShapeMismatch, match="layout"):
        fit(ds, K.CR, 2, FitConfig(n_starts=1, extra_starts=(warm,)))


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_constant_dataset():
    space = DesignSpace((Continuous("x", 0.0, 1.0),))
    xs = np.linspace(0.1, 0.9, 7)
    ds = Dataset(space, tuple(MixedPoint((float(x),)) for x in xs), np.full(7, 4.25))
    model = build_model(ds, HyperparameterSet.from_flat(space, K.GD, [2.0]))
    means, _ = predict(model, (MixedPoint((0.33,)), MixedPoint((0.77,))))
    assert np.allclose(means, 4.25, atol=1e-9)


def test_predict_far_point_variance_limit():
    space = DesignSpace((Continuous("x", 0.0, 1000.0),))
    xs = [0.0, 1.0, 2.0]
    ds = Dataset(space, tuple(MixedPoint((float(x),)) for x in xs), np.array([0.1, 0.5, -0.2]))
    theta = HyperparameterSet.from_flat(space, K.GD, [3e3])
    model = build_model(ds, theta)
    far = MixedPoint((1000.0,))
    # r(w) ~ 0: variance tends to sigma2 * (1 + 1/(1' R^-1 1))
    R = correlation_matrix(ds, theta) + model.jitter * np.eye(3)
    expected = model.sigma2_hat * (1.0 + 1.0 / np.sum(np.linalg.inv(R)))
    means, variances = predict(model, [far])
    assert variances[0] == pytest.approx(expected, rel=1e-6)
    assert means[0] == pytest.approx(model.mu_hat, abs=1e-9)


def test_predict_variance_nonnegative():
    ds = mixed_dataset(25)
    model = fit(ds, K.GD, 2, FitConfig(n_starts=2, max_evals=500))
    pts = lhs(ds.space, 60, seed=123)
    _, variances = predict(model, pts)
    assert np.all(variances >= 0.0)


def test_prediction_affine_equivariance():
    ds = mixed_dataset(16)
    rng = np.random.default_rng(3)
    theta = random_theta(ds.space, K.CR, rng)
    a, b = 3.7, -11.0
    scaled = ds.with_targets(a * ds.targets + b)
    m1 = build_model(ds, theta)
    m2 = build_model(scaled, theta)
    pts = lhs(ds.space, 20, seed=9)
    mean1, var1 = predict(m1, pts)
    mean2, var2 = predict(m2, pts)
    assert np.allclose(mean2, a * mean1 + b, rtol=1e-9, atol=1e-9)
    assert np.allclose(var2, a * a * var1, rtol=1e-9, atol=1e-12)


def test_predict_empty_points():
    ds = mixed_dataset(10)
    model = build_model(ds, random_theta(ds.space, K.GD, np.random.default_rng(2)))
    means, variances = predict(model, ())
    assert means.size == 0 and variances.size == 0


# The kept inverse of the Cholesky factor against the triangular solve it
# replaced: fixed hyperparameters for every kind, p and space, and fitted
# cosine models as ill-conditioned as criterion 6's (cond(R) >= 1e10).
FIXED_SPACES = {"cosine": (cosine_space, 60), "beam": (beam_space, 60),
                "categorical-only": (categorical_only_space, 40)}
FITTED = [(2, K.GD, 2), (1, K.CR, 2), (2, K.EHH, 2)]  # (design seed, kind, starts)


def cosine_dataset(seed, n=98):
    space = cosine_space()
    points = lhs(space, n, seed)
    return Dataset(space, points, [cosine_function(w.continuous[0], w.categorical[0])
                                   for w in points])


def fitted_cosine(seed, kind, n_starts):
    return fit(cosine_dataset(seed), kind, 2, FitConfig(n_starts=n_starts, max_evals=1500))


def check_variances(model):
    points = lhs(model.dataset.space, 300, seed=7)  # more than one prediction chunk
    _, variances = predict(model, points)
    assert np.max(variances) >= 1e-3 * model.sigma2_hat  # a wrong quadratic term would show
    worst = np.max(np.abs(variances - one_shot_predict(model, points)[1]))
    assert worst <= VARIANCE_TOL * model.sigma2_hat, worst
    _, at_training = predict(model, model.dataset.points)
    assert np.max(at_training) <= 10.0 * model.jitter * model.sigma2_hat


@pytest.mark.parametrize("space", FIXED_SPACES)
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", list(K), ids=lambda kind: kind.value)
def test_variance_agrees_with_the_triangular_solve(space, p, kind):
    make_space, n_train = FIXED_SPACES[space]
    check_variances(model_on(make_space(), kind, p, n_train))


@pytest.mark.parametrize("seed, kind, n_starts", FITTED,
                         ids=[f"seed{s}-{k.value}" for s, k, _ in FITTED])
def test_variance_agrees_with_the_triangular_solve_on_ill_conditioned_fits(seed, kind, n_starts):
    model = fitted_cosine(seed, kind, n_starts)
    assert np.linalg.cond(correlation_matrix(model.dataset, model.theta_star, 2)) >= 1e10
    check_variances(model)


_RERUN_SCRIPT = """
import sys
import numpy as np
import test_gp as t
from mixedgp import gp
out = {}
for name, make in [("fitted", lambda: t.fitted_cosine(1, t.K.CR, 2)),
                   ("fixed", lambda: t.model_on(t.beam_space(), t.K.EHH, 1, 98))]:
    model = make()
    gp.save_model(model, sys.argv[1])
    points = t.lhs(model.dataset.space, 300, seed=7)
    runs = [gp.predict(m, points) for m in (model, make(), gp.load_model(sys.argv[1]))]
    assert all(np.array_equal(a, b) for run in runs[1:] for a, b in zip(runs[0], run)), name
    out[name + "_means"], out[name + "_variances"] = runs[0]
    out[name + "_sigma2"] = model.sigma2_hat
np.savez(sys.argv[2], **out)
"""


def test_rerun_and_reload_predict_the_same_bits_with_one_and_two_blas_threads(tmp_path):
    """Within a BLAS thread count every bit repeats; across counts the means do.

    The variances may differ across thread counts in their last bits, within
    the oracle's tolerance: OpenBLAS splits a triangular multiply's columns
    between its threads.
    """
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (path, env.get("PYTHONPATH")) if p)
        out = tmp_path / f"threads{threads}.npz"
        result = subprocess.run([sys.executable, "-c", _RERUN_SCRIPT, str(tmp_path / "model.json"),
                                 str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        results.append(np.load(out))
    one, two = results
    for name in ("fitted", "fixed"):
        assert np.array_equal(one[name + "_means"], two[name + "_means"])
        worst = np.max(np.abs(one[name + "_variances"] - two[name + "_variances"]))
        assert worst <= VARIANCE_TOL * one[name + "_sigma2"], (name, worst)


def test_standardize_targets():
    ds = mixed_dataset(12)
    std, mean, scale = standardize_targets(ds)
    assert mean == pytest.approx(float(np.mean(ds.targets)))
    assert np.mean(std.targets) == pytest.approx(0.0, abs=1e-12)
    assert np.std(std.targets) == pytest.approx(1.0, rel=1e-12)
    flat = ds.with_targets(np.zeros(len(ds)))
    std2, _, scale2 = standardize_targets(flat)
    assert scale2 == 1.0 and np.all(std2.targets == 0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_roundtrip_bit_identical(tmp_path):
    ds = mixed_dataset(22)
    model = fit(ds, K.EHH, 2, FitConfig(n_starts=2, max_evals=800))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    pts = lhs(ds.space, 40, seed=77)
    m1, v1 = predict(model, pts)
    m2, v2 = predict(loaded, pts)
    assert np.array_equal(m1, m2)
    assert np.array_equal(v1, v2)
    assert loaded.log_likelihood == model.log_likelihood
    assert loaded.jitter == model.jitter


def test_load_model_rejects_other_files(tmp_path):
    from mixedgp.errors import ParseError

    path = tmp_path / "bogus.json"
    path.write_text("{}")
    with pytest.raises(ParseError):
        load_model(path)
    path2 = tmp_path / "not_json.json"
    path2.write_text("hello")
    with pytest.raises(ParseError):
        load_model(path2)


def _corrupted(doc, case):
    theta = doc["theta_flat"]
    return {
        "missing theta_flat": {k: v for k, v in doc.items() if k != "theta_flat"},
        "theta_flat not a list": {**doc, "theta_flat": "1.0"},
        "p not an int": {**doc, "p": 2.5},
        "non-finite theta": {**doc, "theta_flat": [float("nan")] + theta[1:]},
        "negative continuous rate": {**doc, "theta_flat": [-1.0] + theta[1:]},
        "negative CR diagonal": {**doc, "theta_flat": theta[:-1] + [-0.1]},
        "non-positive jitter": {**doc, "jitter": 0.0},
        "epsilon other than exp(-20)": {**doc, "epsilon": 1e-3},
        "fit_seconds null": {**doc, "fit_seconds": None},
        "fit_seconds a string": {**doc, "fit_seconds": "abc"},
        "fit_seconds a bool": {**doc, "fit_seconds": True},
        "version 99": {**doc, "version": 99},
        "version a string": {**doc, "version": "two"},
        "version null": {**doc, "version": None},
        "no version": {k: v for k, v in doc.items() if k != "version"},
    }[case]


@pytest.mark.parametrize("case", [
    "missing theta_flat", "theta_flat not a list", "p not an int", "non-finite theta",
    "negative continuous rate", "negative CR diagonal", "non-positive jitter",
    "epsilon other than exp(-20)", "fit_seconds null", "fit_seconds a string",
    "fit_seconds a bool", "version 99", "version a string", "version null", "no version",
])
def test_load_model_validates_keys_types_and_domains(tmp_path, case):
    from mixedgp.errors import ParseError

    ds = mixed_dataset(10)
    path = tmp_path / "model.json"
    save_model(build_model(ds, random_theta(ds.space, K.CR, np.random.default_rng(4))), path)
    path.write_text(json.dumps(_corrupted(json.loads(path.read_text()), case)))
    with pytest.raises(ParseError):
        load_model(path)


def test_load_model_without_fit_seconds_reads_zero(tmp_path):
    ds = mixed_dataset(10)
    path = tmp_path / "model.json"
    model = build_model(ds, random_theta(ds.space, K.CR, np.random.default_rng(4)))
    save_model(model, path)
    doc = json.loads(path.read_text())
    del doc["fit_seconds"]
    path.write_text(json.dumps(doc))
    reloaded = load_model(path)
    assert reloaded.fit_seconds == 0.0
    assert reloaded.theta_star == model.theta_star


@pytest.mark.parametrize("name, change, rows", [
    ("continuous", "extra row", 11),
    ("integer", "emptied", 0),
    ("categorical", "last row dropped", 9),
])
def test_load_model_requires_one_point_row_per_target(tmp_path, name, change, rows):
    from mixedgp.errors import ParseError

    ds = mixed_dataset(10)
    path = tmp_path / "model.json"
    save_model(build_model(ds, random_theta(ds.space, K.CR, np.random.default_rng(5))), path)
    doc = json.loads(path.read_text())
    lists = doc["points"]
    lists[name] = {"extra row": lists[name] + lists[name][:1], "emptied": [],
                   "last row dropped": lists[name][:-1]}[change]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=f"points.{name} holds {rows} rows for 10 targets"):
        load_model(path)
