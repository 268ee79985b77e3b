import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mixedgp.benchmarks import (
    BenchmarkResult,
    CantileverConfig,
    NORMALIZED_INERTIA,
    beam_space,
    cantilever_deflection,
    cosine_function,
    cosine_space,
    dragon_space,
    dragon_space_audit,
    pva,
    rmse,
    run_cosine_benchmark,
    write_benchmark_report,
    _warm_starts,
)
from mixedgp.doe import grid, lhs
from mixedgp.errors import DimensionMismatch
from mixedgp.gp import FitConfig, concentrated_log_likelihood, fit, standardize_targets
from mixedgp.kernels import (
    EPSILON,
    THETA_LOG_BOUNDS,
    CategoricalKernelKind,
    HyperparameterSet,
    categorical_matrix,
    categorical_param_count,
    hyperparameter_count,
    set_from_search_vector,
)
from mixedgp.space import Dataset

K = CategoricalKernelKind


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_rmse_values():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([1.0, 1.0], [0.0, 2.0]) == pytest.approx(1.0)
    assert rmse([3.0], [1.0]) == pytest.approx(2.0)
    with pytest.raises(DimensionMismatch):
        rmse([1.0], [1.0, 2.0])


def test_pva_values():
    errors2 = np.array([0.5, 2.0, 1.25])
    assert pva(np.sqrt(errors2), np.zeros(3) + errors2, np.zeros(3)) == pytest.approx(0.0)
    assert pva([1.0, 1.0], [1.0 / math.e, 1.0 / math.e], [0.0, 0.0]) == pytest.approx(1.0)
    # ratios (1, 3) -> log 2
    assert pva([1.0, math.sqrt(3)], [1.0, 1.0], [0.0, 0.0]) == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError):
        pva([1.0], [0.0], [0.0])


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(0)
    preds, var, truth = rng.random(30), rng.random(30) + 0.1, rng.random(30)
    perm = rng.permutation(30)
    assert rmse(preds, truth) == pytest.approx(rmse(preds[perm], truth[perm]))
    assert pva(preds, var, truth) == pytest.approx(pva(preds[perm], var[perm], truth[perm]))


# ---------------------------------------------------------------------------
# cosine problem
# ---------------------------------------------------------------------------

def test_cosine_hand_values():
    assert cosine_function(0.0, 10) == pytest.approx(math.cos(-0.5), rel=1e-12)
    assert cosine_function(0.0, 13) == pytest.approx(math.cos(-0.65), rel=1e-12)


def test_cosine_range_and_levels():
    xs = np.linspace(0.0, 1.0, 200)
    for level in range(1, 14):
        values = cosine_function(xs, level)
        assert np.all(np.abs(values) <= 1.0)
    with pytest.raises(ValueError):
        cosine_function(0.5, 14)


def test_cosine_within_group_translation_structure():
    # same-group curves differ only by a phase shift: f(x, c) equals
    # cos(w x + phi_c), so acos comparisons recover the analytic phases
    xs = np.linspace(0.0, 1.0, 400)
    for c in range(1, 10):
        phase = 0.4 * math.pi + math.pi / 15.0 * c - c / 20.0
        assert np.allclose(cosine_function(xs, c), np.cos(3.5 * math.pi * xs + phase))
    for c in range(10, 14):
        assert np.allclose(cosine_function(xs, c), np.cos(3.5 * math.pi * xs - c / 20.0))


def test_cosine_space_shape():
    space = cosine_space()
    assert space.n_continuous == 1 and space.level_counts == (13,)


# ---------------------------------------------------------------------------
# cantilever beam
# ---------------------------------------------------------------------------

def test_beam_hand_value():
    cfg = CantileverConfig(inertia=(1.0,) * 12)
    assert cantilever_deflection(cfg, 1, 10.0, 1.0) == pytest.approx(5e7 / 6e11, rel=1e-12)


def test_beam_scalings():
    cfg = CantileverConfig()
    base = cantilever_deflection(cfg, 3, 12.0, 1.5)
    assert cantilever_deflection(cfg, 3, 24.0, 1.5) == pytest.approx(8 * base)
    assert cantilever_deflection(cfg, 3, 12.0, 3.0) == pytest.approx(base / 4)


def test_beam_monotonicity():
    cfg = CantileverConfig()
    assert cantilever_deflection(cfg, 1, 15.0, 1.0) > cantilever_deflection(cfg, 1, 14.0, 1.0)
    assert cantilever_deflection(cfg, 1, 15.0, 1.2) < cantilever_deflection(cfg, 1, 15.0, 1.0)
    # thinner sections of the same shape carry larger normalized inertia
    for shape in range(4):
        thin, thick, solid = NORMALIZED_INERTIA[3 * shape: 3 * shape + 3]
        assert thin > thick > solid > 0


def test_beam_config_validation():
    with pytest.raises(ValueError):
        CantileverConfig(inertia=(1.0,) * 11)
    with pytest.raises(ValueError):
        CantileverConfig(inertia=(0.0,) + (1.0,) * 11)
    with pytest.raises(ValueError):
        cantilever_deflection(CantileverConfig(), 13, 10.0, 1.0)


def test_vectorised_truths_equal_per_point_truths():
    """The benchmark truths take whole batches; the per-point calls are the reference."""
    cfg = CantileverConfig()
    for points in [grid(beam_space(), (30, 30))] + [lhs(beam_space(), 98, s) for s in range(3)]:
        per_point = [cantilever_deflection(cfg, w.categorical[0], w.continuous[0], w.continuous[1])
                     for w in points]
        assert cantilever_deflection(cfg, points.C[:, 0], points.X[:, 0], points.X[:, 1]).tolist() \
            == per_point
    for points in [grid(cosine_space(), (1000,))] + [lhs(cosine_space(), 98, s) for s in range(3)]:
        per_point = [cosine_function(w.continuous[0], w.categorical[0]) for w in points]
        assert cosine_function(points.X[:, 0], points.C[:, 0]).tolist() == per_point
    with pytest.raises(ValueError):
        cantilever_deflection(cfg, np.array([1, 13]), 10.0, 1.0)


def test_beam_space_counts():
    space = beam_space()
    assert hyperparameter_count(space, K.GD) == 3
    assert hyperparameter_count(space, K.CR) == 14
    assert hyperparameter_count(space, K.EHH) == 68


# ---------------------------------------------------------------------------
# DRAGON audit
# ---------------------------------------------------------------------------

def test_dragon_audit_counts():
    report = dragon_space_audit()
    assert report["relaxed_total"] == 21
    assert report["hyperparameters"] == {"gd": 12, "cr": 21, "ehh": 47}
    assert report["n_categorical"] == 2
    assert dragon_space().level_counts == (9, 2)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def test_benchmark_result_validation():
    with pytest.raises(ValueError):
        BenchmarkResult(K.GD, 2, 2, -1.0, 0.0, 0.0, 0)


def test_tiny_cosine_benchmark_runs_every_kind():
    # deliberately undersized DoE: no ordering asserted, fits just succeed
    fast = FitConfig(n_starts=1, max_evals=150)
    results, corr, errors = run_cosine_benchmark(
        ["gd", "cr", "ehh"], doe_size=5, seed=0, fit_config=fast
    )
    assert not errors
    assert [r.kind for r in results] == [K.GD, K.CR, K.EHH]
    for r in results:
        assert r.n_hyper == hyperparameter_count(cosine_space(), r.kind)
        assert math.isfinite(r.rmse) and r.rmse >= 0
        assert math.isfinite(r.pva)
    assert corr[K.GD].shape == (13, 13)
    off = corr[K.GD][~np.eye(13, dtype=bool)]
    assert np.unique(off).size == 1  # one shared mean correlation


def test_benchmark_results_keep_input_order():
    fast = FitConfig(n_starts=1, max_evals=100)
    results, _, _ = run_cosine_benchmark(["ehh", "gd"], doe_size=5, seed=1, fit_config=fast)
    assert [r.kind for r in results] == [K.EHH, K.GD]


@pytest.mark.slow
def test_fit_order_does_not_follow_the_hash_seed():
    # EHH and FE share a nesting rank; with string hashing seeded 0 and 1,
    # a set of the two iterates in opposite orders
    script = ("from mixedgp import benchmarks, gp; "
              "_, corr, _ = benchmarks.run_cosine_benchmark(['ehh', 'fe'], doe_size=10, "
              "fit_config=gp.FitConfig(n_starts=1, max_evals=5), grid_points=5); "
              "print([k.value for k in corr])")
    src = str(Path(__file__).resolve().parent.parent / "src")
    orders = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        orders.append(result.stdout.strip())
    assert orders == ["['ehh', 'fe']"] * 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cosine_gd_fit_reaches_whole_box_grid_optimum(seed):
    # brute-force oracle for the GD fits acceptance criterion 6 relies on:
    # the multistart optimum is at least the best point of a 40 x 40 grid
    # over the whole two-parameter log-theta search box
    space = cosine_space()
    points = lhs(space, 98, seed)
    y = np.array([cosine_function(w.continuous[0], w.categorical[0]) for w in points])
    dataset = Dataset(space, points, y)
    model = fit(dataset, K.GD, 2, FitConfig(seed=seed, max_evals=6000))
    standardized = standardize_targets(dataset)[0]
    axis = np.linspace(*THETA_LOG_BOUNDS, 40)
    best = max(
        concentrated_log_likelihood(
            standardized, set_from_search_vector(space, K.GD, [log_cont, log_cat])
        )
        for log_cont in axis
        for log_cat in axis
    )
    assert model.log_likelihood >= best


def test_benchmark_report_file(tmp_path):
    results = [BenchmarkResult(K.GD, 2, 2, 1.5, 0.1, 0.5, 7, -12.0)]
    path = tmp_path / "report.csv"
    write_benchmark_report(results, {K.EHH: RuntimeError("x")}, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("kernel,p,n_hyper,rmse,pva")
    assert lines[1].startswith("gd,2,2,1.5")
    assert "error:RuntimeError" in lines[2]


# ---------------------------------------------------------------------------
# warm starts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source", [K.GD, K.CR])
def test_warm_starts_reproduce_source_correlations(source):
    """Each embedded start reproduces its source's level correlations.

    CR and FE take the source's diagonal and match exactly; EHH matches to
    EPSILON, the floor it clips the source's correlations to; HH aims its
    Gram matrix at them.  A source a kind cannot represent yields no start.
    """
    rng = np.random.default_rng(5)
    lo, hi = THETA_LOG_BOUNDS
    tolerance = {K.CR: 0.0, K.FE: 0.0, K.EHH: EPSILON, K.HH: 1e-12}
    returned = dict.fromkeys(tolerance, 0)
    for draw in range(150):
        L = (2, 5, 13)[draw % 3]
        values = np.exp(rng.uniform(lo, hi, categorical_param_count(source, L)))
        theta = HyperparameterSet(source, (1, (L,)), np.concatenate([[0.7], values]))
        R_source = categorical_matrix(source, L, values)
        for kind, tol in tolerance.items():
            for start in _warm_starts(kind, {source: SimpleNamespace(theta_star=theta)}, EPSILON):
                assert start.kind is kind and np.array_equal(start.rates, [0.7])
                R = categorical_matrix(kind, L, start.variable(0))
                if tol == 0.0:
                    assert np.array_equal(R, R_source)
                else:
                    assert np.max(np.abs(R - R_source)) <= tol
                returned[kind] += 1
    # a kind starts only from sources of lower nesting rank
    assert returned[K.CR] == (150 if source is K.GD else 0)
    assert returned[K.FE] == returned[K.HH] == 150
    assert returned[K.EHH] > 100
