"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criteria 6 and 7 perform real benchmark fits and
dominate the runtime (a few minutes total, well inside their stated
budgets).
"""

import math
import statistics
import time

import numpy as np
import pytest

import mixedgp as mg
from mixedgp.benchmarks import (
    beam_space,
    cosine_function,
    cosine_space,
    dragon_space_audit,
    run_cantilever_benchmark,
    run_cosine_benchmark,
)
from mixedgp.cli import main as cli_main
from mixedgp.doe import lhs
from mixedgp.gp import (
    FitConfig,
    concentrated_log_likelihood,
    correlation_matrix,
    fit,
    predict,
    save_model,
)
from mixedgp.kernels import (
    EPSILON,
    CategoricalKernelKind,
    HyperparameterSet,
    categorical_matrix,
    hyperparameter_count,
    recover_angles_from_correlation,
)
from mixedgp.optimize import BoxBounds, multistart
from mixedgp.space import Categorical, Continuous, Dataset, DesignSpace, Integer

from conftest import random_hyper

K = CategoricalKernelKind


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_1_hyperparameter_counts():
    t0 = time.perf_counter()
    cosine = cosine_space()
    beam = beam_space()
    audit = dragon_space_audit()
    checks = {
        "cosine gd": (hyperparameter_count(cosine, K.GD), 2),
        "cosine cr": (hyperparameter_count(cosine, K.CR), 14),
        "cosine ehh": (hyperparameter_count(cosine, K.EHH), 79),
        "cosine fe": (hyperparameter_count(cosine, K.FE), 92),
        "dragon relaxed": (audit["relaxed_total"], 21),
        "dragon gd": (audit["hyperparameters"]["gd"], 12),
        "dragon cr": (audit["hyperparameters"]["cr"], 21),
        "dragon ehh": (audit["hyperparameters"]["ehh"], 47),
        "beam gd": (hyperparameter_count(beam, K.GD), 3),
        "beam cr": (hyperparameter_count(beam, K.CR), 14),
        "beam ehh": (hyperparameter_count(beam, K.EHH), 68),
    }
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in checks.items() if v[0] != v[1]}
    ok = not bad and elapsed < 1.0
    assert report(1, ok, f"hyperparameter counts exact, {elapsed:.3f}s"), bad
    assert elapsed < 1.0


def test_criterion_2_spd_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    sizes = list(range(2, 14))
    failures = []
    for kind in (K.GD, K.CR, K.EHH, K.FE):
        for draw in range(200):
            L = sizes[draw % len(sizes)]
            R = categorical_matrix(kind, L, random_hyper(kind, L, rng))
            if not np.array_equal(np.diag(R), np.ones(L)):
                failures.append((kind, draw, "diagonal"))
            if np.any(R < 0.0) or np.any(R > 1.0):
                failures.append((kind, draw, "range"))
            if np.linalg.eigvalsh(R).min() <= 0:
                failures.append((kind, draw, "eigenvalue"))
            if kind is K.EHH and np.any(R < EPSILON):
                failures.append((kind, draw, "epsilon floor"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    assert report(2, ok, f"Theorem-1 SPD suite, 800 draws, {elapsed:.1f}s"), failures[:5]


def test_criterion_3_reduction_equivalences():
    rng = np.random.default_rng(3)
    worst_gd_cr = worst_cr_fe = worst_roundtrip = 0.0
    for _ in range(100):
        L = int(rng.integers(2, 14))
        theta = float(rng.uniform(0.0, 8.0))
        R_gd = categorical_matrix(K.GD, L, [theta])
        R_cr = categorical_matrix(K.CR, L, np.full(L, theta / 2))
        worst_gd_cr = max(worst_gd_cr, float(np.max(np.abs(R_gd - R_cr))))

        diag = rng.uniform(0.0, 8.0, L)
        values = np.zeros(L * (L + 1) // 2)
        pos = 0
        for row in range(L):
            pos += row
            values[pos] = diag[row]
            pos += 1
        R_fe = categorical_matrix(K.FE, L, values)
        R_cr2 = categorical_matrix(K.CR, L, diag)
        worst_cr_fe = max(worst_cr_fe, float(np.max(np.abs(R_fe - R_cr2))))

    done = 0
    while done < 100:
        L = int(rng.integers(2, 14))
        T = categorical_matrix(K.EHH, L, random_hyper(K.EHH, L, rng))
        if np.any(T <= EPSILON):
            continue
        T2 = categorical_matrix(K.EHH, L, recover_angles_from_correlation(T))
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(T2 - T))))
        done += 1

    ok = worst_gd_cr < 1e-12 and worst_cr_fe < 1e-12 and worst_roundtrip < 1e-10
    assert report(
        3, ok,
        f"reductions gd-as-cr {worst_gd_cr:.2e}, cr-as-fe {worst_cr_fe:.2e}, "
        f"ehh-hh roundtrip {worst_roundtrip:.2e}",
    )


def test_criterion_4_categorical_p_irrelevance():
    rng = np.random.default_rng(4)
    ok = True
    for kind in K:
        for _ in range(50):
            L = int(rng.integers(2, 14))
            m = random_hyper(kind, L, rng)
            space = DesignSpace((Categorical("c", tuple(str(i) for i in range(L))),))
            levels = rng.integers(1, L + 1, size=8)
            ds = Dataset(space, [mg.MixedPoint(categorical=(int(c),)) for c in levels],
                         np.zeros(len(levels)))
            theta = HyperparameterSet(kind, (0, (L,)), m)
            R1 = correlation_matrix(ds, theta, 1)
            R2 = correlation_matrix(ds, theta, 2)
            R_levels = categorical_matrix(kind, L, m)[np.ix_(levels - 1, levels - 1)]
            ok = ok and np.array_equal(R1, R2) and np.array_equal(R1, R_levels)
    assert report(4, ok, "categorical matrices bit-identical for p=1 and p=2")


def _interpolation_dataset():
    space = DesignSpace((
        Continuous("x", 0.0, 1.0),
        Integer("z", 1, 5),
        Categorical("c", ("a", "b", "c", "d", "e")),
    ))
    points = lhs(space, 30, seed=42)
    bumps = (0.0, 1.0, -0.5, 2.0, 0.7)
    y = np.array([
        math.sin(2 * math.pi * w.continuous[0]) + 0.3 * w.integer[0]
        + bumps[w.categorical[0] - 1] * math.cos(3 * w.continuous[0])
        for w in points
    ])
    return Dataset(space, points, y)


def test_criterion_5_noiseless_interpolation():
    ds = _interpolation_dataset()
    worst = {}
    ok = True
    for kind in K:
        model = fit(ds, kind, 2, FitConfig(n_starts=2, max_evals=1500))
        means, variances = predict(model, ds.points)
        rel = float(np.max(np.abs(means - ds.targets) / (1.0 + np.abs(ds.targets))))
        var_bound = 10.0 * model.jitter * model.sigma2_hat
        worst[kind.value] = (rel, float(np.max(variances)), var_bound)
        ok = ok and rel <= 1e-6 and np.max(variances) <= var_bound
    detail = ", ".join(f"{k} resid {v[0]:.1e}" for k, v in worst.items())
    assert report(5, ok, f"30-point mixed DoE interpolation: {detail}"), worst


@pytest.mark.slow
def test_criterion_6_cosine_benchmark_ordering():
    # GD nests in CR, so CR's optimum likelihood is at least GD's; its
    # validation RMSE is not ordered against GD's (on seed 0 the converged
    # CR fit has the higher RMSE), so only EHH's median RMSE is ranked.
    t0 = time.perf_counter()
    per_kind = {}
    lls = {}
    for seed in (0, 1, 2):
        results, _, errors = run_cosine_benchmark(
            ["gd", "cr", "ehh"], doe_size=98, seed=seed,
            fit_config=FitConfig(seed=seed, max_evals=6000),
        )
        assert not errors, errors
        by_kind = {r.kind: r for r in results}
        lls[seed] = tuple(by_kind[k].log_likelihood for k in (K.GD, K.CR, K.EHH))
        for r in results:
            per_kind.setdefault(r.kind, []).append(r.rmse)
    med = {kind: statistics.median(v) for kind, v in per_kind.items()}
    elapsed = time.perf_counter() - t0
    ll_ordered = all(gd < cr < ehh for gd, cr, ehh in lls.values())
    rmse_best = med[K.EHH] < med[K.CR] and med[K.EHH] < med[K.GD]
    ok = ll_ordered and rmse_best and elapsed < 1200.0
    per_seed = "; ".join(
        f"seed {seed} {gd:.2f} < {cr:.2f} < {ehh:.2f}"
        for seed, (gd, cr, ehh) in lls.items()
    )
    detail = (
        f"median RMSE ehh {med[K.EHH]:.3f}, cr {med[K.CR]:.3f}, gd {med[K.GD]:.3f}; "
        f"log-likelihood gd < cr < ehh: {per_seed} ({elapsed:.0f}s); "
        f"requires ll gd<cr<ehh on every seed, median RMSE ehh<cr and ehh<gd"
    )
    assert report(6, ok, detail), (med, lls)


@pytest.mark.slow
def test_criterion_7_beam_benchmark_ordering():
    t0 = time.perf_counter()
    results, _, errors = run_cantilever_benchmark(
        ["gd", "cr", "ehh"], doe_size=98, seed=0,
        fit_config=FitConfig(seed=0, max_evals=6000),
    )
    assert not errors, errors
    elapsed = time.perf_counter() - t0
    by_kind = {r.kind: r for r in results}
    ll_ordered = (
        by_kind[K.GD].log_likelihood
        < by_kind[K.CR].log_likelihood
        < by_kind[K.EHH].log_likelihood
    )
    rmse_ordered = by_kind[K.EHH].rmse < by_kind[K.GD].rmse
    ok = ll_ordered and rmse_ordered and elapsed < 1200.0
    detail = (
        f"log-likelihood gd {by_kind[K.GD].log_likelihood:.2f} < "
        f"cr {by_kind[K.CR].log_likelihood:.2f} < "
        f"ehh {by_kind[K.EHH].log_likelihood:.2f}; rmse ehh "
        f"{by_kind[K.EHH].rmse * 100:.4f}cm < gd {by_kind[K.GD].rmse * 100:.4f}cm "
        f"({elapsed:.0f}s)"
    )
    assert report(7, ok, detail)


def test_criterion_8_optimizer_sanity():
    rng = np.random.default_rng(8)
    ok = True
    details = []
    for dim in (3, 11, 20):
        target = rng.uniform(0.1, 0.9, dim)
        objective = lambda x: -float(np.sum((x - target) ** 2))
        bounds = BoxBounds(np.zeros(dim), np.ones(dim))
        first = multistart(objective, bounds, 3)
        second = multistart(objective, bounds, 3)
        deterministic = (
            np.array_equal(first.point, second.point) and first.value == second.value
        )
        # separable: brute-force 1-d grid oracle per coordinate
        grid = np.linspace(0.0, 1.0, 4001)
        err = max(
            abs(first.point[j] - grid[np.argmin(np.abs(grid - target[j]))])
            for j in range(dim)
        )
        details.append(f"dim {dim} err {err:.1e}")
        ok = ok and deterministic and err < 1e-3
    assert report(8, ok, "; ".join(details))


def test_criterion_9_likelihood_oracle():
    rng = np.random.default_rng(9)
    space = DesignSpace((
        Continuous("x", 0.0, 1.0),
        Integer("z", 0, 4),
        Categorical("c", ("a", "b", "c", "d")),
    ))
    worst = 0.0
    for trial in range(20):
        points = lhs(space, 8, seed=trial)
        ds = Dataset(space, points, rng.normal(size=8))
        kind = list(K)[trial % 5]
        mats = [random_hyper(kind, L, rng) for L in space.level_counts]
        theta = HyperparameterSet.from_flat(space, kind, np.concatenate(
            [rng.uniform(0.1, 4, 1), rng.uniform(0.1, 4, 1), *mats]))
        jitter = 1e-10
        value = concentrated_log_likelihood(ds, theta, 2, jitter)
        R = correlation_matrix(ds, theta, 2) + jitter * np.eye(8)
        Rinv = np.linalg.inv(R)
        y, ones = ds.targets, np.ones(8)
        mu = (ones @ Rinv @ y) / (ones @ Rinv @ ones)
        sigma2 = max((y - mu) @ Rinv @ (y - mu) / 8, 1e-12 * np.var(y))
        oracle = (
            -4.0 * math.log(sigma2)
            - 0.5 * np.linalg.slogdet(R)[1]
            - 4.0 * (1.0 + math.log(2.0 * math.pi))
        )
        worst = max(worst, abs(value - oracle))
    ok = worst < 1e-8
    assert report(9, ok, f"profiled likelihood vs dense-inverse oracle, max |diff| {worst:.2e}")


def test_criterion_10_gd_export_single_correlation(tmp_path):
    space = cosine_space()
    points = lhs(space, 98, seed=0)
    y = np.array([cosine_function(w.continuous[0], w.categorical[0]) for w in points])
    model = fit(Dataset(space, points, y), K.GD, 2, FitConfig(seed=0))
    model_file = tmp_path / "gd.json"
    save_model(model, model_file)
    out = tmp_path / "corr.csv"
    code = cli_main(["export-corr", str(model_file), "--variable", "2", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    matrix = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    off = matrix[~np.eye(13, dtype=bool)]
    distinct = np.unique(off).size
    ok = code == 0 and distinct == 1 and np.all(np.diag(matrix) == 1.0)
    assert report(10, ok, f"GD export has {distinct} distinct off-diagonal value(s)")
