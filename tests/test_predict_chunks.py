"""Chunked prediction: the one-shot formula's bits, and memory that does not grow with n_new.

``predict`` streams the new points in row chunks of ``gp._PREDICT_CHUNK``.
Two BLAS effects make a point's bits depend on where it sits in a batch:
``dgemv`` rounds the rows of ``K @ alpha`` in blocks of four, and a
one-column ``dtrtrs`` rounds differently from a wide one.  The oracle
below is the whole-batch formula, so chunk edges off a multiple of four, or
a final chunk of one point, show up as differing bits.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dtrtrs

from mixedgp import gp
from mixedgp import kernels as kr
from mixedgp.benchmarks import beam_space, cosine_space
from mixedgp.doe import grid, lhs
from mixedgp.space import Categorical, Dataset, DesignSpace, PointBatch

K = kr.CategoricalKernelKind
CHUNK = gp._PREDICT_CHUNK
SIZES = [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1]


def one_shot_predict(model, batch):
    """The whole-batch formula: one (n_new, n_train, d) difference array, one solve."""
    ws, theta = model._workspace, model.theta_star
    flat = theta.flat
    X, Z, C = batch.normalized()
    XZ = np.hstack([X, Z])
    diffs = np.abs(XZ[:, None, :] - ws.numeric[None, :, :]) ** ws.p
    k = np.exp(-(diffs @ flat[:ws.n_numeric]))
    for i, Ri in ws._categorical_factors(theta.kind, flat, theta.epsilon):
        k *= Ri[np.ix_(C[:, i] - 1, ws.levels[:, i])]
    means = model.y_mean + model.y_scale * (model.mu_std + k @ model._alpha)
    v = dtrtrs(model.chol, k.T, lower=1)[0]
    quad = np.sum(v * v, axis=0)
    shortfall = 1.0 - k @ model._r_inv_ones
    var_std = model.sigma2_std * (1.0 - quad + shortfall ** 2 / float(model._r_inv_ones.sum()))
    return means, model.y_scale ** 2 * np.maximum(var_std, 0.0)


def model_on(space, kind, p, n_train, seed=0):
    """A model at fixed, well-conditioned hyperparameters (no optimization)."""
    lower, upper, log_mask = kr.search_bounds(space, kind)
    rng = np.random.default_rng(seed)
    v = np.where(log_mask, rng.uniform(-1.0, 2.0, lower.size),
                 lower + rng.uniform(0.2, 0.8, lower.size) * (upper - lower))
    train = lhs(space, n_train, seed)
    y = np.sin(3.0 * np.arange(n_train)) + 0.1 * np.arange(n_train)
    return gp.build_model(Dataset(space, train, y), kr.set_from_search_vector(space, kind, v), p)


def categorical_only_space():
    return DesignSpace(tuple(Categorical(name, tuple(str(k) for k in range(L)))
                             for name, L in (("a", 9), ("b", 8), ("c", 8))))


CASES = {
    "beam-cr-p2": lambda: (model_on(beam_space(), K.CR, 2, 98), grid(beam_space(), (8, 8))),
    "cosine-ehh-p1": lambda: (model_on(cosine_space(), K.EHH, 1, 60), grid(cosine_space(), (50,))),
    "categorical-only-fe": lambda: (model_on(categorical_only_space(), K.FE, 2, 40),
                                    grid(categorical_only_space(), ())),
}


@pytest.mark.parametrize("case", CASES)
def test_chunked_predict_matches_the_one_shot_formula(case):
    model, points = CASES[case]()
    assert len(points) >= max(SIZES) + 8
    for n_new in SIZES:
        for start in (0, 5):  # two different runs of grid points
            batch = points[start:start + n_new]
            means, variances = gp.predict(model, batch)
            expected = one_shot_predict(model, batch)
            assert np.array_equal(means, expected[0]), (n_new, start)
            assert np.array_equal(variances, expected[1]), (n_new, start)


def test_empty_batch_predicts_nothing():
    model, points = CASES["beam-cr-p2"]()
    means, variances = gp.predict(model, points[:0])
    assert means.shape == variances.shape == (0,)


def peak_bytes(model, batch):
    tracemalloc.start()
    try:
        gp.predict(model, batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["beam-cr-p2", "categorical-only-fe"])
def test_predict_memory_does_not_grow_with_the_batch(case):
    """Beyond O(n_new) vectors (coordinates and the two outputs), memory is O(chunk * n_train)."""
    model, points = CASES[case]()
    rng = np.random.default_rng(1)
    rows = rng.integers(0, len(points), 120_000)
    big = PointBatch(points.space, points.X[rows], points.Z[rows], points.C[rows])
    small = big[:12_000]
    # per point: the two outputs, the normalized coordinates and their stacked copy
    per_point = 8 * (2 + 2 * (big.X.shape[1] + big.Z.shape[1]))
    beyond = [peak_bytes(model, b) - per_point * len(b) for b in (small, big)]
    assert max(beyond) < 3e6, beyond
    assert beyond[1] < beyond[0] + 0.25e6, beyond
