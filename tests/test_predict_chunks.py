"""Chunked prediction: the one-shot formula's means, and memory that does not grow with n_new.

``predict`` streams the new points in row chunks of ``gp._PREDICT_CHUNK``.
The means keep the bits of the whole-batch formula: ``dgemv`` rounds the
rows of ``K @ alpha`` in blocks of four, and a one-row product differently
from a wide one, so chunk edges off a multiple of four, or a final chunk
of one point, would show up as differing bits.  The variances cannot keep
them: the bits of a triangular multiply (and of a GEMM) depend on the
width of its right-hand side.  They are held to the one-shot ``dtrtrs``
formula within ``VARIANCE_TOL * sigma2_hat``, the default jitter, which is
as finely as the model resolves the variance, and to the exact property
that a batch predicts what its chunks predict one by one.
"""

import tracemalloc

import numpy as np
import pytest

from mixedgp import gp
from mixedgp import kernels as kr
from mixedgp.benchmarks import beam_space, cosine_space
from mixedgp.doe import grid
from mixedgp.space import PointBatch

from conftest import VARIANCE_TOL, categorical_only_space, model_on, one_shot_predict

K = kr.CategoricalKernelKind
CHUNK = gp._PREDICT_CHUNK
SIZES = [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1]


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
            worst = np.max(np.abs(variances - expected[1]))
            assert worst <= VARIANCE_TOL * model.sigma2_hat, (n_new, start, worst)


@pytest.mark.parametrize("case", CASES)
def test_a_batch_predicts_what_its_chunks_predict(case):
    model, points = CASES[case]()
    for n_new in SIZES:
        batch = points[3:3 + n_new]
        whole = gp.predict(model, batch)
        parts = [gp.predict(model, batch[rows]) for rows in gp._row_chunks(n_new)]
        for j in (0, 1):
            assert np.array_equal(whole[j], np.concatenate([part[j] for part in parts])), \
                (n_new, j)


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
