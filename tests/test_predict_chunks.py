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

Consecutive rows with equal numeric coordinates share one numeric factor
of k, found per window of ``gp._RUN_WINDOW`` chunks; the per-row loop
below is the oracle every block of ``gp._cross_correlations`` must equal
bit for bit.  The cases longer than a window put runs and distinct rows
across its edge.
"""

import tracemalloc

import numpy as np
import pytest

from mixedgp import gp
from mixedgp import kernels as kr
from mixedgp.benchmarks import beam_space, cosine_space
from mixedgp.doe import grid, lhs
from mixedgp.space import Categorical, Continuous, DesignSpace, Integer, PointBatch

from conftest import VARIANCE_TOL, categorical_only_space, model_on, one_shot_predict

K = kr.CategoricalKernelKind
CHUNK = gp._PREDICT_CHUNK
SIZES = [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1]
# rows per window of run detection, and the sizes around its edge
WINDOW = gp._RUN_WINDOW * CHUNK
WINDOW_SIZES = [WINDOW - 1, WINDOW, WINDOW + 1, WINDOW + CHUNK + 1]


def sizes(points):
    """SIZES, then the WINDOW_SIZES that ``points`` holds with the test's margin of 8 rows."""
    return SIZES + [n for n in WINDOW_SIZES if len(points) >= n + 8]


def beam_grid_40():
    return grid(beam_space(), (40, 40))  # 19,200 rows in runs of 12


CASES = {
    "beam-cr-p2": lambda: (model_on(beam_space(), K.CR, 2, 98), grid(beam_space(), (8, 8))),
    "cosine-ehh-p1": lambda: (model_on(cosine_space(), K.EHH, 1, 60), grid(cosine_space(), (50,))),
    "categorical-only-fe": lambda: (model_on(categorical_only_space(), K.FE, 2, 40),
                                    grid(categorical_only_space(), ())),
    "beam-40x40-cr-p2": lambda: (model_on(beam_space(), K.CR, 2, 98), beam_grid_40()),
}


@pytest.mark.parametrize("case", CASES)
def test_chunked_predict_matches_the_one_shot_formula(case):
    model, points = CASES[case]()
    assert len(points) >= max(SIZES) + 8
    for n_new in sizes(points):
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
    for n_new in sizes(points):
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


# ---------------------------------------------------------------------------
# runs of rows sharing their numeric coordinates
# ---------------------------------------------------------------------------

def per_row_cross_correlations(model, points):
    """The oracle: (rows, k) per chunk, every row building its own numeric factor."""
    theta = model.theta_star
    X, Z, C = points.normalized()
    XZ = np.hstack([X, Z])
    X_train, Z_train, C_train = model.dataset.points.normalized()
    train = np.hstack([X_train, Z_train])
    tables = [(i, kr.categorical_matrix(model.kind, L, theta.variable(i))[:, C_train[:, i] - 1])
              for i, L in enumerate(model.dataset.space.level_counts)]
    for rows in gp._row_chunks(len(points)):
        diffs = np.empty((rows.stop - rows.start, *train.shape))
        for j in range(train.shape[1]):
            column = diffs[:, :, j]
            np.subtract(XZ[rows, j, None], train[:, j], out=column)
            if model.p == 1:
                np.abs(column, out=column)
            else:
                np.square(column, out=column)
        K = np.exp(-(diffs @ theta.rates))
        for i, table in tables:
            K *= table.take(C[rows, i] - 1, axis=0)
        yield rows, K


def levels(name, L):
    return Categorical(name, tuple(f"l{j}" for j in range(L)))


def beam_grid():
    return grid(beam_space(), (8, 8))  # 768 rows in runs of 12: chunks 2 and 3 open mid-run


def signed_zeros():
    """Runs of three levels at x = 0, whose rows alternate 0.0 and -0.0, then at x = 0.5."""
    space = DesignSpace((Continuous("x", 0.0, 1.0), levels("c", 3)))
    X = np.array([[0.0], [-0.0], [0.0], [-0.0], [0.0], [-0.0], [0.5], [0.5], [0.5]] * 40)
    return space, PointBatch(space, X, np.empty((len(X), 0)), np.tile([[1], [2], [3]], (120, 1)))


CATEGORICAL_FIRST = DesignSpace((levels("c", 5), Continuous("x", 0.0, 1.0), Integer("z", 0, 9)))
INTERLEAVED = DesignSpace((Continuous("x", 0.0, 1.0), levels("c", 4), Integer("z", 0, 3),
                           levels("d", 3)))
# a rounded linspace of 0..3 in 9 steps repeats values: runs of whole duplicate points
REPEATED_INTEGER = DesignSpace((Integer("z", 0, 3), Continuous("x", -1.0, 2.0), levels("c", 6)))
# 4,300 rows of the 40 x 40 grid from row 100: the run of grid rows 4,188-4,199
# holds the slice's row 4,096, where its second window and its 17th chunk open
ACROSS = slice(100, 4400)


def lhs_beyond_a_window():
    return lhs(beam_space(), WINDOW + CHUNK + 40, 5)  # every row its own run


def long_run():
    """A chunk of distinct rows, then a run of two chunks at the last one's x, levels cycling."""
    space = DesignSpace((Continuous("x", 0.0, 1.0), levels("c", 3)))
    X = np.concatenate([np.linspace(0.0, 1.0, CHUNK), np.ones(2 * CHUNK)])[:, None]
    C = np.arange(3 * CHUNK)[:, None] % 3 + 1
    return space, PointBatch(space, X, np.empty((len(X), 0)), C)


RUN_CASES = {
    "beam-grid-cr-p2": lambda: (model_on(beam_space(), K.CR, 2, 98), beam_grid()),
    "beam-grid-reversed-gd-p1": lambda: (model_on(beam_space(), K.GD, 1, 98), beam_grid()[::-1]),
    "beam-grid-1-row-ehh-p2": lambda: (model_on(beam_space(), K.EHH, 2, 60), beam_grid()[5:6]),
    "beam-grid-257-rows-fe-p1": lambda: (model_on(beam_space(), K.FE, 1, 60),
                                         beam_grid()[7:264]),
    "beam-grid-513-rows-hh-p2": lambda: (model_on(beam_space(), K.HH, 2, 60),
                                         beam_grid()[3:516]),
    "categorical-first-hh-p2": lambda: (model_on(CATEGORICAL_FIRST, K.HH, 2, 50),
                                        grid(CATEGORICAL_FIRST, (7, 8))),
    "interleaved-ehh-p1": lambda: (model_on(INTERLEAVED, K.EHH, 1, 50),
                                   grid(INTERLEAVED, (9, 10))),
    "repeated-integer-gd-p1": lambda: (model_on(REPEATED_INTEGER, K.GD, 1, 50),
                                       grid(REPEATED_INTEGER, (9, 7))),
    "categorical-only-cr-p1": lambda: (model_on(categorical_only_space(), K.CR, 1, 40),
                                       grid(categorical_only_space(), ())),
    "signed-zeros-fe-p2": lambda: (model_on(signed_zeros()[0], K.FE, 2, 30), signed_zeros()[1]),
    "long-run-cr-p2": lambda: (model_on(long_run()[0], K.CR, 2, 30), long_run()[1]),
    "lhs-beam-cr-p2": lambda: (model_on(beam_space(), K.CR, 2, 98), lhs(beam_space(), 600, 3)),
    "beam-40x40-across-a-window-cr-p2": lambda: (model_on(beam_space(), K.CR, 2, 98),
                                                 beam_grid_40()[ACROSS]),
    "lhs-beyond-a-window-ehh-p1": lambda: (model_on(beam_space(), K.EHH, 1, 60),
                                           lhs_beyond_a_window()),
}


def test_the_run_cases_hold_what_they_are_named_for():
    rows = np.hstack(beam_grid().normalized()[:2])
    assert np.array_equal(rows[CHUNK - 1], rows[CHUNK])  # a chunk opens mid-run
    assert np.array_equal(rows[2 * CHUNK - 1], rows[2 * CHUNK])
    z = grid(REPEATED_INTEGER, (9, 7)).Z[:, 0]
    assert len(np.unique(z)) < 9  # the integer axis repeats values
    x = signed_zeros()[1].normalized()[0][:, 0]
    assert np.signbit(x[1]) and not np.signbit(x[0]) and x[0] == x[1]
    across = np.hstack(beam_grid_40()[ACROSS].normalized()[:2])
    assert len(across) > WINDOW and gp._row_chunks(len(across))[gp._RUN_WINDOW].start == WINDOW
    assert np.array_equal(across[WINDOW - 1], across[WINDOW])  # a window opens mid-run
    lhs_rows = np.hstack(lhs_beyond_a_window().normalized()[:2])
    assert len(lhs_rows) > WINDOW + CHUNK
    assert not np.any(np.all(lhs_rows[1:] == lhs_rows[:-1], axis=1))  # no two rows share a run
    x = long_run()[1].X[:, 0]
    assert len(np.unique(x[:CHUNK])) == CHUNK and np.all(x[CHUNK - 1:] == x[CHUNK - 1])


@pytest.mark.parametrize("case", RUN_CASES)
def test_cross_correlations_equal_the_per_row_oracle(case):
    model, points = RUN_CASES[case]()
    blocks = list(gp._cross_correlations(model, points))
    expected = list(per_row_cross_correlations(model, points))
    assert [rows for rows, _ in blocks] == [rows for rows, _ in expected]
    for (rows, got), (_, want) in zip(blocks, expected):
        assert np.array_equal(got, want), rows


@pytest.mark.parametrize("case", RUN_CASES)
def test_run_sharing_predict_matches_the_one_shot_formula(case):
    model, points = RUN_CASES[case]()
    means, variances = gp.predict(model, points)
    expected = one_shot_predict(model, points)
    assert np.array_equal(means, expected[0])
    assert np.max(np.abs(variances - expected[1])) <= VARIANCE_TOL * model.sigma2_hat
