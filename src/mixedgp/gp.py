"""Gaussian-process core: correlation assembly, likelihood, fitting, prediction.

The model is noiseless kriging with a constant trend.  For hyperparameters
Theta the correlation matrix R(Theta) couples all training points through
the mixed product kernel; the trend and process variance are profiled out
of the likelihood in closed form:

    mu_hat    = (1' R^-1 y) / (1' R^-1 1)
    sigma2    = (y - mu_hat)' R^-1 (y - mu_hat) / n_t
    log L     = -(n_t/2) log sigma2 - (1/2) log |R| - (n_t/2)(1 + log 2 pi)

One evaluator, ``_Workspace.evaluate``, maps a natural-units
hyperparameter vector to R and its likelihood; fitting, model building,
:func:`concentrated_log_likelihood` and :func:`correlation_matrix` all go
through it.  R is the product of one factor per block of the vector,

    R = exp(-sum_j theta_j D_j) o R_1[c_r, c_s] o R_2[c_r, c_s] o ...

(the rates, then each categorical variable), and the workspace keeps each
block's last factor with the slice of the vector it was built from.  A
search step that moves one coordinate therefore rebuilds one factor; the
product is taken in the same order either way, so every likelihood has
the same bits as a rebuild from scratch.  The kept factors live for one
fit: a model's workspace holds none.  ``_Workspace.evaluate_block``
scores many vectors at once with the same builder and scorer; a fit
passes it each search stencil, whose rows share the centre's factors and
whose level matrices are built as one stack, so every row keeps the bits
of a one-vector evaluation.  All solves go through one Cholesky factor L
of R + jitter*I, read from its lower triangle (the search leaves the
upper one uncleared; a model stores the clean lower factor, and L^-1 for
the predictive variance); the jitter escalates by factors of 10 (up to
1e-4) when factorization fails, which makes duplicate design points
survivable.  Internally the GP always sees
continuous/integer coordinates normalized to [0, 1] and targets
standardized to zero mean and unit variance; reported trend, variance and
predictions are in original units.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs

from . import kernels as kr
from .errors import MixedGpError, NumericalFailure, ParseError, ShapeMismatch
from .optimize import BoxBounds, MultistartResult, SearchConfig, multistart
from .space import Categorical, Continuous, Dataset, DesignSpace, Integer, PointBatch

__all__ = [
    "JITTER_DEFAULT",
    "JITTER_MAX",
    "FitConfig",
    "GpModel",
    "correlation_matrix",
    "concentrated_log_likelihood",
    "standardize_targets",
    "build_model",
    "fit",
    "predict",
    "save_model",
    "load_model",
]

JITTER_DEFAULT = 1e-10
JITTER_MAX = 1e-4

# Rows per prediction chunk.  A multiple of 4: OpenBLAS dgemv computes
# K @ alpha in blocks of 4 rows and rounds the tail rows differently, so
# chunk edges on multiples of 4 give every row the bits of one whole-batch
# product (see also _row_chunks).
_PREDICT_CHUNK = 256


def _solve(chol: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """L^-1 b (trans=0) or L^-T b (trans=1) for a lower Cholesky factor L."""
    return dtrtrs(chol, b, lower=1, trans=trans)[0]


@dataclass(frozen=True)
class FitConfig:
    """Multistart fitting configuration.

    ``max_evals`` is the optimizer budget per start (500 * dim when None).
    ``extra_starts`` may carry :class:`~mixedgp.kernels.HyperparameterSet`
    warm starts appended after the evenly spaced diagonal starts.  The
    search draws nothing at random: ``seed`` is carried for provenance only,
    the seed of the design a fit was run on (``mixedgp fit --seed``).
    """

    n_starts: int = 10
    max_evals: int | None = None
    jitter: float = JITTER_DEFAULT
    seed: int = 0
    extra_starts: tuple = ()

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.max_evals is not None and self.max_evals < 1:
            raise ValueError("max_evals must be None or >= 1")
        if not (math.isfinite(self.jitter) and self.jitter > 0):
            raise ValueError(f"jitter must be positive and finite, got {self.jitter!r}")


# ---------------------------------------------------------------------------
# kernel workspace: precomputed distance/indexing structures and the evaluator
# ---------------------------------------------------------------------------

class _Evaluation(NamedTuple):
    """One likelihood evaluation and the factors a model keeps from it.

    ``chol`` is the lower Cholesky factor of R + jitter*I in its lower
    triangle; its upper triangle is unspecified (the factorization does
    not clear it, and every solve reads the lower triangle only).
    """

    log_likelihood: float
    mu: float
    sigma2: float
    chol: np.ndarray
    jitter: float
    r_ones: np.ndarray  # L^-1 1


class _Workspace:
    """Per-dataset caches and the one likelihood evaluator.

    Holds |x_r - x_s|^p per continuous/integer dimension, the 0-based
    level index column and the flat level-pair indices per categorical
    variable, all on normalized coordinates, plus the targets
    :meth:`evaluate` and :meth:`evaluate_block` score and their variance
    floor.  ``_memo`` keeps, per factor block of R (-1 for the rates, i for
    categorical variable i), the key it was last built at and the n x n
    factor; :meth:`forget` empties it.
    """

    def __init__(self, points: PointBatch, p: int, targets: np.ndarray):
        self.p = kr.check_exponent(p)
        X, Z, C = points.normalized()
        XZ = np.hstack([X, Z])
        self.n_points = XZ.shape[0]
        self.n_numeric = XZ.shape[1]
        self.numeric = XZ
        diffs = np.abs(XZ[:, None, :] - XZ[None, :, :]) ** self.p
        self.pair_powers = np.ascontiguousarray(np.moveaxis(diffs, 2, 0))
        self.levels = C - 1
        self.level_counts = points.space.level_counts
        self.layout = (self.n_numeric, self.level_counts)
        # flat index of level pair (c_r, c_s) in the row-major L x L level matrix
        self.level_pairs = [(idx[:, None] * L + idx[None, :]).astype(np.intp)
                            for idx, L in zip(self.levels.T, self.level_counts)]
        self.y = targets
        self.ones = np.ones(self.n_points)
        var_y = float(np.var(targets))
        self.sigma2_floor = 1e-12 * var_y if var_y > 0 else 1e-12
        self._memo: dict[int, tuple] = {}

    def flat(self, theta: kr.HyperparameterSet) -> np.ndarray:
        """theta's natural-units vector, once its layout is checked against the space."""
        if theta.layout != self.layout:
            raise ShapeMismatch(f"hyperparameter layout {theta.layout} does not fit the "
                                f"space's {self.layout}")
        return theta.flat

    def _variables(self, kind, flat):
        """(variable index, level count, packed values) per categorical variable.

        ``flat`` is one vector or an (m, size) array of them; the values are
        sliced along its last axis.
        """
        pos = self.n_numeric
        for i, L in enumerate(self.level_counts):
            k = kr.categorical_param_count(kind, L)
            yield i, L, flat[..., pos:pos + k]
            pos += k

    def _categorical_factors(self, kind, flat):
        """(variable index, level matrix) per categorical variable."""
        for i, L, values in self._variables(kind, flat):
            yield i, kr.categorical_matrix(kind, L, values)

    def _memoized(self, block: int, key, once, build) -> np.ndarray:
        """Block ``block``'s factor at ``key``, built only when the key changed.

        A factor whose ``(block, key)`` is in ``once`` is built without
        entering the memo: no other row of the caller's block needs it.
        """
        entry = self._memo.get(block)
        if entry is not None and entry[0] == key:
            return entry[1]
        factor = build()
        if (block, key) not in once:
            factor.flags.writeable = False  # shared by every later evaluation
            self._memo[block] = (key, factor)
        return factor

    def _factors(self, kind, flat, levels=None, once=()) -> list[np.ndarray]:
        """R's n x n factors: exp(-theta . D), then R_i[c_r, c_s] per categorical variable.

        A factor is keyed by the bytes of its slice of ``flat``, and a
        categorical one also by ``kind``.  ``levels`` and
        ``once`` come from :meth:`evaluate_block`: the level matrices it
        built, by (variable, key), and the factors only one of its rows
        needs (see :meth:`_memoized`).
        """
        rates = flat[:self.n_numeric]
        factors = [self._memoized(-1, rates.tobytes(), once, lambda: np.exp(
            -np.tensordot(rates, self.pair_powers, axes=1)))]
        for i, L, values in self._variables(kind, flat):
            key = (kind, values.tobytes())
            factors.append(self._memoized(i, key, once, lambda: (
                levels[i, key] if levels is not None
                else kr.categorical_matrix(kind, L, values)).take(self.level_pairs[i])))
        return factors

    def forget(self) -> None:
        """Drop the kept factors (see ``_memo``)."""
        self._memo.clear()

    def _product(self, factors: list[np.ndarray]) -> np.ndarray:
        """((E o G_1) o G_2) ... with an exact unit diagonal: R, no jitter."""
        E, *G = factors
        R = E * G[0] if G else E.copy()
        for Gi in G[1:]:
            R *= Gi
        R.flat[::self.n_points + 1] = 1.0
        return R

    def correlation(self, kind, flat: np.ndarray) -> np.ndarray:
        """R at the natural-units vector ``flat``, exact unit diagonal, no jitter."""
        return self._product(self._factors(kind, flat))

    def cross_correlations(self, kind, flat: np.ndarray, points):
        """Yield (rows, k(new[rows], train)) over the row chunks of ``points``.

        Each block has shape (len(rows), n_train).  Within a chunk, a run of
        consecutive rows with equal numeric coordinates (a grid whose
        categorical variables come last) shares one numeric factor
        exp(-theta . |x_new - x_train|^p): it is built for the run's first
        row and gathered to the others, before the level-matrix tables
        multiply in.  Every row keeps the bits of its own factor.  A chunk's
        first row always starts a run.  The |x_new - x_train|^p work array
        is allocated once, so memory is O(chunk * n_train * d).
        """
        X, Z, C = points.normalized()
        XZ = np.hstack([X, Z])
        theta = flat[:self.n_numeric]
        tables = [(i, Ri[:, self.levels[:, i]])
                  for i, Ri in self._categorical_factors(kind, flat)]
        work = np.empty((min(len(points), _PREDICT_CHUNK + 1), self.n_points, self.n_numeric))
        for rows in _row_chunks(len(points)):
            block = XZ[rows]
            # rows equal by value share a run: -0.0 and 0.0 give |x - x_train|^p
            # the same bits against every training coordinate
            first = np.ones(len(block), dtype=bool)
            np.any(block[1:] != block[:-1], axis=1, out=first[1:])
            block = block[first]
            diffs = work[:len(block)]
            for j in range(self.n_numeric):
                column = diffs[:, :, j]
                np.subtract(block[:, j, None], self.numeric[:, j], out=column)
                if self.p == 1:
                    np.abs(column, out=column)
                else:  # the square of -x and of |x| have the same bits
                    np.square(column, out=column)
            K = np.exp(-(diffs @ theta))
            if len(K) < len(first):
                K = K.take(np.cumsum(first) - 1, axis=0)
            for i, table in tables:
                K *= table.take(C[rows, i] - 1, axis=0)
            yield rows, K

    def _score(self, R: np.ndarray, jitter: float) -> _Evaluation:
        """Profiled likelihood of the workspace targets under R: one factorization, two solves."""
        chol, jitter_used = _cholesky_with_escalation(R, jitter)
        n = self.n_points
        a = _solve(chol, self.y)
        b = _solve(chol, self.ones)
        mu = float((b @ a) / (b @ b))
        resid = a - mu * b
        sigma2 = max(float(resid @ resid) / n, self.sigma2_floor)
        log_det = 2.0 * float(np.log(chol.diagonal()).sum())
        ll = -0.5 * n * math.log(sigma2) - 0.5 * log_det - 0.5 * n * (1.0 + math.log(2.0 * math.pi))
        return _Evaluation(ll, mu, sigma2, chol, jitter_used, b)

    def evaluate(self, kind, flat: np.ndarray, jitter: float) -> _Evaluation:
        """Profiled likelihood of the workspace targets at ``flat``.

        Raises NumericalFailure when R + jitter*I cannot be factored even
        after jitter escalation.
        """
        return self._score(self.correlation(kind, flat), jitter)

    def evaluate_block(self, kind, flats: np.ndarray, jitter: float) -> np.ndarray:
        """Log-likelihoods at the rows of ``flats`` (m, size), -inf where R cannot be factored.

        Row by row, the value has the bits of :meth:`evaluate` at that row:
        the rows go through the same factors, product and scorer.  Each
        categorical variable builds the level matrices of the block's
        distinct slices as one stack, and each block of R builds one n x n
        factor per distinct slice: one the memo holds is reused, and a
        factor only one row needs stays out of the memo, so the factors the
        rows share (a search stencil's centre) stay in it.  The n x n work
        is done row by row; no (m, n, n) stack is held.
        """
        keys = {-1: [rates.tobytes() for rates in flats[:, :self.n_numeric]]}
        levels = {}
        for i, L, values in self._variables(kind, flats):
            keys[i] = [(kind, row.tobytes()) for row in values]
            first = {}
            for row, key in enumerate(keys[i]):
                first.setdefault(key, row)
            stack = kr.categorical_matrix(kind, L, values[list(first.values())])
            levels.update(((i, key), level) for key, level in zip(first, stack))
        once = {(block, key) for block, column in keys.items()
                for key, count in Counter(column).items() if count == 1}
        lls = np.empty(len(flats))
        for row, flat in enumerate(flats):
            try:
                R = self._product(self._factors(kind, flat, levels, once))
                lls[row] = self._score(R, jitter).log_likelihood
            except NumericalFailure:
                lls[row] = -math.inf
        return lls


def _cholesky_with_escalation(R: np.ndarray, jitter: float) -> tuple[np.ndarray, float]:
    """Cholesky factor of R + j*I in the lower triangle, escalating j by 10 up to JITTER_MAX.

    The upper triangle of the returned array is not cleared (it keeps R's
    entries); solves read the lower triangle only.  R itself is left as it
    is: each attempt factors a fresh F-order copy.
    """
    j = float(jitter)
    while True:
        work = np.array(R, dtype=float, order="F")
        work.reshape(-1, order="F")[::work.shape[0] + 1] += j  # a view: work is F-contiguous
        chol, info = dpotrf(work, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return chol, j
        if j >= JITTER_MAX:
            raise NumericalFailure(f"Cholesky failed even with jitter {j:g}")
        j = min(j * 10.0, JITTER_MAX) if j > 0 else JITTER_DEFAULT


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def correlation_matrix(dataset: Dataset, theta: kr.HyperparameterSet, p: int = 2) -> np.ndarray:
    """Training correlation matrix: mixed kernel on normalized coordinates.

    Symmetric with exact unit diagonal; no jitter is added here.
    """
    ws = _Workspace(dataset.points, p, dataset.targets)
    return ws.correlation(theta.kind, ws.flat(theta))


def concentrated_log_likelihood(
    dataset: Dataset,
    theta: kr.HyperparameterSet,
    p: int = 2,
    jitter: float = JITTER_DEFAULT,
) -> float:
    """Profiled log-likelihood of the dataset's targets under Theta.

    The targets are scored as given.  :func:`fit` maximizes, and
    ``GpModel.log_likelihood`` stores, the value on standardized targets;
    pass ``standardize_targets(dataset)[0]`` to compare with them.

    Raises NumericalFailure when R + jitter*I cannot be factored even after
    jitter escalation.
    """
    ws = _Workspace(dataset.points, p, dataset.targets)
    return ws.evaluate(theta.kind, ws.flat(theta), jitter).log_likelihood


def standardize_targets(dataset: Dataset) -> tuple[Dataset, float, float]:
    """Zero-mean unit-variance copy of the dataset plus (mean, scale)."""
    y = dataset.targets
    mean = float(np.mean(y))
    scale = float(np.std(y))
    if scale == 0.0:
        scale = 1.0
    return dataset.with_targets((y - mean) / scale), mean, scale


# ---------------------------------------------------------------------------
# fitted model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GpModel:
    """Fitted surrogate; immutable and safe for concurrent prediction.

    ``mu_hat`` and ``sigma2_hat`` are in original target units;
    ``log_likelihood`` is the profiled value on standardized targets, i.e.
    exactly what :func:`fit` maximized.  ``chol`` is the lower Cholesky
    factor L of R + jitter*I, with a zero upper triangle.  The model also
    keeps L^-1 (``_chol_inv``, n_train^2 floats), computed once from ``chol``
    so that a reloaded model rebuilds it bit for bit; :func:`predict` takes
    the variance from it by one triangular multiply.
    """

    dataset: Dataset
    kind: kr.CategoricalKernelKind
    p: int
    theta_star: kr.HyperparameterSet
    chol: np.ndarray = field(repr=False)
    mu_hat: float
    sigma2_hat: float
    jitter: float
    log_likelihood: float
    y_mean: float
    y_scale: float
    fit_seconds: float = 0.0
    start_log: tuple = ()
    _workspace: _Workspace = field(repr=False, default=None)
    _alpha: np.ndarray = field(repr=False, default=None)
    _r_inv_ones: np.ndarray = field(repr=False, default=None)
    _chol_inv: np.ndarray = field(repr=False, default=None)

    @property
    def mu_std(self) -> float:
        return (self.mu_hat - self.y_mean) / self.y_scale

    @property
    def sigma2_std(self) -> float:
        return self.sigma2_hat / (self.y_scale ** 2)

    def standardized_dataset(self) -> Dataset:
        return standardize_targets(self.dataset)[0]


def _refined_weights(R_raw: np.ndarray, chol: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Solve R_raw alpha = target by refinement with the jittered factor.

    Plain use of the jittered factor leaves an O(jitter * ||alpha||)
    residual that shows up verbatim as a training-point prediction error;
    a few preconditioned Richardson steps push it to rounding level.  The
    iteration stops early if it stalls (inconsistent duplicate targets).
    """
    def solve(v):
        return _solve(chol, _solve(chol, v), trans=1)

    alpha = solve(target)
    best_alpha, best_norm = alpha, math.inf
    previous = math.inf
    tol = 1e-15 * max(1.0, float(np.max(np.abs(target))))
    for _ in range(50):
        residual = target - R_raw @ alpha
        norm = float(np.max(np.abs(residual)))
        if norm < best_norm:
            best_alpha, best_norm = alpha, norm
        if norm <= tol or norm > 0.9 * previous:
            break
        previous = norm
        alpha = alpha + solve(residual)
    return best_alpha


def _model(ws: _Workspace, dataset: Dataset, theta: kr.HyperparameterSet, jitter: float,
           y_mean: float, y_scale: float, fit_seconds: float) -> GpModel:
    """The model at theta, on a workspace holding the standardized targets."""
    R = ws.correlation(theta.kind, ws.flat(theta))
    ev = ws._score(R, jitter)  # factors a copy: R stays intact for the refinement
    alpha = _refined_weights(R, ev.chol, ws.y - ev.mu)
    r_inv_ones = _solve(ev.chol, ev.r_ones, trans=1)
    chol = np.asfortranarray(np.tril(ev.chol))  # a clean lower factor, in LAPACK's order
    chol_inv, info = dtrtri(chol, lower=1)
    if info != 0:
        raise NumericalFailure(f"the Cholesky factor cannot be inverted (dtrtri info {info})")
    ws.forget()  # a model keeps no evaluation state
    return GpModel(
        dataset=dataset,
        kind=theta.kind,
        p=ws.p,
        theta_star=theta,
        chol=chol,
        mu_hat=y_mean + y_scale * ev.mu,
        sigma2_hat=y_scale ** 2 * ev.sigma2,
        jitter=ev.jitter,
        log_likelihood=ev.log_likelihood,
        y_mean=y_mean,
        y_scale=y_scale,
        fit_seconds=fit_seconds,
        _workspace=ws,
        _alpha=alpha,
        _r_inv_ones=r_inv_ones,
        _chol_inv=chol_inv,
    )


def build_model(
    dataset: Dataset,
    theta: kr.HyperparameterSet,
    p: int = 2,
    jitter: float = JITTER_DEFAULT,
    fit_seconds: float = 0.0,
) -> GpModel:
    """Assemble a GpModel at fixed hyperparameters (no optimization)."""
    ds_std, y_mean, y_scale = standardize_targets(dataset)
    ws = _Workspace(dataset.points, p, ds_std.targets)
    return _model(ws, dataset, theta, jitter, y_mean, y_scale, fit_seconds)


def fit(
    dataset: Dataset,
    kind: kr.CategoricalKernelKind,
    p: int = 2,
    config: FitConfig = FitConfig(),
) -> GpModel:
    """Maximum-likelihood fit via deterministic multistart derivative-free search.

    Starts are evenly spaced along the diagonal of the flat hyperparameter
    box (log-theta and angle coordinates); ``config.extra_starts`` adds warm
    starts.  The best hyperparameters over all searches define the model.
    """
    t0 = time.perf_counter()
    space = dataset.space
    ds_std, y_mean, y_scale = standardize_targets(dataset)
    ws = _Workspace(dataset.points, p, ds_std.targets)

    lower, upper, log_mask = kr.search_bounds(space, kind)
    bounds = BoxBounds(lower, upper)

    def objective(v: np.ndarray) -> float:
        try:
            ev = ws.evaluate(kind, kr.natural_from_search(v, log_mask), config.jitter)
        except NumericalFailure:
            return -math.inf
        return ev.log_likelihood

    def batch_objective(V: np.ndarray) -> np.ndarray:
        return ws.evaluate_block(kind, kr.natural_from_search(V, log_mask), config.jitter)

    extra = []
    for hp in config.extra_starts:
        if hp.kind is not kind:
            raise ShapeMismatch(
                f"warm start kind {hp.kind.value} does not match fit kind {kind.value}"
            )
        extra.append(kr.search_from_natural(ws.flat(hp), log_mask))

    search_cfg = SearchConfig(max_evals=config.max_evals)
    result: MultistartResult = multistart(
        objective, bounds, config.n_starts, search_cfg, extra_starts=tuple(extra),
        batch_objective=batch_objective,
    )
    theta_star = kr.set_from_search_vector(space, kind, result.point)
    model = _model(ws, dataset, theta_star, config.jitter, y_mean, y_scale,
                   fit_seconds=time.perf_counter() - t0)
    # sanity: the model stores exactly the value the optimizer maximized
    if model.log_likelihood != result.value:
        raise NumericalFailure(
            "likelihood at the returned optimum does not reproduce the search value"
        )
    return replace(model, start_log=result.starts)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def _row_chunks(n: int) -> list[slice]:
    """Consecutive row slices of _PREDICT_CHUNK rows covering range(n).

    A final chunk of one row is folded into the one before it (which then
    holds _PREDICT_CHUNK + 1 rows): a one-row ``K @ alpha`` rounds
    differently from a wide one.
    """
    chunks = [slice(start, min(start + _PREDICT_CHUNK, n))
              for start in range(0, n, _PREDICT_CHUNK)]
    if len(chunks) > 1 and n % _PREDICT_CHUNK == 1:
        chunks[-2:] = [slice(chunks[-2].start, n)]
    return chunks


def predict(model: GpModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at a batch or MixedPoints (original units, variance >= 0).

    The points are processed in chunks of rows (:func:`_row_chunks`), so
    memory beyond the two output vectors stays O(chunk * n_train) whatever
    the batch size.  The quadratic term of the variance is |L^-1 k|^2, one
    ``dtrmm`` with the model's kept L^-1 per chunk.  Consecutive points with
    equal numeric coordinates share the numeric factor of k
    (:meth:`_Workspace.cross_correlations`), so a grid whose categorical
    variables come last builds it once per numeric point.  A mean has the bits of
    the whole-batch formula, chunked or not.  A variance's last bits depend
    on the chunk it falls in (a triangular multiply rounds a column by the
    width of its right-hand side) and on the BLAS thread count; it agrees
    with the triangular-solve formula to well within jitter * sigma2_hat.
    A batch predicts exactly what its chunks predict one by one; with the
    same BLAS thread count, the same batch gives the same bits on every run
    and after a reload.
    """
    batch = PointBatch.of(model.dataset.space, points)
    theta = model.theta_star
    means, variances = np.empty(len(batch)), np.empty(len(batch))
    ones_r_ones = float(model._r_inv_ones.sum())
    for rows, K in model._workspace.cross_correlations(theta.kind, theta.flat, batch):
        mean_std = model.mu_std + K @ model._alpha
        means[rows] = model.y_mean + model.y_scale * mean_std
        v = dtrmm(1.0, model._chol_inv, K.T, lower=1)
        quad = np.square(v, out=v).sum(axis=0)
        shortfall = 1.0 - K @ model._r_inv_ones
        var_std = model.sigma2_std * (1.0 - quad + shortfall ** 2 / ones_r_ones)
        variances[rows] = model.y_scale ** 2 * np.maximum(var_std, 0.0)
    return means, variances


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_VARIABLE_TYPES = {"continuous": Continuous, "integer": Integer, "categorical": Categorical}


def _space_to_json(space: DesignSpace) -> list[dict]:
    return [{"kind": type(v).__name__.lower(), **asdict(v)} for v in space.variables]


def _space_from_json(items) -> DesignSpace:
    return DesignSpace(tuple(
        _VARIABLE_TYPES[item["kind"]](**{k: v for k, v in item.items() if k != "kind"})
        for item in items
    ))


def save_model(model: GpModel, path) -> None:
    """Serialize everything needed to rebuild the model deterministically."""
    doc = {
        "format": "mixedgp-model",
        "version": 1,
        "kernel": model.kind.value,
        "p": model.p,
        "epsilon": kr.EPSILON,
        "jitter": model.jitter,
        "theta_flat": model.theta_star.flat.tolist(),
        "mu_hat": model.mu_hat,
        "sigma2_hat": model.sigma2_hat,
        "log_likelihood": model.log_likelihood,
        "y_mean": model.y_mean,
        "y_scale": model.y_scale,
        "fit_seconds": model.fit_seconds,
        "space": _space_to_json(model.dataset.space),
        "points": {
            "continuous": model.dataset.points.X.tolist(),
            "integer": model.dataset.points.Z.tolist(),
            "categorical": model.dataset.points.C.tolist(),
        },
        "targets": model.dataset.targets.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1))


# keys load_model reads, with the JSON types each must have; only fit_seconds may be absent
_MODEL_KEYS = {"version": int, "kernel": str, "p": int, "epsilon": (int, float),
               "jitter": (int, float), "theta_flat": list, "space": list, "points": dict,
               "targets": list, "fit_seconds": (int, float)}


def load_model(path) -> GpModel:
    """Rebuild a model saved by :func:`save_model` (bit-identical predictions).

    Raises ParseError when the file is not a model file, misses a key, holds
    a value of the wrong type, its ``version`` is not 1, its ``epsilon`` is
    not :data:`~mixedgp.kernels.EPSILON`, or its hyperparameters are not
    finite or violate their domain (negative rates, say).
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "mixedgp-model":
        raise ParseError(f"{path} is not a mixedgp model file")
    doc = {"fit_seconds": 0.0, **doc}
    for key, types in _MODEL_KEYS.items():
        if key not in doc:
            raise ParseError(f"{path}: model file has no {key!r}")
        if isinstance(doc[key], bool) or not isinstance(doc[key], types):
            raise ParseError(f"{path}: {key!r} has the wrong type: {doc[key]!r}")
    if doc["version"] != 1:
        raise ParseError(f"{path}: model file version {doc['version']} is not 1")
    try:
        space = _space_from_json(doc["space"])
        rows = {name: doc["points"][name] for name in ("continuous", "integer", "categorical")}
        for name, r in rows.items():
            if len(r) != len(doc["targets"]):
                raise ValueError(f"points.{name} holds {len(r)} rows for "
                                 f"{len(doc['targets'])} targets")
        dataset = Dataset(space, PointBatch(space, *rows.values()), doc["targets"])
        kind = kr.CategoricalKernelKind.parse(doc["kernel"])
        p = kr.check_exponent(doc["p"])
        if not (math.isfinite(doc["jitter"]) and doc["jitter"] > 0):
            raise ValueError(f"jitter must be positive, got {doc['jitter']!r}")
        if doc["epsilon"] != kr.EPSILON:
            raise ValueError(f"epsilon must be {kr.EPSILON!r}, the kernel's constant; "
                             f"got {doc['epsilon']!r}")
        theta = kr.HyperparameterSet.from_flat(space, kind, doc["theta_flat"])
    except (KeyError, TypeError, ValueError, MixedGpError) as exc:
        raise ParseError(f"{path}: invalid model file: {exc}") from exc
    return build_model(dataset, theta, p, float(doc["jitter"]),
                       fit_seconds=float(doc["fit_seconds"]))
