"""Gaussian-process core: correlation assembly, likelihood, fitting, prediction.

The model is noiseless kriging with a constant trend.  For hyperparameters
Theta the correlation matrix R(Theta) couples all training points through
the mixed product kernel; the trend and process variance are profiled out
of the likelihood in closed form:

    mu_hat    = (1' R^-1 y) / (1' R^-1 1)
    sigma2    = (y - mu_hat)' R^-1 (y - mu_hat) / n_t
    log L     = -(n_t/2) log sigma2 - (1/2) log |R| - (n_t/2)(1 + log 2 pi)

One evaluator, ``_Workspace.evaluate``, maps a natural-units
hyperparameter vector to R and its likelihood; fitting, model building and
:func:`concentrated_log_likelihood` all go through it.  All solves go
through one Cholesky factor of R + jitter*I; the jitter
escalates by factors of 10 (up to 1e-4) when factorization fails, which
makes duplicate design points survivable.  Internally the GP always sees
continuous/integer coordinates normalized to [0, 1] and targets
standardized to zero mean and unit variance; reported trend, variance and
predictions are in original units.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

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
    warm starts appended after the evenly spaced diagonal starts.
    """

    n_starts: int = 10
    max_evals: int | None = None
    jitter: float = JITTER_DEFAULT
    seed: int = 0
    extra_starts: tuple = ()
    theta_log_bounds: tuple[float, float] = kr.THETA_LOG_BOUNDS

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if not self.jitter > 0:
            raise ValueError("jitter must be positive")


# ---------------------------------------------------------------------------
# kernel workspace: precomputed distance/indexing structures and the evaluator
# ---------------------------------------------------------------------------

class _Evaluation(NamedTuple):
    """One likelihood evaluation and the factors a model keeps from it."""

    log_likelihood: float
    mu: float
    sigma2: float
    R: np.ndarray
    chol: np.ndarray
    jitter: float
    r_ones: np.ndarray  # L^-1 1


class _Workspace:
    """Per-dataset caches and the one likelihood evaluator.

    Holds |x_r - x_s|^p per continuous/integer dimension, the 0-based
    level index column and the flat level-pair indices per categorical
    variable, all on normalized coordinates, plus the targets
    :meth:`evaluate` scores and their variance floor.
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
        # flat index of level pair (c_r, c_s) in the row-major L x L level matrix
        self.level_pairs = [(idx[:, None] * L + idx[None, :]).astype(np.intp)
                            for idx, L in zip(self.levels.T, self.level_counts)]
        self.y = targets
        self.ones = np.ones(self.n_points)
        var_y = float(np.var(targets))
        self.sigma2_floor = 1e-12 * var_y if var_y > 0 else 1e-12

    def flat(self, theta: kr.HyperparameterSet) -> np.ndarray:
        """theta's natural-units vector, once its layout is checked against the space."""
        layout = (theta.theta_cont.size + theta.theta_int.size,
                  tuple(m.size for m in theta.theta_cat))
        if layout != (self.n_numeric, self.level_counts):
            raise ShapeMismatch(f"hyperparameter layout {layout} does not fit the space's "
                                f"{(self.n_numeric, self.level_counts)}")
        return theta.flat()

    def _categorical_factors(self, kind, flat, epsilon):
        """(variable index, level matrix) per categorical variable."""
        pos = self.n_numeric
        for i, L in enumerate(self.level_counts):
            k = kr.categorical_param_count(kind, L)
            yield i, kr.level_matrix(kind, L, flat[pos:pos + k], epsilon)
            pos += k

    def correlation(self, kind, flat: np.ndarray, epsilon: float) -> np.ndarray:
        """R at the natural-units vector ``flat``, exact unit diagonal, no jitter."""
        R = np.exp(-np.tensordot(flat[:self.n_numeric], self.pair_powers, axes=1))
        for i, Ri in self._categorical_factors(kind, flat, epsilon):
            R *= Ri.take(self.level_pairs[i])
        np.fill_diagonal(R, 1.0)
        return R

    def cross_correlations(self, kind, flat: np.ndarray, epsilon: float, points):
        """Yield (rows, k(new[rows], train)) over the row chunks of ``points``.

        Each block has shape (len(rows), n_train); the |x_new - x_train|^p
        work array is allocated once, so memory is O(chunk * n_train * d).
        """
        X, Z, C = points.normalized()
        XZ = np.hstack([X, Z])
        theta = flat[:self.n_numeric]
        tables = [(i, Ri[:, self.levels[:, i]])
                  for i, Ri in self._categorical_factors(kind, flat, epsilon)]
        work = np.empty((min(len(points), _PREDICT_CHUNK + 1), self.n_points, self.n_numeric))
        for rows in _row_chunks(len(points)):
            diffs = work[:rows.stop - rows.start]
            for j in range(self.n_numeric):
                column = diffs[:, :, j]
                np.subtract(XZ[rows, j, None], self.numeric[:, j], out=column)
                if self.p == 1:
                    np.abs(column, out=column)
                else:  # the square of -x and of |x| have the same bits
                    np.square(column, out=column)
            K = np.exp(-(diffs @ theta))
            for i, table in tables:
                K *= table.take(C[rows, i] - 1, axis=0)
            yield rows, K

    def evaluate(self, kind, flat: np.ndarray, epsilon: float, jitter: float) -> _Evaluation:
        """Profiled likelihood of the workspace targets at ``flat``.

        Raises NumericalFailure when R + jitter*I cannot be factored even
        after jitter escalation.
        """
        R = self.correlation(kind, flat, epsilon)
        chol, jitter_used = _cholesky_with_escalation(R, jitter)
        n = self.n_points
        a = _solve(chol, self.y)
        b = _solve(chol, self.ones)
        mu = float((b @ a) / (b @ b))
        resid = a - mu * b
        sigma2 = max(float(resid @ resid) / n, self.sigma2_floor)
        log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
        ll = -0.5 * n * math.log(sigma2) - 0.5 * log_det - 0.5 * n * (1.0 + math.log(2.0 * math.pi))
        return _Evaluation(ll, mu, sigma2, R, chol, jitter_used, b)


def _cholesky_with_escalation(R: np.ndarray, jitter: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of R + j*I, escalating j by 10 up to JITTER_MAX."""
    j = float(jitter)
    diagonal = np.diag_indices_from(R)
    while True:
        work = np.array(R, dtype=float, order="F")
        work[diagonal] += j
        chol, info = dpotrf(work, lower=1, clean=1, overwrite_a=1)
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
    return ws.correlation(theta.kind, ws.flat(theta), theta.epsilon)


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
    return ws.evaluate(theta.kind, ws.flat(theta), theta.epsilon, jitter).log_likelihood


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
    exactly what :func:`fit` maximized.
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

    @property
    def epsilon(self) -> float:
        return self.theta_star.epsilon

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
    ev = ws.evaluate(theta.kind, ws.flat(theta), theta.epsilon, jitter)
    alpha = _refined_weights(ev.R, ev.chol, ws.y - ev.mu)
    r_inv_ones = _solve(ev.chol, ev.r_ones, trans=1)
    return GpModel(
        dataset=dataset,
        kind=theta.kind,
        p=ws.p,
        theta_star=theta,
        chol=ev.chol,
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
    epsilon: float = kr.EPSILON,
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

    lower, upper, log_mask = kr.search_bounds(space, kind, config.theta_log_bounds)
    bounds = BoxBounds(lower, upper)

    def objective(v: np.ndarray) -> float:
        try:
            ev = ws.evaluate(kind, kr.natural_from_search(v, log_mask), epsilon, config.jitter)
        except NumericalFailure:
            return -math.inf
        return ev.log_likelihood

    extra = []
    for hp in config.extra_starts:
        if hp.kind is not kind:
            raise ShapeMismatch(
                f"warm start kind {hp.kind.value} does not match fit kind {kind.value}"
            )
        extra.append(kr.search_vector_from_set(space, hp))

    search_cfg = SearchConfig(max_evals=config.max_evals, seed=config.seed)
    result: MultistartResult = multistart(
        objective, bounds, config.n_starts, search_cfg, extra_starts=tuple(extra)
    )
    theta_star = kr.set_from_search_vector(space, kind, result.point, epsilon)
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
    holds _PREDICT_CHUNK + 1 rows): a one-column ``dtrtrs`` rounds
    differently from a wide one.
    """
    chunks = [slice(start, min(start + _PREDICT_CHUNK, n))
              for start in range(0, n, _PREDICT_CHUNK)]
    if len(chunks) > 1 and n % _PREDICT_CHUNK == 1:
        chunks[-2:] = [slice(chunks[-2].start, n)]
    return chunks


def predict(model: GpModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at a batch or MixedPoints (original units, variance >= 0).

    The points are processed in chunks of rows, so memory beyond the two
    output vectors stays O(chunk * n_train) whatever the batch size.  A
    point's last digits depend on where it sits in the batch: BLAS rounds
    the rows of a matrix-vector product in blocks of four, and a one-point
    triangular solve differently from a wide one, so
    ``predict(m, g[i:i+1])`` may differ from ``predict(m, g)[i]`` by
    rounding.  The same batch always gives the same bits.
    """
    batch = PointBatch.of(model.dataset.space, points)
    theta = model.theta_star
    means, variances = np.empty(len(batch)), np.empty(len(batch))
    ones_r_ones = float(model._r_inv_ones.sum())
    for rows, K in model._workspace.cross_correlations(theta.kind, theta.flat(), theta.epsilon,
                                                       batch):
        mean_std = model.mu_std + K @ model._alpha
        means[rows] = model.y_mean + model.y_scale * mean_std
        v = _solve(model.chol, K.T)
        quad = np.sum(v * v, axis=0)
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
        "epsilon": model.epsilon,
        "jitter": model.jitter,
        "theta_flat": model.theta_star.flat().tolist(),
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


# keys load_model reads, with the JSON types each must have
_MODEL_KEYS = {"kernel": str, "p": int, "epsilon": (int, float), "jitter": (int, float),
               "theta_flat": list, "space": list, "points": dict, "targets": list}


def load_model(path) -> GpModel:
    """Rebuild a model saved by :func:`save_model` (bit-identical predictions).

    Raises ParseError when the file is not a model file, misses a key, holds
    a value of the wrong type, or its hyperparameters are not finite or
    violate their domain (negative rates, say).
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "mixedgp-model":
        raise ParseError(f"{path} is not a mixedgp model file")
    for key, types in _MODEL_KEYS.items():
        if key not in doc:
            raise ParseError(f"{path}: model file has no {key!r}")
        if isinstance(doc[key], bool) or not isinstance(doc[key], types):
            raise ParseError(f"{path}: {key!r} has the wrong type: {doc[key]!r}")
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
        theta_flat = np.array(doc["theta_flat"], dtype=float)
        if not np.all(np.isfinite(theta_flat)):
            raise ValueError("theta_flat holds a non-finite value")
        theta = kr.HyperparameterSet.from_flat(space, kind, theta_flat, doc["epsilon"])
    except (KeyError, TypeError, ValueError, MixedGpError) as exc:
        raise ParseError(f"{path}: invalid model file: {exc}") from exc
    return build_model(dataset, theta, p, float(doc["jitter"]),
                       fit_seconds=float(doc.get("fit_seconds", 0.0)))
