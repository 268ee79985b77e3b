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
through it, on a workspace built for one kernel kind and one starting
jitter.  Building a workspace checks that jitter (:func:`_check_jitter`:
positive and finite, else ValueError), so every entry that takes one
refuses a bad one.  There is one way to make a model, :func:`build_model`
on a fresh workspace: :func:`fit` returns it at the optimum theta* and
:func:`load_model` at the saved theta*, so a reloaded model has a fitted
one's bits.  R is the product of one factor per block of the vector,

    R = exp(-sum_j theta_j D_j) o R_1[c_r, c_s] o R_2[c_r, c_s] o ...

(the rates, then each categorical variable), and the workspace keeps each
block's last factor with the slice of the vector it was built from.  A
search step that moves one coordinate therefore rebuilds one factor; the
product is taken in the same order either way, so every likelihood has
the same bits as a rebuild from scratch.  The factors are held in R^T
layout, so their C-order product is R in Fortran order: the scorer
multiplies them straight into one Fortran-order n x n buffer per
workspace, writes 1 + jitter on its diagonal and factors it there with
``dpotrf``.  Scoring never allocates or copies R; an evaluation's
factor is that buffer, valid until the next evaluation on the workspace.
A workspace, with its kept factors, buffer and pairwise distances, lives
for one search, model build or one-off score; no model keeps one, and
prediction reads only the model (:func:`_cross_correlations`).
``_Workspace.evaluate_block`` scores many vectors at once; a fit passes
it each search stencil.  It builds the level matrices of all its rows as
one stack per categorical variable, then scores the rows in order
through the same memo and scorer as ``evaluate``, so every row keeps the
bits of a one-vector evaluation and leaves the memo as that evaluation
would.  All solves go through one Cholesky factor L of
R + jitter*I, read from its lower triangle (the search leaves R's upper
triangle in place; a model stores the clean lower factor, and L^-1 for
the predictive variance); the jitter escalates by factors of 10 (up to
1e-4) when factorization fails, the buffer refilled from the kept
factors each time, which makes duplicate design points survivable.
Internally the GP always sees continuous/integer coordinates normalized
to [0, 1] and targets standardized to zero mean and unit variance;
reported trend, variance and predictions are in original units.
:func:`predict` streams the new points in chunks of ``_PREDICT_CHUNK``
rows.  :func:`_cross_correlations` finds runs of equal numeric
coordinates once per window of ``_RUN_WINDOW`` chunks, not per chunk,
and builds a run's numeric factor once, in blocks of at most
``_PREDICT_CHUNK`` distinct numeric rows; each chunk writes its
standardized mean and variance terms, and the affine maps to original
units run once on the whole outputs.  A chunk's block is its own, so the
variance's triangular multiply overwrites it, after the mean and the
shortfall have read it.  Beyond the outputs, memory is
O(chunk * n_train * d) plus O(window) whatever the batch size.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs

from . import kernels as kr
from .errors import MixedGpError, NumericalFailure, ParseError, ShapeMismatch
from .optimize import BoxBounds, MultistartResult, multistart
from .space import Categorical, Continuous, Dataset, DesignSpace, Integer, PointBatch, _count

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
# Chunks per window of run detection in _cross_correlations: runs of equal
# numeric coordinates are found once per window, so the run index stays
# O(window) whatever the batch size.
_RUN_WINDOW = 16


def _check_jitter(jitter: float) -> None:
    """Raise ValueError unless ``jitter``, R's starting nugget, is a positive finite number."""
    if isinstance(jitter, (bool, np.bool_)):
        raise ValueError(f"jitter must be a number, not a bool, got {jitter!r}")
    if not (math.isfinite(jitter) and jitter > 0):
        raise ValueError(f"jitter must be positive and finite, got {jitter!r}")


def _check_design(dataset: Dataset) -> None:
    """Raise ValueError unless ``dataset`` has 2 points: one point scores alike at every theta."""
    if len(dataset) < 2:
        raise ValueError(f"a fit needs at least 2 points, the dataset has {len(dataset)}")


def _solve(chol: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """L^-1 b (trans=0) or L^-T b (trans=1) for a lower Cholesky factor L."""
    return dtrtrs(chol, b, lower=1, trans=trans)[0]


@dataclass(frozen=True)
class FitConfig:
    """Multistart fitting configuration.

    ``n_starts`` is the number of evenly spaced diagonal starts, and
    ``max_evals`` the optimizer budget per start (500 * dim when None).
    ``extra_starts``, stored as a tuple, holds
    :class:`~mixedgp.kernels.HyperparameterSet` warm starts appended after
    the diagonal starts; an entry of another type, or a bare set, raises
    TypeError.  The search draws nothing at random: ``seed`` is carried for
    provenance only, the seed of the design a fit was run on (``mixedgp fit
    --seed``).  ``n_starts`` and ``max_evals`` must be whole numbers, not
    bools (TypeError otherwise), of at least 1, but ``n_starts`` may be 0
    when ``extra_starts`` holds a warm start (the fit then runs the warm
    starts alone), and ``jitter``, the starting nugget, must be positive
    and finite (ValueError otherwise).
    """

    n_starts: int = 10
    max_evals: int | None = None
    jitter: float = JITTER_DEFAULT
    seed: int = 0
    extra_starts: tuple = ()

    def __post_init__(self):
        if isinstance(self.extra_starts, kr.HyperparameterSet):
            raise TypeError("extra_starts must be a sequence of HyperparameterSet, got a bare one")
        object.__setattr__(self, "extra_starts", tuple(self.extra_starts))
        if not all(isinstance(hp, kr.HyperparameterSet) for hp in self.extra_starts):
            raise TypeError("extra_starts must hold HyperparameterSet warm starts only")
        minimum = 0 if self.extra_starts else 1
        if _count(self.n_starts) < minimum:
            raise ValueError(f"n_starts must be >= {minimum}")
        if self.max_evals is not None and _count(self.max_evals) < 1:
            raise ValueError("max_evals must be None or >= 1")
        _check_jitter(self.jitter)


# ---------------------------------------------------------------------------
# kernel workspace: precomputed distance/indexing structures and the evaluator
# ---------------------------------------------------------------------------

class _Evaluation(NamedTuple):
    """One likelihood evaluation, and what a model is built from.

    ``chol`` is the lower Cholesky factor of R + jitter*I in its lower
    triangle; its upper triangle holds R's (the factorization does not
    clear it, and every solve reads the lower triangle only).  It is the
    workspace's scoring buffer itself, so it stays valid only until the
    next evaluation on that workspace: a model keeps a clean copy.
    """

    log_likelihood: float
    mu: float
    sigma2: float
    chol: np.ndarray
    jitter: float
    r_ones: np.ndarray  # L^-1 1


class _Workspace:
    """The likelihood evaluator of one kernel kind, exponent and starting jitter on one dataset.

    Built for one search, one model build or one one-off score, and
    dropped when that call returns; its constructor refuses a jitter that
    is not positive and finite (ValueError).  Holds ``pair_powers``
    (|x_r - x_s|^p, one row per continuous/integer dimension over the n*n
    pairs), the 0-based level index column and the slice of the flat
    vector (``variables``) per categorical variable, the targets with their
    variance floor, ``_buffer``, the Fortran-order n x n array R is built
    and factored in, and ``_memo``: per factor block of R (-1 for the
    rates, i for categorical variable i), the bytes of the slice it was
    last built at and the n x n factor.  Every evaluation, of one vector
    or of one row of a block, leaves there the factors it used.
    """

    def __init__(self, points: PointBatch, kind: kr.CategoricalKernelKind, p: int,
                 targets: np.ndarray, jitter: float = JITTER_DEFAULT):
        self.kind = kind
        self.p = kr.check_exponent(p)
        _check_jitter(jitter)
        self.jitter = jitter
        X, Z, C = points.normalized()
        XZ = np.hstack([X, Z])
        self.n_points = n = XZ.shape[0]
        self.n_numeric = XZ.shape[1]
        diffs = np.abs(XZ[:, None, :] - XZ[None, :, :]) ** self.p
        self.pair_powers = np.ascontiguousarray(np.moveaxis(diffs, 2, 0)).reshape(-1, n * n)
        self.levels = C - 1
        self.level_counts = points.space.level_counts
        self.layout = (self.n_numeric, self.level_counts)
        self.y = targets
        self.ones = np.ones(n)
        var_y = float(np.var(targets))
        self.sigma2_floor = 1e-12 * var_y if var_y > 0 else 1e-12
        self.variables, pos = [], self.n_numeric
        for i, L in enumerate(self.level_counts):
            k = kr.categorical_param_count(kind, L)
            self.variables.append((i, L, slice(pos, pos + k)))
            pos += k
        self._memo: dict[int, tuple] = {}
        self._buffer = np.empty((n, n), order="F")

    def flat(self, theta: kr.HyperparameterSet) -> np.ndarray:
        """theta's natural-units vector, once its kind and layout are checked against the workspace."""
        if theta.kind is not self.kind or theta.layout != self.layout:
            raise ShapeMismatch(f"a {theta.kind.value} set on layout {theta.layout} does not fit "
                                f"the workspace's {self.kind.value} kernel on {self.layout}")
        return theta.flat

    def _memoized(self, block: int, key: bytes, build) -> np.ndarray:
        """Block ``block``'s factor at ``key``, built only when the key changed, and kept."""
        entry = self._memo.get(block)
        if entry is not None and entry[0] == key:
            return entry[1]
        factor = build()
        factor.flags.writeable = False  # shared by every later evaluation
        self._memo[block] = (key, factor)
        return factor

    def _factors(self, flat, levels=None) -> list[np.ndarray]:
        """R's n x n factors, transposed: exp(-theta . D), then R_i[c_s, c_r] per variable.

        exp(-theta . D) is symmetric bit for bit, as |x_r - x_s|^p is; a
        level matrix need not be (``kappa`` adds d_r and d_s in either
        order), so its factor is gathered transposed.  A factor is keyed by
        the bytes of its slice of ``flat``.  ``levels``, from
        :meth:`evaluate_block`, holds the row's level matrices, one per
        categorical variable; without it a rebuilt factor builds its own.
        """
        rates = flat[:self.n_numeric]
        factors = [self._memoized(-1, rates.tobytes(), lambda: self._rates_factor(rates))]
        for i, L, cut in self.variables:
            values = flat[cut]
            factors.append(self._memoized(i, values.tobytes(), lambda: self._gathered(
                i, levels[i] if levels is not None else kr.categorical_matrix(self.kind, L, values))))
        return factors

    def _rates_factor(self, rates: np.ndarray) -> np.ndarray:
        """exp(-theta . D), n x n: one product over the pairs, negated and exponentiated in place."""
        E = np.dot(rates, self.pair_powers)
        np.negative(E, out=E)
        np.exp(E, out=E)
        return E.reshape(self.n_points, self.n_points)

    def _gathered(self, i: int, level_matrix: np.ndarray) -> np.ndarray:
        """R_i[c_s, c_r] at [r, s], the level factor of variable i transposed.

        Whole rows are gathered twice (rows c_r of R_i, then rows c_s of the
        transposed n x L result), which is cheaper than one gather per entry.
        """
        c = self.levels[:, i]
        return level_matrix.take(c, axis=0).T.take(c, axis=0)

    def _assemble(self, factors: list[np.ndarray], out: np.ndarray, diagonal: float) -> None:
        """((E o G_1) o G_2) ... of the transposed factors into ``out`` (C order), and ``diagonal``.

        ``out`` receives R^T: the transpose of a Fortran-order array gets R.
        """
        E, *G = factors
        if G:
            np.multiply(E, G[0], out=out)
        else:
            np.copyto(out, E)
        for Gi in G[1:]:
            np.multiply(out, Gi, out=out)
        out.reshape(-1)[::self.n_points + 1] = diagonal

    def correlation(self, flat: np.ndarray) -> np.ndarray:
        """R at the natural-units vector ``flat``, exact unit diagonal, no jitter (C order)."""
        R_T = np.empty((self.n_points, self.n_points))
        self._assemble(self._factors(flat), R_T, 1.0)
        return R_T.T.copy()

    def _score(self, factors: list[np.ndarray]) -> _Evaluation:
        """Profiled likelihood of the workspace targets under the R of ``factors``.

        R + jitter*I is built in the workspace's Fortran-order buffer and
        factored there, from the workspace's jitter; when the factorization
        fails the buffer is refilled and the jitter escalates by 10 up to
        JITTER_MAX.  Raises NumericalFailure when even that fails.
        """
        n = self.n_points
        j = float(self.jitter)
        while True:
            self._assemble(factors, self._buffer.T, 1.0 + j)
            chol, info = dpotrf(self._buffer, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                break
            if j >= JITTER_MAX:
                raise NumericalFailure(f"Cholesky failed even with jitter {j:g}")
            j = min(j * 10.0, JITTER_MAX)
        a = _solve(chol, self.y)
        b = _solve(chol, self.ones)
        mu = float((b @ a) / (b @ b))
        resid = a - mu * b
        sigma2 = max(float(resid @ resid) / n, self.sigma2_floor)
        log_det = 2.0 * float(np.log(chol.diagonal()).sum())
        ll = -0.5 * n * math.log(sigma2) - 0.5 * log_det - 0.5 * n * (1.0 + math.log(2.0 * math.pi))
        return _Evaluation(ll, mu, sigma2, chol, j, b)

    def evaluate(self, flat: np.ndarray) -> _Evaluation:
        """Profiled likelihood of the workspace targets at ``flat``.

        Raises NumericalFailure when R + jitter*I cannot be factored even
        after jitter escalation.
        """
        return self._score(self._factors(flat))

    def evaluate_block(self, flats: np.ndarray) -> np.ndarray:
        """Log-likelihoods at the rows of ``flats`` (m, size), -inf where R cannot be factored.

        Row by row, the value has the bits of :meth:`evaluate` at that row.
        Each categorical variable builds the level matrices of all m rows
        as one stack; the rows are then scored in order through the same
        memo and scorer as one-vector evaluations, so a block of R is
        rebuilt only when its slice differs from the row before.  The
        n x n work is done row by row in the one scoring buffer; no
        (m, n, n) stack is held.
        """
        stacks = [kr.categorical_matrix(self.kind, L, flats[:, cut]) for _, L, cut in self.variables]
        lls = np.empty(len(flats))
        for row, flat in enumerate(flats):
            levels = [stack[row] for stack in stacks]
            try:
                lls[row] = self._score(self._factors(flat, levels)).log_likelihood
            except NumericalFailure:
                lls[row] = -math.inf
        return lls


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def correlation_matrix(dataset: Dataset, theta: kr.HyperparameterSet, p: int = 2) -> np.ndarray:
    """Training correlation matrix: mixed kernel on normalized coordinates.

    Symmetric with exact unit diagonal; no jitter is added here.
    """
    ws = _Workspace(dataset.points, theta.kind, p, dataset.targets)
    return ws.correlation(ws.flat(theta))


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
    jitter escalation, and ValueError, before any evaluation, when the
    dataset has fewer than 2 points, as :func:`fit` does.
    """
    _check_design(dataset)
    ws = _Workspace(dataset.points, theta.kind, p, dataset.targets, jitter)
    return ws.evaluate(ws.flat(theta)).log_likelihood


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
    the variance from it by one triangular multiply.  It keeps no likelihood
    evaluator: :func:`predict` reads the training points of ``dataset``,
    ``kind``, ``p`` and ``theta_star``.
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


def build_model(
    dataset: Dataset,
    theta: kr.HyperparameterSet,
    p: int = 2,
    jitter: float = JITTER_DEFAULT,
) -> GpModel:
    """The model at fixed hyperparameters (no optimization), on a fresh evaluator.

    Every model is made here: :func:`fit` returns this call at its optimum
    and :func:`load_model` at the saved hyperparameters, so a reloaded model
    has a fitted one's bits.  ``jitter`` is the starting nugget; the model
    keeps the one its factorization needed.  Raises ValueError when
    ``jitter`` is not positive and finite, ``p`` is not 1 or 2, or the
    dataset has fewer than 2 points (as :func:`fit` does).
    """
    _check_design(dataset)
    ds_std, y_mean, y_scale = standardize_targets(dataset)
    ws = _Workspace(dataset.points, theta.kind, p, ds_std.targets, jitter)
    flat = ws.flat(theta)
    ev = ws.evaluate(flat)
    alpha = _refined_weights(ws.correlation(flat), ev.chol, ws.y - ev.mu)
    r_inv_ones = _solve(ev.chol, ev.r_ones, trans=1)
    chol = np.asfortranarray(np.tril(ev.chol))  # a clean lower factor, in LAPACK's order
    chol_inv, info = dtrtri(chol, lower=1)
    if info != 0:
        raise NumericalFailure(f"the Cholesky factor cannot be inverted (dtrtri info {info})")
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
        _alpha=alpha,
        _r_inv_ones=r_inv_ones,
        _chol_inv=chol_inv,
    )


def _maximize(dataset: Dataset, kind: kr.CategoricalKernelKind, p: int,
              config: FitConfig) -> MultistartResult:
    """:func:`fit`'s multistart search, on a workspace dropped when it returns."""
    ws = _Workspace(dataset.points, kind, p, standardize_targets(dataset)[0].targets,
                    config.jitter)
    lower, upper, log_mask = kr.search_bounds(dataset.space, kind)
    bounds = BoxBounds(lower, upper)

    def objective(v: np.ndarray) -> float:
        try:
            return ws.evaluate(kr.natural_from_search(v, log_mask)).log_likelihood
        except NumericalFailure:
            return -math.inf

    def batch_objective(V: np.ndarray) -> np.ndarray:
        return ws.evaluate_block(kr.natural_from_search(V, log_mask))

    extra = tuple(kr.search_from_natural(ws.flat(hp), log_mask) for hp in config.extra_starts)
    return multistart(objective, bounds, config.n_starts, config.max_evals, extra_starts=extra,
                      batch_objective=batch_objective)


def fit(
    dataset: Dataset,
    kind: kr.CategoricalKernelKind,
    p: int = 2,
    config: FitConfig = FitConfig(),
) -> GpModel:
    """Maximum-likelihood fit via deterministic multistart derivative-free search.

    ``config.n_starts`` starts are evenly spaced along the diagonal of the
    flat hyperparameter box (log-theta and angle coordinates), none when it
    is 0; ``config.extra_starts`` adds warm starts after them.  The best
    hyperparameters over all searches, theta*, define the model: it is
    ``build_model(dataset, theta*, p, config.jitter)``, the call
    :func:`load_model` makes, with ``fit_seconds`` and ``start_log`` set.
    The search's workspace is dropped before the model is built.  Raises
    NumericalFailure when that model's likelihood is not the search's
    value, and ValueError, before any evaluation, when ``p`` is not 1 or 2
    or the dataset has fewer than 2 points (one point's likelihood is the
    same at every theta).
    """
    _check_design(dataset)
    t0 = time.perf_counter()
    result = _maximize(dataset, kind, p, config)
    theta_star = kr.set_from_search_vector(dataset.space, kind, result.point)
    model = build_model(dataset, theta_star, p, config.jitter)
    # sanity: the model stores exactly the value the optimizer maximized
    if model.log_likelihood != result.value:
        raise NumericalFailure(
            "likelihood at the returned optimum does not reproduce the search value"
        )
    return replace(model, fit_seconds=time.perf_counter() - t0, start_log=result.starts)


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


def _cross_correlations(model: GpModel, points: PointBatch):
    """Yield (rows, k(new[rows], train)) over the row chunks of ``points``, from the model alone.

    Each block has shape (len(rows), n_train).  Runs of consecutive rows
    with equal numeric coordinates (a grid whose categorical variables come
    last) are found once per window of ``_RUN_WINDOW`` chunks, not per
    chunk, and a run shares one numeric factor
    exp(-theta . |x_new - x_train|^p): a row starts a run when one of its
    numeric columns differs from the row before, tested column by column.
    The factors of a window's runs are built in blocks of at most
    ``_PREDICT_CHUNK`` distinct numeric rows (a chunk's own runs, and the
    next chunks' while they fit; a run across the edge of two blocks is
    built in both); each chunk gathers its rows from its block before the
    level-matrix tables multiply in.  Every row keeps the bits of its own
    factor, as a row's factor does not depend on the rows built with it.
    A window's first row always starts a run.  The |x_new - x_train|^p
    work array is allocated once, so memory is O(chunk * n_train * d) plus
    O(window) for the run index.  Each yielded block belongs to the caller:
    it is yielded once, nothing here reads it again, and it may be
    overwritten.
    """
    X, Z, C = points.normalized()
    XZ = np.hstack([X, Z])
    training, theta = model.dataset.points, model.theta_star
    train = np.hstack(training.normalized()[:2])
    tables = [(i, kr.categorical_matrix(model.kind, L, theta.variable(i))[:, training.C[:, i] - 1])
              for i, L in enumerate(training.space.level_counts)]
    work = np.empty((min(len(points), _PREDICT_CHUNK + 1), *train.shape))

    def numeric_factor(distinct: np.ndarray) -> np.ndarray:
        diffs = work[:len(distinct)]
        for j in range(train.shape[1]):
            column = diffs[:, :, j]
            np.subtract(distinct[:, j, None], train[:, j], out=column)
            if model.p == 1:
                np.abs(column, out=column)
            else:  # the square of -x and of |x| have the same bits
                np.square(column, out=column)
        return np.exp(-(diffs @ theta.rates))

    chunks = _row_chunks(len(points))
    for w in range(0, len(chunks), _RUN_WINDOW):
        window = chunks[w:w + _RUN_WINDOW]
        offset = window[0].start
        rows_xz = XZ[offset:window[-1].stop]
        # rows equal by value share a run: -0.0 and 0.0 give |x - x_train|^p
        # the same bits against every training coordinate
        first = np.zeros(len(rows_xz), dtype=bool)
        first[0] = True
        for j in range(rows_xz.shape[1]):
            first[1:] |= rows_xz[1:, j] != rows_xz[:-1, j]
        run = np.cumsum(first) - 1  # the run of each row of the window
        distinct = rows_xz[first]
        i = 0
        while i < len(window):
            lo, j = run[window[i].start - offset], i + 1
            while j < len(window) and run[window[j].stop - 1 - offset] - lo < _PREDICT_CHUNK:
                j += 1
            E = numeric_factor(distinct[lo:run[window[j - 1].stop - 1 - offset] + 1])
            for rows in window[i:j]:
                index = run[rows.start - offset:rows.stop - offset] - lo
                # a block of one chunk with no shared run is that chunk's own
                K = E if j == i + 1 and len(index) == len(E) else E.take(index, axis=0)
                for c, table in tables:
                    K *= table.take(C[rows, c] - 1, axis=0)
                yield rows, K
            i = j


def predict(model: GpModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at a batch or MixedPoints (original units, variance >= 0).

    The kriging formulas (Rasmussen & Williams, *GPML* 2006, eqs. 2.25-2.26)
    on the standardized model.  The points are processed in chunks of rows
    (:func:`_row_chunks`): each chunk writes its K @ alpha and its
    1 - |L^-1 k|^2 + (1 - 1'R^-1 k)^2 / 1'R^-1 1 straight into its slices
    of the two output vectors, term by term, and the scalar maps back to
    original units (the trend, the scale, the process variance and the
    clamp at 0) then run once on the whole outputs.  These are the
    per-chunk formula's operations in its order, so every value has its
    bits.  Memory beyond the two output vectors stays
    O(chunk * n_train * d) plus O(window) whatever the batch size.  The
    quadratic term is one ``dtrmm`` with the model's kept L^-1 per chunk.
    It writes L^-1 K^T over the chunk's own block K (``K.T`` is the
    Fortran-order operand BLAS works on in place, so no copy is made);
    K @ alpha and the shortfall's K R^-1 1 read K before it.
    Consecutive points with equal numeric coordinates share the
    numeric factor of k, found per window of chunks and built per block of
    distinct numeric rows (:func:`_cross_correlations`), so a grid whose
    categorical variables come last builds it once per numeric point.  A
    mean has the bits of the whole-batch formula, chunked or not.  A
    variance's last bits depend on the chunk it falls in (a triangular
    multiply rounds a column by the width of its right-hand side) and on the
    BLAS thread count; it agrees with the triangular-solve formula to well
    within jitter * sigma2_hat.  A batch predicts exactly what its chunks
    predict one by one; with the same BLAS thread count, the same batch
    gives the same bits on every run and after a reload.
    """
    batch = PointBatch.of(model.dataset.space, points)
    means, variances = np.empty(len(batch)), np.empty(len(batch))
    ones_r_ones = float(model._r_inv_ones.sum())
    for rows, K in _cross_correlations(model, batch):
        np.matmul(K, model._alpha, out=means[rows])
        shortfall = K @ model._r_inv_ones
        # K is this chunk's own block: L^-1 K^T overwrites it (K.T is Fortran-order, no copy)
        v = dtrmm(1.0, model._chol_inv, K.T, lower=1, overwrite_b=1)
        variance = variances[rows]
        np.add.reduce(np.square(v, out=v), axis=0, out=variance)
        np.subtract(1.0, variance, out=variance)
        np.subtract(1.0, shortfall, out=shortfall)
        np.square(shortfall, out=shortfall)
        shortfall /= ones_r_ones
        variance += shortfall
    means += model.mu_std
    means *= model.y_scale
    means += model.y_mean
    variances *= model.sigma2_std
    np.maximum(variances, 0.0, out=variances)
    variances *= model.y_scale ** 2
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


def _read_model_file(path) -> tuple[tuple, float]:
    """:func:`build_model`'s arguments ``(dataset, theta, p, jitter)`` and the
    fit's seconds, read from a file written by :func:`save_model`.

    The file is parsed and checked, raising the ParseErrors that
    :func:`load_model` lists; nothing is evaluated.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        _check_jitter(doc["jitter"])
        if doc["epsilon"] != kr.EPSILON:
            raise ValueError(f"epsilon must be {kr.EPSILON!r}, the kernel's constant; "
                             f"got {doc['epsilon']!r}")
        theta = kr.HyperparameterSet.from_flat(space, kind, doc["theta_flat"])
    except (KeyError, TypeError, ValueError, MixedGpError) as exc:
        raise ParseError(f"{path}: invalid model file: {exc}") from exc
    return (dataset, theta, p, float(doc["jitter"])), float(doc["fit_seconds"])


def load_model(path) -> GpModel:
    """Rebuild a model saved by :func:`save_model` (bit-identical predictions).

    Raises ParseError when the file is not a model file, misses a key, holds
    a value of the wrong type, its ``version`` is not 1, its ``epsilon`` is
    not :data:`~mixedgp.kernels.EPSILON`, its jitter is not positive and
    finite, or its hyperparameters are not finite or violate their domain
    (negative rates, say).  The model is ``build_model`` at the saved
    hyperparameters and jitter, the call :func:`fit` makes, with the saved
    ``fit_seconds``; so a file of one point raises :func:`fit`'s
    ValueError, before any evaluation.
    """
    arguments, fit_seconds = _read_model_file(path)
    return replace(build_model(*arguments), fit_seconds=fit_seconds)
