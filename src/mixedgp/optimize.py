"""Bound-constrained derivative-free maximization with deterministic multistart.

The local search is a stencil-based trust-region method: at the current
radius it evaluates a one-sided coordinate stencil, fits the implied linear
surrogate (a finite-difference gradient), and line-searches along the
projected gradient with expansion and backtracking.  When neither the
stencil nor the line search improves, the radius halves; the search stops
once the radius drops below ``FINAL_STEP`` or the evaluation budget is
exhausted.  A stencil is scored whole or not at all: one the remaining
budget cannot cover ends the search unscored.  All candidate points are
clipped to the box, so returned points satisfy the bounds exactly.

The stencil's points differ from its centre in one coordinate each, and
they are known before any is scored.  An optional ``batch_objective``
scores them as one block (the likelihood evaluator shares their factors);
it must return, row by row, what ``objective`` returns, so the search, its
evaluation count and its result do not depend on whether it is given.

A search looks up what it scores in a record first.  A stencil is fixed
by its centre and radius, so its values are recorded under
``(centre bytes, radius)``; a start or line-search point under its own
bytes.  A key already in the record is replayed instead of scored again.
Replayed values pass the same budget check and count in ``n_evals`` as
scored ones, so every result and count equals that of searches that never
replay; ``StartRecord.replayed`` says how many were replayed.  This relies
on the objective being a deterministic function of the point.  One
:func:`multistart` call shares one record among its starts, so starts
that meet share their path; :func:`local_search` keeps one of its own,
which replays the points one search repeats (a line search whose
expansion clips onto the box twice scores that corner once).

Everything here is deterministic: identical inputs give bit-identical
results; nothing is drawn at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ObjectiveFailure
from .space import _count

__all__ = [
    "INITIAL_STEP",
    "FINAL_STEP",
    "BoxBounds",
    "SearchResult",
    "StartRecord",
    "MultistartResult",
    "local_search",
    "multistart",
]

# a search's first stencil radius, and the one it converges below, as fractions of the box width
INITIAL_STEP = 0.25
FINAL_STEP = 1e-6


@dataclass(frozen=True)
class BoxBounds:
    """Componentwise box lower <= x <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.size != hi.size:
            raise ValueError("lower and upper must have equal length")
        if not np.all(lo < hi):
            raise ValueError("every lower bound must be strictly below its upper bound")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


class SearchResult(NamedTuple):
    point: np.ndarray
    value: float
    n_evals: int


class StartRecord(NamedTuple):
    """One start of a multistart: ``n_evals - replayed`` of its values reached the objective.

    ``stop`` says why the search ended: ``"converged"`` when its radius fell
    below ``FINAL_STEP``, ``"budget"`` when the next scoring step would
    have exceeded the evaluation budget.  A start whose objective raised
    leaves no record.
    """

    start_index: int
    n_evals: int
    best_value: float
    replayed: int = 0
    stop: str = "converged"


class MultistartResult(NamedTuple):
    point: np.ndarray
    value: float
    starts: tuple[StartRecord, ...]


class _BudgetExhausted(Exception):
    pass


def _finite(v: float) -> float:
    return v if math.isfinite(v) else -math.inf


def local_search(
    objective: Callable[[np.ndarray], float],
    bounds: BoxBounds,
    start,
    max_evals: int | None = None,
    *,
    batch_objective: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SearchResult:
    """Maximize ``objective`` over the box from ``start``, in at most ``max_evals`` evaluations.

    Returns (best_point, best_value, n_evals) with best_point inside the
    bounds exactly and best_value >= objective(start).  ``max_evals``
    defaults to 500 * dim when None, and must be a whole number, not a bool
    (TypeError otherwise), of at least 1.  Exceptions from the objective
    are re-raised as ObjectiveFailure with the point attached.

    ``batch_objective(points)``, given, scores each stencil as one block:
    it takes an (m, dim) array of points and returns their m values, each
    exactly what ``objective`` returns at that row.  Without it the rows
    go through ``objective`` one by one; the search is the same either
    way.  A stencil the remaining budget cannot cover ends the search
    without being scored.  When the block raises, the ObjectiveFailure
    carries the block's first row.
    """
    return _search(objective, bounds, start, max_evals, batch_objective, {})[0]


def _search(objective, bounds, start, max_evals, batch_objective,
            record: dict) -> tuple[SearchResult, int, str]:
    """:func:`local_search`, how many of its values came from ``record``, and why it stopped.

    ``record`` maps what was scored to its values: a stencil's
    ``(centre bytes, radius)`` or a point's bytes (see the module docstring).
    The search replays the keys it holds and adds the ones it scores.
    """
    start = np.asarray(start, dtype=float).reshape(-1)
    if start.size != bounds.dim:
        raise ValueError(f"start has length {start.size}, bounds expect {bounds.dim}")
    if not bounds.contains(start):
        raise ValueError("start must lie within the bounds")
    if max_evals is not None and _count(max_evals) < 1:
        raise ValueError("max_evals must be None or >= 1")

    lo, hi = bounds.lower, bounds.upper
    width = hi - lo
    dim = bounds.dim
    budget = max_evals if max_evals is not None else 500 * dim
    n_evals = replayed = 0

    def to_x(u: np.ndarray) -> np.ndarray:
        # final min/max guards against 1-ulp overshoot of the affine map
        return np.minimum(np.maximum(lo + u * width, lo), hi)

    def score(U: np.ndarray, key) -> list[float]:
        """Values at the rows of the stencil U, or at the one point U, recorded under ``key``.

        Raises _BudgetExhausted, and scores nothing, when the remaining
        budget cannot cover every point.
        """
        nonlocal n_evals, replayed
        X = to_x(U)
        rows = X.reshape(-1, dim)
        if len(rows) > budget - n_evals:
            raise _BudgetExhausted
        n_evals += len(rows)
        if key in record:
            replayed += len(rows)
            return record[key]
        values = []
        try:
            if X.ndim == 2 and len(X) and batch_objective is not None:
                x = X[0]  # a failing block is charged to its first row
                values = [float(v) for v in batch_objective(X)]
            else:
                for x in rows:
                    values.append(float(objective(x)))
        except Exception as exc:
            raise ObjectiveFailure(x) from exc
        values = [_finite(v) for v in values]
        record[key] = values
        return values

    best_u = np.clip((start - lo) / width, 0.0, 1.0)
    [best_f] = score(best_u, best_u.tobytes())

    delta = INITIAL_STEP
    try:
        while delta >= FINAL_STEP and n_evals < budget:
            # one-sided coordinate stencil, stepping away from the near bound
            coords = np.clip(best_u + np.where(best_u + delta <= 1.0, delta, -delta), 0.0, 1.0)
            moved = np.flatnonzero(coords != best_u)
            stencil = np.repeat(best_u[None, :], len(moved), axis=0)
            stencil[np.arange(len(moved)), moved] = coords[moved]
            values = score(stencil, (best_u.tobytes(), delta))
            f = np.array(values)
            h = coords[moved] - best_u[moved]
            slope = np.copysign(1.0, h) if best_f == -math.inf else (f - best_f) / h
            grad = np.zeros(dim)
            grad[moved] = np.where(np.isfinite(f), slope, 0.0)

            candidates = []
            if len(f) and f.max() > best_f:
                k = int(np.argmax(f))  # the first best row
                candidates.append((values[k], stencil[k]))
            gnorm = float(np.linalg.norm(grad))
            if gnorm > 0.0:
                direction = grad / gnorm
                line_u, line_f = None, best_f
                t = delta
                for _ in range(12):
                    trial = np.clip(best_u + t * direction, 0.0, 1.0)
                    if np.array_equal(trial, best_u):
                        break
                    [f_t] = score(trial, trial.tobytes())
                    if f_t > line_f:
                        line_u, line_f = trial, f_t
                        t *= 2.0  # expand while the step keeps paying off
                    else:
                        if line_u is not None:
                            break
                        t *= 0.5  # backtrack until the first improvement
                        if t < 0.25 * FINAL_STEP:
                            break
                if line_u is not None:
                    candidates.append((line_f, line_u))

            if candidates:
                best_f, best_u = max(candidates, key=lambda pair: pair[0])
            else:
                delta *= 0.5
    except _BudgetExhausted:
        pass

    stop = "converged" if delta < FINAL_STEP else "budget"
    return SearchResult(to_x(best_u), best_f, n_evals), replayed, stop


def multistart(
    objective: Callable[[np.ndarray], float],
    bounds: BoxBounds,
    n_starts: int,
    max_evals: int | None = None,
    *,
    extra_starts: tuple = (),
    batch_objective: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MultistartResult:
    """Best of the local searches from ``n_starts`` diagonal points and from the extra starts.

    Start i sits at fraction (i + 1/2) / n_starts along the box diagonal.
    ``extra_starts``, a sequence, appends caller-supplied warm starts
    (clipped to the box) after the diagonal ones.  ``max_evals`` (each
    start's budget) and ``batch_objective`` are passed to every
    :func:`local_search`, which checks ``max_evals`` before any objective
    call; ``n_starts`` must be a whole number, not a bool (TypeError
    otherwise), of at least 1, or of at least 0 when an extra start is
    given: ``n_starts=0`` runs the extra starts alone.  Per-start failures
    are tolerated; the call fails only if every start fails.

    The objective must be a deterministic function of the point: the
    starts share one record of the values scored (see the module
    docstring), and a start that reaches a recorded stencil or point
    replays it instead of calling the objective.  The result and every
    ``StartRecord`` but its ``replayed`` count equal those of independent
    searches that never replay.  The record is dropped on return.
    """
    minimum = 0 if len(extra_starts) else 1
    if _count(n_starts) < minimum:
        raise ValueError(f"n_starts must be >= {minimum}")
    starts = [
        bounds.lower + (i + 0.5) / n_starts * (bounds.upper - bounds.lower)
        for i in range(n_starts)
    ]
    for extra in extra_starts:
        extra = np.asarray(extra, dtype=float).reshape(-1)
        starts.append(np.minimum(np.maximum(extra, bounds.lower), bounds.upper))

    best: SearchResult | None = None
    shared: dict = {}  # what was scored (a stencil or a point) -> its values
    records: list[StartRecord] = []
    failures: list[ObjectiveFailure] = []
    for index, start in enumerate(starts):
        try:
            result, replayed, stop = _search(objective, bounds, start, max_evals,
                                             batch_objective, shared)
        except ObjectiveFailure as exc:
            failures.append(exc)
            continue
        records.append(StartRecord(index, result.n_evals, result.value, replayed, stop))
        if best is None or result.value > best.value:
            best = result
    if best is None:
        raise failures[-1]
    return MultistartResult(best.point, best.value, tuple(records))
