"""Bound-constrained derivative-free maximization with deterministic multistart.

The local search is a stencil-based trust-region method: at the current
radius it evaluates a one-sided coordinate stencil, fits the implied linear
surrogate (a finite-difference gradient), and line-searches along the
projected gradient with expansion and backtracking.  When neither the
stencil nor the line search improves, the radius shrinks; the search stops
once the radius drops below ``final_step`` or the evaluation budget is
exhausted.  All candidate points are clipped to the box, so returned points
satisfy the bounds exactly.

The stencil's points differ from its centre in one coordinate each, and
they are known before any is scored.  An optional ``batch_objective``
scores them as one block (the likelihood evaluator shares their factors);
it must return, row by row, what ``objective`` returns, so the search, its
evaluation count and its result do not depend on whether it is given.

Everything here is deterministic: identical inputs give bit-identical
results, independent of the seed (which is carried for provenance only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ObjectiveFailure

__all__ = [
    "BoxBounds",
    "SearchConfig",
    "SearchResult",
    "StartRecord",
    "MultistartResult",
    "local_search",
    "multistart",
    "write_trace",
]


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


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one local search.

    ``initial_step`` and ``final_step`` are fractions of the box width; the
    search stops when the stencil radius falls below ``final_step``.
    ``max_evals`` defaults to 500 * dim when left as None.
    """

    initial_step: float = 0.25
    final_step: float = 1e-6
    max_evals: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.final_step < self.initial_step <= 0.5:
            raise ValueError("need 0 < final_step < initial_step <= 0.5")
        if self.max_evals is not None and self.max_evals < 1:
            raise ValueError("max_evals must be positive")

    def budget(self, dim: int) -> int:
        return self.max_evals if self.max_evals is not None else 500 * dim


class SearchResult(NamedTuple):
    point: np.ndarray
    value: float
    n_evals: int


class StartRecord(NamedTuple):
    start_index: int
    n_evals: int
    best_value: float


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
    config: SearchConfig = SearchConfig(),
    *,
    batch_objective: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SearchResult:
    """Maximize ``objective`` over the box from ``start``.

    Returns (best_point, best_value, n_evals) with best_point inside the
    bounds exactly and best_value >= objective(start).  Exceptions from the
    objective are re-raised as ObjectiveFailure with the point attached.

    ``batch_objective(points)``, given, scores each stencil as one block:
    it takes an (m, dim) array of points and returns their m values, each
    exactly what ``objective`` returns at that row.  Without it the rows
    go through ``objective`` one by one; the search is the same either
    way.  A block is cut to the remaining budget, and a cut stencil ends
    the search unused.  When the block raises, the ObjectiveFailure
    carries the block's first row.
    """
    start = np.asarray(start, dtype=float).reshape(-1)
    if start.size != bounds.dim:
        raise ValueError(f"start has length {start.size}, bounds expect {bounds.dim}")
    if not bounds.contains(start):
        raise ValueError("start must lie within the bounds")

    lo, hi = bounds.lower, bounds.upper
    width = hi - lo
    dim = bounds.dim
    budget = config.budget(dim)
    n_evals = 0

    def to_x(u: np.ndarray) -> np.ndarray:
        # final min/max guards against 1-ulp overshoot of the affine map
        return np.minimum(np.maximum(lo + u * width, lo), hi)

    def call(x: np.ndarray) -> float:
        try:
            return float(objective(x))
        except Exception as exc:
            raise ObjectiveFailure(x) from exc

    def evaluate(u: np.ndarray) -> float:
        nonlocal n_evals
        if n_evals >= budget:
            raise _BudgetExhausted
        n_evals += 1
        return _finite(call(to_x(u)))

    def evaluate_rows(U: np.ndarray) -> list[float]:
        """Values at the rows of U, in order; raises _BudgetExhausted once a cut block is scored."""
        nonlocal n_evals
        X = to_x(U[:budget - n_evals])
        n_evals += len(X)
        if batch_objective is None or not len(X):
            values = [call(x) for x in X]
        else:
            try:
                values = [float(v) for v in batch_objective(X)]
            except Exception as exc:
                raise ObjectiveFailure(X[0]) from exc
        if len(X) < len(U):
            raise _BudgetExhausted
        return [_finite(v) for v in values]

    u = np.clip((start - lo) / width, 0.0, 1.0)
    best_u, best_f = u.copy(), evaluate(u)

    delta = config.initial_step
    try:
        while delta >= config.final_step and n_evals < budget:
            grad = np.zeros(dim)
            stencil_u, stencil_f = None, best_f
            # one-sided coordinate stencil, stepping away from the near bound
            moved = []  # (coordinate, its value) per stencil point
            for i in range(dim):
                step = delta if best_u[i] + delta <= 1.0 else -delta
                coord = min(max(best_u[i] + step, 0.0), 1.0)
                if coord != best_u[i]:
                    moved.append((i, coord))
            stencil = np.repeat(best_u[None, :], len(moved), axis=0)
            for trial, (i, coord) in zip(stencil, moved):
                trial[i] = coord
            for (i, coord), trial, f_i in zip(moved, stencil, evaluate_rows(stencil)):
                h = coord - best_u[i]
                if math.isfinite(f_i) and math.isfinite(best_f):
                    grad[i] = (f_i - best_f) / h
                elif math.isfinite(f_i):
                    grad[i] = math.copysign(1.0, h)
                if f_i > stencil_f:
                    stencil_u, stencil_f = trial, f_i

            candidates = []
            if stencil_u is not None:
                candidates.append((stencil_f, stencil_u))
            gnorm = float(np.linalg.norm(grad))
            if gnorm > 0.0:
                direction = grad / gnorm
                line_u, line_f = None, best_f
                t = delta
                improving_run = False
                for _ in range(12):
                    trial = np.clip(best_u + t * direction, 0.0, 1.0)
                    if np.array_equal(trial, best_u):
                        break
                    f_t = evaluate(trial)
                    if f_t > line_f:
                        line_u, line_f = trial, f_t
                        improving_run = True
                        t *= 2.0  # expand while the step keeps paying off
                    else:
                        if improving_run:
                            break
                        t *= 0.5  # backtrack until the first improvement
                        if t < 0.25 * config.final_step:
                            break
                if line_u is not None:
                    candidates.append((line_f, line_u))

            if candidates:
                best_f, best_u = max(candidates, key=lambda pair: pair[0])
            else:
                delta *= 0.5
    except _BudgetExhausted:
        pass

    return SearchResult(to_x(best_u), best_f, n_evals)


def multistart(
    objective: Callable[[np.ndarray], float],
    bounds: BoxBounds,
    n_starts: int,
    config: SearchConfig = SearchConfig(),
    *,
    extra_starts: tuple = (),
    batch_objective: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MultistartResult:
    """Best of ``n_starts`` local searches from evenly spaced diagonal points.

    Start i sits at fraction (i + 1/2) / n_starts along the box diagonal.
    ``extra_starts`` appends caller-supplied warm starts (clipped to the
    box) after the diagonal ones.  ``batch_objective`` is passed to every
    :func:`local_search`.  Per-start failures are tolerated; the call
    fails only if every start fails.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    starts = [
        bounds.lower + (i + 0.5) / n_starts * (bounds.upper - bounds.lower)
        for i in range(n_starts)
    ]
    for extra in extra_starts:
        extra = np.asarray(extra, dtype=float).reshape(-1)
        starts.append(np.minimum(np.maximum(extra, bounds.lower), bounds.upper))

    best: SearchResult | None = None
    records: list[StartRecord] = []
    failures: list[ObjectiveFailure] = []
    for index, start in enumerate(starts):
        try:
            result = local_search(objective, bounds, start, config,
                                  batch_objective=batch_objective)
        except ObjectiveFailure as exc:
            failures.append(exc)
            continue
        records.append(StartRecord(index, result.n_evals, result.value))
        if best is None or result.value > best.value:
            best = result
    if best is None:
        raise failures[-1] if failures else RuntimeError("no starts were run")
    return MultistartResult(best.point, best.value, tuple(records))


def write_trace(records, path) -> None:
    """Dump per-start records as delimited text (start, evals, best value)."""
    lines = ["start_index,n_evals,best_value"]
    for rec in records:
        lines.append(f"{rec.start_index},{rec.n_evals},{rec.best_value!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
