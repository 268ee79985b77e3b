"""Bound-constrained derivative-free maximization with deterministic multistart.

The local search is a stencil-based trust-region method: at the current
radius it evaluates a one-sided coordinate stencil, fits the implied linear
surrogate (a finite-difference gradient), and line-searches along the
projected gradient with expansion and backtracking.  When neither the
stencil nor the line search improves, the radius shrinks; the search stops
once the radius drops below ``final_step`` or the evaluation budget is
exhausted.  A stencil is scored whole or not at all: one the remaining
budget cannot cover ends the search unscored.  All candidate points are
clipped to the box, so returned points satisfy the bounds exactly.

The stencil's points differ from its centre in one coordinate each, and
they are known before any is scored.  An optional ``batch_objective``
scores them as one block (the likelihood evaluator shares their factors);
it must return, row by row, what ``objective`` returns, so the search, its
evaluation count and its result do not depend on whether it is given.

Within one :func:`multistart` call, starts that meet share their path.
One iteration of the search is fixed by its state, the centre and the
radius (the value at the centre is the objective there), so multistart
keeps, per state, the values that iteration scored, in call order; a
start's first point is a state of its own.  A later start that reaches a
recorded state replays those values instead of scoring them again, and
calls the objective only where the record ends (an earlier start ran out
of budget or failed there), extending it.  Replayed values pass the same
budget check and count in ``n_evals`` as scored ones, so every result and
count equals that of independent searches; ``StartRecord.replayed`` says
how many were replayed.  This relies on the objective being a
deterministic function of the point.  The record lives for one
multistart call; :func:`local_search` alone keeps none.

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
    """One start of a multistart: ``n_evals - replayed`` of its values reached the objective."""

    start_index: int
    n_evals: int
    best_value: float
    replayed: int = 0


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
    way.  A stencil the remaining budget cannot cover ends the search
    without being scored.  When the block raises, the ObjectiveFailure
    carries the block's first row.
    """
    return _search(objective, bounds, start, config, batch_objective, None)[0]


def _search(objective, bounds, start, config, batch_objective,
            record: dict | None) -> tuple[SearchResult, int]:
    """:func:`local_search`, and how many of its values came from ``record``.

    ``record`` maps a search state ``(centre bytes, radius)`` (radius None
    for the start's own point) to the values its iteration scored, one
    list per scoring call.  The search replays the calls a state holds and
    appends the ones it has to score; None keeps no record.
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
    n_evals = replayed = 0
    calls, cursor = [], 0  # the current state's scoring calls, and how many were made

    def enter(state) -> None:
        nonlocal calls, cursor
        calls = record.setdefault(state, []) if record is not None else []
        cursor = 0

    def to_x(u: np.ndarray) -> np.ndarray:
        # final min/max guards against 1-ulp overshoot of the affine map
        return np.minimum(np.maximum(lo + u * width, lo), hi)

    def score(U: np.ndarray) -> list[float]:
        """Values at the rows of the stencil U, or at the one point U.

        Raises _BudgetExhausted, and scores nothing, when the remaining
        budget cannot cover every point.
        """
        nonlocal n_evals, replayed, cursor
        X = to_x(U)
        rows = X.reshape(-1, dim)
        if len(rows) > budget - n_evals:
            raise _BudgetExhausted
        n_evals += len(rows)
        cursor += 1
        if cursor <= len(calls):
            replayed += len(rows)
            return calls[cursor - 1]
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
        calls.append([_finite(v) for v in values])
        return calls[-1]

    best_u = np.clip((start - lo) / width, 0.0, 1.0)
    enter((best_u.tobytes(), None))
    [best_f] = score(best_u)

    delta = config.initial_step
    try:
        while delta >= config.final_step and n_evals < budget:
            enter((best_u.tobytes(), delta))
            # one-sided coordinate stencil, stepping away from the near bound
            coords = np.clip(best_u + np.where(best_u + delta <= 1.0, delta, -delta), 0.0, 1.0)
            moved = np.flatnonzero(coords != best_u)
            stencil = np.repeat(best_u[None, :], len(moved), axis=0)
            stencil[np.arange(len(moved)), moved] = coords[moved]
            values = score(stencil)
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
                improving_run = False
                for _ in range(12):
                    trial = np.clip(best_u + t * direction, 0.0, 1.0)
                    if np.array_equal(trial, best_u):
                        break
                    [f_t] = score(trial)
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

    return SearchResult(to_x(best_u), best_f, n_evals), replayed


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

    The objective must be a deterministic function of the point: the
    starts share one record of the values scored per search state (see
    the module docstring), and a start that reaches a recorded state
    replays them instead of calling the objective.  The result and every
    ``StartRecord`` but its ``replayed`` count equal those of independent
    :func:`local_search` calls.  The record is dropped on return.
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
    shared: dict = {}  # search state -> the values its iteration scored
    records: list[StartRecord] = []
    failures: list[ObjectiveFailure] = []
    for index, start in enumerate(starts):
        try:
            result, replayed = _search(objective, bounds, start, config, batch_objective,
                                       shared)
        except ObjectiveFailure as exc:
            failures.append(exc)
            continue
        records.append(StartRecord(index, result.n_evals, result.value, replayed))
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
