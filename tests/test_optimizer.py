import math

import numpy as np
import pytest

from mixedgp.errors import ObjectiveFailure
from mixedgp.optimize import (
    BoxBounds,
    SearchConfig,
    local_search,
    multistart,
    write_trace,
)


def unit_box(dim):
    return BoxBounds(np.zeros(dim), np.ones(dim))


def test_bounds_validation():
    with pytest.raises(ValueError):
        BoxBounds([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        BoxBounds([0.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        SearchConfig(initial_step=0.6)
    with pytest.raises(ValueError):
        SearchConfig(final_step=0.5, initial_step=0.25)


def test_quadratic_recovery():
    result = local_search(
        lambda x: -np.sum((x - 0.3) ** 2), unit_box(3), np.full(3, 0.5)
    )
    assert np.max(np.abs(result.point - 0.3)) < 1e-3


def test_constant_objective_returns_start():
    result = local_search(lambda x: 7.0, unit_box(3), np.full(3, 0.5))
    assert np.array_equal(result.point, np.full(3, 0.5))
    assert result.value == 7.0


def test_corner_to_corner():
    result = local_search(lambda x: np.sum(x), unit_box(4), np.zeros(4))
    assert np.max(np.abs(result.point - 1.0)) < 1e-3


def test_best_value_at_least_start_value():
    rng = np.random.default_rng(0)
    for _ in range(10):
        coeff = rng.normal(size=5)
        start = rng.random(5)
        objective = lambda x: float(np.sin(x @ coeff) - 0.1 * np.sum(x**2))
        result = local_search(objective, unit_box(5), start, SearchConfig(max_evals=400))
        assert result.value >= objective(start)
        assert result.n_evals <= 400


def test_points_respect_bounds_exactly():
    bounds = BoxBounds(np.array([-2.0, 1.0]), np.array([-1.0, 4.0]))
    seen = []
    def objective(x):
        seen.append(x.copy())
        return -np.sum((x - np.array([-1.5, 2.0])) ** 2)
    result = local_search(objective, bounds, np.array([-1.1, 3.9]))
    for x in seen + [result.point]:
        assert np.all(x >= bounds.lower) and np.all(x <= bounds.upper)


def test_determinism():
    objective = lambda x: float(-np.sum((x - 0.42) ** 2) + np.sin(5 * x[0]))
    a = local_search(objective, unit_box(4), np.full(4, 0.9), SearchConfig(seed=3))
    b = local_search(objective, unit_box(4), np.full(4, 0.9), SearchConfig(seed=3))
    assert np.array_equal(a.point, b.point)
    assert a.value == b.value and a.n_evals == b.n_evals


def test_budget_never_exceeded():
    calls = []
    def objective(x):
        calls.append(1)
        return float(np.sum(x))
    local_search(objective, unit_box(6), np.full(6, 0.5), SearchConfig(max_evals=37))
    assert len(calls) <= 37


def test_objective_failure_carries_point():
    def objective(x):
        if x[0] > 0.6:
            raise RuntimeError("boom")
        return float(x[0])
    with pytest.raises(ObjectiveFailure) as info:
        local_search(objective, unit_box(1), np.array([0.5]))
    assert info.value.point is not None


def test_multistart_bimodal_finds_global_basin():
    # dense-grid oracle for the global maximum
    def f(x):
        return float(
            np.exp(-((x[0] - 0.1) / 0.04) ** 2) + 2.0 * np.exp(-((x[0] - 0.9) / 0.04) ** 2)
        )
    grid = np.linspace(0.0, 1.0, 10001)
    oracle = grid[np.argmax([f(np.array([g])) for g in grid])]
    result = multistart(f, unit_box(1), 10)
    assert abs(result.point[0] - oracle) < 1e-3


def test_multistart_single_start_is_midpoint_search():
    objective = lambda x: -np.sum((x - 0.25) ** 2)
    single = multistart(objective, unit_box(2), 1)
    direct = local_search(objective, unit_box(2), np.full(2, 0.5))
    assert np.array_equal(single.point, direct.point)
    assert single.value == direct.value


def test_multistart_all_failures_raises():
    def objective(x):
        raise RuntimeError("nope")
    with pytest.raises(ObjectiveFailure):
        multistart(objective, unit_box(2), 3)


def test_multistart_partial_failures_tolerated():
    # fail exactly at the first two diagonal starts (0.1 and 0.3 are not
    # dyadic, so no later search point can collide with them)
    def objective(x):
        if x[0] in (0.1, 0.3):
            raise RuntimeError("bad start")
        return -abs(x[0] - 0.5)
    result = multistart(objective, unit_box(1), 5)
    assert abs(result.point[0] - 0.5) < 1e-3
    assert len(result.starts) == 3


def test_extra_starts_clipped_and_used():
    objective = lambda x: -np.sum((x - 1.0) ** 2)
    result = multistart(objective, unit_box(2), 1, extra_starts=(np.array([5.0, 5.0]),))
    assert np.max(np.abs(result.point - 1.0)) < 1e-3
    assert len(result.starts) == 2


def test_trace_file(tmp_path):
    result = multistart(lambda x: -x[0] ** 2, unit_box(1), 3)
    path = tmp_path / "trace.csv"
    write_trace(result.starts, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "start_index,n_evals,best_value"
    assert len(lines) == 4


def test_twenty_dim_quadratic_against_grid_oracle():
    target = np.linspace(0.15, 0.85, 20)
    objective = lambda x: -float(np.sum((x - target) ** 2))
    result = multistart(objective, unit_box(20), 3)
    # separable: the optimum per coordinate is checked against a 1-d grid
    grid = np.linspace(0.0, 1.0, 2001)
    for j in range(20):
        oracle = grid[np.argmin(np.abs(grid - target[j]))]
        assert abs(result.point[j] - oracle) < 1e-3


class _Spent(Exception):
    pass


def loop_search(objective, bounds, start, config):
    """local_search with its stencil built and read one coordinate at a time: the reference."""
    lo, hi = bounds.lower, bounds.upper
    budget = config.budget(bounds.dim)
    n_evals = 0

    def f(u):
        nonlocal n_evals
        n_evals += 1
        v = float(objective(np.minimum(np.maximum(lo + u * (hi - lo), lo), hi)))
        return v if math.isfinite(v) else -math.inf

    best_u = np.clip((start - lo) / (hi - lo), 0.0, 1.0)
    best_f = f(best_u)
    delta = config.initial_step
    try:
        while delta >= config.final_step and n_evals < budget:
            moved = []
            for i in range(bounds.dim):
                coord = min(max(best_u[i] + (delta if best_u[i] + delta <= 1.0 else -delta), 0.0), 1.0)
                if coord != best_u[i]:
                    moved.append((i, coord))
            if len(moved) > budget - n_evals:
                raise _Spent  # a stencil is scored whole or not at all
            grad = np.zeros(bounds.dim)
            candidates = []
            stencil_f = best_f
            for i, coord in moved:
                trial = best_u.copy()
                trial[i] = coord
                f_i, h = f(trial), coord - best_u[i]
                if math.isfinite(f_i) and math.isfinite(best_f):
                    grad[i] = (f_i - best_f) / h
                elif math.isfinite(f_i):
                    grad[i] = math.copysign(1.0, h)
                if f_i > stencil_f:
                    candidates[:] = [(f_i, trial)]
                    stencil_f = f_i
            gnorm = float(np.linalg.norm(grad))
            if gnorm > 0.0:
                line_u, line_f, t, improving = None, best_f, delta, False
                for _ in range(12):
                    trial = np.clip(best_u + t * (grad / gnorm), 0.0, 1.0)
                    if np.array_equal(trial, best_u):
                        break
                    if n_evals >= budget:
                        raise _Spent
                    f_t = f(trial)
                    if f_t > line_f:
                        line_u, line_f, improving, t = trial, f_t, True, 2.0 * t
                    elif improving:
                        break
                    else:
                        t *= 0.5
                        if t < 0.25 * config.final_step:
                            break
                if line_u is not None:
                    candidates.append((line_f, line_u))
            if candidates:
                best_f, best_u = max(candidates, key=lambda pair: pair[0])
            else:
                delta *= 0.5
    except _Spent:
        pass
    return np.minimum(np.maximum(lo + best_u * (hi - lo), lo), hi), best_f, n_evals


def awkward(x):
    """-inf and NaN regions, +inf scored as -inf, and plateaus that tie stencil rows."""
    if x[0] > 0.8:
        return math.nan
    if x[-1] < -0.9:
        return math.inf
    return -round(float(np.sum((x - 0.3) ** 2)), 2) + (0.0 if x[0] < 0.5 else math.sin(7 * x[0]))


@pytest.mark.parametrize("objective", [
    awkward,
    lambda x: float(-np.sum((x - 0.42) ** 2) + np.sin(5 * x[0])),
    lambda x: -round(float(np.sum(np.abs(x - 0.3))), 1),  # ties on a symmetric box
])
@pytest.mark.parametrize("dim", [1, 3, 5])
@pytest.mark.parametrize("upper", [1.0, 3.0])
def test_search_equals_the_coordinate_loop_reference(objective, dim, upper):
    bounds = BoxBounds(np.full(dim, -1.0), np.linspace(1.0, upper, dim))
    for start in (bounds.lower, bounds.upper, 0.3 * bounds.lower + 0.7 * bounds.upper):
        for max_evals in (1, dim, dim + 1, 37, None):
            config = SearchConfig(max_evals=max_evals)
            point, value, n_evals = loop_search(objective, bounds, start, config)
            result = local_search(objective, bounds, start, config)
            assert result.point.tobytes() == point.tobytes(), (start, max_evals)
            assert type(result.value) is float and repr(result.value) == repr(value)
            assert result.n_evals == n_evals


# ---------------------------------------------------------------------------
# path sharing: multistart against independent searches
# ---------------------------------------------------------------------------

class Counting:
    """An objective that counts the rows it scores, one by one or as a block."""

    def __init__(self, f):
        self.f, self.rows = f, 0

    def __call__(self, x):
        self.rows += 1
        return self.f(x)

    def block(self, X):
        return np.array([self(x) for x in X])


def independent_starts(objective, bounds, n_starts, config, extra_starts=(), batched=False):
    """multistart's reference: one local_search per start, no state shared between them."""
    batch = (lambda X: np.array([objective(x) for x in X])) if batched else None
    starts = [bounds.lower + (i + 0.5) / n_starts * (bounds.upper - bounds.lower)
              for i in range(n_starts)]
    starts += [np.minimum(np.maximum(np.asarray(e, dtype=float), bounds.lower), bounds.upper)
               for e in extra_starts]
    best, records, failures = None, [], []
    for index, start in enumerate(starts):
        try:
            result = local_search(objective, bounds, start, config, batch_objective=batch)
        except ObjectiveFailure as exc:
            failures.append(exc)
            continue
        records.append((index, result.n_evals, repr(result.value)))
        if best is None or result.value > best.value:
            best = result
    return best, records, failures


def corner(x):
    """Maximum outside the box: every start's line search clips to the corner (1, ..., 1)."""
    return -float(np.sum((x - 1.2) ** 2))


def floor(x):
    """A slope onto a nearly flat floor at x <= 0.3, tilted toward the corner 0 where starts meet."""
    return -float(np.sum(np.maximum(x - 0.3, 0.0)) + 1e-3 * np.sum(x))


def fails_at_the_corner(x):
    """corner, raising in the stencil of the shared state (corner, radius 1/8)."""
    if x[0] == 1.0 and x[-1] == 0.875:
        raise RuntimeError("boom")
    return corner(x)


def assert_multistart_is_independent(objective, bounds, n_starts, config, batched,
                                     extra_starts=()):
    """multistart equals independent searches; returns its records."""
    best, expected, failures = independent_starts(objective, bounds, n_starts, config,
                                                  extra_starts, batched)
    counting = Counting(objective)
    kwargs = dict(extra_starts=extra_starts,
                  batch_objective=counting.block if batched else None)
    if best is None:
        with pytest.raises(ObjectiveFailure) as info:
            multistart(counting, bounds, n_starts, config, **kwargs)
        assert info.value.point.tobytes() == failures[-1].point.tobytes()
        return ()
    result = multistart(counting, bounds, n_starts, config, **kwargs)
    assert result.point.tobytes() == best.point.tobytes()
    assert repr(result.value) == repr(best.value)
    assert [(r.start_index, r.n_evals, repr(r.best_value)) for r in result.starts] == expected
    assert all(0 <= r.replayed <= r.n_evals for r in result.starts)
    if not failures:  # failed starts scored rows that no record counts
        assert counting.rows == sum(r.n_evals - r.replayed for r in result.starts)
    return result.starts


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("objective", [corner, floor, fails_at_the_corner, awkward])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_multistart_equals_independent_searches(objective, dim, batched):
    bounds = unit_box(dim)
    replayed = 0
    for max_evals in (*range(1, 25), 40, None):
        for n_starts in (1, 3, 6):
            # a copy of the first diagonal start, the farthest from the corners, replays
            # states that nearer starts extended: its budget must still stop it
            for extra_starts in ((), (np.full(dim, 0.5 / n_starts),)):
                config = SearchConfig(final_step=1e-3, max_evals=max_evals)
                starts = assert_multistart_is_independent(
                    objective, bounds, n_starts, config, batched, extra_starts)
                replayed += sum(r.replayed for r in starts)
    if objective is not awkward:
        assert replayed > 0  # the starts meet, and the test sees them share their path


@pytest.mark.parametrize("batched", [False, True])
def test_an_extra_start_on_a_diagonal_start_replays_its_whole_path(batched):
    bounds = BoxBounds(np.full(3, -1.0), np.array([1.0, 2.0, 3.0]))
    diagonal = bounds.lower + 0.5 / 3 * (bounds.upper - bounds.lower)
    for objective in (corner, floor, awkward):
        for max_evals in (1, 5, 40, None):
            starts = assert_multistart_is_independent(
                objective, bounds, 3, SearchConfig(max_evals=max_evals), batched,
                extra_starts=(diagonal,))
            assert starts[-1].start_index == 3
            assert starts[-1].replayed == starts[-1].n_evals == starts[0].n_evals


@pytest.mark.parametrize("batched", [False, True])
def test_a_start_extends_a_record_the_budget_cut(batched):
    # Both starts clip to the corner in their first line search, then halve
    # their radius there, 2 evaluations per state.  The diagonal start
    # (index 0, at 0.5) reaches the corner after 1 + 2 + 4 evaluations (its
    # line search scores the clipped corner twice) and scores 7 corner
    # states; the 8th's stencil does not fit its budget.  The warm start
    # (index 1, at 0.9) reaches it after 1 + 2 + 2, replays those 7 states
    # and scores the 8th.
    bounds = unit_box(2)
    config = SearchConfig(max_evals=22)
    near = (np.full(2, 0.9),)
    best, expected, _ = independent_starts(corner, bounds, 1, config, near, batched)
    counting = Counting(corner)
    result = multistart(counting, bounds, 1, config, extra_starts=near,
                        batch_objective=counting.block if batched else None)
    assert [(r.start_index, r.n_evals, repr(r.best_value)) for r in result.starts] == expected
    cut, extended = result.starts
    assert (cut.n_evals, cut.replayed) == (21, 0)
    assert (extended.n_evals, extended.replayed) == (21, 14)
    assert counting.rows == 21 + 7


def test_local_search_alone_replays_nothing():
    counting = Counting(corner)
    result = local_search(counting, unit_box(2), np.full(2, 0.3))
    assert counting.rows == result.n_evals
