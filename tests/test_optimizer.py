import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedgp import gp
from mixedgp.doe import lhs
from mixedgp.errors import ObjectiveFailure
from mixedgp.kernels import CategoricalKernelKind, search_bounds, set_from_search_vector
from mixedgp.optimize import (
    FINAL_STEP,
    INITIAL_STEP,
    BoxBounds,
    _search,
    local_search,
    multistart,
)
from mixedgp.space import Dataset

from conftest import spaces


def unit_box(dim):
    return BoxBounds(np.zeros(dim), np.ones(dim))


def test_bounds_validation():
    with pytest.raises(ValueError):
        BoxBounds([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        BoxBounds([0.0, 2.0], [1.0, 1.0])
    for max_evals in (0, -3):  # the budget comes from callers, so both entries check it
        with pytest.raises(ValueError, match="max_evals"):
            local_search(lambda x: 0.0, unit_box(2), np.full(2, 0.5), max_evals)
        with pytest.raises(ValueError, match="max_evals"):
            multistart(lambda x: 0.0, unit_box(2), 2, max_evals)


@pytest.mark.parametrize("call, error, match", [
    (lambda: local_search(lambda x: 0.0, unit_box(2), np.full(3, 0.5)), ValueError,
     "start has length 3, bounds expect 2"),
    (lambda: local_search(lambda x: 0.0, unit_box(2), np.array([0.5, 1.5])), ValueError,
     "start must lie within the bounds"),
    (lambda: multistart(lambda x: 0.0, unit_box(2), 0), ValueError, "n_starts must be >= 1"),
    (lambda: multistart(lambda x: 0.0, unit_box(2), -1, extra_starts=(np.full(2, 0.5),)),
     ValueError, "n_starts must be >= 0"),
    (lambda: local_search(lambda x: 0.0, unit_box(2), np.full(2, 0.5), 2.5), TypeError, "float"),
    (lambda: multistart(lambda x: 0.0, unit_box(2), 2, 20.5), TypeError, "float"),
    (lambda: multistart(lambda x: 0.0, unit_box(2), 2.5), TypeError, "float"),
], ids=["start-length", "start-outside", "no-starts", "negative-starts", "local-budget-float",
        "multistart-budget-float", "multistart-starts-float"])
def test_entry_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call", [
    lambda: local_search(lambda x: 0.0, unit_box(2), np.full(2, 0.5), True),
    lambda: multistart(lambda x: 0.0, unit_box(2), 2, True),
    lambda: multistart(lambda x: 0.0, unit_box(2), True),
], ids=["local-budget", "multistart-budget", "multistart-starts"])
def test_counts_refuse_bools(call):
    with pytest.raises(TypeError, match="got True"):
        call()


def test_numpy_integer_counts_are_whole_numbers():
    bounds = unit_box(2)
    objective = lambda x: -float(np.sum((x - 0.3) ** 2))
    numpy, plain = multistart(objective, bounds, np.int64(3), np.int32(40)), multistart(
        objective, bounds, 3, 40)
    assert numpy.point.tobytes() == plain.point.tobytes() and numpy.starts == plain.starts
    assert local_search(objective, bounds, np.full(2, 0.5), np.int64(17)).n_evals <= 17


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
        result = local_search(objective, unit_box(5), start, max_evals=400)
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
    a = local_search(objective, unit_box(4), np.full(4, 0.9))
    b = local_search(objective, unit_box(4), np.full(4, 0.9))
    assert np.array_equal(a.point, b.point)
    assert a.value == b.value and a.n_evals == b.n_evals


def test_budget_never_exceeded():
    calls = []
    def objective(x):
        calls.append(1)
        return float(np.sum(x))
    local_search(objective, unit_box(6), np.full(6, 0.5), max_evals=37)
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


def loop_search(objective, bounds, start, max_evals):
    """local_search with its stencil built and read one coordinate at a time: the reference."""
    lo, hi = bounds.lower, bounds.upper
    budget = max_evals if max_evals is not None else 500 * bounds.dim
    n_evals = 0

    def f(u):
        nonlocal n_evals
        n_evals += 1
        v = float(objective(np.minimum(np.maximum(lo + u * (hi - lo), lo), hi)))
        return v if math.isfinite(v) else -math.inf

    best_u = np.clip((start - lo) / (hi - lo), 0.0, 1.0)
    best_f = f(best_u)
    delta = INITIAL_STEP
    try:
        while delta >= FINAL_STEP and n_evals < budget:
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
                        if t < 0.25 * FINAL_STEP:
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
            point, value, n_evals = loop_search(objective, bounds, start, max_evals)
            result = local_search(objective, bounds, start, max_evals)
            assert result.point.tobytes() == point.tobytes(), (start, max_evals)
            assert type(result.value) is float and repr(result.value) == repr(value)
            assert result.n_evals == n_evals


# ---------------------------------------------------------------------------
# path sharing: multistart against independent searches
# ---------------------------------------------------------------------------

class Counting:
    """An objective that counts the rows it scores, one by one or as a block.

    ``block`` scores a block through ``batch`` when given, else row by row.
    """

    def __init__(self, f, batch=None):
        self.f, self.batch, self.rows = f, batch, 0

    def __call__(self, x):
        self.rows += 1
        return self.f(x)

    def block(self, X):
        if self.batch is None:
            return np.array([self(x) for x in X])
        self.rows += len(X)
        return self.batch(X)


class NeverStored(dict):
    """A record that keeps nothing: a search on it scores every value it charges."""

    def __setitem__(self, key, values):
        pass


def row_by_row(objective):
    return lambda X: np.array([objective(x) for x in X])


def independent_starts(objective, bounds, n_starts, max_evals, extra_starts=(),
                       batch_objective=None):
    """multistart's reference: one search per start, none of them replaying a value."""
    starts = [bounds.lower + (i + 0.5) / n_starts * (bounds.upper - bounds.lower)
              for i in range(n_starts)]
    starts += [np.minimum(np.maximum(np.asarray(e, dtype=float), bounds.lower), bounds.upper)
               for e in extra_starts]
    best, records, failures = None, [], []
    for index, start in enumerate(starts):
        try:
            result, replayed, stop = _search(objective, bounds, start, max_evals,
                                             batch_objective, NeverStored())
        except ObjectiveFailure as exc:
            failures.append(exc)
            continue
        assert replayed == 0
        records.append((index, result.n_evals, repr(result.value), stop))
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


def assert_multistart_is_independent(objective, bounds, n_starts, max_evals, batch_objective,
                                     extra_starts=()):
    """multistart equals independent searches; returns its records.

    Every row that reaches ``objective`` or ``batch_objective`` is one a
    start charged and did not replay.
    """
    best, expected, failures = independent_starts(objective, bounds, n_starts, max_evals,
                                                  extra_starts, batch_objective)
    counting = Counting(objective, batch_objective)
    kwargs = dict(extra_starts=extra_starts,
                  batch_objective=None if batch_objective is None else counting.block)
    if best is None:
        with pytest.raises(ObjectiveFailure) as info:
            multistart(counting, bounds, n_starts, max_evals, **kwargs)
        assert info.value.point.tobytes() == failures[-1].point.tobytes()
        return ()
    result = multistart(counting, bounds, n_starts, max_evals, **kwargs)
    assert result.point.tobytes() == best.point.tobytes()
    assert repr(result.value) == repr(best.value)
    assert [(r.start_index, r.n_evals, repr(r.best_value), r.stop)
            for r in result.starts] == expected
    assert all(0 <= r.replayed <= r.n_evals for r in result.starts)
    if not failures:  # failed starts scored rows that no record counts
        assert counting.rows == sum(r.n_evals - r.replayed for r in result.starts)
    return result.starts


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("objective", [corner, floor, fails_at_the_corner, awkward])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_multistart_equals_independent_searches(objective, dim, batched):
    bounds = unit_box(dim)
    batch = row_by_row(objective) if batched else None
    replayed = 0
    for max_evals in (*range(1, 25), 40, None):
        for n_starts in (1, 3, 6):
            # a copy of the first diagonal start, the farthest from the corners, replays
            # states that nearer starts extended: its budget must still stop it
            for extra_starts in ((), (np.full(dim, 0.5 / n_starts),)):
                starts = assert_multistart_is_independent(
                    objective, bounds, n_starts, max_evals, batch, extra_starts)
                replayed += sum(r.replayed for r in starts)
        # no diagonal start: the extra start alone
        assert_multistart_is_independent(objective, bounds, 0, max_evals, batch,
                                         (np.full(dim, 0.3),))
    if objective is not awkward:
        assert replayed > 0  # the starts meet, and the test sees them share their path


@pytest.mark.parametrize("batched", [False, True])
def test_multistart_with_no_diagonal_start_is_the_search_from_its_extra_start(batched):
    bounds = BoxBounds(np.full(3, -1.0), np.array([1.0, 2.0, 3.0]))
    start = np.array([0.1, 0.7, -0.4])
    for objective in (corner, floor, awkward):
        batch = row_by_row(objective) if batched else None
        for max_evals in (1, 5, 40, None):
            result = multistart(objective, bounds, 0, max_evals, extra_starts=(start,),
                                batch_objective=batch)
            alone = local_search(objective, bounds, start, max_evals, batch_objective=batch)
            assert result.point.tobytes() == alone.point.tobytes()
            assert repr(result.value) == repr(alone.value)
            [record] = result.starts
            assert (record.start_index, record.n_evals) == (0, alone.n_evals)


@pytest.mark.parametrize("batched", [False, True])
def test_an_extra_start_on_a_diagonal_start_replays_its_whole_path(batched):
    bounds = BoxBounds(np.full(3, -1.0), np.array([1.0, 2.0, 3.0]))
    diagonal = bounds.lower + 0.5 / 3 * (bounds.upper - bounds.lower)
    for objective in (corner, floor, awkward):
        for max_evals in (1, 5, 40, None):
            starts = assert_multistart_is_independent(
                objective, bounds, 3, max_evals, row_by_row(objective) if batched else None,
                extra_starts=(diagonal,))
            assert starts[-1].start_index == 3
            assert starts[-1].replayed == starts[-1].n_evals == starts[0].n_evals


@pytest.mark.parametrize("batched", [False, True])
def test_a_start_extends_a_record_the_budget_cut(batched):
    # Both starts clip to the corner in their first line search, then halve
    # their radius there, 2 evaluations per stencil.  The diagonal start
    # (index 0, at 0.5) reaches the corner after 1 + 2 + 4 evaluations (its
    # line search charges the clipped corner twice and replays the second)
    # and scores 7 corner stencils; the 8th does not fit its budget.  The
    # warm start (index 1, at 0.9) reaches it after 1 + 2 + 2 (both line
    # search trials clip to the recorded corner), replays those 7 stencils
    # and scores the 8th.
    bounds = unit_box(2)
    near = (np.full(2, 0.9),)
    batch = row_by_row(corner) if batched else None
    best, expected, _ = independent_starts(corner, bounds, 1, 22, near, batch)
    counting = Counting(corner)
    result = multistart(counting, bounds, 1, 22, extra_starts=near,
                        batch_objective=counting.block if batched else None)
    assert [(r.start_index, r.n_evals, repr(r.best_value), r.stop)
            for r in result.starts] == expected
    cut, extended = result.starts
    assert cut.stop == extended.stop == "budget"
    assert (cut.n_evals, cut.replayed) == (21, 1)
    assert (extended.n_evals, extended.replayed) == (21, 16)
    assert counting.rows == 20 + 5


def test_a_clipped_corner_is_charged_twice_and_scored_once():
    # From (0.5, 0.5) toward the maximum outside the box, the line search's
    # trials at t = 1 and t = 2 both clip to the corner (1, 1).
    seen = []

    def objective(x):
        seen.append(x.tobytes())
        return corner(x)

    bounds, start = unit_box(2), np.full(2, 0.5)
    result, replayed, stop = _search(objective, bounds, start, 7, None, {})
    assert (result.n_evals, replayed, stop) == (7, 1, "budget")  # 1 + 2 + 4 trials
    assert seen.count(np.ones(2).tobytes()) == 1 and len(seen) == 6
    assert result.point.tobytes() == np.ones(2).tobytes()
    point, value, n_evals = loop_search(corner, bounds, start, 7)  # charges every trial
    assert (point.tobytes(), value, n_evals) == (result.point.tobytes(), result.value, 7)


# on a multiple of 1/8 a start meets the diagonal starts' stencils and corners
COORDINATES = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(np.linspace(-0.25, 1.25, 13)))


@st.composite
def plain_searches(draw):
    """A multistart of a plain objective on the unit box, with 0-2 extra starts.

    With an extra start it may run no diagonal start.
    """
    objective = draw(st.sampled_from([corner, floor, fails_at_the_corner, awkward]))
    dim = draw(st.integers(1, 4))
    extra = draw(st.lists(st.lists(COORDINATES, min_size=dim, max_size=dim), max_size=2))
    return (objective, unit_box(dim), draw(st.integers(0 if extra else 1, 6)),
            draw(st.one_of(st.none(), st.integers(1, 60))),
            row_by_row(objective) if draw(st.booleans()) else None,
            tuple(np.array(e) for e in extra))


@st.composite
def likelihood_searches(draw):
    """The multistart a likelihood fit runs, of any kind, with an optional warm start.

    With the warm start it may run no diagonal start.
    """
    space = draw(spaces())
    kind = draw(st.sampled_from(list(CategoricalKernelKind)))
    n, seed = draw(st.integers(3, 10)), draw(st.integers(0, 2**16))
    points = lhs(space, n, seed)
    data = Dataset(space, points, np.cos(2.3 * np.arange(n)) + 0.2 * np.arange(n))
    lower, upper, _ = search_bounds(space, kind)
    warm = tuple(set_from_search_vector(space, kind, lower + f * (upper - lower))
                 for f in draw(st.lists(st.sampled_from([0.25, 0.5, 0.7]), max_size=1)))
    config = gp.FitConfig(n_starts=draw(st.integers(0 if warm else 1, 4)), extra_starts=warm,
                          max_evals=draw(st.integers(1, 12)) * (lower.size + 1))
    calls = []

    def recording(objective, bounds, n_starts, max_evals, **kwargs):
        calls.append((objective, bounds, n_starts, max_evals, kwargs["batch_objective"],
                      kwargs["extra_starts"]))
        return multistart(objective, bounds, n_starts, max_evals, **kwargs)

    with mock.patch.object(gp, "multistart", recording):
        gp._maximize(data, kind, draw(st.sampled_from([1, 2])), config)
    return calls[0]


@settings(max_examples=80, deadline=None)
@given(st.one_of(plain_searches(), likelihood_searches()))
def test_multistart_replays_only_what_independent_searches_score(search):
    """multistart's result and records equal searches on a record that stores nothing,
    and every row charged and not replayed, and no other, reaches the objective."""
    objective, bounds, n_starts, max_evals, batch_objective, extra_starts = search
    assert_multistart_is_independent(objective, bounds, n_starts, max_evals, batch_objective,
                                     extra_starts)
