"""Call recording for the benchmark, done from outside the program.

``Recorder`` and ``Tracer`` replace public callables at their module
attributes and put the originals back afterwards; no file of the program
is edited.

``Recorder`` is always on.  It times every ``gp.fit`` and ``gp.predict``
call and keeps the fitted models, which the end-to-end metrics and the
output checks need.  It costs one timer per fit or predict call.

``Tracer`` is installed only in the traced run.  It records a span around
every call of a wrapped callable: name, start, end, the span that caused it
(the innermost open span) and the iteration it belongs to.  Hot leaves,
called once per likelihood evaluation or once per point, are aggregated
into a count, a total and a self time instead of one record each.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _program_modules(home: str) -> list:
    """``home`` plus every loaded mixedgp module: the places a binding may sit."""
    names = [home] + sorted(
        name for name in sys.modules if name == "mixedgp" or name.startswith("mixedgp.")
    )
    return [sys.modules[name] for name in dict.fromkeys(names) if name in sys.modules]


class Patches:
    """Rebinds a callable wherever a program module holds it, and undoes that."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, home: str, attr: str, make_wrapper) -> None:
        """Wrap ``home.attr`` in every module binding it; skip it if it is gone."""
        original = getattr(sys.modules.get(home), attr, None)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for mod in _program_modules(home):
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def restore(self) -> None:
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo.clear()


def _bound(fn, args, kwargs) -> dict:
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Recorder:
    """Times ``gp.fit``/``gp.predict`` calls and keeps fitted models, per phase.

    ``phase`` is set by the run loop ("setup", an iteration index, or
    "check"), so each record knows which part of the run made it.
    """

    def __init__(self):
        self.phase: object = "setup"
        self.fits: list[dict] = []
        self.predicts: list[dict] = []
        self._patches = Patches()

    def install(self) -> None:
        self._patches.replace("mixedgp.gp", "fit", self._wrap_fit)
        self._patches.replace("mixedgp.gp", "predict", self._wrap_predict)

    def restore(self) -> None:
        self._patches.restore()

    def _wrap_fit(self, fit):
        @functools.wraps(fit)
        def recorded_fit(*args, **kwargs):
            start = time.perf_counter()
            model = fit(*args, **kwargs)
            seconds = time.perf_counter() - start
            config = _bound(fit, args, kwargs).get("config")
            self.fits.append({"phase": self.phase, "seconds": seconds,
                              "model": model, "config": config})
            return model
        return recorded_fit

    def _wrap_predict(self, predict):
        @functools.wraps(predict)
        def recorded_predict(model, points, *args, **kwargs):
            start = time.perf_counter()
            result = predict(model, points, *args, **kwargs)
            seconds = time.perf_counter() - start
            space = model.dataset.space
            self.predicts.append({
                "phase": self.phase,
                "seconds": seconds,
                "n_new": len(result[0]),
                "n_train": len(model.dataset),
                "n_numeric": space.n_continuous + space.n_integer,
            })
            return result
        return recorded_predict

    def discard(self, phase) -> None:
        """Drop the records of a phase, and the models they hold."""
        self.fits = [f for f in self.fits if f["phase"] != phase]
        self.predicts = [p for p in self.predicts if p["phase"] != phase]

    def fits_in(self, *phases) -> list[dict]:
        return [f for f in self.fits if f["phase"] in phases]

    def predicts_in(self, *phases) -> list[dict]:
        return [p for p in self.predicts if p["phase"] in phases]


# (home module, attribute, span name, hot leaf?)
TRACED = (
    ("mixedgp.gp", "fit", "gp.fit", False),
    ("mixedgp.gp", "predict", "gp.predict", False),
    ("mixedgp.gp", "save_model", "gp.save_model", False),
    ("mixedgp.gp", "load_model", "gp.load_model", False),
    ("mixedgp.kernels", "set_from_search_vector", "kernels.decode", True),
    ("mixedgp.kernels", "categorical_matrix", "kernels.categorical_matrix", True),
    ("scipy.linalg", "cholesky", "linalg.cholesky", True),
    ("scipy.linalg", "solve_triangular", "linalg.solve_triangular", True),
    ("mixedgp.space", "validate_point", "space.validate_point", True),
    ("mixedgp.space", "normalized_coordinate_arrays", "space.coordinate_arrays", False),
    ("mixedgp.doe", "grid", "doe.grid", False),
    ("mixedgp.doe", "lhs", "doe.lhs", False),
    ("mixedgp.benchmarks", "run_cosine_benchmark", "benchmarks.run_cosine_benchmark", False),
)

# space file readers and writers; the bytes of the file they touch are counted
FILE_IO = (
    ("load_space", "space.load_space", "read"),
    ("load_dataset", "space.load_dataset", "read"),
    ("load_points", "space.load_points", "read"),
    ("save_space", "space.save_space", "written"),
    ("save_dataset", "space.save_dataset", "written"),
    ("save_points", "space.save_points", "written"),
)


class Tracer:
    """Spans and per-name aggregates for the wrapped layers of one run."""

    def __init__(self):
        self.iteration: object = "setup"
        self.spans: list[dict] = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self._stack = [[0, 0.0]]  # open spans: [span id, seconds covered by children]
        self._next_id = 1
        self._patches = Patches()

    # -- recording ------------------------------------------------------------

    def _open(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(frame)
        return frame, parent, time.perf_counter()

    def _close(self, name, frame, parent, start, hot, sample):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        parent[1] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_s[name] += duration - frame[1]
        if sample:
            self.samples[name].append(duration)
        if not hot:
            self.spans.append({
                "id": frame[0], "parent": parent[0], "name": name,
                "iteration": self.iteration, "start": start, "end": end,
                "self": duration - frame[1],
            })

    def wrap(self, fn, name, hot=False, sample=False, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._close(name, frame, parent, start, hot, sample)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code, such as a CLI call."""
        frame, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, frame, parent, start, False, False)

    # -- installation ---------------------------------------------------------

    def _wrap_multistart(self, multistart):
        def multistart_with_traced_objective(objective, *args, **kwargs):
            def evaluate(v):
                value = objective(v)
                if value == -math.inf:
                    self.counters["optimize.evals_ninf"] += 1
                return value
            traced_objective = self.wrap(evaluate, "gp.eval", hot=True, sample=True)
            return multistart(traced_objective, *args, **kwargs)
        return self.wrap(functools.wraps(multistart)(multistart_with_traced_objective),
                         "optimize.multistart")

    def _count_file(self, fn, direction):
        def on_return(args, kwargs, result):
            path = _bound(fn, args, kwargs).get("path")
            if path is not None and os.path.exists(path):
                self.counters[f"space.bytes_{direction}"] += os.path.getsize(path)
        return on_return

    def _count_grid_points(self, args, kwargs, result):
        self.counters["doe.grid_points"] += len(result)

    def install(self) -> None:
        self._patches.replace("mixedgp.gp", "multistart", self._wrap_multistart)
        for home, attr, name, hot in TRACED:
            on_return = self._count_grid_points if name == "doe.grid" else None
            self._patches.replace(
                home, attr,
                lambda fn, name=name, hot=hot, on_return=on_return:
                    self.wrap(fn, name, hot=hot, on_return=on_return),
            )
        for attr, name, direction in FILE_IO:
            self._patches.replace(
                "mixedgp.space", attr,
                lambda fn, name=name, direction=direction:
                    self.wrap(fn, name, on_return=self._count_file(fn, direction)),
            )

    def restore(self) -> None:
        self._patches.restore()

    def write(self, path) -> None:
        """Dump every span and aggregate; called once, when the run ends."""
        doc = {
            "spans": self.spans,
            "aggregates": {
                name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_s[name], "errors": self.errors[name]}
                for name in sorted(self.calls)
            },
            "counters": dict(self.counters),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


class NullTracer:
    """Stands in for ``Tracer`` in the untraced run: spans cost nothing."""

    @contextmanager
    def span(self, name):
        yield
