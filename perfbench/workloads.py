"""The three benchmark workloads.

Each workload is driven by one caller in a closed loop: ``setup`` builds
the inputs from the seed, ``iteration`` is the timed phase and is called
serially until the run's time is used up, and ``check`` verifies the
outputs afterwards.  The program is reached only through its public API
(``benchmarks``, ``gp``, ``doe``, ``space``, ``kernels`` and ``cli.main``).

* ``fit-cosine``: ``run_cosine_benchmark`` with GD, CR and EHH at n=98 and
  a fixed per-start budget.  Optimizer and likelihood take most of the
  time; EHH has 79 hyperparameters, the most of any paper problem.
* ``predict-beam``: grid of the beam space, prediction on it and RMSE
  against the closed-form deflection, for a CR model fitted in set-up.
  No optimizer work is timed: points, validation, cross-correlation and
  memory dominate.
* ``cli-beam``: ``doe``, ``fit``, ``predict`` and ``export-corr`` through
  ``cli.main`` on files, so parsing, model save/load and the rebuild in
  ``load_model`` are timed on the same code paths as ``predict-beam``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time

import numpy as np

from mixedgp import benchmarks as bm
from mixedgp import cli, doe, gp, space
from mixedgp import kernels as kr

CR = kr.CategoricalKernelKind.CR

# Workload sizes; "tiny" is used only by selfcheck.py.  Each timed
# iteration takes under about 1.5 s, so that a run holds tens of samples
# and the reference clock (reference.py) is read often beside them.
# At the fit-cosine budget every CR and EHH start is capped, so the
# evaluations of an iteration vary little between seeds (2,960-3,130).
SIZES = {
    "fit-cosine": {
        "full": {"doe_size": 98, "budget": 100, "grid_points": 200},
        "tiny": {"doe_size": 20, "budget": 30, "grid_points": 40},
    },
    "predict-beam": {
        "full": {"doe_size": 98, "budget": 200, "grid": (40, 40)},
        "tiny": {"doe_size": 20, "budget": 20, "grid": (10, 10)},
    },
    "cli-beam": {
        "full": {"doe_size": 98, "budget": 30, "grid": (20, 20)},
        "tiny": {"doe_size": 20, "budget": 20, "grid": (10, 10)},
    },
}

# Standardized interpolation tolerance at the training points, the bound
# tests/test_acceptance.py uses for noiseless interpolation (criterion 5).
INTERPOLATION_TOL = 1e-6


def _beam_truths(points) -> np.ndarray:
    """Closed-form tip deflections, vectorized per section level."""
    cfg = bm.CantileverConfig()
    X = np.array([w.continuous for w in points])
    C = np.array([w.categorical[0] for w in points])
    y = np.empty(len(points))
    for level in np.unique(C):
        rows = C == level
        y[rows] = bm.cantilever_deflection(cfg, int(level), X[rows, 0], X[rows, 1])
    return y


def _beam_dataset(seed: int, n: int) -> space.Dataset:
    beam = bm.beam_space()
    points = doe.lhs(beam, n, seed)
    return space.Dataset(beam, points, _beam_truths(points))


def _evals(models) -> int:
    return sum(r.n_evals for m in models for r in m.start_log)


class Workload:
    """Shared shape: ``setup_reps`` set-ups, then timed iterations, then checks.

    ``iteration`` returns the seconds of its ``fit_s`` and ``predict_s``
    samples; every ``predict_s`` sample covers ``predict_points`` points.
    ``after`` runs untimed after each iteration: it checks what needs the
    fitted models and keeps only figures, so that memory does not grow with
    the number of iterations.
    """

    name = ""
    setup_reps = 3
    predict_points = 0

    def __init__(self, seed: int, size: str, recorder, workdir: str):
        self.seed = seed
        self.size = SIZES[self.name][size]
        self.recorder = recorder
        self.workdir = workdir
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def after(self, index) -> None:
        pass

    def quality(self) -> dict:
        """Attained ll, RMSE and evaluations; exact and the same for a given seed."""
        raise NotImplementedError


class FitCosine(Workload):
    name = "fit-cosine"
    setup_reps = 5
    kinds = ("gd", "cr", "ehh")

    def setup(self):
        self.fit_config = gp.FitConfig(seed=self.seed, max_evals=self.size["budget"])
        self.outputs: list[dict] = []

    def iteration(self, tracer, index) -> dict:
        results, _, errors = bm.run_cosine_benchmark(
            list(self.kinds), doe_size=self.size["doe_size"], seed=self.seed,
            fit_config=self.fit_config, grid_points=self.size["grid_points"],
        )
        fits = self.recorder.fits_in(index)
        predicts = self.recorder.predicts_in(index)
        self.attempted += len(self.kinds) + len(predicts)
        self.failed += len(errors)
        self.predict_points = predicts[0]["n_new"]
        if any(p["n_new"] != self.predict_points for p in predicts):
            self.fail("predict calls of one iteration differ in size")
        self.outputs.append({
            "results": {r.kind.value: (r.log_likelihood, r.rmse) for r in results},
            "errors": {k.value: repr(e) for k, e in errors.items()},
            "fits": fits,
        })
        return {
            "fit_s": [sum(f["seconds"] for f in fits)],
            "predict_s": [p["seconds"] for p in predicts],
        }

    def after(self, index) -> None:
        out = self.outputs[-1]
        fits = out.pop("fits")
        out["evals"] = _evals(f["model"] for f in fits)
        for record in fits:
            model, config = record["model"], record["config"]
            again = gp.concentrated_log_likelihood(
                model.standardized_dataset(), model.theta_star, model.p, config.jitter
            )
            if again != model.log_likelihood:
                self.fail(f"{model.kind.value}: stored ll {model.log_likelihood!r} "
                          f"!= re-evaluated {again!r}")

    def check(self) -> None:
        first = self.outputs[0]
        for out in self.outputs:
            if out["errors"]:
                self.fail(f"harness errors: {out['errors']}")
            if out["results"] != first["results"]:
                self.fail("ll/rmse differ between iterations of one run")

    def quality(self) -> dict:
        out = self.outputs[0]
        q = {}
        for kind in self.kinds:
            ll, rmse = out["results"].get(kind, (math.nan, math.nan))
            q[f"ll_{kind}"], q[f"rmse_{kind}"] = ll, rmse
        q["optimize.evals"] = out["evals"]
        return q


class PredictBeam(Workload):
    name = "predict-beam"
    setup_reps = 3

    def setup(self):
        dataset = _beam_dataset(self.seed, self.size["doe_size"])
        config = gp.FitConfig(seed=self.seed, max_evals=self.size["budget"])
        self.attempted += 1
        self.model = gp.fit(dataset, CR, 2, config)
        grid = doe.grid(dataset.space, self.size["grid"])
        self.truths = _beam_truths(grid)
        self.outputs: list[dict] = []

    def iteration(self, tracer, index) -> dict:
        start = time.perf_counter()
        grid = doe.grid(self.model.dataset.space, self.size["grid"])
        self.attempted += 1
        means, variances = gp.predict(self.model, grid)
        seconds = time.perf_counter() - start
        self.predict_points = len(grid)
        self.outputs.append({
            "n": len(grid),
            "rmse": bm.rmse(means, self.truths),
            "min_variance": float(np.min(variances)),
        })
        return {"predict_s": [seconds]}

    def check(self) -> None:
        model = self.model
        means, _ = gp.predict(model, model.dataset.points)
        worst = float(np.max(np.abs(means - model.dataset.targets))) / model.y_scale
        if not worst <= INTERPOLATION_TOL:
            self.fail(f"training points not reproduced: standardized residual {worst:.3g}")
        first = self.outputs[0]
        for out in self.outputs:
            if out["n"] != self.truths.size:
                self.fail(f"grid has {out['n']} points, expected {self.truths.size}")
            if not out["min_variance"] >= 0.0:
                self.fail(f"negative predictive variance {out['min_variance']!r}")
            if not math.isfinite(out["rmse"]):
                self.fail("rmse_cr is not finite")
            if out["rmse"] != first["rmse"]:
                self.fail("rmse_cr differs between iterations of one run")

    def quality(self) -> dict:
        return {"ll_cr": self.model.log_likelihood, "rmse_cr": self.outputs[0]["rmse"],
                "optimize.evals": _evals([self.model])}


class CliBeam(Workload):
    name = "cli-beam"
    setup_reps = 5

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        dataset = _beam_dataset(self.seed, self.size["doe_size"])
        space.save_space(dataset.space, self._path("beam.space"))
        space.save_dataset(dataset, self._path("train.csv"))
        self.truths = _beam_truths(doe.grid(dataset.space, self.size["grid"]))
        self.outputs: list[dict] = []
        self.rmse = math.nan

    def _run_cli(self, tracer, name, argv, seconds):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with tracer.span(f"cli.{name}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds[name] = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.fail(f"mixedgp {argv[0]} exited {code}: {err.getvalue().strip()}")

    def iteration(self, tracer, index) -> dict:
        seconds: dict = {}
        counts = ",".join(str(c) for c in self.size["grid"])
        self._run_cli(tracer, "doe", [
            "doe", self._path("beam.space"), "--method", "grid",
            "--grid-counts", counts, "--out", self._path("grid.csv")], seconds)
        self._run_cli(tracer, "fit", [
            "fit", self._path("beam.space"), self._path("train.csv"), "--kernel", "cr",
            "--budget", str(self.size["budget"]), "--seed", str(self.seed),
            "--out-model", self._path("model.json")], seconds)
        self._run_cli(tracer, "predict", [
            "predict", self._path("model.json"), self._path("grid.csv"),
            "--out", self._path("pred.csv")], seconds)
        self._run_cli(tracer, "export_corr", [
            "export-corr", self._path("model.json"), "--out", self._path("corr.csv")],
            seconds)
        fits = self.recorder.fits_in(index)
        predicts = self.recorder.predicts_in(index)
        self.predict_points = sum(p["n_new"] for p in predicts)
        self.outputs.append({"fits": fits})
        return {
            "fit_s": [sum(f["seconds"] for f in fits)],
            "predict_s": [seconds["predict"]],
        }

    def _read_predictions(self):
        with open(self._path("pred.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        means = np.array([float(r[-2]) for r in rows])
        stddevs = np.array([float(r[-1]) for r in rows])
        return means, stddevs

    def after(self, index) -> None:
        out = self.outputs[-1]
        fits = out.pop("fits")
        if fits:
            self.model = fits[0]["model"]
            out["ll"], out["evals"] = self.model.log_likelihood, _evals([self.model])

    def check(self) -> None:
        if self.failures:
            return
        lls = {out["ll"] for out in self.outputs}
        if len(lls) != 1:
            self.fail(f"ll_cr differs between iterations of one run: {sorted(lls)}")
        model = self.model
        points = space.load_points(model.dataset.space, self._path("grid.csv"))
        means, stddevs = self._read_predictions()
        if means.size != len(points) or means.size != self.truths.size:
            self.fail(f"{means.size} prediction rows for {len(points)} points")
            return
        ref_means, ref_variances = gp.predict(model, points)
        if not (np.array_equal(means, ref_means)
                and np.array_equal(stddevs, np.sqrt(ref_variances))):
            self.fail("predictions of the reloaded model differ from in-process gp.predict")
        self.rmse = bm.rmse(means, self.truths)

    def quality(self) -> dict:
        out = self.outputs[0]
        return {"ll_cr": out.get("ll", math.nan), "rmse_cr": self.rmse,
                "optimize.evals": out.get("evals", 0)}


WORKLOADS = {w.name: w for w in (FitCosine, PredictBeam, CliBeam)}
