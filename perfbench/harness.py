"""Run loop, metrics and report of one benchmark workload (see run.py)."""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time

import numpy as np
import scipy.linalg.lapack

import mixedgp
from mixedgp import gp
from mixedgp import kernels as kr

from reference import ReferenceClock
from tracing import NullTracer, Recorder, Tracer
from workloads import WORKLOADS

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "predict_kpts_per_s": "kpts/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "optimize.evals": "count",
    "optimize.starts": "count",
    "optimize.starts_capped": "count",
    "optimize.useful_start_ratio": "ratio",
    "optimize.evals_ninf": "count",
    "optimize.self_s": "s",
    "optimize.evals_per_s": "1/s",
    "gp.eval_us_p50": "us",
    "gp.eval_us_p99": "us",
    "gp.eval_self_s": "s",
    "gp.fit_s": "s",
    "gp.fit_overhead_s": "s",
    "gp.eval_over_dpotrf": "ratio",
    "gp.predict_s": "s",
    "gp.predict_self_s": "s",
    "gp.save_model_s": "s",
    "gp.load_model_s": "s",
    "gp.cross_corr_mb_computed": "MB",
    "kernels.decode_s": "s",
    "kernels.decode_calls": "count",
    "kernels.categorical_matrix_s": "s",
    "kernels.categorical_matrix_calls": "count",
    "linalg.cholesky_s": "s",
    "linalg.cholesky_calls": "count",
    "linalg.cholesky_failures": "count",
    "linalg.solve_triangular_s": "s",
    "linalg.solve_triangular_calls": "count",
    "linalg.dpotrf_floor_us": "us",
    "space.validate_point_s": "s",
    "space.validate_point_calls": "count",
    "space.coordinate_arrays_s": "s",
    "space.load_points_s": "s",
    "space.save_points_s": "s",
    "space.load_dataset_s": "s",
    "space.bytes_read": "bytes",
    "space.bytes_written": "bytes",
    "doe.grid_s": "s",
    "doe.grid_points": "count",
    "doe.lhs_s": "s",
    "cli.doe_s": "s",
    "cli.fit_s": "s",
    "cli.predict_s": "s",
    "cli.export_corr_s": "s",
    "benchmarks.self_s": "s",
    "trace.overhead_s": "s",
    "ll_gd": "nats",
    "ll_cr": "nats",
    "ll_ehh": "nats",
    "rmse_gd": "target",
    "rmse_cr": "target",
    "rmse_ehh": "target",
}

DPOTRF_REPS = 300

# Fresh interpreters that time the imports, beside the run's own import.
IMPORT_PROBES = 6


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports; falls back to the environment."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found or {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def summary(samples) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = float(np.percentile(samples, p))
            break
    return out


def dpotrf_floor_us(model) -> float:
    """Median time of LAPACK dpotrf on the model's R(theta*) + jitter*I."""
    R = gp.correlation_matrix(model.dataset, model.theta_star, model.p)
    R[np.diag_indices_from(R)] += model.jitter
    times = []
    for _ in range(DPOTRF_REPS):
        start = time.perf_counter()
        _, info = scipy.linalg.lapack.dpotrf(R, lower=1)
        times.append(time.perf_counter() - start)
    if info != 0:
        raise RuntimeError(f"dpotrf failed on the fitted correlation matrix (info {info})")
    return statistics.median(times) * 1e6


def optimize_counts(fits) -> dict:
    """Counts from the public ``GpModel.start_log`` of each fit."""
    starts = capped = useful = evals = 0
    for record in fits:
        model, config = record["model"], record["config"]
        dim = kr.hyperparameter_count(model.dataset.space, model.kind)
        budget = config.max_evals if config.max_evals is not None else 500 * dim
        best = max(r.best_value for r in model.start_log)
        starts += len(model.start_log)
        evals += sum(r.n_evals for r in model.start_log)
        capped += sum(r.n_evals >= budget for r in model.start_log)
        useful += sum(r.best_value >= best - 1.0 for r in model.start_log)
    return {"optimize.evals": evals, "optimize.starts": starts,
            "optimize.starts_capped": capped,
            "optimize.useful_start_ratio": useful / starts if starts else 0.0}


def layer_metrics(tracer, recorder, phases, quality, overhead_s) -> dict:
    total, self_s, calls = tracer.total, tracer.self_s, tracer.calls
    fits = recorder.fits_in(*phases)
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(optimize_counts(fits))
    evals = tracer.samples["gp.eval"]
    m["optimize.evals_ninf"] = tracer.counters["optimize.evals_ninf"]
    m["optimize.self_s"] = self_s["optimize.multistart"]
    if total["optimize.multistart"]:
        m["optimize.evals_per_s"] = len(evals) / total["optimize.multistart"]
    if evals:
        m["gp.eval_us_p50"] = float(np.percentile(evals, 50)) * 1e6
        m["gp.eval_us_p99"] = float(np.percentile(evals, 99)) * 1e6
    m["gp.eval_self_s"] = self_s["gp.eval"]
    m["gp.fit_s"] = total["gp.fit"]
    m["gp.fit_overhead_s"] = total["gp.fit"] - total["optimize.multistart"]
    if fits:
        m["linalg.dpotrf_floor_us"] = dpotrf_floor_us(fits[-1]["model"])
        m["gp.eval_over_dpotrf"] = m["gp.eval_us_p50"] / m["linalg.dpotrf_floor_us"]
    m["gp.predict_s"] = total["gp.predict"]
    m["gp.predict_self_s"] = self_s["gp.predict"]
    m["gp.save_model_s"] = total["gp.save_model"]
    m["gp.load_model_s"] = total["gp.load_model"]
    m["gp.cross_corr_mb_computed"] = sum(
        p["n_new"] * p["n_train"] * p["n_numeric"] * 8 for p in recorder.predicts_in(*phases)
    ) / 1e6
    for leaf in ("kernels.decode", "kernels.categorical_matrix", "linalg.cholesky",
                 "linalg.solve_triangular", "space.validate_point"):
        m[f"{leaf}_s"] = total[leaf]
        m[f"{leaf}_calls"] = calls[leaf]
    m["linalg.cholesky_failures"] = tracer.errors["linalg.cholesky"]
    m["space.coordinate_arrays_s"] = total["space.coordinate_arrays"]
    for name in ("load_points", "save_points", "load_dataset"):
        m[f"space.{name}_s"] = total[f"space.{name}"]
    m["space.bytes_read"] = tracer.counters["space.bytes_read"]
    m["space.bytes_written"] = tracer.counters["space.bytes_written"]
    m["doe.grid_s"] = total["doe.grid"]
    m["doe.grid_points"] = tracer.counters["doe.grid_points"]
    m["doe.lhs_s"] = total["doe.lhs"]
    for name in ("doe", "fit", "predict", "export_corr"):
        m[f"cli.{name}_s"] = total[f"cli.{name}"]
    m["benchmarks.self_s"] = self_s["benchmarks.run_cosine_benchmark"]
    m["trace.overhead_s"] = overhead_s
    for name, value in quality.items():
        if name in m:
            m[name] = value
    return m


def _number(value):
    value = float(value)
    return value if math.isfinite(value) else None


def _clean(obj):
    """JSON-ready copy: numpy scalars become numbers, non-finite floats null."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return _number(obj)


def run(args, import_s: float, probe_import, src: str, out_dir: str) -> int:
    if os.path.dirname(os.path.abspath(mixedgp.__file__)) != os.path.join(src, "mixedgp"):
        print(f"error: mixedgp was imported from {mixedgp.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    tracer = Tracer() if args.trace else None
    untraced = NullTracer()
    clock = ReferenceClock()
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{args.workload}-") as workdir:
        wl = WORKLOADS[args.workload](args.seed, "tiny" if args.tiny else "full",
                                      recorder, workdir)

        # set-up: imports and set-ups repeated so that setup_s is a median;
        # traced once in the traced run
        import_times = [import_s]
        for _ in range(0 if tracer else IMPORT_PROBES):
            clock.read("setup")
            import_times.append(probe_import())
        setup_times = []
        if tracer:
            tracer.install()
        for _ in range(1 if tracer else wl.setup_reps):
            clock.read("setup")
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
        clock.read("setup")
        if tracer:
            tracer.restore()

        # timed phase: serial iterations until the time is used; the traced
        # run spends half of it untraced, then traces one more iteration
        budget = args.seconds / 2 if tracer else args.seconds
        iter_times, iter_samples = [], []
        loop_start = time.perf_counter()
        while True:
            clock.read("run")
            recorder.phase = len(iter_times)
            start = time.perf_counter()
            iter_samples.append(wl.iteration(untraced, recorder.phase))
            iter_times.append(time.perf_counter() - start)
            wl.after(recorder.phase)
            recorder.discard(recorder.phase)
            if time.perf_counter() - loop_start + 0.5 * iter_times[-1] >= budget:
                break
        clock.read("run")
        traced_index = len(iter_times)
        if tracer:
            recorder.phase = tracer.iteration = traced_index
            tracer.install()
            start = time.perf_counter()
            wl.iteration(tracer, traced_index)
            traced_s = time.perf_counter() - start
            tracer.restore()
            wl.after(traced_index)

        recorder.phase = "check"
        wl.check()
    recorder.restore()
    quality = wl.quality()

    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "blas_threads": blas_threads(), "import_times": import_times, "setup_times": setup_times,
        "reference_median_s": {phase: clock.median(phase) for phase in clock.samples},
        "reference_times": clock.samples,
        "iterations": len(iter_times), "iteration_times": iter_times,
        "quality": quality, "attempted": wl.attempted, "failed": wl.failed,
        "failures": wl.failures,
    }
    if tracer:
        overhead = traced_s - statistics.median(iter_times)
        metrics = layer_metrics(tracer, recorder, ("setup", traced_index), quality, overhead)
        units = PER_LAYER
        trace_path = os.path.join(out_dir, f"trace-{wl.name}-seed{args.seed}.json")
        tracer.write(trace_path)
        report["trace_file"] = os.path.relpath(trace_path)
    else:
        samples = {
            "import_s": import_times,
            "setup_work_s": setup_times,
            "run_s": iter_times,
            "fit_s": [v for s in iter_samples for v in s.get("fit_s", ())]
                     or [f["seconds"] for f in recorder.fits_in("setup")],
            "predict_s": [v for s in iter_samples for v in s["predict_s"]],
        }
        report["timings"] = {name: summary(v) for name, v in samples.items()}
        raw = {name: t["median"] for name, t in report["timings"].items()}
        setup_scale, run_scale = clock.scale("setup"), clock.scale("run")
        metrics = {
            "setup_s": (raw["import_s"] + raw["setup_work_s"]) * setup_scale,
            "run_s": raw["run_s"] * run_scale,
            "predict_kpts_per_s": wl.predict_points / (raw["predict_s"] * run_scale) / 1e3,
        }
        report["reference_scale"] = {"setup": setup_scale, "run": run_scale}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(iter_times)}  closed loop, 1 caller  "
          f"blas threads {report['blas_threads']}")
    for name, unit in units.items():
        detail = report.get("timings", {}).get(name)
        extra = ""
        if detail:
            tail = [f"{k} {v:.6g}" for k, v in detail.items() if k.startswith("p")]
            extra = (f"  (raw median {detail['median']:.6g} of {detail['n']}"
                     f"{'; ' + tail[0] if tail else ''}; "
                     f"reference scale {report['reference_scale']['run']:.4g})")
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}{extra}")
    print(f"  operations attempted {wl.attempted}, failed {wl.failed}")
    for failure in wl.failures:
        print(f"  CHECK FAILED: {failure}")
    print("report " + json.dumps(_clean(report)))
    result = {
        "correct": not wl.failures,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": _number(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1
