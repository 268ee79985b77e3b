"""Command-line front end: DoE generation, fitting, prediction, benchmarks.

Exit codes: 0 success, 2 parse/usage error, 3 DoE generation error,
4 numerical failure, 5 validation error, 6 benchmark failure under
--strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import benchmarks as bm
from . import gp
from . import kernels as kr
from .doe import grid, lhs
from .errors import (
    LevelOutOfRange,
    MixedGpError,
    NumericalFailure,
    ObjectiveFailure,
    OutOfBounds,
    SizeOverflow,
)
from .space import (
    Categorical,
    _reprs,
    _write_csv,
    load_dataset,
    load_points,
    load_space,
    save_points,
    save_predictions,
)

EXIT_PARSE = 2
EXIT_GENERATION = 3
EXIT_NUMERICAL = 4
EXIT_VALIDATION = 5
EXIT_BENCHMARK = 6

# package errors with an exit code of their own; every other one exits EXIT_PARSE
_EXIT_CODES = (
    ((NumericalFailure, ObjectiveFailure), EXIT_NUMERICAL),
    ((OutOfBounds, LevelOutOfRange), EXIT_VALIDATION),
)

_KERNEL_CHOICES = [k.value for k in kr.CategoricalKernelKind]


# --problem: runner, space (for --export-corr-dir), and the scale and unit of the RMSE shown
_PROBLEMS = {
    "cosine": (bm.run_cosine_benchmark, bm.cosine_space, 1.0, ""),
    "beam": (bm.run_cantilever_benchmark, bm.beam_space, 100.0, " cm"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; every default of every flag is set here."""
    parser = argparse.ArgumentParser(
        prog="mixedgp",
        description="Gaussian-process surrogates over mixed continuous/integer/categorical inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_doe = sub.add_parser("doe", help="generate a design of experiments")
    p_doe.add_argument("space_file")
    p_doe.add_argument("--n", type=int, default=10, help="number of LHS points")
    p_doe.add_argument("--seed", type=int, default=0)
    p_doe.add_argument("--method", choices=["lhs", "grid"], default="lhs")
    p_doe.add_argument(
        "--grid-counts",
        default=None,
        help="comma list, one count per continuous/integer variable (grid method; defaults to --n each)",
    )
    p_doe.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="fit a GP model to a dataset")
    p_fit.add_argument("space_file")
    p_fit.add_argument("data_file")
    p_fit.add_argument("--kernel", choices=_KERNEL_CHOICES, default="ehh")
    p_fit.add_argument("--p", type=int, choices=[1, 2], default=2)
    p_fit.add_argument("--starts", type=int, default=10)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--budget", type=int, default=None, help="optimizer evaluations per start")
    p_fit.add_argument("--jitter", type=float, default=gp.JITTER_DEFAULT)
    p_fit.add_argument("--trace", default=None,
                       help="write one JSON line per start of the search here")
    p_fit.add_argument("--out-model", required=True)

    p_pred = sub.add_parser("predict", help="predict at points from a fitted model")
    p_pred.add_argument("model_file")
    p_pred.add_argument("points_file")
    p_pred.add_argument("--out", required=True)

    p_bench = sub.add_parser("benchmark", help="run a benchmark problem")
    p_bench.add_argument("--problem", required=True, choices=[*_PROBLEMS, "dragon-audit"])
    p_bench.add_argument("--kernels", default="gd,cr,ehh", help="comma list of kernel kinds")
    p_bench.add_argument("--doe-size", type=int, default=98)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--p", type=int, choices=[1, 2], default=2)
    p_bench.add_argument("--starts", type=int, default=10)
    p_bench.add_argument("--budget", type=int, default=None)
    p_bench.add_argument("--strict", action="store_true", help="exit 6 if any kernel fit fails")
    p_bench.add_argument("--export-corr-dir", default=None,
                         help="write each kind's first correlation matrix to this directory")
    p_bench.add_argument("--out", default=None, help="benchmark report file")

    p_info = sub.add_parser("kernel-info", help="hyperparameter counts for a space")
    p_info.add_argument("space_file")
    p_info.add_argument("--kernel", choices=_KERNEL_CHOICES, default=None,
                        help="restrict the table to one kind")

    p_corr = sub.add_parser("export-corr", help="export a fitted categorical correlation matrix")
    p_corr.add_argument("model_file")
    p_corr.add_argument("--variable", type=int, default=None,
                        help="1-based variable index in the space (default: first categorical)")
    p_corr.add_argument("--out", required=True)

    return parser


def _write_matrix(matrix: np.ndarray, level_names, path) -> None:
    _write_csv(path, level_names, [_reprs(column) for column in matrix.T], len(matrix),
               lineterminator="\n")


def _write_trace(records, path) -> None:
    """One JSON object per start: its index, evaluations, replayed ones, stop reason, best value.

    A best value that is not finite (no evaluation of the start was) is written as null.
    """
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps({
                "start_index": rec.start_index, "n_evals": rec.n_evals,
                "replayed": rec.replayed, "stop": rec.stop,
                "best_value": rec.best_value if math.isfinite(rec.best_value) else None,
            }) + "\n")


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_doe(args) -> int:
    space = load_space(args.space_file)
    try:
        if args.method == "lhs":
            points = lhs(space, args.n, args.seed)
        else:
            n_numeric = space.n_continuous + space.n_integer
            if args.grid_counts:
                counts = tuple(int(c) for c in args.grid_counts.split(","))
            else:
                counts = (args.n,) * n_numeric
            points = grid(space, counts)
    except (SizeOverflow, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    save_points(space, points, args.out)
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    space = load_space(args.space_file)
    dataset = load_dataset(space, args.data_file)
    kind = kr.CategoricalKernelKind.parse(args.kernel)
    config = gp.FitConfig(n_starts=args.starts, max_evals=args.budget, jitter=args.jitter,
                          seed=args.seed)
    model = gp.fit(dataset, kind, args.p, config)
    gp.save_model(model, args.out_model)
    if args.trace is not None:
        try:
            _write_trace(model.start_log, args.trace)
        except OSError:
            os.remove(args.out_model)  # a failed fit leaves neither file
            raise
    n_hyper = kr.hyperparameter_count(space, kind)
    print(
        f"kernel={kind.value} n_hyper={n_hyper} "
        f"log_likelihood={model.log_likelihood:.6f} fit_seconds={model.fit_seconds:.3f}"
    )
    return 0


def _cmd_predict(args) -> int:
    model = gp.load_model(args.model_file)
    points = load_points(model.dataset.space, args.points_file)
    means, variances = gp.predict(model, points)
    save_predictions(points, means, variances, args.out)
    print(f"wrote {len(points)} predictions to {args.out}")
    return 0


def _cmd_benchmark(args) -> int:
    if args.problem == "dragon-audit":
        report = bm.dragon_space_audit()
        counts = report["hyperparameters"]
        print(
            f"relaxed={report['relaxed_total']} gd={counts['gd']} "
            f"cr={counts['cr']} ehh={counts['ehh']}"
        )
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("quantity,value\n")
                fh.write(f"relaxed_total,{report['relaxed_total']}\n")
                for kind, count in counts.items():
                    fh.write(f"n_hyper_{kind},{count}\n")
        return 0

    kinds = [kr.CategoricalKernelKind.parse(k) for k in args.kernels.split(",") if k]
    if not kinds:
        raise ValueError(f"--kernels {args.kernels!r} names no kernel kind")
    run, make_space, scale, unit = _PROBLEMS[args.problem]
    fit_config = gp.FitConfig(n_starts=args.starts, max_evals=args.budget, seed=args.seed)
    results, corr, errors = run(kinds, args.doe_size, args.seed, args.p, fit_config=fit_config)
    for res in results:
        print(
            f"{res.kind.value}: n_hyper={res.n_hyper} rmse={res.rmse * scale:.4f}{unit} "
            f"pva={res.pva:.3f} fit_seconds={res.fit_seconds:.2f}"
        )
    for kind, exc in errors.items():
        print(f"{kind.value}: failed ({exc})", file=sys.stderr)
    if args.out:
        bm.write_benchmark_report(results, errors, args.out)
    if args.export_corr_dir:
        os.makedirs(args.export_corr_dir, exist_ok=True)
        levels = make_space().categorical[0].levels
        for kind, matrix in corr.items():
            _write_matrix(matrix, levels, os.path.join(args.export_corr_dir, f"corr_{kind.value}.csv"))
    if errors and args.strict:
        return EXIT_BENCHMARK
    return 0


def _cmd_kernel_info(args) -> int:
    space = load_space(args.space_file)
    kinds = (
        [kr.CategoricalKernelKind.parse(args.kernel)]
        if args.kernel
        else list(kr.CategoricalKernelKind)
    )
    print(
        f"space: {space.n_continuous} continuous, {space.n_integer} integer, "
        f"{space.n_categorical} categorical (levels {list(space.level_counts)}), "
        f"relaxed dimension {space.n_continuous + space.n_integer + space.relaxed_dim}"
    )
    for kind in kinds:
        print(f"{kind.value}: {kr.hyperparameter_count(space, kind)} hyperparameters")
    return 0


def _cmd_export_corr(args) -> int:
    model = gp.load_model(args.model_file)
    space = model.dataset.space
    cat_positions = [i for i, v in enumerate(space.variables) if isinstance(v, Categorical)]
    if args.variable is None and not cat_positions:
        print("error: model space has no categorical variable", file=sys.stderr)
        return EXIT_VALIDATION
    position = cat_positions[0] if args.variable is None else args.variable - 1
    if position not in cat_positions:
        print(f"error: variable {args.variable} is not categorical", file=sys.stderr)
        return EXIT_VALIDATION
    i = cat_positions.index(position)
    matrix = kr.categorical_matrix(model.kind, space.level_counts[i], model.theta_star.variable(i))
    _write_matrix(matrix, space.variables[position].levels, args.out)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} correlation matrix to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "doe": _cmd_doe,
        "fit": _cmd_fit,
        "predict": _cmd_predict,
        "benchmark": _cmd_benchmark,
        "kernel-info": _cmd_kernel_info,
        "export-corr": _cmd_export_corr,
    }
    try:
        return handlers[args.command](args)
    except (MixedGpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for errors, code in _EXIT_CODES if isinstance(exc, errors)), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
