"""Write the fit ledger: per-fit and per-start records of the acceptance benchmark fits.

    python tools/ledger.py                     # writes BENCH_fits.json at the repository root
    python tools/ledger.py --runs 1 --out ledger.json

It runs the benchmark runners with the arguments of acceptance criteria 6
and 7: ``run_cosine_benchmark(["gd", "cr", "ehh"], doe_size=98, seed=s,
fit_config=FitConfig(seed=s, max_evals=6000))`` for cosine seeds 0-2, and
``run_cantilever_benchmark`` with the same arguments on beam seed 0.  Each
``gp.fit`` the runner makes is captured by wrapping ``benchmarks.gp.fit``
for the length of the run (the original is put back afterwards), which
sees the config the runner gave that fit and the model it returned.

Per problem, seed and kind the ledger records the log-likelihood, the
validation RMSE, ``fit_seconds`` (the median over ``--runs`` runs), the
evaluations charged to the starts' budgets (the sum of
``StartRecord.n_evals``) and how many of those the multistart record
replayed.  Per start it records the start index, whether the start is
``"diagonal"`` or ``"warm"`` (its index is at least the config's
``n_starts``), ``best_value``, ``n_evals`` and ``stop``; ``winner`` gives
the index and the kind of the first start that reached the fit's
likelihood.  Everything but ``fit_seconds`` comes from the first run; the
fits are deterministic, so the other runs repeat it.

The file also names the machine's architecture, its CPU count and the
``OPENBLAS_NUM_THREADS`` setting, on which the seconds (and, through the
BLAS kernels, the bits) depend.  The script measures and gates nothing: it
prints one line per fit and exits 0 once the file is written.  It imports
the package from the ``src/`` next to it.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mixedgp import benchmarks as bm  # noqa: E402
from mixedgp import gp  # noqa: E402

KINDS = ("gd", "cr", "ehh")
MAX_EVALS = 6000
# (problem, runner, seed): criterion 6 on cosine seeds 0-2, criterion 7 on beam seed 0
PROBLEMS = [("cosine", bm.run_cosine_benchmark, seed) for seed in range(3)] + [
    ("beam", bm.run_cantilever_benchmark, 0)]


@contextmanager
def captured_fits():
    """A list of the (config, model) pairs of the ``gp.fit`` calls made inside the block."""
    fits = []
    original = gp.fit

    def fit(dataset, kind, p=2, config=gp.FitConfig()):
        model = original(dataset, kind, p, config)
        fits.append((config, model))
        return model

    gp.fit = fit
    try:
        yield fits
    finally:
        gp.fit = original


def run(runner, seed: int) -> dict:
    """kind -> (config, model, BenchmarkResult) of one runner call."""
    with captured_fits() as fits:
        results, _, errors = runner(list(KINDS), doe_size=98, seed=seed,
                                    fit_config=gp.FitConfig(seed=seed, max_evals=MAX_EVALS))
    if errors:
        raise SystemExit(f"ledger: fits failed: {errors}")
    models = {model.kind: (config, model) for config, model in fits}
    return {res.kind: (*models[res.kind], res) for res in results}


def entry(problem: str, seed: int, config, model, result, seconds: list[float]) -> dict:
    records = model.start_log
    starts = [{"index": r.start_index,
               "start": "diagonal" if r.start_index < config.n_starts else "warm",
               "best_value": r.best_value, "n_evals": r.n_evals, "stop": r.stop}
              for r in records]
    best = max(start["best_value"] for start in starts)
    return {
        "problem": problem,
        "seed": seed,
        "kind": model.kind.value,
        "ll": model.log_likelihood,
        "rmse": result.rmse,
        "fit_seconds": statistics.median(seconds),
        "charged": sum(record.n_evals for record in records),
        "replayed": sum(record.replayed for record in records),
        "n_starts": config.n_starts,
        "winner": next({"index": start["index"], "start": start["start"]}
                       for start in starts if start["best_value"] == best),
        "starts": starts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per problem for fit_seconds")
    parser.add_argument("--out", default=str(ROOT / "BENCH_fits.json"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    fits = []
    for problem, runner, seed in PROBLEMS:
        runs = [run(runner, seed) for _ in range(args.runs)]
        for kind, (config, model, result) in runs[0].items():
            seconds = [fitted[kind][1].fit_seconds for fitted in runs]
            row = entry(problem, seed, config, model, result, seconds)
            fits.append(row)
            print(f"{problem} seed={seed} {row['kind']} ll={row['ll']:.4f} "
                  f"rmse={row['rmse']:.6g} fit_seconds={row['fit_seconds']:.3f} "
                  f"charged={row['charged']} replayed={row['replayed']} "
                  f"starts={len(row['starts'])} winner={row['winner']['index']} "
                  f"({row['winner']['start']})",
                  flush=True)
    ledger = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "runs": args.runs,
        "max_evals": MAX_EVALS,
        "fits": fits,
    }
    with open(args.out, "w") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
