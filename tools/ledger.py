"""Write the fit ledger: per-fit and per-start records of the acceptance benchmark fits.

    python tools/ledger.py                     # writes BENCH_fits.json at the repository root
    python tools/ledger.py --runs 1 --out ledger.json
    python tools/ledger.py --compare PARENT_DIR
    python tools/ledger.py --sweep             # writes BENCH_claims.json at the repository root

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

``--compare PARENT_DIR`` times this checkout's fits against another
checkout's in alternating pairs.  Each of its ten pairs runs
``tools/ledger.py --runs 1`` once in each checkout, each in a fresh
interpreter and from the root of its checkout; the parent runs first in
the first pair, the change in the second, and so on.  Per problem, seed
and kind it prints each side's median ``fit_seconds`` with its quartiles
and their largest distance from the median, in how many pairs the change
was faster, and ``tools/pairs.py``'s gain rule: the change won at least
nine pairs in ten, and its median is below the parent's by more than the
parent's interquartile range.  It also says whether the likelihood and
the charged evaluations stayed the same across each side's runs, and
whether they differ between the sides.  It reports and gates nothing and
writes no file; it exits 1 if a run fails.  ``--runs`` belongs to the
ledger alone: ``--compare`` refuses it and ``--out``, ``--sweep`` refuses
``--runs``.

``--sweep`` checks the paper's claim on more designs.  It runs the
criterion arguments (n = 98, ``max_evals=6000``) on cosine seeds 0-9 and
beam seeds 0-4, the seeds of criteria 6 and 7 among them, and writes
``BENCH_claims.json``: per seed each kind's log-likelihood and RMSE and
whether they are ordered GD < CR < EHH in log-likelihood; per problem each
kind's median RMSE and the seeds on which EHH's RMSE is above CR's or
GD's.  It gates nothing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mixedgp import benchmarks as bm  # noqa: E402
from mixedgp import gp  # noqa: E402
from pairs import compare  # noqa: E402  (tools/pairs.py, next to this script)

KINDS = ("gd", "cr", "ehh")
MAX_EVALS = 6000
RUNNERS = {"cosine": bm.run_cosine_benchmark, "beam": bm.run_cantilever_benchmark}
# (problem, seed): criterion 6 on cosine seeds 0-2, criterion 7 on beam seed 0
PROBLEMS = [("cosine", seed) for seed in range(3)] + [("beam", 0)]
# the designs of --sweep
SWEEP = [("cosine", seed) for seed in range(10)] + [("beam", seed) for seed in range(5)]
# the pairs of --compare: the ten of tools/pairs.py's gain rule
PAIRS = 10


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


def run(problem: str, seed: int) -> dict:
    """kind -> (config, model, BenchmarkResult) of one runner call."""
    with captured_fits() as fits:
        results, _, errors = RUNNERS[problem](
            list(KINDS), doe_size=98, seed=seed,
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


def machine() -> dict:
    """The machine's architecture, CPU count and BLAS thread setting."""
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def write(document: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


def ledger(runs: int, out) -> int:
    fits = []
    for problem, seed in PROBLEMS:
        fitted = [run(problem, seed) for _ in range(runs)]
        for kind, (config, model, result) in fitted[0].items():
            seconds = [one[kind][1].fit_seconds for one in fitted]
            row = entry(problem, seed, config, model, result, seconds)
            fits.append(row)
            print(f"{problem} seed={seed} {row['kind']} ll={row['ll']:.4f} "
                  f"rmse={row['rmse']:.6g} fit_seconds={row['fit_seconds']:.3f} "
                  f"charged={row['charged']} replayed={row['replayed']} "
                  f"starts={len(row['starts'])} winner={row['winner']['index']} "
                  f"({row['winner']['start']})",
                  flush=True)
    write({**machine(), "runs": runs, "max_evals": MAX_EVALS, "fits": fits}, out)
    return 0


def compare_ledgers(parent: Path) -> int:
    """Ledger pairs of ``parent`` (run first in even pairs) against this checkout."""
    checkouts = {"parent": parent.resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(PAIRS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                out = Path(tmp) / f"{side}-{i}.json"
                proc = subprocess.run([sys.executable, "tools/ledger.py", "--runs", "1",
                                       "--out", str(out)], cwd=checkouts[side],
                                      stdout=subprocess.DEVNULL, check=False)
                if proc.returncode != 0:
                    print(f"pair {i + 1}: the {side}'s ledger run failed", file=sys.stderr)
                    return 1
                fits = json.loads(out.read_text())["fits"]
                runs[side].append({(f["problem"], f["seed"], f["kind"]): f for f in fits})
            print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr, flush=True)
    print(f"{PAIRS} ledger pairs, fit_seconds: median [quartiles] (largest distance of a "
          f"quartile from the median); quartiles are statistics.quantiles(n=4)")
    for key in runs["change"][0]:
        seconds = {side: [one[key]["fit_seconds"] for one in runs[side]] for side in runs}
        parent_q, change_q, wins, gain = compare(seconds["parent"], seconds["change"], -1)
        sides = []
        for side, (q1, q2, q3) in (("parent", parent_q), ("change", change_q)):
            spread = 100 * max(q2 - q1, q3 - q2) / q2
            sides.append(f"{side} {q2:.3f} [{q1:.3f}, {q3:.3f}] s (±{spread:.1f}%)")
        results = {side: {(one[key]["ll"], one[key]["charged"]) for one in runs[side]}
                   for side in runs}
        steady = all(len(found) == 1 for found in results.values())
        print(f"{key[0]} seed={key[1]} {key[2]}: {'  '.join(sides)}  "
              f"change faster in {wins}/{PAIRS}  gain: {'yes' if gain else 'no'}  "
              f"ll and charged: {'the same' if steady else 'NOT the same'} within each side, "
              f"{'equal' if results['parent'] == results['change'] else 'different'} "
              f"between sides")
    return 0


def sweep(out) -> int:
    designs = []
    for problem, seed in SWEEP:
        fitted = run(problem, seed)
        ll = {kind.value: model.log_likelihood for kind, (_, model, _) in fitted.items()}
        rmse = {kind.value: result.rmse for kind, (_, _, result) in fitted.items()}
        ordered = ll["gd"] < ll["cr"] < ll["ehh"]
        designs.append({"problem": problem, "seed": seed, "criterion": (problem, seed) in PROBLEMS,
                        "ll": ll, "rmse": rmse, "ll_ordered": ordered})
        print(f"{problem} seed={seed} "
              + " ".join(f"{kind}: ll={ll[kind]:.4f} rmse={rmse[kind]:.6g}" for kind in KINDS)
              + f" GD<CR<EHH in ll: {'yes' if ordered else 'no'}", flush=True)
    problems = {}
    for problem in RUNNERS:
        mine = [d for d in designs if d["problem"] == problem]
        problems[problem] = {
            "seeds": [d["seed"] for d in mine],
            "ll_ordered_on_every_seed": all(d["ll_ordered"] for d in mine),
            "median_rmse": {kind: statistics.median(d["rmse"][kind] for d in mine)
                            for kind in KINDS},
            "ehh_rmse_above_cr": [d["seed"] for d in mine if d["rmse"]["ehh"] > d["rmse"]["cr"]],
            "ehh_rmse_above_gd": [d["seed"] for d in mine if d["rmse"]["ehh"] > d["rmse"]["gd"]],
        }
        print(f"{problem}: " + json.dumps(problems[problem]))
    write({**machine(), "doe_size": 98, "max_evals": MAX_EVALS, "designs": designs,
           "problems": problems}, out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--compare", type=Path, metavar="PARENT_DIR",
                      help="time ledger pairs of that checkout against this one")
    mode.add_argument("--sweep", action="store_true",
                      help="the paper's claim on cosine seeds 0-9 and beam seeds 0-4")
    parser.add_argument("--runs", type=int, default=None,
                        help="runs per problem for fit_seconds (3)")
    parser.add_argument("--out", default=None,
                        help="the file written (BENCH_fits.json, or BENCH_claims.json for "
                             "--sweep, at the repository root)")
    args = parser.parse_args(argv)
    if args.runs is not None and (args.compare is not None or args.sweep):
        parser.error("--runs applies to the ledger alone, not to --compare or --sweep")
    if args.compare is not None and args.out is not None:
        parser.error("--compare writes no file, so it takes no --out")
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.compare is not None:
        return compare_ledgers(args.compare)
    if args.sweep:
        return sweep(args.out or ROOT / "BENCH_claims.json")
    return ledger(args.runs or 3, args.out or ROOT / "BENCH_fits.json")


if __name__ == "__main__":
    sys.exit(main())
