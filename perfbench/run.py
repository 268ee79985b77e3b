"""Benchmark of mixedgp: one workload per process, closed loop, one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-cosine --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after the other, each in
its own process.  With ``--trace 0`` the last line of standard output is a
JSON object holding every end-to-end metric; with ``--trace 1`` it holds
every per-layer metric, gathered by wrapping public callables (see
tracing.py).  The lines above it are a readable report.  The exit code is
nonzero if any output check fails.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse
import os
import sys

# Single-threaded BLAS, the plain baseline: it keeps the numbers from
# measuring the scheduler of a small shared machine.  Set before numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("fit-cosine", "predict-beam", "cli-beam")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed phase runs (at least one iteration)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for selfcheck.py only")
    parser.add_argument("--import-only", action="store_true",
                        help="print the import time and exit (the set-up probes)")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    # imported here so that a single workload's setup_s does not include them
    import json
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "mixedgp")):
        print(f"error: no mixedgp sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    for name in ("MIXEDGP_SEED", "MIXEDGP_JITTER"):
        os.environ.pop(name, None)

    import harness  # imports numpy, scipy and mixedgp

    import_s = time.perf_counter() - T_START
    if args.import_only:
        print(repr(import_s))
        return 0
    return harness.run(args, import_s, lambda: probe_import(args), SRC, OUT)


def probe_import(args) -> float:
    """Import time of a fresh interpreter; one import per run is too few
    samples for setup_s on a machine whose speed swings."""
    import subprocess

    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--import-only"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout.split()[-1])


if __name__ == "__main__":
    sys.exit(main())
