"""Self-check of the benchmark on tiny inputs.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload it runs run.py three times on tiny inputs (seed 1
untraced, seed 1 traced, seed 2 untraced) and checks that

* the metric names printed match BENCHMARK.json (end-to-end untraced,
  per-layer traced);
* the two seed-1 runs give identical ll_*, rmse_* and optimize.evals, so
  reruns repeat and tracing does not change them;
* seed 2 changes the ll_* and rmse_* values.

Exits nonzero if any check fails.
"""

import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOAD_NAMES


def run(workload, seed, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stdout}")
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return json.loads(lines[-1]), report["quality"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOAD_NAMES:
        runs = {(seed, trace): run(workload, seed, trace) for seed, trace in ((1, 0), (1, 1), (2, 0))}
        for (seed, trace), (result, _) in runs.items():
            printed = set(result["metrics"])
            if printed != names[trace]:
                problems.append(f"{workload} trace {trace}: metric names differ from "
                                f"BENCHMARK.json: {sorted(printed ^ names[trace])}")
            if not result["correct"]:
                problems.append(f"{workload} seed {seed} trace {trace}: output check failed")
        same, traced, other = runs[1, 0][1], runs[1, 1][1], runs[2, 0][1]
        if same != traced:
            problems.append(f"{workload}: seed 1 untraced {same} != traced {traced}")
        changed = [k for k in same if k != "optimize.evals" and same[k] == other[k]]
        if changed:
            problems.append(f"{workload}: seed 2 leaves {changed} unchanged")
        print(f"{workload}: seed 1 {same}; seed 2 {other}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
