"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python tools/pairs.py PARENT_DIR CHANGE_DIR --workload cli-beam --seeds 421-430 --seconds 30

For each seed it runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, from the root of that checkout.  The
side that runs first alternates: the parent on the first pair, the change
on the second, and so on.  It then prints, for every end-to-end metric
both sides report, each side's median and quartiles and the number of
pairs in which the change read better (ties count for neither), with the
direction taken from the change's ``BENCHMARK.json``.  ``gain`` says
whether the change won at least nine pairs in ten and its median differs
from the parent's by more than the parent's interquartile range.

``--seeds`` takes a range ``421-430`` or a list ``1,5,9``.  ``--out``
appends every run's result line, tagged with its side and seed, to a JSON
lines file.  A run that exits nonzero or prints no result counts as
failed and is left out of its pair; the summary then covers the complete
pairs, and the script exits 1.  Only the standard library is used,
and nothing under ``perfbench/`` is changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark run, or None if it failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if proc.returncode == 0 and result.get("correct") else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """One line per metric: medians and quartiles per side, and the change's wins."""
    lines = [f"{len(pairs)} complete pairs; quartiles are statistics.quantiles(n=4)"]
    names = [m for m in pairs[0][1]["metrics"] if all(m in p["metrics"] for p, _ in pairs)]
    for name in names:
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if better.get(name.rsplit(".", 1)[-1], "lower") == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
        gain = 10 * wins >= 9 * len(pairs) and sign * (c2 - p2) > p3 - p1
        unit = pairs[0][1]["metrics"][name].get("unit", "")
        lines.append(f"{name} [{unit}]: parent {p2:.6g} [{p1:.6g}, {p3:.6g}]  "
                     f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
                     f"change better in {wins}/{len(pairs)}  gain: {'yes' if gain else 'no'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/run.py, or all")
    parser.add_argument("--seeds", type=seeds, required=True, help="421-430 or 1,5,9")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, help="JSON lines file that gets every result line")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs, failed = [], 0
    for i, seed in enumerate(args.seeds):
        order = [("parent", args.parent), ("change", args.change)]
        results = {}
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            results[side] = run(checkout, args.workload, seed, args.seconds)
            print(f"seed {seed} {side}: {'ok' if results[side] else 'FAILED'}", file=sys.stderr)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"side": side, "seed": seed,
                                         "result": results[side]}) + "\n")
        if results["parent"] and results["change"]:
            pairs.append((results["parent"], results["change"]))
        else:
            failed += 1
    if pairs:
        print("\n".join(summary(pairs, better)))
    if failed:
        print(f"{failed} pair(s) left out: a run failed", file=sys.stderr)
    return 1 if failed or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
