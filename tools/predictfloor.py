"""Time prediction layer by layer against its floor, the variance's triangular multiply.

    OPENBLAS_NUM_THREADS=1 python tools/predictfloor.py [--repeats 30]

It fits the model of the ``predict-beam`` benchmark workload (the beam
space, an LHS design of n = 98 points with seed 1, CR with p = 2 and
``max_evals=200``) and builds the 40 x 40 beam grid (19,200 points).  It
then prints the median time, over ``--repeats`` runs, of three things on
that grid:

- ``predict``: one ``gp.predict`` call;
- ``cross``: iterating ``gp._cross_correlations`` over the grid, the
  cross-correlation blocks ``K`` that ``predict`` consumes;
- ``dtrmm``: the triangular multiply ``L^-1 K^T`` alone, one call per
  chunk on the same blocks ``K``, built beforehand; this is prediction's
  floor, the part of the variance that no rewrite of the Python layers
  removes.

and the ratio of ``predict`` to ``dtrmm``.  The times depend on the BLAS
thread count, so compare runs made with one setting.  The script imports
the package from the ``src/`` next to it and uses only the standard
library besides; it measures and gates nothing, and exits 0 once it
printed.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixedgp import benchmarks as bm  # noqa: E402
from mixedgp import gp  # noqa: E402
from mixedgp.doe import grid, lhs  # noqa: E402
from mixedgp.kernels import CategoricalKernelKind as K  # noqa: E402
from mixedgp.space import Dataset  # noqa: E402

SEED, N_POINTS, MAX_EVALS, GRID = 1, 98, 200, (40, 40)


def median_ms(call, repeats: int) -> float:
    """Median wall time of ``call()`` over ``repeats`` runs, after one warm-up run, in ms."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30, help="timed runs per layer (30)")
    args = parser.parse_args(argv)
    space = bm.beam_space()
    points = lhs(space, N_POINTS, SEED)
    targets = bm.cantilever_deflection(bm.CantileverConfig(), points.C[:, 0], points.X[:, 0],
                                       points.X[:, 1])
    model = gp.fit(Dataset(space, points, targets), K.CR, 2,
                   gp.FitConfig(seed=SEED, max_evals=MAX_EVALS))
    batch = grid(space, GRID)
    blocks = [block for _, block in gp._cross_correlations(model, batch)]

    def cross():
        for _ in gp._cross_correlations(model, batch):
            pass

    def floor():
        for block in blocks:
            gp.dtrmm(1.0, model._chol_inv, block.T, lower=1)

    times = {"predict": median_ms(lambda: gp.predict(model, batch), args.repeats),
             "cross": median_ms(cross, args.repeats),
             "dtrmm": median_ms(floor, args.repeats)}
    print(f"predict-beam model (beam LHS seed {SEED}, n = {N_POINTS}, CR, p = 2, "
          f"max_evals = {MAX_EVALS}) on the {GRID[0]}x{GRID[1]} beam grid: {len(batch)} points "
          f"in {len(blocks)} chunks; median of {args.repeats} runs")
    for name, ms in times.items():
        print(f"{name:>8}: {ms:8.3f} ms  ({100 * ms / times['predict']:5.1f}% of predict)")
    print(f"predict / dtrmm: {times['predict'] / times['dtrmm']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
