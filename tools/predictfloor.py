"""Time prediction layer by layer against its floor, the variance's triangular multiply.

    OPENBLAS_NUM_THREADS=1 python tools/predictfloor.py [--repeats 30]

It fits the model of the ``predict-beam`` benchmark workload (the beam
space, an LHS design of n = 98 points with seed 1, CR with p = 2 and
``max_evals=200``) and builds the 40 x 40 beam grid (19,200 points).  It
then prints the median time, over ``--repeats`` runs, of these things on
that grid:

- ``grid``: building the grid, ``doe.grid(beam_space(), (40, 40))``;
- ``predict``: one ``gp.predict`` call;
- ``cross``: iterating ``gp._cross_correlations`` over the grid, the
  cross-correlation blocks ``K`` that ``predict`` consumes;
- ``copy``: a Fortran-order copy of each block's ``K^T``, what ``dtrmm``
  makes of its right-hand side when it may not overwrite it;
  ``predict`` lets it overwrite the block, so it pays no copy;
- ``dtrmm``: the triangular multiply ``L^-1 K^T`` alone, one call per
  chunk, in place as in ``predict``, on a fresh copy of each block ``K``
  made outside the timed region; this is prediction's floor, the part of
  the variance that no rewrite of the Python layers removes;
- ``sqsum``: the variance's square-sum, ``|L^-1 k|^2`` per column, on
  each chunk's ``dtrmm`` result while it is fresh, as in ``predict``:
  the time of ``dtrmm`` then the square-sum, chunk by chunk, on fresh
  copies made outside the timed region, less the time of ``dtrmm`` alone;
- ``short``: the variance's shortfall line, ``(1 - K R^-1 1)^2 / 1'R^-1 1``
  added into the chunk's variances, one call per chunk;

and the ratio of ``predict`` to ``dtrmm``.  ``grid`` plus ``predict`` is
the timed iteration of the ``predict-beam`` workload; the percentages are
of that iteration.  The square-sum and shortfall lines are the ones
``predict`` runs, and ``cross``, ``dtrmm``, ``sqsum`` and ``short`` add up
to most of ``predict``; ``copy`` is not part of it.  The times depend on
the BLAS thread count, so compare runs made with one setting.  The script
imports the package from the ``src/`` next to it and uses only numpy and
the standard library besides; it measures and gates nothing, and exits 0
once it printed.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixedgp import benchmarks as bm  # noqa: E402
from mixedgp import gp  # noqa: E402
from mixedgp.doe import grid, lhs  # noqa: E402
from mixedgp.kernels import CategoricalKernelKind as K  # noqa: E402
from mixedgp.space import Dataset  # noqa: E402

SEED, N_POINTS, MAX_EVALS, GRID = 1, 98, 200, (40, 40)


def median_ms(call, repeats: int, setup=lambda: None) -> float:
    """Median wall time of ``call(setup())`` over ``repeats`` runs, after one warm-up run, in ms.

    ``setup`` runs before each run, outside the timed region.
    """
    times = []
    for _ in range(repeats + 1):
        arg = setup()
        start = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times[1:])


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
    variances = np.empty(len(batch))
    blocks, parts = zip(*((block, variances[rows])
                          for rows, block in gp._cross_correlations(model, batch)))
    ones_r_ones = float(model._r_inv_ones.sum())

    def cross(_):
        for _ in gp._cross_correlations(model, batch):
            pass

    def copies():
        return [np.array(block.T, order="F") for block in blocks]

    def copy(_):  # each copy is dropped before the next, as in a dtrmm that copies
        for block in blocks:
            np.array(block.T, order="F")

    def floor(operands):
        for b in operands:
            gp.dtrmm(1.0, model._chol_inv, b, lower=1, overwrite_b=1)

    def floor_and_square_sums(operands):
        for b, variance in zip(operands, parts):
            v = gp.dtrmm(1.0, model._chol_inv, b, lower=1, overwrite_b=1)
            np.add.reduce(np.square(v, out=v), axis=0, out=variance)

    def shortfalls(_):
        for K, variance in zip(blocks, parts):
            shortfall = K @ model._r_inv_ones
            np.subtract(1.0, shortfall, out=shortfall)
            np.square(shortfall, out=shortfall)
            shortfall /= ones_r_ones
            variance += shortfall

    times = {"grid": median_ms(lambda _: grid(space, GRID), args.repeats),
             "predict": median_ms(lambda _: gp.predict(model, batch), args.repeats),
             "cross": median_ms(cross, args.repeats),
             "copy": median_ms(copy, args.repeats),
             "dtrmm": median_ms(floor, args.repeats, copies),
             "sqsum": median_ms(floor_and_square_sums, args.repeats, copies),
             "short": median_ms(shortfalls, args.repeats)}
    times["sqsum"] -= times["dtrmm"]
    iteration = times["grid"] + times["predict"]
    print(f"predict-beam model (beam LHS seed {SEED}, n = {N_POINTS}, CR, p = 2, "
          f"max_evals = {MAX_EVALS}) on the {GRID[0]}x{GRID[1]} beam grid: {len(batch)} points "
          f"in {len(blocks)} chunks; median of {args.repeats} runs")
    for name, ms in times.items():
        print(f"{name:>8}: {ms:8.3f} ms  ({100 * ms / iteration:5.1f}% of grid + predict)")
    print(f"grid + predict: {iteration:.3f} ms, the timed predict-beam iteration")
    print(f"predict / dtrmm: {times['predict'] / times['dtrmm']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
