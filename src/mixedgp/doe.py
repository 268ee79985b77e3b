"""Design-of-experiments generators over mixed spaces.

Two designs are provided: Latin hypercube sampling and full-factorial
grids.  Randomness comes from ``numpy.random.Generator`` seeded with the
documented PCG64 bit generator, so designs are reproducible from the seed
alone.  Draw order is fixed: variables are visited in space order; each
continuous/integer variable consumes one permutation and one uniform block,
each categorical variable one permutation and one shuffle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeOverflow
from .space import Categorical, Continuous, DesignSpace, Integer, PointBatch, _count

__all__ = ["lhs", "grid", "GRID_SIZE_CAP", "GRID_BYTES_CAP"]

GRID_SIZE_CAP = 10_000_000
# Bytes of the returned (X, Z, C) arrays: 8 per coordinate, one per variable
# and point.  A wide space reaches it below GRID_SIZE_CAP points.
GRID_BYTES_CAP = 1 << 30


def lhs(space: DesignSpace, n_points: int, seed: int = 0) -> PointBatch:
    """Latin hypercube sample of ``n_points`` mixed points.

    Continuous and integer coordinates are stratified: each of the
    ``n_points`` equal-width bins of a dimension receives exactly one
    sample, jittered uniformly inside its bin (integers are rounded after
    unscaling).  Categorical coordinates cycle a random permutation of the
    levels and are then shuffled, so level counts differ by at most one.
    ``n_points`` must be a whole number, not a bool (TypeError otherwise), of
    at least 1.
    """
    if _count(n_points) < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    columns: list[np.ndarray] = []
    for var in space.variables:
        if isinstance(var, (Continuous, Integer)):
            bins = rng.permutation(n_points)
            unit = (bins + rng.random(n_points)) / n_points
            values = var.lower + unit * (var.upper - var.lower)
            if isinstance(var, Integer):
                values = np.clip(np.rint(values), var.lower, var.upper)
            columns.append(values)
        else:
            order = rng.permutation(var.n_levels) + 1
            reps = math.ceil(n_points / var.n_levels)
            levels = np.tile(order, reps)[:n_points]
            rng.shuffle(levels)
            columns.append(levels)
    return PointBatch.from_columns(space, columns)


def grid(space: DesignSpace, points_per_dim) -> PointBatch:
    """Full-factorial grid, row-major in variable order.

    ``points_per_dim`` lists one count per continuous/integer variable (in
    space order); categorical variables always contribute all their levels.
    Continuous axes are linspace(lower, upper, count); integer axes use the
    rounded linspace.  A count must be a whole number, not a bool (TypeError
    otherwise), of at least 1.  A grid of more than GRID_SIZE_CAP points, or
    whose coordinate arrays would take more than GRID_BYTES_CAP bytes,
    raises SizeOverflow before anything is allocated.
    """
    counts = [_count(c) for c in points_per_dim]
    n_numeric = space.n_continuous + space.n_integer
    if len(counts) != n_numeric:
        raise ValueError(
            f"expected {n_numeric} grid counts (one per continuous/integer "
            f"variable), got {len(counts)}"
        )
    if any(c < 1 for c in counts):
        raise ValueError("grid counts must be >= 1 per dimension")

    numeric_counts = iter(counts)
    sizes = [var.n_levels if isinstance(var, Categorical) else next(numeric_counts)
             for var in space.variables]
    total = math.prod(sizes)
    if total > GRID_SIZE_CAP:
        raise SizeOverflow(f"grid would hold {total} > {GRID_SIZE_CAP} points")
    n_bytes = 8 * total * len(sizes)
    if n_bytes > GRID_BYTES_CAP:
        raise SizeOverflow(f"grid coordinates would take {n_bytes} > {GRID_BYTES_CAP} bytes "
                           f"({total} points of {len(sizes)} variables)")
    axes: list[np.ndarray] = []
    for var, size in zip(space.variables, sizes):
        if isinstance(var, Categorical):
            values = np.arange(1, var.n_levels + 1)
        else:
            values = np.linspace(var.lower, var.upper, size)
            if isinstance(var, Integer):
                values = np.rint(values)
        axes.append(values)
    return PointBatch.from_columns(
        space, [axis.ravel() for axis in np.meshgrid(*axes, indexing="ij", copy=False)]
    )
