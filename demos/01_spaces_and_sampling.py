"""Mixed design spaces, point batches, normalization and DoE generation.

Builds a small continuous/integer/categorical space, shows a checked point
batch and its normalized arrays, draws a Latin hypercube design, and writes
the space/points files used by the command-line tools.
"""

import tempfile
from pathlib import Path

import numpy as np

from mixedgp import (
    Categorical,
    Continuous,
    DesignSpace,
    Integer,
    MixedPoint,
    PointBatch,
    grid,
    lhs,
    load_space,
    save_points,
    save_space,
)

space = DesignSpace((
    Continuous("temperature", 300.0, 400.0),
    Integer("n_layers", 1, 6),
    Categorical("material", ("steel", "aluminium", "titanium")),
))
print("space:", [v.name for v in space.variables])
print("counts:", space.n_continuous, "continuous,", space.n_integer,
      "integer,", space.n_categorical, "categorical")
print("relaxed one-hot dimension:", space.relaxed_dim)

# points carry 1-based level indices for the categorical part; a batch is
# checked once and holds them as (X, Z, C) arrays split by variable kind
points = PointBatch.of(space, [MixedPoint((350.0,), (4,), (2,)),
                               MixedPoint((300.0,), (6,), (3,))])
X, Z, C = points.normalized()
print("\nnormalized batch: X", X.tolist(), "Z", Z.tolist(), "levels", C.tolist())
print("first row:", points[0])

# Latin hypercube: every temperature bin gets one sample, materials stay
# balanced (counts differ by at most one)
design = lhs(space, n_points=12, seed=7)
levels = [p.categorical[0] for p in design]
print("\nLHS of 12 points; material level counts:",
      np.bincount(levels, minlength=4)[1:].tolist())

# full-factorial validation grid: counts for the numeric axes, all levels
full = grid(space, points_per_dim=(5, 6))
print("grid size 5 x 6 x 3 =", len(full))

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    space_file = workdir / "demo.space"
    save_space(space, space_file)
    save_points(space, design, workdir / "design.csv")
    print("\nwrote", space_file, "and", workdir / "design.csv")
    print("reloaded space equals original:", load_space(space_file) == space)
