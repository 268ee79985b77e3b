import math

import numpy as np

from mixedgp.kernels import CategoricalKernelKind, categorical_param_count

K = CategoricalKernelKind


def random_hyper(kind, L, rng):
    """Packed values of one admissible categorical variable, drawn inside the search bounds."""
    count = categorical_param_count(kind, L)
    if kind is K.GD:
        values = rng.uniform(0.0, 10.0, 1)
    elif kind is K.CR:
        values = rng.uniform(0.0, 10.0, L)
    elif kind is K.HH:
        values = rng.uniform(0.0, math.pi, count)
    elif kind is K.EHH:
        values = rng.uniform(0.0, math.pi / 2.0, count)
    else:  # FE: diagonal thetas plus angles
        values = np.zeros(count)
        pos = 0
        for row in range(L):
            values[pos:pos + row] = rng.uniform(0.0, math.pi / 2.0, row)
            values[pos + row] = rng.uniform(0.0, 10.0)
            pos += row + 1
    return values
