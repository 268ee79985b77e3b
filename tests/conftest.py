import math

import numpy as np
from hypothesis import strategies as st

from mixedgp.kernels import CategoricalKernelKind, categorical_param_count
from mixedgp.space import Categorical, Continuous, DesignSpace, Integer

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


@st.composite
def spaces(draw):
    """0-3 numeric variables and 0-2 categorical ones of 2-13 levels, in any order."""
    numeric = draw(st.lists(st.booleans(), max_size=3))
    variables = [Continuous(f"x{i}", -1.0, 2.0) if continuous else Integer(f"z{i}", 0, 5)
                 for i, continuous in enumerate(numeric)]
    for i in range(draw(st.integers(0 if numeric else 1, 2))):
        L = draw(st.integers(2, 13))
        variables.append(Categorical(f"c{i}", tuple(f"l{j}" for j in range(L))))
    return DesignSpace(tuple(draw(st.permutations(variables))))
