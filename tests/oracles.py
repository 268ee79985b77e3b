"""Per-point reference functions the tests compare the package against.

No production path needs them: the package works on whole ``PointBatch``
arrays (``PointBatch.normalized()`` maps a batch onto [0, 1]).  They
restate, one point at a time, what the vectorised code computes.
"""

import numpy as np

from mixedgp.errors import DimensionMismatch
from mixedgp.space import DesignSpace, MixedPoint, validate_point


def one_hot_encode(space: DesignSpace, point: MixedPoint) -> np.ndarray:
    """One-hot encoding of the categorical part, concatenated per variable.

    Returns a vector of length ``space.relaxed_dim`` with exactly one 1 per
    categorical variable, at the position of its level index.
    """
    validate_point(space, point)
    out = np.zeros(space.relaxed_dim)
    offset = 0
    for spec, level in zip(space.categorical, point.categorical):
        out[offset + level - 1] = 1.0
        offset += spec.n_levels
    return out


def decode_one_hot(space: DesignSpace, encoded: np.ndarray) -> tuple[int, ...]:
    """Recover 1-based level indices from a one-hot block layout (argmax per block)."""
    encoded = np.asarray(encoded, dtype=float)
    if encoded.shape != (space.relaxed_dim,):
        raise DimensionMismatch(
            f"encoded length {encoded.shape} does not match relaxed dim {space.relaxed_dim}"
        )
    levels = []
    offset = 0
    for spec in space.categorical:
        block = encoded[offset:offset + spec.n_levels]
        levels.append(int(np.argmax(block)) + 1)
        offset += spec.n_levels
    return tuple(levels)


def normalize(space: DesignSpace, point: MixedPoint) -> MixedPoint:
    """Map continuous and integer coordinates affinely onto [0, 1].

    Categorical coordinates are unchanged.  Already-normalized unit-range
    variables map to themselves.
    """
    validate_point(space, point)
    cont = tuple(
        (x - v.lower) / (v.upper - v.lower)
        for v, x in zip(space.continuous, point.continuous)
    )
    intg = tuple(
        (z - v.lower) / (v.upper - v.lower)
        for v, z in zip(space.integer, point.integer)
    )
    return MixedPoint(cont, intg, point.categorical)
