import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtrtrs

from mixedgp import gp
from mixedgp import kernels as kr
from mixedgp.doe import lhs
from mixedgp.kernels import CategoricalKernelKind, categorical_param_count
from mixedgp.space import Categorical, Continuous, Dataset, DesignSpace, Integer

K = CategoricalKernelKind

# Property tests draw the same examples on every run and on every checkout:
# a failure reproduces, and two commits are compared on one set of inputs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


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


# the types a numeric bound may be given in; a variable stores each bound in one canonical type
BOUND_TYPES = (int, float, np.int64, np.float64)


@st.composite
def spaces(draw):
    """0-3 numeric variables and 0-2 categorical ones of 2-13 levels, in any order.

    Each numeric variable gets its bounds in a type drawn from BOUND_TYPES.
    """
    numeric = draw(st.lists(st.tuples(st.booleans(), st.sampled_from(BOUND_TYPES)), max_size=3))
    variables = [Continuous(f"x{i}", box(-1), box(2)) if continuous
                 else Integer(f"z{i}", box(0), box(5))
                 for i, (continuous, box) in enumerate(numeric)]
    for i in range(draw(st.integers(0 if numeric else 1, 2))):
        L = draw(st.integers(2, 13))
        variables.append(Categorical(f"c{i}", tuple(f"l{j}" for j in range(L))))
    return DesignSpace(tuple(draw(st.permutations(variables))))


# A predicted variance is held to the one-shot triangular-solve formula within
# this many sigma2_hat: the default jitter, below which the model does not
# resolve the variance.
VARIANCE_TOL = gp.JITTER_DEFAULT


def one_shot_predict(model, batch):
    """The whole-batch formula: one (n_new, n_train, d) difference array, one triangular solve."""
    theta = model.theta_star
    X, Z, C = batch.normalized()
    X_train, Z_train, C_train = model.dataset.points.normalized()
    diffs = np.abs(np.hstack([X, Z])[:, None, :] - np.hstack([X_train, Z_train])) ** model.p
    k = np.exp(-(diffs @ theta.rates))
    for i, L in enumerate(model.dataset.space.level_counts):
        Ri = kr.categorical_matrix(model.kind, L, theta.variable(i))
        k *= Ri[np.ix_(C[:, i] - 1, C_train[:, i] - 1)]
    means = model.y_mean + model.y_scale * (model.mu_std + k @ model._alpha)
    v = dtrtrs(model.chol, k.T, lower=1)[0]
    quad = np.sum(v * v, axis=0)
    shortfall = 1.0 - k @ model._r_inv_ones
    var_std = model.sigma2_std * (1.0 - quad + shortfall ** 2 / float(model._r_inv_ones.sum()))
    return means, model.y_scale ** 2 * np.maximum(var_std, 0.0)


def model_on(space, kind, p, n_train, seed=0):
    """A model at fixed, well-conditioned hyperparameters (no optimization)."""
    lower, upper, log_mask = kr.search_bounds(space, kind)
    rng = np.random.default_rng(seed)
    v = np.where(log_mask, rng.uniform(-1.0, 2.0, lower.size),
                 lower + rng.uniform(0.2, 0.8, lower.size) * (upper - lower))
    train = lhs(space, n_train, seed)
    y = np.sin(3.0 * np.arange(n_train)) + 0.1 * np.arange(n_train)
    return gp.build_model(Dataset(space, train, y), kr.set_from_search_vector(space, kind, v), p)


def categorical_only_space():
    return DesignSpace(tuple(Categorical(name, tuple(str(k) for k in range(L)))
                             for name, L in (("a", 9), ("b", 8), ("c", 8))))
