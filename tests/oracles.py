"""Per-point reference functions the tests compare the package against.

No production path needs them: the package works on whole ``PointBatch``
arrays (``PointBatch.normalized()`` maps a batch onto [0, 1]) and whole
level correlation matrices (``categorical_matrix``).  They restate, one
point at a time, what the vectorised code computes.

The kernel functions share no categorical code with the package:
:func:`phi_transform` unpacks Theta_i, builds the hypersphere rows and
fills Phi in plain Python loops from the paper's definitions, so a slip in
the package's vectorised Phi shows as a disagreement here.
:func:`dense_level_matrix` builds the whole Phi of every kind with numpy,
in the package's floating-point steps, so the level matrices of kinds
whose Phi the package leaves implicit can be compared bit for bit.  From the
kernel module they take only the kernel's constant ``EPSILON``, the kind
names, the hyperparameter vector and the parameter count.

:func:`_read_csv` is the package's CSV reader as it was before columns
were parsed through a table of their distinct cells: it calls a parser on
every cell and returns lists.

:func:`correlation_from_factors` and :func:`profiled_likelihood` are the
correlation assembly and the likelihood scorer as they were before R was
built straight into the buffer it is factored in: R is a fresh C-order
product with an exact unit diagonal, each Cholesky attempt factors a
Fortran-order copy of it plus the jitter, and two triangular solves give
the profiled formula.  The level matrices come in as arguments.
"""

import csv
import math

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from mixedgp import EPSILON, CategoricalKernelKind, HyperparameterSet, categorical_param_count
from mixedgp.errors import DimensionMismatch, ParseError, ShapeMismatch
from mixedgp.space import Categorical, DesignSpace, MixedPoint, validate_point

K = CategoricalKernelKind


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


# ---------------------------------------------------------------------------
# the mixed kernel, one pair of points at a time
# ---------------------------------------------------------------------------

def continuous_kernel(x_r, x_s, theta, p: int = 2) -> float:
    """Anisotropic exponential kernel prod_j exp(-theta_j |x_r,j - x_s,j|^p)."""
    p = int(p)
    if p not in (1, 2):
        raise ValueError(f"exponent p must be 1 or 2, got {p}")
    x_r = np.asarray(x_r, dtype=float).reshape(-1)
    x_s = np.asarray(x_s, dtype=float).reshape(-1)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if not (x_r.size == x_s.size == theta.size):
        raise DimensionMismatch(
            f"lengths differ: x_r {x_r.size}, x_s {x_s.size}, theta {theta.size}"
        )
    if np.any(theta < 0):
        raise ValueError("theta entries must be non-negative")
    return float(np.exp(-np.sum(theta * np.abs(x_r - x_s) ** p)))


def integer_kernel(z_r, z_s, theta, p: int = 2) -> float:
    """Exponential kernel on continuously relaxed integer coordinates."""
    return continuous_kernel(z_r, z_s, theta, p)


def hamming_score(level_r: int, level_s: int) -> int:
    """0 if the two levels coincide, 1 otherwise."""
    return 0 if int(level_r) == int(level_s) else 1


def _theta_matrix(kind: CategoricalKernelKind, L: int, values) -> list[list[float]]:
    """Theta_i as L lists, its lower triangle unpacked row-major from the kind's packed values."""
    values = [float(v) for v in np.asarray(values, dtype=float).reshape(-1)]
    if len(values) != categorical_param_count(kind, L):
        raise ShapeMismatch(f"{kind.value} with {L} levels expects "
                            f"{categorical_param_count(kind, L)} values, got {len(values)}")
    keeps_diagonal = kind in (K.CR, K.FE)
    keeps_angles = kind in (K.EHH, K.FE, K.HH)
    theta = [[0.0] * L for _ in range(L)]
    packed = iter(values)
    for k in range(L):
        for j in range(k + 1):
            if kind is K.GD and j == k:
                theta[k][k] = values[0] / 2.0
            elif (j == k and keeps_diagonal) or (j < k and keeps_angles):
                theta[k][j] = next(packed)
    return theta


def phi_transform(kind: CategoricalKernelKind, n_levels: int, values) -> np.ndarray:
    """The (L, L) matrix Phi(Theta_i) of ``kind`` from packed values.

    Theta_i is packed row-major over its lower triangle, each kind keeping
    some of its entries: GD one theta with Theta_jj = theta/2, CR the
    diagonal, EHH and HH the angles (the strict lower triangle), FE both.
    Row k of the hypersphere factor C holds the spherical coordinates
    (cos a_k1, sin a_k1 cos a_k2, ..., prod_j sin a_kj) of the angles a_k
    of row k, and G = C C^T.  Phi then follows the kind table of the
    ``mixedgp.kernels`` docstring.
    """
    L = int(n_levels)
    theta = _theta_matrix(kind, L, values)
    C = [[0.0] * L for _ in range(L)]
    for k in range(L):
        sines = 1.0
        for j in range(k):
            C[k][j] = math.cos(theta[k][j]) * sines
            sines *= math.sin(theta[k][j])
        C[k][k] = sines
    G = [[sum(C[r][m] * C[s][m] for m in range(L)) for s in range(L)] for r in range(L)]
    phi = np.zeros((L, L))
    for r in range(L):
        for s in range(L):
            if kind is K.HH:
                phi[r, s] = 1.0 if r == s else G[r][s] / 2.0
            elif r == s:
                phi[r, s] = theta[r][r]
            elif kind in (K.EHH, K.FE):
                phi[r, s] = math.log(EPSILON) / 2.0 * (G[r][s] - 1.0)
    return phi


def dense_level_matrix(kind: CategoricalKernelKind, n_levels: int, values) -> np.ndarray:
    """R_i(Theta_i) through the whole (L, L) Phi of the paper, for every kind.

    Where :func:`phi_transform` restates the paper in plain Python,
    this takes each floating-point step the package takes, so the two
    agree bit for bit: the angles' sines and cosines come from np.sin and
    np.cos of the whole angle matrix, G = C @ C.T, and kappa(2 Phi_rs)
    kappa(Phi_rr) kappa(Phi_ss) is exp(-((2 Phi_rs + Phi_rr) + Phi_ss)),
    one exponential of the sum, for the exponential kinds and the product
    in that order for HH.  Phi is built dense also where it is diagonal
    (GD, CR), so it checks that skipping Phi keeps every bit.
    """
    L = int(n_levels)
    theta = np.array(_theta_matrix(kind, L, values))
    angles = np.tril(theta, -1)
    cosines, sines = np.cos(angles), np.sin(angles)
    C = np.zeros((L, L))
    for k in range(L):
        prefix = 1.0
        for j in range(k):
            C[k, j] = cosines[k, j] * prefix
            prefix *= sines[k, j]
        C[k, k] = prefix
    G = C @ C.T
    if kind is K.HH:
        phi = G / 2.0
    elif kind in (K.EHH, K.FE):
        phi = math.log(EPSILON) / 2.0 * (G - 1.0)
    else:
        phi = np.zeros((L, L))
    np.fill_diagonal(phi, 1.0 if kind is K.HH else np.diag(theta))
    d = np.diag(phi)
    if kind is K.HH:
        R = 2.0 * phi * d[:, None] * d[None, :]
    else:
        R = np.exp(-(2.0 * phi + d[:, None] + d[None, :]))
    np.fill_diagonal(R, 1.0)
    return R


def level_correlation(
    kind: CategoricalKernelKind,
    phi: np.ndarray,
    level_r: int,
    level_s: int,
) -> float:
    """Correlation between two levels given Phi(Theta_i).

    Equal levels correlate 1; otherwise the level-wise form
    kappa(2 Phi_rs) kappa(Phi_rr) kappa(Phi_ss) applies, where kappa is the
    identity for HH and exp(-.) for the other kinds.
    """
    r, s = int(level_r) - 1, int(level_s) - 1
    if r == s:
        return 1.0
    kappa = (lambda v: v) if kind is K.HH else (lambda v: math.exp(-v))
    return float(kappa(2.0 * phi[r, s]) * kappa(phi[r, r]) * kappa(phi[s, s]))


def mixed_kernel(
    w_r: MixedPoint,
    w_s: MixedPoint,
    theta: HyperparameterSet,
    p: int = 2,
) -> float:
    """Product kernel over the continuous, integer and categorical parts.

    Coordinates are used exactly as stored in the points; normalize them
    first (:func:`normalize`) to compare with the package's correlations.
    """
    if (
        len(w_r.continuous) != len(w_s.continuous)
        or len(w_r.integer) != len(w_s.integer)
        or len(w_r.categorical) != len(w_s.categorical)
    ):
        raise DimensionMismatch("points have different coordinate layouts")
    n_cont, (n_rates, level_counts) = len(w_r.continuous), theta.layout
    if n_cont + len(w_r.integer) != n_rates or len(w_r.categorical) != len(level_counts):
        raise DimensionMismatch(
            f"points with {n_cont + len(w_r.integer)} numeric and {len(w_r.categorical)} "
            f"categorical coordinates do not fit hyperparameter layout {theta.layout}"
        )
    value = 1.0
    if w_r.continuous:
        value *= continuous_kernel(w_r.continuous, w_s.continuous, theta.rates[:n_cont], p)
    if w_r.integer:
        value *= integer_kernel(w_r.integer, w_s.integer, theta.rates[n_cont:], p)
    for i, (L, lr, ls) in enumerate(zip(level_counts, w_r.categorical, w_s.categorical)):
        if lr != ls:
            phi = phi_transform(theta.kind, L, theta.variable(i))
            value *= level_correlation(theta.kind, phi, lr, ls)
    return float(value)


# ---------------------------------------------------------------------------
# the CSV reader, one cell at a time
# ---------------------------------------------------------------------------

def _read_csv(space: DesignSpace, path, expect_target: bool | None):
    """Values per variable (space order) and targets or None, parsed column by column.

    A defect raises ParseError naming the first bad row and cell in file order.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file, header row required")
    header = [h.strip() for h in rows[0]]
    names = list(space.names())
    has_target = header == names + ["target"]
    if not has_target and header != names:
        raise ParseError(
            f"{path}: header {header!r} does not match space variables {names!r}"
        )
    if expect_target is True and not has_target:
        raise ParseError(f"{path}: expected a final 'target' column")
    parsers = [{name: i for i, name in enumerate(v.levels, start=1)}.__getitem__
               if isinstance(v, Categorical) else float for v in space.variables]
    parsers += [float] if has_target else []
    body = [(lineno, row) for lineno, row in enumerate(rows[1:], start=2) if row]
    try:
        if any(len(row) != len(parsers) for _, row in body):
            raise ValueError
        cells = list(zip(*(row for _, row in body))) or [()] * len(parsers)
        columns = [list(map(parse, column)) for parse, column in zip(parsers, cells)]
    except (KeyError, ValueError):
        _raise_first_defect(path, body, names, parsers)
    return columns[:len(names)], (columns[-1] if has_target else None)


def _raise_first_defect(path, body, names, parsers) -> None:
    for lineno, row in body:
        if len(row) != len(parsers):
            raise ParseError(f"{path}:{lineno}: expected {len(parsers)} cells, got {len(row)}")
        for j, (parse, cell) in enumerate(zip(parsers, row)):
            try:
                parse(cell)
            except (KeyError, ValueError) as exc:
                what = (f"target {cell!r}" if j == len(names)
                        else f"cell {cell!r} for variable {names[j]}")
                raise ParseError(f"{path}:{lineno}: bad {what}") from exc


# ---------------------------------------------------------------------------
# the likelihood scorer, on a fresh copy of R
# ---------------------------------------------------------------------------

JITTER_DEFAULT = 1e-10
JITTER_MAX = 1e-4


def correlation_from_factors(numeric, levels, p: int, rates, level_matrices) -> np.ndarray:
    """R, no jitter: exp(-theta . D) o R_1[c_r, c_s] o ... with an exact unit diagonal.

    ``numeric`` holds the normalized continuous and integer coordinates
    (n, d), ``levels`` the 0-based levels (n, k), and ``level_matrices``
    one L x L level correlation matrix per categorical variable.
    """
    diffs = np.abs(numeric[:, None, :] - numeric[None, :, :]) ** p
    pair_powers = np.ascontiguousarray(np.moveaxis(diffs, 2, 0))
    factors = [np.exp(-np.tensordot(rates, pair_powers, axes=1))]
    for idx, level_matrix in zip(levels.T, level_matrices):
        L = level_matrix.shape[0]
        factors.append(level_matrix.take((idx[:, None] * L + idx[None, :]).astype(np.intp)))
    return _product(factors)


def _product(factors) -> np.ndarray:
    """((E o G_1) o G_2) ... with an exact unit diagonal: R, no jitter."""
    E, *G = factors
    R = E * G[0] if G else E.copy()
    for Gi in G[1:]:
        R *= Gi
    R.flat[::R.shape[0] + 1] = 1.0
    return R


def cholesky_with_escalation(R: np.ndarray, jitter: float) -> tuple[np.ndarray, float]:
    """Cholesky factor of R + j*I in the lower triangle, escalating j by 10 up to JITTER_MAX.

    The upper triangle keeps R's entries.  Each attempt factors a fresh
    F-order copy of R; raises LinAlgError when even JITTER_MAX fails.
    """
    j = float(jitter)
    while True:
        work = np.array(R, dtype=float, order="F")
        work.reshape(-1, order="F")[::work.shape[0] + 1] += j  # a view: work is F-contiguous
        chol, info = dpotrf(work, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return chol, j
        if j >= JITTER_MAX:
            raise np.linalg.LinAlgError(f"Cholesky failed even with jitter {j:g}")
        j = min(j * 10.0, JITTER_MAX) if j > 0 else JITTER_DEFAULT


def profiled_likelihood(R: np.ndarray, y: np.ndarray, jitter: float):
    """(log-likelihood, mu, sigma2, chol, jitter used, L^-1 1) of targets ``y`` under R."""
    var_y = float(np.var(y))
    sigma2_floor = 1e-12 * var_y if var_y > 0 else 1e-12
    chol, jitter_used = cholesky_with_escalation(R, jitter)
    n = len(y)
    a = dtrtrs(chol, y, lower=1)[0]
    b = dtrtrs(chol, np.ones(n), lower=1)[0]
    mu = float((b @ a) / (b @ b))
    resid = a - mu * b
    sigma2 = max(float(resid @ resid) / n, sigma2_floor)
    log_det = 2.0 * float(np.log(chol.diagonal()).sum())
    ll = -0.5 * n * math.log(sigma2) - 0.5 * log_det - 0.5 * n * (1.0 + math.log(2.0 * math.pi))
    return ll, mu, sigma2, chol, jitter_used, b
