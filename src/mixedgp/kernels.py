"""Correlation kernels for mixed continuous/integer/categorical inputs.

Continuous and integer coordinates use the anisotropic exponential kernel

    k(x, x') = prod_j exp(-theta_j |x_j - x'_j|^p),    p in {1, 2}.

Categorical variables are handled level-wise: each variable with L levels
owns an L x L correlation matrix built from a hyperparameter matrix through
a transform ``Phi`` and a scalar map ``kappa``:

    [R]_{rr} = 1
    [R]_{rs} = kappa(2 Phi_rs) * kappa(Phi_rr) * kappa(Phi_ss)   (r != s)

The five named parameterizations differ only in ``kappa``, in how ``Phi``
is built from the packed hyperparameters and in which of those are searched
in log space.  :data:`KINDS` holds all of it, one :class:`KindRule` per
kind; in short:

=======  =============  ============================  ====================
 kind     kappa(phi)     Phi diagonal / off-diagonal   parameters per var
=======  =============  ============================  ====================
 GD       exp(-phi)      theta/2            / 0        1
 CR       exp(-phi)      theta_jj           / 0        L
 EHH      exp(-phi)      0  / (log eps)/2 (G_jk - 1)   L (L-1) / 2
 FE       exp(-phi)      theta_jj / as EHH             L (L+1) / 2
 HH       identity       1  / G_jk / 2                 L (L-1) / 2
=======  =============  ============================  ====================

where ``G = C C^T`` and ``C`` is the lower-triangular hypersphere
decomposition built from the angle entries of the hyperparameter matrix.
GD, CR, EHH and FE produce symmetric positive definite matrices with unit
diagonal and entries in [0, 1]; EHH entries are additionally bounded below
by ``eps``.  HH correlations may be negative.

The exponent ``p`` never reaches the categorical part, so categorical
correlation matrices are identical for p = 1 and p = 2.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotRepresentable, ShapeMismatch
from .space import DesignSpace, MixedPoint

__all__ = [
    "EPSILON",
    "THETA_LOG_BOUNDS",
    "CategoricalKernelKind",
    "KindRule",
    "KINDS",
    "check_exponent",
    "SymmetricHyperMatrix",
    "HyperparameterSet",
    "continuous_kernel",
    "integer_kernel",
    "hamming_score",
    "hypersphere_lower_triangular",
    "phi_transform",
    "level_correlation",
    "categorical_matrix",
    "level_matrix",
    "mixed_kernel",
    "categorical_param_count",
    "hyperparameter_count",
    "gram_to_angles",
    "recover_angles_from_correlation",
    "embed_hyper_matrix",
    "search_bounds",
    "natural_from_search",
    "set_from_search_vector",
    "search_vector_from_set",
]

# Correlation floor of the exponential hypersphere map; exp(-20) ~ 2.06e-9.
EPSILON = float(np.exp(-20.0))

# Default search box for exponential-scale hyperparameters, in log space.
# log theta in [-20, 3] keeps correlations over a unit normalized distance
# roughly inside [2.06e-9, 0.999999]; the upper bound is a tuning knob.
THETA_LOG_BOUNDS = (-20.0, 3.0)


class CategoricalKernelKind(enum.Enum):
    """The five categorical kernel parameterizations."""

    GD = "gd"
    CR = "cr"
    EHH = "ehh"
    FE = "fe"
    HH = "hh"

    @classmethod
    def parse(cls, name: str) -> "CategoricalKernelKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown kernel kind {name!r} (expected one of {valid})")


def check_exponent(p: int) -> int:
    """Validate the exponential kernel exponent (1 absolute, 2 squared)."""
    p = int(p)
    if p not in (1, 2):
        raise ValueError(f"exponent p must be 1 or 2, got {p}")
    return p


# ---------------------------------------------------------------------------
# the kind table
# ---------------------------------------------------------------------------

def _exp_kappa(a, b, c):
    """kappa = exp(-.): kappa(a) kappa(b) kappa(c) evaluated as exp(-(a + b + c))."""
    return np.exp(-(a + b + c))


def _identity_kappa(a, b, c):
    """kappa = identity: kappa(a) kappa(b) kappa(c) = a b c."""
    return a * b * c


def _diagonal_phi(gram, diagonal, epsilon):
    """GD/CR: Theta's diagonal, zero off the diagonal."""
    return np.diag(diagonal)


def _exponential_sphere_phi(gram, diagonal, epsilon):
    """EHH/FE: (log eps)/2 (G - 1) off the diagonal, Theta's diagonal on it."""
    phi = 0.5 * math.log(epsilon) * (gram - 1.0)
    np.fill_diagonal(phi, diagonal)
    return phi


def _sphere_phi(gram, diagonal, epsilon):
    """HH: G/2 off the diagonal and 1 on it, so the diagonal kappa factors are 1."""
    phi = 0.5 * gram
    np.fill_diagonal(phi, 1.0)
    return phi


def _ehh_angles(R, epsilon):
    """EHH angles reproducing R once its entries are clipped into (eps, 1]."""
    R = np.clip(R, epsilon * (1.0 + 1e-9), 1.0)
    np.fill_diagonal(R, 1.0)
    return recover_angles_from_correlation(R, epsilon).values


def _hh_angles(R, epsilon):
    """HH angles whose Gram matrix is R itself."""
    return gram_to_angles(R)


@dataclass(frozen=True)
class KindRule:
    """Everything the package knows about one categorical kernel kind.

    ``kappa(a, b, c)`` is kappa(a) kappa(b) kappa(c).  ``diagonal`` says how
    Theta's diagonal is packed: "shared" (one theta, Theta_jj = theta/2),
    "per-level" (one theta_jj per level) or "zero"; packed diagonal values
    are searched in log space.  The angles, Theta's strict lower triangle,
    are searched in [0, angle_upper]; 0 means the kind has none.  ``phi``
    builds Phi from the hypersphere Gram matrix (None without angles),
    Theta's diagonal and epsilon.  ``angles_from_correlation`` gives packed
    angles reproducing a level correlation matrix; kinds without it take a
    warm start's diagonal instead.  ``nesting_rank`` orders warm starts.
    """

    kappa: Callable
    diagonal: str
    angle_upper: float
    phi: Callable
    nesting_rank: int
    angles_from_correlation: Callable | None = None


_K = CategoricalKernelKind

KINDS: dict[CategoricalKernelKind, KindRule] = {
    _K.GD: KindRule(_exp_kappa, "shared", 0.0, _diagonal_phi, 0),
    _K.CR: KindRule(_exp_kappa, "per-level", 0.0, _diagonal_phi, 1),
    _K.EHH: KindRule(_exp_kappa, "zero", math.pi / 2.0, _exponential_sphere_phi, 2, _ehh_angles),
    _K.FE: KindRule(_exp_kappa, "per-level", math.pi / 2.0, _exponential_sphere_phi, 2),
    _K.HH: KindRule(_identity_kappa, "zero", math.pi, _sphere_phi, 3, _hh_angles),
}


@functools.lru_cache(maxsize=None)
def _tril_indices(L: int, with_diag: bool) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(L, 0 if with_diag else -1)


class _Packing(NamedTuple):
    """Where a kind keeps Theta in its packed values (row-major lower triangle).

    Theta_jj is ``scale * values[diagonal[j]]`` (0 when ``diagonal`` is None);
    the strict lower triangle, row by row, is ``values[angles]``.
    """

    size: int
    diagonal: np.ndarray | None
    scale: float
    angles: np.ndarray
    log_mask: np.ndarray


@functools.lru_cache(maxsize=None)
def _packing(kind: CategoricalKernelKind, L: int) -> _Packing:
    rule = KINDS[kind]
    rows, cols = _tril_indices(L, with_diag=True)
    on_diag = rows == cols
    kept = np.where(on_diag, rule.diagonal == "per-level", rule.angle_upper > 0)
    slot = np.cumsum(kept) - 1
    size = int(kept.sum())
    diagonal, scale = slot[on_diag], 1.0
    if rule.diagonal == "shared":
        size, diagonal, scale = 1, np.zeros(L, dtype=int), 0.5
    elif rule.diagonal == "zero":
        diagonal = None
    log_mask = np.zeros(size, dtype=bool)
    if diagonal is not None:
        log_mask[diagonal] = True
    return _Packing(size, diagonal, scale, slot[~on_diag & kept], log_mask)


def categorical_param_count(kind: CategoricalKernelKind, n_levels: int) -> int:
    """Number of hyperparameters one categorical variable contributes."""
    return _packing(kind, int(n_levels)).size


def _theta_diagonal(kind, L, values) -> np.ndarray:
    pack = _packing(kind, L)
    if pack.diagonal is None:
        return np.zeros(L)
    return values[pack.diagonal] * pack.scale


def _angle_matrix(kind, L, values) -> np.ndarray:
    out = np.zeros((L, L))
    out[_tril_indices(L, with_diag=False)] = values[_packing(kind, L).angles]
    return out


def _require_nonnegative(values, what: str) -> None:
    """The one sign check, over exponential-scale (log-masked) slots."""
    if not np.all(values >= 0):
        raise ValueError(f"{what}: exponential-scale entries must be >= 0")


# ---------------------------------------------------------------------------
# per-variable hyperparameter container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricHyperMatrix:
    """Hyperparameters of one categorical variable, packed per kernel kind.

    ``values`` holds the entries of Theta_i that the kind packs (see
    :class:`KindRule`) in row-major lower-triangle order: the GD scalar, the
    CR diagonal, the EHH/HH strict lower triangle, the whole FE lower triangle.
    """

    kind: CategoricalKernelKind
    size: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", v)
        pack = _packing(self.kind, self.size)
        if v.size != pack.size:
            raise ShapeMismatch(
                f"{self.kind.value} with {self.size} levels expects {pack.size} "
                f"values, got {v.size}"
            )
        _require_nonnegative(v[pack.log_mask], self.kind.value)

    def theta_diagonal(self) -> np.ndarray:
        """Diagonal of Theta_i: theta/2 for GD, theta_jj for CR/FE, zeros otherwise."""
        return _theta_diagonal(self.kind, self.size, self.values)

    def angles(self) -> np.ndarray:
        """Strict lower-triangle angles as an (L, L) matrix (zeros elsewhere)."""
        return _angle_matrix(self.kind, self.size, self.values)


# ---------------------------------------------------------------------------
# full hyperparameter set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperparameterSet:
    """All kernel hyperparameters of one model.

    ``theta_cont`` and ``theta_int`` are non-negative exponential rates for
    the continuous and integer coordinates; ``theta_cat`` holds one
    :class:`SymmetricHyperMatrix` per categorical variable.
    """

    kind: CategoricalKernelKind
    theta_cont: np.ndarray
    theta_int: np.ndarray
    theta_cat: tuple[SymmetricHyperMatrix, ...]
    epsilon: float = EPSILON

    def __post_init__(self):
        object.__setattr__(self, "theta_cont", np.asarray(self.theta_cont, dtype=float).reshape(-1))
        object.__setattr__(self, "theta_int", np.asarray(self.theta_int, dtype=float).reshape(-1))
        object.__setattr__(self, "theta_cat", tuple(self.theta_cat))
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        for m in self.theta_cat:
            if m.kind is not self.kind:
                raise ShapeMismatch(f"variable matrix kind {m.kind} != set kind {self.kind}")
        # the matrices have checked their own log-masked slots
        _require_nonnegative(np.concatenate([self.theta_cont, self.theta_int]), "rates")

    def flat(self) -> np.ndarray:
        """Natural-units packing: theta_cont, theta_int, then per-variable values."""
        return np.concatenate([self.theta_cont, self.theta_int] + [m.values for m in self.theta_cat])

    @classmethod
    def from_flat(
        cls,
        space: DesignSpace,
        kind: CategoricalKernelKind,
        flat,
        epsilon: float = EPSILON,
    ) -> "HyperparameterSet":
        flat = np.asarray(flat, dtype=float).reshape(-1)
        expected = hyperparameter_count(space, kind)
        if flat.size != expected:
            raise ShapeMismatch(
                f"flat vector of length {flat.size}, {kind.value} on this space needs {expected}"
            )
        n, m = space.n_continuous, space.n_integer
        theta_cont, theta_int = flat[:n], flat[n:n + m]
        mats, pos = [], n + m
        for L in space.level_counts:
            k = categorical_param_count(kind, L)
            mats.append(SymmetricHyperMatrix(kind, L, flat[pos:pos + k]))
            pos += k
        return cls(kind, theta_cont, theta_int, tuple(mats), epsilon)


def hyperparameter_count(space: DesignSpace, kind: CategoricalKernelKind) -> int:
    """Total number of hyperparameters for ``kind`` on ``space``."""
    return (
        space.n_continuous
        + space.n_integer
        + sum(categorical_param_count(kind, L) for L in space.level_counts)
    )


# ---------------------------------------------------------------------------
# continuous / integer kernels
# ---------------------------------------------------------------------------

def continuous_kernel(x_r, x_s, theta, p: int = 2) -> float:
    """Anisotropic exponential kernel prod_j exp(-theta_j |x_r,j - x_s,j|^p)."""
    p = check_exponent(p)
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


# ---------------------------------------------------------------------------
# hypersphere decomposition
# ---------------------------------------------------------------------------

def _hypersphere_from_angles(angles: np.ndarray) -> np.ndarray:
    """Lower-triangular C with unit-norm rows from strict-lower-triangle angles.

    Row k reads (cos a_k1, cos a_k2 sin a_k1, ..., prod_j sin a_kj): the
    spherical coordinates of a unit vector, so C C^T has unit diagonal.
    """
    L = angles.shape[0]
    strict = np.tri(L, L, -1, dtype=bool)
    sines = np.where(strict, np.sin(angles), 1.0)
    # prefix[k, j] = prod of sin(angles[k, :j]); column j=0 is 1
    prefix = np.ones((L, L))
    np.cumprod(sines[:, :-1], axis=1, out=prefix[:, 1:])
    C = np.zeros((L, L))
    C[strict] = (np.cos(angles) * prefix)[strict]
    np.fill_diagonal(C, np.diag(prefix))
    return C


def hypersphere_lower_triangular(theta_i: SymmetricHyperMatrix) -> np.ndarray:
    """Hypersphere factor C(Theta_i); every row has unit Euclidean norm."""
    return _hypersphere_from_angles(theta_i.angles())


# ---------------------------------------------------------------------------
# unified categorical kernel
# ---------------------------------------------------------------------------

def _phi(kind, L, values, epsilon) -> np.ndarray:
    gram = None
    if KINDS[kind].angle_upper > 0:
        C = _hypersphere_from_angles(_angle_matrix(kind, L, values))
        gram = C @ C.T
    return KINDS[kind].phi(gram, _theta_diagonal(kind, L, values), epsilon)


def _levels(kind, phi) -> np.ndarray:
    d = np.diag(phi)
    R = KINDS[kind].kappa(2.0 * phi, d[:, None], d[None, :])
    np.fill_diagonal(R, 1.0)
    return R


def phi_transform(
    kind: CategoricalKernelKind,
    theta_i: SymmetricHyperMatrix,
    epsilon: float = EPSILON,
) -> np.ndarray:
    """The (L, L) matrix Phi(Theta_i) for the requested kernel kind."""
    if theta_i.kind is not kind:
        raise ShapeMismatch(f"hyper matrix is {theta_i.kind.value}, requested {kind.value}")
    return _phi(kind, theta_i.size, theta_i.values, epsilon)


def level_correlation(
    kind: CategoricalKernelKind,
    phi: np.ndarray,
    level_r: int,
    level_s: int,
) -> float:
    """Correlation between two levels given Phi(Theta_i).

    Equal levels correlate 1; otherwise the level-wise form
    kappa(2 Phi_rs) kappa(Phi_rr) kappa(Phi_ss) applies, with the kind's kappa.
    """
    r, s = int(level_r) - 1, int(level_s) - 1
    if r == s:
        return 1.0
    return float(KINDS[kind].kappa(2.0 * phi[r, s], phi[r, r], phi[s, s]))


def categorical_matrix(
    kind: CategoricalKernelKind,
    theta_i: SymmetricHyperMatrix,
    epsilon: float = EPSILON,
) -> np.ndarray:
    """Full L x L level correlation matrix R_i(Theta_i).

    Symmetric with unit diagonal; SPD with entries in [0, 1] for the
    exponential kinds, entries in [-1, 1] for HH.
    """
    return _levels(kind, phi_transform(kind, theta_i, epsilon))


def level_matrix(
    kind: CategoricalKernelKind,
    n_levels: int,
    values: np.ndarray,
    epsilon: float = EPSILON,
) -> np.ndarray:
    """:func:`categorical_matrix` from packed values, unvalidated (the evaluator's form)."""
    return _levels(kind, _phi(kind, n_levels, values, epsilon))


def mixed_kernel(
    w_r: MixedPoint,
    w_s: MixedPoint,
    theta: HyperparameterSet,
    p: int = 2,
) -> float:
    """Product kernel over the continuous, integer and categorical parts.

    Coordinates are used exactly as stored in the points; the GP layer is
    responsible for normalizing before it gets here.
    """
    if (
        len(w_r.continuous) != len(w_s.continuous)
        or len(w_r.integer) != len(w_s.integer)
        or len(w_r.categorical) != len(w_s.categorical)
    ):
        raise DimensionMismatch("points have different coordinate layouts")
    if len(w_r.categorical) != len(theta.theta_cat):
        raise DimensionMismatch(
            f"{len(w_r.categorical)} categorical coordinates but "
            f"{len(theta.theta_cat)} hyperparameter matrices"
        )
    value = 1.0
    if w_r.continuous:
        value *= continuous_kernel(w_r.continuous, w_s.continuous, theta.theta_cont, p)
    if w_r.integer:
        value *= integer_kernel(w_r.integer, w_s.integer, theta.theta_int, p)
    for theta_i, lr, ls in zip(theta.theta_cat, w_r.categorical, w_s.categorical):
        if lr != ls:
            phi = phi_transform(theta.kind, theta_i, theta.epsilon)
            value *= level_correlation(theta.kind, phi, lr, ls)
    return float(value)


# ---------------------------------------------------------------------------
# inverse maps: Gram matrix -> angles, correlation matrix -> EHH angles
# ---------------------------------------------------------------------------

def gram_to_angles(gram: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Spherical angles whose hypersphere factor reproduces ``gram``.

    ``gram`` must be symmetric positive semidefinite with unit diagonal
    (semidefiniteness is accepted up to ``tol`` so that matrices produced
    by a forward pass survive rounding).  Returns the packed
    strict-lower-triangle angle vector (row-major), the inverse of
    ``C C^T`` composed with :func:`hypersphere_lower_triangular`.
    """
    gram = np.asarray(gram, dtype=float)
    L = gram.shape[0]
    if gram.shape != (L, L):
        raise ShapeMismatch(f"expected a square matrix, got {gram.shape}")
    if not np.allclose(np.diag(gram), 1.0):
        raise NotRepresentable("Gram matrix must have unit diagonal")
    # hypersphere Gram matrices are frequently singular to rounding (the
    # factor diagonal multiplies many sines), so semidefiniteness is
    # accepted up to tol via a tiny eigenvalue shift before factorization
    gram = 0.5 * (gram + gram.T)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(gram).min())
        if smallest < -tol:
            raise NotRepresentable("Gram matrix is not positive semidefinite") from None
        shift = max(-smallest, 0.0) + 1e-13
        shifted = (gram + shift * np.eye(L)) / (1.0 + shift)
        np.fill_diagonal(shifted, 1.0)
        chol = np.linalg.cholesky(shifted)
    angles = np.zeros((L, L))
    for k in range(1, L):
        sin_prod = 1.0
        for j in range(k):
            if sin_prod <= 0.0:
                # row already fully determined; remaining angles are free
                angles[k, j] = math.pi / 2.0
                continue
            c = float(np.clip(chol[k, j] / sin_prod, -1.0, 1.0))
            a = math.acos(c)
            angles[k, j] = a
            sin_prod *= math.sin(a)
    return angles[_tril_indices(L, with_diag=False)]


def recover_angles_from_correlation(
    T: np.ndarray,
    epsilon: float = EPSILON,
) -> SymmetricHyperMatrix:
    """Angles whose EHH pipeline reproduces the correlation matrix ``T``.

    Inverts the elementwise map t = eps * exp(-log(eps) * g) to get the unit
    Gram matrix g = 1 + log(t)/(-log eps), Cholesky-factors it, and reads
    the spherical angles back off the factor rows.

    Raises NotRepresentable if any entry is <= eps (outside the bijective
    range) or the recovered Gram matrix is not positive definite.
    """
    T = np.asarray(T, dtype=float)
    L = T.shape[0]
    if T.shape != (L, L):
        raise ShapeMismatch(f"expected a square matrix, got {T.shape}")
    if not np.allclose(T, T.T):
        raise ShapeMismatch("correlation matrix must be symmetric")
    if not np.allclose(np.diag(T), 1.0):
        raise NotRepresentable("correlation matrix must have unit diagonal")
    if np.any(T <= epsilon):
        raise NotRepresentable(f"entries must exceed epsilon = {epsilon:g}")
    gram = 1.0 + np.log(T) / (-math.log(epsilon))
    np.fill_diagonal(gram, 1.0)
    packed = gram_to_angles(gram)
    return SymmetricHyperMatrix(CategoricalKernelKind.EHH, L, packed)


def embed_hyper_matrix(
    kind: CategoricalKernelKind,
    source: SymmetricHyperMatrix,
    epsilon: float = EPSILON,
) -> SymmetricHyperMatrix:
    """``kind``'s hyperparameters reproducing a GD or CR source's correlations.

    Kinds that pack Theta's diagonal take the source's diagonal with zero
    angles, which reproduces it exactly; the others aim their angles at the
    source's correlation matrix.  Raises NotRepresentable where that matrix
    lies outside the kind's range.
    """
    L, pack = source.size, _packing(kind, source.size)
    inverse = KINDS[kind].angles_from_correlation
    if inverse is None:
        values = np.zeros(pack.size)
        values[pack.diagonal] = source.theta_diagonal() / pack.scale
    else:
        values = inverse(categorical_matrix(source.kind, source, epsilon), epsilon)
    return SymmetricHyperMatrix(kind, L, values)


# ---------------------------------------------------------------------------
# optimizer packing
# ---------------------------------------------------------------------------
#
# The flat search vector follows the natural packing of HyperparameterSet:
# theta_cont, theta_int, then each variable's values in row-major
# lower-triangle order.  Exponential-scale coordinates (theta_cont,
# theta_int and each kind's packed diagonal) are searched in log space;
# angle coordinates are searched directly, in [0, angle_upper].

@functools.lru_cache(maxsize=None)
def _log_mask(space: DesignSpace, kind: CategoricalKernelKind) -> np.ndarray:
    n_exp = space.n_continuous + space.n_integer
    parts = [np.ones(n_exp, dtype=bool)]
    parts += [_packing(kind, L).log_mask for L in space.level_counts]
    return np.concatenate(parts)


def search_bounds(
    space: DesignSpace,
    kind: CategoricalKernelKind,
    theta_log_bounds: tuple[float, float] = THETA_LOG_BOUNDS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Box bounds and log mask for the flat search vector.

    Returns (lower, upper, log_mask); log-masked coordinates hold
    log(theta), the rest hold angles, in [0, pi/2] for EHH/FE and [0, pi]
    for HH.
    """
    lo_t, hi_t = theta_log_bounds
    mask = _log_mask(space, kind)
    lower = np.where(mask, lo_t, 0.0)
    upper = np.where(mask, hi_t, KINDS[kind].angle_upper)
    return lower, upper, mask.copy()


def natural_from_search(vector: np.ndarray, log_mask: np.ndarray) -> np.ndarray:
    """Natural-units flat vector from a search vector: exp on log-masked coordinates."""
    return np.where(log_mask, np.exp(np.minimum(vector, 700.0)), vector)


def set_from_search_vector(
    space: DesignSpace,
    kind: CategoricalKernelKind,
    vector,
    epsilon: float = EPSILON,
) -> HyperparameterSet:
    """Decode an optimizer vector (log thetas + angles) into a HyperparameterSet."""
    vector = np.asarray(vector, dtype=float).reshape(-1)
    mask = _log_mask(space, kind)
    if vector.size != mask.size:
        raise ShapeMismatch(f"search vector length {vector.size}, expected {mask.size}")
    return HyperparameterSet.from_flat(space, kind, natural_from_search(vector, mask), epsilon)


def search_vector_from_set(space: DesignSpace, theta: HyperparameterSet) -> np.ndarray:
    """Inverse of :func:`set_from_search_vector` (log on exponential coords)."""
    mask = _log_mask(space, theta.kind)
    flat = theta.flat()
    out = flat.copy()
    with np.errstate(divide="ignore"):
        out[mask] = np.log(flat[mask])
    return out
