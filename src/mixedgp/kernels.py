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

A model's hyperparameters are one natural-units vector,
:class:`HyperparameterSet`: the continuous then integer rates, then each
categorical variable's packed values, the entries of Theta_i its kind keeps
(row-major lower triangle); per-variable functions take those values as
``(kind, n_levels, values)``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
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
    "HyperparameterSet",
    "continuous_kernel",
    "integer_kernel",
    "hamming_score",
    "hypersphere_lower_triangular",
    "phi_transform",
    "level_correlation",
    "categorical_matrix",
    "mixed_kernel",
    "categorical_param_count",
    "hyperparameter_count",
    "gram_to_angles",
    "recover_angles_from_correlation",
    "embed_hyper_matrix",
    "search_bounds",
    "natural_from_search",
    "search_from_natural",
    "set_from_search_vector",
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


def _fill_diagonal(M, value) -> None:
    """Set the diagonal of each L x L matrix of the C-contiguous stack ``M`` (..., L, L).

    ``value`` is a scalar or one (..., L) row per matrix; like
    ``np.fill_diagonal``, without its per-call checks.
    """
    L = M.shape[-1]
    M.reshape(M.shape[:-2] + (L * L,))[..., ::L + 1] = value


def _diagonal_phi(gram, diagonal, epsilon):
    """GD/CR: Theta's diagonal, zero off the diagonal."""
    phi = np.zeros(diagonal.shape + diagonal.shape[-1:])
    _fill_diagonal(phi, diagonal)
    return phi


def _exponential_sphere_phi(gram, diagonal, epsilon):
    """EHH/FE: (log eps)/2 (G - 1) off the diagonal, Theta's diagonal on it."""
    phi = 0.5 * math.log(epsilon) * (gram - 1.0)
    _fill_diagonal(phi, diagonal)
    return phi


def _sphere_phi(gram, diagonal, epsilon):
    """HH: G/2 off the diagonal and 1 on it, so the diagonal kappa factors are 1."""
    phi = 0.5 * gram
    _fill_diagonal(phi, 1.0)
    return phi


def _ehh_angles(R, epsilon):
    """EHH angles reproducing R once its entries are clipped into (eps, 1]."""
    R = np.clip(R, epsilon * (1.0 + 1e-9), 1.0)
    np.fill_diagonal(R, 1.0)
    return recover_angles_from_correlation(R, epsilon)


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
    # HH's angles take R itself as their Gram matrix
    _K.HH: KindRule(_identity_kappa, "zero", math.pi, _sphere_phi, 3,
                    lambda R, epsilon: gram_to_angles(R)),
}


@functools.lru_cache(maxsize=None)
def _tril_indices(L: int, with_diag: bool) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(L, 0 if with_diag else -1)


class _Packing(NamedTuple):
    """Where a kind keeps Theta in its packed values (row-major lower triangle).

    Theta_jj is ``scale * values[diagonal[j]]`` (0 when ``diagonal`` is None);
    the strict lower triangle, row by row, is ``values[angles]``, at the
    row-major cells ``angle_cells`` of an L x L matrix.  ``strict`` and
    ``lower`` mask the strict and the full lower triangle.  Every array is
    read-only: one packing is shared by every caller.
    """

    size: int
    diagonal: np.ndarray | None
    scale: float
    angles: np.ndarray
    log_mask: np.ndarray
    angle_cells: np.ndarray
    strict: np.ndarray
    lower: np.ndarray


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
    angle_kept = ~on_diag & kept
    strict = np.tri(L, L, -1, dtype=bool)
    pack = _Packing(size, diagonal, scale, slot[angle_kept], log_mask,
                    (rows * L + cols)[angle_kept], strict, strict | np.eye(L, dtype=bool))
    for array in pack:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return pack


def categorical_param_count(kind: CategoricalKernelKind, n_levels: int) -> int:
    """Number of hyperparameters one categorical variable contributes."""
    return _packing(kind, int(n_levels)).size


def _theta_diagonal(pack: _Packing, L: int, values: np.ndarray) -> np.ndarray:
    """Theta's diagonal (..., L) from packed values (..., count)."""
    if pack.diagonal is None:
        return np.zeros(values.shape[:-1] + (L,))
    return values[..., pack.diagonal] * pack.scale


def _packed(kind, n_levels, values, stack=False) -> tuple[int, _Packing, np.ndarray]:
    """(L, packing, values as floats), once each vector holds as many values as ``kind`` packs.

    ``values`` becomes one vector; with ``stack``, a 2-D input stays an
    (m, count) array of m vectors.
    """
    L = int(n_levels)
    values = np.asarray(values, dtype=float)
    if not (stack and values.ndim == 2):
        values = values.reshape(-1)
    pack = _packing(kind, L)
    if values.shape[-1] != pack.size:
        raise ShapeMismatch(
            f"{kind.value} with {L} levels expects {pack.size} values, got {values.shape[-1]}")
    return L, pack, values


# ---------------------------------------------------------------------------
# the hyperparameter vector
# ---------------------------------------------------------------------------

def _layout(space: DesignSpace) -> tuple[int, tuple[int, ...]]:
    """(rate count, level counts): the shape a space gives the flat vector."""
    return space.n_continuous + space.n_integer, space.level_counts


@functools.lru_cache(maxsize=None)
def _log_mask(kind: CategoricalKernelKind, layout) -> np.ndarray:
    """True on the exponential-scale slots of the flat vector: rates and packed diagonals."""
    n_rates, level_counts = layout
    mask = np.concatenate([np.ones(n_rates, dtype=bool)]
                          + [_packing(kind, L).log_mask for L in level_counts])
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True, eq=False)
class HyperparameterSet:
    """All kernel hyperparameters of one model: one read-only natural-units vector.

    ``layout`` is ``(n_rates, level_counts)``.  ``flat`` holds ``n_rates``
    exponential rates, for the continuous and then the integer coordinates,
    followed by each categorical variable's packed values (see
    :class:`KindRule`).  ``rates`` and ``variable(i)`` are views of it.
    Build a set with :meth:`from_flat`; the fields' constructor runs the
    same checks: the length, and that every exponential-scale slot is >= 0.
    """

    kind: CategoricalKernelKind
    layout: tuple[int, tuple[int, ...]]
    flat: np.ndarray
    epsilon: float = EPSILON

    def __post_init__(self):
        n_rates, level_counts = self.layout
        layout = (int(n_rates), tuple(map(int, level_counts)))
        flat = np.array(self.flat, dtype=float).reshape(-1)
        flat.flags.writeable = False
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "flat", flat)
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        mask = _log_mask(self.kind, layout)
        if flat.size != mask.size:
            raise ShapeMismatch(f"flat vector of length {flat.size}, {self.kind.value} "
                                f"on layout {layout} needs {mask.size}")
        if not np.all(flat[mask] >= 0):
            raise ValueError(f"{self.kind.value}: exponential-scale entries must be >= 0")

    @classmethod
    def from_flat(cls, space: DesignSpace, kind: CategoricalKernelKind, flat,
                  epsilon: float = EPSILON) -> "HyperparameterSet":
        """``kind``'s hyperparameters on ``space``, from their natural-units vector."""
        return cls(kind, _layout(space), flat, epsilon)

    @property
    def rates(self) -> np.ndarray:
        """Exponential rates of the continuous, then the integer coordinates."""
        return self.flat[:self.layout[0]]

    def variable(self, i: int) -> np.ndarray:
        """Packed values of categorical variable ``i`` (0-based, in space order)."""
        n_rates, level_counts = self.layout
        i = range(len(level_counts))[i]
        start = n_rates + sum(_packing(self.kind, L).size for L in level_counts[:i])
        return self.flat[start:start + _packing(self.kind, level_counts[i]).size]

    def __eq__(self, other):
        return (isinstance(other, HyperparameterSet) and self.kind is other.kind
                and self.layout == other.layout and self.epsilon == other.epsilon
                and np.array_equal(self.flat, other.flat))


def hyperparameter_count(space: DesignSpace, kind: CategoricalKernelKind) -> int:
    """Total number of hyperparameters for ``kind`` on ``space``."""
    return _log_mask(kind, _layout(space)).size


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

def hypersphere_lower_triangular(
    kind: CategoricalKernelKind,
    n_levels: int,
    values,
) -> np.ndarray:
    """Hypersphere factor C(Theta_i) from packed values; every row has unit Euclidean norm.

    With a the angles, Theta_i's strict lower triangle (all zero for kinds
    without angles), row k reads (cos a_k1, cos a_k2 sin a_k1, ...,
    prod_j sin a_kj): the spherical coordinates of a unit vector, so C C^T
    has unit diagonal.
    """
    L, pack, values = _packed(kind, n_levels, values)
    return _hypersphere(pack, L, values)


def _hypersphere(pack: _Packing, L: int, values: np.ndarray) -> np.ndarray:
    """C (..., L, L) from packed values (..., count); each L x L matrix has the bits of its own call."""
    stack = values.shape[:-1]
    angles = np.zeros(stack + (L, L))
    angles.reshape(stack + (L * L,))[..., pack.angle_cells] = values[..., pack.angles]
    sines = np.where(pack.strict, np.sin(angles), 1.0)
    # prefix[..., k, j] = prod of sin(angles[..., k, :j]); column j=0 is 1
    prefix = np.empty(stack + (L, L))
    prefix[..., 0] = 1.0
    np.cumprod(sines[..., :-1], axis=-1, out=prefix[..., 1:])
    # the diagonal angles are 0, so cos * prefix is exactly prefix there
    return np.where(pack.lower, np.cos(angles) * prefix, 0.0)


# ---------------------------------------------------------------------------
# unified categorical kernel
# ---------------------------------------------------------------------------

def phi_transform(
    kind: CategoricalKernelKind,
    n_levels: int,
    values,
    epsilon: float = EPSILON,
) -> np.ndarray:
    """The (L, L) matrix Phi(Theta_i) of ``kind`` from packed values."""
    L, pack, values = _packed(kind, n_levels, values)
    return _phi(KINDS[kind], pack, L, values, epsilon)


def _phi(rule: KindRule, pack: _Packing, L: int, values: np.ndarray, epsilon) -> np.ndarray:
    gram = None
    if rule.angle_upper > 0:
        C = _hypersphere(pack, L, values)
        gram = C @ np.swapaxes(C, -1, -2)
    return rule.phi(gram, _theta_diagonal(pack, L, values), epsilon)


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
    n_levels: int,
    values,
    epsilon: float = EPSILON,
) -> np.ndarray:
    """Full L x L level correlation matrix R_i(Theta_i) from packed values.

    Symmetric with unit diagonal; SPD with entries in [0, 1] for the
    exponential kinds, entries in [-1, 1] for HH.  An (m, count) array of
    packed values gives the (m, L, L) stack of their matrices, each with the
    bits of its own call: the likelihood evaluator builds the level
    matrices of every row of a block it scores in one call.  Only the
    count of ``values`` is checked.
    """
    L, pack, values = _packed(kind, n_levels, values, stack=True)
    rule = KINDS[kind]
    phi = _phi(rule, pack, L, values, epsilon)
    d = np.diagonal(phi, axis1=-2, axis2=-1)
    R = rule.kappa(2.0 * phi, d[..., :, None], d[..., None, :])
    _fill_diagonal(R, 1.0)
    return R


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
            phi = phi_transform(theta.kind, L, theta.variable(i), theta.epsilon)
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
) -> np.ndarray:
    """Packed EHH angles whose correlation matrix is ``T``.

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
    return gram_to_angles(gram)


def embed_hyper_matrix(
    kind: CategoricalKernelKind,
    source_kind: CategoricalKernelKind,
    n_levels: int,
    values,
    epsilon: float = EPSILON,
) -> np.ndarray:
    """``kind``'s packed values reproducing the correlations of a GD or CR variable.

    Kinds that pack Theta's diagonal take the source's diagonal with zero
    angles, which reproduces it exactly; the others aim their angles at the
    source's correlation matrix.  Raises NotRepresentable where that matrix
    lies outside the kind's range, where the source has angles the diagonal
    would drop, or where GD's one shared theta meets a non-constant
    diagonal.
    """
    L, source_pack, values = _packed(source_kind, n_levels, values)
    inverse = KINDS[kind].angles_from_correlation
    if inverse is not None:
        return inverse(categorical_matrix(source_kind, L, values, epsilon), epsilon)
    if KINDS[source_kind].angle_upper > 0:
        raise NotRepresentable(f"{kind.value} takes only the source's diagonal; the angles "
                               f"of a {source_kind.value} source would be lost")
    diagonal = _theta_diagonal(source_pack, L, values)
    if KINDS[kind].diagonal == "shared" and np.any(diagonal != diagonal[0]):
        raise NotRepresentable(f"{kind.value} shares one theta across the levels; the "
                               f"source diagonal {diagonal} is not constant")
    pack = _packing(kind, L)
    embedded = np.zeros(pack.size)
    embedded[pack.diagonal] = diagonal / pack.scale
    return embedded


# ---------------------------------------------------------------------------
# optimizer packing
# ---------------------------------------------------------------------------
#
# The search vector is the flat vector with its exponential-scale slots
# (the rates and each kind's packed diagonal) in log space; angle slots are
# searched directly, in [0, angle_upper].

def search_bounds(
    space: DesignSpace, kind: CategoricalKernelKind
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Box bounds and log mask for the flat search vector.

    Returns (lower, upper, log_mask); log-masked coordinates hold
    log(theta) in ``THETA_LOG_BOUNDS``, the rest hold angles, in
    [0, pi/2] for EHH/FE and [0, pi] for HH.
    """
    lo_t, hi_t = THETA_LOG_BOUNDS
    mask = _log_mask(kind, _layout(space))
    lower = np.where(mask, lo_t, 0.0)
    upper = np.where(mask, hi_t, KINDS[kind].angle_upper)
    return lower, upper, mask.copy()


def natural_from_search(vector: np.ndarray, log_mask: np.ndarray) -> np.ndarray:
    """Natural-units flat vector from a search vector: exp on log-masked coordinates."""
    return np.where(log_mask, np.exp(np.minimum(vector, 700.0)), vector)


def search_from_natural(flat: np.ndarray, log_mask: np.ndarray) -> np.ndarray:
    """Search vector from a natural-units flat vector: log on log-masked coordinates."""
    out = np.array(flat, dtype=float)
    with np.errstate(divide="ignore"):
        out[log_mask] = np.log(out[log_mask])
    return out


def set_from_search_vector(
    space: DesignSpace,
    kind: CategoricalKernelKind,
    vector,
    epsilon: float = EPSILON,
) -> HyperparameterSet:
    """Decode an optimizer vector (log thetas + angles) into a HyperparameterSet."""
    vector = np.asarray(vector, dtype=float).reshape(-1)
    mask = _log_mask(kind, _layout(space))
    if vector.size != mask.size:
        raise ShapeMismatch(f"search vector length {vector.size}, expected {mask.size}")
    return HyperparameterSet.from_flat(space, kind, natural_from_search(vector, mask), epsilon)
