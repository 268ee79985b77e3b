import math

import numpy as np
import pytest

from mixedgp.errors import DimensionMismatch, NotRepresentable, ShapeMismatch
from mixedgp.kernels import (
    EPSILON,
    CategoricalKernelKind,
    HyperparameterSet,
    SymmetricHyperMatrix,
    categorical_matrix,
    categorical_param_count,
    continuous_kernel,
    gram_to_angles,
    hamming_score,
    hyperparameter_count,
    hypersphere_lower_triangular,
    integer_kernel,
    level_correlation,
    mixed_kernel,
    phi_transform,
    recover_angles_from_correlation,
    search_bounds,
    set_from_search_vector,
    search_vector_from_set,
)
from mixedgp.space import Categorical, Continuous, DesignSpace, Integer, MixedPoint

from conftest import random_hyper

K = CategoricalKernelKind
ALL_KINDS = list(K)
EXP_KINDS = [K.GD, K.CR, K.EHH, K.FE]


# ---------------------------------------------------------------------------
# continuous / integer / hamming
# ---------------------------------------------------------------------------

def test_continuous_kernel_zero_distance():
    assert continuous_kernel([0.3, 0.7], [0.3, 0.7], [2.0, 5.0], 2) == 1.0


def test_continuous_kernel_unit_distance_squared():
    assert continuous_kernel([0.0], [1.0], [1.0], 2) == pytest.approx(math.exp(-1.0))


def test_continuous_kernel_hand_value_p1():
    value = continuous_kernel([0.0, 0.0], [0.5, 0.5], [2.0, 3.0], 1)
    assert value == pytest.approx(math.exp(-2.5), rel=1e-14)


def test_continuous_kernel_errors():
    with pytest.raises(DimensionMismatch):
        continuous_kernel([0.0], [0.0, 1.0], [1.0], 2)
    with pytest.raises(ValueError):
        continuous_kernel([0.0], [1.0], [-1.0], 2)
    with pytest.raises(ValueError):
        continuous_kernel([0.0], [1.0], [1.0], 3)


def test_integer_kernel_values():
    assert integer_kernel([3], [3], [1.0], 1) == 1.0
    assert integer_kernel([1], [3], [1.0], 1) == pytest.approx(math.exp(-2.0))
    assert integer_kernel([1], [4], [0.0], 2) == 1.0


def test_hamming_score():
    assert hamming_score(3, 3) == 0
    assert hamming_score(1, 2) == 1
    assert hamming_score(2, 1) == 1


# ---------------------------------------------------------------------------
# hypersphere decomposition
# ---------------------------------------------------------------------------

def test_hypersphere_two_levels():
    theta = 0.7
    C = hypersphere_lower_triangular(SymmetricHyperMatrix(K.EHH, 2, [theta]))
    assert np.allclose(C, [[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
    assert (C @ C.T)[0, 1] == pytest.approx(math.cos(theta))


def test_hypersphere_right_angles_identity():
    m = SymmetricHyperMatrix(K.EHH, 4, [math.pi / 2] * 6)
    C = hypersphere_lower_triangular(m)
    assert np.allclose(C, np.eye(4), atol=1e-15)


def test_hypersphere_zero_angles_all_ones():
    m = SymmetricHyperMatrix(K.EHH, 4, [0.0] * 6)
    C = hypersphere_lower_triangular(m)
    assert np.allclose(C @ C.T, np.ones((4, 4)))


def test_hypersphere_rows_unit_norm():
    rng = np.random.default_rng(7)
    for L in range(2, 14):
        m = random_hyper(K.HH, L, rng)
        C = hypersphere_lower_triangular(m)
        assert np.allclose(np.linalg.norm(C, axis=1), 1.0)
        gram = C @ C.T
        assert np.allclose(np.diag(gram), 1.0)
        assert np.all(gram >= -1.0 - 1e-12) and np.all(gram <= 1.0 + 1e-12)


def test_hypersphere_quarter_angles_entries_in_unit_interval():
    rng = np.random.default_rng(8)
    for L in (3, 8, 13):
        m = random_hyper(K.EHH, L, rng)
        gram = hypersphere_lower_triangular(m) @ hypersphere_lower_triangular(m).T
        assert np.all(gram >= -1e-12) and np.all(gram <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# phi transform and level correlations
# ---------------------------------------------------------------------------

def test_phi_gd_half_theta():
    phi = phi_transform(K.GD, SymmetricHyperMatrix(K.GD, 3, [4.0]))
    assert np.allclose(phi, 2.0 * np.eye(3))


def test_phi_ehh_extremes():
    # gram entry 1 -> phi 0, gram entry 0 -> -(log eps)/2
    phi_ones = phi_transform(K.EHH, SymmetricHyperMatrix(K.EHH, 2, [0.0]))
    assert phi_ones[0, 1] == pytest.approx(0.0)
    phi_zero = phi_transform(K.EHH, SymmetricHyperMatrix(K.EHH, 2, [math.pi / 2]))
    assert phi_zero[0, 1] == pytest.approx(-math.log(EPSILON) / 2.0, rel=1e-12)


def test_phi_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        phi_transform(K.CR, SymmetricHyperMatrix(K.GD, 3, [1.0]))


def test_level_correlation_same_level_is_one():
    rng = np.random.default_rng(5)
    for kind in ALL_KINDS:
        m = random_hyper(kind, 5, rng)
        phi = phi_transform(kind, m)
        assert level_correlation(kind, phi, 3, 3) == 1.0


def test_level_correlation_cr_hand_value():
    phi = phi_transform(K.CR, SymmetricHyperMatrix(K.CR, 2, [0.7, 0.2]))
    assert level_correlation(K.CR, phi, 1, 2) == pytest.approx(math.exp(-0.9), rel=1e-14)


def test_level_correlation_ehh_orthogonal_gives_epsilon():
    phi = phi_transform(K.EHH, SymmetricHyperMatrix(K.EHH, 2, [math.pi / 2]))
    assert level_correlation(K.EHH, phi, 1, 2) == pytest.approx(EPSILON, rel=1e-12)


# ---------------------------------------------------------------------------
# categorical matrices
# ---------------------------------------------------------------------------

def test_categorical_matrix_gd_zero_theta_all_ones():
    R = categorical_matrix(K.GD, SymmetricHyperMatrix(K.GD, 5, [0.0]))
    assert np.array_equal(R, np.ones((5, 5)))


def test_categorical_matrix_ehh_right_angles():
    R = categorical_matrix(K.EHH, SymmetricHyperMatrix(K.EHH, 3, [math.pi / 2] * 3))
    off = R[~np.eye(3, dtype=bool)]
    assert np.allclose(off, EPSILON, rtol=1e-9)
    assert np.all(np.diag(R) == 1.0)


def test_categorical_matrix_hh_right_angles_identity():
    R = categorical_matrix(K.HH, SymmetricHyperMatrix(K.HH, 4, [math.pi / 2] * 6))
    assert np.allclose(R, np.eye(4), atol=1e-15)


@pytest.mark.parametrize("kind", EXP_KINDS)
def test_spd_property(kind):
    rng = np.random.default_rng(11)
    sizes = list(range(2, 14))
    for draw in range(60):
        L = sizes[draw % len(sizes)]
        R = categorical_matrix(kind, random_hyper(kind, L, rng))
        assert np.array_equal(np.diag(R), np.ones(L))
        assert np.allclose(R, R.T)
        assert np.all(R >= 0.0) and np.all(R <= 1.0)
        assert np.linalg.eigvalsh(R).min() > 0
        if kind is K.EHH:
            assert np.all(R >= EPSILON * (1 - 1e-12))


def test_hh_entries_can_be_negative():
    R = categorical_matrix(K.HH, SymmetricHyperMatrix(K.HH, 2, [3.0]))
    assert R[0, 1] == pytest.approx(math.cos(3.0))
    assert R[0, 1] < 0


# ---------------------------------------------------------------------------
# reductions between kinds
# ---------------------------------------------------------------------------

def test_gd_reduces_to_cr():
    rng = np.random.default_rng(21)
    for _ in range(100):
        L = int(rng.integers(2, 14))
        theta = float(rng.uniform(0.0, 10.0))
        R_gd = categorical_matrix(K.GD, SymmetricHyperMatrix(K.GD, L, [theta]))
        R_cr = categorical_matrix(K.CR, SymmetricHyperMatrix(K.CR, L, np.full(L, theta / 2)))
        assert np.max(np.abs(R_gd - R_cr)) < 1e-12


def test_cr_reduces_to_fe():
    rng = np.random.default_rng(22)
    for _ in range(100):
        L = int(rng.integers(2, 14))
        diag = rng.uniform(0.0, 10.0, L)
        values = np.zeros(L * (L + 1) // 2)
        pos = 0
        for row in range(L):
            pos += row
            values[pos] = diag[row]
            pos += 1
        R_fe = categorical_matrix(K.FE, SymmetricHyperMatrix(K.FE, L, values))
        R_cr = categorical_matrix(K.CR, SymmetricHyperMatrix(K.CR, L, diag))
        assert np.max(np.abs(R_fe - R_cr)) < 1e-12


def test_ehh_roundtrip_through_correlation():
    rng = np.random.default_rng(23)
    for _ in range(40):
        L = int(rng.integers(2, 14))
        source = random_hyper(K.EHH, L, rng)
        T = categorical_matrix(K.EHH, source)
        if np.any(T <= EPSILON):
            continue
        recovered = recover_angles_from_correlation(T)
        T2 = categorical_matrix(K.EHH, recovered)
        assert np.max(np.abs(T2 - T)) < 1e-10


def test_recover_angles_near_epsilon():
    T = np.eye(3)
    T[T == 0] = EPSILON * 1.01
    recovered = recover_angles_from_correlation(T)
    assert np.all(np.abs(recovered.values - math.pi / 2) < 0.05)


def test_recover_rejects_out_of_range():
    T = np.eye(2)
    with pytest.raises(NotRepresentable):
        recover_angles_from_correlation(T)  # zeros below epsilon
    with pytest.raises(NotRepresentable):
        recover_angles_from_correlation(np.array([[1.0, 0.5], [0.5, 0.9]]))


def test_gram_to_angles_roundtrip():
    rng = np.random.default_rng(24)
    for L in (2, 6, 13):
        packed = rng.uniform(0.1, math.pi - 0.1, L * (L - 1) // 2)
        C = hypersphere_lower_triangular(SymmetricHyperMatrix(K.HH, L, packed))
        gram = C @ C.T
        packed2 = gram_to_angles(gram)
        C2 = hypersphere_lower_triangular(SymmetricHyperMatrix(K.HH, L, packed2))
        assert np.max(np.abs(C2 @ C2.T - gram)) < 1e-12


# ---------------------------------------------------------------------------
# p-irrelevance and the mixed kernel
# ---------------------------------------------------------------------------

def test_categorical_independent_of_p():
    rng = np.random.default_rng(31)
    space = DesignSpace((Categorical("c", tuple(str(i) for i in range(6))),))
    for kind in ALL_KINDS:
        m = random_hyper(kind, 6, rng)
        theta = HyperparameterSet(kind, [], [], (m,))
        w1 = MixedPoint(categorical=(2,))
        w2 = MixedPoint(categorical=(5,))
        assert mixed_kernel(w1, w2, theta, 1) == mixed_kernel(w1, w2, theta, 2)


def test_mixed_kernel_symmetry_and_self():
    rng = np.random.default_rng(32)
    for kind in ALL_KINDS:
        theta = HyperparameterSet(
            kind, rng.uniform(0, 3, 2), rng.uniform(0, 3, 1),
            (random_hyper(kind, 4, rng),),
        )
        for _ in range(20):
            a = MixedPoint(tuple(rng.random(2)), (float(rng.integers(0, 4)),),
                           (int(rng.integers(1, 5)),))
            b = MixedPoint(tuple(rng.random(2)), (float(rng.integers(0, 4)),),
                           (int(rng.integers(1, 5)),))
            assert mixed_kernel(a, b, theta) == pytest.approx(mixed_kernel(b, a, theta), rel=1e-14)
            assert mixed_kernel(a, a, theta) == 1.0


def test_mixed_kernel_pure_categorical_matches_level_correlation():
    rng = np.random.default_rng(33)
    m = random_hyper(K.EHH, 5, rng)
    theta = HyperparameterSet(K.EHH, [], [], (m,))
    phi = phi_transform(K.EHH, m)
    value = mixed_kernel(MixedPoint(categorical=(1,)), MixedPoint(categorical=(4,)), theta)
    assert value == pytest.approx(level_correlation(K.EHH, phi, 1, 4), rel=1e-14)


def test_mixed_kernel_product_structure():
    rng = np.random.default_rng(34)
    m = random_hyper(K.CR, 3, rng)
    theta = HyperparameterSet(K.CR, [1.7], [], (m,))
    a = MixedPoint((0.2,), (), (1,))
    b = MixedPoint((0.9,), (), (3,))
    k_cont = continuous_kernel((0.2,), (0.9,), [1.7], 2)
    k_cat = level_correlation(K.CR, phi_transform(K.CR, m), 1, 3)
    assert mixed_kernel(a, b, theta, 2) == pytest.approx(k_cont * k_cat, rel=1e-14)


# ---------------------------------------------------------------------------
# hyperparameter counting and packing
# ---------------------------------------------------------------------------

def test_hyperparameter_count_cosine_space():
    space = DesignSpace((
        Continuous("x", 0.0, 1.0),
        Categorical("c", tuple(str(i) for i in range(1, 14))),
    ))
    assert hyperparameter_count(space, K.GD) == 2
    assert hyperparameter_count(space, K.CR) == 14
    assert hyperparameter_count(space, K.EHH) == 79
    assert hyperparameter_count(space, K.FE) == 92
    assert hyperparameter_count(space, K.HH) == 79


def test_hyperparameter_count_two_level_ehh():
    assert categorical_param_count(K.EHH, 2) == 1


def test_flat_roundtrip_all_kinds():
    rng = np.random.default_rng(41)
    space = DesignSpace((
        Continuous("x", 0.0, 1.0),
        Integer("z", 0, 3),
        Categorical("u", tuple("abc")),
        Categorical("v", tuple("pqrs")),
    ))
    for kind in ALL_KINDS:
        mats = tuple(random_hyper(kind, L, rng) for L in space.level_counts)
        theta = HyperparameterSet(kind, rng.uniform(0.1, 2, 1), rng.uniform(0.1, 2, 1), mats)
        flat = theta.flat()
        assert flat.size == hyperparameter_count(space, kind)
        rebuilt = HyperparameterSet.from_flat(space, kind, flat)
        assert np.array_equal(rebuilt.flat(), flat)
        # search-space roundtrip: log on exponential coordinates
        vec = search_vector_from_set(space, theta)
        again = set_from_search_vector(space, kind, vec)
        assert np.allclose(again.flat(), flat, rtol=1e-12)


def test_hyperparameter_set_rejects_negative_rates():
    with pytest.raises(ValueError, match=">= 0"):
        HyperparameterSet(K.GD, [-1.0], [], ())
    with pytest.raises(ValueError, match=">= 0"):
        HyperparameterSet(K.GD, [], [-0.5], ())
    with pytest.raises(ValueError, match=">= 0"):
        SymmetricHyperMatrix(K.FE, 2, [1.0, 0.3, -2.0])  # FE diagonal slot
    SymmetricHyperMatrix(K.HH, 2, [3.0])  # angles carry no sign constraint


def test_search_bounds_layout():
    space = DesignSpace((Continuous("x", 0.0, 1.0), Categorical("c", tuple("abc"))))
    lower, upper, mask = search_bounds(space, K.EHH)
    assert lower.size == hyperparameter_count(space, K.EHH) == 4
    assert mask.tolist() == [True, False, False, False]
    assert upper[1] == pytest.approx(math.pi / 2)
    _, upper_hh, _ = search_bounds(space, K.HH)
    assert upper_hh[1] == pytest.approx(math.pi)
