import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedgp.errors import DimensionMismatch, NotRepresentable, ShapeMismatch
from mixedgp.kernels import (
    EPSILON,
    CategoricalKernelKind,
    HyperparameterSet,
    categorical_matrix,
    categorical_param_count,
    continuous_kernel,
    embed_hyper_matrix,
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
    search_from_natural,
    set_from_search_vector,
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
    C = hypersphere_lower_triangular(K.EHH, 2, [theta])
    assert np.allclose(C, [[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
    assert (C @ C.T)[0, 1] == pytest.approx(math.cos(theta))


def test_hypersphere_right_angles_identity():
    C = hypersphere_lower_triangular(K.EHH, 4, [math.pi / 2] * 6)
    assert np.allclose(C, np.eye(4), atol=1e-15)


def test_hypersphere_zero_angles_all_ones():
    C = hypersphere_lower_triangular(K.EHH, 4, [0.0] * 6)
    assert np.allclose(C @ C.T, np.ones((4, 4)))


def test_hypersphere_without_angles_has_zero_angles():
    # kinds without angles have an all-zero strict lower triangle
    for kind, L in ((K.GD, 3), (K.CR, 4)):
        C = hypersphere_lower_triangular(kind, L, np.ones(categorical_param_count(kind, L)))
        assert np.array_equal(C, hypersphere_lower_triangular(K.EHH, L, np.zeros(L * (L - 1) // 2)))


def test_hypersphere_rows_unit_norm():
    rng = np.random.default_rng(7)
    for L in range(2, 14):
        m = random_hyper(K.HH, L, rng)
        C = hypersphere_lower_triangular(K.HH, L, m)
        assert np.allclose(np.linalg.norm(C, axis=1), 1.0)
        gram = C @ C.T
        assert np.allclose(np.diag(gram), 1.0)
        assert np.all(gram >= -1.0 - 1e-12) and np.all(gram <= 1.0 + 1e-12)


def test_hypersphere_quarter_angles_entries_in_unit_interval():
    rng = np.random.default_rng(8)
    for L in (3, 8, 13):
        m = random_hyper(K.EHH, L, rng)
        C = hypersphere_lower_triangular(K.EHH, L, m)
        gram = C @ C.T
        assert np.all(gram >= -1e-12) and np.all(gram <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# phi transform and level correlations
# ---------------------------------------------------------------------------

def test_phi_gd_half_theta():
    phi = phi_transform(K.GD, 3, [4.0])
    assert np.allclose(phi, 2.0 * np.eye(3))


def test_phi_ehh_extremes():
    # gram entry 1 -> phi 0, gram entry 0 -> -(log eps)/2
    phi_ones = phi_transform(K.EHH, 2, [0.0])
    assert phi_ones[0, 1] == pytest.approx(0.0)
    phi_zero = phi_transform(K.EHH, 2, [math.pi / 2])
    assert phi_zero[0, 1] == pytest.approx(-math.log(EPSILON) / 2.0, rel=1e-12)


def test_phi_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        phi_transform(K.CR, 3, [1.0])


def test_level_correlation_same_level_is_one():
    rng = np.random.default_rng(5)
    for kind in ALL_KINDS:
        m = random_hyper(kind, 5, rng)
        phi = phi_transform(kind, 5, m)
        assert level_correlation(kind, phi, 3, 3) == 1.0


def test_level_correlation_cr_hand_value():
    phi = phi_transform(K.CR, 2, [0.7, 0.2])
    assert level_correlation(K.CR, phi, 1, 2) == pytest.approx(math.exp(-0.9), rel=1e-14)


def test_level_correlation_ehh_orthogonal_gives_epsilon():
    phi = phi_transform(K.EHH, 2, [math.pi / 2])
    assert level_correlation(K.EHH, phi, 1, 2) == pytest.approx(EPSILON, rel=1e-12)


# ---------------------------------------------------------------------------
# categorical matrices
# ---------------------------------------------------------------------------

def test_categorical_matrix_gd_zero_theta_all_ones():
    R = categorical_matrix(K.GD, 5, [0.0])
    assert np.array_equal(R, np.ones((5, 5)))


def test_categorical_matrix_ehh_right_angles():
    R = categorical_matrix(K.EHH, 3, [math.pi / 2] * 3)
    off = R[~np.eye(3, dtype=bool)]
    assert np.allclose(off, EPSILON, rtol=1e-9)
    assert np.all(np.diag(R) == 1.0)


def test_categorical_matrix_hh_right_angles_identity():
    R = categorical_matrix(K.HH, 4, [math.pi / 2] * 6)
    assert np.allclose(R, np.eye(4), atol=1e-15)


@pytest.mark.parametrize("kind", EXP_KINDS)
def test_spd_property(kind):
    rng = np.random.default_rng(11)
    sizes = list(range(2, 14))
    for draw in range(60):
        L = sizes[draw % len(sizes)]
        R = categorical_matrix(kind, L, random_hyper(kind, L, rng))
        assert np.array_equal(np.diag(R), np.ones(L))
        assert np.allclose(R, R.T)
        assert np.all(R >= 0.0) and np.all(R <= 1.0)
        assert np.linalg.eigvalsh(R).min() > 0
        if kind is K.EHH:
            assert np.all(R >= EPSILON * (1 - 1e-12))


def test_hh_entries_can_be_negative():
    R = categorical_matrix(K.HH, 2, [3.0])
    assert R[0, 1] == pytest.approx(math.cos(3.0))
    assert R[0, 1] < 0


# ---------------------------------------------------------------------------
# reductions between kinds
# ---------------------------------------------------------------------------

@st.composite
def packed(draw, kind, high=10.0):
    """(L, values): L from 2 to 13 and the kind's packed values for L levels, each in [0, high].

    The default ``high`` bounds rates and diagonals as ``random_hyper`` does.
    """
    L = draw(st.integers(2, 13))
    count = categorical_param_count(kind, L)
    return L, np.array(draw(st.lists(st.floats(0.0, high), min_size=count, max_size=count)))


@settings(max_examples=100, deadline=None)
@given(packed(K.GD))
def test_gd_reduces_to_cr(case):
    L, (theta,) = case
    R_gd = categorical_matrix(K.GD, L, [theta])
    R_cr = categorical_matrix(K.CR, L, np.full(L, theta / 2))
    assert np.max(np.abs(R_gd - R_cr)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(packed(K.CR))
def test_cr_reduces_to_fe(case):
    L, diag = case
    values = np.zeros(L * (L + 1) // 2)  # every angle 0: FE's Gram part is all ones
    values[np.cumsum(np.arange(1, L + 1)) - 1] = diag  # each row's angles, then its diagonal
    R_fe = categorical_matrix(K.FE, L, values)
    R_cr = categorical_matrix(K.CR, L, diag)
    assert np.max(np.abs(R_fe - R_cr)) < 1e-12


# angles at most 1.5 < pi/2 keep every Gram entry >= cos(1.5)^2 > 0, so
# every level correlation stays above epsilon, where the map inverts
@settings(max_examples=100, deadline=None)
@given(packed(K.EHH, high=1.5))
def test_ehh_roundtrip_through_correlation(case):
    L, source = case
    T = categorical_matrix(K.EHH, L, source)
    assert np.all(T > EPSILON)
    recovered = recover_angles_from_correlation(T)
    T2 = categorical_matrix(K.EHH, L, recovered)
    assert np.max(np.abs(T2 - T)) < 1e-10


def test_recover_angles_near_epsilon():
    T = np.eye(3)
    T[T == 0] = EPSILON * 1.01
    recovered = recover_angles_from_correlation(T)
    assert np.all(np.abs(recovered - math.pi / 2) < 0.05)


def test_recover_rejects_out_of_range():
    T = np.eye(2)
    with pytest.raises(NotRepresentable):
        recover_angles_from_correlation(T)  # zeros below epsilon
    with pytest.raises(NotRepresentable):
        recover_angles_from_correlation(np.array([[1.0, 0.5], [0.5, 0.9]]))


def test_embed_into_gd_needs_a_constant_diagonal():
    # GD packs one theta shared by every level (Theta_jj = theta/2)
    assert np.array_equal(embed_hyper_matrix(K.GD, K.CR, 3, [2.0, 2.0, 2.0]), [4.0])
    assert np.array_equal(categorical_matrix(K.GD, 3, [4.0]),
                          categorical_matrix(K.CR, 3, [2.0, 2.0, 2.0]))
    with pytest.raises(NotRepresentable, match="not constant"):
        embed_hyper_matrix(K.GD, K.CR, 3, [1.0, 2.0, 3.0])


def test_embed_into_a_diagonal_kind_rejects_angles():
    # GD, CR and FE take only the source's diagonal; EHH carries its correlations in angles
    for kind in (K.GD, K.CR, K.FE):
        with pytest.raises(NotRepresentable, match="angles"):
            embed_hyper_matrix(kind, K.EHH, 3, [0.3, 0.9, 1.2])


def test_gram_to_angles_roundtrip():
    rng = np.random.default_rng(24)
    for L in (2, 6, 13):
        packed = rng.uniform(0.1, math.pi - 0.1, L * (L - 1) // 2)
        C = hypersphere_lower_triangular(K.HH, L, packed)
        gram = C @ C.T
        packed2 = gram_to_angles(gram)
        C2 = hypersphere_lower_triangular(K.HH, L, packed2)
        assert np.max(np.abs(C2 @ C2.T - gram)) < 1e-12


# ---------------------------------------------------------------------------
# p-irrelevance and the mixed kernel
# ---------------------------------------------------------------------------

def test_categorical_independent_of_p():
    rng = np.random.default_rng(31)
    space = DesignSpace((Categorical("c", tuple(str(i) for i in range(6))),))
    for kind in ALL_KINDS:
        m = random_hyper(kind, 6, rng)
        theta = HyperparameterSet.from_flat(space, kind, m)
        w1 = MixedPoint(categorical=(2,))
        w2 = MixedPoint(categorical=(5,))
        assert mixed_kernel(w1, w2, theta, 1) == mixed_kernel(w1, w2, theta, 2)


def test_mixed_kernel_symmetry_and_self():
    rng = np.random.default_rng(32)
    for kind in ALL_KINDS:
        theta = HyperparameterSet(kind, (3, (4,)), np.concatenate([
            rng.uniform(0, 3, 2), rng.uniform(0, 3, 1), random_hyper(kind, 4, rng),
        ]))
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
    theta = HyperparameterSet(K.EHH, (0, (5,)), m)
    phi = phi_transform(K.EHH, 5, m)
    value = mixed_kernel(MixedPoint(categorical=(1,)), MixedPoint(categorical=(4,)), theta)
    assert value == pytest.approx(level_correlation(K.EHH, phi, 1, 4), rel=1e-14)


def test_mixed_kernel_product_structure():
    rng = np.random.default_rng(34)
    m = random_hyper(K.CR, 3, rng)
    theta = HyperparameterSet(K.CR, (1, (3,)), np.concatenate([[1.7], m]))
    a = MixedPoint((0.2,), (), (1,))
    b = MixedPoint((0.9,), (), (3,))
    k_cont = continuous_kernel((0.2,), (0.9,), [1.7], 2)
    k_cat = level_correlation(K.CR, phi_transform(K.CR, 3, m), 1, 3)
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
        mats = [random_hyper(kind, L, rng) for L in space.level_counts]
        flat = np.concatenate([rng.uniform(0.1, 2, 1), rng.uniform(0.1, 2, 1), *mats])
        assert flat.size == hyperparameter_count(space, kind)
        rebuilt = HyperparameterSet.from_flat(space, kind, flat)
        assert np.array_equal(rebuilt.flat, flat)
        # search-space roundtrip: log on exponential coordinates
        vec = search_from_natural(rebuilt.flat, search_bounds(space, kind)[2])
        again = set_from_search_vector(space, kind, vec)
        assert np.allclose(again.flat, flat, rtol=1e-12)


def test_hyperparameter_set_equality():
    one = DesignSpace((Continuous("x", 0.0, 1.0),))
    two = DesignSpace((Continuous("x", 0.0, 1.0), Integer("z", 0, 3)))
    a = HyperparameterSet.from_flat(one, K.GD, [1.0])
    b = HyperparameterSet.from_flat(two, K.GD, [1.0, 2.0])
    assert a == HyperparameterSet.from_flat(one, K.GD, [1.0])
    assert b == HyperparameterSet.from_flat(two, K.GD, [1.0, 2.0])
    assert a != b and a != "gd"
    assert a != HyperparameterSet.from_flat(one, K.GD, [2.0])
    assert a != HyperparameterSet.from_flat(one, K.CR, [1.0])
    assert a != HyperparameterSet.from_flat(one, K.GD, [1.0], epsilon=1e-6)


def test_hyperparameter_set_rejects_negative_rates():
    continuous = DesignSpace((Continuous("x", 0.0, 1.0),))
    integer = DesignSpace((Integer("z", 0, 3),))
    two_levels = DesignSpace((Categorical("c", ("a", "b")),))
    with pytest.raises(ValueError, match=">= 0"):
        HyperparameterSet.from_flat(continuous, K.GD, [-1.0])
    with pytest.raises(ValueError, match=">= 0"):
        HyperparameterSet.from_flat(integer, K.GD, [-0.5])
    with pytest.raises(ValueError, match=">= 0"):
        HyperparameterSet.from_flat(two_levels, K.FE, [1.0, 0.3, -2.0])  # FE diagonal slot
    HyperparameterSet.from_flat(two_levels, K.HH, [3.0])  # angles carry no sign constraint


def test_search_bounds_layout():
    space = DesignSpace((Continuous("x", 0.0, 1.0), Categorical("c", tuple("abc"))))
    lower, upper, mask = search_bounds(space, K.EHH)
    assert lower.size == hyperparameter_count(space, K.EHH) == 4
    assert mask.tolist() == [True, False, False, False]
    assert upper[1] == pytest.approx(math.pi / 2)
    _, upper_hh, _ = search_bounds(space, K.HH)
    assert upper_hh[1] == pytest.approx(math.pi)
