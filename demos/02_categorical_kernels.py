"""The five categorical correlation kernels and their relationships.

Shows the hypersphere decomposition, the level correlation matrices of
GD/CR/EHH/FE/HH for one 4-level variable, the nesting reductions
(GD -> CR -> FE) and the exact angle recovery behind the EHH/HH
equivalence.  Every function takes one variable's hyperparameters as
packed values: the entries of Theta its kind keeps, row-major lower
triangle (GD one theta, CR the diagonal, EHH/HH the angles, FE both).
"""

import numpy as np

from mixedgp import (
    EPSILON,
    CategoricalKernelKind,
    categorical_matrix,
    hypersphere_lower_triangular,
    recover_angles_from_correlation,
)

K = CategoricalKernelKind
L = 4
rng = np.random.default_rng(1)
np.set_printoptions(precision=4, suppress=True)

# --- hypersphere decomposition ---------------------------------------------
angles = rng.uniform(0.2, np.pi / 2 - 0.2, L * (L - 1) // 2)
C = hypersphere_lower_triangular(K.EHH, L, angles)
print("hypersphere factor C (rows have unit norm):")
print(C)
print("row norms:", np.linalg.norm(C, axis=1))

# --- the five kernels on one variable ---------------------------------------
print("\nGD, one shared correlation:")
print(categorical_matrix(K.GD, L, [1.2]))
print("\nCR, rank-one-style correlations from per-level rates:")
print(categorical_matrix(K.CR, L, [0.1, 0.5, 1.0, 2.0]))
print("\nEHH, free SPD structure with entries in [eps, 1]:")
R_ehh = categorical_matrix(K.EHH, L, angles)
print(R_ehh)
print("\nHH, direct Gram matrix, may carry negative correlations:")
print(categorical_matrix(K.HH, L, rng.uniform(0, np.pi, 6)))

# --- nesting: GD is a CR instance, CR is an FE instance ----------------------
theta = 1.2
R_gd = categorical_matrix(K.GD, L, [theta])
R_cr = categorical_matrix(K.CR, L, np.full(L, theta / 2))
print("\nGD == CR with diagonal theta/2:", np.array_equal(R_gd, R_cr))

fe_values = np.zeros(L * (L + 1) // 2)
pos = 0
for row in range(L):
    pos += row
    fe_values[pos] = [0.1, 0.5, 1.0, 2.0][row]
    pos += 1
R_fe = categorical_matrix(K.FE, L, fe_values)
R_cr2 = categorical_matrix(K.CR, L, [0.1, 0.5, 1.0, 2.0])
print("CR == FE with zero angles:", np.array_equal(R_fe, R_cr2))

# --- EHH <-> HH: any admissible correlation matrix is reachable --------------
recovered = recover_angles_from_correlation(R_ehh)
R_again = categorical_matrix(K.EHH, L, recovered)
print("\nangle recovery roundtrip error:", float(np.max(np.abs(R_again - R_ehh))))
print("all EHH entries at least eps =", EPSILON, ":", bool(np.all(R_ehh >= EPSILON)))
