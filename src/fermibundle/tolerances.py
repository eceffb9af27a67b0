"""Default numeric tolerances.

All dense double precision on matrices of dimension at most 64, so a single
set of thresholds works across the package.
"""

# algebraic identity checks (brackets, Clifford relations, pseudo-symmetry)
ALG_TOL = 1e-10

# orthonormalization residuals and closed-form formula matches
ORTHO_TOL = 1e-12

# singular value below which input vectors count as rank deficient
RANK_TOL = 1e-10

# spectral distance between adjacent fibers above which a bundle is flagged
CONTINUITY_TOL = 0.5

# allowed defect between the plaquette flux sum and an integer Chern number
CHERN_RESIDUAL = 0.05
