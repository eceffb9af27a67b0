"""Every numeric threshold of the package, set once.  All the arithmetic is
dense double precision on matrices of dimension at most 64, so one set serves
the whole package."""

# algebraic identity checks (brackets, Clifford relations, pseudo-symmetry)
ALG_TOL = 1e-10

# orthonormalization residuals and closed-form formula matches
ORTHO_TOL = 1e-12

# singular value below which input vectors count as rank deficient
RANK_TOL = 1e-10

# edge spectral distance that validation flags, and winding and faces refuse
CONTINUITY_TOL = 0.5

# residual of an identity derived from inputs checked against ALG_TOL
DERIVED_TOL = 1e-8

# |det| below which a bilinear form counts as degenerate, and pivot column,
# relative to max(1, |X|), below which a Pfaffian is zero
DET_FLOOR = 1e-8
PIVOT_FLOOR = 1e-13

# largest pseudo/Fermi tolerance that `fermibundle validate --tol` accepts
MAX_TOL = 1e-3
