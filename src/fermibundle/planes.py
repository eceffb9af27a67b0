"""Annihilation planes: orthonormal frames, projectors, and pairing checks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, ValidationError
from .nambu import NambuSpace, _frozen, _generator_matrix, _require_finite
from .tolerances import ALG_TOL, ORTHO_TOL, RANK_TOL


@dataclass(frozen=True, eq=False)
class Plane(object):
    """A subspace A of the ambient space, stored as an orthonormal frame.

    Two frames related by a right unitary factor denote the same plane;
    comparisons therefore go through the projector, which is basis free.
    The frame columns are the Bogoliubov coefficients of the quasi-particle
    operators spanning A.
    """

    space: NambuSpace
    frame: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.frame, dtype=complex)
        d = self.space.dim
        if F.ndim != 2 or F.shape[0] != d:
            raise InputError(
                f"frame has shape {F.shape}, expected ({d}, m)")
        m = F.shape[1]
        if not 1 <= m < d:
            raise InputError(f"plane rank must lie in [1, {d - 1}], got {m}")
        _require_finite(F, "frame")
        if np.abs(F.conj().T @ F - np.eye(m)).max() > ORTHO_TOL:
            raise ValidationError("frame columns are not orthonormal")
        object.__setattr__(self, "frame", _frozen(F))

    @property
    def rank(self) -> int:
        return self.frame.shape[1]

    @cached_property
    def projector(self) -> np.ndarray:
        return _frozen(self.frame @ self.frame.conj().T)


def plane_from_vectors(space: NambuSpace, vectors, rank_tol: float = RANK_TOL) -> Plane:
    """Orthonormalize a list of spanning vectors into a :class:`Plane`.

    Raises
    ------
    InputError
        If the vectors are linearly dependent (smallest singular value
        below ``rank_tol``).
    """
    M = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    if M.shape[0] != space.dim:
        raise InputError(
            f"vectors live in dimension {M.shape[0]}, expected {space.dim}")
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.min() < rank_tol:
        raise InputError(
            f"rank-deficient input: smallest singular value {s.min():.3e}")
    return Plane(space, U[:, : M.shape[1]])


def complement(A: Plane) -> Plane:
    """Orthogonal complement A^c, with projector 1 - Pi_A."""
    U, _, _ = np.linalg.svd(A.frame, full_matrices=True)
    return Plane(A.space, U[:, A.rank:])


def j_of(A: Plane) -> np.ndarray:
    """The unitary J(A) = i (Pi_A - Pi_{A^c}), multiplication by i on A."""
    return 1j * (2.0 * A.projector - np.eye(A.space.dim))


def _spectral_distance(P: np.ndarray, Q: np.ndarray) -> float:
    return float(np.linalg.norm(P - Q, 2))


def plane_distance(A: Plane, B: Plane) -> float:
    """Spectral norm of the projector difference, a metric on planes."""
    return _spectral_distance(A.projector, B.projector)


def fermi_check(A: Plane, B: Plane) -> float:
    """Sup-norm of the pairing matrix F_A^T B F_B.

    A value below tolerance certifies the Fermi constraint {A, B} = 0
    between the two planes.
    """
    if A.space.dim != B.space.dim:
        raise InputError("planes live in different ambient spaces")
    pairing = A.frame.T @ A.space.bracket_matrix @ B.frame
    return float(np.abs(pairing).max())


def pseudo_check(J, A: Plane) -> float:
    """Deviation of J Pi_A J^dagger from 1 - Pi_A (sup-norm).

    ``J`` may be a :class:`Generator` or a plain matrix.  A value below
    tolerance certifies the pseudo-symmetry condition J A = A^c, which is
    only satisfiable when A has half the ambient dimension; for other ranks
    the deviation is reported as-is.
    """
    d = A.space.dim
    M = _generator_matrix(J, d)
    Pi = A.projector
    return float(np.abs(M @ Pi @ M.conj().T - (np.eye(d) - Pi)).max())


def fermi_perp(A: Plane) -> Plane:
    """The bracket annihilator A^perp, the unique rank-n plane with {A^perp, A} = 0.

    Since {B conj(f), g} = <f, g> for the Hermitian inner product, the
    annihilator of A is obtained by applying v -> B conj(v) to a frame of
    the orthogonal complement of A.  Fixed points of this involution are
    exactly the Lagrangian planes.
    """
    n = A.space.n
    if A.rank != n:
        raise InputError(f"fermi_perp needs a rank-{n} plane, got rank {A.rank}")
    Fc = complement(A).frame
    return Plane(A.space, A.space.bracket_matrix @ np.conj(Fc))


def vacuum_plane(space: NambuSpace) -> Plane:
    """The plane spanned by the bare annihilation operators c_1, ..., c_n."""
    F = np.zeros((space.dim, space.n), dtype=complex)
    F[: space.n, :] = np.eye(space.n)
    return Plane(space, F)


def is_lagrangian(A: Plane, tol: float = ALG_TOL) -> bool:
    """Whether the bracket vanishes identically on A."""
    return A.rank == A.space.n and fermi_check(A, A) < tol
