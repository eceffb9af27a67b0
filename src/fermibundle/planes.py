"""Annihilation planes: orthonormal frames, projectors, and pairing checks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, ValidationError
from .nambu import (NambuSpace, _frozen, _generator_matrix, _monomial_form,
                    _numbers)
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
        F = _numbers(self.frame, "frame", copy=True)    # not the caller's array
        d = self.space.dim
        if F.ndim != 2 or F.shape[0] != d:
            raise InputError(
                f"frame has shape {F.shape}, expected ({d}, m)")
        _check_frames(F[None])
        object.__setattr__(self, "frame", _frozen(F))

    @property
    def rank(self) -> int:
        return self.frame.shape[1]

    @cached_property
    def projector(self) -> np.ndarray:
        return _frozen(self.frame @ self.frame.conj().T)


def _check_frames(F: np.ndarray) -> None:
    """Rank and orthonormality of a (P, d, m) frame stack of finite entries.

    A failed orthonormality check names the first bad point of a stack
    of more than one frame.
    """
    P, d, m = F.shape
    if not 1 <= m < d:
        raise InputError(f"plane rank must lie in [1, {d - 1}], got {m}")
    dev = np.empty(P)
    for blk in _blocks(P, 16 * d * m):
        X = F[blk]
        dev[blk] = np.abs(_mm(_dagger(X), X) - np.eye(m)).max(axis=(1, 2))
    bad = np.flatnonzero(dev > ORTHO_TOL)
    if bad.size:
        at = f" at point {bad[0]}" if P > 1 else ""
        raise ValidationError(f"frame columns are not orthonormal{at}")


def plane_from_vectors(space: NambuSpace, vectors) -> Plane:
    """Orthonormalize a list of spanning vectors into a :class:`Plane`.

    Raises
    ------
    InputError
        If the vectors are linearly dependent (smallest singular value
        below ``RANK_TOL``).
    """
    V = _numbers(vectors, "vectors")
    if V.ndim != 2 or not len(V) or V.shape[1] != space.dim:
        raise InputError(f"vectors have shape {V.shape}, expected "
                         f"(k, {space.dim}) with k >= 1")
    U, s, _ = np.linalg.svd(V.T, full_matrices=False)
    if s.min() < RANK_TOL:
        raise InputError(
            f"rank-deficient input: smallest singular value {s.min():.3e}")
    return Plane(space, U[:, : len(V)])


def complement(A: Plane) -> Plane:
    """Orthogonal complement A^c, with projector 1 - Pi_A."""
    return Plane(A.space, _complements(A.frame))


def _complements(F: np.ndarray) -> np.ndarray:
    """Orthonormal frames of the complements of a (..., d, m) frame stack."""
    return np.linalg.qr(F, mode="complete")[0][..., F.shape[-1]:]


def j_of(A: Plane) -> np.ndarray:
    """The unitary J(A) = i (Pi_A - Pi_{A^c}), multiplication by i on A."""
    return 1j * (2.0 * A.projector - np.eye(A.space.dim))


def plane_distance(A: Plane, B: Plane) -> float:
    """Spectral norm of the projector difference, a metric on planes."""
    return float(np.linalg.norm(A.projector - B.projector, 2))


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


# The blocked passes (frame, pseudo and Fermi checks, the edge pass) hand
# _mm one block at a time and hold no temporary larger than this, so their
# memory does not grow with the number of grid points.  It stays below
# glibc's default 128 KiB mmap threshold, above which each temporary is
# mapped afresh and page-faulted in again on every call.  A steady-state
# sphere-mem pass of perfbench took 1,757 minor page faults and 5.1 ms of
# system time with a 512 KiB budget and whole-stack sums in _mm, and takes
# 299 and 1.1 ms (2 shared vCPUs, glibc 2.36, numpy 2.4).
_BLOCK_BYTES = 96 << 10


def _blocks(count: int, item_bytes: int):
    """Slices covering range(count), each within the temporary budget."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


def _dagger(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return np.conj(np.swapaxes(X, -1, -2))


def _cmul(a, b) -> np.ndarray:
    """Elementwise complex product, each real operation rounded alone.

    numpy's vectorized complex multiply fuses multiply and add on some
    CPUs; spelled out, a product is the same on every machine and equal
    to the product of Python complex numbers.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _apply(M: np.ndarray, F: np.ndarray, form=None) -> np.ndarray:
    """M F for a matrix M and every F of a (P, d, m) stack.

    For a monomial M, of form (perm, sign), row i of M F is sign[i]
    F[perm[i]], a gather and an exact product equal to the dense one.
    Otherwise M F is one GEMM over the stack reshaped to (P m, d) rows.
    A caller that applies M block by block passes M's ``form`` once found.
    """
    form = _monomial_form(M) if form is None else form
    if form is not None:
        perm, sign = form
        MF = F[:, perm]
        MF *= sign[:, None]
        return MF
    P, d, m = F.shape
    rows = np.swapaxes(F, 1, 2).reshape(-1, d) @ M.T
    return rows.reshape(P, m, -1).swapaxes(1, 2)


def _mm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stacked product A B of a (P, r, k) and a (P, k, c) stack.

    ``A @ B`` makes one BLAS call per matrix.  For r k c <= 32 the k
    outer products are summed by broadcasting instead, on copies with the
    stack axis last and into one output laid out the same way: 0.6 against
    1.8 ms for 4288 (2x4)(4x2) products and 20 against 26 us for 66, but
    no gain at r k c = 64 (2.0 against 2.2 ms; 2 shared vCPUs, numpy
    2.4).  The shape alone picks the path, and the terms are added in the
    same order for every element, so a product rounds the same in every
    stack and block.  Callers that must bound their temporaries pass one
    block at a time (see ``_BLOCK_BYTES``).
    """
    P, r, k = A.shape
    c = B.shape[-1]
    if r * k * c > 32:
        return A @ B
    At = np.ascontiguousarray(A.transpose(1, 2, 0))
    Bt = np.ascontiguousarray(B.transpose(1, 2, 0))
    out = At[:, 0, None] * Bt[None, 0]
    for i in range(1, k):
        out += At[:, i, None] * Bt[None, i]
    return out.transpose(2, 0, 1)


def _spectral_norms(X: np.ndarray) -> np.ndarray:
    """Spectral norm (largest singular value) of every matrix in a stack.

    The norm of an (r, m) matrix X is the square root of the largest
    eigenvalue of its m x m Gram matrix G = X^H X.  For m = 1 that is
    G_00; for m = 2 it is (a + d)/2 + hypot((a - d)/2, |b|) with
    a = G_00, d = G_11, b = G_01, a sum of non-negative terms; for m > 2
    it comes from ``eigvalsh``.  The largest eigenvalue of a positive
    semi-definite matrix is perturbed by at most a few ulps of |G| =
    |X|^2 when G is formed in floating point, so the norm is accurate to
    a few ulps relative, as from an SVD.  X itself is formed by the
    caller, never recovered from a difference like 1 - cos^2.  Squares
    add row after row: numpy's sum over the short row axis took 3x as long
    (768 (4 x 2) matrices, 2 shared vCPUs, numpy 2.4).

    Meant for finite entries of order 1: squares of entries below about
    1e-154 underflow and read as 0, far below every tolerance.
    """
    m = X.shape[-1]
    if m > 2:
        return np.sqrt(np.linalg.eigvalsh(_dagger(X) @ X)[..., -1])
    sq = X.real ** 2 + X.imag ** 2
    diag = sum((sq[..., i, :] for i in range(1, X.shape[-2])), sq[..., 0, :])
    if m == 1:
        return np.sqrt(diag[..., 0])
    a, d = diag[..., 0], diag[..., 1]
    b = np.abs((X[..., 0].conj() * X[..., 1]).sum(axis=-1))
    return np.sqrt((a + d) / 2 + np.hypot((a - d) / 2, b))


def _pseudo_deviations(gens, frames: np.ndarray) -> np.ndarray:
    """Largest :func:`pseudo_check` over ``gens`` at every frame of a stack.

    ``frames`` is a (P, d, m) array of orthonormal frames, and Pi = F F^H
    and 1 - Pi are formed once per block for all generators.  For a
    monomial J, J[i, perm[i]] = sign[i], the entries of J Pi J^dagger are
    sign[i] conj(sign[j]) Pi[perm[i], perm[j]]: one gather from Pi and a
    product by units, which is exact.  Any other J takes (J F)(J F)^dagger.
    No generators give zero deviations.
    """
    d = frames.shape[1]
    ops = []
    for J in gens:
        M = _generator_matrix(J, d)
        form = _monomial_form(M)
        if form is not None:
            perm, sign = form
            form = ((perm[:, None] * d + perm).ravel(),
                    np.outer(sign, sign.conj()))
        ops.append((M, form))
    eye = np.eye(d)
    out = np.zeros(len(frames))
    for blk in _blocks(len(frames), 16 * d * d):
        F = frames[blk]
        Pi = _mm(F, _dagger(F))
        comp = eye - Pi
        # gather in Pi's layout: _mm returns small products with the stack
        # axis last, which a fancy index keeps and take does not
        flat = Pi.reshape(len(Pi), d * d)
        last = flat.strides[0] < flat.strides[1]
        for M, form in ops:
            if form is None:
                MF = _apply(M, F)
                dev = _mm(MF, _dagger(MF))
            else:
                index, phases = form
                dev = (flat[:, index] if last else flat.take(index, 1)
                       ).reshape(Pi.shape)
                dev *= phases
            dev -= comp
            out[blk] = np.maximum(out[blk], np.abs(dev).max(axis=(1, 2)))
    return out


def _require_pseudo(gens, frames: np.ndarray, what: str) -> None:
    """ValidationError naming the first four points (and deviations) of a
    frame stack at which a generator of ``gens`` is no pseudo-symmetry."""
    devs = _pseudo_deviations(gens, frames)
    bad = np.flatnonzero(devs > ALG_TOL)
    if bad.size:
        head = ", ".join(f"{p} ({devs[p]:.3e})" for p in bad[:4])
        more = "" if bad.size <= 4 else f" and {bad.size - 4} more"
        raise ValidationError(
            f"fibers are not pseudo-symmetric {what} at points {head}{more}")


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
    return Plane(A.space,
                 A.space.bracket_matrix @ np.conj(_complements(A.frame)))


def vacuum_plane(space: NambuSpace) -> Plane:
    """The plane spanned by the bare annihilation operators c_1, ..., c_n."""
    F = np.zeros((space.dim, space.n), dtype=complex)
    F[: space.n, :] = np.eye(space.n)
    return Plane(space, F)


def is_lagrangian(A: Plane) -> bool:
    """Whether A has rank n and the bracket vanishes on it to ``ALG_TOL``."""
    return A.rank == A.space.n and fermi_check(A, A) < ALG_TOL
