"""Topological diagnostics for plane bundles.

Everything here reduces to finite linear algebra on stored fibers: Pfaffian
signs at self-antipodal momenta, the Pfaffian field of a skew bilinear form
over the sphere, and phase-accumulation formulas for winding and Chern
numbers and for the Kane-Mele index, which sums plaquette fluxes over the
northern half-sphere against the link phases of its t = 0 boundary row in
a time-reversal gauge.  Phase bookkeeping uses principal branches; the
winding and the plaquette sums refuse, with :class:`NumericError`, a step
or a face side that the continuity check of validation flags instead of
silently returning a wrong integer.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bundles import Bundle
from .errors import InputError, NumericError, ValidationError
from .nambu import (Generator, NambuSpace, _eigensplit, _frozen,
                    _generator_matrix, _numbers, _unchecked, make_nambu)
from .planes import (Plane, _apply, _cmul, _dagger, _mm, _require_pseudo,
                     _spectral_norms, fermi_check, vacuum_plane)
from .tolerances import (ALG_TOL, CONTINUITY_TOL, DERIVED_TOL, DET_FLOOR,
                         PIVOT_FLOOR)

_KINDS = ("parity_bit", "z2_bit", "winding_int", "chern_int",
          "component_index")


@dataclass(frozen=True, eq=False)
class InvariantResult:
    """Outcome of one topological index computation.

    ``kind`` names the index family, ``value`` is the integer result, and
    ``diagnostics`` carries per-kind payload such as Pfaffians or
    plaquette fluxes.
    """

    kind: str
    value: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown invariant kind {self.kind!r}")
        object.__setattr__(self, "value", int(self.value))
        if self.kind.endswith("_bit") and self.value not in (0, 1):
            raise InputError(f"{self.kind} value must be 0 or 1")


def _pfaffians(X: np.ndarray) -> np.ndarray:
    """Pfaffians of a (S, m, m) stack of skew-symmetric matrices.

    Parlett-Reid elimination with partial pivoting, run on the whole stack
    at once.  Each matrix keeps its own skew check, against ``ALG_TOL``
    max(1, scale), its own zero-pivot rule (a pivot column below
    ``PIVOT_FLOOR`` max(1, scale) gives Pfaffian 0), and its own sign,
    flipped by every symmetric row-and-column swap.  Odd m gives zeros.
    """
    A = np.array(X, dtype=complex)
    S, m = A.shape[0], A.shape[2]
    scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
    skew = np.abs(A + np.swapaxes(A, 1, 2)).max(axis=(1, 2))
    if (skew > ALG_TOL * scale).any():
        raise ValidationError("matrix is not skew-symmetric")
    out = np.zeros(S, dtype=complex)
    if m % 2:
        return out
    tiny = PIVOT_FLOOR * scale
    live = np.arange(S)             # matrices without a zero pivot so far
    pf = np.ones(S, dtype=complex)
    for k in range(0, m - 1, 2):
        col = np.abs(A[:, k + 1:, k])
        keep = col.max(axis=1) > tiny
        if not keep.all():
            A, col, live, pf, tiny = (A[keep], col[keep], live[keep],
                                      pf[keep], tiny[keep])
        p = np.argmax(col, axis=1) + k + 1
        r = np.arange(len(A))
        row = A[r, k + 1].copy()
        A[r, k + 1] = A[r, p]
        A[r, p] = row
        column = A[r, :, k + 1].copy()
        A[r, :, k + 1] = A[r, :, p]
        A[r, :, p] = column
        pf = _cmul(np.where(p != k + 1, -pf, pf), A[:, k, k + 1])
        if k + 2 < m:
            tau = A[:, k + 2:, k] / A[:, k, k + 1, None]
            colv = A[:, k + 2:, k + 1].copy()
            A[:, k + 2:, k + 2:] += (colv[:, :, None] * tau[:, None, :]
                                     - tau[:, :, None] * colv[:, None, :])
    out[live] = pf
    return out


def pfaffian(X) -> complex:
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Uses Parlett-Reid elimination with partial pivoting; every symmetric
    row-and-column swap flips the sign.  Satisfies Pf(X)^2 = det(X).  A
    matrix not skew to within ``ALG_TOL`` max(1, |X|) is a ValidationError.

    An odd-dimensional skew matrix has Pfaffian zero by convention; that
    case returns 0 with a warning since it usually signals a caller bug.
    """
    A = _numbers(X, "matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        return complex(1.0)
    pf = complex(_pfaffians(A[None])[0])
    if A.shape[0] % 2:
        warnings.warn("odd-dimensional skew matrix has Pfaffian 0",
                      RuntimeWarning, stacklevel=2)
    return pf


def omega_form(space: NambuSpace, J1) -> np.ndarray:
    """The read-only matrix W = J1^T B of the skew bilinear form
    (v, w) -> (J1 v)^T B w of a real pseudo-symmetry generator.

    ``J1`` may be a :class:`Generator` or a matrix.  Skew-symmetry of W is
    equivalent to J1 being a real generator squaring to -1, so passing an
    imaginary generator fails the skewness check.
    """
    M = _generator_matrix(J1, space.dim)
    W = M.T @ space.bracket_matrix
    if np.abs(W + W.T).max() > ALG_TOL:
        raise ValidationError(
            "bilinear form is not skew-symmetric; a real generator with "
            "square -1 is required")
    if abs(np.linalg.det(W)) < DET_FLOOR:
        raise ValidationError("bilinear form is degenerate")
    return _frozen(W)


def pfaffian_field(bundle: Bundle, J1) -> np.ndarray:
    """Pfaffian at every grid point of the :func:`omega_form` of ``J1``, a
    generator or its matrix, restricted to the fiber.  A ``J1`` that some
    fiber is not pseudo-symmetric under, a form W say, is a ValidationError."""
    W = omega_form(bundle.space, J1)
    if bundle.rank % 2:
        raise InputError("the Pfaffian field needs even-rank fibers")
    F = bundle.frames
    _require_pseudo([J1], F, "under J1")
    return _pfaffians(_mm(np.swapaxes(F, 1, 2), _apply(W, F)))


def _majorana_pfaffian(space: NambuSpace, A: Plane) -> float:
    """Pfaffian of the reflection through A in the Majorana basis."""
    Om = space.majorana_transform
    S = np.eye(space.dim) - 2.0 * A.projector
    X = -1j * (Om @ S @ Om.conj().T)
    if np.abs(X.imag).max() > DERIVED_TOL:
        raise NumericError("Majorana reflection is not real")
    Xr = X.real
    if (np.abs(Xr + Xr.T).max() > DERIVED_TOL
            or np.abs(Xr @ Xr.T - np.eye(space.dim)).max() > DERIVED_TOL):
        raise NumericError(
            "Majorana reflection is not antisymmetric orthogonal")
    return float(pfaffian(0.5 * (Xr - Xr.T)).real)


@functools.cache
def _vacuum_pfaffian(n: int) -> float:
    """Majorana Pfaffian of the vacuum plane, which depends only on n."""
    space = make_nambu(n)
    return _majorana_pfaffian(space, vacuum_plane(space))


def fermion_parity(space: NambuSpace, A: Plane) -> InvariantResult:
    """Fermion parity bit of a self-paired Lagrangian plane.

    The reflection through A, written in the Majorana basis, is a real
    orthogonal matrix whose Pfaffian sign separates the two connected
    components of the Lagrangian family.  The vacuum is even by
    convention; a plane is odd exactly when its sign differs from the
    vacuum's.
    """
    if A.space.dim != space.dim:
        raise InputError("plane lives on the wrong space")
    if A.rank != space.n:
        raise InputError(
            f"parity needs a rank-{space.n} plane, got rank {A.rank}")
    dev = fermi_check(A, A)
    if dev > ALG_TOL:
        raise ValidationError(
            f"plane is not Lagrangian under the bracket (pairing {dev:.2e})")
    pf = _majorana_pfaffian(space, A)
    pf_vac = _vacuum_pfaffian(space.n)
    bit = 0 if (pf > 0) == (pf_vac > 0) else 1
    return InvariantResult("parity_bit", bit,
                           {"pfaffian": pf, "vacuum_pfaffian": pf_vac})


def class_d_z2(bundle: Bundle) -> InvariantResult:
    """Parity mismatch between the two self-antipodal momenta.

    Defined for bundles over the point pair or the circle whose fibers at
    the self-antipodal momenta are Lagrangian; returns the XOR of the two
    fermion parities there.
    """
    grid = bundle.grid
    if grid.d not in (0, 1):
        raise InputError("the class-D index lives on S^0 or S^1")
    bits = tuple(fermion_parity(bundle.space, _unchecked(
        Plane, bundle.space, bundle.frames[p])).value for p in grid.trims)
    momenta = tuple(float(grid.points[p, 0]) for p in grid.trims)
    return InvariantResult("z2_bit", bits[0] ^ bits[1],
                           {"parity_bits": bits, "momenta": momenta})


def _nearest(x):
    """The integer k nearest to x, and the distance |x - k|."""
    k = int(round(x))
    return k, abs(x - k)


def _fluxes(bundle: Bundle, faces):
    """Principal fluxes of the faces ``faces`` (indices, or a slice) of a
    sphere bundle: the phases of the products of their link variables in
    order, and the largest projector distance of a side.  Side c of face q
    reads ``Bundle._edges`` at ``grid.slots[q, c]``, its det conjugated
    against its edge and exactly 1 when degenerate.  A side farther than
    ``CONTINUITY_TOL`` raises NumericError naming its face."""
    (dist, o), slots = bundle._edges, bundle.grid.slots[faces]
    far = np.concatenate([dist, dist, [0.0]]).take(slots).max(axis=1)
    if (far > CONTINUITY_TOL).any():
        i = np.argmax(far > CONTINUITY_TOL)
        q = np.arange(len(bundle.grid.plaquettes))[faces][i]
        raise NumericError(f"fibers jump by {far[i]:.3f} along a side of "
                           f"plaquette {q}; refine the grid")
    L = np.concatenate([o, o.conj(), [1.0]]).take(slots)
    edge = slots < 2 * len(o)
    prod = np.ones(len(L), dtype=complex)
    for i in range(L.shape[1]):
        prod = np.where(edge[:, i], _cmul(prod, L[:, i]), prod)
    return np.angle(prod), float(far.max())


def _kramers_frame(T, F):
    """A Kramers basis (u1, Θu1, u3, Θu3, ...) of the plane of frame F,
    Θv = T conj(v) with Θ² = -1: each u is the frame column farthest from
    the columns so far, with their span projected out."""
    K = F[:, :0]
    for _ in range(F.shape[1] // 2):
        R = F - K @ (_dagger(K) @ F)
        u = R[:, np.argmax(np.linalg.norm(R, axis=0))]
        u = u / np.linalg.norm(u)
        K = np.column_stack([K, u, T @ u.conj()])
    return K


def kane_mele_z2(bundle: Bundle, J1) -> InvariantResult:
    """Kane-Mele Z2 index of a sphere bundle, from its northern half.

    Time reversal Θv = B conj(J1 v) maps the fiber at (k, t) onto the
    fiber at (-k, -t) and squares to -1.  The index is (S - Φ)/2π mod 2
    (Fu and Kane, Phys. Rev. B 74, 195312 (2006), in the lattice form of
    Fukui and Hatsugai, J. Phys. Soc. Jpn. 76, 053702 (2007)).  Φ is the
    sum of the principal plaquette fluxes over the faces north of the
    t = 0 row.  S is the sum of the principal link phases once around
    that row in a time-reversal gauge: a Kramers basis (u1, Θu1, u3, Θu3,
    ...) at k = -π and k = 0, the stored frames between them, and their
    images under Θ for k > 0, whose links repeat those of k < 0; so S is
    twice the sum from k = -π to 0, and a link phase at ±π moves S by 4π
    without changing the bit.

    The diagnostics are ``n``, the integer (S - Φ)/2π; ``residual``, the
    distance of (S - Φ)/2π from n; ``theta_max``, the largest
    ||(1 - Π_{-k}) Θ F_k|| on the t = 0 row; and ``max_abs_flux`` and
    ``max_distance`` over Φ's faces (see :func:`chern_number`).  The grid
    must be a sphere with an odd row count, so that it has a t = 0 row,
    and the fibers must have rank n with n even (InputError); a
    ``theta_max`` above ``ALG_TOL`` raises ValidationError, and a face
    side above ``CONTINUITY_TOL`` NumericError.
    """
    grid = bundle.grid
    if grid.d != 2:
        raise InputError("the Kane-Mele index lives on S^2")
    n = bundle.space.n
    if bundle.rank != n or n % 2:
        raise InputError("rank-n fibers with n even are required")
    N, M = grid.N, grid.M
    if M % 2 == 0:
        raise InputError(f"the Kane-Mele index needs a t = 0 row, so an "
                         f"odd row count; got M = {M}")
    # Θv = B conj(J1 v) = W^H conj(v) for the form W = J1^T B
    T = omega_form(bundle.space, J1).conj().T
    row = M // 2 * N + np.arange(N)
    F = bundle.frames[row]
    Fm = F[-np.arange(N) % N]
    TF = _apply(T, F.conj())
    dev = _spectral_norms(TF - _mm(Fm, _mm(_dagger(Fm), TF)))
    theta_max = float(dev.max())
    if not theta_max <= ALG_TOL:
        i = int(np.argmax(dev))
        raise ValidationError(
            f"time reversal does not map the t = 0 row onto itself at "
            f"point {row[i]} (deviation {dev[i]:.2e})")
    G = F[:N // 2 + 1].copy()
    G[0], G[-1] = _kramers_frame(T, G[0]), _kramers_frame(T, G[-1])
    S = 2.0 * np.angle(np.linalg.det(_mm(_dagger(G[:-1]), G[1:]))).sum()
    north = np.flatnonzero(np.arange(N * (M + 1)) % (M + 1) > M // 2)
    fluxes, dist = _fluxes(bundle, north)
    k, residual = _nearest((S - fluxes.sum()) / (2.0 * np.pi))
    return InvariantResult("z2_bit", k % 2, {
        "n": k, "residual": residual, "theta_max": theta_max,
        "max_abs_flux": float(np.abs(fluxes).max()), "max_distance": dist})


def chiral_winding(bundle: Bundle, K1) -> InvariantResult:
    """Winding number of det U(k) for one imaginary pseudo-symmetry.

    In an eigenbasis of K1 with the +i eigenspace first, each fiber
    projector takes the form [[1, U]/2, [U^dag, 1]/2] with U(k) unitary.
    The integer is the sum over 2 pi of the eigenphases phi of the steps
    U(k') U(k)^dag between neighbors, which a change of eigenbasis does not
    move.  A step's projector distance is max sin(|phi| / 2); one above
    ``CONTINUITY_TOL`` raises NumericError.  ``max_step`` is max |phi|.
    """
    grid = bundle.grid
    if grid.d != 1:
        raise InputError("the chiral winding lives on S^1")
    n = bundle.space.n
    if bundle.rank != n:
        raise InputError("rank-n fibers are required")
    if isinstance(K1, Generator) and K1.parity != "imaginary":
        raise InputError("the chiral winding needs an imaginary generator")
    K = _generator_matrix(K1, bundle.space.dim)
    F = bundle.frames
    _require_pseudo([K1], F, "under K1")

    V = _eigensplit(K)
    # the off-diagonal block of V^H Pi V, with Pi = F F^H
    G = _dagger(V) @ F
    blocks = 2.0 * (G[:, :n] @ _dagger(G[:, n:]))
    dev = np.abs(_dagger(blocks) @ blocks - np.eye(n)).max(axis=(1, 2))
    bad = np.flatnonzero(dev > DERIVED_TOL)
    if bad.size:
        raise NumericError(
            f"projector block at point {bad[0]} is not unitary")
    phases = np.angle(np.linalg.eigvals(
        _mm(np.roll(blocks, -1, axis=0), _dagger(blocks))))
    steps = np.abs(phases).max(axis=1)
    big = np.flatnonzero(np.sin(steps / 2) > CONTINUITY_TOL)
    if big.size:
        i = big[0]
        raise NumericError(
            f"eigenphase step {steps[i]:.3f} between points {i} and "
            f"{(i + 1) % grid.N} is too large; refine the grid")
    w, residual = _nearest(float(np.sum(phases)) / (2.0 * np.pi))
    return InvariantResult("winding_int", w, {
        "max_step": float(steps.max()), "residual": residual})


def chern_number(bundle: Bundle) -> InvariantResult:
    """First Chern number from plaquette overlap fluxes.

    Each oriented plaquette contributes the principal argument of the
    product of frame overlap determinants around its boundary.  Each link
    enters two faces with opposite phase, so on every closed grid the flux
    sum is 2 pi times an integer up to rounding, ``residual``.  A side of
    projector distance above ``CONTINUITY_TOL`` raises NumericError, and
    ``max_distance`` is the largest; at rank 1 this keeps every face below
    pi.  A determinant phase sums m eigenphases, so at m > 1 a face can
    still wrap, unseen by ``max_abs_flux`` (ROADMAP item 17).
    """
    grid = bundle.grid
    if grid.d != 2:
        raise InputError("the Chern number lives on S^2")
    fluxes, dist = _fluxes(bundle, slice(None))
    c, residual = _nearest(float(np.sum(fluxes)) / (2.0 * np.pi))
    return InvariantResult("chern_int", c, {
        "fluxes": fluxes, "residual": residual,
        "max_abs_flux": float(np.abs(fluxes).max()), "max_distance": dist})


def component_index_ai(A: Plane, Q) -> InvariantResult:
    """Number of occupied creation modes of a charge-conserving plane.

    ``Q`` is the charge operator, which must square to the identity and
    have the creation-operator coordinates as an eigenspace.  The plane
    must be preserved by Q; the index is the rank of its projector
    restricted to the creation eigenspace.
    """
    dim = A.space.dim
    n = A.space.n
    Qm = _generator_matrix(Q, dim, "charge operator")
    if np.abs(Qm @ Qm - np.eye(dim)).max() > ALG_TOL:
        raise InputError("charge operator must square to the identity")
    lam = Qm[dim - 1, dim - 1]
    expected = np.zeros((dim, n), dtype=complex)
    expected[n:, :] = lam * np.eye(n)
    if np.abs(Qm[:, n:] - expected).max() > ALG_TOL:
        raise InputError(
            "charge operator must have the creation modes as an eigenspace")
    Pi = A.projector
    dev = float(np.abs((np.eye(dim) - Pi) @ Qm @ A.frame).max())
    if dev > ALG_TOL:
        raise ValidationError(
            f"plane is not charge conserving (deviation {dev:.2e})")
    creators = 0.5 * (np.eye(dim) + lam.real * Qm)
    trace = float(np.real(np.trace(creators @ Pi)))
    n_plus, off = _nearest(trace)
    if off > DERIVED_TOL:
        raise NumericError(
            f"creation-mode occupation {trace:.6f} is not an integer")
    return InvariantResult("component_index", n_plus, {"trace": trace})
