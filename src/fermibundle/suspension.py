"""The suspension map taking a bundle over S^d to one over S^{d+1}.

One imaginary generator K of the Clifford set drives a one-parameter
rotation of each fiber.  At polar angle t the fiber is
exp((t/2) K J(A_k)) applied to the equator fiber A_k; at t = +-pi/2 every
fiber collapses onto the eigenplane of K with eigenvalue -+i, which is
what makes the construction close up into a sphere.  K is consumed in the
process: the output Clifford set is the input set without it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bundles import Bundle, make_sphere_grid
from .errors import InputError, ValidationError
from .nambu import (CliffordSet, Generator, _eigensplit, _frozen,
                    _generator_matrix, _is_int, _unchecked, make_nambu)
from .planes import (Plane, _apply, _require_pseudo, j_of, pseudo_check,
                     vacuum_plane)
from .symmetry import (CLASS_TABLE, class_info, imaginary_realization,
                       kitaev_generators)
from .tolerances import ALG_TOL, DERIVED_TOL


def rotor(K, A: Plane, t: float) -> np.ndarray:
    """Rotation exp((t/2) K J(A)) in closed form.

    Parameters
    ----------
    K : Generator or ndarray
        An imaginary pseudo-symmetry of the plane.
    A : Plane
        The plane being rotated; J(A) is its complex structure.
    t : float
        Rotation angle; the suspension uses t in [-pi/2, pi/2].

    Returns
    -------
    ndarray
        The unitary cos(t/2) 1 + sin(t/2) K J(A).  The closed form is
        exact because K J(A) squares to minus the identity whenever K
        maps A onto its orthogonal complement; both facts are checked.

    Raises
    ------
    InputError
        If t is not a finite real number, or is a bool.
    ValidationError
        If K is not a pseudo-symmetry of A.
    """
    if (not isinstance(t, numbers.Real) or isinstance(t, bool)
            or not math.isfinite(t)):
        raise InputError(f"rotation angle must be a finite real number, "
                         f"got {t!r}")
    M = _generator_matrix(K, A.space.dim)
    dev = pseudo_check(M, A)
    if dev > ALG_TOL:
        raise ValidationError(
            f"rotation generator is not a pseudo-symmetry of the plane "
            f"(deviation {dev:.3e})")
    KJ = M @ j_of(A)
    dim = KJ.shape[0]
    if np.abs(KJ @ KJ + np.eye(dim)).max() > DERIVED_TOL:
        raise ValidationError("K J(A) does not square to minus the identity")
    return math.cos(t / 2) * np.eye(dim) + math.sin(t / 2) * KJ


@dataclass(frozen=True, eq=False)
class SuspensionInput:
    """A bundle together with the generator choices for one suspension.

    ``k_index`` names the imaginary generator to be consumed; the optional
    ``i_index`` names a real generator that is kept and moved to the end
    of the output set.  Construction refuses a bundle over a sphere S^d,
    d = 2 (InputError), then verifies the algebraic requirements
    (parities, anti-commutation with the rest of the set) and that every
    fiber is a pseudo-symmetric plane for the designated generators.
    """

    bundle: Bundle
    k_index: int
    i_index: int | None = None

    def __post_init__(self):
        if self.bundle.grid.d not in (0, 1):
            raise InputError(
                "suspension is supported for d = 0 and d = 1 inputs")
        gens = self.bundle.cset.generators
        named = {"k_index": self.k_index}
        if self.i_index is not None:
            named["i_index"] = self.i_index
        for key, v in named.items():
            if not (_is_int(v) and 0 <= v < len(gens)):
                raise InputError(
                    f"{key} {v} out of range for {len(gens)} generators")
        if self.i_index == self.k_index:
            raise InputError("i_index must differ from k_index")
        K = gens[self.k_index]
        if K.parity != "imaginary":
            raise ValidationError("the consumed generator must be imaginary")
        if self.i_index is not None and gens[self.i_index].parity != "real":
            raise ValidationError("the retained generator must be real")
        for m, g in enumerate(gens):
            if m == self.k_index:
                continue
            dev = np.abs(K.matrix @ g.matrix + g.matrix @ K.matrix).max()
            if dev > ALG_TOL:
                raise ValidationError(
                    f"consumed generator does not anti-commute with "
                    f"generator {m} (deviation {dev:.3e})")
        checked = [K] if self.i_index is None else [K, gens[self.i_index]]
        _require_pseudo(checked, self.bundle.frames,
                        "for the designated generators")

    @property
    def K(self) -> Generator:
        return self.bundle.cset.generators[self.k_index]


def _next_label(label):
    if label is None:
        return None
    info = class_info(label)
    s = (info.s + 1) % (8 if info.sector == "real" else 2)
    return next(row.label for row in CLASS_TABLE.values()
                if row.sector == info.sector and row.s == s)


def _consumed_set(inp: SuspensionInput) -> tuple:
    gens = inp.bundle.cset.generators
    kept = [g for m, g in enumerate(gens)
            if m not in (inp.k_index, inp.i_index)]
    if inp.i_index is not None:
        kept.append(gens[inp.i_index])
    return tuple(kept)


def default_row_count(N: int) -> int:
    """Default interior row count for suspending an N-column circle."""
    m = N // 2 + 1
    return m if m % 2 else m + 1


def suspend(inp: SuspensionInput, points: int = 64,
            rows: int | None = None) -> Bundle:
    """Suspend a bundle over S^d into one over S^{d+1}.

    For d = 0 the two input fibers seed the eastern (|k| <= pi/2) and
    western arcs of a circle of ``points`` momenta.  For d = 1 each
    equator fiber is rotated through ``rows`` interior latitude rows
    (default :func:`default_row_count`, odd so the t = 0 row reproduces
    the input exactly), and the poles are set to the eigenplanes of K.
    The output class label, when the input carries one, advances by one
    step along the Bott sequence.
    """
    b, K, space = inp.bundle, inp.K, inp.bundle.space
    out_gens = _consumed_set(inp)
    label = _next_label(b.label)
    if b.grid.d == 0:
        grid = make_sphere_grid(1, points)  # refuses all but an even N >= 2
        ks, N = grid.points[:, 0], grid.N
        west = np.abs(4 * np.arange(N) - 2 * N) > N     # |k| > pi/2, exactly
        seeds = west.astype(int)
        ts = np.where(west, np.copysign(math.pi - np.abs(ks), ks), ks)
        poles = np.empty((0, *b.frames.shape[1:]))
    else:   # d = 1, as SuspensionInput checked
        # the pseudo check of SuspensionInput forces rank n (by traces)
        N = b.grid.N
        M = default_row_count(N) if rows is None else rows
        if _is_int(M) and (M < 1 or M % 2 == 0):
            raise InputError("interior row count must be odd")
        grid = make_sphere_grid(2, N, M)    # which refuses a non-integer M
        seeds = np.tile(np.arange(N), M)
        ts = grid.points[:N * M, 1]
        # the south pole is E_{+i} of K, the north pole E_{-i}
        poles = np.stack(np.split(_eigensplit(K.matrix), 2, axis=1))
    # SuspensionInput checked K A = A^c on every fiber, which makes
    # rotor(K, A, t) @ F equal cos(t/2) F + i sin(t/2) K F on a frame F.
    # K F is formed once per input frame, and the rotation is written in
    # place so that two whole-stack arrays live at once; t = 0 rows keep F.
    half = (ts / 2)[:, None, None]
    frames = np.empty((len(ts) + len(poles), *poles.shape[1:]), complex)
    rot = b.frames.take(seeds, 0, out=frames[:len(ts)])
    KF = _apply(K.matrix, b.frames).take(seeds, 0)
    np.multiply(np.cos(half), rot, out=rot)
    rot += np.multiply(1j * np.sin(half), KF, out=KF)
    rot[ts == 0] = b.frames[seeds[ts == 0]]
    frames[len(ts):] = poles
    return Bundle(space, CliffordSet(space, out_gens), grid, frames, label)


# ---------------------------------------------------------------------------
# worked examples

def example_majorana(occupied_at_zero: bool = True, N: int = 64) -> Bundle:
    """Circle bundle of the superconducting chain with a boundary mode.

    The input data put the line span{c^dagger} (or span{c} for the
    trivial variant) at k = 0 and the vacuum line span{c} at k = pi.
    Suspension with the single imaginary generator i gamma produces the
    class-D bundle whose fiber at k is span{c^dagger cos(k/2) - c sin(k/2)}.
    """
    sp = make_nambu(1)
    cset = imaginary_realization(sp, "BDI")
    grid0 = make_sphere_grid(0)
    c_line = vacuum_plane(sp)
    cdag_line = Plane(sp, np.array([[0.0], [1.0]], dtype=complex))
    A0 = cdag_line if occupied_at_zero else c_line
    b0 = Bundle(sp, cset, grid0, (A0, c_line), "BDI")
    return suspend(SuspensionInput(b0, 0), points=N)


def _diii_equator_frame(k) -> np.ndarray:
    """The (..., 4, 2) equator frames of :func:`example_dIII` at momenta k."""
    s, c = np.sin(np.divide(k, 2)), np.cos(np.divide(k, 2))
    rows = np.array([[-s, -s], [s, -s], [c, c], [c, -c]])  # (4, 2, ...)
    return np.moveaxis(rows, (0, 1), (-2, -1)).astype(complex) / math.sqrt(2)


def example_dIII(N: int = 64, rows: int | None = None) -> Bundle:
    """Sphere bundle of the time-reversal invariant superconductor.

    The equator carries the spin-doubled chain fibers
    span{c~_+(k), c~_-(k)} built from c_{+-} = (c_up +- c_down)/sqrt(2),
    together with the real generator I = gamma T (spinful time reversal)
    and the imaginary generator K.  Suspending along the polar angle
    consumes K and leaves a class-DIII bundle with the single
    pseudo-symmetry I.
    """
    sp = make_nambu(2)
    K = _unchecked(Generator, _frozen(1j * np.fliplr(np.eye(4))), "imaginary")
    cset = CliffordSet(sp, kitaev_generators(sp, "DIII").generators + (K,))
    grid1 = make_sphere_grid(1, N)
    b1 = _unchecked(Bundle, sp, cset, grid1, _frozen(
        _diii_equator_frame(grid1.points[:, 0])), "D")
    return suspend(SuspensionInput(b1, k_index=1, i_index=0), rows=rows)


def example_kitaev_chain(n: int, n_plus: int, N: int = 64) -> Bundle:
    """Circle bundle of the n-band chain with n_plus occupied bands.

    The k = 0 fiber is span{c_i} over the n - n_plus conduction bands
    plus span{c_j^dagger} over the n_plus valence bands; the k = pi fiber
    is the vacuum span{c_1, ..., c_n}.  Suspension consumes the second
    imaginary generator of the charge-conserving realization and leaves
    the class-BDI bundle with K_1 = -Q gamma as its pseudo-symmetry.
    """
    if not _is_int(n) or n < 1:
        raise InputError(f"band count must be a positive integer, got {n!r}")
    if not _is_int(n_plus) or not 0 <= n_plus <= n:
        raise InputError(f"occupied count must be an integer in [0, {n}], "
                         f"got {n_plus!r}")
    n, n_plus = int(n), int(n_plus)
    sp = make_nambu(n)
    cset = imaginary_realization(sp, "AI")
    grid0 = make_sphere_grid(0)
    cols = list(range(n - n_plus)) + [2 * n - n_plus + j for j in range(n_plus)]
    A0 = Plane(sp, np.eye(2 * n, dtype=complex)[:, cols])
    b0 = Bundle(sp, cset, grid0, (A0, vacuum_plane(sp)), "AI")
    return suspend(SuspensionInput(b0, k_index=1), points=N)
