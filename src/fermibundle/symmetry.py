"""True symmetries, tenfold-way pseudo-symmetry sets, and band doubling.

The ten symmetry classes are realized as explicit Clifford sets on the
canonical ambient space.  Classes with spin rotation symmetry (s >= 4 in
the real sequence) are built on a band-doubled space, with the spin
generators placed on the diagonal copy blocks and the remaining
pseudo-symmetries on the off-diagonal blocks.  The same doubling machinery
provides the (1,1)-periodicity map and the plane-lifting bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ValidationError
from .nambu import CliffordSet, Generator, NambuSpace, _numbers, make_nambu
from .planes import Plane, _complements, plane_distance
from .tolerances import ALG_TOL, RANK_TOL

_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


@dataclass(frozen=True, eq=False)
class AntiUnitary:
    """An anti-unitary operator v -> matrix @ conj(v)."""

    matrix: np.ndarray

    @property
    def square(self) -> np.ndarray:
        """Matrix of the operator applied twice (always a unitary)."""
        return self.matrix @ np.conj(self.matrix)


@dataclass(frozen=True, eq=False)
class TrueSymmetries:
    """The physical symmetry operators on one ambient space.

    ``T_plus`` and ``T_minus`` are time reversal with square +1 and -1,
    ``Q`` the charge operator, ``C`` particle-hole conjugation, and ``S``
    the triple of spin rotation generators.  ``T_minus`` and ``S`` exist
    only for spinful spaces and are ``None`` otherwise.
    """

    space: NambuSpace
    T_plus: AntiUnitary
    T_minus: AntiUnitary | None
    Q: np.ndarray
    C: AntiUnitary
    S: tuple | None


def _charge(n: int) -> np.ndarray:
    """Charge operator diag(1, ..., 1, -1, ..., -1) of ``n`` bands."""
    return np.diag(np.r_[np.ones(n), -np.ones(n)])


def _spin_halves(nb: int):
    """Single-particle spin matrices sigma_l / 2 for nb bands paired (up, down)."""
    return tuple(np.kron(np.eye(nb // 2), s) / 2.0 for s in _SIGMA)


def true_symmetries(space: NambuSpace, spinful: bool = False) -> TrueSymmetries:
    """Build the operators T, Q, C and (for spinful spaces) S_1, S_2, S_3.

    Spinful spaces must have an even number of bands, grouped as
    (up, down) pairs.  The spin generators satisfy the angular momentum
    relation [S_1, S_2] = i S_3 and commute with ``T_minus`` and ``Q``.
    """
    n = space.n
    Q = _charge(n).astype(complex)
    C = AntiUnitary(space.gamma_matrix.astype(complex))
    T_plus = AntiUnitary(np.eye(2 * n, dtype=complex))
    if not spinful:
        return TrueSymmetries(space, T_plus, None, Q, C, None)
    if n % 2:
        raise InputError("spinful spaces need an even band count")
    t = np.kron(np.eye(n // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    U_T = np.block([[t, np.zeros((n, n))], [np.zeros((n, n)), t]]).astype(complex)
    T_minus = AntiUnitary(U_T)
    spins = []
    for s in _spin_halves(n):
        spins.append(np.block(
            [[-s.T, np.zeros((n, n))], [np.zeros((n, n)), s]]))
    return TrueSymmetries(space, T_plus, T_minus, Q, C, tuple(spins))


# ---------------------------------------------------------------------------
# the class table

@dataclass(frozen=True)
class ClassInfo:
    """One row of the symmetry class table."""

    label: str
    sector: str                 # "real" or "complex"
    s: int
    true_symmetries: tuple
    pseudo_symmetries: tuple
    n_multiple: int             # band counts must be a multiple of this
    imaginary_trade: tuple      # generator forms of the all-imaginary realization

    @property
    def signature(self):
        return (self.s, 0)

    def to_dict(self) -> dict:
        d = {
            "label": self.label,
            "sector": self.sector,
            "s": self.s,
            "true_symmetries": list(self.true_symmetries),
            "pseudo_symmetries": list(self.pseudo_symmetries),
            "signature": list(self.signature),
            "min_n": self.n_multiple,
        }
        if self.imaginary_trade:
            d["imaginary_realization"] = list(self.imaginary_trade)
        return d


_SPIN_FORMS = (
    "J1 = diag(2i S1, -2i S1)",
    "J2 = diag(2i S2, -2i S2)",
    "J3 = diag(2i S3, -2i S3)",
    "J4 = I",
)

CLASS_TABLE = {
    "D": ClassInfo("D", "real", 0, (), (), 1, ()),
    "DIII": ClassInfo("DIII", "real", 1, ("T",), ("J1 = gamma T",), 2, ()),
    "AII": ClassInfo("AII", "real", 2, ("T", "Q"),
                     ("J1 = gamma T", "J2 = i Q J1"), 2, ()),
    "CII": ClassInfo("CII", "real", 3, ("T", "Q", "C"),
                     ("J1 = gamma T", "J2 = i Q J1", "J3 = i gamma C Q"), 2, ()),
    "C": ClassInfo("C", "real", 4, ("S1", "S2", "S3"), _SPIN_FORMS, 4, ()),
    "CI": ClassInfo("CI", "real", 5, ("S1", "S2", "S3", "T"),
                    _SPIN_FORMS + ("J5 = gamma T",), 4, ()),
    "AI": ClassInfo("AI", "real", 6, ("S1", "S2", "S3", "T", "Q"),
                    _SPIN_FORMS + ("J5 = gamma T", "J6 = i Q J5"), 4,
                    ("K1 = i gamma T", "K2 = i Q K1")),
    "BDI": ClassInfo("BDI", "real", 7, ("S1", "S2", "S3", "T", "Q", "C"),
                     _SPIN_FORMS + ("J5 = gamma T", "J6 = i Q J5",
                                    "J7 = i gamma C Q"), 4,
                     ("K1 = i gamma T",)),
    "A": ClassInfo("A", "complex", 0, ("Q",), (), 1, ()),
    "AIII": ClassInfo("AIII", "complex", 1, ("Q", "C"), ("J1 = i gamma C",), 2, ()),
}


def class_info(label: str) -> ClassInfo:
    """Look up a symmetry class row by label (case-insensitive)."""
    key = str(label).upper()
    if key not in CLASS_TABLE:
        raise InputError(f"unknown symmetry class label {label!r}")
    return CLASS_TABLE[key]


def _require_bands(info: ClassInfo, n: int):
    if n % info.n_multiple:
        raise InputError(
            f"class {info.label} needs a band count divisible by "
            f"{info.n_multiple}, got {n}")


def _time_reversal_generators(space: NambuSpace, count: int):
    """First ``count`` of the real generators (gamma T, i Q gamma T, i Q)."""
    ts = true_symmetries(space, spinful=True)
    J = space.gamma_matrix @ ts.T_minus.matrix
    mats = (J, 1j * ts.Q @ J, 1j * ts.Q)[:count]
    return ts, tuple(Generator(M, "real") for M in mats)


def kitaev_generators(space: NambuSpace, label: str) -> CliffordSet:
    """Pseudo-symmetry Clifford set for one of the ten classes.

    All generators come out with real parity.  Classes D and A carry no
    generators; classes with spin rotation symmetry interpret the space as
    band-doubled (so the band count must be divisible by four) and delegate
    to :func:`spin_embed`.
    """
    info = class_info(label)
    n = space.n
    _require_bands(info, n)
    if info.s == 0:
        return CliffordSet(space, ())
    if info.label == "AIII":
        D = _charge(n // 2)
        J1 = 1j * np.block(
            [[-D, np.zeros((n, n))], [np.zeros((n, n)), D]])
        return CliffordSet(space, (Generator(J1, "real"),))
    if info.label in ("DIII", "AII", "CII"):
        _, gens = _time_reversal_generators(space, info.s)
        return CliffordSet(space, gens)
    # spin classes C, CI, AI, BDI on the doubled space
    ts, extras = _time_reversal_generators(make_nambu(n // 2), info.s - 4)
    return spin_embed(space, ts.S, extras)


def imaginary_realization(space: NambuSpace, label: str) -> CliffordSet:
    """All-imaginary Clifford sets equivalent to classes BDI and AI.

    Spinless time reversal (square +1) combines with particle-hole
    conjugation and charge into one imaginary generator K1 = i gamma T for
    class BDI, and two, K2 = i Q K1, for class AI.  These small sets are
    what the suspension construction consumes.
    """
    key = str(label).upper()
    G = space.gamma_matrix
    Q = _charge(space.n)
    if key == "BDI":
        return CliffordSet(space, (Generator(1j * G, "imaginary"),))
    if key == "AI":
        K1 = -Q @ G
        K2 = 1j * Q @ K1          # equals -i G
        return CliffordSet(
            space, (Generator(K1, "imaginary"), Generator(K2, "imaginary")))
    raise InputError(
        f"imaginary realization exists for BDI and AI, not {label!r}")


# ---------------------------------------------------------------------------
# band doubling

def copy_indices(doubled: NambuSpace):
    """Coordinate indices of the two band copies inside a doubled space.

    A doubled space with 2 nb bands holds copy one on bands 1..nb and copy
    two on bands nb+1..2nb.  The returned index arrays select the full
    Nambu coordinates (annihilators then creators) of each copy.
    """
    if doubled.n % 2:
        raise InputError("a doubled space needs an even band count")
    nb = doubled.n // 2
    idx1 = np.r_[0:nb, 2 * nb:3 * nb]
    idx2 = np.r_[nb:2 * nb, 3 * nb:4 * nb]
    return idx1, idx2


def _copy_blocks(doubled, X1, X2, swap=False):
    """The matrix [[X1, 0], [0, X2]] in copy blocks of a doubled space, or
    [[0, X1], [X2, 0]] with ``swap``."""
    idx1, idx2 = copy_indices(doubled)
    M = np.zeros((doubled.dim, doubled.dim), dtype=complex)
    M[np.ix_(idx1, idx2 if swap else idx1)] = X1
    M[np.ix_(idx2, idx1 if swap else idx2)] = X2
    return M


def double_one_one(space: NambuSpace, cset: CliffordSet):
    """(1,1)-periodicity doubling of an ambient space and its Clifford set.

    Returns the doubled space together with the extended set
    (J~_1, ..., J~_s, I, K): each input generator goes to the off-diagonal
    copy blocks, I is the real copy-swap generator and K the imaginary
    copy-sign generator.  K anti-commutes with I and with every J~_l.
    """
    if cset.space.n != space.n:
        raise InputError("Clifford set does not live on the given space")
    nb = space.n
    doubled = make_nambu(2 * nb)
    eye = np.eye(2 * nb)
    gens = [Generator(_copy_blocks(doubled, g.matrix, g.matrix, swap=True),
                      g.parity) for g in cset.generators]
    gens += [Generator(_copy_blocks(doubled, eye, -eye, swap=True), "real"),
             Generator(_copy_blocks(doubled, 1j * eye, -1j * eye),
                       "imaginary")]
    return doubled, CliffordSet(doubled, tuple(gens))


def lift_frames(space: NambuSpace, frames: np.ndarray):
    """Lift a (P, 2n, n) frame stack as :func:`lift_plane` lifts a frame;
    returns the doubled space and the (P, 4n, 2n) lifted frames."""
    nb = space.n
    if frames.shape[2] != nb:
        raise InputError(
            f"lift needs a rank-{nb} plane, got rank {frames.shape[2]}")
    doubled = make_nambu(2 * nb)
    idx1, idx2 = copy_indices(doubled)
    Fc = _complements(frames)
    out = np.zeros((len(frames), doubled.dim, 2 * nb), dtype=complex)
    out[:, idx1, :nb] = frames / np.sqrt(2)
    out[:, idx2, :nb] = frames / np.sqrt(2)
    out[:, idx1, nb:] = Fc / np.sqrt(2)
    out[:, idx2, nb:] = -Fc / np.sqrt(2)
    return doubled, out


def lift_plane(A: Plane) -> Plane:
    """Lift a half-rank plane through the doubling bijection.

    The lift is spanned by (w, w) for w in A and (w', -w') for w' in the
    orthogonal complement of A, written in copy coordinates.  It satisfies
    every extended pseudo-symmetry, and it satisfies the Fermi constraint
    whenever A does.
    """
    doubled, out = lift_frames(A.space, A.frame[None])
    return Plane(doubled, out[0])


def unlift_plane(At: Plane) -> Plane:
    """Invert :func:`lift_plane` by reading the symmetric copy component."""
    if At.space.n % 2:
        raise InputError("not a doubled space")
    nb = At.space.n // 2
    if At.rank != 2 * nb:
        raise InputError(
            f"unlift needs a rank-{2 * nb} plane, got rank {At.rank}")
    idx1, idx2 = copy_indices(At.space)
    sym = At.frame[idx1, :] + At.frame[idx2, :]
    U, s, _ = np.linalg.svd(sym, full_matrices=False)
    if s[nb - 1] < RANK_TOL or (len(s) > nb and s[nb] > 1e-8):
        raise InputError("plane is not in the image of the doubling lift")
    base = Plane(make_nambu(nb), U[:, :nb])
    if plane_distance(lift_plane(base), At) > 1e-8:
        raise InputError("plane is not in the image of the doubling lift")
    return base


def spin_embed(space: NambuSpace, spins, extras=()) -> CliffordSet:
    """Convert spin rotation symmetry into pseudo-symmetries on a doubled space.

    Parameters
    ----------
    space : NambuSpace
        The doubled ambient space (band count divisible by four).
    spins : sequence of three ndarray
        Spin generators on the base space, normalized so that
        [S_1, S_2] = i S_3.
    extras : CliffordSet or sequence of Generator, optional
        Further pseudo-symmetries on the base space; they must commute
        with every spin generator and are embedded off-diagonally.

    Returns
    -------
    CliffordSet
        (J~_1, J~_2, J~_3, J~_4 = I, embedded extras), all real.  The
        product K = i J~_1 J~_2 J~_3 is an imaginary generator
        anti-commuting with the whole set.
    """
    if space.n % 2:
        raise InputError("spin embedding needs a doubled (even) band count")
    nb = space.n // 2
    dim_b = 2 * nb
    spins = _numbers(spins, "spins", (3, dim_b, dim_b))
    if isinstance(extras, CliffordSet):
        extras = extras.generators
    extras = tuple(extras)
    for m, g in enumerate(extras):
        if g.dim != dim_b:
            raise InputError(f"extra generator {m} does not act on the base space")
        for l, S in enumerate(spins):
            if np.abs(S @ g.matrix - g.matrix @ S).max() > ALG_TOL:
                raise ValidationError(
                    f"spin generator S{l + 1} does not commute with "
                    f"extra generator {m}")
    gens = [Generator(_copy_blocks(space, 2j * S, -2j * S), "real")
            for S in spins]
    eye = np.eye(dim_b)
    gens.append(Generator(_copy_blocks(space, eye, -eye, swap=True), "real"))
    gens.extend(
        Generator(_copy_blocks(space, g.matrix, g.matrix, swap=True),
                  g.parity) for g in extras)
    return CliffordSet(space, tuple(gens))
