"""Ambient space of single-fermion operators and Clifford generator bookkeeping.

The basis of the mixing space C^{2n} is fixed once and for all as
(c_1, ..., c_n, c_1^dagger, ..., c_n^dagger).  In this order the
anti-commutator {v, w} = v^T B w has the block matrix B = [[0, 1], [1, 0]],
and particle-hole conjugation acts as coordinate-wise complex conjugation
followed by the same swap matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import InputError, ValidationError
from .tolerances import ALG_TOL


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _unchecked(cls, *values):
    """The dataclass ``cls`` with its fields set to ``values`` in order and
    no check run; arrays come complex, C-contiguous and read-only."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values, strict=True))
    return obj


def _numbers(a, what: str, shape: tuple | None = None,
             copy: bool = False) -> np.ndarray:
    """``a`` as a complex array: the one intake rule for caller arrays.

    InputError refuses anything but a rectangular array of numbers (ragged
    rows, strings, bools, None or other objects), a shape other than
    ``shape`` when one is given, and NaN or infinite entries, which compare
    False against every tolerance and so would pass residual checks.  With
    ``copy`` the result is never ``a`` itself.
    """
    try:
        A = np.asarray(a)
    except (TypeError, ValueError):     # ragged rows, or unreadable
        A = None
    if A is None or A.dtype.kind not in "iufc":
        raise InputError(f"{what} must be a rectangular array of numbers")
    if shape is not None and A.shape != shape:
        raise InputError(f"{what} has shape {A.shape}, expected {shape}")
    A = A.astype(complex, copy=copy)
    if not np.isfinite(A).all():
        raise InputError(f"{what} has non-finite entries")
    return A


def _is_int(v) -> bool:
    """Whether v is a Python or numpy integer and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True, eq=False)
class NambuSpace:
    """The space C^{2n} spanned by n annihilation and n creation operators.

    Parameters
    ----------
    n : int
        Number of bands.  The space has complex dimension ``2 * n``.

    Attributes
    ----------
    bracket_matrix : ndarray
        Symmetric matrix B of the canonical anti-commutator, {v, w} = v^T B w.
    gamma_matrix : ndarray
        Matrix G such that particle-hole conjugation is v -> G conj(v).
    majorana_transform : ndarray
        Unitary Omega mapping (c, c^dagger) coordinates to Majorana
        coordinates, in which the bracket becomes the Euclidean form.
    """

    n: int

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise InputError("band count n must be a positive integer")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def bracket_matrix(self) -> np.ndarray:
        n = self.n
        B = np.zeros((2 * n, 2 * n))
        B[:n, n:] = np.eye(n)
        B[n:, :n] = np.eye(n)
        return _frozen(B)

    @cached_property
    def gamma_matrix(self) -> np.ndarray:
        # gamma swaps c_i and c_i^dagger, so its matrix coincides with B
        return self.bracket_matrix

    @cached_property
    def majorana_transform(self) -> np.ndarray:
        n = self.n
        eye = np.eye(n)
        top = np.hstack([eye, eye])
        bot = np.hstack([1j * eye, -1j * eye])
        return _frozen(np.vstack([top, bot]) / np.sqrt(2.0))


def make_nambu(n: int) -> NambuSpace:
    """Canonical ambient space for ``n`` bands, cached per int value of n."""
    if not _is_int(n):
        raise InputError("band count n must be a positive integer")
    return _nambu(int(n))


_nambu = cache(NambuSpace)


def bracket(space: NambuSpace, v, w) -> complex:
    """Canonical anti-commutator {v, w} = v^T B w (bilinear, symmetric)."""
    v, w = (_numbers(x, "vector", (space.dim,)) for x in (v, w))
    return complex(v @ space.bracket_matrix @ w)


def apply_gamma(space: NambuSpace, v) -> np.ndarray:
    """Particle-hole conjugation gamma(v) = G conj(v), an anti-linear involution."""
    return space.gamma_matrix @ np.conj(_numbers(v, "vector", (space.dim,)))


def classify_generator(space: NambuSpace, U) -> str:
    """Classify a matrix by its action on the anti-commutator bracket.

    Returns
    -------
    str
        ``"real"`` if U^T B U = B, ``"imaginary"`` if U^T B U = -B,
        ``"neither"`` for a unitary satisfying neither relation, and
        ``"not_unitary"`` otherwise.  Only the bracket is tested here;
        the Clifford condition U^2 = -1 is enforced by :class:`CliffordSet`.
        Each relation is tested to within ``ALG_TOL``.
    """
    d = space.dim
    U = _generator_matrix(U, d, "matrix")
    if np.abs(U.conj().T @ U - np.eye(d)).max() > ALG_TOL:
        return "not_unitary"
    B = space.bracket_matrix
    M = U.T @ B @ U
    if np.abs(M - B).max() < ALG_TOL:
        return "real"
    if np.abs(M + B).max() < ALG_TOL:
        return "imaginary"
    return "neither"


@dataclass(frozen=True, eq=False)
class Generator(object):
    """A unitary Clifford generator tagged by its bracket parity.

    The constructor checks unitarity, the squaring relation
    ``matrix @ matrix = -1``, and that the declared parity matches the
    action on the bracket (``"real"`` preserves it, ``"imaginary"`` flips
    the sign).
    """

    matrix: np.ndarray
    parity: str

    def __post_init__(self):
        # not the caller's array
        M = _numbers(self.matrix, "generator matrix", copy=True)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
            raise InputError("generator matrix must be square of even dimension")
        if self.parity not in ("real", "imaginary"):
            raise InputError(f"unknown parity tag {self.parity!r}")
        object.__setattr__(self, "matrix", _frozen(M))
        d = M.shape[0]
        got = classify_generator(make_nambu(d // 2), M)
        if got == "not_unitary":
            raise ValidationError("generator matrix is not unitary")
        if np.abs(M @ M + np.eye(d)).max() > ALG_TOL:
            raise ValidationError("generator must square to minus the identity")
        if got != self.parity:
            raise ValidationError(
                f"declared parity {self.parity!r} but bracket action is {got!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


_UNITS = frozenset((1, -1, 1j, -1j))


def _monomial_form(M: np.ndarray) -> tuple | None:
    """The form (perm, sign) of a monomial matrix, or None.

    M is monomial when row i has one nonzero entry, M[i, perm[i]] =
    sign[i], and each sign is 1, -1, 1j or -1j.  Every generator the
    library builds is: the Clifford generators of the ten classes, their
    copy-block doublings, the bracket, gamma and the charge operator.
    Applied through its form, M moves coordinates and multiplies them by
    units, which is exact, so the product equals the dense one.
    """
    nonzero = M != 0
    perm = nonzero.argmax(axis=1)
    sign = M[np.arange(len(M)), perm]
    if (np.count_nonzero(nonzero) != len(M)
            or not _UNITS.issuperset(sign.tolist())):
        return None
    return _frozen(perm), _frozen(sign)


def _generator_matrix(J, d: int, what: str = "generator") -> np.ndarray:
    """Matrix of a :class:`Generator` or array-like, checked by :func:`_numbers`
    to be d x d."""
    return _numbers(J.matrix if isinstance(J, Generator) else J, what, (d, d))


def _eigensplit(K: np.ndarray) -> np.ndarray:
    """Unitary eigenvector matrix of a generator matrix K (K^2 = -1), its
    first half of columns spanning K's +i eigenspace: eigh of i K."""
    w, V = np.linalg.eigh(1j * K)
    n = len(w) // 2
    if not w[n - 1] < 0.0 < w[n]:
        raise ValidationError("generator eigenvalues are not balanced "
                              "between +i and -i")
    return V


@dataclass(frozen=True, eq=False)
class CliffordSet(object):
    """An ordered collection of generators on a common ambient space.

    The constructor checks dimensions and parity bookkeeping only.  The
    Clifford relations themselves are verified by :func:`check_clifford`,
    which is report-valued so that broken sets can be inspected.
    """

    space: NambuSpace
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        for i, g in enumerate(gens):
            if not isinstance(g, Generator):
                raise InputError(f"generator {i} is not a Generator")
            if g.dim != self.space.dim:
                raise InputError(
                    f"generator {i} has dimension {g.dim}, "
                    f"expected {self.space.dim}")

    @property
    def signature(self):
        """Pair (number of real generators, number of imaginary generators)."""
        r = sum(1 for g in self.generators if g.parity == "real")
        return (r, len(self.generators) - r)

    def __len__(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class CliffordReport:
    """Outcome of a Clifford relation check.

    ``violations`` lists triples ``(l, m, deviation)``; an entry with
    ``l == m`` is a failed squaring relation, ``l < m`` a failed
    anti-commutator.  An empty list means all relations hold.
    """

    max_deviation: float
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_clifford(cset: CliffordSet) -> CliffordReport:
    """Verify J_l J_m + J_m J_l = -2 delta_lm on all pairs, to ``ALG_TOL``."""
    gens = cset.generators
    eye = np.eye(cset.space.dim)
    worst = 0.0
    bad = []
    for l, gl in enumerate(gens):
        for m in range(l, len(gens)):
            gm = gens[m]
            acom = gl.matrix @ gm.matrix + gm.matrix @ gl.matrix
            target = -2.0 * eye if l == m else 0.0
            dev = float(np.abs(acom - target).max())
            worst = max(worst, dev)
            if dev > ALG_TOL:
                bad.append((l, m, dev))
    return CliffordReport(max_deviation=worst, violations=tuple(bad))
