"""Momentum grids, plane bundles over them, validation and serialization.

A bundle assigns a plane to every point of a discretized sphere (the two
point set S^0, a circle, or the two-pole suspension sphere S^2).  The
bundle is considered valid when every fiber satisfies the pseudo-symmetry
constraints of its Clifford set, antipodal fibers are Fermi partners, and
neighboring fibers stay close.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nambu import CliffordSet, Generator, NambuSpace, _frozen, make_nambu
from .planes import (Plane, _spectral_distance, plane_distance,
                     pseudo_check)
from .symmetry import CLASS_TABLE, double_one_one, lift_plane
from .tolerances import ALG_TOL, CONTINUITY_TOL


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    """A finite point set on S^d with antipodal and adjacency structure.

    ``points`` holds one coordinate row per grid point: the suspension
    parameter for d = 0, the momentum k for d = 1, and (k, t) for d = 2
    where t is the polar coordinate of the suspension sphere.  ``antipode``
    maps each point index to the index of the momentum-reversed point.
    """

    d: int
    N: int | None
    M: int | None
    points: np.ndarray
    antipode: np.ndarray
    edges: tuple
    trims: tuple
    plaquettes: tuple = ()

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def pole_indices(self):
        """(south, north) indices, only defined for d = 2."""
        if self.d != 2:
            raise InputError("poles exist only on the d = 2 grid")
        return self.N * self.M, self.N * self.M + 1


def _circle_angles(N):
    return -math.pi + 2.0 * math.pi * np.arange(N) / N


def _grid_size(d, N, M) -> int:
    """Point count of the standard grid on S^d, checking its parameters."""
    if d == 0:
        return 2
    if d == 1:
        if N is None or N < 2 or N % 2:
            raise InputError("circle grids need an even N >= 2")
        return N
    if d == 2:
        if N is None or N < 2 or N % 2 or M is None or M < 1:
            raise InputError("sphere grids need an even N >= 2 and M >= 1")
        return N * M + 2
    raise InputError(f"grids exist for d in (0, 1, 2), got {d}")


def make_sphere_grid(d: int, N: int | None = None, M: int | None = None) -> MomentumGrid:
    """Build the standard grid on S^d.

    d = 0 is the fixed two point set {0, pi}.  d = 1 is a circle of N
    points k_i = -pi + 2 pi i / N.  d = 2 has N columns times M interior
    latitude rows plus two poles; the rows sit at
    t_j = -pi/2 + pi (j+1)/(M+1) from south to north, and the point (i, j)
    has index j N + i, followed by the south then north pole.
    """
    size = _grid_size(d, N, M)
    if d == 0:
        pts = np.array([[0.0], [math.pi]])
        return MomentumGrid(0, None, None, _frozen(pts),
                            _frozen(np.array([0, 1])), (), (0, 1))
    if d == 1:
        ks = _circle_angles(N)
        anti = np.array([(N - i) % N for i in range(N)])
        edges = tuple((i, (i + 1) % N) for i in range(N))
        trims = tuple(i for i in range(N) if anti[i] == i)
        return MomentumGrid(1, N, None, _frozen(ks[:, None]),
                            _frozen(anti), edges, trims)
    ks = _circle_angles(N)
    ts = -math.pi / 2 + math.pi * (np.arange(M) + 1) / (M + 1)
    pts = np.zeros((size, 2))
    for j in range(M):
        pts[j * N:(j + 1) * N, 0] = ks
        pts[j * N:(j + 1) * N, 1] = ts[j]
    south, north = N * M, N * M + 1
    pts[south] = (0.0, -math.pi / 2)
    pts[north] = (0.0, math.pi / 2)
    anti = np.empty(size, dtype=int)
    for j in range(M):
        for i in range(N):
            anti[j * N + i] = (M - 1 - j) * N + (N - i) % N
    anti[south], anti[north] = north, south
    edges = []
    for j in range(M):
        edges.extend(((j * N + i, j * N + (i + 1) % N) for i in range(N)))
    for j in range(M - 1):
        edges.extend(((j * N + i, (j + 1) * N + i) for i in range(N)))
    edges.extend(((south, i) for i in range(N)))
    edges.extend((((M - 1) * N + i, north) for i in range(N)))
    trims = tuple(i for i in range(size) if anti[i] == i)
    plaq = []
    for i in range(N):
        ip = (i + 1) % N
        plaq.append((south, ip, i))
        for j in range(M - 1):
            plaq.append((j * N + i, j * N + ip,
                         (j + 1) * N + ip, (j + 1) * N + i))
        plaq.append(((M - 1) * N + i, (M - 1) * N + ip, north))
    return MomentumGrid(2, N, M, _frozen(pts), _frozen(anti),
                        tuple(edges), trims, tuple(plaq))


@dataclass(frozen=True, eq=False)
class Bundle:
    """Planes over a momentum grid, tied to a Clifford set.

    ``label`` optionally names the symmetry class the Clifford set was
    built from; it is informational and carried through serialization.
    """

    space: NambuSpace
    cset: CliffordSet
    grid: MomentumGrid
    fibers: tuple
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "fibers", tuple(self.fibers))
        if self.cset.space.n != self.space.n:
            raise InputError("Clifford set and bundle space disagree")
        if len(self.fibers) != self.grid.size:
            raise InputError(
                f"grid has {self.grid.size} points but {len(self.fibers)} "
                "fibers were given")
        ranks = set()
        for p, A in enumerate(self.fibers):
            if not isinstance(A, Plane):
                raise InputError(f"fiber {p} is not a Plane")
            if A.space.n != self.space.n:
                raise InputError(f"fiber {p} lives on the wrong space")
            ranks.add(A.rank)
        if len(ranks) != 1:
            raise InputError(f"fibers have mixed ranks {sorted(ranks)}")
        if self.label is not None and str(self.label).upper() not in CLASS_TABLE:
            raise InputError(f"unknown class label {self.label!r}")

    @property
    def rank(self) -> int:
        return self.fibers[0].rank


@dataclass(frozen=True, eq=False)
class BundleReport:
    """Outcome of :func:`validate_bundle`, with per-point deviations."""

    ok: bool
    pseudo_max: np.ndarray
    fermi_max: np.ndarray | None
    continuity_max: float
    messages: tuple = ()

    def rows(self, grid: MomentumGrid):
        """Per-point report rows (index, coordinates..., pseudo, fermi)."""
        out = []
        for p in range(grid.size):
            coords = tuple(grid.points[p])
            fermi = float("nan") if self.fermi_max is None else self.fermi_max[p]
            out.append((p, *coords, self.pseudo_max[p], fermi))
        return out


def validate_bundle(bundle: Bundle, tol: float = ALG_TOL,
                    continuity_tol: float = CONTINUITY_TOL) -> BundleReport:
    """Check pseudo-symmetry, Fermi pairing, and continuity of a bundle.

    The Fermi constraint is the spectral distance from the projector at -k
    to B conj(1 - Pi_A) B, the projector of the Fermi annihilator of the
    fiber A at k; it applies only to half-rank bundles and is skipped
    (reported as ``None``) otherwise.
    """
    grid = bundle.grid
    size = grid.size
    gens = bundle.cset.generators
    pseudo = np.zeros(size)
    for p, A in enumerate(bundle.fibers):
        if gens:
            pseudo[p] = max(pseudo_check(g, A) for g in gens)
    messages = []
    if pseudo.max() > tol:
        p = int(np.argmax(pseudo))
        messages.append(
            f"pseudo-symmetry violated at point {p} (deviation {pseudo[p]:.3e})")
    fermi = None
    if bundle.rank == bundle.space.n:
        fermi = np.zeros(size)
        B = bundle.space.bracket_matrix
        for p, A in enumerate(bundle.fibers):
            perp = B @ np.conj(np.eye(bundle.space.dim) - A.projector) @ B
            fermi[p] = _spectral_distance(
                bundle.fibers[int(grid.antipode[p])].projector, perp)
        if fermi.max() > tol:
            p = int(np.argmax(fermi))
            messages.append(
                f"Fermi pairing violated at point {p} (deviation {fermi[p]:.3e})")
    cont = 0.0
    worst = None
    for a, b in grid.edges:
        dist = plane_distance(bundle.fibers[a], bundle.fibers[b])
        if dist > cont:
            cont, worst = dist, (a, b)
    if cont > continuity_tol:
        messages.append(
            f"fibers jump across edge {worst} (distance {cont:.3f})")
    return BundleReport(not messages, pseudo, fermi, cont, tuple(messages))


# ---------------------------------------------------------------------------
# serialization

def _complex_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _complex_from_json(obj, path, rows=None, cols=None) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputError(f"{path}: expected a non-empty matrix")
    width = None
    out = []
    for r, row in enumerate(obj):
        if not isinstance(row, list):
            raise InputError(f"{path}: row {r} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"{path}: row {r} has length {len(row)}, "
                             f"expected {width}")
        vals = []
        for c, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(isinstance(x, (int, float))
                               and not isinstance(x, bool) for x in cell)):
                raise InputError(
                    f"{path}: entry ({r}, {c}) is not an [re, im] pair")
            vals.append(complex(cell[0], cell[1]))
        out.append(vals)
    M = np.array(out, dtype=complex)
    if rows is not None and M.shape != (rows, cols):
        raise InputError(f"{path}: shape {M.shape} does not match "
                         f"expected ({rows}, {cols})")
    return M


def serialize_bundle(bundle: Bundle) -> dict:
    """Encode a bundle as a JSON-compatible dict (version 1 layout)."""
    grid = bundle.grid
    return {
        "version": 1,
        "class": {
            "label": bundle.label,
            "s": len(bundle.cset),
            "signature": list(bundle.cset.signature),
            "generators": [
                {"matrix": _complex_to_json(g.matrix), "parity": g.parity}
                for g in bundle.cset.generators
            ],
        },
        "n": bundle.space.n,
        "grid": {"d": grid.d, "N": grid.N, "M": grid.M},
        "fibers": [
            {"rank": A.rank, "frame": _complex_to_json(A.frame)}
            for A in bundle.fibers
        ],
    }


def _need(data, key, path, kind=None):
    if not isinstance(data, dict):
        raise InputError(f"{path or 'document'}: expected an object")
    if key not in data:
        raise InputError(f"{path + '.' if path else ''}{key}: missing")
    val = data[key]
    # JSON true/false decode to bool, which isinstance counts as int
    if kind is not None and (not isinstance(val, kind)
                             or isinstance(val, bool)):
        raise InputError(
            f"{path + '.' if path else ''}{key}: wrong type {type(val).__name__}")
    return val


def deserialize_bundle(data: dict) -> Bundle:
    """Rebuild a bundle from its dict encoding.

    Raises ``InputError`` naming the offending path for structural
    problems.  Mathematically invalid content (a non-unitary generator, a
    skew frame) surfaces as ``ValidationError`` from the constructors.
    """
    version = _need(data, "version", "", int)
    if version != 1:
        raise InputError(f"version: unsupported value {version}")
    n = _need(data, "n", "", int)
    if n < 1:
        raise InputError(f"n: must be positive, got {n}")
    space = make_nambu(n)
    dim = 2 * n

    gdata = _need(data, "grid", "", dict)
    d = _need(gdata, "d", "grid", int)
    N, M = gdata.get("N"), gdata.get("M")
    for key, v in (("N", N), ("M", M)):
        if v is not None and (not isinstance(v, int) or isinstance(v, bool)):
            raise InputError(f"grid.{key}: wrong type")
    size = _grid_size(d, N, M)

    cdata = _need(data, "class", "", dict)
    label = cdata.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError("class.label: wrong type")
    gen_list = _need(cdata, "generators", "class", list)
    gens = []
    for g, entry in enumerate(gen_list):
        path = f"class.generators[{g}]"
        parity = _need(entry, "parity", path, str)
        if parity not in ("real", "imaginary"):
            raise InputError(f"{path}.parity: unknown tag {parity!r}")
        mat = _complex_from_json(_need(entry, "matrix", path, list),
                                 f"{path}.matrix", dim, dim)
        gens.append(Generator(mat, parity))
    declared_s = _need(cdata, "s", "class", int)
    if declared_s != len(gens):
        raise InputError(
            f"class.s: declares {declared_s} generators, found {len(gens)}")
    sig = _need(cdata, "signature", "class", list)
    cset = CliffordSet(space, tuple(gens))
    if list(cset.signature) != sig:
        raise InputError(
            f"class.signature: declares {sig}, generators give "
            f"{list(cset.signature)}")

    fdata = _need(data, "fibers", "", list)
    if len(fdata) != size:
        raise InputError(
            f"fibers: expected {size} entries, got {len(fdata)}")
    grid = make_sphere_grid(d, N, M)
    fibers = []
    for p, entry in enumerate(fdata):
        path = f"fibers[{p}]"
        rank = _need(entry, "rank", path, int)
        if not 1 <= rank <= dim - 1:
            raise InputError(f"{path}.rank: out of range value {rank}")
        frame = _complex_from_json(_need(entry, "frame", path, list),
                                   f"{path}.frame", dim, rank)
        fibers.append(Plane(space, frame))
    return Bundle(space, cset, grid, tuple(fibers), label)


def double_bundle(bundle: Bundle) -> Bundle:
    """Apply (1,1)-doubling to every part of a bundle.

    The space doubles, the Clifford set is extended by the copy-swap and
    copy-sign generators, and each fiber is lifted.  The class label (when
    present) is unchanged: doubling shifts the signature by (1,1) and
    therefore stays in the same class.
    """
    doubled, big = double_one_one(bundle.space, bundle.cset)
    fibers = tuple(lift_plane(A) for A in bundle.fibers)
    return Bundle(doubled, big, bundle.grid, fibers, bundle.label)
