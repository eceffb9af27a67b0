"""Momentum grids, plane bundles over them, validation and serialization.

A bundle assigns a plane to every point of a discretized sphere (the two
point set S^0, a circle, or the two-pole suspension sphere S^2).  The
bundle is considered valid when every fiber satisfies the pseudo-symmetry
constraints of its Clifford set, antipodal fibers are Fermi partners, and
neighboring fibers stay close.
"""

from __future__ import annotations

import binascii
import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .nambu import (CliffordSet, Generator, NambuSpace, _frozen, _is_int,
                    _monomial_form, _numbers, _unchecked, make_nambu)
from .planes import (Plane, _apply, _blocks, _check_frames, _cmul, _dagger,
                     _mm, _pseudo_deviations, _spectral_norms)
from .symmetry import CLASS_TABLE, double_one_one, lift_frames
from .tolerances import ALG_TOL, CONTINUITY_TOL


@dataclass(frozen=True, eq=False)
class MomentumGrid:
    """A finite point set on S^d with antipodal and adjacency tables.

    Every table but the tuple ``trims`` is a read-only array.  ``points``
    (P, 1 or 2) holds the coordinates of each point: the suspension
    parameter for d = 0, the momentum k for d = 1, and (k, t) for d = 2
    where t is the polar coordinate of the suspension sphere.  Sphere point
    j N + i sits in column i of latitude row j, rows running south to
    north, and the south then the north pole come last.  ``antipode`` (P,)
    maps a point to the momentum-reversed point, and ``trims`` lists its
    fixed points.

    ``edges`` (E, 2) are the neighbor pairs, columns taken mod N: (i, i + 1)
    on the circle; on the sphere the ring edges row by row, the vertical
    edges, the south spokes (south, i), then the north spokes (i, north),
    each pointing east or north.  ``plaquettes`` (Q, 4), empty off the
    sphere, are the oriented faces: for each column i, the south triangle,
    the quads going north and the north triangle, so face q = i (M + 1) + r
    lies between rows r - 1 and r, the poles counting as rows -1 and M.  A
    triangle repeats its first corner last; face q has the sides
    plaquettes[q, c] to plaquettes[q, (c + 1) % 4], a triangle's fourth
    being degenerate.  ``slots`` (Q, 4) names the edge on each side for
    the Fukui-Hatsugai-Suzuki link variables: e when side c of face q runs
    along edges[e], e + E when it runs against it, 2 E when it is
    degenerate.  Every edge lies on two faces, once each way.
    """

    d: int
    N: int | None
    M: int | None
    points: np.ndarray
    antipode: np.ndarray
    edges: np.ndarray
    trims: tuple
    plaquettes: np.ndarray
    slots: np.ndarray

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
    for key, v in (("d", d), ("N", N), ("M", M)):
        if v is not None and not _is_int(v):
            raise InputError(f"grid.{key}: must be an integer, got {v!r}")
    if d in (0, 1):     # S^0 uses neither size, S^1 only N
        for key, v in (("N", N), ("M", M))[d:]:
            if v is not None:
                raise InputError(f"grid.{key}: S^{d} grids take no {key}, "
                                 f"got {v!r}")
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
    """Build the standard grid on S^d, cached per int value of d, N and M.

    d = 0 is the fixed two point set {0, pi}, which takes no N or M.
    d = 1 is a circle of N points k_i = -pi + 2 pi i / N, which takes no
    M.  d = 2 has N columns times M interior latitude rows plus two poles;
    the rows sit at t_j = -pi/2 + pi (j+1)/(M+1) from south to north,
    the middle row of an odd M at exactly t = 0.
    """
    _grid_size(d, N, M)
    return _sphere_grid(*(v if v is None else int(v) for v in (d, N, M)))


@functools.lru_cache(maxsize=None)
def _sphere_grid(d: int, N: int | None, M: int | None) -> MomentumGrid:
    plaq = slots = np.zeros((0, 4), dtype=int)
    if d == 0:
        pts = np.array([[0.0], [math.pi]])
        anti = np.array([0, 1])
        edges = np.zeros((0, 2), dtype=int)
    elif d == 1:
        pts = _circle_angles(N)[:, None]
        anti = -np.arange(N) % N
        edges = np.column_stack([np.arange(N), np.roll(np.arange(N), -1)])
    else:
        ks = _circle_angles(N)
        ts = -math.pi / 2 + math.pi * (np.arange(M) + 1) / (M + 1)
        if M % 2:
            ts[M // 2] = 0.0    # which rounds to +-2.2e-16 for some M
        south, north = N * M, N * M + 1
        pts = np.vstack([np.column_stack([np.tile(ks, M), np.repeat(ts, N)]),
                         [(0.0, -math.pi / 2), (0.0, math.pi / 2)]])
        j, i = np.divmod(np.arange(N * M), N)
        anti = np.append((M - 1 - j) * N + (N - i) % N, [north, south])
        # rows[r, i]: column i of row r, the poles standing in as rows 0
        # and M + 1; nxt[r, i] is its neighbor in column i + 1
        rows = np.vstack([np.full(N, south), np.arange(N * M).reshape(M, N),
                          np.full(N, north)])
        nxt = np.roll(rows, -1, axis=1)
        up = np.stack([rows[:-1], rows[1:]], axis=-1)
        # rings, then the up edges: vertical edges, south and north spokes
        order = np.r_[1:M, 0, M]
        edges = np.concatenate([np.stack([rows[1:-1], nxt[1:-1]], axis=-1),
                                up[order]]).reshape(-1, 2)
        plaq = np.stack([rows[:-1], nxt[:-1], nxt[1:], rows[1:]],
                        axis=-1).swapaxes(0, 1)
        plaq[:, 0] = np.roll(plaq[:, 0], -1, axis=1)  # (south, i+1, i, south)
        plaq[:, M, 3] = plaq[:, M, 0]                 # (a, b, north, a)
        plaq = plaq.reshape(-1, 4)
        # the edge ids of the same sides: ring[r, i] from rows[r, i] to
        # nxt[r, i] (2 E, degenerate, on the poles), rise[r, i] of up[r, i];
        # the top and left sides of a face run against their edges
        E = len(edges)
        ring = np.pad(np.arange(N * M).reshape(M, N), ((1, 1), (0, 0)),
                      constant_values=2 * E)
        rise = N * (M + np.argsort(order))[:, None] + np.arange(N)
        slots = np.minimum(np.stack(
            [ring[:-1], np.roll(rise, -1, axis=1), ring[1:], rise],
            axis=-1) + [0, 0, E, E], 2 * E).swapaxes(0, 1)
        slots[:, 0] = np.roll(slots[:, 0], -1, axis=1)  # as the corners
        slots[:, M, 2:] = slots[:, M, [3, 2]]           # (north -> a, a -> a)
        slots = slots.reshape(-1, 4)
    trims = tuple(np.flatnonzero(anti == np.arange(len(anti))).tolist())
    return MomentumGrid(d, N, M, _frozen(pts), _frozen(anti), _frozen(edges),
                        trims, _frozen(plaq), _frozen(slots))


make_sphere_grid.cache_clear = _sphere_grid.cache_clear


def _frame_stack(space, frames, size):
    """Checked (P, 2n, m) frame array of a plane sequence or an array.

    A plane sequence is first checked entry by entry (a :class:`Plane`
    of ``space``, one common rank) and stacked.  Either stack then gets
    the same checks, once for the whole batch, with the errors of
    :class:`Plane`.
    """
    if not isinstance(frames, np.ndarray):
        planes = tuple(frames)
        ranks = set()
        for p, A in enumerate(planes):
            if not isinstance(A, Plane):
                raise InputError(f"fiber {p} is not a Plane")
            if A.space.n != space.n:
                raise InputError(f"fiber {p} lives on the wrong space")
            ranks.add(A.rank)
        if len(ranks) > 1:
            raise InputError(f"fibers have mixed ranks {sorted(ranks)}")
        frames = [A.frame for A in planes]
    # a caller's array is copied; the stack of planes is new already
    F = _numbers(frames, "frame", copy=isinstance(frames, np.ndarray))
    d = space.dim
    if F.ndim != 3 or F.shape[1] != d:
        raise InputError(
            f"frames have shape {F.shape}, expected (points, {d}, m)")
    if len(F) != size:
        raise InputError(
            f"grid has {size} points but {len(F)} fibers were given")
    _check_frames(F)
    return F


def _standard_grid(grid):
    """The cached :func:`make_sphere_grid` grid that ``grid`` equals, table
    by table; InputError for anything else."""
    if isinstance(grid, MomentumGrid):
        sizes = (grid.d, grid.N, grid.M)
        _grid_size(*sizes)
        std = _sphere_grid(*(v if v is None else int(v) for v in sizes))
        if grid is std or all(np.array_equal(v, getattr(std, k))
                              for k, v in vars(grid).items()):
            return std
    raise InputError("grid: not the make_sphere_grid grid of its sizes")


def _check_label(label):
    if label is not None and str(label).upper() not in CLASS_TABLE:
        raise InputError(f"unknown class label {label!r}")


@dataclass(frozen=True, eq=False)
class Bundle:
    """Planes over a momentum grid, tied to a Clifford set.

    ``frames`` may be given as a sequence of :class:`Plane` objects or as
    a (P, 2n, m) array of orthonormal frames, one per grid point, and is
    stored as a read-only complex array of that shape.  ``fibers`` is the
    tuple of planes over it, built on first access.  ``grid`` must equal
    the :func:`make_sphere_grid` grid of its sizes, which the bundle keeps.

    ``label`` optionally names the symmetry class the Clifford set was
    built from; it is informational and carried through serialization.
    """

    space: NambuSpace
    cset: CliffordSet
    grid: MomentumGrid
    frames: np.ndarray
    label: str | None = None

    def __post_init__(self):
        if self.cset.space.n != self.space.n:
            raise InputError("Clifford set and bundle space disagree")
        object.__setattr__(self, "grid", _standard_grid(self.grid))
        object.__setattr__(self, "frames", _frozen(
            _frame_stack(self.space, self.frames, self.grid.size)))
        _check_label(self.label)

    @functools.cached_property
    def fibers(self) -> tuple:
        """The fiber at every grid point as a :class:`Plane` on its frame."""
        return tuple(_unchecked(Plane, self.space, F) for F in self.frames)

    @property
    def rank(self) -> int:
        return self.frames.shape[2]

    @functools.cached_property
    def _edges(self):
        """(distances, dets) of ``grid.edges``, read-only, from one blocked
        pass over O = F_a^H F_b of each edge (a, b): the projector distances
        ||F_b - F_a O||, and on a sphere (else None) the Fukui-Hatsugai-Suzuki
        link variables det O, m = 1 and 2 in closed form with ``_cmul``.
        Cached, as the frames are read-only: validation, Chern and
        Kane-Mele share the one pass."""
        edges, F, m = self.grid.edges, self.frames, self.rank
        dist = np.empty(len(edges))
        o = np.empty(len(edges), dtype=complex) if self.grid.d == 2 else None
        for blk in _blocks(len(edges), 16 * F[0].size):
            Fa, Fb = F.take(edges[blk].T, axis=0)
            O = _mm(_dagger(Fa), Fb)
            dist[blk] = _spectral_norms(Fb - _mm(Fa, O))
            if o is not None:
                o[blk] = (np.linalg.det(O) if m > 2 else O[:, 0, 0] if m == 1
                          else _cmul(O[:, 0, 0], O[:, 1, 1])
                          - _cmul(O[:, 0, 1], O[:, 1, 0]))
        return _frozen(dist), o if o is None else _frozen(o)


@dataclass(frozen=True, eq=False)
class BundleReport:
    """Outcome of :func:`validate_bundle`, with per-point deviations.

    ``tol`` and ``continuity_tol`` are the thresholds the checks applied.
    ``continuity_edge`` is the grid edge (a, b) at which the largest jump
    ``continuity_max`` occurs, or None when no fiber moves along any edge.
    It is an argmax over distances that can tie up to rounding, so among
    tied edges which one it names is arbitrary.
    """

    ok: bool
    pseudo_max: np.ndarray
    fermi_max: np.ndarray | None
    continuity_max: float
    continuity_edge: tuple | None
    tol: float
    continuity_tol: float
    messages: tuple = ()


def validate_bundle(bundle: Bundle, tol: float = ALG_TOL) -> BundleReport:
    """Check pseudo-symmetry, Fermi pairing, and continuity of a bundle.

    ``tol`` bounds the pseudo-symmetry and Fermi deviations, and
    ``CONTINUITY_TOL`` the edge distances.  The Fermi constraint is the
    spectral distance from the projector at -k to B conj(1 - Pi_A) B, the
    projector of the Fermi annihilator of the fiber A at k; it applies
    only to half-rank bundles and is skipped (reported as ``None``)
    otherwise.  Continuity is the largest spectral distance between the
    projectors at the ends of a grid edge, read from ``Bundle._edges``,
    whose link determinants the faces then reuse.
    """
    # a NaN threshold compares False, so every guard against it passes
    if (not isinstance(tol, numbers.Real) or isinstance(tol, bool)
            or not 0.0 <= tol < np.inf):
        raise InputError(f"tol must lie in [0, inf), got {tol!r}")
    grid = bundle.grid
    frames = bundle.frames
    size, dim, m = frames.shape
    pseudo = _pseudo_deviations(bundle.cset.generators, frames)
    messages = []
    if pseudo.max() > tol:
        p = int(np.argmax(pseudo))
        messages.append(
            f"pseudo-symmetry violated at point {p} (deviation {pseudo[p]:.3e})")
    fermi = None
    if m == bundle.space.n:
        # For rank-n planes, (1 - Pi_perp) F_{-k} = B conj(F_k) F_k^T B F_{-k}
        # with Pi_perp = B conj(1 - Pi_k) B, and B conj(F_k) is an isometry:
        # the projector distance equals the spectral norm of the pairing
        # matrix F_k^T B F_{-k}.
        fermi = np.empty(size)
        B = bundle.space.bracket_matrix
        bracket = _monomial_form(B)
        anti = grid.antipode
        for blk in _blocks(size, 16 * dim * m):
            fermi[blk] = _spectral_norms(_mm(
                np.swapaxes(frames[blk], 1, 2),
                _apply(B, frames.take(anti[blk], 0), bracket)))
        if fermi.max() > tol:
            p = int(np.argmax(fermi))
            messages.append(
                f"Fermi pairing violated at point {p} (deviation {fermi[p]:.3e})")
    # for planes of equal rank, |Pi_a - Pi_b| = |(1 - Pi_a) F_b|
    dist = bundle._edges[0]
    cont, worst = 0.0, None
    if dist.size and dist.max() > 0.0:
        i = int(np.argmax(dist))
        cont, worst = float(dist[i]), tuple(int(v) for v in grid.edges[i])
    if cont > CONTINUITY_TOL:
        messages.append(
            f"fibers jump across edge {worst} (distance {cont:.3f})")
    return BundleReport(not messages, pseudo, fermi, cont, worst, tol,
                        CONTINUITY_TOL, tuple(messages))


# ---------------------------------------------------------------------------
# serialization

def _complex_to_json(M) -> list:
    """Nested lists of [re, im] pairs, one per entry of a complex array."""
    M = np.ascontiguousarray(M, dtype=complex)
    return M.view(float).reshape(*M.shape, 2).tolist()


def _complex_from_json(obj, path, rows, cols) -> np.ndarray:
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
            try:
                vals.append(complex(cell[0], cell[1]))
            except OverflowError as exc:
                raise InputError(f"{path}: entry ({r}, {c}) is too large "
                                 f"for a float") from exc
        out.append(vals)
    M = _numbers(out, path)
    if M.shape != (rows, cols):
        raise InputError(f"{path}: shape {M.shape} does not match "
                         f"expected ({rows}, {cols})")
    return M


def serialize_bundle(bundle: Bundle) -> dict:
    """Encode a bundle as a JSON-compatible dict (version 2 layout).

    ``frames`` is ``{"dtype": "<c16", "shape": [P, 2n, m], "base64": ...}``,
    the frame array's little-endian complex128 bytes in C order, so every
    float reads back exactly; generator matrices are ``[re, im]`` pairs.
    """
    F = np.ascontiguousarray(bundle.frames, dtype="<c16")
    return _document(bundle, binascii.b2a_base64(F, newline=False).decode())


def _document(bundle: Bundle, payload: str) -> dict:
    """The version-2 document of ``bundle`` with ``payload`` as the frames'
    base64, its last value: the JSON text ends in the payload and ``"}}``."""
    grid = bundle.grid
    return {
        "version": 2,
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
        "frames": {"dtype": "<c16", "shape": list(bundle.frames.shape),
                   "base64": payload},
    }


# frame bytes per base64 chunk: whole 3-byte groups, so the chunks' base64
# concatenates to that of the whole array; 64 KiB of text, below the 128 KiB
# at which malloc would map fresh pages that fault on each use
_CHUNK = 3 << 14


def _write_document(fh, bundle: Bundle) -> None:
    """Write ``json.dumps(serialize_bundle(bundle)) + "\\n"`` to the open
    text file ``fh`` without building that text: the document's head, the
    frame bytes as base64 chunk by chunk, then its tail ``"}}`` and the
    newline."""
    # one line: only json.dumps without indent runs the C encoder
    head = json.dumps(_document(bundle, ""))
    raw = memoryview(np.ascontiguousarray(bundle.frames, "<c16")).cast("B")
    fh.write(head[:-3])
    for at in range(0, len(raw), _CHUNK):
        fh.write(binascii.b2a_base64(raw[at:at + _CHUNK],
                                     newline=False).decode("ascii"))
    fh.write(head[-3:] + "\n")


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


def _frames(data, size, dim):
    """The read-only frame array of the base64 ``frames`` payload."""
    fdata = _need(data, "frames", "", dict)
    dtype = _need(fdata, "dtype", "frames", str)
    if dtype != "<c16":
        raise InputError(f"frames.dtype: expected '<c16', got {dtype!r}")
    shape = _need(fdata, "shape", "frames", list)
    # exact ints: JSON true/false decode to bool, a subclass of int
    if ([type(v) for v in shape] != [int] * 3 or shape[:2] != [size, dim]
            or not 1 <= shape[2] < dim):
        raise InputError(f"frames.shape: expected [{size}, {dim}, m] with "
                         f"1 <= m < {dim}, got {shape!r}")
    text = _need(fdata, "base64", "frames", str)
    try:    # reads an ASCII str in place, with no copy of the text
        raw = binascii.a2b_base64(text, strict_mode=True)
    except ValueError as exc:       # binascii.Error, or a non-ASCII str
        raise InputError(f"frames.base64: not valid base64: {exc}") from exc
    if len(raw) != 16 * math.prod(shape):
        raise InputError(f"frames.base64: {len(raw)} bytes do not fill {shape}")
    return _numbers(np.frombuffer(raw, "<c16").reshape(shape), "frames.base64")


def deserialize_bundle(data: dict) -> Bundle:
    """Rebuild a bundle from its version-2 dict encoding.

    Structural problems, any other version (1 included) among them, raise
    ``InputError`` naming the offending path, before the grid is built;
    invalid content (a skew frame) raises ``ValidationError`` from the
    constructors and the frame check.  The bundle's frames are the decoded
    array itself, read-only: a view of the buffer the payload decodes into.
    """
    version = _need(data, "version", "", int)
    if version != 2:
        raise InputError(f"version: unsupported value {version}")
    n = _need(data, "n", "", int)
    if n < 1:
        raise InputError(f"n: must be positive, got {n}")
    space = make_nambu(n)
    dim = 2 * n

    gdata = _need(data, "grid", "", dict)
    d = _need(gdata, "d", "grid", int)
    N, M = gdata.get("N"), gdata.get("M")
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
    # exact ints, as for frames.shape: [true, false] and [1.0, 0.0] equal [1, 0]
    if any(type(v) is not int for v in sig):
        raise InputError(f"class.signature: expected integers, got {sig!r}")
    cset = CliffordSet(space, tuple(gens))
    if list(cset.signature) != sig:
        raise InputError(
            f"class.signature: declares {sig}, generators give "
            f"{list(cset.signature)}")

    frames = _frames(data, size, dim)
    # Bundle's checks without its copy: nothing else holds the decoded array
    _check_frames(frames)
    _check_label(label)
    return _unchecked(Bundle, space, cset, make_sphere_grid(d, N, M),
                      _frozen(frames), label)


def double_bundle(bundle: Bundle) -> Bundle:
    """Apply (1,1)-doubling to every part of a bundle.

    The space doubles, the Clifford set is extended by the copy-swap and
    copy-sign generators, and all fibers are lifted in one batch.  The
    class label (when present) is unchanged: doubling shifts the
    signature by (1,1) and therefore stays in the same class.
    """
    doubled, big = double_one_one(bundle.space, bundle.cset)
    _, frames = lift_frames(bundle.space, bundle.frames)
    return _unchecked(Bundle, doubled, big, bundle.grid, frames, bundle.label)
