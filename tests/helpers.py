"""Random constructions shared by the heavier test suites.

Everything here takes an explicit ``numpy.random.Generator`` so the
calling test controls the seed.
"""

import numpy as np
from scipy.linalg import expm

from fermibundle.bundles import (Bundle, _complex_to_json, double_bundle,
                                 make_sphere_grid)
from fermibundle.nambu import CliffordSet, make_nambu
from fermibundle.planes import Plane, vacuum_plane
from fermibundle.suspension import SuspensionInput, suspend
from fermibundle.symmetry import imaginary_realization


def random_unitary(m, rng):
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, _ = np.linalg.qr(A)
    return Q


def random_plane(space, rank, rng):
    """A uniformly random rank-``rank`` plane in ``space``."""
    A = (rng.standard_normal((space.dim, rank))
         + 1j * rng.standard_normal((space.dim, rank)))
    Q, _ = np.linalg.qr(A)
    return Plane(space, Q[:, :rank])


def random_lagrangian(space, rng):
    """A random plane satisfying the Fermi constraint.

    Rotating the vacuum plane by a bracket-preserving unitary (real
    orthogonal in the Majorana picture) keeps the constraint exactly.
    """
    Y = rng.standard_normal((space.dim, space.dim))
    Y = Y - Y.T
    Om = space.majorana_transform
    U = Om.conj().T @ expm(Y) @ Om
    return Plane(space, U @ vacuum_plane(space).frame)


def random_pseudo_plane(space, K, rng):
    """A random half-rank plane that ``K`` maps onto its complement."""
    M = K.matrix if hasattr(K, "matrix") else np.asarray(K, dtype=complex)
    vals, vecs = np.linalg.eigh(-1j * M)
    V = vecs[:, np.argsort(-vals)]          # +i eigenspace of K first
    n = space.n
    U = random_unitary(n, rng)
    frame = V @ np.vstack([np.eye(n), U.conj().T]) / np.sqrt(2)
    return Plane(space, frame)


def regauge(bundle, rng):
    """The same bundle with a random right unitary on every frame."""
    fibers = [Plane(bundle.space, A.frame @ random_unitary(A.rank, rng))
              for A in bundle.fibers]
    return Bundle(bundle.space, bundle.cset, bundle.grid, fibers,
                  bundle.label)


def nudge(bundle, p, eps, rng):
    """The bundle with fiber ``p`` moved by about ``eps``."""
    A = bundle.fibers[p]
    noise = (rng.standard_normal(A.frame.shape)
             + 1j * rng.standard_normal(A.frame.shape))
    Q, _ = np.linalg.qr(A.frame + eps * noise)
    fibers = list(bundle.fibers)
    fibers[p] = Plane(bundle.space, Q)
    return Bundle(bundle.space, bundle.cset, bundle.grid, fibers,
                  bundle.label)


def _coordinate_lines(space):
    e = np.eye(space.dim, dtype=complex)
    return Plane(space, e[:, :1]), Plane(space, e[:, 1:2])


def _pair_bundle(space, cset, A0, Api, label=None):
    return Bundle(space, cset, make_sphere_grid(0), (A0, Api), label)


def random_suspension_inputs(rng, copies=20):
    """Valid suspension inputs covering ranks 1, 2, 4 and both base dims.

    Five families per copy: a one-band point pair, its band doubling,
    the double doubling, a doubled circle bundle, and a doubled
    suspended sphere-equator bundle.
    """
    sp1 = make_nambu(1)
    bdi = imaginary_realization(sp1, "BDI")
    c_line, cdag_line = _coordinate_lines(sp1)
    lines = (c_line, cdag_line)
    inputs = []
    for _ in range(copies):
        # n=1, d=0: coordinate Lagrangian lines at the two points
        pair = _pair_bundle(sp1, bdi, lines[rng.integers(2)],
                            lines[rng.integers(2)], "BDI")
        inputs.append(SuspensionInput(pair, 0))
        # n=2, d=0: doubling of a random Lagrangian pair
        base = _pair_bundle(sp1, CliffordSet(sp1, ()),
                            random_lagrangian(sp1, rng),
                            random_lagrangian(sp1, rng), "D")
        d2 = double_bundle(base)
        inputs.append(SuspensionInput(d2, 1, 0))
        # n=4, d=0: doubled twice
        d4 = double_bundle(d2)
        inputs.append(SuspensionInput(d4, 3, 2))
        # n=2, d=1: doubling of a random suspended circle bundle
        ring = suspend(SuspensionInput(
            _pair_bundle(sp1, bdi, lines[rng.integers(2)],
                         lines[rng.integers(2)], "BDI"), 0), points=8)
        inputs.append(SuspensionInput(double_bundle(ring), 1, 0))
        # n=4, d=1: doubling of the suspended doubled pair
        ring2 = suspend(SuspensionInput(d2, 1, 0), points=8)
        inputs.append(SuspensionInput(double_bundle(ring2), 2, 1))
    return inputs


def v1_document(bundle):
    """The version-1 dict encoding of a bundle: one ``{"rank", "frame"}``
    object per grid point, every complex entry an ``[re, im]`` pair."""
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
            {"rank": bundle.rank, "frame": F}
            for F in _complex_to_json(bundle.frames)
        ],
    }


def reference_sphere_tables(N, M):
    """The sphere grid's tables, built one entry at a time in loops.

    Returns ``(edges, corners, slots, plaquette_antipode)`` as lists: the
    edge and plaquette tuples in grid order, each plaquette padded to four
    corners by repeating its first, the edge of each plaquette side found
    by looking up its corners in the edge list, and the antipode of each
    plaquette found by looking up the set of its antipodal corners.

    Every edge points north or east.  A side runs along its edge when it
    climbs a row, or stays in its row and steps to the next column, with
    the columns of a face counted without wrapping; at N = 2 this tells
    apart the two ring edges that join the same two points.
    """
    south, north = N * M, N * M + 1
    edges = []
    for j in range(M):
        edges.extend((j * N + i, j * N + (i + 1) % N) for i in range(N))
    for j in range(M - 1):
        edges.extend((j * N + i, (j + 1) * N + i) for i in range(N))
    edges.extend((south, i) for i in range(N))
    edges.extend(((M - 1) * N + i, north) for i in range(N))
    # faces as (row, unwrapped column) corners, the poles being rows -1
    # and M at any column
    faces = []
    for i in range(N):
        faces.append(((-1, i), (0, i + 1), (0, i)))
        for j in range(M - 1):
            faces.append(((j, i), (j, i + 1), (j + 1, i + 1), (j + 1, i)))
        faces.append(((M - 1, i), (M - 1, i + 1), (M, i)))

    def point(row, col):
        return south if row < 0 else north if row == M else row * N + col % N

    plaquettes = [tuple(point(*c) for c in face) for face in faces]
    corners = [list(cyc + cyc[:1] * (4 - len(cyc))) for cyc in plaquettes]
    index = {e: k for k, e in enumerate(edges)}
    E = len(edges)
    slots = []
    for face in faces:
        face = list(face + face[:1] * (4 - len(face)))
        row = []
        for s, t in zip(face, face[1:] + face[:1]):
            a, b = point(*s), point(*t)
            if a == b:
                row.append(2 * E)
            elif t > s:             # north, or east within the row
                row.append(index[(a, b)])
            else:
                row.append(index[(b, a)] + E)
        slots.append(row)

    # k -> -k takes column c to N - c and row j to M - 1 - j; a pole's
    # column is dropped, and the faces' unwrapped columns keep the two
    # faces on the same four points apart at N = 2
    def place(row, col):
        return (row, col if 0 <= row < M else 0)

    lookup = {frozenset(place(*c) for c in face): q
              for q, face in enumerate(faces)}
    plaquette_antipode = [
        lookup[frozenset(place(M - 1 - r, N - c) for r, c in face)]
        for face in faces]
    return edges, corners, slots, plaquette_antipode



def union_find_components(grid, ids):
    """Connected components of the zero elements ``ids`` of a sphere grid,
    by a dict union-find.

    Point p is element p and plaquette q is element P + q, P being the
    point count; a zero plaquette is joined to its zero corners and to
    every zero plaquette sharing a corner.  The larger root is always
    attached to the smaller, so each root is the smallest element of its
    component.  Returns the root of every zero element and -1 elsewhere.
    """
    P = grid.size
    plaqs = ids[ids >= P]
    corners = grid.plaquettes[plaqs - P].ravel()
    owner = np.repeat(plaqs, 4)
    on_zero = np.isin(corners, ids)
    _, first, inv = np.unique(corners, return_index=True, return_inverse=True)
    pairs = np.concatenate([
        np.column_stack([owner[on_zero], corners[on_zero]]),
        np.column_stack([owner[first][inv], owner])])
    parent = {x: x for x in ids.tolist()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs.tolist():
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    root = np.full(P + len(grid.plaquettes), -1)
    root[ids] = [find(x) for x in ids.tolist()]
    return root
