"""Random constructions shared by the heavier test suites.

Everything here takes an explicit ``numpy.random.Generator`` so the
calling test controls the seed.
"""

import numpy as np
from scipy.linalg import expm

from fermibundle.bundles import Bundle, double_bundle, make_sphere_grid
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
