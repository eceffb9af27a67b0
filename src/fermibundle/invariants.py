"""Topological diagnostics for plane bundles.

Everything here reduces to finite linear algebra on stored fibers: Pfaffian
signs at self-antipodal momenta, zero counting for a skew bilinear form over
the sphere, and phase-accumulation formulas for winding and Chern numbers.
All phase bookkeeping uses principal branches with explicit margins, so a
grid that is too coarse raises :class:`NumericError` instead of silently
returning a wrong integer.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bundles import Bundle
from .errors import InputError, NumericError, ValidationError
from .nambu import (Generator, NambuSpace, _frozen, _generator_matrix,
                    make_nambu)
from .planes import (Plane, complement, fermi_check, plane_distance,
                     pseudo_check, vacuum_plane)
from .tolerances import ALG_TOL, CHERN_RESIDUAL

_KINDS = ("parity_bit", "z2_bit", "winding_int", "chern_int",
          "component_index")

# |p| below this multiple of the field maximum counts as an exact grid zero.
_ZERO_REL = 1e-8
# Margins keeping principal phase increments away from the branch cut.
_PHASE_MARGIN_ZEROS = 0.35
_PHASE_MARGIN_WINDING = 0.15
_OVERLAP_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class InvariantResult:
    """Outcome of one topological index computation.

    ``kind`` names the index family, ``value`` is the integer result, and
    ``diagnostics`` carries per-kind payload such as zero locations or
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


def pfaffian(X, tol: float = ALG_TOL) -> complex:
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Uses Parlett-Reid elimination with partial pivoting; every symmetric
    row-and-column swap flips the sign.  Satisfies Pf(X)^2 = det(X).

    An odd-dimensional skew matrix has Pfaffian zero by convention; that
    case returns 0 with a warning since it usually signals a caller bug.
    """
    A = np.array(X, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    m = A.shape[0]
    if m == 0:
        return complex(1.0)
    scale = float(np.abs(A).max())
    if np.abs(A + A.T).max() > tol * max(1.0, scale):
        raise ValidationError("matrix is not skew-symmetric")
    if m % 2:
        warnings.warn("odd-dimensional skew matrix has Pfaffian 0",
                      RuntimeWarning, stacklevel=2)
        return complex(0.0)
    tiny = 1e-13 * max(1.0, scale)
    pf = complex(1.0)
    for k in range(0, m - 1, 2):
        col = np.abs(A[k + 1:, k])
        if col.max() <= tiny:
            return complex(0.0)
        p = int(np.argmax(col)) + k + 1
        if p != k + 1:
            A[[k + 1, p], :] = A[[p, k + 1], :]
            A[:, [k + 1, p]] = A[:, [p, k + 1]]
            pf = -pf
        pf *= A[k, k + 1]
        if k + 2 < m:
            tau = A[k + 2:, k] / A[k, k + 1]
            colv = A[k + 2:, k + 1].copy()
            A[k + 2:, k + 2:] += np.outer(colv, tau) - np.outer(tau, colv)
    return pf


@dataclass(frozen=True, eq=False)
class OmegaForm:
    """The skew bilinear form (v, w) -> (J1 v)^T B w on a Nambu space."""

    space: NambuSpace
    matrix: np.ndarray

    def restrict(self, A: Plane) -> np.ndarray:
        """Pull the form back to a plane's frame, giving an m x m matrix."""
        if A.space.dim != self.space.dim:
            raise InputError("plane lives on the wrong space")
        return A.frame.T @ self.matrix @ A.frame


def omega_form(space: NambuSpace, J1) -> OmegaForm:
    """Build the bilinear form of a real pseudo-symmetry generator.

    The matrix is W = J1^T B.  Skew-symmetry of W is equivalent to J1
    being a real generator squaring to -1, so passing an imaginary
    generator fails the skewness check.
    """
    M = _generator_matrix(J1, space.dim)
    W = M.T @ space.bracket_matrix
    if np.abs(W + W.T).max() > ALG_TOL:
        raise ValidationError(
            "bilinear form is not skew-symmetric; a real generator with "
            "square -1 is required")
    if abs(np.linalg.det(W)) < 1e-8:
        raise ValidationError("bilinear form is degenerate")
    return OmegaForm(space, _frozen(W))


def pfaffian_field(bundle: Bundle, form) -> np.ndarray:
    """Pfaffian of the restricted form at every grid point.

    ``form`` may be an :class:`OmegaForm`, a :class:`Generator`, or a raw
    matrix; generators and matrices are passed through :func:`omega_form`.
    """
    om = form if isinstance(form, OmegaForm) else omega_form(bundle.space,
                                                             form)
    if bundle.rank % 2:
        raise InputError("the Pfaffian field needs even-rank fibers")
    return np.array([pfaffian(om.restrict(A)) for A in bundle.fibers])


def _majorana_pfaffian(space: NambuSpace, A: Plane) -> float:
    """Pfaffian of the reflection through A in the Majorana basis."""
    Om = space.majorana_transform
    S = np.eye(space.dim) - 2.0 * A.projector
    X = -1j * (Om @ S @ Om.conj().T)
    if np.abs(X.imag).max() > 1e-8:
        raise NumericError("Majorana reflection is not real")
    Xr = X.real
    if (np.abs(Xr + Xr.T).max() > 1e-8
            or np.abs(Xr @ Xr.T - np.eye(space.dim)).max() > 1e-8):
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
    bits = tuple(fermion_parity(bundle.space, bundle.fibers[p]).value
                 for p in grid.trims)
    momenta = tuple(float(grid.points[p, 0]) for p in grid.trims)
    return InvariantResult("z2_bit", bits[0] ^ bits[1],
                           {"parity_bits": bits, "momenta": momenta})


def _link_overlaps(bundle) -> dict:
    """Frame overlaps det(F_a^H F_b) over every plaquette edge.

    These are the Fukui-Hatsugai-Suzuki link variables.  Each edge is
    computed once, in the direction of its first traversal, and stored
    under both orientations, the reverse one conjugated.
    """
    fibers = bundle.fibers
    links = {}
    for cyc in bundle.grid.plaquettes:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if (a, b) not in links:
                o = complex(np.linalg.det(
                    fibers[a].frame.conj().T @ fibers[b].frame))
                links[(a, b)] = o
                links[(b, a)] = o.conjugate()
    return links


def _plaquette_links(links, qi, cyc):
    """Oriented (a, b, overlap) triples around plaquette ``qi``."""
    out = [(a, b, links[(a, b)]) for a, b in zip(cyc, cyc[1:] + cyc[:1])]
    if any(abs(o) < _OVERLAP_FLOOR for _, _, o in out):
        raise NumericError(
            f"singular frame overlap on plaquette {qi}; refine the grid")
    return out


def _plaquette_zeros(bundle, grid, p):
    """Classify plaquettes as crossing or vortex carriers.

    A plaquette with an exact zero on a corner cannot support phase
    winding and is marked as crossing; so is one with an ambiguous phase
    step.  Otherwise the gauge-compensated winding of p around the
    plaquette is computed and nonzero windings are recorded.
    """
    absp = np.abs(p)
    zero_set = set(np.flatnonzero(
        absp < _ZERO_REL * absp.max()).tolist())
    links = _link_overlaps(bundle)
    crossing = set()
    vortices = {}
    for qi, cyc in enumerate(grid.plaquettes):
        if any(c in zero_set for c in cyc):
            crossing.add(qi)
            continue
        dsum = 0.0
        oprod = complex(1.0)
        ambiguous = False
        for a, b, o in _plaquette_links(links, qi, cyc):
            step = float(np.angle((p[b] / p[a]) * (o.conjugate() / abs(o))))
            if abs(step) > np.pi - _PHASE_MARGIN_ZEROS:
                ambiguous = True
            dsum += step
            oprod *= o
        if ambiguous:
            crossing.add(qi)
            continue
        nu = int(round((dsum + float(np.angle(oprod))) / (2.0 * np.pi)))
        if nu:
            vortices[qi] = nu
    return zero_set, crossing, vortices


def _component_representative(members, grid, absp, poles):
    """A representative grid index: non-pole, smallest |p|, smallest index."""
    points = sorted(z for kind, z in members if kind == "p")
    if not points:
        corners = set()
        for kind, qi in members:
            if kind == "q":
                corners.update(grid.plaquettes[qi])
        points = sorted(corners)
    ranked = sorted(points, key=lambda z: (z in poles, absp[z], z))
    return ranked[0]


def kane_mele_z2(bundle: Bundle, J1) -> InvariantResult:
    """Zero-pair parity of the Pfaffian field over the sphere.

    Restricting the bilinear form of ``J1`` to each fiber gives a skew
    matrix whose Pfaffian p(k) vanishes exactly at band-inversion momenta.
    Zeros are located two ways: exact grid zeros of p, and plaquettes
    around which the frame-compensated phase of p winds.  Zero elements
    are clustered into connected components, the antipodal involution is
    checked to pair them, and the returned bit is the pair count mod 2.
    """
    grid = bundle.grid
    if grid.d != 2:
        raise InputError("the Kane-Mele index lives on S^2")
    n = bundle.space.n
    if bundle.rank != n or n % 2:
        raise InputError("rank-n fibers with n even are required")
    p = pfaffian_field(bundle, J1)
    scale = float(np.abs(p).max())
    if scale < 1e-12:
        raise NumericError("Pfaffian field vanishes identically on the grid")
    absp = np.abs(p)

    zero_set, crossing, vortices = _plaquette_zeros(bundle, grid, p)
    trim_set = set(grid.trims)
    for z in sorted(zero_set):
        if int(grid.antipode[z]) not in zero_set:
            raise ValidationError(f"unpaired Pfaffian zero at point {z}")
        if z in trim_set:
            raise ValidationError(
                f"Pfaffian zero at a self-antipodal momentum (point {z})")

    elements = [("p", z) for z in sorted(zero_set)]
    elements += [("q", qi) for qi in sorted(crossing | set(vortices))]
    band_max = 0.0
    for z in sorted(zero_set):
        dist = plane_distance(complement(bundle.fibers[z]),
                              bundle.fibers[int(grid.antipode[z])])
        band_max = max(band_max, dist)

    parent = {e: e for e in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for a, b in grid.edges:
        if a in zero_set and b in zero_set:
            union(("p", a), ("p", b))
    zero_plaqs = sorted(crossing | set(vortices))
    corner_map = {}
    for qi in zero_plaqs:
        for c in grid.plaquettes[qi]:
            if c in zero_set:
                union(("q", qi), ("p", c))
            corner_map.setdefault(c, []).append(qi)
    for shared in corner_map.values():
        for qi in shared[1:]:
            union(("q", shared[0]), ("q", qi))

    plaq_lookup = {frozenset(cyc): qi
                   for qi, cyc in enumerate(grid.plaquettes)}
    zero_plaq_set = set(zero_plaqs)

    def sigma(e):
        kind, idx = e
        if kind == "p":
            return ("p", int(grid.antipode[idx]))
        image = frozenset(int(grid.antipode[c])
                          for c in grid.plaquettes[idx])
        qj = plaq_lookup[image]
        if qj not in zero_plaq_set:
            raise ValidationError(
                f"unpaired Pfaffian zero near plaquette {idx}")
        return ("q", qj)

    comps = {}
    for e in elements:
        comps.setdefault(find(e), []).append(e)
    sigma_root = {r: find(sigma(members[0]))
                  for r, members in comps.items()}

    poles = set(grid.pole_indices())
    pairs = []
    pair_count = 0
    fixed = 0
    seen = set()
    for r, members in comps.items():
        if r in seen:
            continue
        rep = _component_representative(members, grid, absp, poles)
        if sigma_root[r] == r:
            seen.add(r)
            fixed += 1
            mate = int(grid.antipode[rep])
            pairs.append({
                "points": (tuple(map(float, grid.points[rep])),
                           tuple(map(float, grid.points[mate]))),
                "count": 1, "self_antipodal": True})
            pair_count += 1
        else:
            s = sigma_root[r]
            seen.update((r, s))
            nu = abs(sum(vortices.get(idx, 0)
                         for kind, idx in members if kind == "q"))
            count = max(1, nu)
            rep_s = _component_representative(comps[s], grid, absp, poles)
            pairs.append({
                "points": (tuple(map(float, grid.points[rep])),
                           tuple(map(float, grid.points[rep_s]))),
                "count": count, "self_antipodal": False})
            pair_count += count

    return InvariantResult("z2_bit", pair_count % 2, {
        "pairs": tuple(pairs),
        "pair_count": pair_count,
        "components": len(comps),
        "self_antipodal_components": fixed,
        "zero_points": tuple(sorted(zero_set)),
        "vortex_plaquettes": dict(sorted(vortices.items())),
        "crossing_plaquettes": tuple(zero_plaqs),
        "total_vorticity": int(sum(vortices.values())),
        "band_inversion_max": band_max,
        "field": p})


def chiral_winding(bundle: Bundle, K1) -> InvariantResult:
    """Winding number of det U(k) for one imaginary pseudo-symmetry.

    In an eigenbasis of K1 with the +i eigenspace first, each fiber
    projector takes the form [[1, U]/2, [U^dag, 1]/2] with U(k) unitary.
    The returned integer is the accumulation of the principal phase of
    det U around the circle, which is independent of the eigenbasis.
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
    bad = [pt for pt, A in enumerate(bundle.fibers)
           if pseudo_check(K, A) > ALG_TOL]
    if bad:
        shown = ", ".join(str(b) for b in bad[:4])
        raise ValidationError(
            f"fibers are not pseudo-symmetric under K1 at points {shown}")

    vals, vecs = np.linalg.eigh(-1j * K)
    if not (np.all(vals[:n] < 0) and np.all(vals[n:] > 0)):
        raise ValidationError("generator eigenvalues are not balanced")
    V = np.hstack([vecs[:, n:], vecs[:, :n]])

    dets = []
    for pt, A in enumerate(bundle.fibers):
        block = 2.0 * (V.conj().T @ A.projector @ V)[:n, n:]
        if np.abs(block.conj().T @ block - np.eye(n)).max() > 1e-8:
            raise NumericError(
                f"projector block at point {pt} is not unitary")
        dets.append(complex(np.linalg.det(block)))

    total = 0.0
    max_step = 0.0
    for i in range(grid.N):
        step = float(np.angle(dets[(i + 1) % grid.N] * np.conj(dets[i])))
        if abs(step) >= np.pi - _PHASE_MARGIN_WINDING:
            raise NumericError(
                f"phase step {step:+.3f} between points {i} and "
                f"{(i + 1) % grid.N} is too large; refine the grid")
        total += step
        max_step = max(max_step, abs(step))
    w = int(round(total / (2.0 * np.pi)))
    residual = abs(total / (2.0 * np.pi) - w)
    return InvariantResult("winding_int", w,
                           {"max_step": max_step, "residual": residual})


def chern_number(bundle: Bundle) -> InvariantResult:
    """First Chern number from plaquette overlap fluxes.

    Each oriented plaquette contributes the principal argument of the
    product of frame overlap determinants around its boundary; the sum of
    fluxes over the sphere is 2 pi times an integer for a fine enough
    grid.
    """
    grid = bundle.grid
    if grid.d != 2:
        raise InputError("the Chern number lives on S^2")
    links = _link_overlaps(bundle)
    fluxes = []
    for qi, cyc in enumerate(grid.plaquettes):
        prod = complex(1.0)
        for _, _, o in _plaquette_links(links, qi, cyc):
            prod *= o
        fluxes.append(float(np.angle(prod)))
    min_overlap = min(abs(o) for o in links.values())
    total = float(np.sum(fluxes))
    c = int(round(total / (2.0 * np.pi)))
    residual = abs(total / (2.0 * np.pi) - c)
    if residual >= CHERN_RESIDUAL:
        raise NumericError(
            f"flux residual {residual:.3f} exceeds {CHERN_RESIDUAL}; "
            "refine the grid")
    return InvariantResult("chern_int", c,
                           {"fluxes": np.asarray(fluxes),
                            "residual": residual,
                            "min_overlap": float(min_overlap)})


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
    n_plus = int(round(trace))
    if abs(trace - n_plus) > 1e-8:
        raise NumericError(
            f"creation-mode occupation {trace:.6f} is not an integer")
    return InvariantResult("component_index", n_plus, {"trace": trace})
