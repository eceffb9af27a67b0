"""Headline acceptance checks for the library as a whole.

Each test pins one end-to-end guarantee at its stated tolerance: the
closed-form examples, the randomized suspension construction, the
generator table, the doubling bijection, and the numerical cross-checks
between independent computation routes.  The per-module suites cover
the finer-grained behavior and the error paths.
"""

import math

import numpy as np
from scipy.linalg import expm

from helpers import (random_lagrangian, random_plane, random_pseudo_plane,
                     random_suspension_inputs, random_unitary)

from fermibundle import (Bundle, CliffordSet, Generator, Plane,
                         SuspensionInput, chern_number, chiral_winding,
                         check_clifford, class_d_z2, class_info,
                         classify_generator, complement, double_one_one,
                         example_dIII, example_kitaev_chain, example_majorana,
                         fermi_check, fermion_parity, j_of, kane_mele_z2,
                         kitaev_generators, lift_plane, make_nambu, pfaffian,
                         pfaffian_field, plane_distance, pseudo_check, rotor,
                         suspend, unlift_plane, validate_bundle)


# ---------------------------------------------------------------------------
# closed-form frames used as oracles


def _majorana_line(k):
    return np.array([[-math.sin(k / 2)], [math.cos(k / 2)]], dtype=complex)


def _diii_frame(k, t):
    a, b = k / 2, t / 2
    plus = np.array([-math.sin(a + b), math.sin(a - b),
                     math.cos(a + b), math.cos(a - b)])
    minus = np.array([-math.sin(a - b), -math.sin(a + b),
                      math.cos(a - b), -math.cos(a + b)])
    return np.column_stack([plus, minus]).astype(complex) / math.sqrt(2)


def _chain_frame(n, n_plus, k, arc=None):
    """Band frames of the chain on its two arcs (``arc`` forces one)."""
    east = abs(k) <= math.pi / 2 if arc is None else arc == "east"
    cols = []
    for band in range(n):
        v = np.zeros(2 * n)
        if east and band < n - n_plus:
            v[band] = math.cos(k / 2)
            v[n + band] = math.sin(k / 2)
        elif east:
            v[n + band] = math.cos(k / 2)
            v[band] = math.sin(k / 2)
        else:
            v[band] = math.sin(k / 2)
            v[n + band] = math.cos(k / 2)
        cols.append(v)
    return np.column_stack(cols).astype(complex)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_majorana_circle():
    """One-band chain fibers, end-point parities, and the class-D bit."""
    b = example_majorana(N=64)
    for p, k in enumerate(b.grid.points[:, 0]):
        ref = Plane(b.space, _majorana_line(k))
        assert plane_distance(b.fibers[p], ref) < 1e-12
    i_pi, i_zero = b.grid.trims
    assert b.grid.points[i_zero, 0] == 0.0
    assert abs(b.grid.points[i_pi, 0]) == math.pi
    assert fermion_parity(b.space, b.fibers[i_zero]).value == 1
    assert fermion_parity(b.space, b.fibers[i_pi]).value == 0
    assert class_d_z2(b).value == 1
    trivial = example_majorana(occupied_at_zero=False, N=64)
    assert class_d_z2(trivial).value == 0


def test_criterion_2_diii_sphere():
    """Spin-doubled sphere fibers, validation, and the Kane-Mele bit."""
    N = 64
    b = example_dIII(N=N)
    assert b.grid.size == N * 33 + 2
    for p in range(b.grid.size):
        k, t = b.grid.points[p]
        ref = Plane(b.space, _diii_frame(k, t))
        assert plane_distance(b.fibers[p], ref) < 1e-12
    assert validate_bundle(b).ok
    assert kane_mele_z2(b, b.cset.generators[0]).value == 1
    # the bands invert on |k| = pi/2, two points per row, and at the poles
    p = np.abs(pfaffian_field(b, b.cset.generators[0]))
    zeros = np.flatnonzero(p < 1e-8 * p.max())
    poles = b.grid.pole_indices()
    ring = np.setdiff1d(zeros, poles)
    assert set(poles) <= set(zeros.tolist())
    assert len(ring) == 2 * b.grid.M
    assert np.abs(np.abs(b.grid.points[ring, 0]) - math.pi / 2).max() < 1e-12
    assert max(plane_distance(complement(b.fibers[z]),
                              b.fibers[b.grid.antipode[z]])
               for z in zeros) < 1e-8


def test_criterion_3_chain_arcs_and_windings():
    """Chain fibers follow the two arcs, join at |k| = pi/2, and the
    winding number separates all occupation counts."""
    for n, n_plus in [(1, 0), (1, 1), (2, 1), (3, 2)]:
        b = example_kitaev_chain(n, n_plus, N=64)
        for p, k in enumerate(b.grid.points[:, 0]):
            ref = Plane(b.space, _chain_frame(n, n_plus, k))
            assert plane_distance(b.fibers[p], ref) < 1e-12
        for k in (-math.pi / 2, math.pi / 2):
            east = Plane(b.space, _chain_frame(n, n_plus, k, arc="east"))
            west = Plane(b.space, _chain_frame(n, n_plus, k, arc="west"))
            assert plane_distance(east, west) < 1e-12
    winds = []
    for n_plus in range(4):
        b = example_kitaev_chain(3, n_plus, N=64)
        winds.append(chiral_winding(b, b.cset.generators[0]).value)
    assert len(set(winds)) == 4
    assert winds[0] == 0


def test_criterion_4_random_suspensions():
    """100 random valid inputs suspend to bundles that satisfy every
    pseudo-symmetry, pair across antipodes, and hit the eigenplane poles."""
    rng = np.random.default_rng(1234)
    inputs = random_suspension_inputs(rng, copies=20)
    assert len(inputs) == 100
    for inp in inputs:
        out = suspend(inp, points=8)
        report = validate_bundle(out, tol=1e-10)
        assert report.ok, report.messages
        assert report.pseudo_max.max() < 1e-10
        for p in range(out.grid.size):
            q = int(out.grid.antipode[p])
            assert fermi_check(out.fibers[p], out.fibers[q]) < 1e-10
        n = out.space.n
        _, vecs = np.linalg.eigh(1j * inp.K.matrix)
        south = Plane(out.space, vecs[:, :n])
        north = Plane(out.space, vecs[:, n:])
        if out.grid.d == 2:
            s_idx, n_idx = out.grid.pole_indices()
        else:
            s_idx, n_idx = out.grid.size // 4, 3 * out.grid.size // 4
        assert plane_distance(out.fibers[s_idx], south) < 1e-10
        assert plane_distance(out.fibers[n_idx], north) < 1e-10


_CLASS_ROWS = {
    "D": (0, "real", 1, ()),
    "DIII": (1, "real", 2, ("T",)),
    "AII": (2, "real", 2, ("T", "Q")),
    "CII": (3, "real", 2, ("T", "Q", "C")),
    "C": (4, "real", 4, ("S1", "S2", "S3")),
    "CI": (5, "real", 4, ("S1", "S2", "S3", "T")),
    "AI": (6, "real", 4, ("S1", "S2", "S3", "T", "Q")),
    "BDI": (7, "real", 4, ("S1", "S2", "S3", "T", "Q", "C")),
    "A": (0, "complex", 1, ("Q",)),
    "AIII": (1, "complex", 2, ("Q", "C")),
}


def test_criterion_5_generator_table():
    """Every class realization satisfies the Clifford relations, the spin
    product is an imaginary generator, and the table rows are correct."""
    for label, (s, sector, mult, trues) in _CLASS_ROWS.items():
        for n in range(1, 9):
            if n % mult:
                continue
            cset = kitaev_generators(make_nambu(n), label)
            assert len(cset) == s
            report = check_clifford(cset, tol=1e-12)
            assert report.ok, (label, n, report.violations)
            assert report.max_deviation < 1e-12
        info = class_info(label)
        assert info.s == s
        assert info.sector == sector
        assert info.n_multiple == mult
        assert info.true_symmetries == trues
        assert len(info.pseudo_symmetries) == s
    sp = make_nambu(4)
    J = kitaev_generators(sp, "C").generators
    K = 1j * (J[0].matrix @ J[1].matrix @ J[2].matrix)
    assert classify_generator(sp, K) == "imaginary"


def test_criterion_6_lift_round_trip():
    """Doubling lifts of 100 random planes invert exactly, satisfy the
    extended pseudo-symmetries, and preserve the Fermi constraint."""
    rng = np.random.default_rng(99)
    cases = []
    for i in range(34):
        sp = make_nambu((1, 2, 4)[i % 3])
        cases.append((random_plane(sp, sp.n, rng), CliffordSet(sp, ()), False))
    for i in range(33):
        sp = make_nambu((2, 4)[i % 2])
        J = kitaev_generators(sp, "DIII").generators[0]
        cases.append((random_pseudo_plane(sp, J, rng),
                      CliffordSet(sp, (J,)), False))
    for i in range(33):
        sp = make_nambu((1, 2, 4)[i % 3])
        cases.append((random_lagrangian(sp, rng), CliffordSet(sp, ()), True))
    assert len(cases) == 100
    for A, cset, lagrangian in cases:
        lifted = lift_plane(A)
        assert plane_distance(unlift_plane(lifted), A) < 1e-12
        _, extended = double_one_one(A.space, cset)
        assert len(extended) == len(cset) + 2
        for g in extended.generators:
            assert pseudo_check(g, lifted) < 1e-10
        if lagrangian:
            assert fermi_check(A, A) < 1e-12
            assert fermi_check(lifted, lifted) < 1e-12


def test_criterion_7_suspended_chain_chern():
    """Suspending the topological chain gives a valid class-D sphere
    bundle with unit Chern number; the trivial chain gives zero."""
    sphere = suspend(SuspensionInput(example_kitaev_chain(1, 1, N=32), 0))
    assert sphere.label == "D"
    assert validate_bundle(sphere).ok
    res = chern_number(sphere)
    assert abs(res.value) == 1
    assert res.diagnostics["residual"] < 0.05
    flat = suspend(SuspensionInput(example_kitaev_chain(1, 0, N=32), 0))
    assert chern_number(flat).value == 0


def test_criterion_8_numerical_cross_checks():
    """Independent routes agree: rotor vs matrix exponential, Pfaffian
    vs determinant, winding under refinement, Chern under gauge moves."""
    rng = np.random.default_rng(4242)
    sp1 = make_nambu(1)
    sp2 = make_nambu(2)
    Q2 = np.diag([1.0, 1.0, -1.0, -1.0])
    dsp, dset = double_one_one(sp2, CliffordSet(sp2, ()))
    ks = [
        (sp1, Generator(1j * sp1.gamma_matrix, "imaginary")),
        (sp2, Generator(-Q2 @ sp2.gamma_matrix, "imaginary")),
        (sp2, Generator(1j * np.fliplr(np.eye(4)), "imaginary")),
        (dsp, dset.generators[1]),
    ]
    for sp, K in ks:
        for _ in range(50):
            A = random_pseudo_plane(sp, K, rng)
            t = rng.uniform(-math.pi, math.pi)
            direct = rotor(K, A, t)
            reference = expm((t / 2) * (K.matrix @ j_of(A)))
            assert np.abs(direct - reference).max() < 1e-12
    for m in range(2, 13, 2):
        for _ in range(5):
            X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            X = X - X.T
            pf = pfaffian(X)
            det = np.linalg.det(X)
            assert abs(pf * pf - det) <= 1e-9 * max(1.0, abs(det))
    for n, n_plus in [(2, 1), (3, 2)]:
        coarse = example_kitaev_chain(n, n_plus, N=16)
        fine = example_kitaev_chain(n, n_plus, N=32)
        w16 = chiral_winding(coarse, coarse.cset.generators[0]).value
        w32 = chiral_winding(fine, fine.cset.generators[0]).value
        assert w16 == w32
    sphere = suspend(SuspensionInput(example_kitaev_chain(1, 1, N=16), 0))
    c0 = chern_number(sphere).value
    U = random_unitary(sphere.space.dim, rng)
    moved = Bundle(sphere.space, sphere.cset, sphere.grid,
                   tuple(Plane(sphere.space, U @ A.frame)
                         for A in sphere.fibers),
                   sphere.label)
    assert chern_number(moved).value == c0
