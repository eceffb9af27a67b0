import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import (nudge, reference_sphere_tables, regauge,
                     union_find_components)

from fermibundle import bundles
from fermibundle.bundles import (Bundle, double_bundle, make_sphere_grid,
                                 validate_bundle)
from fermibundle.errors import InputError, NumericError, ValidationError
from fermibundle.invariants import (InvariantResult, chern_number,
                                    chiral_winding, class_d_z2,
                                    component_index_ai, fermion_parity,
                                    kane_mele_z2, omega_form, pfaffian,
                                    pfaffian_field, _pfaffians)
from fermibundle.nambu import CliffordSet, Generator, make_nambu
from fermibundle.planes import (Plane, complement, fermi_check,
                                plane_distance, vacuum_plane)
from fermibundle.suspension import (SuspensionInput, _diii_equator_frame,
                                    example_dIII, example_kitaev_chain,
                                    example_majorana, suspend)
from fermibundle.symmetry import (imaginary_realization, kitaev_generators,
                                  true_symmetries)


def _random_skew(rng, m, cplx=True):
    A = rng.standard_normal((m, m))
    if cplx:
        A = A + 1j * rng.standard_normal((m, m))
    return A - A.T


def _basis_plane(space, cols):
    frame = np.eye(space.dim, dtype=complex)[:, list(cols)]
    return Plane(space, frame)


def _occupation_plane(space, occupied):
    """Lagrangian plane with the listed modes occupied (creators)."""
    cols = [space.n + i if i in occupied else i for i in range(space.n)]
    return _basis_plane(space, cols)


def _bracket_rotation(space, rng, scale=0.05):
    """A unitary preserving the bracket and the Lagrangian family."""
    Y = rng.standard_normal((space.dim, space.dim))
    Y = scale * (Y - Y.T)
    Om = space.majorana_transform
    return Om.conj().T @ expm(Y) @ Om


# ---------------------------------------------------------------- pfaffian


def test_pfaffian_two_by_two():
    a = 1.7 - 0.3j
    X = np.array([[0, a], [-a, 0]])
    assert abs(pfaffian(X) - a) < 1e-14


def test_pfaffian_block_diagonal():
    a, b = 0.8, -2.5
    X = np.zeros((4, 4))
    X[0, 1], X[1, 0] = a, -a
    X[2, 3], X[3, 2] = b, -b
    assert abs(pfaffian(X) - a * b) < 1e-12


def test_pfaffian_four_by_four_closed_form():
    rng = np.random.default_rng(7)
    X = _random_skew(rng, 4)
    want = X[0, 1] * X[2, 3] - X[0, 2] * X[1, 3] + X[0, 3] * X[1, 2]
    assert abs(pfaffian(X) - want) < 1e-12 * abs(want)


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(11)
    for m in (2, 4, 6, 8, 10, 12):
        for _ in range(3):
            X = _random_skew(rng, m)
            pf = pfaffian(X)
            det = np.linalg.det(X)
            assert abs(pf * pf - det) < 1e-9 * max(1.0, abs(det))


def test_pfaffian_congruence_rule():
    rng = np.random.default_rng(13)
    for m in (4, 8):
        X = _random_skew(rng, m)
        V = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        left = pfaffian(V.T @ X @ V)
        right = np.linalg.det(V) * pfaffian(X)
        assert abs(left - right) < 1e-8 * abs(right)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_batched_pfaffian_squares_to_determinant(m):
    rng = np.random.default_rng(17 + m)
    X = np.array([_random_skew(rng, m) for _ in range(20)])
    pf = _pfaffians(X)
    det = np.linalg.det(X)
    assert np.all(np.abs(pf * pf - det) < 1e-9 * np.maximum(1.0, abs(det)))


def test_batched_pfaffian_with_singular_members():
    rng = np.random.default_rng(23)
    X = np.array([_random_skew(rng, 6) for _ in range(6)])
    X[1] = 0.0                          # zero pivot at the first step
    X[4, 2:, :] = X[4, :, 2:] = 0.0     # zero pivot at the second step
    pf = _pfaffians(X)
    assert pf[1] == 0 and pf[4] == 0
    assert np.array_equal(pf, [pfaffian(x) for x in X])


def test_pfaffian_singular_input_is_exactly_zero():
    X = np.zeros((4, 4))
    X[2, 3], X[3, 2] = 5.0, -5.0
    assert pfaffian(X) == 0


def test_pfaffian_empty_matrix():
    assert pfaffian(np.zeros((0, 0))) == 1.0


def test_pfaffian_rejects_non_skew():
    with pytest.raises(ValidationError):
        pfaffian(np.ones((4, 4)))


@pytest.mark.parametrize("X", ["ab", [[0, "x"], ["y", 0]], [[0, 1], [-1]]])
def test_pfaffian_refuses_what_is_not_an_array_of_numbers(X):
    with pytest.raises(InputError, match="rectangular array of numbers"):
        pfaffian(X)


def test_pfaffian_rejects_non_square():
    with pytest.raises(InputError):
        pfaffian(np.zeros((2, 3)))


def test_pfaffian_odd_dimension_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning):
        value = pfaffian(np.zeros((3, 3)))
    assert value == 0


# ------------------------------------------------------------- omega form


def test_omega_form_is_skew_and_invertible():
    sp = make_nambu(2)
    J1 = kitaev_generators(sp, "DIII").generators[0]
    om = omega_form(sp, J1)
    assert np.abs(om.matrix + om.matrix.T).max() < 1e-12
    assert abs(abs(np.linalg.det(om.matrix)) - 1.0) < 1e-10


def test_omega_form_rejects_imaginary_generator():
    sp = make_nambu(2)
    K = Generator(1j * sp.gamma_matrix, "imaginary")
    with pytest.raises(ValidationError):
        omega_form(sp, K)


def _diii_cset(sp):
    J1 = kitaev_generators(sp, "DIII").generators[0]
    return CliffordSet(sp, (J1,)), J1


def _constant_sphere_bundle(sp, cols, N=8, M=3, label="DIII"):
    cset, _ = _diii_cset(sp)
    grid = make_sphere_grid(2, N, M)
    fiber = _basis_plane(sp, cols)
    return Bundle(sp, cset, grid, (fiber,) * grid.size, label)


def test_pfaffian_field_constant_creator_bundle():
    sp = make_nambu(2)
    b = _constant_sphere_bundle(sp, (2, 3))
    _, J1 = _diii_cset(sp)
    p = pfaffian_field(b, J1)
    assert np.allclose(p, -1.0, atol=1e-12)


def test_pfaffian_field_rejects_a_form_on_another_space():
    b = _constant_sphere_bundle(make_nambu(2), (0, 2))
    other = omega_form(make_nambu(4),
                       kitaev_generators(make_nambu(4), "DIII").generators[0])
    with pytest.raises(InputError):
        pfaffian_field(b, other)


def test_pfaffian_field_rejects_odd_rank():
    sp = make_nambu(1)
    grid = make_sphere_grid(2, 8, 3)
    fiber = _basis_plane(sp, (1,))
    b = Bundle(sp, CliffordSet(sp, ()), grid, (fiber,) * grid.size, "D")
    with pytest.raises(InputError):
        pfaffian_field(b, np.diag([1j, -1j]))


# --------------------------------------------------------- fermion parity


def test_parity_vacuum_is_even():
    for n in (1, 2, 3):
        sp = make_nambu(n)
        assert fermion_parity(sp, vacuum_plane(sp)).value == 0


def test_parity_single_creator_is_odd():
    sp = make_nambu(1)
    res = fermion_parity(sp, _basis_plane(sp, (1,)))
    assert res.value == 1
    assert abs(abs(res.diagnostics["pfaffian"]) - 1.0) < 1e-9


def test_parity_counts_occupied_modes():
    for n in (2, 3):
        sp = make_nambu(n)
        for r in range(n + 1):
            for occ in itertools.combinations(range(n), r):
                res = fermion_parity(sp, _occupation_plane(sp, set(occ)))
                assert res.value == len(occ) % 2


def test_parity_is_homotopy_invariant():
    sp = make_nambu(2)
    rng = np.random.default_rng(17)
    starts = [vacuum_plane(sp), _occupation_plane(sp, {0})]
    for A in starts:
        base = fermion_parity(sp, A).value
        for _ in range(25):
            U = _bracket_rotation(sp, rng)
            moved = Plane(sp, U @ A.frame)
            assert fermi_check(moved, moved) < 1e-10
            assert fermion_parity(sp, moved).value == base


def test_parity_rejects_non_lagrangian_plane():
    sp = make_nambu(1)
    line = Plane(sp, np.array([[1.0], [1.0]]) / np.sqrt(2))
    with pytest.raises(ValidationError):
        fermion_parity(sp, line)


def test_parity_rejects_wrong_rank():
    sp = make_nambu(2)
    with pytest.raises(InputError):
        fermion_parity(sp, _basis_plane(sp, (2,)))


# ------------------------------------------------------------ class-D Z2


def test_class_d_z2_majorana_example():
    res = class_d_z2(example_majorana())
    assert res.value == 1
    bits = dict(zip(res.diagnostics["momenta"], res.diagnostics["parity_bits"]))
    assert bits[0.0] == 1
    assert bits[-np.pi] == 0


def test_class_d_z2_trivial_variant():
    assert class_d_z2(example_majorana(occupied_at_zero=False)).value == 0


def test_class_d_z2_on_point_pair():
    sp = make_nambu(1)
    cset = imaginary_realization(sp, "BDI")
    grid = make_sphere_grid(0)
    creator = _basis_plane(sp, (1,))
    vac = vacuum_plane(sp)
    assert class_d_z2(Bundle(sp, cset, grid, (creator, vac), "BDI")).value == 1
    assert class_d_z2(Bundle(sp, cset, grid, (vac, vac), "BDI")).value == 0


def test_class_d_z2_rejects_wrong_rank_fibers():
    sp = make_nambu(2)
    line = _basis_plane(sp, (2,))
    pair = Bundle(sp, CliffordSet(sp, ()), make_sphere_grid(0), (line, line))
    with pytest.raises(InputError, match="parity needs a rank-2 plane"):
        class_d_z2(pair)


def test_class_d_z2_rejects_non_lagrangian_fibers():
    sp = make_nambu(1)
    line = Plane(sp, np.array([[1.0], [1.0]]) / np.sqrt(2))
    pair = Bundle(sp, CliffordSet(sp, ()), make_sphere_grid(0),
                  (vacuum_plane(sp), line))
    with pytest.raises(ValidationError, match="not Lagrangian"):
        class_d_z2(pair)


def test_class_d_z2_rejects_sphere():
    with pytest.raises(InputError):
        class_d_z2(example_dIII(N=8))


# ------------------------------------------------------------- Kane-Mele


def test_kane_mele_on_the_dIII_example():
    b = example_dIII()
    res = kane_mele_z2(b, b.cset.generators[0])
    assert res.value == 1
    diag = res.diagnostics
    assert diag["n"] % 2 == 1
    assert diag["residual"] < 1e-9
    assert diag["theta_max"] < 1e-12


def test_band_inversion_is_the_complement_distance():
    # the Pfaffian field vanishes where the fiber at -k is the complement
    # of the fiber at k
    b = example_dIII(N=16)
    p = np.abs(pfaffian_field(b, b.cset.generators[0]))
    zeros = np.flatnonzero(p < 1e-8 * p.max())
    assert zeros.size
    assert max(plane_distance(complement(b.fibers[z]),
                              b.fibers[b.grid.antipode[z]])
               for z in zeros) < 1e-8


def test_kane_mele_constant_bundle_is_trivial():
    sp = make_nambu(2)
    b = _constant_sphere_bundle(sp, (2, 3))
    assert validate_bundle(b).ok
    res = kane_mele_z2(b, b.cset.generators[0])
    assert res.value == 0
    assert res.diagnostics["n"] % 2 == 0
    assert res.diagnostics["theta_max"] < 1e-12


def test_kane_mele_vanishing_field_errors():
    # the fibers span (c_1, c_1^dagger): time reversal maps them elsewhere
    sp = make_nambu(2)
    b = _constant_sphere_bundle(sp, (0, 2))
    with pytest.raises(ValidationError):
        kane_mele_z2(b, b.cset.generators[0])


def _gauged(bundle, rng):
    """The bundle with a random right unitary on every frame, in one batch."""
    m = bundle.rank
    Z = (rng.standard_normal((bundle.grid.size, m, m))
         + 1j * rng.standard_normal((bundle.grid.size, m, m)))
    return Bundle(bundle.space, bundle.cset, bundle.grid,
                  bundle.frames @ np.linalg.qr(Z)[0], bundle.label)


@pytest.mark.parametrize("N, M", [(8, None), (16, None), (64, None),
                                  (8, 3), (8, 5), (8, 7)])
def test_kane_mele_is_gauge_invariant(N, M):
    b = example_dIII(N, rows=M)
    rng = np.random.default_rng(N + (M or 0))
    for _ in range(20):
        res = kane_mele_z2(_gauged(b, rng), b.cset.generators[0])
        assert res.value == 1
        assert res.diagnostics["residual"] < 1e-9


@pytest.mark.parametrize("M", [2, 4])
def test_kane_mele_refuses_an_even_row_count(M):
    b = _constant_sphere_bundle(make_nambu(2), (2, 3), M=M)
    assert validate_bundle(b).ok
    with pytest.raises(InputError, match="odd row count"):
        kane_mele_z2(b, b.cset.generators[0])


def test_kane_mele_refuses_a_t0_row_that_breaks_time_reversal():
    b = example_dIII(N=8, rows=5)
    on_row, off_row = 2 * 8 + 1, 3 * 8 + 1
    rng = np.random.default_rng(3)
    with pytest.raises(ValidationError, match="time reversal"):
        kane_mele_z2(nudge(b, on_row, 1e-6, rng), b.cset.generators[0])
    moved = nudge(b, off_row, 1e-6, rng)
    assert kane_mele_z2(moved, b.cset.generators[0]).value == 1


def _alpha_bundle(sp, alpha, N, M):
    """Sphere bundle whose Pfaffian field is -alpha up to normalization."""
    cset, _ = _diii_cset(sp)
    grid = make_sphere_grid(2, N, M)
    fibers = []
    for k, t in grid.points:
        a = alpha(k, t)
        u = np.array([a, 0.0, 1.0, 0.0], dtype=complex)
        u /= np.linalg.norm(u)
        frame = np.zeros((4, 2), dtype=complex)
        frame[:, 0] = u
        frame[1, 1] = 1.0
        fibers.append(Plane(sp, frame))
    return Bundle(sp, cset, grid, fibers, "DIII"), grid


def _pfaffian_zeros(bundle, J1):
    """The zeros of the Pfaffian field p, located from p and the link
    table alone: its grid zero points, the crossing faces (a zero corner,
    a phase step within 0.35 of the branch cut, or a winding), and the
    winding of the frame-compensated phase of p around each vortex face.
    """
    p = pfaffian_field(bundle, J1)
    zero = np.abs(p) < 1e-8 * np.abs(p).max()
    corners = bundle.grid.plaquettes
    crossing = zero[corners].any(axis=1)
    rows = np.flatnonzero(~crossing)
    L, edge = (x[rows] for x in bundle._link_variables)
    a = corners[rows]
    steps = np.where(edge, np.angle(p[np.roll(a, -1, axis=1)] / p[a]
                                    * L.conj()), 0.0)
    flux = np.angle(np.where(edge, L, 1.0).prod(axis=1))
    nu = np.rint((steps.sum(axis=1) + flux) / (2 * np.pi)).astype(int)
    ambiguous = (np.abs(steps) > np.pi - 0.35).any(axis=1)
    crossing[rows[ambiguous | (nu != 0)]] = True
    vortex = (nu != 0) & ~ambiguous
    return (tuple(np.flatnonzero(zero).tolist()),
            tuple(np.flatnonzero(crossing).tolist()),
            dict(zip(rows[vortex].tolist(), nu[vortex].tolist())))


def _zero_components(bundle, J1):
    """The zero elements (point p, face P + q) of the Pfaffian field and
    the union-find root of each."""
    zero_points, crossing, _ = _pfaffian_zeros(bundle, J1)
    ids = np.array([*zero_points, *(bundle.grid.size + q for q in crossing)],
                   dtype=int)
    return ids, union_find_components(bundle.grid, ids)


def test_kane_mele_detects_an_off_grid_vortex_pair():
    # the pair sits inside two antipodal faces, on no grid point; the
    # route refuses this fixture, which has no t = 0 row
    sp = make_nambu(2)
    b, grid = _alpha_bundle(
        sp, lambda k, t: np.cos(k) + 1j * np.sin(2 * t), N=10, M=4)
    J1 = kitaev_generators(sp, "DIII").generators[0]
    zero_points, _, vortices = _pfaffian_zeros(b, J1)
    assert zero_points == ()
    assert sorted(vortices.values()) == [-1, 1]
    q, r = vortices
    assert reference_sphere_tables(grid.N, grid.M)[3][q] == r
    for face in (q, r):
        k = grid.points[grid.plaquettes[face], 0]
        assert (abs(np.abs(k) - np.pi / 2) < 0.7).all()
    ids, root = _zero_components(b, J1)
    assert len(set(root[ids])) == 2
    with pytest.raises(InputError, match="odd row count"):
        kane_mele_z2(b, J1)


_KM_PINNED = {
    "dIII": dict(
        zero_points=(4, 12, 20, 28, 36, 44, 52, 60, 68, 76, 84, 92, 100, 108,
                     116, 124, 132, 140, 144, 145),
        crossing_plaquettes=(0, 9, 10, 19, 20, *range(29, 51), 59, 60, 69,
                             70, 79, 80, 89, 90, 99, 100, *range(109, 131),
                             139, 140, 149, 150, 159),
        vortex_plaquettes={}, components=1, n=1),
    "vortex": dict(
        zero_points=(), crossing_plaquettes=(12, 37),
        vortex_plaquettes={12: 1, 37: -1}, components=2, n=None),
    "four-crossings": dict(
        zero_points=(), crossing_plaquettes=(10, 17, 38, 45, 66, 73, 94, 101),
        vortex_plaquettes={}, components=4, n=None),
}


def _km_case(case):
    sp = make_nambu(2)
    if case == "dIII":
        return example_dIII(N=16)
    if case == "vortex":
        return _alpha_bundle(
            sp, lambda k, t: np.cos(k) + 1j * np.sin(2 * t), N=10, M=4)[0]
    return _alpha_bundle(
        sp, lambda k, t: np.cos(2 * k) + 1j * np.sin(2 * t), N=16, M=6)[0]


@pytest.mark.parametrize("case", list(_KM_PINNED))
def test_kane_mele_clustering_is_pinned(case):
    # the Pfaffian field and the link table show each fixture's zeros and
    # their clusters where they were; the route reads n from the fluxes,
    # and refuses the even-M fixtures (n None), which have no t = 0 row
    b = _km_case(case)
    J1 = b.cset.generators[0]
    want = _KM_PINNED[case]
    zero_points, crossing, vortices = _pfaffian_zeros(b, J1)
    assert zero_points == want["zero_points"]
    assert crossing == want["crossing_plaquettes"]
    assert vortices == want["vortex_plaquettes"]
    ids, root = _zero_components(b, J1)
    assert len(set(root[ids])) == want["components"]
    if want["n"] is None:
        with pytest.raises(InputError, match="odd row count"):
            kane_mele_z2(b, J1)
    else:
        assert kane_mele_z2(b, J1).diagnostics["n"] == want["n"]


@pytest.mark.parametrize("case", [*_KM_PINNED, "dIII-64"])
def test_components_of_kane_mele_zeros_match_the_union_find(case):
    # the antipode tables of points and faces carry every union-find
    # component of the Pfaffian zeros onto one component, and back
    b = example_dIII(N=64) if case == "dIII-64" else _km_case(case)
    grid = b.grid
    ids, root = _zero_components(b, b.cset.generators[0])
    faces = reference_sphere_tables(grid.N, grid.M)[3]
    image = np.concatenate([grid.antipode, grid.size + np.array(faces)])
    assert np.isin(image[ids], ids).all()
    mates = {}
    for x in ids.tolist():
        mates.setdefault(root[x], set()).add(root[image[x]])
    assert all(len(m) == 1 for m in mates.values())
    mate = {r: m.pop() for r, m in mates.items()}
    assert all(mate[mate[r]] == r for r in mate)
    assert ids.size > 1


def test_kane_mele_of_a_null_homotopic_sphere_is_zero():
    sp = make_nambu(2)
    ts = true_symmetries(sp, spinful=True)
    cset = CliffordSet(sp, (
        Generator(sp.gamma_matrix @ ts.T_minus.matrix, "real"),
        Generator(1j * np.fliplr(np.eye(4)), "imaginary")))
    frames = np.repeat(_diii_equator_frame(0.0)[None], 16, axis=0)
    ring = Bundle(sp, cset, make_sphere_grid(1, 16), frames, "D")
    s = suspend(SuspensionInput(ring, 1, 0))
    assert validate_bundle(s).ok
    assert chern_number(s).value == 0
    assert kane_mele_z2(s, s.cset.generators[0]).value == 0


def test_kane_mele_rejects_unpaired_zeros():
    # M = 4 has no t = 0 row
    sp = make_nambu(2)
    b, _ = _alpha_bundle(
        sp, lambda k, t: np.cos(k - 0.9) + 1j * np.sin(2 * t), N=10, M=4)
    with pytest.raises(InputError):
        kane_mele_z2(b, kitaev_generators(sp, "DIII").generators[0])


def test_kane_mele_rejects_zeros_at_self_antipodal_momenta():
    sp = make_nambu(2)
    b, _ = _alpha_bundle(
        sp, lambda k, t: np.sin(k) + 1j * np.sin(2 * t), N=10, M=5)
    with pytest.raises(ValidationError):
        kane_mele_z2(b, kitaev_generators(sp, "DIII").generators[0])


def test_kane_mele_rejects_circle_bundles():
    b = example_kitaev_chain(1, 1, N=8)
    with pytest.raises(InputError):
        kane_mele_z2(b, kitaev_generators(make_nambu(1), "D"))


# -------------------------------------------------------- chiral winding


def test_winding_of_the_vacuum_chain_is_zero():
    b = example_kitaev_chain(1, 0, N=16)
    assert chiral_winding(b, b.cset.generators[0]).value == 0


def test_winding_reference_orientation():
    # The sign convention comes from putting the +i eigenspace of K1
    # first; with it, one occupied band winds by -1.
    b = example_kitaev_chain(1, 1, N=16)
    assert chiral_winding(b, b.cset.generators[0]).value == -1


def test_winding_counts_occupied_bands():
    values = []
    for p in range(4):
        b = example_kitaev_chain(3, p, N=16)
        values.append(chiral_winding(b, b.cset.generators[0]).value)
    assert values == [0, -1, -2, -3]
    assert len(set(values)) == 4


def test_winding_is_stable_under_refinement():
    coarse = example_kitaev_chain(2, 1, N=8)
    fine = example_kitaev_chain(2, 1, N=16)
    w8 = chiral_winding(coarse, coarse.cset.generators[0]).value
    w16 = chiral_winding(fine, fine.cset.generators[0]).value
    assert w8 == w16


@pytest.mark.parametrize("seed", range(20))
def test_diagonal_map_carries_the_winding_to_the_chern_number(seed):
    # the Diagonal Map is a bijection on homotopy classes, so the chain's
    # winding must reappear as the Chern number of its suspension
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    n_plus = int(rng.integers(n + 1))
    N = int(rng.choice([16, 32]))
    chain = regauge(example_kitaev_chain(n, n_plus, N), rng)
    w = chiral_winding(chain, chain.cset.generators[0]).value
    assert w == -n_plus
    assert chern_number(suspend(SuspensionInput(chain, k_index=0))).value == w


def _orthogonal(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _ladder_z(rng, N):
    """An AI point pair's index, then the winding and Chern number one and
    two suspensions up.  The pair's fibers are coordinate planes of random
    occupations turned by one real band rotation diag(O, O), which keeps
    them charge conserving and pseudo-symmetric."""
    n = int(rng.integers(1, 4))
    sp = make_nambu(n)
    R = np.kron(np.eye(2), _orthogonal(n, rng))
    frames = [R @ np.eye(2 * n)[:, [n + i if o else i for i, o in
                                     enumerate(rng.random(n) < 0.5)]]
              for _ in range(2)]
    pair = _gauged(Bundle(sp, imaginary_realization(sp, "AI"),
                          make_sphere_grid(0), np.array(frames), "AI"), rng)
    Q = true_symmetries(sp).Q
    n0, n_pi = (component_index_ai(Plane(sp, pair.frames[p]), Q).value
                for p in pair.grid.trims)
    ring = _gauged(suspend(SuspensionInput(pair, k_index=1), points=N), rng)
    sphere = _gauged(suspend(SuspensionInput(ring, k_index=0)), rng)
    return (n0 - n_pi, -chiral_winding(ring, ring.cset.generators[0]).value,
            -chern_number(sphere).value)


def _ladder_z2(rng, N):
    """A BDI point pair's class-D bit, then that of its suspended ring, then
    the Kane-Mele bit of the suspension of the ring's doubling; the
    doubled ring's own class-D bit is 0, so the last step reads the
    ring's."""
    pair, ring, sphere = _ladder_z2_bundles(rng, N)
    return (class_d_z2(pair).value, class_d_z2(ring).value,
            kane_mele_z2(sphere, sphere.cset.generators[0]).value)


def _ladder_z2_bundles(rng, N):
    """The pair, ring and sphere of :func:`_ladder_z2`.  The pair's fibers
    are random real Lagrangian planes {x + O x}, O an orthogonal map
    between the eigenspaces of the bracket."""
    n = int(rng.integers(1, 3))
    sp = make_nambu(n)
    frames = []
    for _ in range(2):
        O = _orthogonal(n, rng)
        frames.append(np.vstack([np.eye(n) + O, np.eye(n) - O]) / 2)
    pair = _gauged(Bundle(sp, imaginary_realization(sp, "BDI"),
                          make_sphere_grid(0), np.array(frames), "BDI"), rng)
    ring = _gauged(suspend(SuspensionInput(pair, 0), points=N), rng)
    sphere = _gauged(suspend(SuspensionInput(double_bundle(ring), 1, 0)), rng)
    return pair, ring, sphere


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("leg", [_ladder_z, _ladder_z2], ids=["Z", "Z2"])
def test_the_diagonal_map_ladder_keeps_each_invariant(leg, seed):
    # the Diagonal Map raises d and s by one and is a bijection on
    # homotopy classes, so each integer survives each step; every bundle
    # is regauged, and the ladder runs at two grid sizes
    for N in (8, 16):
        values = leg(np.random.default_rng([seed, N]), N)
        assert len(set(values)) == 1, values


def test_winding_rejects_non_pseudo_fibers():
    sp = make_nambu(1)
    from fermibundle.bundles import make_sphere_grid as _grid
    grid = _grid(1, 8)
    line = Plane(sp, np.array([[1.0], [1.0]]) / np.sqrt(2))
    cset = imaginary_realization(sp, "BDI")
    b = Bundle(sp, cset, grid, (line,) * grid.size, "BDI")
    with pytest.raises(ValidationError):
        chiral_winding(b, cset.generators[0])


def test_winding_rejects_real_generators():
    b = example_kitaev_chain(1, 1, N=8)
    J = kitaev_generators(make_nambu(1), "D")
    real_gen = Generator(np.diag([1j, -1j]), "real")
    with pytest.raises(InputError):
        chiral_winding(b, real_gen)


def test_winding_coarse_grid_errors():
    b = example_kitaev_chain(2, 2, N=4)
    with pytest.raises(NumericError):
        chiral_winding(b, b.cset.generators[0])


# ---------------------------------------------------------- Chern number


def _suspended_chain(n_plus, N=32):
    ring = example_kitaev_chain(1, n_plus, N=N)
    return suspend(SuspensionInput(ring, 0))


def test_chern_of_constant_bundle_is_zero():
    sp = make_nambu(1)
    grid = make_sphere_grid(2, 8, 3)
    fiber = _basis_plane(sp, (1,))
    b = Bundle(sp, CliffordSet(sp, ()), grid, (fiber,) * grid.size, "D")
    assert chern_number(b).value == 0


def test_chern_of_suspended_chain():
    res = chern_number(_suspended_chain(1))
    assert abs(res.value) == 1
    assert res.diagnostics["residual"] < 0.05
    assert chern_number(_suspended_chain(0)).value == 0


def _count_edge_passes(monkeypatch):
    """The ``distances`` flag of every ``Bundle._edge_pass`` call, the one
    place that forms edge overlaps."""
    edge_pass, calls = Bundle._edge_pass, []

    def counted(self, distances=False):
        calls.append(distances)
        return edge_pass(self, distances)

    monkeypatch.setattr(Bundle, "_edge_pass", counted)
    return calls


def test_kane_mele_and_chern_share_one_link_table(monkeypatch):
    # N = 64: the 4224 edges span several blocks of the edge pass
    s = example_dIII(N=64)
    fresh = Bundle(s.space, s.cset, s.grid, s.frames, s.label)
    calls = _count_edge_passes(monkeypatch)
    assert kane_mele_z2(s, s.cset.generators[0]).value == 1
    fluxes = chern_number(s).diagnostics["fluxes"]
    assert calls == [False]
    assert fluxes.tobytes() == chern_number(fresh).diagnostics["fluxes"].tobytes()
    assert calls == [False, False]


def test_validation_leaves_the_link_determinants(monkeypatch):
    s = example_dIII(N=64)
    calls = _count_edge_passes(monkeypatch)
    assert validate_bundle(s).ok
    assert calls == [True]
    # after validation neither invariant forms an edge overlap
    mm, products = bundles._mm, []

    def counted(a, b):
        products.append(len(a))
        return mm(a, b)

    monkeypatch.setattr(bundles, "_mm", counted)
    assert kane_mele_z2(s, s.cset.generators[0]).value == 1
    assert chern_number(s).value == 0
    assert calls == [True] and products == []


@pytest.mark.parametrize("rank", [1, 2])
def test_validated_link_determinants_equal_a_fresh_build(rank):
    b = _suspended_chain(1, N=64) if rank == 1 else example_dIII(N=64)
    b = regauge(b, np.random.default_rng(rank))
    fresh = Bundle(b.space, b.cset, b.grid, b.frames, b.label)
    assert b.rank == rank and len(b.grid.edges) > 1024
    validate_bundle(b)
    assert "_edge_dets" in b.__dict__ and "_edge_dets" not in fresh.__dict__
    for cached, built in zip(b._link_variables, fresh._link_variables):
        assert cached.tobytes() == built.tobytes()
    assert (b.__dict__["_edge_dets"].tobytes()
            == fresh.__dict__["_edge_dets"].tobytes())


def test_link_determinants_stay_lazy_above_rank_two(monkeypatch):
    d = double_bundle(example_dIII(N=64))
    calls = _count_edge_passes(monkeypatch)
    validate_bundle(d)
    assert d.rank == 4 and "_edge_dets" not in d.__dict__
    assert chern_number(d).value == 0
    assert calls == [True, False]


def _abs_fluxes(bundle):
    """|principal flux| of every face, from the link table."""
    L, edge = bundle._link_variables
    return np.abs(np.angle(np.where(edge, L, 1.0).prod(axis=1)))


@pytest.mark.parametrize("seed", range(4))
def test_max_abs_flux_is_the_largest_summed_flux(seed):
    # the sphere of the Z2 ladder for Kane-Mele and Chern, the suspended
    # chain (Chern 1) for Chern alone; both have fluxes away from 0
    rng = np.random.default_rng([seed, 16])
    sphere = _ladder_z2_bundles(rng, 16)[2]
    chain = regauge(_suspended_chain(1, N=16), rng)
    for b in (sphere, chain):
        got = chern_number(b).diagnostics["max_abs_flux"]
        assert 0.0 < got < np.pi
        assert got == pytest.approx(_abs_fluxes(b).max(), abs=1e-12)
    fluxes, M = _abs_fluxes(sphere), sphere.grid.M
    north = np.arange(len(fluxes)) % (M + 1) > M // 2
    got = kane_mele_z2(sphere, sphere.cset.generators[0]).diagnostics[
        "max_abs_flux"]
    assert 0.0 < got < np.pi
    assert got == pytest.approx(fluxes[north].max(), abs=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_link_determinants_match_linalg_det(rank):
    # ranks 1 and 2 take the closed-form determinant, rank 4 np.linalg.det
    # N = 64: the edges span several blocks of the edge pass
    b = _suspended_chain(1, N=64) if rank == 1 else example_dIII(N=64)
    if rank == 4:
        b = double_bundle(b)
    b = regauge(b, np.random.default_rng(rank))
    edges, slots = b.grid.edges, b.grid.slots
    F = b.frames
    o = np.linalg.det(
        np.conj(np.swapaxes(F[edges[:, 0]], 1, 2)) @ F[edges[:, 1]])
    L, edge = b._link_variables
    assert b.rank == rank and len(edges) >= 128
    assert np.array_equal(edge, slots < 2 * len(edges))
    assert (np.abs(L - np.concatenate([o, o.conj(), [1.0]])[slots])
            <= 1e-15).all()


def test_chern_is_gauge_invariant():
    b = _suspended_chain(1, N=16)
    base = chern_number(b).value
    rng = np.random.default_rng(23)
    phased = [Plane(b.space, A.frame * np.exp(1j * rng.uniform(0, 2 * np.pi)))
              for A in b.fibers]
    b2 = Bundle(b.space, b.cset, b.grid, phased, b.label)
    assert chern_number(b2).value == base
    Uq, _ = np.linalg.qr(rng.standard_normal((2, 2))
                         + 1j * rng.standard_normal((2, 2)))
    rotated = [Plane(b.space, Uq @ A.frame) for A in b.fibers]
    b3 = Bundle(b.space, b.cset, b.grid, rotated, b.label)
    assert chern_number(b3).value == base


def test_chern_rejects_circle_bundles():
    with pytest.raises(InputError):
        chern_number(example_kitaev_chain(1, 1, N=8))


def test_chern_singular_overlap_errors():
    sp = make_nambu(1)
    grid = make_sphere_grid(2, 8, 3)
    creator = _basis_plane(sp, (1,))
    fibers = [creator] * grid.size
    fibers[0] = _basis_plane(sp, (0,))
    b = Bundle(sp, CliffordSet(sp, ()), grid, fibers, "D")
    with pytest.raises(NumericError):
        chern_number(b)


def test_singular_overlap_names_the_first_plaquette():
    sp = make_nambu(1)
    grid = make_sphere_grid(2, 8, 3)
    fibers = [_basis_plane(sp, (1,))] * grid.size
    p = grid.N + 3
    fibers[p] = _basis_plane(sp, (0,))
    b = Bundle(sp, CliffordSet(sp, ()), grid, fibers, "D")
    first = next(q for q, cyc in enumerate(grid.plaquettes) if p in cyc)
    assert first > 0
    with pytest.raises(NumericError, match=f"plaquette {first};"):
        chern_number(b)


# ------------------------------------------------------- component index


def test_component_index_of_the_vacuum():
    sp = make_nambu(3)
    Q = true_symmetries(sp).Q
    assert component_index_ai(vacuum_plane(sp), Q).value == 0


def test_component_index_counts_creators():
    sp = make_nambu(3)
    Q = true_symmetries(sp).Q
    plane = _basis_plane(sp, (3, 4, 2))
    assert component_index_ai(plane, Q).value == 2


def test_component_index_reaches_every_value():
    sp = make_nambu(3)
    Q = true_symmetries(sp).Q
    seen = set()
    for r in range(4):
        plane = _occupation_plane(sp, set(range(r)))
        seen.add(component_index_ai(plane, Q).value)
    assert seen == {0, 1, 2, 3}


def test_component_index_rejects_non_conserving_planes():
    sp = make_nambu(1)
    Q = true_symmetries(sp).Q
    line = Plane(sp, np.array([[1.0], [1.0]]) / np.sqrt(2))
    with pytest.raises(ValidationError):
        component_index_ai(line, Q)


def test_component_index_rejects_bad_charge_operators():
    sp = make_nambu(2)
    Q = true_symmetries(sp).Q
    vac = vacuum_plane(sp)
    with pytest.raises(InputError):
        component_index_ai(vac, 2.0 * Q)
    with pytest.raises(InputError):
        component_index_ai(vac, sp.bracket_matrix)


# ------------------------------------------------------ gauge invariance


def _validation_numbers(bundle):
    rep = validate_bundle(bundle)
    return rep.ok, np.concatenate(
        [rep.pseudo_max, rep.fermi_max, [rep.continuity_max]])


def _integer_invariants(bundle):
    if bundle.grid.d == 2:
        return (kane_mele_z2(bundle, bundle.cset.generators[0]).value,
                chern_number(bundle).value)
    Q = true_symmetries(bundle.space).Q
    return (chiral_winding(bundle, bundle.cset.generators[0]).value,
            class_d_z2(bundle).value,
            *(component_index_ai(bundle.fibers[p], Q).value
              for p in bundle.grid.trims))


@pytest.mark.parametrize("make", [
    lambda: example_dIII(N=16),
    lambda: example_kitaev_chain(2, 1, N=16),
], ids=["dIII", "chain"])
def test_right_unitary_gauge_changes_no_number(make):
    rng = np.random.default_rng(31)
    bundle = make()
    # the nudged copy fails validation by about 1e-6 at one point, so
    # the relative comparison also covers numbers far from zero
    for base in (bundle, nudge(bundle, 3, 1e-6, rng)):
        ok, numbers = _validation_numbers(base)
        ok_g, numbers_g = _validation_numbers(regauge(base, rng))
        assert ok_g == ok
        np.testing.assert_allclose(numbers_g, numbers, rtol=1e-9, atol=1e-14)
    assert (_integer_invariants(regauge(bundle, rng))
            == _integer_invariants(bundle))


# ------------------------------------------------------- result record


def test_result_rejects_unknown_kind():
    with pytest.raises(InputError):
        InvariantResult("magic", 0)


def test_result_rejects_out_of_range_bits():
    with pytest.raises(InputError):
        InvariantResult("z2_bit", 2)
