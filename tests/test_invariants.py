import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import nudge, regauge, union_find_components

from fermibundle import bundles, invariants
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
    assert diag["pair_count"] == 1
    assert diag["components"] == 1
    assert diag["self_antipodal_components"] == 1
    assert diag["total_vorticity"] == 0
    assert diag["band_inversion_max"] < 1e-8
    (pa, pb), = [pair["points"] for pair in diag["pairs"]]
    assert abs(abs(pa[0]) - np.pi / 2) < 1e-12
    assert abs(abs(pb[0]) - np.pi / 2) < 1e-12
    assert pa[0] == -pb[0]


def test_band_inversion_is_the_complement_distance():
    b = example_dIII(N=16)
    diag = kane_mele_z2(b, b.cset.generators[0]).diagnostics
    assert diag["zero_points"]
    want = max(plane_distance(complement(b.fibers[z]),
                              b.fibers[b.grid.antipode[z]])
               for z in diag["zero_points"])
    assert abs(diag["band_inversion_max"] - want) < 1e-14


def test_kane_mele_constant_bundle_is_trivial():
    sp = make_nambu(2)
    b = _constant_sphere_bundle(sp, (2, 3))
    assert validate_bundle(b).ok
    res = kane_mele_z2(b, b.cset.generators[0])
    assert res.value == 0
    assert res.diagnostics["pair_count"] == 0
    assert res.diagnostics["zero_points"] == ()
    assert res.diagnostics["band_inversion_max"] == 0.0


def test_kane_mele_vanishing_field_errors():
    sp = make_nambu(2)
    b = _constant_sphere_bundle(sp, (0, 2))
    with pytest.raises(NumericError):
        kane_mele_z2(b, b.cset.generators[0])


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


def test_kane_mele_detects_an_off_grid_vortex_pair():
    sp = make_nambu(2)
    b, grid = _alpha_bundle(
        sp, lambda k, t: np.cos(k) + 1j * np.sin(2 * t), N=10, M=4)
    res = kane_mele_z2(b, kitaev_generators(sp, "DIII").generators[0])
    assert res.value == 1
    diag = res.diagnostics
    assert diag["pair_count"] == 1
    assert diag["zero_points"] == ()
    assert diag["components"] == 2
    assert diag["self_antipodal_components"] == 0
    vort = diag["vortex_plaquettes"]
    assert sorted(vort.values()) == [-1, 1]
    assert diag["total_vorticity"] == 0
    for point in diag["pairs"][0]["points"]:
        assert abs(abs(point[0]) - np.pi / 2) < 0.7


_KM_PINNED = {
    "dIII": dict(
        zero_points=(4, 12, 20, 28, 36, 44, 52, 60, 68, 76, 84, 92, 100, 108,
                     116, 124, 132, 140, 144, 145),
        crossing_plaquettes=(0, 9, 10, 19, 20, *range(29, 51), 59, 60, 69,
                             70, 79, 80, 89, 90, 99, 100, *range(109, 131),
                             139, 140, 149, 150, 159),
        vortex_plaquettes={}, components=1,
        pairs=[(((-1.5707963267948966, -1.2566370614359172),
                 (1.5707963267948966, 1.2566370614359172)), 1, True)]),
    "vortex": dict(
        zero_points=(), crossing_plaquettes=(12, 37),
        vortex_plaquettes={12: 1, 37: -1}, components=2,
        pairs=[(((-1.8849555921538759, -0.3141592653589793),
                 (1.2566370614359172, -0.3141592653589793)), 1, False)]),
    "four-crossings": dict(
        zero_points=(), crossing_plaquettes=(10, 17, 38, 45, 66, 73, 94, 101),
        vortex_plaquettes={}, components=4,
        pairs=[(((-2.356194490192345, -0.2243994752564138),
                 (2.356194490192345, -0.2243994752564138)), 1, False),
               (((-0.7853981633974483, -0.2243994752564138),
                 (0.7853981633974483, -0.2243994752564138)), 1, False)]),
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
    b = _km_case(case)
    diag = kane_mele_z2(b, b.cset.generators[0]).diagnostics
    want = _KM_PINNED[case]
    for key in ("zero_points", "crossing_plaquettes", "vortex_plaquettes",
                "components"):
        assert diag[key] == want[key], key
    assert [(pair["points"], pair["count"], pair["self_antipodal"])
            for pair in diag["pairs"]] == want["pairs"]


@pytest.mark.parametrize("case", [*_KM_PINNED, "dIII-64"])
def test_components_of_kane_mele_zeros_match_the_union_find(case, monkeypatch):
    b = example_dIII(N=64) if case == "dIII-64" else _km_case(case)
    components, seen = invariants._components, []

    def checked(grid, ids):
        root = components(grid, ids)
        assert np.array_equal(root, union_find_components(grid, ids))
        seen.append(len(ids))
        return root

    monkeypatch.setattr(invariants, "_components", checked)
    kane_mele_z2(b, b.cset.generators[0])
    assert seen and seen[0] > 1


@pytest.mark.parametrize("seed", range(10))
def test_components_of_random_zero_sets_match_the_union_find(seed):
    rng = np.random.default_rng(seed)
    grid = make_sphere_grid(2, int(rng.choice([4, 8, 16, 32])),
                            int(rng.integers(1, 10)))
    P, Q = grid.size, len(grid.plaquettes)
    density = rng.uniform(0.02, 0.6)
    ids = np.concatenate([np.flatnonzero(rng.random(P) < density),
                          P + np.flatnonzero(rng.random(Q) < density)])
    assert np.array_equal(invariants._components(grid, ids),
                          union_find_components(grid, ids))


class _CountingMinimum:
    """np.minimum, counting calls of its ``at`` method."""

    def __init__(self):
        self.ufunc, self.at_calls = np.minimum, 0

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)

    def at(self, *args):
        self.at_calls += 1
        return self.ufunc.at(*args)


@pytest.mark.parametrize("order", ["increasing", "decreasing", "zigzag",
                                   "odd-even"])
def test_components_of_a_long_path_take_logarithmic_rounds(order,
                                                           monkeypatch):
    # a chain of n zero plaquettes, position j sharing corner j + 1 with
    # position j + 1, numbered so that a label moving one step per round
    # would need about n rounds
    n = 4096
    pos = np.arange(n)
    number = {
        "increasing": pos,
        "decreasing": pos[::-1],
        "zigzag": np.where(pos % 2, n - 1 - pos // 2, pos // 2),
        "odd-even": np.where(pos < n // 2, 2 * (n // 2 - 1 - pos),
                             2 * (pos - n // 2) + 1),
    }[order]
    plaquettes = np.empty((n, 4), dtype=int)
    plaquettes[number] = np.column_stack([pos, pos + 1, pos + 1, pos])
    grid = SimpleNamespace(size=n + 1, plaquettes=plaquettes)
    ids = n + 1 + pos
    counter = _CountingMinimum()
    monkeypatch.setattr(np, "minimum", counter)
    root = invariants._components(grid, ids)
    monkeypatch.undo()
    assert (root[ids] == n + 1).all() and (root[:n + 1] == -1).all()
    assert counter.at_calls <= np.log2(n) + 2
    assert np.array_equal(root, union_find_components(grid, ids))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the forced pole zeros of every suspension enter "
                          "the Kane-Mele count (ROADMAP item 1)")
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
    sp = make_nambu(2)
    b, _ = _alpha_bundle(
        sp, lambda k, t: np.cos(k - 0.9) + 1j * np.sin(2 * t), N=10, M=4)
    with pytest.raises(ValidationError):
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


def test_kane_mele_and_chern_share_one_link_table(monkeypatch):
    s = example_dIII(N=16)
    fresh = Bundle(s.space, s.cset, s.grid, s.frames, s.label)
    # within these invariants only the link table calls bundles._mm, once
    # per build, for its stack of edge overlaps
    mm, calls = bundles._mm, []

    def counted(a, b):
        calls.append(len(a))
        return mm(a, b)

    monkeypatch.setattr(bundles, "_mm", counted)
    assert kane_mele_z2(s, s.cset.generators[0]).value == 1
    fluxes = chern_number(s).diagnostics["fluxes"]
    assert len(calls) == 1
    assert fluxes.tobytes() == chern_number(fresh).diagnostics["fluxes"].tobytes()
    assert len(calls) == 2


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_link_determinants_match_linalg_det(rank):
    # ranks 1 and 2 take the closed-form determinant, rank 4 np.linalg.det
    b = _suspended_chain(1, N=16) if rank == 1 else example_dIII(N=16)
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
