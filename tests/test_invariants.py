import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import nudge, regauge

from fermibundle.bundles import Bundle, make_sphere_grid, validate_bundle
from fermibundle.errors import InputError, NumericError, ValidationError
from fermibundle.invariants import (InvariantResult, chern_number,
                                    chiral_winding, class_d_z2,
                                    component_index_ai, fermion_parity,
                                    kane_mele_z2, omega_form, pfaffian,
                                    pfaffian_field)
from fermibundle.nambu import CliffordSet, Generator, make_nambu
from fermibundle.planes import Plane, fermi_check, vacuum_plane
from fermibundle.suspension import (SuspensionInput, example_dIII,
                                    example_kitaev_chain, example_majorana,
                                    suspend)
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
