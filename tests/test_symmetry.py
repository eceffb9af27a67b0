import numpy as np
import pytest

from fermibundle.errors import InputError, ValidationError
from fermibundle.nambu import (
    CliffordSet,
    Generator,
    check_clifford,
    classify_generator,
    make_nambu,
)
from fermibundle.planes import (
    Plane,
    fermi_check,
    is_lagrangian,
    plane_distance,
    plane_from_vectors,
    pseudo_check,
    vacuum_plane,
)
from fermibundle.symmetry import (
    class_info,
    copy_indices,
    double_one_one,
    imaginary_realization,
    kitaev_generators,
    lift_plane,
    spin_embed,
    true_symmetries,
    unlift_plane,
)

ALL_LABELS = ["D", "DIII", "AII", "CII", "C", "CI", "AI", "BDI", "A", "AIII"]


def smallest_n(label):
    return class_info(label).n_multiple


# ---------------------------------------------------------------------------
# true symmetries


def test_spinless_true_symmetries():
    sp = make_nambu(2)
    ts = true_symmetries(sp)
    assert np.allclose(ts.T_plus.square, np.eye(4))
    assert np.allclose(ts.C.square, np.eye(4))
    assert np.allclose(ts.Q, np.diag([1, 1, -1, -1]))
    assert ts.T_minus is None
    assert ts.S is None


def test_spinful_time_reversal_squares_to_minus_one():
    ts = true_symmetries(make_nambu(2), spinful=True)
    assert np.allclose(ts.T_minus.square, -np.eye(4))


def test_spin_generators_satisfy_angular_momentum_algebra():
    ts = true_symmetries(make_nambu(4), spinful=True)
    S1, S2, S3 = ts.S
    assert np.allclose(S1 @ S2 - S2 @ S1, 1j * S3)
    assert np.allclose(S2 @ S3 - S3 @ S2, 1j * S1)
    for S in ts.S:
        assert np.allclose(S, S.conj().T)


def test_spin_commutes_with_charge_and_spinful_time_reversal():
    ts = true_symmetries(make_nambu(4), spinful=True)
    for S in ts.S:
        assert np.allclose(S @ ts.Q, ts.Q @ S)
        # anti-unitary commutation: S T v = T S v means S U = -U conj(S)
        # fails for generic S, but holds since conj(S) = -t S t^-1 here
        U = ts.T_minus.matrix
        assert np.abs(S @ U + U @ np.conj(S)).max() < 1e-12


def test_spin_generators_preserve_bracket():
    sp = make_nambu(2)
    ts = true_symmetries(sp, spinful=True)
    B = sp.bracket_matrix
    for S in ts.S:
        assert np.abs(S.T @ B + B @ S).max() < 1e-12


def test_spinful_odd_band_count_rejected():
    with pytest.raises(InputError):
        true_symmetries(make_nambu(3), spinful=True)


# ---------------------------------------------------------------------------
# class table


def test_class_table_sequence_numbers():
    expected = {"D": 0, "DIII": 1, "AII": 2, "CII": 3, "C": 4,
                "CI": 5, "AI": 6, "BDI": 7, "A": 0, "AIII": 1}
    for label, s in expected.items():
        assert class_info(label).s == s


def test_class_lookup_is_case_insensitive():
    assert class_info("dIII").label == "DIII"
    assert class_info("bdi").label == "BDI"
    with pytest.raises(InputError):
        class_info("BD1")


def test_class_info_dict_fields():
    d = class_info("AII").to_dict()
    assert d["sector"] == "real"
    assert d["true_symmetries"] == ["T", "Q"]
    assert d["signature"] == [2, 0]
    assert d["min_n"] == 2


# ---------------------------------------------------------------------------
# standard realizations


@pytest.mark.parametrize("label", ALL_LABELS)
def test_kitaev_generators_form_clifford_set(label):
    sp = make_nambu(smallest_n(label))
    cset = kitaev_generators(sp, label)
    assert len(cset) == class_info(label).s
    assert cset.signature == (class_info(label).s, 0)
    report = check_clifford(cset)
    assert report.ok
    assert report.max_deviation < 1e-12
    for g in cset.generators:
        assert g.parity == "real"


def test_dimension_constraints_enforced():
    with pytest.raises(InputError):
        kitaev_generators(make_nambu(1), "DIII")
    with pytest.raises(InputError):
        kitaev_generators(make_nambu(2), "C")
    with pytest.raises(InputError):
        kitaev_generators(make_nambu(6), "BDI")
    with pytest.raises(InputError):
        kitaev_generators(make_nambu(3), "AIII")


def test_aii_second_generator_is_charge_twist_of_first():
    sp = make_nambu(2)
    cset = kitaev_generators(sp, "AII")
    Q = np.diag([1.0, 1.0, -1.0, -1.0])
    J1, J2 = (g.matrix for g in cset.generators)
    assert np.allclose(J2, 1j * Q @ J1)


def test_aiii_generator_commutes_with_charge():
    sp = make_nambu(2)
    (J1,) = kitaev_generators(sp, "AIII").generators
    Q = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.allclose(J1.matrix @ Q, Q @ J1.matrix)


def test_diii_minimal_generator_matches_expected_matrix():
    sp = make_nambu(2)
    (J1,) = kitaev_generators(sp, "DIII").generators
    expected = np.array([
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ], dtype=complex)
    assert np.allclose(J1.matrix, expected)


def test_spin_class_product_is_the_doubling_generator():
    sp = make_nambu(4)
    cset = kitaev_generators(sp, "C")
    J1, J2, J3, J4 = (g.matrix for g in cset.generators)
    idx1, idx2 = copy_indices(sp)
    K = np.zeros((8, 8), dtype=complex)
    K[np.ix_(idx1, idx1)] = 1j * np.eye(4)
    K[np.ix_(idx2, idx2)] = -1j * np.eye(4)
    assert np.allclose(1j * J1 @ J2 @ J3, K)
    assert classify_generator(sp, K) == "imaginary"
    # K commutes with the spin generators and anti-commutes with the swap
    for M in (J1, J2, J3):
        assert np.abs(K @ M - M @ K).max() < 1e-12
    assert np.abs(K @ J4 + J4 @ K).max() < 1e-12


# ---------------------------------------------------------------------------
# imaginary realizations


def test_bdi_imaginary_realization():
    sp = make_nambu(2)
    cset = imaginary_realization(sp, "BDI")
    (K1,) = cset.generators
    assert K1.parity == "imaginary"
    assert np.allclose(K1.matrix, 1j * sp.gamma_matrix)
    assert check_clifford(cset).ok


def test_ai_imaginary_realization():
    sp = make_nambu(3)
    cset = imaginary_realization(sp, "AI")
    K1, K2 = cset.generators
    assert K1.parity == "imaginary" and K2.parity == "imaginary"
    Q = np.diag(np.r_[np.ones(3), -np.ones(3)])
    assert np.allclose(K2.matrix, 1j * Q @ K1.matrix)
    assert np.allclose(K2.matrix, -1j * sp.gamma_matrix)
    assert check_clifford(cset).ok


def test_imaginary_realization_only_for_two_classes():
    with pytest.raises(InputError):
        imaginary_realization(make_nambu(2), "DIII")


# ---------------------------------------------------------------------------
# doubling


def test_copy_indices_minimal():
    sp = make_nambu(2)
    idx1, idx2 = copy_indices(sp)
    assert idx1.tolist() == [0, 2]
    assert idx2.tolist() == [1, 3]
    with pytest.raises(InputError):
        copy_indices(make_nambu(3))


def test_double_one_one_block_forms():
    sp = make_nambu(1)
    doubled, cset = double_one_one(sp, CliffordSet(sp, ()))
    assert doubled.n == 2
    I, K = (g.matrix for g in cset.generators)
    assert cset.generators[0].parity == "real"
    assert cset.generators[1].parity == "imaginary"
    idx1, idx2 = copy_indices(doubled)
    expect_I = np.zeros((4, 4), dtype=complex)
    expect_I[np.ix_(idx1, idx2)] = np.eye(2)
    expect_I[np.ix_(idx2, idx1)] = -np.eye(2)
    assert np.allclose(I, expect_I)
    expect_K = np.zeros((4, 4), dtype=complex)
    expect_K[np.ix_(idx1, idx1)] = 1j * np.eye(2)
    expect_K[np.ix_(idx2, idx2)] = -1j * np.eye(2)
    assert np.allclose(K, expect_K)


def test_double_one_one_extends_diii_to_valid_set():
    sp = make_nambu(2)
    doubled, big = double_one_one(sp, kitaev_generators(sp, "DIII"))
    assert len(big) == 3
    assert big.signature == (2, 1)
    assert check_clifford(big).ok
    # input generator appears in both off-diagonal copy blocks
    J1 = kitaev_generators(sp, "DIII").generators[0].matrix
    idx1, idx2 = copy_indices(doubled)
    Jt = big.generators[0].matrix
    assert np.allclose(Jt[np.ix_(idx1, idx2)], J1)
    assert np.allclose(Jt[np.ix_(idx2, idx1)], J1)
    assert np.abs(Jt[np.ix_(idx1, idx1)]).max() == 0


def test_double_one_one_space_mismatch():
    sp = make_nambu(2)
    with pytest.raises(InputError):
        double_one_one(make_nambu(3), kitaev_generators(sp, "DIII"))


# ---------------------------------------------------------------------------
# lifting planes


def _random_plane(space, m, rng):
    raw = rng.standard_normal((space.dim, m)) + 1j * rng.standard_normal((space.dim, m))
    U, _, _ = np.linalg.svd(raw, full_matrices=False)
    return Plane(space, U[:, :m])


def test_lift_round_trip():
    rng = np.random.default_rng(7)
    sp = make_nambu(2)
    for _ in range(10):
        A = _random_plane(sp, 2, rng)
        At = lift_plane(A)
        assert At.rank == 4
        back = unlift_plane(At)
        assert plane_distance(back, A) < 1e-12


def test_lift_satisfies_extended_pseudo_symmetries():
    sp = make_nambu(2)
    doubled, big = double_one_one(sp, kitaev_generators(sp, "DIII"))
    # a plane split evenly across the two eigenspaces of -i J1 is J1-pseudo
    (J1,) = kitaev_generators(sp, "DIII").generators
    w, V = np.linalg.eigh(-1j * J1.matrix)
    V = V[:, np.argsort(-w)]
    U = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    A = Plane(sp, V @ np.vstack([np.eye(2), U.conj().T]) / np.sqrt(2))
    assert pseudo_check(J1, A) < 1e-12
    At = lift_plane(A)
    for g in big.generators:
        assert pseudo_check(g, At) < 1e-12


def test_lift_preserves_fermi_constraint():
    rng = np.random.default_rng(11)
    sp = make_nambu(2)
    Om = sp.majorana_transform
    for _ in range(5):
        Y = rng.standard_normal((4, 4))
        Y = Y - Y.T
        from scipy.linalg import expm
        O = Om.conj().T @ expm(Y) @ Om
        A = Plane(sp, O @ vacuum_plane(sp).frame)
        assert is_lagrangian(A)
        assert is_lagrangian(lift_plane(A))


def test_lift_needs_half_rank():
    sp = make_nambu(2)
    A = plane_from_vectors(sp, [np.eye(4)[:, 0]])
    with pytest.raises(InputError):
        lift_plane(A)


def test_unlift_rejects_planes_outside_the_image():
    doubled = make_nambu(2)
    with pytest.raises(InputError):
        unlift_plane(vacuum_plane(doubled))
    with pytest.raises(InputError):
        unlift_plane(plane_from_vectors(doubled, [np.eye(4)[:, 0]]))


# ---------------------------------------------------------------------------
# spin embedding


def test_spin_embed_matches_class_c():
    sp = make_nambu(4)
    ts = true_symmetries(make_nambu(2), spinful=True)
    cset = spin_embed(sp, ts.S)
    direct = kitaev_generators(sp, "C")
    for a, b in zip(cset.generators, direct.generators):
        assert np.allclose(a.matrix, b.matrix)


def test_spin_embed_rejects_noncommuting_extra():
    sp = make_nambu(4)
    ts = true_symmetries(make_nambu(2), spinful=True)
    bad = Generator(np.diag([1j, -1j, -1j, 1j]), "real")
    with pytest.raises(ValidationError):
        spin_embed(sp, ts.S, (bad,))


def test_spin_embed_input_checks():
    sp = make_nambu(4)
    ts = true_symmetries(make_nambu(2), spinful=True)
    with pytest.raises(InputError):
        spin_embed(sp, ts.S[:2])
    wrong = Generator(np.diag([1j, -1j, 1j, -1j, -1j, 1j, -1j, 1j]), "real")
    with pytest.raises(InputError):
        spin_embed(sp, ts.S, (wrong,))
