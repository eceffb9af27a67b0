import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from fermibundle.bundles import (
    Bundle,
    deserialize_bundle,
    double_bundle,
    make_sphere_grid,
    serialize_bundle,
    validate_bundle,
)
from fermibundle.cli import main
from fermibundle.errors import InputError, ValidationError
from fermibundle.nambu import CliffordSet, Generator, _eigensplit, make_nambu
from fermibundle.planes import (
    Plane,
    _apply,
    j_of,
    plane_distance,
    vacuum_plane,
)
from fermibundle.suspension import (
    SuspensionInput,
    _diii_equator_frame,
    _next_label,
    default_row_count,
    example_dIII,
    example_kitaev_chain,
    example_majorana,
    rotor,
    suspend,
)
from fermibundle.symmetry import imaginary_realization, true_symmetries
from helpers import random_suspension_inputs


def _majorana_input(occupied=True):
    sp = make_nambu(1)
    cset = imaginary_realization(sp, "BDI")
    grid0 = make_sphere_grid(0)
    c_line = vacuum_plane(sp)
    cdag = Plane(sp, np.array([[0.0], [1.0]], dtype=complex))
    return Bundle(sp, cset, grid0, (cdag if occupied else c_line, c_line), "BDI")


# ---------------------------------------------------------------------------
# rotor


def test_rotor_at_zero_is_identity():
    b = _majorana_input()
    R = rotor(b.cset.generators[0], b.fibers[0], 0.0)
    assert np.array_equal(R, np.eye(2))


def test_rotor_is_unitary_and_a_one_parameter_group():
    rng = np.random.default_rng(3)
    b = _majorana_input()
    K, A = b.cset.generators[0], b.fibers[0]
    for _ in range(10):
        t1, t2 = rng.uniform(-math.pi / 2, math.pi / 2, size=2)
        R1, R2 = rotor(K, A, t1), rotor(K, A, t2)
        assert np.abs(R1 @ R1.conj().T - np.eye(2)).max() < 1e-14
        assert np.abs(R1 @ R2 - rotor(K, A, t1 + t2)).max() < 1e-12
        assert np.abs(R1 @ rotor(K, A, -t1) - np.eye(2)).max() < 1e-14


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "0.3", None,
                               1 + 2j, True])
def test_rotor_refuses_an_angle_that_is_not_a_finite_real(t):
    b = example_dIII(N=8)
    K = Generator(1j * np.fliplr(np.eye(4)), "imaginary")
    with pytest.raises(InputError, match="finite real number"):
        rotor(K, b.fibers[2 * 8], t)


def test_rotor_matches_matrix_exponential():
    b = example_dIII(N=8)          # equator row fibers are K-pseudo
    K = Generator(1j * np.fliplr(np.eye(4)), "imaginary")
    rng = np.random.default_rng(5)
    for i in range(6):
        A = b.fibers[2 * 8 + i]
        t = rng.uniform(-math.pi / 2, math.pi / 2)
        direct = expm((t / 2) * (K.matrix @ j_of(A)))
        assert np.abs(rotor(K, A, t) - direct).max() < 1e-12


def _seeds(grid):
    """(point, seed fiber, polar angle) triples of a suspended grid: on a
    circle the eastern arc |k| <= pi/2 rotates input fiber 0 by t = k and
    the western arc input fiber 1 by t = sign(k) (pi - |k|); on a sphere
    each point rotates the equator fiber of its column, and a pole every
    equator fiber."""
    if grid.d == 1:
        for p, k in enumerate(grid.points[:, 0]):
            yield ((p, 0, k) if abs(k) <= math.pi / 2
                   else (p, 1, math.copysign(math.pi - abs(k), k)))
        return
    for p, (_, t) in enumerate(grid.points):
        columns = [p % grid.N] if p < grid.N * grid.M else range(grid.N)
        for i in columns:
            yield p, i, t


def test_suspended_fibers_match_the_matrix_exponential():
    for inp in random_suspension_inputs(np.random.default_rng(17), copies=2):
        out = suspend(inp)
        K = inp.K.matrix
        for p, i, t in _seeds(out.grid):
            A = inp.bundle.fibers[i]
            R = expm((t / 2) * (K @ j_of(A)))
            want = R @ A.projector @ R.conj().T
            assert np.abs(out.fibers[p].projector - want).max() < 1e-12


def _whole_stack_frames(inp, grid):
    """The suspended frames as one expression over the whole stack:
    cos(t/2) F + i sin(t/2) K F at every rotated point, the rows with
    t = 0 copied from their seed, then on a sphere the poles E_{+i} and
    E_{-i} of K."""
    if grid.d == 1:
        ks = grid.points[:, 0]
        west = np.abs(ks) > math.pi / 2 + 1e-12
        seeds = west.astype(int)
        ts = np.where(west, np.copysign(math.pi - np.abs(ks), ks), ks)
    else:
        seeds, ts = np.tile(np.arange(grid.N), grid.M), grid.points[:-2, 1]
    K = inp.K.matrix
    F = inp.bundle.frames[seeds]
    half = (ts / 2)[:, None, None]
    rotated = np.cos(half) * F + (1j * np.sin(half)) * _apply(K, F)
    poles = np.split(_eigensplit(K)[None], 2, axis=2) if grid.d == 2 else []
    return np.concatenate([np.where(half == 0.0, F, rotated), *poles])


def _diii_equator_input(N):
    """The circle input that :func:`example_dIII` suspends."""
    sp = make_nambu(2)
    I_mat = sp.gamma_matrix @ true_symmetries(sp, spinful=True).T_minus.matrix
    cset = CliffordSet(sp, (Generator(I_mat, "real"),
                            Generator(1j * np.fliplr(np.eye(4)), "imaginary")))
    grid = make_sphere_grid(1, N)
    frames = np.array([_diii_equator_frame(k) for k in grid.points[:, 0]])
    return SuspensionInput(Bundle(sp, cset, grid, frames, "D"), 1, 0)


def test_suspended_frames_equal_the_whole_stack_rotation():
    # byte for byte: forming K F once per input frame and gathering it
    # rounds exactly as K applied to every gathered output frame
    inp = _diii_equator_input(64)
    out = example_dIII(64)
    assert suspend(inp).frames.tobytes() == out.frames.tobytes()
    inputs = [inp] + random_suspension_inputs(np.random.default_rng(3),
                                              copies=2)
    for inp in inputs:
        out = suspend(inp, points=64, rows=201)
        want = _whole_stack_frames(inp, out.grid)
        assert out.frames.tobytes() == want.tobytes()


def test_rotor_rejects_non_pseudo_plane():
    sp = make_nambu(1)
    K = imaginary_realization(sp, "BDI").generators[0]
    majorana_line = Plane(sp, np.array([[1.0], [1.0]]) / math.sqrt(2))
    with pytest.raises(ValidationError):
        rotor(K, majorana_line, 0.3)


# ---------------------------------------------------------------------------
# suspension input checks


def test_suspension_input_index_errors():
    b = _majorana_input()
    with pytest.raises(InputError):
        SuspensionInput(b, 1)
    with pytest.raises(InputError):
        SuspensionInput(b, 0, 0)
    with pytest.raises(InputError):
        SuspensionInput(b, 0, 5)


def test_suspension_input_parity_requirements():
    sp = make_nambu(2)
    cset = imaginary_realization(sp, "AI")
    grid0 = make_sphere_grid(0)
    vac = vacuum_plane(sp)
    b = Bundle(sp, cset, grid0, (vac, vac), "AI")
    with pytest.raises(ValidationError):
        SuspensionInput(b, 0, 1)  # designated I generator is imaginary
    sp1 = make_nambu(2)
    real_gen = Generator(np.diag([1j, -1j, -1j, 1j]), "real")
    b2 = Bundle(sp1, CliffordSet(sp1, (real_gen,)), grid0, (vac, vac))
    with pytest.raises(ValidationError):
        SuspensionInput(b2, 0)  # consumed generator is real


def test_suspension_input_requires_anticommutation():
    sp = make_nambu(2)
    Ka = Generator(1j * sp.gamma_matrix, "imaginary")
    Kb = Generator(1j * np.fliplr(np.eye(4)), "imaginary")
    assert np.abs(Ka.matrix @ Kb.matrix - Kb.matrix @ Ka.matrix).max() < 1e-14
    grid0 = make_sphere_grid(0)
    vac = vacuum_plane(sp)
    b = Bundle(sp, CliffordSet(sp, (Ka, Kb)), grid0, (vac, vac))
    with pytest.raises(ValidationError) as err:
        SuspensionInput(b, 0)
    assert "anti-commute" in str(err.value)


def test_suspension_input_reports_bad_fibers():
    sp = make_nambu(1)
    cset = imaginary_realization(sp, "BDI")
    grid0 = make_sphere_grid(0)
    majorana_line = Plane(sp, np.array([[1.0], [1.0]]) / math.sqrt(2))
    b = Bundle(sp, cset, grid0, (vacuum_plane(sp), majorana_line))
    with pytest.raises(ValidationError) as err:
        SuspensionInput(b, 0)
    assert "points 1" in str(err.value)


@pytest.mark.parametrize("indices", [(0.0,), (1, 0.0), (True,), (1, False),
                                     ("1",), (None,)],
                         ids=["k float", "i float", "k bool", "i bool",
                              "k string", "k None"])
def test_suspension_indices_follow_the_integer_rule(indices):
    b = _diii_equator_input(8).bundle
    key = ("k_index", "i_index")[len(indices) - 1]
    with pytest.raises(InputError, match=f"{key} {indices[-1]} out of range "
                                         f"for 2 generators"):
        SuspensionInput(b, *indices)
    # numpy integers are integers
    inp = SuspensionInput(b, np.int64(1), np.int32(0))
    assert inp.K is b.cset.generators[1]


def _tilted_diii_equator(eps):
    """The dIII equator circle with every frame F replaced by the QR frame
    of F + i eps K F, off K's pseudo-symmetry by about 2 eps."""
    b = _diii_equator_input(16).bundle
    K = b.cset.generators[1].matrix
    G = np.linalg.qr(b.frames + 1j * eps * _apply(K, b.frames))[0]
    return Bundle(b.space, b.cset, b.grid, G, b.label)


def test_suspend_output_recheck_refuses_what_the_input_check_admits(
        tmp_path, capsys):
    # SuspensionInput bounds the pseudo deviation by ALG_TOL (1e-10), but
    # the Gram matrix of a rotated frame differs from 1 by i sin t F^H K F,
    # which Bundle checks against ORTHO_TOL (1e-12): Bundle's check of the
    # frames that suspend computes is the one that refuses this input
    tilted = _tilted_diii_equator(1e-12)
    assert 1e-12 < validate_bundle(tilted).pseudo_max.max() < 1e-11
    inp = SuspensionInput(tilted, 1, 0)
    with pytest.raises(ValidationError, match="frame columns are not "
                                              "orthonormal at point 0"):
        suspend(inp)
    src, out = tmp_path / "tilted.json", tmp_path / "sphere.json"
    src.write_text(json.dumps(serialize_bundle(tilted)))
    capsys.readouterr()
    assert main(["suspend", "--input", str(src), "--k-index", "1",
                 "--i-index", "0", "--output", str(out)]) == 1
    assert "not orthonormal at point 0" in capsys.readouterr().err
    assert not out.exists()
    # ten times closer, the suspension goes through and validates
    assert validate_bundle(suspend(SuspensionInput(
        _tilted_diii_equator(1e-13), 1, 0))).ok


# ---------------------------------------------------------------------------
# circle example


def _majorana_formula_plane(sp, k):
    v = np.array([[-math.sin(k / 2)], [math.cos(k / 2)]], dtype=complex)
    return Plane(sp, v)


def test_majorana_fibers_match_global_formula():
    b = example_majorana(N=16)
    assert b.label == "D"
    assert len(b.cset) == 0
    for p, k in enumerate(b.grid.points[:, 0]):
        target = _majorana_formula_plane(b.space, k)
        assert plane_distance(b.fibers[p], target) < 1e-12


def test_majorana_pole_fibers_are_exact():
    b = example_majorana(N=16)
    assert np.array_equal(b.fibers[8].frame, [[0.0], [1.0]])  # k = 0
    assert np.array_equal(b.fibers[0].frame, [[1.0], [0.0]])  # k = -pi


def test_majorana_bundle_validates():
    assert validate_bundle(example_majorana(N=32)).ok
    assert validate_bundle(example_majorana(False, N=32)).ok


def test_trivial_variant_is_not_the_same_bundle():
    hot = example_majorana(True, N=16)
    cold = example_majorana(False, N=16)
    assert plane_distance(hot.fibers[8], cold.fibers[8]) == 1.0


def test_suspend_rejects_odd_point_count():
    b = _majorana_input()
    with pytest.raises(InputError):
        suspend(SuspensionInput(b, 0), points=15)


# ---------------------------------------------------------------------------
# sphere example


def _diii_formula_frame(k, t):
    a, bb = k / 2, t / 2
    plus = np.array([-math.sin(a + bb), math.sin(a - bb),
                     math.cos(a + bb), math.cos(a - bb)])
    minus = np.array([-math.sin(a - bb), -math.sin(a + bb),
                      math.cos(a - bb), -math.cos(a + bb)])
    return np.column_stack([plus, minus]).astype(complex) / math.sqrt(2)


def test_diii_fibers_match_closed_form():
    b = example_dIII(N=16, rows=9)
    assert b.label == "DIII"
    assert b.cset.signature == (1, 0)
    for p in range(b.grid.size):
        k, t = b.grid.points[p]
        target = Plane(b.space, _diii_formula_frame(k, t))
        assert plane_distance(b.fibers[p], target) < 1e-12


@pytest.mark.parametrize("N", [4, 6, 16, 64, 256])
def test_diii_equator_frames_of_a_k_array_are_the_scalar_frames(N):
    ks = make_sphere_grid(1, N).points[:, 0]
    stack = _diii_equator_frame(ks)
    assert stack.shape == (N, 4, 2)
    assert stack.tobytes() == np.stack(
        [_diii_equator_frame(float(k)) for k in ks]).tobytes()


def test_diii_equator_row_is_the_input_exactly():
    from fermibundle.suspension import _diii_equator_frame

    b = example_dIII(N=8, rows=5)
    j_mid = 2
    for i in range(8):
        k = b.grid.points[i, 0]
        assert np.array_equal(b.fibers[j_mid * 8 + i].frame,
                              _diii_equator_frame(k))


def test_diii_generator_pair_anticommutes():
    b = example_dIII(N=8)
    I = b.cset.generators[0].matrix
    K = 1j * np.fliplr(np.eye(4))
    assert np.abs(I @ K + K @ I).max() < 1e-14
    assert np.abs(K @ K + np.eye(4)).max() < 1e-14


def test_diii_poles_are_constant_eigenplanes():
    b = example_dIII(N=8, rows=5)
    south, north = b.grid.pole_indices()
    K = 1j * np.fliplr(np.eye(4))
    H = 1j * K
    w, V = np.linalg.eigh(H)
    assert plane_distance(b.fibers[south], Plane(b.space, V[:, :2])) < 1e-12
    assert plane_distance(b.fibers[north], Plane(b.space, V[:, 2:])) < 1e-12


def test_diii_bundle_validates():
    report = validate_bundle(example_dIII(N=16))
    assert report.ok


def test_default_row_count_rule():
    assert default_row_count(64) == 33
    assert default_row_count(32) == 17
    assert default_row_count(8) == 5
    assert default_row_count(6) == 5


def test_suspend_rejects_even_row_count():
    b = example_majorana(N=8)
    bb = double_bundle(b)          # generators (I, K)
    with pytest.raises(InputError):
        suspend(SuspensionInput(bb, 1, 0), rows=4)


# ---------------------------------------------------------------------------
# chain example


def _chain_formula_frame(n, n_plus, k):
    n_minus = n - n_plus
    cols = []
    if abs(k) <= math.pi / 2:
        for i in range(n_minus):
            v = np.zeros(2 * n)
            v[i] = math.cos(k / 2)
            v[n + i] = math.sin(k / 2)
            cols.append(v)
        for j in range(n_minus, n):
            v = np.zeros(2 * n)
            v[n + j] = math.cos(k / 2)
            v[j] = math.sin(k / 2)
            cols.append(v)
    else:
        for i in range(n):
            v = np.zeros(2 * n)
            v[i] = math.sin(k / 2)
            v[n + i] = math.cos(k / 2)
            cols.append(v)
    return np.column_stack(cols).astype(complex)


def test_chain_fibers_match_arc_formulas():
    for n, n_plus in [(1, 0), (1, 1), (2, 1), (3, 2)]:
        b = example_kitaev_chain(n, n_plus, N=16)
        assert b.label == "BDI"
        for p, k in enumerate(b.grid.points[:, 0]):
            F = _chain_formula_frame(n, n_plus, k)
            assert plane_distance(b.fibers[p], Plane(b.space, F)) < 1e-12


def test_chain_keeps_the_first_imaginary_generator():
    b = example_kitaev_chain(2, 1, N=8)
    assert len(b.cset) == 1
    (K1,) = b.cset.generators
    assert K1.parity == "imaginary"
    Q = np.diag([1.0, 1.0, -1.0, -1.0])
    G = b.space.gamma_matrix
    assert np.allclose(K1.matrix, -Q @ G)


def test_chain_bundle_validates():
    for n_plus in range(4):
        assert validate_bundle(example_kitaev_chain(3, n_plus, N=16)).ok


def test_chain_zero_fiber():
    b = example_kitaev_chain(1, 1, N=8)
    assert np.array_equal(b.fibers[4].frame, [[0.0], [1.0]])


def test_chain_argument_errors():
    with pytest.raises(InputError):
        example_kitaev_chain(2, 3)
    with pytest.raises(InputError):
        example_kitaev_chain(2, -1)
    with pytest.raises(InputError):
        example_kitaev_chain(0, 0)


@pytest.mark.parametrize("make, match", [
    (lambda: example_majorana(N=8.0), "must be an integer"),
    (lambda: example_dIII(N=8.0), "must be an integer"),
    (lambda: example_dIII(N=8, rows=5.0), "must be an integer"),
    (lambda: example_kitaev_chain(1, 0.5), "must be an integer"),
    (lambda: example_kitaev_chain(True, 0, N=8),
     "band count must be a positive integer, got True"),
    (lambda: example_majorana(N="8"), "grid.N: must be an integer, got '8'"),
    (lambda: example_dIII(N=8, rows="5"),
     "grid.M: must be an integer, got '5'"),
    (lambda: example_dIII(N=8, rows=True), "grid.M: must be an integer")],
    ids=["majorana N", "dIII N", "dIII rows", "chain n_plus", "chain bool n",
         "majorana N string", "dIII rows string", "dIII rows bool"])
def test_examples_refuse_non_integer_sizes(make, match):
    with pytest.raises(InputError, match=match):
        make()


def test_example_with_a_numpy_size_round_trips_through_json():
    b = example_dIII(N=np.int64(8))
    text = json.dumps(serialize_bundle(b))
    assert json.loads(text)["grid"] == {"d": 2, "N": 8, "M": 5}
    back = deserialize_bundle(json.loads(text))
    assert back.frames.tobytes() == example_dIII(8).frames.tobytes()
    # band counts follow the same integer rule
    chain = example_kitaev_chain(np.int64(2), np.int32(1), N=8)
    back = deserialize_bundle(json.loads(json.dumps(serialize_bundle(chain))))
    assert back.frames.tobytes() == \
        example_kitaev_chain(2, 1, N=8).frames.tobytes()


# ---------------------------------------------------------------------------
# structural rules


@pytest.mark.parametrize("label, successor", [
    ("D", "DIII"), ("DIII", "AII"), ("AII", "CII"), ("CII", "C"),
    ("C", "CI"), ("CI", "AI"), ("AI", "BDI"), ("BDI", "D"),
    ("A", "AIII"), ("AIII", "A"),
])
def test_suspension_advances_the_bott_clock(label, successor):
    assert _next_label(label) == successor
    assert _next_label(label.lower()) == successor


def test_suspend_consumes_k_and_appends_i_last():
    b = example_majorana(N=8)
    bb = double_bundle(b)          # generators (I, K)
    out = suspend(SuspensionInput(bb, k_index=1, i_index=0), rows=5)
    assert len(out.cset) == 1
    assert out.cset.generators[0].parity == "real"
    assert np.array_equal(out.cset.generators[0].matrix,
                          bb.cset.generators[0].matrix)
    assert out.label == "DIII"


def test_suspend_on_doubled_chain_keeps_remaining_generators():
    chain = example_kitaev_chain(2, 1, N=8)
    bb = double_bundle(chain)      # generators (K1~, I, K)
    out = suspend(SuspensionInput(bb, k_index=2, i_index=1), rows=5)
    assert [g.parity for g in out.cset.generators] == ["imaginary", "real"]
    assert out.label == "D"


def test_suspend_rejects_sphere_input():
    b = example_dIII(N=8, rows=5)
    bb = double_bundle(b)          # sphere bundle with an imaginary generator
    with pytest.raises(InputError):
        suspend(SuspensionInput(bb, k_index=2, i_index=1))


def test_equator_slice_of_suspension_is_exact():
    b = example_majorana(N=8)
    bb = double_bundle(b)
    out = suspend(SuspensionInput(bb, 1, 0), rows=5)
    for i in range(8):
        assert np.array_equal(out.fibers[2 * 8 + i].frame, bb.fibers[i].frame)


def test_nearest_neighbor_refinement_stays_valid():
    b = example_majorana(N=8)
    fine_grid = make_sphere_grid(1, 16)
    fibers = []
    for m in range(16):
        if m % 2 == 0:
            fibers.append(b.fibers[m // 2])
        elif m < 8:
            fibers.append(b.fibers[(m - 1) // 2])
        else:
            fibers.append(b.fibers[((m + 1) // 2) % 8])
    fine = Bundle(b.space, b.cset, fine_grid, tuple(fibers), b.label)
    report = validate_bundle(fine)
    assert report.ok
    assert report.fermi_max.max() < 1e-14
