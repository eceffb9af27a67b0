import numpy as np
import pytest

from fermibundle import bundles, planes
from fermibundle.bundles import double_bundle, validate_bundle
from fermibundle.errors import InputError, ValidationError
from fermibundle.nambu import Generator, _monomial_form, make_nambu
from fermibundle.planes import (
    Plane,
    _blocks,
    _complements,
    _dagger,
    _pseudo_deviations,
    complement,
    fermi_check,
    fermi_perp,
    is_lagrangian,
    j_of,
    plane_distance,
    plane_from_vectors,
    _apply,
    _mm,
    _spectral_norms,
    pseudo_check,
    vacuum_plane,
)
from fermibundle.suspension import example_dIII, example_kitaev_chain
from fermibundle.symmetry import (CLASS_TABLE, double_one_one,
                                  imaginary_realization, kitaev_generators)


def _random_plane(space, m, rng):
    M = rng.standard_normal((space.dim, m)) + 1j * rng.standard_normal((space.dim, m))
    U, _, _ = np.linalg.svd(M, full_matrices=False)
    return Plane(space, U[:, :m])


def test_span_of_creator():
    sp = make_nambu(1)
    A = plane_from_vectors(sp, [np.array([0.0, 1.0])])
    assert np.allclose(A.projector, np.diag([0.0, 1.0]))


def test_scaling_invariance():
    sp = make_nambu(1)
    A = plane_from_vectors(sp, [np.array([2j, 0.0])])
    assert np.allclose(A.projector, np.diag([1.0, 0.0]))


def test_rank_one_projector_at_quarter_turn():
    sp = make_nambu(1)
    k = np.pi / 2
    v = np.array([-np.sin(k / 2), np.cos(k / 2)])
    A = plane_from_vectors(sp, [v])
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.abs(A.projector - expected).max() < 1e-14


def test_rank_deficient_input_rejected():
    sp = make_nambu(2)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InputError):
        plane_from_vectors(sp, [v, v])


def test_plane_and_generator_copy_their_argument():
    # contiguous views of a writable base: freezing them in place would
    # leave the base free to change the checked plane and generator
    base = np.zeros(8, dtype=complex)
    frame = base[:2].reshape(2, 1)
    frame[1, 0] = 1.0
    matrix = base[4:].reshape(2, 2)
    matrix[0, 0], matrix[1, 1] = 1j, -1j
    A = Plane(make_nambu(1), frame)
    J = Generator(matrix, "real")
    assert frame.flags.writeable and matrix.flags.writeable
    base[:] = np.nan
    assert A.frame.tolist() == [[0j], [1 + 0j]]
    assert J.matrix.tolist() == [[1j, 0j], [0j, -1j]]
    assert plane_distance(A, A) == 0.0


def test_plane_validates_orthonormality():
    sp = make_nambu(1)
    with pytest.raises(ValidationError):
        Plane(sp, np.array([[1.0], [1.0]]))


def test_complement_of_coordinate_line():
    sp = make_nambu(1)
    A = plane_from_vectors(sp, [np.array([0.0, 1.0])])
    assert np.allclose(complement(A).projector, np.diag([1.0, 0.0]))


def test_complement_involution_and_rank():
    rng = np.random.default_rng(5)
    sp = make_nambu(3)
    for m in (1, 2, 3, 4, 5):
        A = _random_plane(sp, m, rng)
        Ac = complement(A)
        assert A.rank + Ac.rank == sp.dim
        assert plane_distance(complement(Ac), A) < 1e-12
        assert np.abs(Ac.projector - (np.eye(6) - A.projector)).max() < 1e-12


def test_j_of_coordinate_plane():
    sp = make_nambu(1)
    A = plane_from_vectors(sp, [np.array([0.0, 1.0])])
    assert np.allclose(j_of(A), np.diag([-1j, 1j]))


def test_j_of_acts_as_i_on_the_plane():
    rng = np.random.default_rng(6)
    sp = make_nambu(2)
    A = _random_plane(sp, 2, rng)
    J = j_of(A)
    for col in A.frame.T:
        assert np.abs(J @ col - 1j * col).max() < 1e-12
    assert np.abs(J @ J + np.eye(4)).max() < 1e-12


def _haar_gauged(frames, rng):
    """The frames times a Haar-random right unitary each."""
    P, _, m = frames.shape
    Z = rng.standard_normal((P, m, m)) + 1j * rng.standard_normal((P, m, m))
    Q, R = np.linalg.qr(Z)
    phases = np.diagonal(R, axis1=1, axis2=2)
    return frames @ (Q * (phases / np.abs(phases))[:, None, :])


@pytest.mark.parametrize("make", [
    lambda: example_kitaev_chain(8, 3, N=128).frames,
    lambda: example_dIII(64).frames], ids=["(128, 16, 8)", "(2114, 4, 2)"])
def test_complements_of_a_gauged_stack_are_orthonormal_and_orthogonal(make):
    F = _haar_gauged(make(), np.random.default_rng(21))
    P, d, m = F.shape
    C = _complements(F)
    assert C.shape == (P, d, d - m)
    assert np.abs(_dagger(C) @ C - np.eye(d - m)).max() < 1e-14
    assert np.abs(_dagger(F) @ C).max() < 1e-14


def test_complements_take_no_svd(monkeypatch):
    rng = np.random.default_rng(8)
    A = _random_plane(make_nambu(3), 3, rng)
    chain = example_kitaev_chain(3, 1, N=8)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert plane_distance(complement(complement(A)), A) < 1e-12
    assert fermi_check(fermi_perp(A), A) < 1e-12
    assert double_bundle(chain).frames.shape == (8, 12, 6)


def test_j_of_complement_is_negated():
    rng = np.random.default_rng(8)
    sp = make_nambu(2)
    A = _random_plane(sp, 2, rng)
    assert np.abs(j_of(complement(A)) + j_of(A)).max() < 1e-12
    assert np.abs(j_of(A) @ A.projector - A.projector @ j_of(A)).max() < 1e-12


def test_fermi_check_examples():
    sp = make_nambu(1)
    c = plane_from_vectors(sp, [np.array([1.0, 0.0])])
    cd = plane_from_vectors(sp, [np.array([0.0, 1.0])])
    assert fermi_check(c, c) == pytest.approx(0.0)
    assert fermi_check(c, cd) == pytest.approx(1.0)


def test_fermi_check_space_mismatch():
    a = vacuum_plane(make_nambu(1))
    b = vacuum_plane(make_nambu(2))
    with pytest.raises(InputError):
        fermi_check(a, b)


def test_pseudo_check_coordinate_swap():
    sp = make_nambu(1)
    J = Generator(np.array([[0.0, 1.0], [-1.0, 0.0]]), "imaginary")
    A = plane_from_vectors(sp, [np.array([1.0, 0.0])])
    assert pseudo_check(J, A) < 1e-14


def test_pseudo_check_identity_like_fails():
    sp = make_nambu(1)
    A = plane_from_vectors(sp, [np.array([1.0, 0.0])])
    assert pseudo_check(np.eye(2), A) > 0.9


def test_fermi_perp_fixed_lines():
    sp = make_nambu(1)
    c = plane_from_vectors(sp, [np.array([1.0, 0.0])])
    cd = plane_from_vectors(sp, [np.array([0.0, 1.0])])
    assert plane_distance(fermi_perp(c), c) < 1e-12
    assert plane_distance(fermi_perp(cd), cd) < 1e-12


def test_fermi_perp_of_symmetric_combination():
    sp = make_nambu(1)
    plus = plane_from_vectors(sp, [np.array([1.0, 1.0]) / np.sqrt(2)])
    minus = plane_from_vectors(sp, [np.array([1.0, -1.0]) / np.sqrt(2)])
    assert plane_distance(fermi_perp(plus), minus) < 1e-12
    assert fermi_check(fermi_perp(plus), plus) < 1e-14


def test_fermi_perp_requires_half_rank():
    sp = make_nambu(2)
    A = plane_from_vectors(sp, [np.array([1.0, 0.0, 0.0, 0.0])])
    with pytest.raises(InputError):
        fermi_perp(A)


def test_fermi_perp_is_an_involution():
    rng = np.random.default_rng(21)
    sp = make_nambu(3)
    for _ in range(10):
        A = _random_plane(sp, 3, rng)
        B = fermi_perp(A)
        assert fermi_check(B, A) < 1e-12
        assert plane_distance(fermi_perp(B), A) < 1e-10


def test_fermi_perp_commutes_with_real_pseudo_symmetry():
    # if J is real and J A = A^c, the same holds for the annihilator of A
    rng = np.random.default_rng(22)
    sp = make_nambu(2)
    J = Generator(np.diag([1j, 1j, -1j, -1j]), "real")
    for _ in range(10):
        # planes of the form {(x, U^dagger x)} in the eigenbasis of J are
        # exactly the J-pseudo-symmetric ones
        w, V = np.linalg.eigh(-1j * J.matrix)
        V = V[:, np.argsort(-w)]
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Q, _ = np.linalg.qr(M)
        F = V @ np.vstack([np.eye(2), Q.conj().T]) / np.sqrt(2)
        A = Plane(sp, F)
        assert pseudo_check(J, A) < 1e-10
        assert pseudo_check(J, fermi_perp(A)) < 1e-10


def test_plane_distance_is_a_metric():
    rng = np.random.default_rng(23)
    sp = make_nambu(2)
    A, B, C = (_random_plane(sp, 2, rng) for _ in range(3))
    assert plane_distance(A, A) < 1e-14
    assert plane_distance(A, B) == pytest.approx(plane_distance(B, A))
    assert plane_distance(A, C) <= plane_distance(A, B) + plane_distance(B, C) + 1e-12


def test_vacuum_plane_is_lagrangian():
    sp = make_nambu(3)
    vac = vacuum_plane(sp)
    assert vac.rank == 3
    assert is_lagrangian(vac)


def _gaussian(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _norm_cases(r, m, rng):
    """Generic, zero, rank-one and scaled-identity stacks; for m = 2 the
    last have the degenerate Gram matrix a = d, b = 0 exactly."""
    return np.concatenate([
        _gaussian((40, r, m), rng), np.zeros((3, r, m), dtype=complex),
        _gaussian((10, r, 1), rng) @ _gaussian((10, 1, m), rng),
        np.eye(r, m) * rng.uniform(0.5, 2.0, (10, 1, 1))])


@pytest.mark.parametrize("r,m", [(1, 1), (2, 1), (2, 2), (4, 2), (3, 3),
                                 (8, 8), (16, 8), (16, 16), (32, 16)])
@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e-16])
def test_spectral_norms_match_the_svd(r, m, scale):
    X = scale * _norm_cases(r, m, np.random.default_rng(r * 100 + m))
    ref = np.linalg.svd(X, compute_uv=False)[..., 0]
    got = _spectral_norms(X)
    assert got.shape == ref.shape
    assert (np.abs(got - ref) <= 1e-13 * ref).all()


def _within_scale(got, X, Y):
    """Entrywise |got - X Y| <= 1e-15 (|X| |Y|), against ``@``."""
    ref = X @ Y
    return got.shape == ref.shape and bool(
        (np.abs(got - ref) <= 1e-15 * (np.abs(X) @ np.abs(Y))).all())


def _noncontiguous_pairs(P, r, k, c, rng):
    """Plain, gathered and swapaxes-view operands of one product shape."""
    A, B = _gaussian((P, r, k), rng), _gaussian((P, k, c), rng)
    idx = rng.integers(P, size=P)
    return [(A, B), (A[idx], B[idx[::-1]]),
            (np.swapaxes(_gaussian((P, k, r), rng), 1, 2), B),
            (A, np.swapaxes(_gaussian((P, c, k), rng), 1, 2)),
            (_dagger(_gaussian((P, k, r), rng)), B)]


# (P, r, k, c, summed): the broadcast sum needs r k c <= 32 at any P;
# it alone returns a view, of an array with the stack axis last
@pytest.mark.parametrize("P,r,k,c,summed", [
    (128, 1, 1, 1, True), (200, 2, 4, 2, True), (200, 4, 2, 4, True),
    (300, 4, 2, 2, True), (200, 4, 4, 2, True), (150, 1, 32, 1, True),
    (1, 2, 4, 2, True), (127, 2, 4, 2, True), (200, 4, 4, 4, False),
    (200, 2, 8, 4, False), (128, 16, 8, 16, False)])
def test_mm_matches_matmul(P, r, k, c, summed):
    rng = np.random.default_rng(P + 10 * r + 100 * k + 1000 * c)
    for A, B in _noncontiguous_pairs(P, r, k, c, rng):
        got = _mm(A, B)
        assert _within_scale(got, A, B)
        assert (got.base is not None) == summed


@pytest.mark.parametrize("P,r,d,m", [(2114, 4, 4, 2), (300, 3, 4, 2),
                                     (1, 4, 4, 2), (200, 8, 8, 4),
                                     (128, 32, 32, 16)])
def test_apply_matches_matmul(P, r, d, m):
    rng = np.random.default_rng(P + r + d + m)
    M = _gaussian((r, d), rng)
    F = _gaussian((P, d, m), rng)
    for X in (F, F[rng.integers(P, size=P)],
              np.swapaxes(_gaussian((P, m, d), rng), 1, 2)):
        assert _within_scale(_apply(M, X), M, X)


def _library_operators(n):
    """(matrix, monomial form) of the bracket and of every generator the
    library builds on n bands: the ten classes, the all-imaginary sets,
    and for n <= 8 their copy-block doublings."""
    sp = make_nambu(n)
    ops = [sp.bracket_matrix]
    sets = [kitaev_generators(sp, label) for label in CLASS_TABLE
            if n % CLASS_TABLE[label].n_multiple == 0]
    sets += [imaginary_realization(sp, label) for label in ("BDI", "AI")]
    if n <= 8:
        sets += [double_one_one(sp, cset)[1] for cset in sets]
    ops += [g.matrix for cset in sets for g in cset.generators]
    return [(M, _monomial_form(M)) for M in ops]


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_monomial_apply_is_the_product_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for M, form in _library_operators(n):
        assert form is not None
        d = len(M)
        for m in sorted({1, d // 2}):
            X = _gaussian((7, d, m), rng)
            for F in (X, np.swapaxes(_gaussian((7, m, d), rng), 1, 2)):
                got, ref = _apply(M, F), M @ F
                assert (np.ascontiguousarray(got).tobytes()
                        == np.ascontiguousarray(ref).tobytes())


def _haar_unitary(d, rng):
    Q, R = np.linalg.qr(_gaussian((d, d), rng))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def test_a_non_monomial_operator_takes_the_dense_path():
    b = double_bundle(example_kitaev_chain(2, 1, N=16))
    rng = np.random.default_rng(7)
    U = _haar_unitary(b.space.dim, rng)
    F = b.frames
    X = np.linalg.qr(_gaussian(F.shape, rng))[0]   # not pseudo-symmetric
    for g in b.cset.generators:
        J = U @ g.matrix @ U.conj().T
        assert _monomial_form(J) is None
        assert np.abs(_apply(J, U @ F) - U @ _apply(g.matrix, F)
                      ).max() < 1e-14
        dense = _pseudo_deviations([J], U @ F)
        assert dense.max() < 1e-14
        assert np.abs(dense - _pseudo_deviations([g], F)).max() < 1e-14
        # off the bundle each path equals the per-plane product oracle
        for op, Y in ((J, U @ X), (g, X)):
            oracle = [pseudo_check(op, Plane(b.space, f)) for f in Y]
            assert np.abs(_pseudo_deviations([op], Y) - oracle).max() < 1e-14


def test_validation_classifies_each_operator_once(monkeypatch):
    b = double_bundle(example_kitaev_chain(8, 3, N=128))
    size, d, _ = b.frames.shape
    assert len(_blocks(size, 16 * d * d)) > 3 * len(b.cset.generators)
    calls = []

    def counted(M):
        calls.append(M)
        return _monomial_form(M)

    for module in (bundles, planes):
        monkeypatch.setattr(module, "_monomial_form", counted)
    assert validate_bundle(b).ok
    assert len(calls) == len(b.cset.generators) + 1    # and the bracket


# Each entry is an input that a refusal of this module exists to stop.
_REFUSALS = {
    "a frame of too many rows": (
        r"frame has shape \(3, 1\), expected \(2, m\)",
        lambda: Plane(make_nambu(1), np.eye(3)[:, :1])),
    "a frame that is one vector": (
        r"frame has shape \(2,\), expected \(2, m\)",
        lambda: Plane(make_nambu(1), np.array([1.0, 0.0]))),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_every_input_refusal_fires(name):
    match, call = _REFUSALS[name]
    with pytest.raises(InputError, match=match):
        call()
