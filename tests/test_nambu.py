import ast
import inspect
import pathlib

import numpy as np
import pytest

import fermibundle
from fermibundle.bundles import Bundle, make_sphere_grid, validate_bundle
from fermibundle.errors import InputError, ValidationError
from fermibundle.invariants import (chiral_winding, component_index_ai,
                                    omega_form, pfaffian, pfaffian_field)
from fermibundle.nambu import (
    CliffordSet,
    Generator,
    NambuSpace,
    _eigensplit,
    apply_gamma,
    bracket,
    check_clifford,
    classify_generator,
    make_nambu,
)
from fermibundle.planes import (Plane, plane_from_vectors, pseudo_check,
                                vacuum_plane)
from fermibundle.suspension import (example_dIII, example_kitaev_chain,
                                    example_majorana, rotor)
from fermibundle.symmetry import AntiUnitary, spin_embed


def test_canonical_bracket_matrix():
    sp = make_nambu(1)
    assert np.array_equal(sp.bracket_matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert sp.dim == 2


def test_bracket_canonical_anticommutators():
    sp = make_nambu(1)
    c = np.array([1.0, 0.0])
    cd = np.array([0.0, 1.0])
    assert bracket(sp, c, cd) == pytest.approx(1.0)
    assert bracket(sp, c, c) == pytest.approx(0.0)
    assert bracket(sp, cd, cd) == pytest.approx(0.0)


def test_bracket_is_symmetric():
    sp = make_nambu(3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert bracket(sp, v, w) == pytest.approx(bracket(sp, w, v))


def test_bracket_matrix_properties():
    sp = make_nambu(4)
    B = sp.bracket_matrix
    assert np.abs(B - B.T).max() == 0.0
    assert np.abs(B @ B - np.eye(8)).max() == 0.0


def test_majorana_transform_unitary():
    sp = make_nambu(2)
    O = sp.majorana_transform
    assert np.abs(O @ O.conj().T - np.eye(4)).max() < 1e-14


def test_majorana_transform_maps_bracket_to_euclidean():
    # conj(Omega) B conj(Omega)^T must come out real (it equals the identity)
    sp = make_nambu(3)
    O = sp.majorana_transform
    M = np.conj(O) @ sp.bracket_matrix @ np.conj(O).T
    assert np.abs(M.imag).max() < 1e-14
    assert np.abs(M - np.eye(6)).max() < 1e-14


def test_gamma_swaps_annihilators_and_creators():
    sp = make_nambu(1)
    c = np.array([1.0, 0.0])
    assert np.allclose(apply_gamma(sp, c), [0.0, 1.0])


def test_gamma_is_antilinear():
    sp = make_nambu(1)
    c = np.array([1.0, 0.0])
    assert np.allclose(apply_gamma(sp, 1j * c), [0.0, -1j])


def test_gamma_is_an_involution():
    sp = make_nambu(3)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert np.abs(apply_gamma(sp, apply_gamma(sp, v)) - v).max() < 1e-14


def test_gamma_is_antiunitary():
    sp = make_nambu(2)
    rng = np.random.default_rng(12)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = np.vdot(apply_gamma(sp, v), apply_gamma(sp, w))
    assert lhs == pytest.approx(np.conj(np.vdot(v, w)))


def test_rejects_zero_bands():
    with pytest.raises(InputError):
        make_nambu(0)


@pytest.mark.parametrize("build", [make_nambu, NambuSpace])
@pytest.mark.parametrize("n", [2.5, 2.0, 1.9, np.float64(2.0), "2", True,
                               False, None, -1], ids=[
    "2.5", "2.0", "1.9", "np.float64", "str", "True", "False", "None", "-1"])
def test_band_counts_follow_the_integer_rule(build, n):
    with pytest.raises(InputError, match="band count n must be a positive "
                                         "integer"):
        build(n)


def test_a_numpy_band_count_finds_the_cached_space():
    sp = make_nambu(np.int64(2))
    assert sp is make_nambu(2) and type(sp.n) is int
    assert make_nambu(np.int32(1)) is make_nambu(1)


def _doubling_i_and_k(n):
    # block operators of the doubling construction, in copy-major layout
    eye = np.eye(2 * n)
    I = np.block([[0 * eye, eye], [-eye, 0 * eye]])
    K = 1j * np.block([[eye, 0 * eye], [0 * eye, -eye]])
    return I, K


def _copy_major_to_canonical(n):
    # permutation taking copy-major coordinates to the canonical basis order
    # of the doubled space (c_1..c_2n, then all creators)
    perm = []
    for copy in range(2):
        base = copy * n
        perm.extend(range(base, base + n))
        perm.extend(range(2 * n + base, 2 * n + base + n))
    P = np.zeros((4 * n, 4 * n))
    for col, row in enumerate(perm):
        P[row, col] = 1.0
    return P


def test_classify_generator_on_doubling_operators():
    n = 1
    I_cm, K_cm = _doubling_i_and_k(n)
    P = _copy_major_to_canonical(n)
    sp = make_nambu(2 * n)
    assert classify_generator(sp, P @ I_cm @ P.T) == "real"
    assert classify_generator(sp, P @ K_cm @ P.T) == "imaginary"


def test_classify_generator_identity_is_real():
    # the identity preserves the bracket; the failed squaring relation is
    # caught separately by CliffordSet
    sp = make_nambu(2)
    assert classify_generator(sp, np.eye(4)) == "real"


def test_classify_generator_not_unitary():
    sp = make_nambu(1)
    assert classify_generator(sp, np.diag([2.0, 1.0])) == "not_unitary"


def test_classify_generator_neither():
    sp = make_nambu(1)
    # a generic unitary neither preserves nor flips the bracket
    theta = 0.3
    U = np.array(
        [
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ]
    ) @ np.diag([1.0, np.exp(0.7j)])
    assert classify_generator(sp, U) == "neither"


def test_classify_generator_dimension_mismatch():
    with pytest.raises(InputError):
        classify_generator(make_nambu(2), np.eye(2))


def test_generator_constructor_validates():
    with pytest.raises(ValidationError, match="is not unitary"):
        Generator(np.diag([2.0, 0.5]), "real")
    with pytest.raises(ValidationError, match="must square to minus the"):
        Generator(np.eye(2), "real")  # squares to +1
    G = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError, match="declared parity 'real' but "
                                              "bracket action is 'imaginary'"):
        Generator(1j * G, "real")  # actually imaginary
    with pytest.raises(InputError):
        Generator(1j * G, "chiral")


def test_generator_bracket_action_on_vectors():
    sp = make_nambu(1)
    J = Generator(np.diag([1j, -1j]), "real")
    K = Generator(1j * sp.gamma_matrix, "imaginary")
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        bw = bracket(sp, v, w)
        assert bracket(sp, J.matrix @ v, J.matrix @ w) == pytest.approx(bw)
        assert bracket(sp, K.matrix @ v, K.matrix @ w) == pytest.approx(-bw)


def test_clifford_set_signature():
    n = 1
    I_cm, K_cm = _doubling_i_and_k(n)
    P = _copy_major_to_canonical(n)
    sp = make_nambu(2 * n)
    cs = CliffordSet(
        sp,
        (
            Generator(P @ I_cm @ P.T, "real"),
            Generator(P @ K_cm @ P.T, "imaginary"),
        ),
    )
    assert cs.signature == (1, 1)
    assert len(cs) == 2


def test_check_clifford_doubling_pair_clean():
    n = 2
    I_cm, K_cm = _doubling_i_and_k(n)
    P = _copy_major_to_canonical(n)
    sp = make_nambu(2 * n)
    cs = CliffordSet(
        sp,
        (
            Generator(P @ I_cm @ P.T, "real"),
            Generator(P @ K_cm @ P.T, "imaginary"),
        ),
    )
    report = check_clifford(cs)
    assert report.ok
    assert report.max_deviation < 1e-12


def test_check_clifford_flags_duplicated_generator():
    sp = make_nambu(1)
    J = Generator(np.array([[0.0, 1.0], [-1.0, 0.0]]), "imaginary")
    report = check_clifford(CliffordSet(sp, (J, J)))
    assert not report.ok
    assert (0, 1, 2.0) in [(l, m, pytest.approx(d)) for l, m, d in report.violations]


def test_clifford_set_rejects_wrong_dimension():
    sp = make_nambu(2)
    J = Generator(np.array([[0.0, 1.0], [-1.0, 0.0]]), "imaginary")
    with pytest.raises(InputError):
        CliffordSet(sp, (J,))


def test_eigensplit_puts_the_plus_i_eigenspace_first():
    K = 1j * np.fliplr(np.eye(4))
    V = _eigensplit(K)
    assert np.abs(V.conj().T @ V - np.eye(4)).max() < 1e-14
    assert np.abs(K @ V - V * [1j, 1j, -1j, -1j]).max() < 1e-14
    for signs in ([1, 1, 1, -1], [1, -1, -1, -1]):
        with pytest.raises(ValidationError, match="not balanced"):
            _eigensplit(1j * np.diag(signs))


def test_immutable_arrays():
    sp = make_nambu(1)
    with pytest.raises(ValueError):
        sp.bracket_matrix[0, 0] = 5.0


# name: (matrix size, what the error names, call on that matrix)
_MATRIX_CALLS = {
    "pseudo_check": (2, "generator",
                     lambda X: pseudo_check(X, vacuum_plane(make_nambu(1)))),
    "rotor": (2, "generator",
              lambda X: rotor(X, vacuum_plane(make_nambu(1)), 0.3)),
    "omega_form": (2, "generator", lambda X: omega_form(make_nambu(1), X)),
    "pfaffian_field": (4, "generator",
                       lambda X: pfaffian_field(example_dIII(8), X)),
    "component_index_ai": (2, "charge operator", lambda X: component_index_ai(
        vacuum_plane(make_nambu(1)), X)),
    "chiral_winding": (2, "generator", lambda X: chiral_winding(
        example_kitaev_chain(1, 1, N=8), X)),
    "classify_generator": (2, "matrix",
                           lambda X: classify_generator(make_nambu(1), X)),
    "pfaffian": (2, "matrix", pfaffian),
    "plane_from_vectors": (2, "vectors", lambda X: plane_from_vectors(
        make_nambu(1), X[:1])),
    "Generator": (2, "generator matrix", lambda X: Generator(X, "real")),
    "Plane": (2, "frame", lambda X: Plane(make_nambu(1), X[:, 1:])),
    "Bundle": (2, "frame", lambda X: Bundle(
        make_nambu(1), CliffordSet(make_nambu(1), ()), make_sphere_grid(0),
        np.stack([X[:, 1:]] * 2))),
    "bracket": (2, "vector", lambda X: bracket(make_nambu(1), X[0], X[0])),
    "apply_gamma": (2, "vector", lambda X: apply_gamma(make_nambu(1), X[0])),
    "spin_embed": (2, "spins", lambda X: spin_embed(make_nambu(2), [X] * 3)),
    "AntiUnitary": (2, "anti-unitary matrix", AntiUnitary),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", list(_MATRIX_CALLS))
def test_non_finite_matrices_are_refused(name, value):
    dim, what, call = _MATRIX_CALLS[name]
    for X in (np.full((dim, dim), value), np.eye(dim) + 0j):
        X[0, -1] = value
        with pytest.raises(InputError, match=f"{what} has non-finite"):
            call(X)


def _nested(dim, entry):
    X = np.eye(dim).astype(object)
    X[0, -1] = entry
    return X


# (dim, dim) arrays that are no arrays of numbers; an object array keeps its
# odd entry at [0, -1], where every call of _MATRIX_CALLS reads it
_NOT_NUMBERS = {
    "numeric strings": lambda dim: np.eye(dim).astype(str),
    "ragged rows": lambda dim: _nested(dim, [0.0, 1.0]),
    "None": lambda dim: _nested(dim, None),
    "bool array": lambda dim: np.eye(dim, dtype=bool),
}


@pytest.mark.parametrize("kind", list(_NOT_NUMBERS))
@pytest.mark.parametrize("name", list(_MATRIX_CALLS))
def test_what_is_not_an_array_of_numbers_is_refused(name, kind):
    dim, what, call = _MATRIX_CALLS[name]
    with pytest.raises(InputError,
                       match=f"{what} must be a rectangular array of numbers"):
        call(_NOT_NUMBERS[kind](dim))


@pytest.mark.parametrize("X", [[[0.0, 1.0], [1.0]], [["0", "1"], ["1", "0"]],
                               None, [[True, False], [False, True]]])
def test_generator_refuses_lists_that_are_not_numbers(X):
    with pytest.raises(InputError, match="rectangular array of numbers"):
        Generator(X, "real")


def test_plane_from_no_vectors_is_refused():
    with pytest.raises(InputError, match=r"vectors have shape \(0,\)"):
        plane_from_vectors(make_nambu(1), [])


# Each entry passes its argument as one tolerance of a public function:
# validate_bundle's tol, which `fermibundle validate --tol` sets, is the
# only one; every other threshold is a constant of fermibundle.tolerances.
_TOLERANCE_CALLS = {
    "validate_bundle.tol": lambda t: validate_bundle(
        example_majorana(N=8), tol=t),
}


def test_no_other_public_function_takes_a_tolerance():
    taken = {f"{name}.{p}" for name in fermibundle.__all__
             if inspect.isfunction(f := getattr(fermibundle, name))
             for p in inspect.signature(f).parameters if "tol" in p}
    assert taken == set(_TOLERANCE_CALLS)


def _compared_floats(path):
    """(line, value) of every float constant but 0.0 inside a comparison
    of the module at ``path``."""
    return [(node.lineno, node.value)
            for cmp in ast.walk(ast.parse(path.read_text()))
            if isinstance(cmp, ast.Compare) for node in ast.walk(cmp)
            if isinstance(node, ast.Constant)
            and type(node.value) is float and node.value != 0.0]


def test_every_threshold_is_set_in_the_tolerances_module():
    package = pathlib.Path(fermibundle.__file__).parent
    found = {path.name: _compared_floats(path)
             for path in sorted(package.glob("*.py"))
             if path.name != "tolerances.py"}
    assert {name: got for name, got in found.items() if got} == {}


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-12,
                                 "1e-9", None, True, 0.5j])
@pytest.mark.parametrize("name", list(_TOLERANCE_CALLS))
def test_tolerances_outside_zero_to_infinity_are_refused(name, tol):
    # a value that is not a real number is refused the same way, not with
    # the TypeError of its comparison; a bool is not a tolerance
    with pytest.raises(InputError, match=r"must lie in \[0, inf\)"):
        _TOLERANCE_CALLS[name](tol)


@pytest.mark.parametrize("name", list(_TOLERANCE_CALLS))
def test_zero_tolerance_is_allowed(name):
    try:
        _TOLERANCE_CALLS[name](0.0)
    except (InputError, ValidationError) as exc:
        assert "must lie in" not in str(exc)


def test_anti_unitary_keeps_a_frozen_copy():
    X = np.eye(2)
    T = AntiUnitary(X)
    X[0, 0] = 5.0
    assert np.array_equal(T.matrix, np.eye(2))
    with pytest.raises(ValueError):
        T.matrix[0, 0] = 5.0


# Each entry is an input that a refusal of this module exists to stop.
_REFUSALS = {
    "a generator that is not square": (
        "generator matrix must be square of even dimension",
        lambda: Generator(np.zeros((2, 4)), "real")),
    "a generator of odd dimension": (
        "generator matrix must be square of even dimension",
        lambda: Generator(-1j * np.eye(3), "imaginary")),
    "a Clifford set entry that is not a Generator": (
        "generator 0 is not a Generator",
        lambda: CliffordSet(make_nambu(1), (1j * np.eye(2),))),
    "an anti-unitary that is not square": (
        "anti-unitary matrix must be square",
        lambda: AntiUnitary(np.zeros((2, 4)))),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_every_input_refusal_fires(name):
    match, call = _REFUSALS[name]
    with pytest.raises(InputError, match=match):
        call()
