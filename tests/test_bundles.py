import base64
import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from fermibundle import bundles, cli
from fermibundle.bundles import (
    _sphere_grid,
    Bundle,
    deserialize_bundle,
    double_bundle,
    make_sphere_grid,
    serialize_bundle,
    validate_bundle,
)
from helpers import (nudge, random_suspension_inputs, reference_sphere_tables,
                     regauge, with_frames)

from fermibundle.errors import InputError, ValidationError
from fermibundle.invariants import chern_number, pfaffian_field
from fermibundle.nambu import CliffordSet, Generator, make_nambu
from fermibundle.planes import (Plane, complement, plane_distance, pseudo_check,
                               vacuum_plane)
from fermibundle.planes import _BLOCK_BYTES
from fermibundle.suspension import (example_dIII, example_kitaev_chain,
                                    example_majorana, suspend)
from fermibundle.symmetry import (copy_indices, imaginary_realization,
                                  lift_plane)
from fermibundle.tolerances import ALG_TOL, CONTINUITY_TOL


# ---------------------------------------------------------------------------
# grids


def test_grids_are_shared_per_parameters():
    assert make_sphere_grid(2, 8, 3) is make_sphere_grid(2, 8, 3)
    assert make_sphere_grid(1, 8) is not make_sphere_grid(1, 10)
    make_sphere_grid(1, np.int64(6))
    assert type(make_sphere_grid(1, 6).N) is int
    # a numpy integer size finds the grid of the equal int, with no miss
    grid = make_sphere_grid(1, 8)
    misses = _sphere_grid.cache_info().misses
    assert make_sphere_grid(1, np.int64(8)) is grid
    assert make_sphere_grid(np.int32(2), np.int64(8), np.int8(3)) is \
        make_sphere_grid(2, 8, 3)
    assert _sphere_grid.cache_info().misses == misses


def test_point_pair_grid():
    g = make_sphere_grid(0)
    assert g.size == 2
    assert g.points[:, 0].tolist() == [0.0, math.pi]
    assert g.antipode.tolist() == [0, 1]
    assert g.trims == (0, 1)
    assert g.edges.shape == (0, 2)


def test_circle_grid_layout():
    g = make_sphere_grid(1, 8)
    assert g.size == 8
    assert np.allclose(g.points[:, 0], -math.pi + math.pi * np.arange(8) / 4)
    assert g.trims == (0, 4)
    assert len(g.edges) == 8


def test_circle_antipode_reverses_momentum():
    g = make_sphere_grid(1, 12)
    k = g.points[:, 0]
    for i in range(12):
        a = g.antipode[i]
        assert math.isclose(math.remainder(k[a] + k[i], 2 * math.pi), 0.0,
                            abs_tol=1e-12)
    assert np.array_equal(g.antipode[g.antipode], np.arange(12))


def test_grids_require_even_point_counts():
    with pytest.raises(InputError):
        make_sphere_grid(1, 5)
    with pytest.raises(InputError):
        make_sphere_grid(2, 7, 3)


def test_sphere_grid_layout():
    g = make_sphere_grid(2, 8, 3)
    assert g.size == 8 * 3 + 2
    south, north = g.pole_indices()
    assert g.points[south, 1] == -math.pi / 2
    assert g.points[north, 1] == math.pi / 2
    # interior rows run south to north
    assert g.points[0, 1] < g.points[8, 1] < g.points[16, 1]
    assert np.allclose(g.points[: 8, 1], -math.pi / 4)


def test_the_middle_row_of_an_odd_sphere_grid_is_at_t_zero():
    # -pi/2 + pi (M+1)/2/(M+1) rounds to +-2.2e-16 for M = 21, 25, 29, ...
    for M in range(1, 100, 2):
        g = make_sphere_grid(2, 4, M)
        assert (g.points[M // 2 * 4:(M // 2 + 1) * 4, 1] == 0.0).all(), M


def test_sphere_antipode_is_an_involution_and_swaps_poles():
    g = make_sphere_grid(2, 6, 4)
    assert np.array_equal(g.antipode[g.antipode], np.arange(g.size))
    south, north = g.pole_indices()
    assert g.antipode[south] == north
    # no fixed points when the row count is even
    assert g.trims == ()


def test_sphere_trims_on_odd_row_count():
    g = make_sphere_grid(2, 8, 3)
    assert g.trims == (8 + 0, 8 + 4)
    for p in g.trims:
        assert g.antipode[p] == p


def test_sphere_edge_set():
    N, M = 6, 3
    g = make_sphere_grid(2, N, M)
    assert len(g.edges) == N * M + N * (M - 1) + 2 * N
    idx = {tuple(sorted(e)) for e in g.edges}
    assert len(idx) == len(g.edges)


def test_plaquette_orientations_cancel():
    g = make_sphere_grid(2, 6, 3)
    counts = {}
    for plaq in g.plaquettes.tolist():
        for a, b in zip(plaq, plaq[1:] + plaq[:1]):
            if a != b:      # a triangle's repeated corner
                counts[(a, b)] = counts.get((a, b), 0) + 1
    for (a, b), c in counts.items():
        assert c == 1
        assert counts.get((b, a), 0) == 1


def test_plaquette_count_and_coverage():
    N, M = 6, 3
    g = make_sphere_grid(2, N, M)
    tri = g.plaquettes[:, 3] == g.plaquettes[:, 0]
    quads = g.plaquettes[~tri]
    tris = g.plaquettes[tri]
    assert len(quads) == N * (M - 1)
    assert len(tris) == 2 * N


@pytest.mark.parametrize("N", [*range(2, 33, 2), 64])
def test_sphere_tables_match_the_loop_reference(N):
    for M in (33,) if N == 64 else range(1, 10):
        g = make_sphere_grid(2, N, M)
        edges, corners, slots, _ = reference_sphere_tables(N, M)
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.plaquettes.tolist() == corners
        assert g.slots.tolist() == slots
        # a closed surface: every edge is a side of two faces, once each way
        # (2 N triangles have one degenerate side each)
        counts = np.bincount(g.slots.ravel()).tolist()
        assert counts == [1] * (2 * len(edges)) + [2 * N]
        for table in (g.edges, g.plaquettes, g.slots):
            assert not table.flags.writeable


def test_grid_input_errors():
    with pytest.raises(InputError):
        make_sphere_grid(3)
    with pytest.raises(InputError):
        make_sphere_grid(1, 1)
    with pytest.raises(InputError):
        make_sphere_grid(2, 8)
    with pytest.raises(InputError):
        make_sphere_grid(2, 8, 0)
    # sizes that the dimension does not use
    for args, key in (((0, 5, 7), "N"), ((0, None, 7), "M"), ((0, 4), "N"),
                      ((1, 8, 3), "M"), ((np.int64(1), 8, np.int64(1)), "M")):
        with pytest.raises(InputError, match=f"grid.{key}: S"):
            make_sphere_grid(*args)


@pytest.mark.parametrize("args", [(1, 4.0), (2, 8, 5.0), (1.0, 8), (1, True),
                                  (True,), (1, "8")],
                         ids=["float N", "float M", "float d", "bool N",
                              "bool d", "str N"])
def test_grid_sizes_must_be_integers(args):
    with pytest.raises(InputError, match="must be an integer"):
        make_sphere_grid(*args)


def test_grids_store_numpy_integer_sizes_as_ints():
    g = make_sphere_grid(np.int64(2), np.int64(8), np.int32(5))
    assert [type(v) for v in (g.d, g.N, g.M)] == [int, int, int]
    assert g.antipode.dtype.kind == g.edges.dtype.kind == "i"
    assert np.array_equal(g.points, make_sphere_grid(2, 8, 5).points)


# ---------------------------------------------------------------------------
# bundles and validation


def _constant_creator_bundle(N=8):
    """span{c^dagger} at every point of a circle, with the i gamma generator."""
    sp = make_nambu(1)
    cset = imaginary_realization(sp, "BDI")
    grid = make_sphere_grid(1, N)
    fiber = Plane(sp, np.array([[0.0], [1.0]], dtype=complex))
    return Bundle(sp, cset, grid, (fiber,) * grid.size, "BDI")


def test_constant_creator_bundle_validates():
    b = _constant_creator_bundle()
    report = validate_bundle(b)
    assert report.ok
    assert report.messages == ()
    assert report.pseudo_max.max() < 1e-14
    assert report.fermi_max.max() < 1e-14
    assert report.continuity_max == 0.0


def test_validation_flags_fermi_and_continuity_breaks():
    b = _constant_creator_bundle(N=4)
    bad_fiber = Plane(b.space, np.array([[1.0], [0.0]], dtype=complex))
    fibers = list(b.fibers)
    fibers[1] = bad_fiber
    broken = Bundle(b.space, b.cset, b.grid, tuple(fibers), b.label)
    report = validate_bundle(broken)
    assert not report.ok
    text = " ".join(report.messages)
    assert "Fermi" in text
    assert "jump" in text


def test_validation_flags_pseudo_symmetry_break():
    sp = make_nambu(1)
    cset = imaginary_realization(sp, "BDI")
    grid = make_sphere_grid(1, 4)
    # the Majorana line c + c^dagger is gamma-invariant, not gamma-pseudo
    fiber = Plane(sp, np.array([[1.0], [1.0]], dtype=complex) / math.sqrt(2))
    bundle = Bundle(sp, cset, grid, (fiber,) * 4)
    report = validate_bundle(bundle)
    assert not report.ok
    assert any("pseudo" in m for m in report.messages)


def test_fermi_check_obeys_tol():
    b = example_majorana(N=32)
    theta = 1e-9
    R = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    fibers = list(b.fibers)
    fibers[3] = Plane(b.space, R @ fibers[3].frame)
    nudged = Bundle(b.space, b.cset, b.grid, tuple(fibers), b.label)
    report = validate_bundle(nudged, tol=1e-10)
    assert not report.ok
    assert any("Fermi" in m for m in report.messages)
    assert (report.tol, report.continuity_tol) == (1e-10, CONTINUITY_TOL)
    a, c = report.continuity_edge
    edges = nudged.grid.edges.tolist()
    assert [a, c] in edges
    jumps = [plane_distance(fibers[x], fibers[y]) for x, y in edges]
    assert abs(report.continuity_max - plane_distance(fibers[a], fibers[c])
               ) < 1e-14
    assert abs(report.continuity_max - max(jumps)) < 1e-14
    assert validate_bundle(nudged, tol=1e-8).ok
    # a real jump: the four-point circle of the two-band chain
    coarse = validate_bundle(example_kitaev_chain(2, 2, N=4))
    assert (coarse.tol, coarse.continuity_tol) == (ALG_TOL, CONTINUITY_TOL)
    assert coarse.continuity_edge == (0, 1)
    assert coarse.messages == (
        "fibers jump across edge (0, 1) (distance 0.707)",)


def test_bundle_structural_errors():
    sp = make_nambu(1)
    cset = CliffordSet(sp, ())
    grid = make_sphere_grid(1, 4)
    fiber = vacuum_plane(sp)
    with pytest.raises(InputError):
        Bundle(sp, cset, grid, (fiber,) * 3)
    with pytest.raises(InputError):
        Bundle(sp, cset, grid, (vacuum_plane(make_nambu(2)),) * 4)
    with pytest.raises(InputError):
        Bundle(sp, cset, grid, (fiber,) * 4, label="XY")
    sp2 = make_nambu(2)
    mixed = [vacuum_plane(sp2)] * 4
    mixed[2] = Plane(sp2, np.eye(4, dtype=complex)[:, :1])
    with pytest.raises(InputError):
        Bundle(sp2, CliffordSet(sp2, ()), grid, tuple(mixed))


def test_bundle_from_a_frame_array():
    b = _constant_creator_bundle(N=4)
    again = Bundle(b.space, b.cset, b.grid, np.array(b.frames), b.label)
    assert np.array_equal(again.frames, b.frames)
    assert again.rank == 1
    assert not again.frames.flags.writeable


def test_bundle_copies_its_frame_array():
    b = _constant_creator_bundle(N=4)
    F = np.array(b.frames)
    view = F.view()
    view.flags.writeable = False    # read-only, yet F still writes to it
    again = Bundle(b.space, b.cset, b.grid, F)
    through_view = Bundle(b.space, b.cset, b.grid, view)
    F[:] = np.nan
    assert np.array_equal(again.frames, b.frames)
    assert np.array_equal(through_view.frames, b.frames)


@pytest.mark.parametrize("change", [
    {"edges": np.zeros((0, 2), int)},
    {"antipode": np.arange(8) + 8},
    {"edges": np.array([[0, 8]] * 8)},
    {"N": 6},
    {"points": np.zeros((8, 1))},
], ids=["no edges", "antipode out of range", "edge out of range",
        "wrong N", "moved points"])
def test_bundle_refuses_a_hand_built_grid(change):
    b = example_kitaev_chain(1, 1, N=8)
    grid = dataclasses.replace(b.grid, **change)
    with pytest.raises(InputError, match="grid: not the make_sphere_grid "
                                         "grid of its sizes"):
        Bundle(b.space, b.cset, grid, b.frames, b.label)


def test_bundle_keeps_the_standard_grid_its_grid_equals():
    b = example_kitaev_chain(1, 1, N=8)
    copy = dataclasses.replace(
        b.grid, N=np.int64(8), edges=np.array(b.grid.edges).tolist())
    again = Bundle(b.space, b.cset, copy, b.frames, b.label)
    assert again.grid is make_sphere_grid(1, 8)
    assert type(again.grid.N) is int


def _bad_frames(kind):
    F = np.array(_constant_creator_bundle(N=4).frames)
    if kind == "nan":
        F[2, 0, 0] = np.nan
    elif kind == "skew":
        F[3] = [[0.7], [0.0]]
    elif kind == "matrix":
        F = F[0]
    elif kind == "dimension":
        F = np.zeros((4, 3, 1), dtype=complex)
    elif kind == "count":
        F = F[:3]
    elif kind == "full rank":
        F = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
    return F


@pytest.mark.parametrize("kind, error", [
    ("nan", InputError), ("skew", ValidationError), ("matrix", InputError),
    ("dimension", InputError), ("count", InputError),
    ("full rank", InputError)])
def test_frame_array_checks_match_plane(kind, error):
    b = _constant_creator_bundle(N=4)
    F = _bad_frames(kind)
    with pytest.raises(error) as err:
        Bundle(b.space, b.cset, b.grid, F)
    if F.ndim == 3 and len(F) == 4 and F.shape[1] == 2:
        for frame in F:
            try:
                Plane(b.space, frame)
            except (InputError, ValidationError) as exc:
                assert type(exc) is type(err.value)
                break
        else:
            raise AssertionError("no single frame was rejected")
    if kind == "skew":
        assert "point 3" in str(err.value)


def test_fibers_behave_as_a_tuple():
    b = example_majorana(N=8)
    planes = tuple(Plane(b.space, F) for F in b.frames)

    def same(A, B):
        return np.array_equal(A.frame, B.frame)

    assert isinstance(b.fibers, tuple)
    assert len(b.fibers) == len(planes) == 8
    assert same(b.fibers[-1], planes[-1]) and same(b.fibers[-8], planes[0])
    assert b.fibers[5] is b.fibers[5 - 8]
    part = b.fibers[1:7:2]
    assert isinstance(part, tuple) and len(part) == 3
    assert all(same(A, B) for A, B in zip(part, planes[1:7:2]))
    assert b.fibers[::-1][0] is b.fibers[7]
    assert all(same(A, B) for A, B in zip(b.fibers, planes))
    assert [A.rank for A in tuple(b.fibers)] == [1] * 8
    with pytest.raises(IndexError):
        b.fibers[8]
    with pytest.raises(IndexError):
        b.fibers[-9]


def _per_fiber_report(b):
    """validate_bundle's numbers, computed one fiber and one edge at a time."""
    fibers = [Plane(b.space, F) for F in b.frames]
    gens = b.cset.generators
    pseudo = [max((pseudo_check(g, A) for g in gens), default=0.0)
              for A in fibers]
    fermi = None
    if b.rank == b.space.n:
        B = b.space.bracket_matrix
        perp = [B @ np.conj(np.eye(b.space.dim) - A.projector) @ B
                for A in fibers]
        fermi = [np.linalg.norm(fibers[q].projector - perp[p], 2)
                 for p, q in enumerate(b.grid.antipode)]
    cont = max((plane_distance(fibers[a], fibers[c]) for a, c in b.grid.edges),
               default=0.0)
    return pseudo, fermi, cont


def _oracle_bundles():
    rng = np.random.default_rng(11)
    out = []
    for inp in random_suspension_inputs(rng, copies=1):
        out.append(inp.bundle)
        out.append(suspend(inp, points=8))
    out.append(nudge(out[-1], 3, 1e-3, rng))
    out.append(double_bundle(example_kitaev_chain(8, 3, N=16)))
    return out


@pytest.mark.parametrize("block_bytes", [None, 600])
def test_validation_matches_the_per_fiber_computation(block_bytes,
                                                      monkeypatch):
    if block_bytes is not None:
        monkeypatch.setattr("fermibundle.planes._BLOCK_BYTES", block_bytes)
    for b in _oracle_bundles():
        report = validate_bundle(b)
        pseudo, fermi, cont = _per_fiber_report(b)
        assert np.abs(report.pseudo_max - pseudo).max() < 1e-14
        if fermi is None:
            assert report.fermi_max is None
        else:
            assert np.abs(report.fermi_max - fermi).max() < 1e-14
        assert abs(report.continuity_max - cont) < 1e-14


@pytest.mark.parametrize("make", [
    lambda: example_dIII(64),
    lambda: double_bundle(example_kitaev_chain(8, 3, N=128))],
    ids=["dIII sphere", "doubled 8-band chain"])
def test_validation_memory_is_bounded_by_the_block_budget(make):
    # each blocked check holds about seven block-sized temporaries at once;
    # the per-point results take the rest
    b = make()
    validate_bundle(b)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        validate_bundle(b)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 10 * _BLOCK_BYTES


def _pass_outputs(make):
    """Every output of the blocked passes on a fresh bundle, as bytes."""
    b = make()
    report = validate_bundle(b)
    out = [report.pseudo_max, report.fermi_max, report.continuity_max,
           report.continuity_edge]
    if b.grid.d == 2:
        out += [*b._edges, chern_number(b).diagnostics["fluxes"]]
    real = [g for g in b.cset.generators if g.parity == "real"]
    out.append(pfaffian_field(b, real[0]))
    return [np.asarray(x).tobytes() for x in out]


@pytest.mark.parametrize("make", [
    lambda: example_dIII(64),
    lambda: double_bundle(example_kitaev_chain(8, 3, N=128))],
    ids=["dIII sphere", "doubled 8-band chain"])
def test_blocked_passes_match_unblocked_ones_bit_for_bit(make, monkeypatch):
    full = _pass_outputs(make)
    monkeypatch.setattr("fermibundle.planes._BLOCK_BYTES", 600)
    assert _pass_outputs(make) == full


def test_report_rows_carry_coordinates():
    b = _constant_creator_bundle(N=4)
    report = validate_bundle(b)
    rows = [(p, *pt, pseudo, fermi) for p, (pt, pseudo, fermi) in enumerate(
        zip(b.grid.points.tolist(), report.pseudo_max.tolist(),
            report.fermi_max.tolist()))]
    assert len(rows) == 4
    idx, k, pseudo, fermi = rows[0]
    assert idx == 0
    assert math.isclose(k, -math.pi)
    assert pseudo < 1e-14 and fermi < 1e-14
    assert report.continuity_edge is None and report.continuity_max == 0.0


# ---------------------------------------------------------------------------
# serialization


def test_serialize_round_trip_is_exact():
    b = _constant_creator_bundle(N=4)
    blob = json.dumps(serialize_bundle(b))
    back = deserialize_bundle(json.loads(blob))
    assert back.space.n == 1
    assert back.label == "BDI"
    assert back.grid.d == 1 and back.grid.N == 4
    assert len(back.cset) == 1
    assert back.cset.generators[0].parity == "imaginary"
    for A, B in zip(b.fibers, back.fibers):
        assert np.array_equal(A.frame, B.frame)
    assert np.array_equal(b.cset.generators[0].matrix,
                          back.cset.generators[0].matrix)


def test_serialize_layout():
    data = serialize_bundle(_constant_creator_bundle(N=4))
    assert set(data) == {"version", "class", "n", "grid", "frames"}
    assert data["version"] == 2
    assert data["n"] == 1
    assert data["grid"] == {"d": 1, "N": 4, "M": None}
    assert data["class"]["s"] == 1
    assert data["class"]["signature"] == [0, 1]
    # every fiber is the frame [[0], [1]]: little-endian (re, im) doubles
    fiber = struct.pack("<4d", 0.0, 0.0, 1.0, 0.0)
    assert data["frames"] == {
        "dtype": "<c16", "shape": [4, 2, 1],
        "base64": base64.b64encode(fiber * 4).decode("ascii")}


@pytest.mark.parametrize("mangle, fragment", [
    (lambda d: d.pop("frames"), "frames"),
    (lambda d: d.update(version=3), "version"),
    (lambda d: d.update(version=1), "version: unsupported value 1"),
    (lambda d: d["class"]["generators"][0].update(parity="odd"), "parity"),
    (lambda d: d["frames"]["shape"].__setitem__(0, 3), "frames.shape"),
    # one 3-byte group short of the shape
    (lambda d: d["frames"].update(base64=d["frames"]["base64"][4:]),
     "frames.base64"),
    (lambda d: d["class"].update(s=3), "class.s"),
    (lambda d: d["grid"].pop("d"), "grid.d"),
    (lambda d: d["grid"].update(M=3), "grid.M: S^1 grids take no M"),
    (lambda d: d["grid"].update(d=0, N=2), "grid.N: S^0 grids take no N"),
    (lambda d: d["class"].update(signature=[False, True]), "class.signature"),
    (lambda d: d["class"].update(signature=[0.0, 1.0]), "class.signature"),
    (lambda d: d["class"]["generators"][0].update(parity="Imaginary"),
     "class.generators[0].parity: unknown tag 'Imaginary'"),
    (lambda d: d["class"]["generators"][0]["matrix"].pop(),
     "class.generators[0].matrix: shape (1, 2) does not match expected "
     "(2, 2)"),
])
def test_deserialize_reports_offending_path(mangle, fragment):
    data = serialize_bundle(_constant_creator_bundle(N=4))
    mangle(data)
    with pytest.raises(InputError) as err:
        deserialize_bundle(data)
    assert fragment in str(err.value)


def test_deserialize_checks_fiber_count_before_building_the_grid(
        monkeypatch):
    # the shape declares the huge grid's fiber count; the payload holds 4
    def refuse(*args):
        raise AssertionError("grid built before the fiber count check")

    monkeypatch.setattr("fermibundle.bundles.make_sphere_grid", refuse)
    data = serialize_bundle(_constant_creator_bundle(N=4))
    data["grid"] = {"d": 2, "N": 10**6, "M": 10**6}
    data["frames"]["shape"][0] = 10**12 + 2
    with pytest.raises(InputError) as err:
        deserialize_bundle(data)
    assert str(err.value).startswith("frames.base64: ")
    assert "bytes do not fill [1000000000002," in str(err.value)


def test_v2_shape_is_checked_before_building_the_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("grid built before the frame shape check")

    monkeypatch.setattr("fermibundle.bundles.make_sphere_grid", refuse)
    data = serialize_bundle(_constant_creator_bundle(N=4))
    data["grid"] = {"d": 2, "N": 10**6, "M": 10**6}
    with pytest.raises(InputError) as err:
        deserialize_bundle(data)
    assert str(err.value).startswith("frames.shape: expected [1000000000002")


@pytest.mark.parametrize("N", [6, 8, 10])
def test_decode_round_trips_every_padding(N):
    # 32 N frame bytes: payloads of 256, 344 and 428 characters that end
    # in no padding, "==" and "="
    b = _constant_creator_bundle(N=N)
    data = serialize_bundle(b)
    assert data["frames"]["base64"][-3:].count("=") == {6: 0, 8: 2, 10: 1}[N]
    back = deserialize_bundle(data)
    assert np.array_equal(_bits(back.frames), _bits(b.frames))


@pytest.mark.parametrize("step", [4, 64, 256, 4 << 14])
@pytest.mark.parametrize("N", [6, 8, 10])
def test_stepped_decode_reads_the_whole_payload(monkeypatch, tmp_path, N,
                                                step):
    # the file writer emits the payload in steps of `step` base64
    # characters (3 step / 4 frame bytes; 4 << 14 is its own step); the
    # one-call decoder reads them back as one payload
    monkeypatch.setattr(bundles, "_CHUNK", 3 * step // 4)
    b = _constant_creator_bundle(N=N)
    path = tmp_path / "b.json"
    cli._write_bundle(path, b)
    assert path.read_text() == json.dumps(serialize_bundle(b)) + "\n"
    back = deserialize_bundle(cli._read_json(path))
    assert np.array_equal(_bits(back.frames), _bits(b.frames))


def test_payloads_run_together_are_refused():
    data = serialize_bundle(_constant_creator_bundle(N=4))
    raw = base64.b64decode(data["frames"]["base64"])
    # two strict base64 texts run together decode, piece by piece, to the
    # right byte count; the whole text is not strict base64
    text = base64.b64encode(raw[:1]).decode() + base64.b64encode(
        raw[1:]).decode()
    with pytest.raises(ValueError):
        base64.b64decode(text, validate=True)
    data["frames"]["base64"] = text
    with pytest.raises(InputError) as err:
        deserialize_bundle(data)
    assert str(err.value) == ("frames.base64: not valid base64: Excess data "
                              "after padding")


def test_decoded_frames_are_the_decode_buffer_read_only():
    b = _constant_creator_bundle(N=4)
    P = 1 << 17                 # (P, 2, 1) frames: 4 MiB
    big = Bundle(b.space, b.cset, make_sphere_grid(1, P),
                 np.broadcast_to(b.frames[:1], (P, 2, 1)), b.label)
    data = serialize_bundle(big)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        back = deserialize_bundle(data)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert not back.frames.flags.writeable
    assert np.array_equal(_bits(back.frames), _bits(big.frames))
    # the buffer, its finiteness mask and a float per point for the frame
    # check; a copy of the frames, or the ASCII copy of the whole text,
    # would add 4 MiB or more
    assert peak < 1.5 * big.frames.nbytes


def test_deserialize_rejects_skew_frame():
    b = _constant_creator_bundle(N=4)
    F = b.frames.copy()
    F[0, 0] = 0.7
    with pytest.raises(ValidationError, match="not orthonormal at point 0"):
        deserialize_bundle(with_frames(b, F))


# ---------------------------------------------------------------------------
# doubling


def test_double_bundle_lifts_everything():
    b = _constant_creator_bundle(N=8)
    bb = double_bundle(b)
    assert bb.space.n == 2
    assert bb.rank == 2
    assert len(bb.cset) == 3
    assert bb.label == "BDI"
    report = validate_bundle(bb)
    assert report.ok


def _bits(frames):
    """Frames as raw 64-bit words, so that the sign of zero counts."""
    return np.ascontiguousarray(frames).view(np.int64)


def _reference_lift(A):
    """The lift of one plane, from :func:`complement` of that plane."""
    nb = A.space.n
    idx1, idx2 = copy_indices(make_nambu(2 * nb))
    F, Fc = A.frame, complement(A).frame
    out = np.zeros((4 * nb, 2 * nb), dtype=complex)
    out[idx1, :nb] = F / np.sqrt(2)
    out[idx2, :nb] = F / np.sqrt(2)
    out[idx1, nb:] = Fc / np.sqrt(2)
    out[idx2, nb:] = -Fc / np.sqrt(2)
    return out


@pytest.mark.parametrize("n, n_plus, N, gauge", [
    (8, 3, 128, False), (1, 1, 64, False), (8, 8, 32, False),
    (3, 2, 16, True)])
def test_double_bundle_matches_the_per_fiber_lift(n, n_plus, N, gauge):
    b = example_kitaev_chain(n, n_plus, N=N)
    if gauge:       # generic frame entries, not only 0, 1 and cos/sin
        b = regauge(b, np.random.default_rng(3))
    batched = _bits(double_bundle(b).frames)
    assert np.array_equal(batched, _bits(np.stack(
        [lift_plane(A).frame for A in b.fibers])))
    assert np.array_equal(batched, _bits(np.stack(
        [_reference_lift(A) for A in b.fibers])))


def test_double_bundle_refuses_the_rank_lift_plane_refuses():
    sp = make_nambu(2)
    b = Bundle(sp, CliffordSet(sp, ()), make_sphere_grid(0),
               np.eye(4, dtype=complex)[None, :, :1].repeat(2, axis=0))
    with pytest.raises(InputError) as batched:
        double_bundle(b)
    with pytest.raises(InputError) as single:
        lift_plane(b.fibers[0])
    assert str(batched.value) == str(single.value) == (
        "lift needs a rank-2 plane, got rank 1")


# Each entry is an input that a refusal of this module exists to stop.
_REFUSALS = {
    "poles off the sphere": (
        "poles exist only on the d = 2 grid",
        lambda: make_sphere_grid(1, 8).pole_indices()),
    "a fiber that is not a Plane": (
        "fiber 1 is not a Plane",
        lambda: Bundle(make_nambu(1), CliffordSet(make_nambu(1), ()),
                       make_sphere_grid(0),
                       (vacuum_plane(make_nambu(1)), np.eye(2)[:, :1]))),
    "a fiber of another space": (
        "fiber 1 lives on the wrong space",
        lambda: Bundle(make_nambu(1), CliffordSet(make_nambu(1), ()),
                       make_sphere_grid(0),
                       (vacuum_plane(make_nambu(1)),
                        vacuum_plane(make_nambu(2))))),
    "fibers of mixed ranks": (
        r"fibers have mixed ranks \[1, 2\]",
        lambda: Bundle(make_nambu(2), CliffordSet(make_nambu(2), ()),
                       make_sphere_grid(0),
                       (Plane(make_nambu(2), np.eye(4)[:, :1]),
                        vacuum_plane(make_nambu(2))))),
    "a grid that is not a MomentumGrid": (
        "grid: not the make_sphere_grid grid of its sizes",
        lambda: Bundle(make_nambu(1), CliffordSet(make_nambu(1), ()),
                       {"d": 0}, (vacuum_plane(make_nambu(1)),) * 2)),
    "a Clifford set of another space": (
        "Clifford set and bundle space disagree",
        lambda: Bundle(make_nambu(1), CliffordSet(make_nambu(2), ()),
                       make_sphere_grid(0),
                       (vacuum_plane(make_nambu(1)),) * 2)),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_every_input_refusal_fires(name):
    match, call = _REFUSALS[name]
    with pytest.raises(InputError, match=match):
        call()
