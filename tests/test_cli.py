import base64
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fermibundle.bundles import (Bundle, deserialize_bundle, double_bundle,
                                 make_sphere_grid, serialize_bundle,
                                 validate_bundle)
from fermibundle.cli import _COMMANDS, _cells, main
from fermibundle.invariants import (chern_number, chiral_winding,
                                    class_d_z2, component_index_ai,
                                    fermion_parity, kane_mele_z2,
                                    pfaffian_field)
from fermibundle.nambu import CliffordSet, make_nambu
from fermibundle.planes import vacuum_plane
from fermibundle.suspension import (SuspensionInput, example_dIII,
                                    example_kitaev_chain, example_majorana,
                                    suspend)
from fermibundle.symmetry import (class_info, imaginary_realization,
                                  kitaev_generators, true_symmetries)
from fermibundle.tolerances import CONTINUITY_TOL
from helpers import (nudge, random_suspension_inputs, regauge,
                     v1_document)


def run(*argv):
    return main([str(a) for a in argv])


def _load(path):
    return json.loads(path.read_text())


def test_example_writes_a_bundle(tmp_path, capsys):
    out = tmp_path / "maj.json"
    assert run("example", "--name", "majorana", "--N", 16,
               "--output", out) == 0
    assert "wrote" in capsys.readouterr().out
    data = _load(out)
    assert data["version"] == 2
    assert data["grid"]["N"] == 16
    assert data["class"]["label"] == "D"


def test_example_then_class_d_z2(tmp_path, capsys):
    out = tmp_path / "maj.json"
    run("example", "--name", "majorana", "--N", 16, "--output", out)
    capsys.readouterr()
    assert run("invariant", "--input", out, "--kind", "class_d_z2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "z2_bit"
    assert payload["value"] == 1

    run("example", "--name", "majorana", "--N", 16, "--trivial",
        "--output", out)
    capsys.readouterr()
    assert run("invariant", "--input", out, "--kind", "class_d_z2") == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0


def test_example_names_are_case_insensitive(tmp_path):
    out = tmp_path / "b.json"
    assert run("example", "--name", "DIII", "--N", 8, "--output", out) == 0
    assert _load(out)["class"]["label"] == "DIII"
    assert run("example", "--name", "KITAEV-CHAIN", "--n", 1,
               "--n-plus", 1, "--N", 8, "--output", out) == 0
    assert _load(out)["class"]["label"] == "BDI"


def test_validate_clean_bundle(tmp_path, capsys):
    out = tmp_path / "chain.json"
    run("example", "--name", "kitaev_chain", "--n", 2, "--n-plus", 1,
        "--N", 8, "--output", out)
    capsys.readouterr()
    assert run("validate", "--input", out) == 0
    text = capsys.readouterr().out
    assert "pseudo-symmetry max deviation" in text
    assert "Fermi pairing max deviation" in text
    assert "continuity max jump" in text


def test_validate_flags_a_corrupted_fiber(tmp_path, capsys):
    out = tmp_path / "maj.json"
    run("example", "--name", "majorana", "--N", 16, "--output", out)
    data = v1_document(_read_bundle(out))
    data["fibers"][3]["frame"] = [[[1.0, 0.0]], [[0.0, 0.0]]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("validate", "--input", bad) == 1
    text = capsys.readouterr().out
    assert "Fermi pairing violated" in text
    assert any(f"point {p}" in text for p in (3, 13))


def test_validate_csv_output(tmp_path):
    out = tmp_path / "chain.json"
    csv_path = tmp_path / "report.csv"
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 8, "--output", out)
    assert run("validate", "--input", out, "--csv", csv_path) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,k,pseudo_max,fermi_max"
    assert len(lines) == 9

    sphere = tmp_path / "diii.json"
    run("example", "--name", "diii", "--N", 8, "--output", sphere)
    assert run("validate", "--input", sphere, "--csv", csv_path) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,k,t,pseudo_max,fermi_max"
    assert len(lines) == 8 * 5 + 2 + 1


def test_file_pipeline_matches_the_library_bit_for_bit(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    sphere = tmp_path / "sphere.json"
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 16, "--output", ring)
    assert run("suspend", "--input", ring, "--k-index", 0,
               "--output", sphere) == 0
    lib = suspend(SuspensionInput(example_kitaev_chain(1, 1, N=16), 0))
    from fermibundle.bundles import serialize_bundle
    assert _load(sphere) == serialize_bundle(lib)

    capsys.readouterr()
    assert run("invariant", "--input", sphere, "--kind",
               "chern_number") == 0
    payload = json.loads(capsys.readouterr().out)
    want = chern_number(lib)
    assert payload["value"] == want.value
    assert payload["diagnostics"]["residual"] == want.diagnostics["residual"]


def test_invariant_kane_mele_with_csv(tmp_path, capsys):
    out = tmp_path / "diii.json"
    csv_path = tmp_path / "field.csv"
    run("example", "--name", "diii", "--N", 8, "--output", out)
    capsys.readouterr()
    assert run("invariant", "--input", out, "--kind", "kane_mele_z2",
               "--csv", csv_path) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 1
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,k,t,abs_pf,arg_pf"
    assert len(lines) == 8 * 5 + 2 + 1


def test_invariant_chern_number_with_csv(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    sphere = tmp_path / "sphere.json"
    csv_path = tmp_path / "flux.csv"
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 16, "--output", ring)
    run("suspend", "--input", ring, "--k-index", 0, "--output", sphere)
    capsys.readouterr()
    assert run("invariant", "--input", sphere, "--kind", "chern_number",
               "--csv", csv_path) == 0
    payload = json.loads(capsys.readouterr().out)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "plaquette,flux"
    grid = _load(sphere)["grid"]
    assert len(lines) - 1 == grid["N"] * (grid["M"] + 1)
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert round(total / (2 * np.pi)) == payload["value"]


def _library_line(result):
    """The invariant line printed for a library result: arrays as lists."""
    diagnostics = {key: value.tolist() if isinstance(value, np.ndarray)
                   else value for key, value in result.diagnostics.items()}
    return json.dumps({"kind": result.kind, "value": result.value,
                       "diagnostics": diagnostics}, sort_keys=True) + "\n"


@pytest.mark.parametrize("example, argv, compute", [
    (lambda: example_majorana(N=8), ["--kind", "parity", "--point-index", 4],
     lambda b: fermion_parity(b.space, b.fibers[4])),
    (lambda: example_majorana(N=8), ["--kind", "class_d_z2"], class_d_z2),
    (lambda: example_dIII(N=8), ["--kind", "kane_mele_z2"],
     lambda b: kane_mele_z2(b, b.cset.generators[0])),
    (lambda: example_kitaev_chain(2, 1, N=8), ["--kind", "chiral_winding"],
     lambda b: chiral_winding(b, b.cset.generators[0])),
    (lambda: suspend(SuspensionInput(example_kitaev_chain(1, 1, N=16), 0)),
     ["--kind", "chern_number"], chern_number),
    (lambda: example_kitaev_chain(2, 1, N=8),
     ["--kind", "component_index", "--point-index", 4],
     lambda b: component_index_ai(b.fibers[4],
                                  true_symmetries(b.space).Q))],
    ids=["parity", "class_d_z2", "kane_mele_z2", "chiral_winding",
         "chern_number", "component_index"])
def test_invariant_line_is_the_library_result(tmp_path, capsys, example,
                                              argv, compute):
    path = tmp_path / "bundle.json"
    bundle = example()
    path.write_text(json.dumps(serialize_bundle(bundle)))
    assert run("invariant", "--input", path, *argv) == 0
    assert capsys.readouterr().out == _library_line(compute(bundle))


def test_invariant_csv_rejected_for_other_kinds(tmp_path):
    out = tmp_path / "maj.json"
    run("example", "--name", "majorana", "--N", 16, "--output", out)
    assert run("invariant", "--input", out, "--kind", "class_d_z2",
               "--csv", tmp_path / "x.csv") == 2


@pytest.mark.parametrize("kind", ["parity", "class_d_z2", "chiral_winding",
                                  "component_index"])
def test_invariant_csv_refused_before_any_output(tmp_path, capsys, kind):
    out, table = tmp_path / "chain.json", tmp_path / "x.csv"
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 8, "--output", out)
    capsys.readouterr()
    assert run("invariant", "--input", out, "--kind", kind,
               "--csv", table) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--csv does not apply to kind {kind!r}" in captured.err
    assert not table.exists()


def test_invariant_generator_index_out_of_range(tmp_path):
    out = tmp_path / "chain.json"
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 8, "--output", out)
    assert run("invariant", "--input", out, "--kind", "chiral_winding",
               "--generator-index", 5) == 2


def test_classinfo_matches_the_table(capsys):
    assert run("classinfo", "--label", "cii") == 0
    payload = json.loads(capsys.readouterr().out)
    want = json.loads(json.dumps(class_info("CII").to_dict()))
    assert payload == want
    assert payload["s"] == 3
    assert len(payload["pseudo_symmetries"]) == 3


def test_classinfo_unknown_label():
    assert run("classinfo", "--label", "XYZ") == 2


def test_classinfo_prints_the_imaginary_realization(capsys):
    assert run("classinfo", "--label", "AI") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["imaginary_realization"] == ["K1 = i gamma T",
                                                "K2 = i Q K1"]


def test_doubling_roundtrip(tmp_path, capsys):
    out = tmp_path / "maj.json"
    doubled = tmp_path / "doubled.json"
    run("example", "--name", "majorana", "--N", 8, "--output", out)
    assert run("doubling", "--input", out, "--output", doubled) == 0
    data = _load(doubled)
    assert data["n"] == 2
    assert len(data["class"]["generators"]) == 2
    assert data["class"]["label"] == "D"
    capsys.readouterr()
    assert run("validate", "--input", doubled) == 0


def test_suspend_doubled_bundle_to_sphere(tmp_path):
    out = tmp_path / "maj.json"
    doubled = tmp_path / "doubled.json"
    sphere = tmp_path / "sphere.json"
    run("example", "--name", "majorana", "--N", 8, "--output", out)
    run("doubling", "--input", out, "--output", doubled)
    assert run("suspend", "--input", doubled, "--k-index", 1,
               "--i-index", 0, "--output", sphere) == 0
    data = _load(sphere)
    assert data["grid"]["d"] == 2
    assert data["class"]["label"] == "DIII"


def test_exit_code_for_input_errors(tmp_path):
    out = tmp_path / "chain.json"
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 8, "--output", out)
    assert run("invariant", "--input", out, "--kind", "chern_number") == 2
    assert run("validate", "--input", tmp_path / "missing.json") == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("where", ["fiber", "generator"])
def test_non_finite_entries_are_malformed_input(tmp_path, where, bad):
    out = tmp_path / "chain.json"
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 8, "--output", out)
    data = v1_document(_read_bundle(out))
    if where == "fiber":
        data["fibers"][3]["frame"][0][0] = [bad, 0.0]
    else:
        data["class"]["generators"][0]["matrix"][0][1] = [0.0, bad]
    out.write_text(json.dumps(data))
    assert run("validate", "--input", out) == 2


@pytest.mark.parametrize("mangle", [
    lambda d: d.update(version=True),
    lambda d: d.update(n=True),
    lambda d: d["grid"].update(N=True),
    lambda d: d["fibers"][1].update(frame=[[[False, False]], [[True, False]]]),
], ids=["version", "n", "grid.N", "frame entry"])
def test_booleans_are_not_integers(tmp_path, mangle):
    # on the point pair grid.N is unused, so only its type can reject it
    sp = make_nambu(1)
    pair = Bundle(sp, imaginary_realization(sp, "BDI"), make_sphere_grid(0),
                  (vacuum_plane(sp),) * 2, "BDI")
    data = v1_document(pair)
    out = tmp_path / "pair.json"
    out.write_text(json.dumps(data))
    assert run("validate", "--input", out) == 0
    mangle(data)
    out.write_text(json.dumps(data))
    assert run("validate", "--input", out) == 2


def test_invariant_parity_of_the_majorana_zero_fiber(tmp_path, capsys):
    out = tmp_path / "maj.json"
    run("example", "--name", "majorana", "--N", 8, "--output", out)
    capsys.readouterr()
    # point 4 of the 8-point circle is k = 0
    assert run("invariant", "--input", out, "--kind", "parity",
               "--point-index", 4) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "parity_bit"
    assert payload["value"] == 1


def test_exit_code_for_validation_errors(tmp_path, capsys):
    out = tmp_path / "maj.json"
    run("example", "--name", "majorana", "--N", 8, "--output", out)
    data = v1_document(_read_bundle(out))
    # span{(c + c^dagger)/sqrt(2)} is a unit line but not Lagrangian
    data["fibers"][4]["frame"] = [[[math.sqrt(0.5), 0.0]],
                                  [[math.sqrt(0.5), 0.0]]]
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("invariant", "--input", out, "--kind", "parity",
               "--point-index", 4) == 1
    assert "validation error:" in capsys.readouterr().err


def _constant_diii_sphere(M):
    sp = make_nambu(2)
    cset = CliffordSet(sp, kitaev_generators(sp, "DIII").generators[:1])
    grid = make_sphere_grid(2, 8, M)
    frames = np.repeat(np.eye(4, dtype=complex)[None, :, 2:], grid.size, 0)
    return Bundle(sp, cset, grid, frames, "DIII")


@pytest.mark.parametrize("make, code, fragment", [
    (lambda: _constant_diii_sphere(4), 2, "odd row count"),
    # a fiber of the t = 0 row moved off the image of its mirror
    (lambda: nudge(example_dIII(N=8, rows=5), 2 * 8 + 1, 1e-6,
                   np.random.default_rng(3)), 1, "time reversal"),
], ids=["even M", "t = 0 row breaks time reversal"])
def test_kane_mele_refusals_exit_codes(tmp_path, capsys, make, code,
                                       fragment):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(serialize_bundle(make())))
    assert run("invariant", "--input", path, "--kind", "kane_mele_z2") == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fragment in captured.err


def test_invariant_component_index_at_self_antipodal_points(tmp_path,
                                                             capsys):
    out = tmp_path / "chain.json"
    run("example", "--name", "kitaev_chain", "--n", 2, "--n-plus", 1,
        "--N", 8, "--output", out)
    chain = example_kitaev_chain(2, 1, N=8)
    Q = true_symmetries(chain.space).Q
    values = []
    for p in chain.grid.trims:
        capsys.readouterr()
        assert run("invariant", "--input", out, "--kind",
                   "component_index", "--point-index", p) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == component_index_ai(chain.fibers[p], Q).value
        values.append(payload["value"])
    assert values == [0, 1]


def test_exit_code_for_numeric_errors(tmp_path):
    out = tmp_path / "coarse.json"
    run("example", "--name", "kitaev_chain", "--n", 2, "--n-plus", 2,
        "--N", 4, "--output", out)
    assert run("invariant", "--input", out, "--kind",
               "chiral_winding") == 3


def test_numpy_linalg_failures_exit_3(tmp_path, capsys, monkeypatch):
    # the link table of a rank-4 bundle (the doubled sphere) calls
    # np.linalg.det; ranks 1 and 2 use a closed form
    sphere = tmp_path / "sphere.json"
    out = tmp_path / "doubled.json"
    run("example", "--name", "dIII", "--N", 8, "--output", sphere)
    run("doubling", "--input", sphere, "--output", out)
    assert _load(out)["frames"]["shape"][2] == 4

    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "det", refuse)
    capsys.readouterr()
    assert run("invariant", "--input", out, "--kind", "chern_number") == 3
    assert capsys.readouterr().err == "numeric error: Singular matrix\n"


@pytest.mark.parametrize("frame, code, fragment", [
    ([[[float("nan"), 0.0]], [[0.0, 0.0]]], 2, "non-finite"),
    ([[[0.7, 0.0]], [[0.0, 0.0]]], 1, "not orthonormal at point 5"),
    ([[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]], 2, "fibers[5].frame"),
], ids=["nan", "skew", "shape"])
def test_bad_frames_exit_codes(tmp_path, capsys, frame, code, fragment):
    out = tmp_path / "chain.json"
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 8, "--output", out)
    data = v1_document(_read_bundle(out))
    data["fibers"][5]["frame"] = frame
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("validate", "--input", out) == code
    assert fragment in capsys.readouterr().err


def test_unknown_kind_is_an_argparse_error(tmp_path):
    out = tmp_path / "maj.json"
    run("example", "--name", "majorana", "--N", 8, "--output", out)
    with pytest.raises(SystemExit):
        run("invariant", "--input", out, "--kind", "bogus")


def test_config_file_merging(tmp_path):
    out = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "majorana", "N": 16,
                               "output": str(out)}))
    assert run("example", "--config", cfg) == 0
    assert _load(out)["grid"]["N"] == 16
    assert run("example", "--config", cfg, "--N", 8,
               "--output", out2) == 0
    assert _load(out2)["grid"]["N"] == 8


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert run("example", "--config", cfg) == 2


def test_tolerance_environment_override(tmp_path, monkeypatch):
    out = tmp_path / "maj.json"
    run("example", "--name", "majorana", "--N", 16, "--output", out)
    monkeypatch.setenv("FERMIBUNDLE_TOL", "1e-9")
    assert run("validate", "--input", out) == 0
    monkeypatch.setenv("FERMIBUNDLE_TOL", "5.0")
    assert run("validate", "--input", out) == 2
    monkeypatch.setenv("FERMIBUNDLE_TOL", "abc")
    assert run("validate", "--input", out) == 2


@pytest.mark.parametrize("flag", ["--input", "--config"])
@pytest.mark.parametrize("content", [
    b'{"n": "\xff"}', b"[" * 100_000, b'{"n": 1' + b"0" * 5000 + b"}",
], ids=["invalid utf-8", "deep nesting", "5001-digit integer"])
def test_undecodable_files_exit_2(tmp_path, capsys, content, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    capsys.readouterr()
    assert run("validate", flag, bad) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("where, fragment", [
    ("fiber", "fibers[2].frame: entry (0, 0) is too large"),
    ("generator", "class.generators[0].matrix: entry (0, 1) is too large"),
])
def test_oversized_integer_entries_exit_2(tmp_path, capsys, where, fragment):
    out = tmp_path / "chain.json"
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 8, "--output", out)
    data = v1_document(_read_bundle(out))
    if where == "fiber":
        data["fibers"][2]["frame"][0][0] = [10**400, 0]
    else:
        data["class"]["generators"][0]["matrix"][0][1] = [10**400, 0]
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("validate", "--input", out) == 2
    assert fragment in capsys.readouterr().err


def _bits(frames):
    """Frames as raw 64-bit words, so that the sign of zero counts."""
    return np.ascontiguousarray(frames).view(np.int64)


def _read_bundle(path):
    return deserialize_bundle(json.loads(path.read_text()))


def test_cli_files_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(29)
    pairs = []
    for i, inp in enumerate(random_suspension_inputs(rng, copies=1)):
        src, out = tmp_path / f"in{i}.json", tmp_path / f"out{i}.json"
        src.write_text(json.dumps(serialize_bundle(inp.bundle)))
        argv = ["suspend", "--input", src, "--k-index", inp.k_index,
                "--output", out]
        if inp.bundle.grid.d == 0:      # --points sizes d = 0 inputs only
            argv += ["--points", 8]
        if inp.i_index is not None:
            argv += ["--i-index", inp.i_index]
        assert run(*argv) == 0
        pairs += [(inp.bundle, _read_bundle(src)),
                  (suspend(inp, points=8), _read_bundle(out))]
    chain, doubled = tmp_path / "chain.json", tmp_path / "doubled.json"
    assert run("example", "--name", "kitaev_chain", "--n", 8,
               "--n-plus", 3, "--N", 16, "--output", chain) == 0
    assert run("doubling", "--input", chain, "--output", doubled) == 0
    ref = example_kitaev_chain(8, 3, N=16)
    pairs += [(ref, _read_bundle(chain)),
              (double_bundle(ref), _read_bundle(doubled))]
    negative_zeros = 0
    for want, got in pairs:
        assert np.array_equal(_bits(got.frames), _bits(want.frames))
        for g, h in zip(want.cset.generators, got.cset.generators):
            assert np.array_equal(_bits(h.matrix), _bits(g.matrix))
        parts = want.frames.view(float)
        negative_zeros += np.count_nonzero((parts == 0) & np.signbit(parts))
    assert negative_zeros > 0


def test_indented_files_load_bit_for_bit(tmp_path):
    bundle = suspend(random_suspension_inputs(
        np.random.default_rng(31), copies=1)[3], points=8)
    path = tmp_path / "indented.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_bundle(bundle), fh, indent=2)
        fh.write("\n")
    assert run("validate", "--input", path) == 0
    assert np.array_equal(_bits(_read_bundle(path).frames),
                          _bits(bundle.frames))


def _set_cell(r, c, value):
    def mangle(entry):
        entry["frame"][r][c] = value
    return mangle


@pytest.mark.parametrize("mangle, fragment", [
    (_set_cell(0, 0, [True, 0.0]), "fibers[63].frame: entry (0, 0)"),
    (_set_cell(1, 1, ["0.5", 0.0]), "fibers[63].frame: entry (1, 1)"),
    (_set_cell(2, 0, [None, 0.0]), "fibers[63].frame: entry (2, 0)"),
    (_set_cell(3, 1, [0.0, 0.0, 0.0]), "fibers[63].frame: entry (3, 1)"),
    (lambda e: e["frame"][3].pop(), "fibers[63].frame: row 3 has length 1"),
    (lambda e: e["frame"][0].__setitem__(
        0, [[x] for x in e["frame"][0][0]]), "fibers[63].frame: entry (0, 0)"),
    (lambda e: e.update(rank=1), "fibers[63].frame: shape (4, 2)"),
    (lambda e: e.update(rank=1, frame=[[[1.0, 0.0]], [[0.0, 0.0]],
                                       [[0.0, 0.0]], [[0.0, 0.0]]]),
     "fibers have mixed ranks [1, 2]"),
], ids=["boolean", "string", "null", "triple", "ragged row",
        "extra nesting", "rank field", "mixed rank"])
def test_malformed_last_fiber_exits_2(tmp_path, capsys, mangle, fragment):
    out = tmp_path / "chain.json"
    run("example", "--name", "kitaev_chain", "--n", 2, "--n-plus", 1,
        "--N", 64, "--output", out)
    data = v1_document(_read_bundle(out))
    mangle(data["fibers"][63])
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("validate", "--input", out) == 2
    assert fragment in capsys.readouterr().err


def test_kane_mele_csv_pins_the_scalar_abs_and_angle(tmp_path, capsys):
    # a random gauge gives the Pfaffian field generic phases; numpy's
    # vectorised complex abs differs from the scalar one on some of them
    bundle = regauge(example_dIII(N=16), np.random.default_rng(5))
    path, table = tmp_path / "diii.json", tmp_path / "km.csv"
    path.write_text(json.dumps(serialize_bundle(bundle)))
    assert run("invariant", "--input", path, "--kind", "kane_mele_z2",
               "--csv", table) == 0
    field = pfaffian_field(bundle, bundle.cset.generators[0])
    with open(table, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(field)
    for row, f in zip(rows, field):
        assert row["abs_pf"] == repr(float(abs(f)))
        assert row["arg_pf"] == repr(float(np.angle(f)))


# ---------------------------------------------------------------------------
# version-2 frame payloads


def _chain_file(tmp_path):
    out = tmp_path / "chain.json"
    assert run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
               "--N", 8, "--output", out) == 0
    return out


def _payload(frames):
    return base64.b64encode(np.ascontiguousarray(frames, "<c16")).decode()


def _with_frame(p, frame):
    def mangle(f):
        F = np.frombuffer(base64.b64decode(f["base64"]), "<c16").reshape(
            f["shape"]).copy()
        F[p] = frame
        f["base64"] = _payload(F)
    return mangle


@pytest.mark.parametrize("mangle, fragment", [
    (lambda f: f.update(base64="*" + f["base64"][1:]), "frames.base64: not"),
    (lambda f: f.update(base64=f["base64"][:4] + "!\n!!" + f["base64"][4:]),
     "frames.base64: not"),
    (lambda f: f.update(base64="é" + f["base64"][1:]), "frames.base64: not"),
    (lambda f: f.update(base64=f["base64"][:-1]), "frames.base64: not"),
    (lambda f: f.update(base64=_payload(np.zeros(17))),
     "frames.base64: 272 bytes do not fill [8, 2, 1]"),
    (lambda f: f.update(base64=_payload(np.zeros(15))),
     "frames.base64: 240 bytes"),
    (lambda f: f.update(base64=list(f["base64"])), "frames.base64: wrong"),
    (lambda f: f.pop("base64"), "frames.base64: missing"),
    (lambda f: f.update(dtype="<c8"), "frames.dtype: expected '<c16'"),
    (lambda f: f.update(dtype=">c16"), "frames.dtype: expected '<c16'"),
    (lambda f: f.pop("dtype"), "frames.dtype: missing"),
    (lambda f: f.update(shape=[8, 4, 1]), "frames.shape: expected [8, 2, m]"),
    (lambda f: f.update(shape=[16, 2, 1]), "frames.shape: expected [8, 2, m]"),
    (lambda f: f.update(shape=[8, 2, 2]), "frames.shape: expected [8, 2, m]"),
    (lambda f: f.update(shape=[8, 2, True]), "frames.shape: expected"),
    (lambda f: f.update(shape=[8.0, 2, 1]), "frames.shape: expected"),
    (lambda f: f.update(shape=[8, 2]), "frames.shape: expected"),
    (lambda f: f.update(shape="8,2,1"), "frames.shape: wrong type str"),
    (_with_frame(3, [[float("nan")], [0.0]]),
     "frames.base64 has non-finite entries"),
    (_with_frame(6, [[0.0], [float("-inf")]]),
     "frames.base64 has non-finite entries"),
], ids=["non-base64 character", "inserted non-base64 characters",
        "non-ascii character", "bad padding",
        "too many bytes", "too few bytes", "payload not a string",
        "payload missing", "dtype <c8", "dtype >c16", "dtype missing",
        "shape against n", "shape against grid", "rank out of range",
        "bool in shape", "float in shape", "two-entry shape", "string shape",
        "nan", "inf"])
def test_malformed_v2_frames_exit_2(tmp_path, capsys, mangle, fragment):
    out = _chain_file(tmp_path)
    data = _load(out)
    mangle(data["frames"])
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("validate", "--input", out) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("mangle, fragment", [
    (lambda d: d.pop("frames"), "frames: missing"),
    (lambda d: d.update(frames=[]), "frames: wrong type list"),
    (lambda d: d.update(frames=None), "frames: wrong type NoneType"),
], ids=["missing", "list", "null"])
def test_v2_frames_must_be_an_object(tmp_path, capsys, mangle, fragment):
    out = _chain_file(tmp_path)
    data = _load(out)
    mangle(data)
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("validate", "--input", out) == 2
    assert fragment in capsys.readouterr().err


def test_skew_v2_frame_is_a_validation_error(tmp_path, capsys):
    out = _chain_file(tmp_path)
    data = _load(out)
    _with_frame(5, [[0.7], [0.0]])(data["frames"])
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("validate", "--input", out) == 1
    assert "not orthonormal at point 5" in capsys.readouterr().err


@pytest.mark.parametrize("indent", [None, 2])
def test_v2_files_keep_negative_zeros(tmp_path, capsys, indent):
    chain = example_kitaev_chain(2, 1, N=8)
    # -F spans the same plane as F; every +0.0 entry becomes -0.0
    bundle = Bundle(chain.space, chain.cset, chain.grid, -chain.frames,
                    chain.label)
    parts = bundle.frames.view(float)
    assert np.count_nonzero((parts == 0) & np.signbit(parts)) > 0
    path = tmp_path / "negated.json"
    path.write_text(json.dumps(serialize_bundle(bundle), indent=indent))
    assert (len(path.read_text().splitlines()) == 1) == (indent is None)
    assert run("validate", "--input", path) == 0
    doubled = tmp_path / "doubled.json"
    assert run("doubling", "--input", path, "--output", doubled) == 0
    for want, got in ((bundle, _read_bundle(path)),
                      (double_bundle(bundle), _read_bundle(doubled))):
        assert _load(doubled)["version"] == 2
        assert np.array_equal(_bits(got.frames), _bits(want.frames))
        for g, h in zip(want.cset.generators, got.cset.generators):
            assert np.array_equal(_bits(h.matrix), _bits(g.matrix))


def test_checked_in_v1_file_through_the_cli(tmp_path, capsys):
    v1 = Path(__file__).parent / "data" / "kitaev_chain_2_1_N8_v1.json"
    assert run("validate", "--input", v1) == 0
    out = tmp_path / "doubled.json"
    assert run("doubling", "--input", v1, "--output", out) == 0
    assert _load(out)["version"] == 2
    assert np.array_equal(
        _bits(_read_bundle(out).frames),
        _bits(double_bundle(example_kitaev_chain(2, 1, N=8)).frames))


def _v2_with(mangle):
    """The v2 document of the one-band chain file, changed by ``mangle``."""
    def make(chain):
        doc = _load(chain)
        mangle(doc)
        return doc
    return make


def _v1_with(mangle):
    """The version-1 document of the same chain, changed by ``mangle``."""
    def make(chain):
        doc = v1_document(_read_bundle(chain))
        mangle(doc)
        return doc
    return make


def _generators(doc):
    return doc["class"]["generators"]


# (argv, the document that "{in}" names, message); a callable builds the
# document from the chain file written next to it, None writes no file
_REFUSALS = {
    "empty matrix": (["validate", "--input", "{in}"],
                     _v2_with(lambda d: _generators(d)[0].update(matrix=[])),
                     "class.generators[0].matrix: expected a non-empty "
                     "matrix"),
    "row not a list": (["validate", "--input", "{in}"],
                       _v2_with(lambda d: _generators(d)[0]["matrix"]
                                .__setitem__(1, 7)),
                       "class.generators[0].matrix: row 1 is not a list"),
    "generator not an object": (["validate", "--input", "{in}"],
                                _v2_with(lambda d: _generators(d)
                                         .__setitem__(0, [1])),
                                "class.generators[0]: expected an object"),
    "v1 rank too large": (["validate", "--input", "{in}"],
                          _v1_with(lambda d: d["fibers"][3].update(rank=2)),
                          "fibers[3].rank: out of range value 2"),
    "v1 rank zero": (["validate", "--input", "{in}"],
                     _v1_with(lambda d: d["fibers"][0].update(rank=0)),
                     "fibers[0].rank: out of range value 0"),
    "n < 1": (["validate", "--input", "{in}"],
              _v2_with(lambda d: d.update(n=0)), "n: must be positive, got 0"),
    "label not a string": (["validate", "--input", "{in}"],
                           _v2_with(lambda d: d["class"].update(
                               label=["BDI"])),
                           "class.label: wrong type"),
    "signature mismatch": (["validate", "--input", "{in}"],
                           _v2_with(lambda d: d["class"].update(
                               signature=[1, 0])),
                           "class.signature: declares [1, 0], generators "
                           "give [0, 1]"),
    "bundle not an object": (["validate", "--input", "{in}"], [1, 2],
                             "in.json does not hold a bundle object"),
    "config not an object": (["classinfo", "--config", "{in}"], ["AI"],
                             "config file must hold a JSON object"),
    "unknown example by config": (
        ["example", "--config", "{in}"],
        lambda chain: {"name": "bogus",
                       "output": str(chain.with_name("out.json"))},
        "unknown example 'bogus'"),
    "cannot write": (["example", "--name", "majorana", "--N", 8,
                      "--output", "{missing}"], None, "cannot write"),
}


@pytest.mark.parametrize("argv, document, fragment", _REFUSALS.values(),
                         ids=list(_REFUSALS))
def test_refusal_branches_exit_2_with_the_key_path(tmp_path, capsys, argv,
                                                   document, fragment):
    paths = {"in": tmp_path / "in.json", "out": tmp_path / "out.json",
             "missing": tmp_path / "no_such_dir" / "out.json"}
    if callable(document):
        document = document(_chain_file(tmp_path))
    if document is not None:
        paths["in"].write_text(json.dumps(document))
    capsys.readouterr()
    assert run(*[str(a).format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert fragment in captured.err
    assert not paths["out"].exists() and not paths["missing"].exists()


# ---------------------------------------------------------------------------
# config value types


@pytest.mark.parametrize("argv, text, key", [
    (["validate", "--input", "{bundle}"], '{"tol": "x"}', "'tol'"),
    (["validate", "--input", "{bundle}"], '{"tol": [1]}', "'tol'"),
    (["validate", "--input", "{bundle}"], '{"tol": true}', "'tol'"),
    (["validate", "--input", "{bundle}"], '{"tol": NaN}', "'tol'"),
    (["validate", "--input", "{bundle}"], '{"tol": 1e400}', "'tol'"),
    (["example", "--name", "majorana", "--output", "{out}"],
     '{"N": "abc"}', "'N'"),
    (["example", "--name", "majorana", "--output", "{out}"],
     '{"N": [8]}', "'N'"),
    (["example", "--name", "majorana", "--output", "{out}"],
     '{"N": 1e400}', "'N'"),
    (["example", "--name", "majorana", "--output", "{out}"],
     '{"N": 8.0}', "'N'"),
    (["example", "--name", "majorana", "--output", "{out}"],
     '{"N": true}', "'N'"),
    (["example", "--name", "dIII", "--output", "{out}"],
     '{"M": "q"}', "'M'"),
    (["example", "--name", "majorana", "--output", "{out}"],
     '{"trivial": 1}', "'trivial'"),
    (["example", "--output", "{out}"], '{"name": 7}', "'name'"),
    (["invariant", "--input", "{bundle}", "--kind", "parity"],
     '{"point_index": "z"}', "'point_index'"),
    (["invariant", "--input", "{bundle}", "--kind", "parity"],
     '{"point_index": 1.5}', "'point_index'"),
    (["validate"], '{"input": 5}', "'input'"),
], ids=["tol string", "tol list", "tol bool", "tol nan", "tol overflow",
        "N string", "N list", "N overflow", "N float", "N bool", "M string",
        "trivial int", "name int", "point_index string",
        "point_index float", "input int"])
def test_config_values_must_fit_their_flag(tmp_path, capsys, argv, text,
                                           key):
    bundle, out = tmp_path / "maj.json", tmp_path / "out.json"
    assert run("example", "--name", "majorana", "--N", 8,
               "--output", bundle) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    capsys.readouterr()
    argv = [a.format(bundle=bundle, out=out) for a in argv]
    assert run(*argv, "--config", cfg) == 2
    assert f"config key {key}" in capsys.readouterr().err
    assert not out.exists()


def test_config_null_means_the_default_and_does_not_persist(tmp_path):
    out = tmp_path / "maj.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "majorana", "N": 16, "M": None,
                               "output": str(out)}))
    assert run("example", "--config", cfg) == 0
    assert _load(out)["grid"]["N"] == 16
    # one parser serves every call; the config must not leak into the next
    assert run("example", "--name", "majorana", "--output", out) == 0
    assert _load(out)["grid"]["N"] == 64


# (base argv, value) per option: the value is given once by its flag and
# once by its config key; every value differs from the option's default
_OPTION_CASES = {
    ("example", "name"): (["example", "--N", 8, "--output", "{out}"], "dIII"),
    ("example", "N"): (["example", "--name", "majorana", "--output", "{out}"],
                       8),
    ("example", "M"): (["example", "--name", "dIII", "--N", 8,
                        "--output", "{out}"], 3),
    ("example", "n"): (["example", "--name", "kitaev_chain", "--n-plus", 1,
                        "--N", 8, "--output", "{out}"], 2),
    ("example", "n_plus"): (["example", "--name", "kitaev_chain", "--n", 2,
                             "--N", 8, "--output", "{out}"], 1),
    ("example", "trivial"): (["example", "--name", "majorana", "--N", 8,
                              "--output", "{out}"], True),
    ("example", "output"): (["example", "--name", "majorana", "--N", 8],
                            "{out}"),
    ("validate", "input"): (["validate"], "{chain}"),
    ("validate", "tol"): (["validate", "--input", "{chain}"], 1e-9),
    ("validate", "csv"): (["validate", "--input", "{chain}"], "{table}"),
    ("suspend", "input"): (["suspend", "--k-index", 0, "--points", 8,
                            "--output", "{out}"], "{pair}"),
    ("suspend", "k_index"): (["suspend", "--input", "{chain}",
                              "--output", "{out}"], 0),
    ("suspend", "i_index"): (["suspend", "--input", "{doubled}", "--k-index",
                              3, "--output", "{out}"], 0),
    ("suspend", "points"): (["suspend", "--input", "{pair}", "--k-index", 0,
                             "--output", "{out}"], 8),
    ("suspend", "rows"): (["suspend", "--input", "{chain}", "--k-index", 0,
                           "--output", "{out}"], 3),
    ("suspend", "output"): (["suspend", "--input", "{chain}", "--k-index", 0],
                            "{out}"),
    ("invariant", "input"): (["invariant", "--kind", "parity"], "{maj}"),
    ("invariant", "kind"): (["invariant", "--input", "{maj}"], "class_d_z2"),
    ("invariant", "generator_index"): (["invariant", "--input", "{chain}",
                                        "--kind", "chiral_winding"], 5),
    ("invariant", "point_index"): (["invariant", "--input", "{maj}",
                                    "--kind", "parity"], 4),
    ("invariant", "csv"): (["invariant", "--input", "{diii}",
                            "--kind", "kane_mele_z2"], "{table}"),
    ("classinfo", "label"): (["classinfo"], "cii"),
    ("doubling", "input"): (["doubling", "--output", "{out}"], "{maj}"),
    ("doubling", "output"): (["doubling", "--input", "{maj}"], "{out}"),
}


@pytest.mark.parametrize("command, key", [
    (command, flag[2:].replace("-", "_"))
    for command, (_, _, options) in _COMMANDS.items() for flag, *_ in options])
def test_a_flag_and_its_config_key_give_the_same_result(tmp_path, capsys,
                                                        command, key):
    flag = "--" + key.replace("_", "-")
    paths = {name: tmp_path / f"{name}.json" for name in (
        "chain", "maj", "diii", "pair", "doubled", "out", "cfg")}
    paths["table"] = tmp_path / "table.csv"
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 8, "--output", paths["chain"])
    run("example", "--name", "majorana", "--N", 8, "--output", paths["maj"])
    run("example", "--name", "dIII", "--N", 8, "--output", paths["diii"])
    run("doubling", "--input", paths["maj"], "--output", paths["doubled"])
    run("doubling", "--input", paths["doubled"], "--output", paths["doubled"])
    sp = make_nambu(1)
    paths["pair"].write_text(json.dumps(serialize_bundle(Bundle(
        sp, imaginary_realization(sp, "BDI"), make_sphere_grid(0),
        (vacuum_plane(sp),) * 2, "BDI"))))
    base, value = _OPTION_CASES[command, key]
    if isinstance(value, str):
        value = value.format(**paths)
    base = [str(a).format(**paths) for a in base]

    def outcome(*extra):
        for name in ("out", "table"):
            paths[name].unlink(missing_ok=True)
        capsys.readouterr()
        code = run(*base, *extra)
        captured = capsys.readouterr()
        return (code, captured.out, captured.err,
                [paths[name].read_bytes() for name in ("out", "table")
                 if paths[name].exists()])

    by_flag = outcome(flag) if value is True else outcome(flag, value)
    paths["cfg"].write_text(json.dumps({key: value}))
    assert outcome("--config", paths["cfg"]) == by_flag
    # the option takes effect: without it the result differs
    assert outcome() != by_flag


# (flag, value, argv): the option given where it does not apply, on an
# example of another name or a suspend input of another d
_INAPPLICABLE = [
    (flag, value, ["example", "--name", name, "--N", 8, "--output", "{out}"])
    for flag, value, names in [("--M", 3, ["majorana", "kitaev_chain"]),
                               ("--n", 2, ["majorana", "dIII"]),
                               ("--n-plus", 1, ["majorana", "dIII"]),
                               ("--trivial", True, ["dIII", "kitaev_chain"])]
    for name in names
] + [
    (flag, value, ["suspend", "--input", "{%s}" % src, "--k-index", 0,
                   "--output", "{out}"])
    for flag, value, sources in [("--points", 8, ["chain", "diii"]),
                                 ("--rows", 3, ["pair", "diii"])]
    for src in sources
]


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("flag, value, argv", _INAPPLICABLE, ids=[
    f"{flag} {argv[2]}" for flag, _, argv in _INAPPLICABLE])
def test_options_that_do_not_apply_are_refused(tmp_path, capsys, flag,
                                               value, argv, how):
    paths = {name: tmp_path / f"{name}.json"
             for name in ("chain", "diii", "pair", "out", "cfg")}
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 8, "--output", paths["chain"])
    run("example", "--name", "dIII", "--N", 8, "--output", paths["diii"])
    sp = make_nambu(1)
    paths["pair"].write_text(json.dumps(serialize_bundle(Bundle(
        sp, imaginary_realization(sp, "BDI"), make_sphere_grid(0),
        (vacuum_plane(sp),) * 2, "BDI"))))
    argv = [str(a).format(**paths) for a in argv]
    if how == "flag":
        argv += [flag] if value is True else [flag, str(value)]
    else:
        key = flag[2:].replace("-", "_")
        paths["cfg"].write_text(json.dumps({key: value}))
        argv += ["--config", str(paths["cfg"])]
    capsys.readouterr()
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} does not apply" in captured.err
    assert not paths["out"].exists()


# the kinds that read each invariant option; any other kind refuses it
_READS = {"--generator-index": {"kane_mele_z2", "chiral_winding"},
          "--point-index": {"parity", "component_index"},
          "--csv": {"kane_mele_z2", "chern_number"}}
_INVARIANT_OPTIONS = {flag: kind
                      for flag, kind, *_ in _COMMANDS["invariant"][2]}
# every (option, kind) pair in which the option does not apply, from the
# option table
_NOT_READ = [(flag, kind) for flag in _INVARIANT_OPTIONS if flag in _READS
             for kind in _INVARIANT_OPTIONS["--kind"]
             if kind not in _READS[flag]]


def test_the_invariant_refusals_cover_every_option():
    assert set(_READS) <= set(_INVARIANT_OPTIONS)
    assert set(_INVARIANT_OPTIONS) - set(_READS) == {"--input", "--kind"}
    assert len(_NOT_READ) == 12


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("flag, kind", _NOT_READ,
                         ids=[f"{f} {k}" for f, k in _NOT_READ])
def test_invariant_options_that_do_not_apply_are_refused(tmp_path, capsys,
                                                         flag, kind, how):
    chain, table, cfg = (tmp_path / name for name in
                         ("chain.json", "x.csv", "cfg.json"))
    run("example", "--name", "kitaev_chain", "--n", 1, "--n-plus", 1,
        "--N", 8, "--output", chain)
    value = str(table) if flag == "--csv" else 0
    argv = ["invariant", "--input", chain, "--kind", kind]
    if how == "flag":
        argv += [flag, value]
    else:
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        argv += ["--config", cfg]
    capsys.readouterr()
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} does not apply to kind {kind!r}" in captured.err
    assert not table.exists()


# ---------------------------------------------------------------------------
# CSV bytes: the csv module's output from per-row lists of Python scalars
# (ints as str, floats as repr, CRLF row ends) is the reference


def _csv_module_bytes(tmp_path, header, rows):
    path = tmp_path / "reference.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def _rank_one_ring():
    """A rank-1 line turning over a circle in the n = 2 space: rank != n,
    so the Fermi check does not apply."""
    sp = make_nambu(2)
    grid = make_sphere_grid(1, 8)
    k = grid.points[:, 0]
    frames = np.zeros((grid.size, 4, 1), dtype=complex)
    frames[:, 0, 0], frames[:, 1, 0] = np.cos(k / 2), 1j * np.sin(k / 2)
    return Bundle(sp, CliffordSet(sp, ()), grid, frames)


@pytest.mark.parametrize("make", [
    lambda: example_kitaev_chain(2, 1, N=8),
    lambda: regauge(example_dIII(N=8), np.random.default_rng(2)),
    _rank_one_ring,
], ids=["circle", "sphere", "rank != n"])
def test_validate_csv_bytes_match_the_csv_module(tmp_path, make):
    bundle = make()
    path, table = tmp_path / "b.json", tmp_path / "report.csv"
    path.write_text(json.dumps(serialize_bundle(bundle)))
    assert run("validate", "--input", path, "--csv", table) == 0
    report = validate_bundle(bundle)
    coords = ["k", "t"] if bundle.grid.d == 2 else ["k"]
    fermi = ([""] * bundle.grid.size if report.fermi_max is None
             else report.fermi_max.tolist())
    rows = [[p, *pt, pseudo, f] for p, (pt, pseudo, f) in enumerate(zip(
        bundle.grid.points.tolist(), report.pseudo_max.tolist(), fermi))]
    assert table.read_bytes() == _csv_module_bytes(
        tmp_path, ["index", *coords, "pseudo_max", "fermi_max"], rows)
    if report.fermi_max is None:
        lines = table.read_text().splitlines()[1:]
        assert len(lines) == bundle.grid.size
        assert all(line.endswith(",") for line in lines)


def test_kane_mele_csv_bytes_match_the_csv_module(tmp_path, capsys):
    bundle = regauge(example_dIII(N=16), np.random.default_rng(5))
    path, table = tmp_path / "diii.json", tmp_path / "km.csv"
    path.write_text(json.dumps(serialize_bundle(bundle)))
    assert run("invariant", "--input", path, "--kind", "kane_mele_z2",
               "--csv", table) == 0
    f = pfaffian_field(bundle, bundle.cset.generators[0])
    rows = [[p, *pt, a, phi] for p, (pt, a, phi) in enumerate(zip(
        bundle.grid.points.tolist(), np.hypot(f.real, f.imag).tolist(),
        np.angle(f).tolist()))]
    assert table.read_bytes() == _csv_module_bytes(
        tmp_path, ["index", "k", "t", "abs_pf", "arg_pf"], rows)


def test_chern_csv_bytes_match_the_csv_module(tmp_path, capsys):
    sphere = suspend(SuspensionInput(example_kitaev_chain(1, 1, N=16), 0))
    path, table = tmp_path / "sphere.json", tmp_path / "flux.csv"
    path.write_text(json.dumps(serialize_bundle(sphere)))
    assert run("invariant", "--input", path, "--kind", "chern_number",
               "--csv", table) == 0
    fluxes = chern_number(sphere).diagnostics["fluxes"]
    assert table.read_bytes() == _csv_module_bytes(
        tmp_path, ["plaquette", "flux"], enumerate(fluxes.tolist()))


def test_csv_cells_format_each_bit_pattern():
    payload_nan = np.array([0x7FF8000000000001]).view(np.float64)[0]
    column = np.array([-0.0, 0.0, np.nan, 5e-324, 1e16, 1e-05, 1e16,
                       payload_nan, -0.0, 0.1 + 0.2])
    assert _cells(column) == ["-0.0", "0.0", "", "5e-324", "1e+16", "1e-05",
                              "1e+16", "", "-0.0", "0.30000000000000004"]
    assert _cells(np.array([0, 7, -3, 7, 2**40])) == [
        "0", "7", "-3", "7", "1099511627776"]
    assert _cells(np.array([], dtype=np.float64)) == []


def test_validate_prints_its_tolerances_and_worst_edge(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.delenv("FERMIBUNDLE_TOL", raising=False)
    ring = tmp_path / "ring.json"
    still = tmp_path / "still.json"
    run("example", "--name", "kitaev_chain", "--n", 2, "--n-plus", 1,
        "--N", 8, "--output", ring)
    sp = make_nambu(1)
    grid = make_sphere_grid(1, 4)
    still.write_text(json.dumps(serialize_bundle(Bundle(
        sp, CliffordSet(sp, ()), grid, (vacuum_plane(sp),) * grid.size))))
    capsys.readouterr()
    assert run("validate", "--input", ring, "--tol", "1e-8") == 0
    text = capsys.readouterr().out
    edge = validate_bundle(_read_bundle(ring)).continuity_edge
    assert edge is not None
    assert f"continuity worst edge: {edge}\n" in text
    assert f"tolerances: pseudo/Fermi 1e-08, continuity {CONTINUITY_TOL!r}" \
        in text
    assert run("validate", "--input", still) == 0
    text = capsys.readouterr().out
    assert "continuity worst edge: none\n" in text
    assert "tolerances: pseudo/Fermi 1e-10, " in text
