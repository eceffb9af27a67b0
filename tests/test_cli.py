import json
import math

import numpy as np
import pytest

from fermibundle.bundles import Bundle, make_sphere_grid, serialize_bundle
from fermibundle.cli import main
from fermibundle.invariants import chern_number, component_index_ai
from fermibundle.nambu import make_nambu
from fermibundle.planes import vacuum_plane
from fermibundle.suspension import (SuspensionInput, example_kitaev_chain,
                                    suspend)
from fermibundle.symmetry import (class_info, imaginary_realization,
                                  true_symmetries)


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
    assert data["version"] == 1
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
    data = _load(out)
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


def test_invariant_csv_rejected_for_other_kinds(tmp_path):
    out = tmp_path / "maj.json"
    run("example", "--name", "majorana", "--N", 16, "--output", out)
    assert run("invariant", "--input", out, "--kind", "class_d_z2",
               "--csv", tmp_path / "x.csv") == 2


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
    data = _load(out)
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
    data = serialize_bundle(pair)
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
    data = _load(out)
    # span{(c + c^dagger)/sqrt(2)} is a unit line but not Lagrangian
    data["fibers"][4]["frame"] = [[[math.sqrt(0.5), 0.0]],
                                  [[math.sqrt(0.5), 0.0]]]
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("invariant", "--input", out, "--kind", "parity",
               "--point-index", 4) == 1
    assert "validation error:" in capsys.readouterr().err


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
    out = tmp_path / "sphere.json"
    run("example", "--name", "dIII", "--N", 8, "--output", out)

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
    data = _load(out)
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
