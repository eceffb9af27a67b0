import importlib.util
import subprocess
import types
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"


@pytest.fixture
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sizes():
    return {"32": {"points": 546, "stages_ms": {}, "numpy": "2.0.0"}}


@pytest.mark.parametrize("status, modified", [("", False),
                                              (" M src/x.py", True),
                                              (None, None)])
def test_src_modified_is_null_when_git_cannot_tell(sweep, monkeypatch,
                                                   status, modified):
    answers = {"rev-parse": "0123456789abcdef" if status is not None else None,
               "status": status}
    monkeypatch.setattr(sweep, "_git", lambda cmd, *rest: answers[cmd])
    record = sweep._record(_sizes())
    assert record["src_modified"] is modified
    assert record["sha"] == ("unknown" if status is None
                             else "0123456789abcdef")
    assert record["numpy"] == "2.0.0"


def test_git_without_a_git_binary_gives_none(sweep, monkeypatch):
    def missing(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(subprocess, "run", missing)
    assert sweep._git("status", "--porcelain") is None


def test_a_failing_git_command_gives_none(sweep):
    assert sweep._git("no-such-subcommand") is None


def test_every_stage_runs_at_a_tiny_size(sweep):
    out = sweep._stages(8)
    assert out["points"] == 8 * 5 + 2
    stages = {"grid (cold)", "example_dIII (suspend)", "validate_bundle",
              "validate_bundle (doubled)", "kane_mele_z2", "chern_number",
              "kane_mele_z2 + chern_number", "encode", "decode",
              "double_bundle", "csv"}
    assert set(out["stages_ms"]) == set(out["stages_median_ms"]) == stages
    assert set(out["stages_minflt"]) == stages
    for stage in stages:
        assert 0 < out["stages_ms"][stage] <= out["stages_median_ms"][stage]
        assert out["stages_minflt"][stage] >= 0


def test_a_row_writer_gets_rows_of_python_scalars(sweep):
    written = []
    cli = types.SimpleNamespace(
        _write_csv=lambda path, header, rows: written.append(list(rows)))
    sweep._csv_writer(cli)("t.csv", ["i", "x"],
                           [np.arange(2), np.array([0.5, 1e16])])
    assert written == [[(0, 0.5), (1, 1e16)]]
    assert all(type(v) in (int, float) for row in written[0] for v in row)
