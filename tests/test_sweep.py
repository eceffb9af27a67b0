import importlib.util
import subprocess
from pathlib import Path

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
              "kane_mele_z2 + chern_number",
              "validate_bundle + kane_mele_z2 + chern_number", "encode",
              "decode", "double_bundle", "csv"}
    assert set(out["stages_ms"]) == set(out["stages_median_ms"]) == stages
    assert set(out["stages_minflt"]) == stages
    for stage in stages:
        assert 0 < out["stages_ms"][stage] <= out["stages_median_ms"][stage]
        assert out["stages_minflt"][stage] >= 0


def test_encode_and_decode_time_the_cli_file_path(sweep, monkeypatch):
    from fermibundle import cli

    calls = []
    for name in ("_write_bundle", "_load_bundle"):
        def record(*args, _fn=getattr(cli, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(cli, name, record)
    sweep._stages(8)
    assert calls == (["_write_bundle"] * sweep.REPEAT
                     + ["_load_bundle"] * sweep.REPEAT)
