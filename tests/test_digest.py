import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fermibundle.suspension import example_kitaev_chain, example_majorana

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_kind_of_entry_is_hashed_at_a_tiny_size(digest):
    entries = digest.digest(seeds=(), diii_sizes=(4,), chain_n=8)
    assert all(re.fullmatch("[0-9a-f]{64}", h) for h in entries.values())
    for name in ("dIII4/frames", "dIII4/report", "dIII4/chern_number",
                 "dIII4/kane_mele_z2/0", "dIII4/doubled/pfaffian_field/0",
                 "chain8-3/chiral_winding/0", "chain8-3/doubled/frames",
                 "chain8-0/sphere/chern_number", "pair-bdi/parity/0",
                 "pair-ai/circle/class_d_z2",
                 "pair-bdi/cli suspend --input --k-index 0 --output "
                 "--points 15",
                 "chain8-3/cli invariant --input --kind chiral_winding "
                 "--generator-index 0",
                 "dIII4/cli invariant --input --kind chern_number --csv",
                 "dIII4/cli validate --input --csv"):
        assert name in entries
    assert len(entries) > 400


@pytest.mark.parametrize("a, b", [(0.0, -0.0), (1.0, 1.0 + 2.0 ** -52),
                                  (1, 1.0), (1, "1"), (1, True),
                                  ([1, 2], [[1], 2]), ((1,), [1]),
                                  (np.zeros(2), np.zeros((2, 1))),
                                  (np.zeros(2), np.zeros(2, complex)),
                                  ({"a": 1}, {"b": 1})])
def test_the_hash_tells_apart_what_differs(digest, a, b):
    assert digest._sha(a) != digest._sha(b)
    assert digest._sha(a) == digest._sha(a)


def test_a_refusal_is_recorded_by_type_and_message(digest):
    b = example_majorana(N=8)
    assert digest._outcome(lambda: digest.fb.chern_number(b)) == [
        "refused", "InputError", "the Chern number lives on S^2"]


def test_cli_entries_do_not_depend_on_the_directory(digest, tmp_path):
    b = example_kitaev_chain(2, 1, N=8)
    runs = []
    for sub in ("one", "two"):
        (tmp_path / sub).mkdir()
        runs.append(digest._cli("chain", b, tmp_path / sub))
    assert runs[0] == runs[1]
    assert len(runs[0]) == len(digest._cli_runs(b))


def test_main_writes_the_entries(digest, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digest, "digest", lambda: {"x/frames": "0" * 64})
    out = tmp_path / "d.json"
    assert digest.main([str(out)]) == 0
    assert json.loads(out.read_text()) == {"x/frames": "0" * 64}
    assert "wrote 1 entries" in capsys.readouterr().out
