"""Hash every value of the comparison set, one sha256 per entry.

    python3 scripts/digest.py OUT.json

The library is imported from the ``src/`` tree next to this script.  To
compare two commits, copy this script into a checkout of the other one
(``git worktree add ../base REV``, which needs no network), run it in both
trees and diff the two files: an entry whose hash differs names a value
that changed.

The comparison set is built from the seeded circles of
``perfbench/workloads.py`` (seeds 1-5, gauged and plain, with their
suspensions and doublings), ``example_dIII(16)`` and ``example_dIII(64)``
with their doublings, ``example_kitaev_chain(8, n_plus, N=128)`` for
n_plus = 0, 3, 8 with their suspensions and doublings, and two point
pairs with their suspensions.  For each bundle it hashes

- ``frames``: the frame bytes, generators, label and grid sizes;
- ``report``: every field of ``validate_bundle``;
- one entry per invariant call, every kind on every bundle (per generator,
  and per self-antipodal point where the kind takes one): the kind, value
  and diagnostics of the result, or the type and message of the refusal;
- one entry per in-process ``cli.main`` run on the bundle's JSON file
  (``validate``, ``doubling``, ``suspend`` and ``invariant`` with their
  options), except on bundles of more than 4 MiB of frames: the exit
  code, stdout, stderr and the bytes of every output file, the temporary
  directory's path replaced by ``<dir>``.

Floats are hashed by their bits, so an entry moves with any change in
rounding.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fermibundle as fb    # noqa: E402
from fermibundle import cli  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
DIII_SIZES = (16, 64)
CHAIN_N = 128
# the CLI runs skip the 8-band spheres, whose files and doublings run to
# tens of MB; the library entries cover them
_CLI_BYTES = 4 << 20


def _feed(h, x) -> None:
    """Feed ``x`` into the hash ``h``, every bit of its numbers included."""
    if isinstance(x, np.ndarray):
        h.update(f"array {x.dtype} {x.shape}:".encode())
        h.update(np.ascontiguousarray(x).data)
    elif isinstance(x, (float, np.floating, complex, np.complexfloating)):
        z = complex(x)
        h.update(f"complex {z.real.hex()} {z.imag.hex()};".encode())
    elif isinstance(x, (bool, int, str, type(None), np.integer)):
        h.update(f"{type(x).__name__} {x!r};".encode())
    elif isinstance(x, (dict, tuple, list)):
        items = sorted(x.items()) if isinstance(x, dict) else enumerate(x)
        h.update(f"{type(x).__name__} {len(x)}:".encode())
        for k, v in items:
            _feed(h, k)
            _feed(h, v)
    else:
        raise TypeError(f"cannot hash a {type(x).__name__}")


def _sha(x) -> str:
    h = hashlib.sha256()
    _feed(h, x)
    return h.hexdigest()


def _outcome(call):
    """The result of ``call()``, or the type and message of its refusal."""
    try:
        r = call()
    except fb.FermibundleError as exc:
        return ["refused", type(exc).__name__, str(exc)]
    if isinstance(r, fb.InvariantResult):
        return [r.kind, r.value, r.diagnostics]
    if isinstance(r, fb.BundleReport):
        return {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
    return r


def _bundles(seeds=SEEDS, diii_sizes=DIII_SIZES, chain_n=CHAIN_N):
    """Yield (name, bundle) of the comparison set."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in seeds:
        for gauge in (True, False):
            _, diii, chain = workloads.seeded_circles(seed, gauge)
            tag = f"seed{seed}{'' if gauge else '-plain'}"
            for name, b, k, i in ((f"{tag}/diii", diii, 1, 0),
                                  (f"{tag}/chain", chain, 0, None)):
                s = fb.suspend(fb.SuspensionInput(b, k, i))
                yield name, b
                yield f"{name}/doubled", fb.double_bundle(b)
                yield f"{name}/sphere", s
                yield f"{name}/sphere/doubled", fb.double_bundle(s)
    for N in diii_sizes:
        s = fb.example_dIII(N)
        yield f"dIII{N}", s
        yield f"dIII{N}/doubled", fb.double_bundle(s)
    for n_plus in (0, 3, 8):
        b = fb.example_kitaev_chain(8, n_plus, N=chain_n)
        yield f"chain8-{n_plus}", b
        yield f"chain8-{n_plus}/doubled", fb.double_bundle(b)
        yield f"chain8-{n_plus}/sphere", fb.suspend(fb.SuspensionInput(b, 0))
    for name, n, cols, label, k in (("pair-bdi", 1, [1], "BDI", 0),
                                    ("pair-ai", 2, [0, 3], "AI", 1)):
        sp = fb.make_nambu(n)
        b = fb.Bundle(sp, fb.imaginary_realization(sp, label),
                      fb.make_sphere_grid(0),
                      (fb.Plane(sp, np.eye(2 * n)[:, cols]),
                       fb.vacuum_plane(sp)), label)
        yield name, b
        yield f"{name}/circle", fb.suspend(fb.SuspensionInput(b, k), 8)


def _library(name, b):
    """Entries of the library's values on bundle ``b``."""
    gens = b.cset.generators
    Q = fb.true_symmetries(b.space).Q
    calls = {"report": lambda: fb.validate_bundle(b),
             "chern_number": lambda: fb.chern_number(b),
             "class_d_z2": lambda: fb.class_d_z2(b)}
    for g, J in enumerate(gens):
        calls[f"kane_mele_z2/{g}"] = lambda J=J: fb.kane_mele_z2(b, J)
        calls[f"chiral_winding/{g}"] = lambda J=J: fb.chiral_winding(b, J)
        calls[f"pfaffian_field/{g}"] = lambda J=J: fb.pfaffian_field(b, J)
    for p in b.grid.trims:
        calls[f"parity/{p}"] = lambda p=p: fb.fermion_parity(
            b.space, b.fibers[p])
        calls[f"component_index/{p}"] = lambda p=p: fb.component_index_ai(
            b.fibers[p], Q)
    entries = {f"{name}/frames": _sha(
        [b.frames, [(g.matrix, g.parity) for g in gens], b.label,
         [b.grid.d, b.grid.N, b.grid.M]])}
    for key, call in calls.items():
        entries[f"{name}/{key}"] = _sha(_outcome(call))
    return entries


def _cli_runs(b):
    """The argument lists of the CLI runs on a bundle file ``IN``; ``OUT``
    stands for an output path.  A circle is suspended with 3 rows (and
    refused 4), as the default rows make files of tens of MB from the
    doubled 8-band chain."""
    d, n_gens = b.grid.d, len(b.cset)
    runs = [["validate", "--input", "IN", "--csv", "OUT"],
            ["validate", "--input", "IN", "--tol", "1e-8"],
            ["doubling", "--input", "IN", "--output", "OUT"]]
    sizes = ([], ["--points", "8"], ["--points", "15"]) if d == 0 else (
        ["--rows", "3"], ["--rows", "4"]) if d == 1 else ()
    for k in range(n_gens):
        for i in range(-1, n_gens):
            if i == k:
                continue
            keep = [] if i < 0 else ["--i-index", str(i)]
            runs += [["suspend", "--input", "IN", "--k-index", str(k), *keep,
                      "--output", "OUT", *more] for more in sizes]
    for kind in ("chern_number", "kane_mele_z2", "class_d_z2",
                 "chiral_winding", "parity", "component_index"):
        args = ["invariant", "--input", "IN", "--kind", kind]
        if kind in ("chern_number", "kane_mele_z2"):
            args += ["--csv", "OUT"]
        if kind in ("kane_mele_z2", "chiral_winding"):
            runs += [[*args, "--generator-index", str(g)]
                     for g in range(n_gens + 1)]
        elif kind in ("parity", "component_index"):
            runs += [[*args, "--point-index", str(p)]
                     for p in (*b.grid.trims, b.grid.size)]
        else:
            runs.append(args)
    return runs


def _cli(name, b, tmp: Path):
    """Entries of the in-process CLI runs on bundle ``b``'s JSON file."""
    src = tmp / "in.json"
    src.write_text(json.dumps(fb.serialize_bundle(b)) + "\n")
    entries = {}
    for argv in _cli_runs(b):
        out = tmp / "out"
        argv = [str(src) if a == "IN" else str(out) if a == "OUT" else a
                for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        written = (hashlib.sha256(out.read_bytes()).hexdigest()
                   if out.exists() else None)
        out.unlink(missing_ok=True)
        texts = [s.getvalue().replace(str(tmp), "<dir>")
                 for s in (stdout, stderr)]
        key = " ".join(a for a in argv[1:] if not a.startswith(str(tmp)))
        entries[f"{name}/cli {argv[0]} {key}"] = _sha([code, *texts, written])
    return entries


def digest(**sizes) -> dict:
    """Every entry of the comparison set, name to sha256; ``sizes`` are
    the keywords of :func:`_bundles`."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, b in _bundles(**sizes):
            entries.update(_library(name, b))
            if b.frames.nbytes <= _CLI_BYTES:
                entries.update(_cli(name, b, Path(tmp)))
    return entries


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("output", help="JSON file to write")
    path = Path(ap.parse_args(argv).output)
    entries = digest()
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
