"""Time the in-memory pipeline stages of ``example_dIII(N)`` over N.

    python3 scripts/sweep.py

Each N in 32, 64, 128, 256 runs in a fresh Python process, so the grid
caches start cold, against the ``src/`` tree next to this script.  Every
stage runs 5 times; ``stages_ms`` records the best time and
``stages_median_ms`` the median, in milliseconds, since a best of a few
repetitions in one process can misread a cell on a shared host:

- ``grid (cold)``: ``make_sphere_grid(2, N, default_row_count(N))`` with
  its edge, plaquette and slot tables, after clearing the grid cache;
- ``example_dIII (suspend)``: the equator circle and its suspension, with
  a warm grid cache;
- ``validate_bundle`` of the sphere (m = 2) and ``validate_bundle
  (doubled)`` of its doubling (m = 4);
- ``kane_mele_z2``, ``chern_number``, ``kane_mele_z2 + chern_number`` and
  ``validate_bundle + kane_mele_z2 + chern_number``, the chain of
  perfbench's sphere-mem workload, in which the invariants read the edge
  determinants that validation leaves on the bundle;
- ``encode`` and ``decode``: the sphere's bundle file written by the
  CLI's writer ``cli._write_bundle`` and read back by ``cli._load_bundle``,
  in a temporary directory;
- ``double_bundle``;
- ``csv``: writing the sphere's ``kane_mele_z2`` and ``chern_number``
  tables, which ``cli._invariant_table`` builds (untimed) as ``fermibundle
  invariant --csv`` does, through ``cli._write_csv`` into the same
  temporary directory.

The six validation and invariant stages take a fresh copy of their bundle
per call, so none reuses a per-bundle table from an earlier repetition.
``stages_minflt`` records the median number of minor page faults
(``ru_minflt``) per call of each stage; unlike a time, it does not drift
with the speed of a shared host.

The result goes to ``bench/BENCH_<sha>.json`` at the repository root,
with the git commit, whether ``src/`` differs from it (null when git
cannot tell, and the commit "unknown"), ``src_lines`` (the
total line count of ``src/fermibundle/*.py``, as ``wc -l`` counts it),
and the Python, numpy and platform versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (32, 64, 128, 256)
REPEAT = 5


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _times_ms(fn, inputs):
    """Best and median wall time of ``fn`` over ``inputs``, one call each,
    in ms, and the median count of minor page faults per call."""
    times, faults = [], []
    for x in inputs:
        f = _minflt()
        t = time.perf_counter()
        fn(x)
        times.append(time.perf_counter() - t)
        faults.append(_minflt() - f)
    return (round(1e3 * min(times), 3),
            round(1e3 * statistics.median(times), 3),
            statistics.median(faults))


def _stages(N: int) -> dict:
    """Stage timings for one N; run in a fresh process."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import fermibundle as fb
    from fermibundle import cli

    M = fb.default_row_count(N)
    out = {"points": N * M + 2}
    t = {}

    def cold_grid(_):
        fb.make_sphere_grid.cache_clear()
        fb.make_sphere_grid(2, N, M)

    t["grid (cold)"] = _times_ms(cold_grid, range(REPEAT))
    t["example_dIII (suspend)"] = _times_ms(fb.example_dIII, [N] * REPEAT)
    s = fb.example_dIII(N)
    gen = s.cset.generators[0]

    def fresh(b=s):
        return [fb.Bundle(b.space, b.cset, b.grid, b.frames, b.label)
                for _ in range(REPEAT)]

    t["validate_bundle"] = _times_ms(fb.validate_bundle, fresh())
    t["validate_bundle (doubled)"] = _times_ms(
        fb.validate_bundle, fresh(fb.double_bundle(s)))
    t["kane_mele_z2"] = _times_ms(lambda b: fb.kane_mele_z2(b, gen), fresh())
    t["chern_number"] = _times_ms(fb.chern_number, fresh())
    t["kane_mele_z2 + chern_number"] = _times_ms(
        lambda b: (fb.kane_mele_z2(b, gen), fb.chern_number(b)), fresh())
    t["validate_bundle + kane_mele_z2 + chern_number"] = _times_ms(
        lambda b: (fb.validate_bundle(b), fb.kane_mele_z2(b, gen),
                   fb.chern_number(b)), fresh())
    tables = [("kane_mele.csv", *cli._invariant_table(
                  "kane_mele_z2", s, fb.kane_mele_z2(s, gen), gen)),
              ("chern.csv", *cli._invariant_table(
                  "chern_number", s, fb.chern_number(s), None))]
    with tempfile.TemporaryDirectory() as tmp:
        sphere = os.path.join(tmp, "sphere.json")
        t["encode"] = _times_ms(lambda b: cli._write_bundle(sphere, b),
                                [s] * REPEAT)
        t["decode"] = _times_ms(cli._load_bundle, [sphere] * REPEAT)
        t["double_bundle"] = _times_ms(fb.double_bundle, [s] * REPEAT)

        def write_tables(_):
            for name, header, columns in tables:
                cli._write_csv(os.path.join(tmp, name), header, columns)

        t["csv"] = _times_ms(write_tables, range(REPEAT))
    out["stages_ms"] = {stage: best for stage, (best, _, _) in t.items()}
    out["stages_median_ms"] = {stage: med for stage, (_, med, _) in t.items()}
    out["stages_minflt"] = {stage: f for stage, (_, _, f) in t.items()}
    out["numpy"] = np.__version__
    return out


def _git(*args: str) -> str | None:
    """Output of a git command in the repository, or None if it fails."""
    try:
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                           text=True, check=False)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _src_lines() -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in (ROOT / "src" / "fermibundle").glob("*.py"))


def _record(sizes: dict) -> dict:
    """The sweep result around the per-N records ``sizes``."""
    sha = _git("rev-parse", "HEAD") or "unknown"
    status = _git("status", "--porcelain", "--", "src")
    numpy_version = {r.pop("numpy") for r in sizes.values()}.pop()
    return {
        "sha": sha,
        "src_modified": None if status is None else bool(status),
        "src_lines": _src_lines(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "workload": "example_dIII(N), in process, best and median of "
                    f"{REPEAT}, one fresh process per N",
        "sizes": sizes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(_stages(args.child)))
        return 0
    sizes = {}
    for N in SIZES:
        r = subprocess.run([sys.executable, __file__, "--child", str(N)],
                           capture_output=True, text=True, check=True)
        sizes[str(N)] = json.loads(r.stdout)
        print(N, sizes[str(N)]["stages_ms"], flush=True)
    result = _record(sizes)
    path = ROOT / "bench" / f"BENCH_{result['sha'][:12]}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
