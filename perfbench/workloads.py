"""The benchmark workloads: seeded inputs, one pipeline pass, and its oracle.

Each workload builds its inputs from the seed during set-up, then runs
passes on demand.  ``run_pass`` is the timed region; ``check`` compares
the pass's integers with the expected values outside the timed region;
``post_check`` runs the slower oracles once after the timed loop.

Library calls go through the package namespace (``fb.name``) so that the
span wrappers of a traced run, which replace those names, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import fermibundle as fb
import fermibundle.cli

SPHERE_N = 64           # circle columns of the suspended spheres
BANDS_N = 128           # circle points of the n-band chain
BANDS = 8               # band count of the n-band chain


def _haar_unitary(m, rng):
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _regauge(bundle, gauges):
    """The same planes with every frame multiplied by its right unitary."""
    fibers = tuple(fb.Plane(bundle.space, A.frame @ U)
                   for A, U in zip(bundle.fibers, gauges))
    return fb.Bundle(bundle.space, bundle.cset, bundle.grid, fibers,
                     bundle.label)


def _diii_circle(N):
    """The class-D equator circle that ``example_dIII`` suspends.

    Spin-doubled chain fibers span{c~_+(k), c~_-(k)} with the real
    time-reversal generator I = gamma T and the imaginary generator K.
    """
    sp = fb.make_nambu(2)
    ts = fb.true_symmetries(sp, spinful=True)
    I_gen = fb.Generator(sp.gamma_matrix @ ts.T_minus.matrix, "real")
    K_gen = fb.Generator(1j * np.fliplr(np.eye(4)), "imaginary")
    grid = fb.make_sphere_grid(1, N)
    fibers = []
    for k in grid.points[:, 0]:
        s, c = math.sin(k / 2), math.cos(k / 2)
        frame = np.array([[-s, -s], [s, -s], [c, c], [c, -c]],
                         dtype=complex) / math.sqrt(2)
        fibers.append(fb.Plane(sp, frame))
    return fb.Bundle(sp, fb.CliffordSet(sp, (I_gen, K_gen)), grid,
                     tuple(fibers), "D")


def seeded_circles(seed, gauge=True):
    """(n_plus, dIII circle, one-band chain circle) for a seed.

    With ``gauge`` every dIII frame gets a Haar-random U(2) right factor
    and every chain frame a random U(1) phase; without it the same n_plus
    comes with the plain frames, for the gauge-invariance oracle.
    """
    rng = np.random.default_rng(seed)
    n_plus = int(rng.integers(2))
    diii = _diii_circle(SPHERE_N)
    chain = fb.example_kitaev_chain(1, n_plus, N=SPHERE_N)
    if gauge:
        diii = _regauge(diii, [_haar_unitary(2, rng) for _ in diii.fibers])
        phases = np.exp(2j * np.pi * rng.random(len(chain.fibers)))
        chain = _regauge(chain, [np.array([[z]]) for z in phases])
    return n_plus, diii, chain


def _sphere_size(N):
    return N * fb.default_row_count(N) + 2


class SphereMem:
    """Both circles suspended, validated and reduced to integers in memory."""

    name = "sphere-mem"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.n_plus, self.diii, self.chain = seeded_circles(seed)
        self.points = 2 * _sphere_size(SPHERE_N)
        self.params = {"n_plus": self.n_plus, "N": SPHERE_N}

    @staticmethod
    def _pass(diii, chain):
        s1 = fb.suspend(fb.SuspensionInput(diii, k_index=1, i_index=0))
        ok1 = fb.validate_bundle(s1).ok
        km = fb.kane_mele_z2(s1, s1.cset.generators[0]).value
        c1 = fb.chern_number(s1).value
        s2 = fb.suspend(fb.SuspensionInput(chain, k_index=0))
        ok2 = fb.validate_bundle(s2).ok
        c2 = fb.chern_number(s2).value
        return ok1, km, c1, ok2, c2

    def run_pass(self):
        return self._pass(self.diii, self.chain)

    def check(self, result):
        ok1, km, c1, ok2, c2 = result
        problems = []
        if not (ok1 and ok2):
            problems.append(f"validate_bundle not ok ({ok1}, {ok2})")
        if (km, c1) != (1, 0):
            problems.append(f"dIII sphere gave (kane_mele, chern) "
                            f"({km}, {c1}), expected (1, 0)")
        if abs(c2) != self.n_plus:
            problems.append(f"chain sphere chern {c2}, expected "
                            f"|C| = {self.n_plus}")
        return problems

    def post_check(self, results):
        """Gauge-invariance oracle: the plain frames give the same integers."""
        _, diii, chain = seeded_circles(self.seed, gauge=False)
        plain = self._pass(diii, chain)
        return {i: [f"gauged pass gave {r}, plain frames give {plain}"]
                for i, r in enumerate(results) if r is not None and r != plain}

    def close(self):
        pass


class CliFiles:
    """The same circles run through in-process ``cli.main`` calls on files."""

    name = "cli-files"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.n_plus, self.diii, self.chain = seeded_circles(seed)
        self.points = 2 * (SPHERE_N + _sphere_size(SPHERE_N)) + SPHERE_N
        self.params = {"n_plus": self.n_plus, "N": SPHERE_N}
        f = {key: str(self.dir / f"{key}.json") for key in (
            "example", "diii_circle", "diii_sphere", "chain_circle",
            "chain_sphere", "chain_doubled")}
        self.files = f
        for key, bundle in (("diii_circle", self.diii),
                            ("chain_circle", self.chain)):
            with open(f[key], "w", encoding="utf-8") as fh:
                json.dump(fb.serialize_bundle(bundle), fh, indent=2)
                fh.write("\n")
        km_csv = str(self.dir / "kane_mele.csv")
        chern_csv = str(self.dir / "chern.csv")
        self.argvs = [
            ["example", "--name", "kitaev-chain", "--n", "1",
             "--n-plus", str(self.n_plus), "--N", str(SPHERE_N),
             "--output", f["example"]],
            ["validate", "--input", f["diii_circle"]],
            ["suspend", "--input", f["diii_circle"], "--k-index", "1",
             "--i-index", "0", "--output", f["diii_sphere"]],
            ["validate", "--input", f["diii_sphere"]],
            ["invariant", "--input", f["diii_sphere"], "--kind",
             "kane_mele_z2", "--generator-index", "0", "--csv", km_csv],
            ["validate", "--input", f["chain_circle"]],
            ["suspend", "--input", f["chain_circle"], "--k-index", "0",
             "--output", f["chain_sphere"]],
            ["validate", "--input", f["chain_sphere"]],
            ["invariant", "--input", f["chain_sphere"], "--kind",
             "chern_number", "--csv", chern_csv],
            ["doubling", "--input", f["chain_circle"], "--output",
             f["chain_doubled"]],
            ["validate", "--input", f["chain_doubled"]],
        ]
        self._first_digest = None

    @staticmethod
    def _main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = fermibundle.cli.main(argv)
            except SystemExit as exc:     # argparse rejects its input
                code = exc.code
        return code, out.getvalue()

    def run_pass(self):
        codes, values = [], []
        for argv in self.argvs:
            code, out = self._main(argv)
            codes.append(code)
            if argv[0] == "invariant" and code == 0:
                values.append(json.loads(out)["value"])
        return tuple(codes), tuple(values)

    def _digest(self):
        h = hashlib.sha256()
        for key in ("example", "diii_sphere", "chain_sphere",
                    "chain_doubled"):
            h.update(Path(self.files[key]).read_bytes())
        return h.hexdigest()

    def check(self, result):
        codes, values = result
        problems = []
        bad = [(argv[0], code) for argv, code in zip(self.argvs, codes)
               if code != 0]
        if bad:
            problems.append(f"nonzero exit codes {bad}")
            return problems
        km, chern = values
        if km != 1:
            problems.append(f"CLI kane_mele_z2 {km}, expected 1")
        if abs(chern) != self.n_plus:
            problems.append(f"CLI chern_number {chern}, expected "
                            f"|C| = {self.n_plus}")
        # post_check verifies the last pass's files; every pass must have
        # written the same bytes as the first.
        digest = self._digest()
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            problems.append("output files differ from the first pass")
        return problems

    def _load(self, key):
        with open(self.files[key], encoding="utf-8") as fh:
            return fb.deserialize_bundle(json.load(fh))

    def post_check(self, results):
        """CLI files against in-memory results of the same inputs.

        The written spheres, example and doubled circle must decode to
        frames bit-identical to the in-memory calls, and the CLI invariant
        values must equal the in-memory ones.
        """
        s1 = fb.suspend(fb.SuspensionInput(self.diii, k_index=1, i_index=0))
        s2 = fb.suspend(fb.SuspensionInput(self.chain, k_index=0))
        expect = {
            "diii_sphere": s1,
            "chain_sphere": s2,
            "example": fb.example_kitaev_chain(1, self.n_plus, N=SPHERE_N),
            "chain_doubled": fb.double_bundle(self.chain),
        }
        problems = []
        if self._digest() != self._first_digest:
            problems.append("output files changed between passes")
        for key, ref in expect.items():
            got = self._load(key)
            same = len(got.fibers) == len(ref.fibers) and all(
                np.array_equal(a.frame, b.frame)
                for a, b in zip(got.fibers, ref.fibers))
            if not same:
                problems.append(f"{key} file is not bit-identical to the "
                                "in-memory result")
        memory = (fb.kane_mele_z2(s1, s1.cset.generators[0]).value,
                  fb.chern_number(s2).value)
        failed = {}
        for i, r in enumerate(results):
            if r is None:
                continue
            msgs = list(problems)
            if r[1] != memory:
                msgs.append(f"CLI invariants {r[1]}, in memory {memory}")
            if msgs:
                failed[i] = msgs
        return failed

    def io_bytes(self):
        """(bytes read, bytes written) by the CLI calls of one pass."""
        read = written = 0
        for argv in self.argvs:
            opts = dict(zip(argv[1::2], argv[2::2]))
            if "--input" in opts:
                read += Path(opts["--input"]).stat().st_size
            for flag in ("--output", "--csv"):
                if flag in opts:
                    written += Path(opts[flag]).stat().st_size
        return read, written

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class BandsCircle:
    """The eight-band chain: circle invariants and band doubling."""

    name = "bands-circle"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.n_plus = int(np.random.default_rng(seed).integers(BANDS + 1))
        self.points = 2 * BANDS_N
        self.params = {"n_plus": self.n_plus, "n": BANDS, "N": BANDS_N}

    @staticmethod
    def _reduce(b):
        ok1 = fb.validate_bundle(b).ok
        w = fb.chiral_winding(b, b.cset.generators[0]).value
        z = fb.class_d_z2(b).value
        Q = fb.true_symmetries(b.space).Q
        ci = tuple(fb.component_index_ai(b.fibers[p], Q).value
                   for p in b.grid.trims)
        d = fb.double_bundle(b)
        ok2 = fb.validate_bundle(d).ok
        return ok1, w, z, ci, d.space.dim, ok2

    def run_pass(self):
        return self._reduce(fb.example_kitaev_chain(BANDS, self.n_plus,
                                                    N=BANDS_N))

    def check(self, result):
        expected = (True, -self.n_plus, self.n_plus % 2, (0, self.n_plus),
                    4 * BANDS, True)
        if result != expected:
            return [f"pass gave {result}, expected {expected}"]
        return []

    def post_check(self, results):
        """Gauge-invariance oracle: gauged frames give equal integers."""
        rng = np.random.default_rng([self.seed, 1])
        b = fb.example_kitaev_chain(BANDS, self.n_plus, N=BANDS_N)
        gauged = self._reduce(
            _regauge(b, [_haar_unitary(BANDS, rng) for _ in b.fibers]))
        return {i: [f"pass gave {r}, gauged frames give {gauged}"]
                for i, r in enumerate(results)
                if r is not None and r != gauged}

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (SphereMem, CliFiles, BandsCircle)}
