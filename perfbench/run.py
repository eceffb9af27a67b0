"""Closed-loop benchmark of the fermibundle pipeline.

One caller runs one pipeline pass after another for ``--seconds`` seconds
on the workload built from ``--seed``, after one untimed warm-up pass, and
checks every pass's integers.  Run from the repository root:

    python3 perfbench/run.py --workload sphere-mem --seed 1 \
        --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` half the time runs untraced, half with span wrappers
installed, and the metrics are the per-layer ones.  A readable summary
precedes that line, and the full record (seed, environment, raw samples,
failures) goes to ``.perfbench_out/``.

Pass and set-up times are scaled to a reference machine speed.  A fixed
calibration unit of small-matrix numpy work runs twice before the first
pass and after every pass; each pass's wall time is multiplied by
``CALIBRATION_REF_S`` over the median of the units around it, and
the set-up time by ``CALIBRATION_REF_S`` over two units run right after
set-up.  On a shared machine whose speed drifts by tens of percent over
seconds, this cancels most of the drift that raw wall time would carry
into the percentiles.  Raw wall times stay in the record and the summary
line.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
SETUP_PROBES = 4            # fresh processes timing set-up besides this one
TRACE_SPAN_CAP = 300_000    # traced passes stop once this many spans exist
CALIBRATION_ITERATIONS = 3000
CALIBRATION_REF_S = 0.020   # one calibration unit on the reference machine
CALIBRATION_GAP_UNITS = 2   # calibration units between consecutive passes


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sphere-mem", "cli-files", "bands-circle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _git_sha():
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _calibration_unit(np):
    """Seconds taken by a fixed amount of small-matrix numpy dispatch."""
    a = np.full((4, 2), 0.5 + 0.5j)
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        b = a @ a.conj().T
        float(np.abs(b - i).max())
    return time.perf_counter() - t0


class Samples:
    """Pass wall times, the calibration units around them, and outcomes."""

    def __init__(self):
        self.times, self.calib, self.results, self.problems = [], [], [], {}

    def scaled(self):
        """Pass times at the reference machine speed.

        Each pass is scaled by the median of the calibration units right
        before and right after it, so that one unit caught in a brief
        change of machine speed does not set a pass's scale.
        """
        g = CALIBRATION_GAP_UNITS
        return [t * CALIBRATION_REF_S
                / statistics.median(self.calib[g * i:g * (i + 2)])
                for i, t in enumerate(self.times)]

    def extend(self, other):
        base = len(self.times)
        self.times += other.times
        self.results += other.results
        self.problems.update({base + i: m for i, m in other.problems.items()})


def _measure(np, workload, seconds, runner=None, more=lambda: True):
    """Run passes for ``seconds`` or until ``more()`` is false.

    ``runner(index, fn)``, when given, runs pass ``index``.  Exceptions
    and failed checks are recorded; a failed pass stays in the samples.
    """
    s = Samples()
    s.calib += [_calibration_unit(np) for _ in range(CALIBRATION_GAP_UNITS)]
    deadline = time.perf_counter() + seconds
    while True:
        index = len(s.times)
        t0 = time.perf_counter()
        try:
            result = (workload.run_pass() if runner is None
                      else runner(index, workload.run_pass))
            msgs = None
        except Exception:       # the pass boundary must keep running
            result, msgs = None, [traceback.format_exc()]
        s.times.append(time.perf_counter() - t0)
        s.calib += [_calibration_unit(np)
                    for _ in range(CALIBRATION_GAP_UNITS)]
        s.results.append(result)
        if msgs is None:
            msgs = workload.check(result)
        if msgs:
            s.problems[index] = msgs
        if time.perf_counter() >= deadline or not more():
            return s


def _setup_samples(args):
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _layer_metrics(tracer, workload, passes, overhead):
    from tracing import JSON_DECODE, JSON_ENCODE, LINALG, span_names

    calls, selfs = tracer.per_pass(passes)
    if any(c != calls[0] for c in calls[1:]):
        print("warning: call counts differ between traced passes",
              file=sys.stderr)
    calls = calls[0]

    def self_s(names):
        return statistics.median(sum(s.get(n, 0.0) for n in names)
                                 for s in selfs)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in span_names():
        if name.startswith("json."):
            continue
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.self_s", self_s([name]), "s")
    linalg = [f"linalg.{fn}" for fn in LINALG]
    linalg_calls = sum(calls.get(n, 0) for n in linalg)
    put("linalg.calls", linalg_calls, "count")
    put("linalg.self_s", self_s(linalg), "s")
    put("linalg.calls_per_point", linalg_calls / workload.points,
        "count/point")
    put("planes.Plane.per_point",
        calls.get("planes.Plane", 0) / workload.points, "count/point")
    put("cli.json_encode_s", self_s(JSON_ENCODE), "s")
    put("cli.json_decode_s", self_s(JSON_DECODE), "s")
    read, written = (workload.io_bytes() if hasattr(workload, "io_bytes")
                     else (0, 0))
    put("cli.bytes_read", read, "bytes")
    put("cli.bytes_written", written, "bytes")
    put("trace.overhead_frac", overhead, "frac")
    return metrics


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "fermibundle" / "__init__.py").is_file():
        print(f"error: no fermibundle sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("FERMIBUNDLE_TOL", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        args.seed, WORK / f"{args.workload}-{os.getpid()}")
    try:
        setup_s = time.perf_counter() - _T0
        setup_s *= CALIBRATION_REF_S / statistics.mean(
            _calibration_unit(np) for _ in range(2))
        if args.probe_setup:
            print(setup_s)
            return 0
        setup = sorted([setup_s] + _setup_samples(args))

        try:
            workload.run_pass()                     # warm-up, untimed
        except Exception:       # the timed passes will fail and count it
            traceback.print_exc()
        if args.trace:
            import tracing
            plain = _measure(np, workload, args.seconds / 2)
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                traced = _measure(
                    np, workload, args.seconds / 2, tracer.run_pass,
                    lambda: len(tracer.name_id) < TRACE_SPAN_CAP)
            finally:
                uninstall()
            overhead = (statistics.median(traced.scaled())
                        / statistics.median(plain.scaled()) - 1.0)
            metrics = _layer_metrics(tracer, workload, len(traced.times),
                                     overhead)
            everything = Samples()
            everything.extend(plain)
            everything.extend(traced)
        else:
            plain = everything = _measure(np, workload, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            p50 = statistics.median(plain.scaled())
            metrics = {
                "pass_s.p50": {"value": p50, "unit": "s"},
                "points_per_s": {"value": workload.points / p50,
                                 "unit": "1/s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
        problems = everything.problems
        try:
            post = workload.post_check(everything.results)
        except Exception:       # a broken oracle fails every pass
            post = {i: [traceback.format_exc()]
                    for i in range(len(everything.times))}
        for i, msgs in post.items():
            problems.setdefault(i, []).extend(msgs)

        attempted = len(everything.times)
        failed = len(problems)
        env = _environment(np)
        raw, scaled = plain.times, plain.scaled()
        record = {
            "workload": args.workload, "seed": args.seed,
            "params": workload.params, "seconds": args.seconds,
            "trace": args.trace, "points_per_pass": workload.points,
            "environment": env, "setup_samples_s": setup,
            "untraced_pass_wall_s": raw,
            "untraced_calibration_s": plain.calib,
            "untraced_pass_s": {"p50": statistics.median(scaled),
                                "p90": _quantile(scaled, 90),
                                "samples": len(scaled)},
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "failures": {str(i): m for i, m in sorted(problems.items())},
            "metrics": metrics,
        }
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(
            json.dumps(record, indent=1))
        if args.trace:
            tracer.write(OUT / f"spans-{args.workload}.npz")
        for i, msgs in sorted(problems.items())[:3]:
            print(f"pass {i} failed: {msgs[0]}", file=sys.stderr)
        print(f"# {args.workload} seed={args.seed} {workload.params} "
              f"passes={attempted} failed={failed} "
              f"failed_frac={failed / attempted:.3g} untraced "
              f"pass_s.p50={statistics.median(scaled):.4f}s "
              f"pass_s.p90={_quantile(scaled, 90):.4f}s (n={len(scaled)}; "
              f"wall p50={statistics.median(raw):.4f}s "
              f"p90={_quantile(raw, 90):.4f}s) calibration unit "
              f"p50={statistics.median(plain.calib) * 1e3:.2f}ms "
              f"setup={['%.3f' % s for s in setup]} "
              f"python={env['python']} numpy={env['numpy']} "
              f"blas='{env['blas']}' threads={env['blas_threads']} "
              f"nproc={env['nproc']} sha={env['git_sha']}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
