"""Smoke check of the benchmark: every metric emitted and no pass failed.

    python3 perfbench/smoke.py [--seconds 2] [--seed 1]

Runs every workload of ``BENCHMARK.json`` once untraced and twice traced
with the same seed, and prints per workload the end-to-end metrics and
the untraced run's summary line (pass_s p50 and p90 with the sample
count, failed fraction, environment).  It fails unless each run emits exactly
the metrics ``BENCHMARK.json`` names, no pass failed, and the two traced
runs agree exactly on every count.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "count/point", "bytes")


def run_benchmark(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    *_, summary, result = out.stdout.strip().splitlines()
    return {"summary": summary, **json.loads(result)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    errors = []
    for w in (w["name"] for w in spec["workloads"]):
        plain = run_benchmark(w, args.seed, args.seconds, 0)
        traced = [run_benchmark(w, args.seed, args.seconds, 1)
                  for _ in range(2)]
        for result, names in [(plain, end_to_end)] + [
                (t, per_layer) for t in traced]:
            if set(result["metrics"]) != names:
                errors.append(f"{w}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(result['metrics']) ^ names)}")
            if result["failed"] or not result["correct"]:
                errors.append(f"{w}: {result['failed']} of "
                              f"{result['attempted']} passes failed")
        a, b = (t["metrics"] for t in traced)
        diff = [n for n, m in a.items() if m["unit"] in EXACT_UNITS
                and m["value"] != b.get(n, {}).get("value")]
        if diff:
            errors.append(f"{w}: traced counts differ between runs: {diff}")
        shown = "  ".join(f"{n}={m['value']:.4g} {m['unit']}"
                          for n, m in plain["metrics"].items())
        print(f"{w:13s} {shown}\n    {plain['summary']}")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
