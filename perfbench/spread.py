"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sphere-mem --seeds 1 2 3 \
        [--out f.json]

Runs the benchmark untraced once per seed for ``run_seconds`` and prints,
for each end-to-end metric, the median, the quartiles and the quartile
distance as a share of the median beside the metric's bound.  ``--out``
saves every run's result line with the summary.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from smoke import ROOT, run_benchmark


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        result = run_benchmark(args.workload, seed, spec["run_seconds"], 0)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + "  ".join(
            f"{n}={m['value']:.4g}" for n, m in runs[-1]["metrics"].items()),
            flush=True)
    summary = {}
    for m in spec["end_to_end"]:
        s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
        summary[m["name"]] = {**s, "unit": m["unit"], "bound": m["bound"]}
        print(f"{m['name']:14s} median={s['median']:.4g}{m['unit']} "
              f"q1={s['q1']:.4g} q3={s['q3']:.4g} spread={s['spread']:.3f} "
              f"bound={m['bound']}")
    failed = sum(r["failed"] for r in runs)
    print(f"failed passes: {failed} of {sum(r['attempted'] for r in runs)}")
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary},
            indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
