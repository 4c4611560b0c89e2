"""Run the benchmark on several seeds and report each end-to-end metric's spread.

From the root of a checkout::

    python3 e2ebench/spread.py --workloads sparse-solve fig7-sweep --seeds 1 2 3 4 5

For every workload and end-to-end metric this prints the median of the
runs' values and their spread: the distance between the first and the
third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.  Runs
are sequential and untraced; ``--json PATH`` also writes every run's
result lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="write every run's info and result lines here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            info, result = run_once(workload, seed, args.seconds)
            runs.append({"info": info, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"elapsed={info['elapsed_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            med, share = spread(values[name])
            flag = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            print(f"  {workload} {name}: median {med:.4g} spread {share:.3f} "
                  f"(bound {bound}) {flag}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
