"""End-to-end benchmark of the spectrum-matching reproduction.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload sparse-solve --seed 1 --seconds 40 --trace 0

Samples run in a closed loop: each is a fresh ``python3
e2ebench/sample.py`` process, and the next starts only after the
previous one exits.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates an untraced sample with a
traced one on the same inputs and reports the per-layer metrics, the
tracing overhead and the time no layer span covers.  The last line of
standard output is the result object; the line before it (``{"info":
...}``) records the machine, the versions and the digests of every
result, so runs of one seed can be compared for determinism.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".e2ebench_out"
WORKLOADS = ("sparse-solve", "fig7-sweep", "protocol-chaos")
#: A run, including its last sample, must end well inside 180 s.
HARD_LIMIT_S = 170.0


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    raise SystemExit(2)


def declared_metrics():
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def run_sample(workload, seed, index, trace, deadline, setup_only=False):
    """Run one sample process; return (its JSON result or None, error)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Samples import from cached bytecode, as an installed program would;
    # the cache lives in the checkout's output directory.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    command = [
        sys.executable,
        str(HERE / "sample.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--index", str(index),
        "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timed out"
    if proc.returncode != 0:
        return None, f"exited with code {proc.returncode}"
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "printed no result"
    result["setup_s"] = result["ready"] - spawned
    return result, None


def median(values):
    return statistics.median(values) if values else 0.0


def interdecile_mean(values):
    """Mean of the values left after dropping the lowest and highest tenth.

    Operation times mix inputs of very different cost (a market's warm
    solve can take 2-4 times another's), so their median jumps between
    clusters from run to run; this mean moves smoothly with the mix and
    still ignores a stray stall.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def ops_of(results, kind):
    return [op["s"] for r in results for op in r["ops"] if op["kind"] == kind]


def end_to_end(untraced, probes):
    return {
        "setup_s": median([r["setup_s"] for r in untraced + probes]),
        "cold_s": interdecile_mean(ops_of(untraced, "cold")),
        "warm_s": interdecile_mean(ops_of(untraced, "warm")),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
    }


def per_layer(untraced, traced, names):
    """Per-layer metrics: medians over the traced inputs, counts of the first input."""
    inputs = [inp for r in traced for inp in r["inputs"]]
    values = {}
    for name in names:
        if inputs and name in inputs[0]["counts"]:
            values[name] = inputs[0]["counts"][name]
        else:
            values[name] = median(
                [inp["layers"][name] for inp in inputs if name in inp["layers"]]
            )
    # Same statistic as the end-to-end cold_s, so the two differences compare like with like.
    untraced_cold = interdecile_mean(ops_of(untraced, "cold"))
    traced_cold = interdecile_mean([inp["layers"]["op.cold_s"] for inp in inputs])
    spans = interdecile_mean([inp["layers"]["op.cold_spans_s"] for inp in inputs])
    values["trace.overhead_s"] = traced_cold - untraced_cold
    values["run.unattributed_s"] = untraced_cold - spans
    return values


def determinism(untraced, traced):
    """Reasons the traced samples' results differ from the untraced ones on the same inputs."""
    reasons = []
    by_index = {r["index"]: r for r in untraced}
    for t in traced:
        u = by_index.get(t["index"])
        if u is None:
            continue
        for k, (ui, ti) in enumerate(zip(u["inputs"], t["inputs"])):
            if ui["digest"] != ti["digest"]:
                reasons.append(f"sample {t['index']} input {k}: traced result differs")
            for name, value in ui["counts"].items():
                if ti["counts"].get(name, value) != value:
                    reasons.append(
                        f"sample {t['index']} input {k}: {name} {ti['counts'][name]} != {value}"
                    )
    return reasons


def environment():
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "system": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    declared = declared_metrics()
    OUT_DIR.mkdir(exist_ok=True)

    deadline = started + HARD_LIMIT_S
    untraced, traced, probes, errors = [], [], [], []
    attempted = failed = 0
    index = 0
    last = 0.0
    # Closed loop: start the next sample only while at least half of it is
    # predicted to fall inside the measuring window.
    while index == 0 or time.monotonic() - started + last / 2 < args.seconds:
        begun = time.monotonic()
        if not args.trace:
            probe, error = run_sample(
                args.workload, args.seed, index, 0, deadline, setup_only=True
            )
            if probe is None:
                errors.append(f"set-up probe {index}: {error}")
            else:
                probes.append(probe)
        for trace in ((0, 1) if args.trace else (0,)):
            result, error = run_sample(args.workload, args.seed, index, trace, deadline)
            if result is None:
                errors.append(f"sample {index} (trace {trace}): {error}")
                failed += 1
                attempted += 1
                continue
            result["index"] = index
            (traced if trace else untraced).append(result)
            for op in result["ops"]:
                attempted += op["attempted"]
                failed += op["failed"]
                errors.extend(f"sample {index} {op['kind']}: {r}" for r in op["reasons"])
        last = time.monotonic() - begun
        index += 1
        if time.monotonic() > deadline - 2 * last:
            break

    selftests = [t for r in untraced + traced for t in r["selftests"]]
    checked = sum(len(t) for t in selftests)
    unflagged = sum(1 for t in selftests for flagged in t.values() if not flagged)
    if unflagged:
        errors.append(f"{unflagged} corrupted result(s) passed the checks")
    mismatches = determinism(untraced, traced)
    errors.extend(mismatches)
    failed += len(mismatches)
    attempted += len(mismatches)

    if args.trace:
        names = declared["per_layer"]
        values = per_layer(untraced, traced, names) if untraced and traced else {}
    else:
        names = declared["end_to_end"]
        values = end_to_end(untraced, probes) if untraced else {}
    missing = sorted(set(names) - set(values))
    if missing:
        errors.append(f"no value for {', '.join(missing)}")
    print(
        json.dumps(
            {
                "info": {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "elapsed_s": time.monotonic() - started,
                    "samples": len(untraced) + len(traced),
                    "setup_s": [round(r["setup_s"], 4) for r in untraced + probes],
                    "cold_s": [round(v, 4) for v in ops_of(untraced, "cold")],
                    "warm_s": [round(v, 4) for v in ops_of(untraced, "warm")],
                    "selftests_flagged": f"{checked - unflagged}/{checked}",
                    "digests": [
                        [inp["digest"] for inp in r["inputs"]] for r in untraced
                    ],
                    "errors": errors[:20],
                    **environment(),
                }
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not errors and failed == 0,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": {
                    name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in names.items()
                },
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
