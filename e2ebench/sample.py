"""One benchmark sample: a fresh process that imports ``repro`` and runs a workload.

``run.py`` starts this script once per sample, one after another, and
reads the single JSON line it prints.  Usage::

    python3 e2ebench/sample.py --workload sparse-solve --seed 7 --index 0 \
        --trace 0 --out-dir .e2ebench_out

Each sample handles ``inputs`` inputs of its workload, derived from
``(seed, index)``.  Every input is run once *cold* -- the first
execution on a freshly accepted input, graph construction included --
and then ``warm`` more times on the same input object in the same
process.  With ``--trace 1`` the sample instead calls each layer's
public functions itself, in the order the program would, and records a
span around each call (name, start, end, parent) in memory; the spans
are written to ``--out-dir`` when the sample ends.

Inputs are chosen so that every operation succeeds; each result is
checked (``checks.py``) and the sample reports failed operations rather
than timing a wrong answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402  (benchmark-local module; imports no repro code)

# Sizes.  Every input is a fresh random market, and the work a market
# takes varies with its random channel ranges (the edge count moves by
# about +-15% between seeds), so a run has to see many markets for its
# figures to be steady.  The sizes below keep one operation under about
# a second on a 2-CPU machine while keeping each workload's profile: the
# constant-density sparse market still makes Stage II's first call the
# largest solver phase of a cold solve.
SPARSE_BUYERS, SPARSE_SELLERS, SPARSE_DENSITY = 3000, 20, 5.0
CHAOS_BUYERS, CHAOS_SELLERS = 100, 10
CHAOS_LOSS, CHAOS_CRASH, CHAOS_FLUSH_EVERY = 0.05, "buyer:3@50-400", 256
SWEEP_JOBS = 2

#: workload -> (inputs per sample, warm repeats per input).  A Fig. 7
#: sample has one input because only a process's first sweep pays the
#: worker-pool start-up that its cold time includes.
PLAN = {
    "sparse-solve": (5, 1),
    "fig7-sweep": (1, 2),
    "protocol-chaos": (4, 1),
}
#: Repetitions per x value of the Fig. 7(a) sweep (the figure's own
#: default is 10): four keep one sweep near a second, so a run holds
#: several fresh processes and hence several cold sweeps.
SWEEP_REPETITIONS = 4


def input_seed(seed, index, k):
    """The market seed of input ``k`` of sample ``index`` in a run seeded ``seed``."""
    digest = hashlib.sha256(f"{seed}:{index}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def rss_mb():
    """Current resident set size of this process, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def peak_rss_mb():
    """Peak RSS of this process and of its reaped children (the sweep's workers)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tracer:
    """Spans recorded around the benchmark's calls into each layer."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name, since=0):
        """Total duration of the spans called ``name`` recorded from index ``since``."""
        return sum(
            s["end"] - s["start"] for s in self.spans[since:] if s["name"] == name
        )

    def children_seconds(self, parent_id):
        """Total duration of the direct children of span ``parent_id``."""
        return sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == parent_id
        )


class Sample:
    """What one sample process measured, printed as one JSON line."""

    def __init__(self):
        self.ops = []  # {"kind", "s", "attempted", "failed", "reasons"}
        self.inputs = []  # per input: {"digest", "counts", "layers"}
        self.selftests = []

    def op(self, kind, seconds, reasons, attempted=1, failed=None):
        if failed is None:
            failed = attempted if reasons else 0
        self.ops.append(
            {
                "kind": kind,
                "s": seconds,
                "attempted": attempted,
                "failed": failed,
                "reasons": reasons,
            }
        )


def stage_counts(stage_one, stage_two):
    return {
        "core.stage1_rounds": stage_one.num_rounds,
        "core.stage1_proposals": stage_one.total_proposals,
        "core.stage2_transfer_rounds": stage_two.num_transfer_rounds,
        "core.stage2_invitation_rounds": stage_two.num_invitation_rounds,
    }


def prof_counts():
    from repro.prof.counters import snapshot_cost_counters

    return {f"prof.{name}": value for name, value in snapshot_cost_counters().items()}


# ----------------------------------------------------------------------
# Two-stage solve of a sparse market
# ----------------------------------------------------------------------
class SparseSolve:
    """A constant-density deployment the benchmark draws itself, solved via the library."""

    # The input is the drawn arrays, so drawing them is this workload's market build.
    accept_span = "workloads.market_build"

    def imports(self):
        import repro  # noqa: F401
        import repro.engine  # noqa: F401
        import repro.interference.geometric  # noqa: F401
        import repro.workloads.deployment  # noqa: F401

    def accept(self, seed):
        import numpy as np
        from repro.workloads.deployment import random_transmission_ranges
        from repro.workloads.utilities import iid_uniform_utilities

        rng = np.random.default_rng(seed)
        side = float(np.sqrt(SPARSE_BUYERS / SPARSE_DENSITY))
        locations = rng.uniform(0.0, side, size=(SPARSE_BUYERS, 2))
        ranges = random_transmission_ranges(SPARSE_SELLERS, rng, max_range=1.0)
        utilities = iid_uniform_utilities(SPARSE_BUYERS, SPARSE_SELLERS, rng)
        return locations, ranges, utilities

    @staticmethod
    def graphs(locations, ranges):
        from repro import InterferenceMap
        from repro.interference.geometric import sparse_disk_interference_graph

        return InterferenceMap(
            [sparse_disk_interference_graph(locations, r) for r in ranges]
        )

    @staticmethod
    def solve(market):
        from repro.engine import get_solver

        return get_solver("two_stage").solve(market, config={"check_stability": True})

    def untraced(self, inp, sample, warm):
        from repro import SpectrumMarket
        from repro.prof.counters import reset_cost_counters

        locations, ranges, utilities = inp
        reset_cost_counters()
        start = time.perf_counter()
        market = SpectrumMarket(utilities, self.graphs(locations, ranges))
        report = self.solve(market)
        cold = time.perf_counter() - start
        record = {"digest": checks.matching_digest(report.matching), "counts": prof_counts()}
        sample.op("cold", cold, checks.check_solve(market, report))
        for _ in range(warm):
            start = time.perf_counter()
            again = self.solve(market)
            seconds = time.perf_counter() - start
            reasons = checks.check_solve(market, again)
            if checks.matching_digest(again.matching) != record["digest"]:
                reasons.append("warm matching differs from the cold one")
            sample.op("warm", seconds, reasons)
        sample.inputs.append(record)
        sample.selftests.append(checks.self_test(market, report.matching, "ok"))

    def traced(self, inp, sample, warm, tracer):
        from repro import (
            SpectrumMarket,
            deferred_acceptance,
            is_individually_rational,
            is_nash_stable,
            is_pairwise_stable,
            transfer_and_invitation,
        )
        from repro.engine.validation import validate_matching
        from repro.prof.counters import reset_cost_counters

        locations, ranges, utilities = inp
        first = len(tracer.spans)
        with tracer.span("op.cold") as cold_span:
            before = rss_mb()
            with tracer.span("interference.graph_build"):
                interference = self.graphs(locations, ranges)
            grown = rss_mb() - before
            market = SpectrumMarket(utilities, interference)
            reset_cost_counters()
            with tracer.span("core.stage1_cold"):
                stage_one = deferred_acceptance(market, record_trace=False)
            with tracer.span("core.stage2_cold"):
                stage_two = transfer_and_invitation(
                    market, stage_one.matching, record_trace=False
                )
            matching = stage_two.matching
            with tracer.span("core.stability"):
                rational = is_individually_rational(market, matching)
                nash = is_nash_stable(market, matching)
                is_pairwise_stable(market, matching)
            with tracer.span("engine.report"):
                scored = validate_matching(market, matching, check_stability=False)
        counts = prof_counts()
        cold_s = cold_span["end"] - cold_span["start"]
        digest = checks.matching_digest(matching)
        sample.op("cold", cold_s, checks.check_stages(
            market, matching, rational, nash, scored.social_welfare
        ))
        for _ in range(warm):
            with tracer.span("op.warm") as warm_span:
                with tracer.span("core.stage1_warm"):
                    warm_one = deferred_acceptance(market, record_trace=False)
                with tracer.span("core.stage2_warm"):
                    warm_two = transfer_and_invitation(
                        market, warm_one.matching, record_trace=False
                    )
            reasons = []
            if checks.matching_digest(warm_two.matching) != digest:
                reasons.append("warm matching differs from the cold one")
            sample.op("warm", warm_span["end"] - warm_span["start"], reasons)
        counts.update(stage_counts(stage_one, stage_two))
        counts["interference.edges"] = sum(g.num_edges for g in market.interference)
        layers = {
            "interference.rss_mb": grown,
            "op.cold_s": cold_s,
            "op.cold_spans_s": tracer.children_seconds(cold_span["id"]),
        }
        for name in (
            "interference.graph_build",
            "core.stage1_cold",
            "core.stage2_cold",
            "core.stability",
            "engine.report",
            "core.stage1_warm",
            "core.stage2_warm",
        ):
            layers[f"{name}_s"] = tracer.seconds(name, first)
        sample.inputs.append({"digest": digest, "counts": counts, "layers": layers})
        sample.selftests.append(checks.self_test(market, matching, "ok"))


# ----------------------------------------------------------------------
# Fig. 7(a) sweep
# ----------------------------------------------------------------------
def sweep_jobs():
    return max(1, min(SWEEP_JOBS, len(os.sched_getaffinity(0))))


class Fig7Sweep:
    """``run_figure(figure_spec(7, "a"), 4, seed=..., jobs=2)``: 28 markets, N=200..320, M=10."""

    accept_span = "analysis.figure_spec"

    def imports(self):
        import repro  # noqa: F401
        import repro.analysis.paper_figures  # noqa: F401
        import repro.analysis.parallel  # noqa: F401

    def accept(self, seed):
        from repro.analysis.paper_figures import figure_spec

        return figure_spec(7, "a"), seed

    @staticmethod
    def markets(fig):
        return len(fig.values) * SWEEP_REPETITIONS

    def check(self, fig, rows):
        bad = checks.check_sweep_rows(rows)
        reasons = [f"row {i}: welfare_stage1 <= phase1 <= phase2 fails" for i in bad]
        return reasons, len(bad) * SWEEP_REPETITIONS

    def self_test(self, rows):
        """A row whose Phase 1 welfare is below Stage I's must be flagged."""
        from dataclasses import replace

        row = rows[0]
        series = dict(row.series)
        series["welfare_phase1"] = replace(
            series["welfare_phase1"], mean=series["welfare_stage1"].mean - 1.0
        )
        return {"non_monotone_row": bool(checks.check_sweep_rows([replace(row, series=series)]))}

    def untraced(self, inp, sample, warm):
        from repro.analysis.paper_figures import run_figure

        fig, seed = inp
        expected = None
        for kind in ["cold"] + ["warm"] * warm:
            start = time.perf_counter()
            rows = run_figure(fig, SWEEP_REPETITIONS, seed=seed, jobs=sweep_jobs())
            seconds = time.perf_counter() - start
            reasons, failed = self.check(fig, rows)
            plain = checks.sweep_rows(rows)
            if expected is None:
                expected = plain
            elif plain != expected:
                reasons.append("repeated sweep rows differ")
                failed = self.markets(fig)
            sample.op(kind, seconds, reasons, attempted=self.markets(fig), failed=failed)
        sample.inputs.append({"digest": rows_digest(expected), "counts": {}})
        sample.selftests.append(self.self_test(rows))

    def traced(self, inp, sample, warm, tracer):
        import numpy as np
        from repro import SpectrumMarket
        from repro.analysis.paper_figures import run_figure
        from repro.analysis.parallel import parallel_map
        from repro.engine import get_solver
        from repro.workloads.deployment import random_deployment
        from repro.workloads.utilities import iid_uniform_utilities

        fig, seed = inp
        jobs = sweep_jobs()
        first = len(tracer.spans)
        with tracer.span("op.cold") as cold_span:
            with tracer.span("analysis.pool_start"):
                parallel_map(abs, [-1, -2], jobs=jobs)
            with tracer.span("analysis.sweep_parallel"):
                parallel_rows = run_figure(fig, SWEEP_REPETITIONS, seed=seed, jobs=jobs)
        cold_s = cold_span["end"] - cold_span["start"]
        reasons, failed = self.check(fig, parallel_rows)
        sample.op("cold", cold_s, reasons, attempted=self.markets(fig), failed=failed)
        with tracer.span("analysis.sweep_serial"):
            serial_rows = run_figure(fig, SWEEP_REPETITIONS, seed=seed, jobs=None)
        reasons, failed = self.check(fig, serial_rows)
        if checks.sweep_rows(serial_rows) != checks.sweep_rows(parallel_rows):
            reasons.append("serial sweep rows differ from the parallel ones")
            failed = self.markets(fig)
        sample.op("serial", tracer.seconds("analysis.sweep_serial", first), reasons,
                  attempted=self.markets(fig), failed=failed)
        # One market per x value, through the layers the sweep's workers call.
        per_market = {"workloads.market_build": [], "interference.graph_build": [],
                      "engine.solve": []}
        for index, buyers in enumerate(fig.values):
            rng = np.random.default_rng([seed, index])
            mark = len(tracer.spans)
            with tracer.span("workloads.market_build"):
                deployment = random_deployment(
                    int(buyers), fig.num_channels, rng, area_side=10.0, max_range=5.0
                )
                utilities = iid_uniform_utilities(int(buyers), fig.num_channels, rng)
            with tracer.span("interference.graph_build"):
                interference = deployment.interference_map()
            market = SpectrumMarket(utilities, interference)
            with tracer.span("engine.solve"):
                report = get_solver("two_stage").solve(market)
            sample.op("market", tracer.seconds("engine.solve", mark),
                      checks.check_outcome(market, report.status, report.matching, "ok"))
            for name, values in per_market.items():
                values.append(tracer.seconds(name, mark))
        serial_s = tracer.seconds("analysis.sweep_serial", first)
        parallel_s = tracer.seconds("analysis.sweep_parallel", first)
        layers = {
            "op.cold_s": cold_s,
            "op.cold_spans_s": tracer.children_seconds(cold_span["id"]),
            "analysis.pool_start_s": tracer.seconds("analysis.pool_start", first),
            "analysis.parallel_speedup": serial_s / parallel_s,
        }
        for name, values in per_market.items():
            layers[f"{name}_s"] = statistics.median(values)
        sample.inputs.append(
            {"digest": rows_digest(checks.sweep_rows(parallel_rows)), "counts": {},
             "layers": layers}
        )
        sample.selftests.append(self.self_test(parallel_rows))

    def close(self):
        """Stop the worker pool and reap its processes, so their peak RSS is counted."""
        import multiprocessing

        from repro.analysis.parallel import shutdown_pools

        shutdown_pools()
        for child in multiprocessing.active_children():
            child.join(timeout=30)


def rows_digest(rows):
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Chaos protocol
# ----------------------------------------------------------------------
class ProtocolChaos:
    """A chaos Session: default policy, 5% loss over ARQ, one crash/restart, telemetry on."""

    accept_span = "run.spec"

    def __init__(self, out_dir):
        self.trace_path = str(Path(out_dir) / f"chaos-{os.getpid()}.jsonl")

    def imports(self):
        import repro  # noqa: F401
        import repro.run  # noqa: F401

    def spec_dict(self, seed, telemetry=True):
        return {
            "schema": 1,
            "command": "chaos",
            "market": {
                "scenario": "paper",
                "buyers": CHAOS_BUYERS,
                "sellers": CHAOS_SELLERS,
                "seed": seed,
            },
            "engine": {"name": "distributed", "options": {"policy": "default"}},
            "faults": {"loss": CHAOS_LOSS, "crashes": [CHAOS_CRASH]},
            "telemetry": {
                "trace_out": self.trace_path if telemetry else None,
                "metrics": telemetry,
                "trace_flush_every": CHAOS_FLUSH_EVERY,
            },
        }

    def accept(self, seed, telemetry=True):
        from repro.run import RunSpec

        spec = RunSpec.from_json(json.dumps(self.spec_dict(seed, telemetry)))
        spec.validate()
        return spec

    def result_counts(self, result):
        return {
            "distributed.slots": result.slots,
            "distributed.messages_sent": result.messages_sent,
            "distributed.messages_delivered": result.messages_delivered,
            "distributed.messages_dropped": result.messages_dropped,
        }

    def untraced(self, spec, sample, warm):
        from repro.run import Session

        start = time.perf_counter()
        session = Session(spec)
        result = session.run()
        cold = time.perf_counter() - start
        market = session.market
        record = {
            "digest": checks.matching_digest(result.matching),
            "counts": self.result_counts(result),
        }
        sample.op("cold", cold, checks.check_protocol(market, result))
        for _ in range(warm):
            start = time.perf_counter()
            again = Session(spec, market=market).run()
            seconds = time.perf_counter() - start
            reasons = checks.check_protocol(market, again)
            if checks.matching_digest(again.matching) != record["digest"]:
                reasons.append("warm matching differs from the cold one")
            if again.slots != result.slots:
                reasons.append("warm slot count differs from the cold one")
            sample.op("warm", seconds, reasons)
        sample.inputs.append(record)
        sample.selftests.append(checks.self_test(market, result.matching, "converged"))

    def traced(self, spec, sample, warm, tracer):
        from repro.distributed.network import LossyNetwork
        from repro.distributed.protocol import build_distributed_simulation
        from repro.distributed.transition import default_policy
        from repro.obs import use_recorder
        from repro.run import Session, build_market, build_recorder

        first = len(tracer.spans)
        with tracer.span("op.cold") as cold_span:
            recorder = build_recorder(
                spec.telemetry, profile=spec.profile, seed=spec.market.seed,
                config=spec.to_dict(),
            )
            with recorder, use_recorder(recorder):
                with tracer.span("workloads.market_build"):
                    market = build_market(spec.market)
                with tracer.span("distributed.build"):
                    sim = build_distributed_simulation(
                        market,
                        policy=default_policy(),
                        network=LossyNetwork(float(spec.faults.loss)),
                        seed=spec.market.seed,
                        reliable_transport=True,
                        recorder=recorder,
                        fault_schedule=spec.faults.build_schedule(),
                    )
                    sim.emit_run_start()
                with tracer.span("distributed.run"):
                    slots = sim.simulator.run(max_slots=1_000_000, on_timeout="stop")
                    result = sim.finalize(slots)
        cold_s = cold_span["end"] - cold_span["start"]
        sample.op("cold", cold_s, checks.check_protocol(market, result))
        trace_bytes = os.path.getsize(self.trace_path)
        with open(self.trace_path, "rb") as trace:
            events = sum(1 for _ in trace) - 1  # the first line is the manifest
        os.remove(self.trace_path)
        quiet = self.accept(spec.market.seed, telemetry=False)
        start = time.perf_counter()
        untelemetered = Session(quiet, market=market).run()
        quiet_s = time.perf_counter() - start
        reasons = checks.check_protocol(market, untelemetered)
        digest = checks.matching_digest(result.matching)
        if checks.matching_digest(untelemetered.matching) != digest:
            reasons.append("telemetry changed the matching")
        sample.op("quiet", quiet_s, reasons)
        protocol_s = tracer.seconds("distributed.build", first) + tracer.seconds(
            "distributed.run", first
        )
        counts = self.result_counts(result)
        counts["obs.trace_bytes"] = trace_bytes
        counts["obs.events"] = events
        layers = {
            "op.cold_s": cold_s,
            "op.cold_spans_s": tracer.children_seconds(cold_span["id"]),
            "workloads.market_build_s": tracer.seconds("workloads.market_build", first),
            "distributed.build_s": tracer.seconds("distributed.build", first),
            "distributed.run_s": tracer.seconds("distributed.run", first),
            "distributed.delivery_ratio": result.messages_delivered / result.messages_sent,
            "obs.overhead_ratio": protocol_s / quiet_s,
        }
        sample.inputs.append({"digest": digest, "counts": counts, "layers": layers})
        sample.selftests.append(checks.self_test(market, result.matching, "converged"))


def make_workload(name, out_dir):
    if name == "sparse-solve":
        return SparseSolve()
    if name == "fig7-sweep":
        return Fig7Sweep()
    if name == "protocol-chaos":
        return ProtocolChaos(out_dir)
    raise SystemExit(f"unknown workload {name!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="exit once the first input is accepted (a set-up time probe)",
    )
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.out_dir)
    inputs, warm = PLAN[args.workload]
    seeds = [input_seed(args.seed, args.index, k) for k in range(inputs)]
    tracer = Tracer() if args.trace else None

    start = time.perf_counter()
    workload.imports()
    import_s = time.perf_counter() - start
    sample = Sample()
    ready = None
    for seed in seeds:
        start = time.perf_counter()
        inp = workload.accept(seed)
        accept_s = time.perf_counter() - start
        if ready is None:
            ready = time.monotonic()
            if args.setup_only:
                print(json.dumps({"ready": ready, "import_s": import_s}), flush=True)
                return
        if tracer is None:
            workload.untraced(inp, sample, warm)
        else:
            workload.traced(inp, sample, warm, tracer)
            layers = sample.inputs[-1]["layers"]
            layers[f"{workload.accept_span}_s"] = accept_s
            layers["run.import_s"] = import_s
    if hasattr(workload, "close"):
        workload.close()

    if tracer is not None:
        spans_path = Path(args.out_dir) / (
            f"spans-{args.workload}-{args.seed}-{args.index}.json"
        )
        spans_path.write_text(json.dumps(tracer.spans))
    print(
        json.dumps(
            {
                "ready": ready,
                "import_s": import_s,
                "seeds": seeds,
                "peak_rss_mb": peak_rss_mb(),
                "ops": sample.ops,
                "inputs": sample.inputs,
                "selftests": sample.selftests,
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
