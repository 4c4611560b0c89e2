"""Session layer: one pipeline, uniform assembly, durable identity.

The contract in one file:

* ``Session(spec).run()`` reproduces the public entry points' results
  from a declarative spec, and ``repro run SPEC.json`` emits the same
  trace as ``Session(spec).run()``;
* entering and leaving a session assembles and tears down the whole
  observability stack, ``metrics_out`` and ``serve_hold`` included;
* one policy rule holds on the CLI, Session and durable paths;
* a durable run launched from a spec stores
  ``config_hash(spec.durable_identity())`` as its run-dir identity, is
  rebuilt from that identity (scenario included), and ``repro resume``
  accepts that run dir and rejects the pre-spec flat config shape.
"""

from __future__ import annotations

import io
import json
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core.two_stage import run_two_stage
from repro.distributed.protocol import run_distributed_matching
from repro.dynamic.online import RematchStrategy
from repro.errors import CheckpointError, SpecError
from repro.ioutil import config_hash
from repro.obs import JsonlEventSink, Recorder, use_recorder
from repro.run.session import Session, build_market, build_recorder
from repro.run.spec import (
    DurabilitySpec,
    EngineSpec,
    FaultSpec,
    MarketSpec,
    RunSpec,
    TelemetrySpec,
    WorkloadSpec,
)
from repro.trace.export import parse_openmetrics
from repro.workloads.scenarios import paper_simulation_market


def _market(buyers=12, sellers=3, seed=5):
    return paper_simulation_market(
        buyers, sellers, np.random.default_rng(seed)
    )


def _record(fn) -> str:
    """Run ``fn`` under an event-recording recorder; return the JSONL."""
    buffer = io.StringIO()
    recorder = Recorder(events=JsonlEventSink(buffer))
    with recorder, use_recorder(recorder):
        fn()
    return buffer.getvalue()


class TestSessionDispatch:
    def test_toy_returns_two_stage_result(self):
        result = Session(
            RunSpec(command="toy", market=MarketSpec(scenario="toy"))
        ).run()
        assert result.social_welfare == pytest.approx(30.0)

    def test_distributed_matches_direct_entry_point(self):
        spec = RunSpec(
            command="distributed",
            market=MarketSpec(buyers=12, sellers=3, seed=5),
            engine=EngineSpec(name="distributed", options={"policy": "default"}),
        )
        session_run = Session(spec).run()
        direct = run_distributed_matching(_market(), seed=5)
        assert session_run.matching == direct.matching
        assert session_run.slots == direct.slots

    def test_session_trace_is_market_created_then_entry_point_trace(self):
        spec = RunSpec(
            command="distributed",
            market=MarketSpec(buyers=12, sellers=3, seed=5),
            engine=EngineSpec(name="distributed", options={"policy": "default"}),
        )
        # Session dispatch with an injected recorder announces the market
        # it builds, then emits the identical stream the entry point does.
        buffer = io.StringIO()
        recorder = Recorder(events=JsonlEventSink(buffer))
        with recorder:
            Session(spec, recorder=recorder).run()
        first, rest = buffer.getvalue().split("\n", 1)
        assert json.loads(first) == {
            "event": "market.created",
            "scenario": "paper",
            "buyers": 12,
            "channels": 3,
        }
        direct = _record(lambda: run_distributed_matching(_market(), seed=5))
        assert rest == direct and direct

    def test_injected_market_is_not_announced(self):
        spec = RunSpec(command="toy", market=MarketSpec(scenario="toy"))
        buffer = io.StringIO()
        recorder = Recorder(events=JsonlEventSink(buffer))
        market = build_market(spec.market)
        with recorder:
            Session(spec, recorder=recorder, market=market).run()
        assert '"market.created"' not in buffer.getvalue()

    def test_dynamic_runs_both_strategies(self):
        spec = RunSpec(
            command="dynamic",
            market=MarketSpec(
                buyers=10,
                sellers=3,
                seed=3,
                workload=WorkloadSpec(epochs=4, strategy="both"),
            ),
        )
        results = Session(spec).run()
        assert set(results) == {RematchStrategy.WARM, RematchStrategy.COLD}
        assert all(len(outcomes) == 4 for outcomes in results.values())

    def test_solve_returns_report(self):
        spec = RunSpec(
            command="solve",
            market=MarketSpec(buyers=8, sellers=3, seed=1),
            engine=EngineSpec(name="greedy"),
        )
        report = Session(spec).run()
        assert report.solver == "greedy"

    def test_policy_both_rejected_for_single_session(self):
        spec = RunSpec(
            command="distributed",
            market=MarketSpec(buyers=8, sellers=3),
            engine=EngineSpec(name="distributed", options={"policy": "both"}),
        )
        with pytest.raises(SpecError, match="single policy"):
            Session(spec).run()

    def test_report_command_is_cli_only(self):
        with pytest.raises(SpecError, match="CLI-only"):
            Session(RunSpec(command="report")).run()

    def test_invalid_spec_rejected_at_construction(self):
        with pytest.raises(SpecError):
            Session(RunSpec(command="dynamic"))  # no workload


class TestUniformAssembly:
    def test_build_market_scenarios(self):
        toy = build_market(MarketSpec(scenario="toy"))
        assert toy.num_buyers == 5 and toy.num_channels == 3
        paper = build_market(MarketSpec(buyers=9, sellers=4, seed=2))
        assert paper.num_buyers == 9 and paper.num_channels == 4

    def test_default_telemetry_yields_null_recorder(self):
        recorder = build_recorder(TelemetrySpec())
        assert not recorder.enabled

    def test_trace_telemetry_writes_manifest(self, tmp_path):
        import json

        trace = tmp_path / "t.jsonl"
        spec = RunSpec(command="toy", market=MarketSpec(scenario="toy"))
        recorder = build_recorder(
            TelemetrySpec(trace_out=str(trace)),
            seed=spec.market.seed,
            config=spec.to_dict(),
        )
        with recorder, use_recorder(recorder):
            run_two_stage(build_market(spec.market))
        lines = trace.read_text().splitlines()
        manifest = json.loads(lines[0])
        assert manifest["event"] == "manifest"
        assert manifest["config"]["command"] == "toy"


class TestDurableSpecIdentity:
    def _durable_spec(self, tmp_path):
        return RunSpec(
            command="dynamic",
            market=MarketSpec(
                buyers=10,
                sellers=3,
                seed=4,
                workload=WorkloadSpec(epochs=4, strategy="warm"),
            ),
            durability=DurabilitySpec(
                checkpoint_dir=str(tmp_path / "run"), checkpoint_every=2
            ),
        )

    def test_run_dir_hash_is_spec_identity_hash(self, tmp_path):
        from repro.runtime import CheckpointStore

        spec = self._durable_spec(tmp_path)
        Session(spec).run()
        store = CheckpointStore.open(spec.durability.checkpoint_dir)
        assert store.config_hash == config_hash(spec.durable_identity())

    def test_resume_accepts_spec_shaped_run_dir(self, tmp_path):
        from repro.runtime import resume_run

        spec = self._durable_spec(tmp_path)
        fresh = Session(spec).run()
        resumed = resume_run(spec.durability.checkpoint_dir)
        assert resumed == fresh

    def test_equivalent_spec_different_telemetry_same_identity(self, tmp_path):
        from repro.runtime import CheckpointStore

        spec = self._durable_spec(tmp_path)
        Session(spec).run()
        store = CheckpointStore.open(spec.durability.checkpoint_dir)
        loud = RunSpec.from_dict(
            {
                **spec.to_dict(),
                "telemetry": TelemetrySpec(metrics=True).to_dict(),
                "durability": DurabilitySpec(
                    checkpoint_dir="somewhere-else",
                    checkpoint_every=spec.durability.checkpoint_every,
                ).to_dict(),
            }
        )
        assert store.config_hash == config_hash(loud.durable_identity())


def _canonical_trace(path):
    """A trace's events minus wall-clock fields.

    Drops every ``*_s`` timing field, the manifest's ``created_unix``
    stamp and ``runtime.checkpoint``'s ``trace_bytes`` (the run-dir
    trace's length, which includes that run's own manifest stamp);
    everything else must match exactly.
    """
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            events.append(
                {
                    key: value
                    for key, value in event.items()
                    if not key.endswith("_s")
                    and key not in ("created_unix", "trace_bytes")
                }
            )
    return events


def _pipeline_spec(name, tmp_path):
    trace = str(tmp_path / "trace.jsonl")
    telemetry = TelemetrySpec(trace_out=trace, metrics=True)
    if name in ("toy", "counterexample"):
        return RunSpec(
            command=name,
            market=MarketSpec(scenario=name),
            telemetry=telemetry,
        )
    if name == "solve":
        return RunSpec(
            command="solve",
            market=MarketSpec(buyers=8, sellers=3, seed=1),
            engine=EngineSpec(name="two_stage"),
            telemetry=telemetry,
        )
    if name == "swaps":
        return RunSpec(
            command="swaps",
            market=MarketSpec(buyers=10, sellers=3, seed=2),
            engine=EngineSpec(name="swaps"),
            telemetry=telemetry,
        )
    if name == "chaos":
        return RunSpec(
            command="chaos",
            market=MarketSpec(buyers=8, sellers=3, seed=2),
            engine=EngineSpec(name="distributed", options={"policy": "default"}),
            faults=FaultSpec(loss=0.1, crashes=("buyer:1@4-9",)),
            telemetry=telemetry,
        )
    assert name == "durable-dynamic"
    return RunSpec(
        command="dynamic",
        market=MarketSpec(
            buyers=8,
            sellers=3,
            seed=4,
            workload=WorkloadSpec(epochs=4, strategy="warm"),
        ),
        engine=EngineSpec(name="dynamic"),
        telemetry=telemetry,
        durability=DurabilitySpec(
            checkpoint_dir=str(tmp_path / "run"), checkpoint_every=2
        ),
    )


class TestOnePipeline:
    @pytest.mark.parametrize(
        "name",
        [
            "toy",
            "counterexample",
            "solve",
            "swaps",
            "chaos",
            "durable-dynamic",
        ],
    )
    def test_cli_run_trace_equals_session_trace(self, name, tmp_path, capsys):
        spec = _pipeline_spec(name, tmp_path)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        assert main(["run", str(spec_path)]) == 0
        capsys.readouterr()
        via_cli = _canonical_trace(spec.telemetry.trace_out)
        Session(spec).run()
        via_session = _canonical_trace(spec.telemetry.trace_out)
        assert via_cli == via_session
        if name != "durable-dynamic":  # durable runs build their own market
            created = [e for e in via_session if e["event"] == "market.created"]
            assert created == [
                {
                    "event": "market.created",
                    "scenario": spec.market.scenario,
                    "buyers": created[0]["buyers"],
                    "channels": created[0]["channels"],
                }
            ]


class TestSessionTeardown:
    def test_metrics_out_written_like_the_cli(self, tmp_path, capsys):
        via_session = tmp_path / "session.om"
        via_cli = tmp_path / "cli.om"
        spec = RunSpec(
            command="toy",
            market=MarketSpec(scenario="toy"),
            telemetry=TelemetrySpec(metrics_out=str(via_session)),
        )
        Session(spec).run()
        assert main(["toy", "--metrics-out", str(via_cli)]) == 0
        capsys.readouterr()
        session_snapshot = parse_openmetrics(via_session.read_text())
        cli_snapshot = parse_openmetrics(via_cli.read_text())
        assert session_snapshot["counters"]["stage1_rounds"] >= 1
        assert session_snapshot["counters"] == cli_snapshot["counters"]
        assert session_snapshot["gauges"] == cli_snapshot["gauges"]

    def test_serve_hold_keeps_the_server_up_then_stops_it(self):
        threads_before = set(threading.enumerate())
        spec = RunSpec(
            command="toy",
            market=MarketSpec(scenario="toy"),
            telemetry=TelemetrySpec(serve_metrics=":0", serve_hold=0.3),
        )
        session = Session(spec)
        with session:
            session.execute()
            assert session.stack.server is not None
            held_from = time.monotonic()
        assert time.monotonic() - held_from >= 0.3
        assert set(threading.enumerate()) == threads_before

    def test_failed_run_writes_no_metrics_out(self, tmp_path):
        path = tmp_path / "m.om"
        spec = RunSpec(
            command="solve",
            market=MarketSpec(scenario="toy"),
            engine=EngineSpec(name="no_such_solver"),
            telemetry=TelemetrySpec(metrics_out=str(path)),
        )
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            Session(spec).run()
        assert not path.exists()


class TestPolicyRule:
    def _chaos(self, policy, tmp_path=None):
        durability = DurabilitySpec()
        if tmp_path is not None:
            durability = DurabilitySpec(checkpoint_dir=str(tmp_path / "run"))
        return RunSpec(
            command="chaos",
            market=MarketSpec(buyers=6, sellers=2),
            engine=EngineSpec(name="distributed", options={"policy": policy}),
            durability=durability,
        )

    def test_bogus_policy_fails_on_every_path(self, tmp_path, capsys):
        from repro.runtime.durable import run_durable

        spec = self._chaos("bogus")
        with pytest.raises(SpecError, match="policy"):
            spec.validate()
        with pytest.raises(SpecError, match="policy"):
            Session(spec).run()
        durable = self._chaos("bogus", tmp_path)
        with pytest.raises(SpecError, match="policy"):
            Session(durable).run()
        with pytest.raises(SpecError, match="policy"):
            run_durable(durable)
        assert not (tmp_path / "run").exists()
        spec_path = tmp_path / "bogus.json"
        spec_path.write_text(spec.to_json())
        assert main(["run", str(spec_path)]) == 2
        assert main(["run", str(spec_path), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert err.count("engine.options.policy") == 2

    def test_both_is_for_the_distributed_command_only(self):
        RunSpec(
            command="distributed",
            engine=EngineSpec(name="distributed", options={"policy": "both"}),
        ).validate()
        with pytest.raises(SpecError, match="policy"):
            self._chaos("both").validate()
        for policy in ("default", "adaptive"):
            self._chaos(policy).validate()


class TestDurableRebuild:
    def test_durable_chaos_honours_the_market_scenario(self, tmp_path):
        def spec(durability):
            return RunSpec(
                command="chaos",
                market=MarketSpec(scenario="toy"),
                engine=EngineSpec(
                    name="distributed", options={"policy": "default"}
                ),
                durability=durability,
            )

        plain = Session(spec(DurabilitySpec())).run()
        durable = Session(
            spec(DurabilitySpec(checkpoint_dir=str(tmp_path / "run")))
        ).run()
        assert plain.social_welfare == pytest.approx(30.0)
        assert durable["social_welfare"] == pytest.approx(30.0)
        assert durable["matched"] == plain.matching.num_matched()
        assert durable["assignment"] == {
            str(j): plain.matching.channel_of(j)
            for j in range(plain.matching.num_buyers)
            if plain.matching.channel_of(j) is not None
        }

    def test_resume_rejects_a_flat_legacy_config(self, tmp_path):
        from repro.runtime import CheckpointStore, resume_run

        flat = dict(buyers=8, sellers=3, seed=2, policy="default")
        CheckpointStore.create(
            tmp_path / "legacy", kind="chaos", seed=2, config=flat
        )
        with pytest.raises(CheckpointError, match="flat legacy config"):
            resume_run(tmp_path / "legacy")
