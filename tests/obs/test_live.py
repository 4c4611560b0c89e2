"""Run registry: event-driven live run tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro import paper_simulation_market, run_two_stage, toy_example_market
from repro.obs import ListEventSink, Recorder
from repro.obs.live import NULL_RUN_REGISTRY, NullRunRegistry, RunRegistry


def _observe_all(registry, events):
    for event in events:
        registry.observe(event)


class TestLifecycle:
    def test_two_stage_run_lifecycle(self):
        registry = RunRegistry()
        _observe_all(
            registry,
            [
                {"event": "manifest", "seed": 7, "schema_version": 1},
                {"event": "market.created", "scenario": "toy", "buyers": 5},
                {"event": "two_stage.start", "buyers": 5, "channels": 3},
                {"event": "stage1.round", "round": 0},
                {"event": "stage1.round", "round": 1},
                {"event": "stage2.transfer_round", "round": 0},
                {
                    "event": "two_stage.result",
                    "welfare_stage1": 27.0,
                    "welfare_phase2": 30.0,
                },
            ],
        )
        snapshot = registry.snapshot()
        assert snapshot["runs_started"] == 1
        assert snapshot["active_run"] is None  # result closed the run
        (run,) = snapshot["runs"]
        assert run["kind"] == "two_stage"
        assert run["status"] == "converged"
        assert run["phase"] == "done"
        assert run["rounds"] == 3
        assert run["welfare"] == [27.0, 30.0]
        assert run["meta"]["seed"] == 7
        assert run["last_event_age_s"] >= 0.0

    def test_distributed_run_tracks_slots_and_faults(self):
        registry = RunRegistry()
        _observe_all(
            registry,
            [
                {"event": "distributed.run_start", "buyers": 10},
                {
                    "event": "sim.slot",
                    "slot": 1,
                    "sent": 8,
                    "delivered": 7,
                    "dropped": 1,
                    "inflight": 2,
                },
                {"event": "sim.crash", "agent": "buyer:3"},
                {"event": "sim.partition"},
                {
                    "event": "sim.slot",
                    "slot": 2,
                    "sent": 4,
                    "delivered": 4,
                    "dropped": 0,
                    "inflight": 0,
                },
                {"event": "sim.restart", "agent": "buyer:3"},
                {"event": "sim.partition_healed"},
            ],
        )
        run = registry.active_run()
        assert run["status"] == "running"
        assert run["slot"] == 2
        assert run["progress"]["messages_sent"] == 12.0
        assert run["progress"]["messages_dropped"] == 1.0
        assert "crashed" not in run  # restarted
        assert "partitions" not in run  # healed
        registry.observe(
            {
                "event": "distributed.run_end",
                "status": "converged",
                "social_welfare": 21.5,
                "slots": 40,
            }
        )
        run = registry.active_run()
        assert run["status"] == "converged"
        assert run["slot"] == 40
        assert run["welfare"] == [21.5]

    def test_dynamic_run_self_registers_from_epochs(self):
        registry = RunRegistry()
        for epoch in range(3):
            registry.observe(
                {
                    "event": "dynamic.epoch",
                    "epoch": epoch,
                    "social_welfare": 10.0 + epoch,
                    "churned": 1,
                    "rounds": 2,
                }
            )
        run = registry.active_run()
        assert run["kind"] == "dynamic"
        assert run["epoch"] == 2
        assert run["welfare"] == [10.0, 11.0, 12.0]
        assert run["progress"]["churned"] == 3.0
        registry.observe({"event": "dynamic.run_end", "epochs": 3})
        assert registry.active_run()["status"] == "finished"

    def test_sweep_progress_gets_own_entry(self):
        registry = RunRegistry()
        registry.observe({"event": "analysis.progress", "completed": 1, "total": 3})
        registry.observe({"event": "two_stage.start"})
        registry.observe({"event": "two_stage.result", "welfare_phase2": 1.0})
        registry.observe({"event": "analysis.progress", "completed": 2, "total": 3})
        snapshot = registry.snapshot()
        kinds = {run["kind"]: run for run in snapshot["runs"]}
        assert kinds["sweep"]["status"] == "running"
        assert kinds["sweep"]["progress"] == {"completed": 2.0, "total": 3.0}
        assert kinds["two_stage"]["status"] == "converged"
        registry.observe({"event": "analysis.progress", "completed": 3, "total": 3})
        sweep = [
            r for r in registry.snapshot()["runs"] if r["kind"] == "sweep"
        ][0]
        assert sweep["status"] == "finished"

    def test_new_start_abandons_unfinished_run(self):
        registry = RunRegistry()
        registry.observe({"event": "two_stage.start"})
        registry.observe({"event": "two_stage.start"})
        statuses = [run["status"] for run in registry.snapshot()["runs"]]
        assert statuses == ["abandoned", "running"]

    def test_slo_violation_recorded_on_run(self):
        registry = RunRegistry()
        registry.observe({"event": "two_stage.start"})
        registry.observe({"event": "slo.violated", "rule": "slots<=1"})
        assert registry.active_run()["slo_violations"] == ["slots<=1"]


class TestBounds:
    def test_finished_runs_evicted(self):
        registry = RunRegistry(max_finished=4)
        for _ in range(10):
            registry.observe({"event": "two_stage.start"})
            registry.observe({"event": "two_stage.result", "welfare_phase2": 1.0})
        snapshot = registry.snapshot()
        assert len(snapshot["runs"]) == 4
        assert snapshot["runs_started"] == 10

    def test_welfare_trajectory_bounded(self):
        registry = RunRegistry()
        for epoch in range(1000):
            registry.observe(
                {"event": "dynamic.epoch", "epoch": epoch, "social_welfare": float(epoch)}
            )
        welfare = registry.active_run()["welfare"]
        assert len(welfare) <= 240
        assert welfare[0] == 0.0  # head anchor kept
        assert welfare[-1] == 999.0  # recent tail kept


class TestRecorderIntegration:
    def test_recorder_feeds_registry_without_sink(self):
        registry = RunRegistry()
        recorder = Recorder(runs=registry)
        assert recorder.enabled
        recorder.emit("two_stage.start", buyers=2)
        assert registry.active_run()["kind"] == "two_stage"

    def test_recorder_feeds_both_backends(self):
        registry = RunRegistry()
        sink = ListEventSink()
        recorder = Recorder(events=sink, runs=registry)
        recorder.emit("two_stage.start")
        assert sink.events[0]["event"] == "two_stage.start"
        assert registry.runs_started == 1

    @pytest.mark.parametrize("with_sink", [False, True])
    @pytest.mark.parametrize("market_seed", [None, 3])
    def test_live_registry_matches_trace_replay(self, with_sink, market_seed):
        market = (
            toy_example_market()
            if market_seed is None
            else paper_simulation_market(
                20, 4, np.random.default_rng(market_seed)
            )
        )
        live = RunRegistry()
        sink = ListEventSink()
        result = run_two_stage(
            market,
            recorder=Recorder(events=sink if with_sink else None, runs=live),
        )
        trace = ListEventSink()
        run_two_stage(market, recorder=Recorder(events=trace))
        replayed = RunRegistry()
        _observe_all(replayed, trace.events)

        def digest(registry):
            (run,) = registry.snapshot()["runs"]
            return run["rounds"], run["phase"], run["status"], run["welfare"]

        assert digest(live) == digest(replayed)
        assert digest(live)[0] == (
            result.rounds_stage1 + result.rounds_phase1 + result.rounds_phase2
        )

    def test_null_registry_is_inert(self):
        assert not NULL_RUN_REGISTRY.enabled
        NULL_RUN_REGISTRY.observe({"event": "two_stage.start"})
        assert NULL_RUN_REGISTRY.snapshot()["runs"] == []
        assert NULL_RUN_REGISTRY.active_run() is None
        assert isinstance(NULL_RUN_REGISTRY, NullRunRegistry)

    def test_default_recorder_has_null_registry(self):
        assert Recorder().runs is NULL_RUN_REGISTRY
        assert not Recorder().enabled
