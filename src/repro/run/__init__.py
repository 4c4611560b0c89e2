"""One run model: declarative specs plus the Session execution layer.

``repro.run`` is the single front door for executing anything in this
repo.  A :class:`RunSpec` is a frozen, JSON-round-trippable description
of a run -- market, engine, faults, telemetry, durability, parallelism --
and :class:`Session` is the only code that turns one into a run: it
validates the spec, assembles the observability stack on entry, tears
it down on exit, and dispatches the command to the public entry points
(``run_two_stage``, ``run_distributed_matching``, ``OnlineMatcher.run``,
``registry.solve``, ``run_figure``, ``runtime.durable.run_durable``).
The CLI's run subcommands and ``repro run SPEC.json`` go through it.
"""

from repro.run.spec import (
    RUN_COMMANDS,
    SPEC_SCHEMA_VERSION,
    DurabilitySpec,
    EngineSpec,
    FaultSpec,
    MarketSpec,
    ParallelSpec,
    RunSpec,
    TelemetrySpec,
    WorkloadSpec,
)
from repro.run.session import (
    ObservabilityStack,
    Session,
    build_market,
    build_recorder,
    build_slo_engine,
    start_telemetry_server,
)

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "RUN_COMMANDS",
    "WorkloadSpec",
    "MarketSpec",
    "EngineSpec",
    "FaultSpec",
    "TelemetrySpec",
    "DurabilitySpec",
    "ParallelSpec",
    "RunSpec",
    "Session",
    "ObservabilityStack",
    "build_market",
    "build_recorder",
    "build_slo_engine",
    "start_telemetry_server",
]
