"""The Session layer: the one code path that turns a RunSpec into a run.

:class:`Session` is a context manager around one :class:`~repro.run.spec.
RunSpec`:

* entering assembles the observability stack (:class:`ObservabilityStack`:
  recorder, SLO engine, telemetry server, profiler) and installs the
  recorder as the ambient one;
* :meth:`Session.execute` dispatches the spec's command to the public
  entry points (:func:`~repro.core.two_stage.run_two_stage`,
  :func:`~repro.distributed.protocol.run_distributed_matching`,
  :meth:`~repro.dynamic.online.OnlineMatcher.run`,
  :func:`~repro.engine.registry.solve`,
  :func:`~repro.analysis.paper_figures.run_figure` and
  :func:`~repro.runtime.durable.run_durable`) and returns the canonical
  result object;
* exiting tears the stack down: final SLO evaluation, profile and
  ``metrics_out`` writes, ``serve_hold`` and server stop.

``Session(spec).run()`` is ``with session: return session.execute()``.
The CLI wraps every spec command in the same ``with`` block and only
renders the results; the non-spec commands use :class:`ObservabilityStack`
directly.  Every component a run needs is built from its spec by one
function here or on the spec (:func:`build_market`, :func:`build_policy`,
:func:`build_generator`, :func:`protocol_arguments`,
:meth:`~repro.run.spec.FaultSpec.build_network`,
:meth:`~repro.run.spec.FaultSpec.build_schedule`), which the durable
runner reuses when it rebuilds a run from its stored identity.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Dict, Optional

import numpy as np

from repro.core.two_stage import run_two_stage
from repro.distributed.protocol import run_distributed_matching
from repro.errors import SpecError
from repro.obs import (
    JsonlEventSink,
    MetricsRegistry,
    Recorder,
    RunRegistry,
    SpanTracer,
    build_manifest,
    use_recorder,
)
from repro.run.spec import MarketSpec, ProfileSpec, RunSpec, TelemetrySpec

__all__ = [
    "Session",
    "ObservabilityStack",
    "build_market",
    "build_policy",
    "build_generator",
    "protocol_arguments",
    "build_recorder",
    "build_profiler",
    "build_slo_engine",
    "start_telemetry_server",
]


# ----------------------------------------------------------------------
# Run components, each built from its spec in one place
# ----------------------------------------------------------------------
def build_market(spec: MarketSpec):
    """Materialise a :class:`MarketSpec` into a live market instance."""
    from repro.workloads.scenarios import (
        counterexample_market,
        paper_simulation_market,
        toy_example_market,
    )

    if spec.scenario == "toy":
        return toy_example_market()
    if spec.scenario == "counterexample":
        return counterexample_market()
    if spec.scenario == "paper":
        return paper_simulation_market(
            spec.buyers, spec.sellers, np.random.default_rng(spec.seed)
        )
    raise SpecError(f"market.scenario: unknown scenario {spec.scenario!r}")


def build_policy(name: str):
    """The transition policy ``engine.options.policy`` names.

    :meth:`RunSpec.validate` admits ``"both"`` for the ``distributed``
    command, whose CLI compares the two policies; one run executes one
    policy, so ``"both"`` is refused here.
    """
    from repro.distributed.transition import adaptive_policy, default_policy

    if name == "both":
        raise SpecError(
            "engine.options.policy: a Session runs a single policy; "
            "build one spec per policy for comparisons"
        )
    return adaptive_policy() if name == "adaptive" else default_policy()


def build_generator(spec: MarketSpec):
    """The epoch stream of a dynamic run's market and workload spec."""
    from repro.dynamic.generator import DynamicMarketGenerator

    workload = spec.workload
    return DynamicMarketGenerator(
        num_channels=spec.sellers,
        initial_buyers=spec.buyers,
        arrival_rate=workload.arrival_rate,
        departure_prob=workload.departure_prob,
        drift_sigma=workload.drift,
        rng=np.random.default_rng(spec.seed),
    )


def protocol_arguments(spec: RunSpec, policy: str) -> Dict[str, Any]:
    """The protocol-construction arguments of ``spec`` under ``policy``.

    The keyword arguments :func:`~repro.distributed.protocol.
    build_distributed_simulation` and :func:`~repro.distributed.protocol.
    run_distributed_matching` share: transition policy, lossy network
    (with the ARQ transport it needs), seed and fault schedule.
    """
    network = spec.faults.build_network()
    return {
        "policy": build_policy(policy),
        "network": network,
        "seed": spec.market.seed,
        "reliable_transport": network is not None,
        "fault_schedule": spec.faults.build_schedule(),
    }


# ----------------------------------------------------------------------
# The observability stack
# ----------------------------------------------------------------------
def build_recorder(
    telemetry: TelemetrySpec,
    *,
    profile: Optional[ProfileSpec] = None,
    seed: Optional[int] = None,
    config: Optional[Dict[str, Any]] = None,
) -> Recorder:
    """Assemble a run's recorder from its telemetry (and profile) specs.

    ``trace_out`` turns on the event sink (with a manifest header carrying
    ``seed`` and ``config``) and span tracing; ``metrics``,
    ``metrics_out``, ``serve_metrics`` and ``slo`` all turn on the metrics
    registry; ``serve_metrics`` and ``slo`` additionally turn on the live
    run registry.  An enabled ``profile`` spec needs span records and a
    metrics registry to attribute against, so it turns both on -- but
    never an event sink, which is why profiling alone changes no trace
    byte.  An all-default spec returns the null recorder and the run
    executes exactly as without observability.
    """
    trace_out = telemetry.trace_out
    profiling = profile is not None and profile.enabled
    want_metrics = bool(
        telemetry.metrics
        or telemetry.metrics_out
        or telemetry.serve_metrics
        or telemetry.slo
        or profiling
    )
    want_runs = bool(telemetry.serve_metrics or telemetry.slo)
    if trace_out is None and not want_metrics and not want_runs:
        return Recorder()
    events = None
    if trace_out is not None:
        events = JsonlEventSink(
            trace_out,
            manifest=build_manifest(seed=seed, config=config),
            flush_every=int(telemetry.trace_flush_every),
        )
    return Recorder(
        events=events,
        metrics=MetricsRegistry() if want_metrics else None,
        spans=(
            SpanTracer()
            if trace_out is not None or telemetry.metrics or profiling
            else None
        ),
        runs=RunRegistry() if want_runs else None,
    )


def build_profiler(
    profile: Optional[ProfileSpec],
    recorder: Recorder,
    meta: Optional[Dict[str, Any]] = None,
):
    """Instantiate the profiler (or ``None`` when the spec is disabled)."""
    if profile is None or not profile.enabled:
        return None
    from repro.prof import Profiler

    return Profiler(profile, recorder, meta=meta)


def build_slo_engine(telemetry: TelemetrySpec, recorder: Recorder):
    """Instantiate the SLO engine over ``recorder`` (or None).

    Raises :class:`~repro.errors.ObservabilityError` for malformed rules.
    """
    if not telemetry.slo:
        return None
    from repro.obs import SloEngine

    return SloEngine(
        list(telemetry.slo), recorder, policy=telemetry.slo_policy
    )


def start_telemetry_server(
    telemetry: TelemetrySpec, recorder: Recorder, engine=None
):
    """Start the live telemetry server (or return None when not asked for)."""
    if telemetry.serve_metrics is None:
        return None
    from repro.obs import TelemetryServer, parse_serve_address

    host, port = parse_serve_address(telemetry.serve_metrics)
    return TelemetryServer(
        recorder, host=host, port=port, slo_engine=engine
    ).start()


class ObservabilityStack:
    """A run's recorder, SLO engine, telemetry server and profiler.

    Entering assembles the stack from ``telemetry`` and ``profile`` and
    installs the recorder as the ambient one (an injected ``recorder`` is
    used as is and left open).  Exiting tears it down in one order:

    1. stop the profiler; on success evaluate the SLOs one final time,
       write the profile and write ``telemetry.metrics_out`` (OpenMetrics)
       -- all while the recorder is still ambient, so ``slo.violated``
       events reach the trace;
    2. restore the previous ambient recorder and close an owned one;
    3. hold the telemetry server for ``telemetry.serve_hold`` seconds,
       then stop it.

    ``seed`` and ``config`` go into the trace manifest; ``meta`` into the
    profile.
    """

    def __init__(
        self,
        telemetry: TelemetrySpec,
        profile: Optional[ProfileSpec] = None,
        *,
        seed: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        meta: Optional[Dict[str, Any]] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.telemetry = telemetry
        self.profile = profile
        self._seed = seed
        self._config = config
        self._meta = meta
        self._owns_recorder = recorder is None
        self.recorder = recorder
        self.slo_engine = None
        self.server = None
        self.profiler = None
        self._scope: Optional[contextlib.ExitStack] = None

    def __enter__(self) -> "ObservabilityStack":
        with contextlib.ExitStack() as scope:
            scope.callback(self._release_server)
            if self._owns_recorder:
                self.recorder = build_recorder(
                    self.telemetry,
                    profile=self.profile,
                    seed=self._seed,
                    config=self._config,
                )
                scope.callback(self.recorder.close)
            self.slo_engine = build_slo_engine(self.telemetry, self.recorder)
            self.server = start_telemetry_server(
                self.telemetry, self.recorder, self.slo_engine
            )
            scope.enter_context(use_recorder(self.recorder))
            self.profiler = build_profiler(
                self.profile, self.recorder, meta=self._meta
            )
            if self.profiler is not None:
                self.profiler.start()
            self._scope = scope.pop_all()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        scope, self._scope = self._scope, None
        with scope:
            if self.profiler is not None:
                self.profiler.stop()
            if exc_type is not None:
                return
            if self.slo_engine is not None:
                self.slo_engine.evaluate(final=True)
            if self.profiler is not None:
                self.profiler.write()
            if self.telemetry.metrics_out is not None:
                from repro.ioutil import atomic_write_text
                from repro.trace.export import to_openmetrics

                atomic_write_text(
                    self.telemetry.metrics_out,
                    to_openmetrics(self.recorder.metrics.snapshot()),
                )

    def _release_server(self) -> None:
        if self.server is None:
            return
        if self.telemetry.serve_hold > 0:
            time.sleep(float(self.telemetry.serve_hold))
        self.server.stop()


# ----------------------------------------------------------------------
# The Session
# ----------------------------------------------------------------------
class Session:
    """Validate a :class:`RunSpec` and execute it through one pipeline.

    ``Session(spec).run()`` is the programmatic equivalent of the CLI:
    it validates the spec, assembles the observability stack from
    ``spec.telemetry``/``spec.profile`` (see :class:`ObservabilityStack`),
    builds the market, dispatches to the right entry point and returns
    the canonical result object:

    ========================  ===========================================
    spec.command              return value of :meth:`execute`
    ========================  ===========================================
    ``toy`` / ``counterexample``  :class:`~repro.core.two_stage.TwoStageResult`
    ``solve``                 :class:`~repro.engine.report.SolveReport`
    ``distributed`` / ``chaos``  :class:`~repro.distributed.protocol.DistributedResult`
                              (or the durable result dict when
                              ``durability.checkpoint_dir`` is set)
    ``swaps``                 :class:`~repro.core.swap_extension.StageThreeResult`
    ``dynamic``               ``{strategy: [EpochOutcome, ...]}`` (or the
                              durable result dict)
    ``fig6``/``fig7``/``fig8``  the figure's experiment rows
    ========================  ===========================================

    ``report`` is a CLI-only composite and is rejected with a
    :class:`~repro.errors.SpecError`.

    ``recorder`` injects a live recorder (used as is, never closed);
    ``market`` injects a pre-built market.  Everything else comes from
    the spec.  Composites enter the session and call :meth:`execute`
    and the public entry points inside the ``with`` block::

        with Session(spec) as session:
            result = session.execute()
    """

    def __init__(
        self,
        spec: RunSpec,
        *,
        recorder: Optional[Recorder] = None,
        market=None,
    ) -> None:
        spec.validate()
        self.spec = spec
        self._market = market
        self.stack = ObservabilityStack(
            spec.telemetry,
            spec.profile,
            seed=spec.market.seed,
            config=spec.to_dict(),
            meta={"command": spec.command, "spec_hash": spec.spec_hash()},
            recorder=recorder,
        )

    # ------------------------------------------------------------------
    @property
    def recorder(self) -> Optional[Recorder]:
        """The run's recorder (None before an owned stack is entered)."""
        return self.stack.recorder

    @property
    def slo_engine(self):
        """The run's SLO engine, or None without ``telemetry.slo``."""
        return self.stack.slo_engine

    @property
    def market(self):
        """The spec's market, built once (emitting ``market.created``)."""
        if self._market is None:
            self._market = build_market(self.spec.market)
            recorder = self.recorder
            if recorder is not None and recorder.enabled:
                recorder.emit(
                    "market.created",
                    scenario=self.spec.market.scenario,
                    buyers=self._market.num_buyers,
                    channels=self._market.num_channels,
                )
        return self._market

    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        self.stack.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stack.__exit__(exc_type, exc, tb)

    def run(self):
        """Execute the spec and return the canonical result object."""
        with self:
            return self.execute()

    # ------------------------------------------------------------------
    def execute(self):
        """Dispatch the spec's command and return its result.

        Call inside the ``with`` block, so the run reports to the
        session's recorder.
        """
        spec = self.spec
        command = spec.command
        if spec.durability.durable and command in (
            "distributed",
            "chaos",
            "dynamic",
        ):
            from repro.runtime.durable import run_durable

            return run_durable(spec, recorder=self.recorder)
        if command in ("toy", "counterexample"):
            return run_two_stage(self.market)
        if command == "solve":
            from repro.engine.registry import solve

            return solve(
                spec.engine.name,
                self.market,
                recorder=self.recorder,
                config=dict(spec.engine.options) or None,
            )
        if command in ("distributed", "chaos"):
            return run_distributed_matching(
                self.market,
                **protocol_arguments(
                    spec, spec.engine.options.get("policy", "default")
                ),
                max_slots=int(spec.engine.options.get("max_slots", 1_000_000)),
                recorder=self.recorder,
                deadline_slots=spec.faults.deadline_slots,
                on_timeout=spec.faults.on_timeout,
            )
        if command == "swaps":
            from repro.core.swap_extension import coordinated_swaps

            result = run_two_stage(self.market, record_trace=False)
            return coordinated_swaps(self.market, result.matching)
        if command == "dynamic":
            return self._run_dynamic()
        if command in ("fig6", "fig7", "fig8"):
            return self._run_figure()
        raise SpecError(
            f"spec.command {command!r} has no Session dispatch "
            f"(the 'report' composite is CLI-only)"
        )

    def _run_dynamic(self):
        from repro.dynamic.online import OnlineMatcher, RematchStrategy

        workload = self.spec.market.workload
        strategies = (
            list(RematchStrategy)
            if workload.strategy == "both"
            else [RematchStrategy(workload.strategy)]
        )
        return {
            strategy: OnlineMatcher(strategy, recorder=self.recorder).run(
                build_generator(self.spec.market).epochs(workload.epochs)
            )
            for strategy in strategies
        }

    def _run_figure(self):
        from repro.analysis.paper_figures import figure_spec, run_figure

        spec = self.spec
        options = spec.engine.options
        figure = int(spec.command[3])
        fig_spec = figure_spec(figure, options.get("panel", "a"))
        return run_figure(
            fig_spec,
            repetitions=options.get("repetitions"),
            seed=spec.market.seed,
            recorder=self.recorder,
            jobs=spec.parallel.jobs,
        )
