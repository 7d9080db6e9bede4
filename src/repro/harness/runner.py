"""Run programs under the energy tracker and capture traces."""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..energy.params import DEFAULT_PARAMS, EnergyParams
from ..energy.trace import EnergyTrace
from ..energy.tracker import COMPONENTS, EnergyTracker
from ..isa.program import Program
from ..machine import engines, fastpath
from ..machine.cpu import CPU
from ..machine.exceptions import CycleLimitExceeded
from ..programs.workloads import key_words, plaintext_words


class RunResult:
    """A finished simulation: CPU state plus its energy trace."""

    def __init__(self, cpu: CPU, tracker: EnergyTracker, label: str = "",
                 engine: str = "reference"):
        self.cpu = cpu
        self.tracker = tracker
        #: Engine that produced the trace: a registry name (``"fast"``,
        #: ``"vector"``, ``"reference"``) or ``"<name>-fallback"`` when the
        #: requested engine declined the run (recorded schedule diverged or
        #: the program fell outside the engine's model) and the trace was
        #: re-run down the registry's fallback chain.
        self.engine = engine
        #: Per-run attribution sink (None unless attribution was enabled).
        self.attribution = tracker.attribution
        self.trace = EnergyTrace.from_tracker(tracker,
                                              markers=cpu.pipeline.markers,
                                              label=label)

    @property
    def cycles(self) -> int:
        return self.cpu.cycles

    @property
    def total_uj(self) -> float:
        return self.tracker.total_energy_uj

    @property
    def average_pj(self) -> float:
        return self.tracker.average_energy_pj


def run_with_trace(program: Program,
                   inputs: Optional[dict[str, list[int]]] = None,
                   params: EnergyParams = DEFAULT_PARAMS,
                   collect_components: bool = False,
                   label: str = "",
                   max_cycles: int = 50_000_000,
                   noise_sigma: float = 0.0,
                   noise_seed: int = 0,
                   operand_isolation: bool = True,
                   stream=None, keep_trace: bool = True,
                   engine: Optional[str] = None) -> RunResult:
    """Assembled program + symbol inputs -> executed RunResult with trace.

    ``engine`` selects the execution engine from the registry
    (:mod:`repro.machine.engines`): ``"fast"`` replays the program's
    recorded cycle schedule (bit-identical output; see
    :mod:`repro.machine.fastpath`), ``"vector"`` replays it through the
    batch-native NumPy engine (also bit-identical; see
    :mod:`repro.machine.vector`), ``"reference"`` steps the five-stage
    pipeline cycle by cycle.  ``None`` resolves ``$REPRO_ENGINE`` and
    defaults to ``"fast"``.  A run whose engine declines it — the recorded
    control path diverges (input-dependent branching) or the program falls
    outside the engine's model — is transparently re-run with fresh state
    down the registry's fallback chain (``vector`` -> ``fast`` ->
    ``reference``); nothing from an abandoned attempt leaks into the
    result, and the final :attr:`RunResult.engine` is labeled
    ``"<requested>-fallback"``.  Streaming runs (``stream`` set) always
    use the reference engine so a mid-run divergence can never leave a
    partially written trace behind; attribution runs substitute each
    engine's declared ``hooked`` engine, since replaying per-cycle hooks
    is what attribution needs.

    When the observability sink is enabled (:func:`repro.obs.enabled`),
    the run executes under an ``execute`` span, collects the dynamic
    instruction mix, and publishes pipeline/energy metrics to the current
    registry; with the sink disabled (the default) the simulated path is
    identical to an uninstrumented runner.

    When attribution is enabled (:func:`repro.obs.attribution_enabled`),
    the tracker additionally books every energy increment to its
    (pc, unit, class, secure) provenance key; the per-run sink is
    annotated with the program's debug info and merged into the current
    observability context.

    ``stream`` is an optional bounded-memory per-cycle trace writer
    (:class:`~repro.harness.io.StreamingTraceWriter`); pass
    ``keep_trace=False`` alongside it to drop the in-memory trace
    entirely (the returned result then has an empty energy vector).
    """
    resolved = engines.resolve(engine)
    if stream is not None:
        resolved = "reference"
    elif obs.attribution_enabled():
        hooked = engines.get(resolved).hooked
        if hooked is not None:
            resolved = hooked
    requested = resolved
    engine_label = None
    while True:
        try:
            return _run_with_trace_once(
                program, inputs, params, collect_components, label,
                max_cycles, noise_sigma, noise_seed, operand_isolation,
                stream, keep_trace, engine=resolved,
                engine_label=engine_label)
        except fastpath.ScheduleFallback:
            fallback = engines.get(resolved).fallback
            if fallback is None:
                raise
            if obs.enabled():
                obs.counter("engine_fallbacks",
                            "runs served by a fallback engine instead of "
                            "the requested one").inc()
            resolved = fallback
            engine_label = f"{requested}-fallback"


def _run_with_trace_once(program, inputs, params, collect_components,
                         label, max_cycles, noise_sigma, noise_seed,
                         operand_isolation, stream, keep_trace, *,
                         engine: str,
                         engine_label: Optional[str] = None) -> RunResult:
    """One execution attempt on one engine, with fresh tracker/CPU state.

    The engine's factory or ``run`` may raise :class:`~repro.machine
    .fastpath.ScheduleFallback` at any point before completion; the
    abandoned tracker, memory, and attribution sink are discarded
    unmerged, so the caller's retry starts from scratch.  ``engine_label``
    overrides the engine name recorded on the result and the execute span
    (used to tag fallback re-runs with the originally requested engine).
    """
    observing = obs.enabled()
    attribution = obs.AttributionSink() if obs.attribution_enabled() \
        else None
    tracker = EnergyTracker(params, collect_components=collect_components,
                            noise_sigma=noise_sigma, noise_seed=noise_seed,
                            attribution=attribution, stream=stream,
                            keep_trace=keep_trace)
    cpu = engines.get(engine).factory(program, tracker,
                                      operand_isolation=operand_isolation,
                                      collect_mix=observing,
                                      max_cycles=max_cycles)
    if inputs:
        for symbol, words in inputs.items():
            cpu.write_symbol_words(symbol, words)
    reported = engine_label if engine_label is not None else engine
    with obs.span("execute", label=label, engine=reported):
        try:
            cpu.run(max_cycles=max_cycles)
        except CycleLimitExceeded as overrun:
            # Tag the overrun with the job it belongs to; batch failure
            # records surface the label alongside pc/cycle context.
            overrun.label = label
            raise
    if observing:
        publish_run_metrics(cpu.pipeline.stats, cpu.pipeline.opcode_mix,
                            tracker.totals, tracker.counts, tracker.cycles)
    if attribution is not None:
        attribution.annotate(program)
        obs.attribution().merge(attribution)
    return RunResult(cpu, tracker, label=label, engine=reported)


def publish_run_metrics(stats: dict, mix: dict, totals: dict[str, float],
                        counts: dict[str, int], cycles: int) -> None:
    """Publish one finished run's pipeline and energy metrics.

    The single publication point for both dispatch paths: the per-job
    runner passes its pipeline and tracker, the vector batch engine one
    call per trace in submission order, so gauges add in the same order
    either way.
    """
    registry = obs.registry()
    executed = registry.counter(
        "instructions_executed",
        "retired instructions by opcode and secure bit")
    for (op, secure), count in sorted(mix.items()):
        executed.inc(count, opcode=op, secure=secure)
    secure_retired = stats["secure_retired"]
    registry.counter("instructions_retired",
                     "retired instructions by secure bit") \
        .inc(secure_retired, secure=True)
    registry.counter("instructions_retired") \
        .inc(stats["retired"] - secure_retired, secure=False)
    registry.counter("stall_cycles", "pipeline stalls by cause") \
        .inc(stats["stall_cycles"], reason="load_use")
    registry.counter("squashed_instructions",
                     "instructions squashed by cause") \
        .inc(stats["squashed_instructions"], reason="redirect")
    taken = stats["branches_taken"]
    registry.counter("branches_executed", "branches by outcome") \
        .inc(taken, outcome="taken")
    registry.counter("branches_executed") \
        .inc(stats["branches_executed"] - taken, outcome="not_taken")
    # Energy gauges add as per-run totals; the event counters and the
    # summable ``cycles`` twin keep rates computable after aggregation.
    component_gauge = registry.gauge(
        "energy_component_pj",
        "per-component energy total of the run (pJ)")
    event_counter = registry.counter(
        "energy_component_events",
        "per-component event count of the run (accesses/operations)")
    for name in COMPONENTS:
        component_gauge.add(totals[name], component=name)
        event_counter.inc(counts[name], component=name)
    if totals.get("noise"):
        component_gauge.add(totals["noise"], component="noise")
        event_counter.inc(counts["noise"], component="noise")
    registry.gauge("energy_total_pj", "total energy of the run (pJ)") \
        .add(sum(totals.values()))
    registry.gauge("cycles_simulated", "simulated cycles").add(cycles)
    registry.counter("cycles", "simulated cycles (summable)").inc(cycles)


def des_run(program: Program, key64: int, plaintext64: int,
            params: EnergyParams = DEFAULT_PARAMS,
            collect_components: bool = False,
            label: str = "", noise_sigma: float = 0.0,
            noise_seed: int = 0, engine: Optional[str] = None) -> RunResult:
    """Run a DES program image on one (key, plaintext) pair with tracing."""
    inputs = {"key": key_words(key64)}
    if "plaintext" in program.symbols:
        inputs["plaintext"] = plaintext_words(plaintext64)
    return run_with_trace(program, inputs, params=params,
                          collect_components=collect_components, label=label,
                          noise_sigma=noise_sigma, noise_seed=noise_seed,
                          engine=engine)
