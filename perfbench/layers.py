"""In-process replay of one request through the public layer entry points.

Run in the traced pass only, after the daemon's window, so it never
competes with the daemon for the CPU.  Every call is wrapped in a span
named after its module, and timed; the numbers become the per-layer
metrics of the workload's request shape.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.attacks.dpa import random_plaintexts
from repro.harness.engine import SimJob, default_cache, run_jobs
from repro.machine import fastpath, vector
from repro.obs.events import EventLog
from repro.obs.leakage import assess_pair, assess_population
from repro.service.executor import (DEFAULT_CHUNK_SIZE, execute_assessment,
                                    trace_digest)
from repro.service.journal import RequestJournal
from repro.service.protocol import AssessRequest

from spans import SpanRecorder
from stats import median

#: Repetitions of the sub-millisecond calls (their median is reported).
REPEATS = 20


def _timed(recorder: SpanRecorder, name: str, call):
    with recorder.span(name):
        start = time.perf_counter()
        value = call()
        return value, time.perf_counter() - start


def _median_of(recorder: SpanRecorder, name: str, call,
               repeats: int = REPEATS) -> float:
    return median([_timed(recorder, name, call)[1]
                   for _ in range(repeats)])


def _jobs(request: AssessRequest, program, width: int, engine,
          observe: bool = False) -> list[SimJob]:
    """The first ``width`` jobs of the request, shaped like the service
    builds them (per-trace ``noise_seed = index + 1``)."""
    if request.mode == "pair":
        pairs = [(request.key, request.plaintext),
                 (request.key_b, request.plaintext)]
    else:
        pairs = [(request.key, plaintext) for plaintext in
                 random_plaintexts(request.n_traces, seed=request.seed)]
    return [SimJob(program=program, des_pair=pair_,
                   noise_sigma=request.noise_sigma, noise_seed=index + 1,
                   label=f"trace[{index}]", max_cycles=request.max_cycles,
                   engine=engine, observe=observe)
            for index, pair_ in enumerate(pairs[:width])]


def replay(payload: dict, recorder: SpanRecorder, scratch: Path,
           metrics) -> float:
    """Put the per-layer numbers of one request of ``payload``'s shape
    into ``metrics``; returns the untraced ``execute_assessment`` wall
    time (the local side of ``service.executor.daemon_over_local``).

    Must run in a process whose compile cache directory is pre-filled
    (programs and schedules on disk) and that has not yet loaded the
    program's schedule or vector plan, so the first calls are the disk
    hits and plan compilations a restarted daemon pays.
    """
    request = AssessRequest.from_dict(payload)
    cache = default_cache()
    compile_request = request.compile_request()

    program, seconds = _timed(recorder, "harness.engine.program_for",
                              lambda: cache.program_for(compile_request))
    metrics.put("harness.engine.program_for_s", seconds, "s")
    metrics.put("harness.engine.program_for_memory_s", _median_of(
        recorder, "harness.engine.program_for",
        lambda: cache.program_for(compile_request)), "s", REPEATS)

    bound, seconds = _timed(recorder, "machine.fastpath.bound_schedule_for",
                            lambda: fastpath.bound_schedule_for(program))
    metrics.put("machine.fastpath.load_s", seconds, "s")
    recorded, seconds = _timed(recorder, "machine.fastpath.record_schedule",
                               lambda: fastpath.record_schedule(program))
    metrics.put("machine.fastpath.record_s", seconds, "s")
    cycles = bound.schedule.cycles
    if recorded.cycles != cycles:
        raise RuntimeError(f"fresh recording has {recorded.cycles} cycles, "
                           f"the cached schedule {cycles}")
    metrics.put("machine.fastpath.cycles", cycles, "count")

    _, seconds = _timed(recorder, "machine.vector.plan_for",
                        lambda: vector.plan_for(program, bound))
    metrics.put("machine.vector.plan_s", seconds, "s")
    width = min(request.n_traces if request.mode == "population" else 2,
                DEFAULT_CHUNK_SIZE)
    batch = _jobs(request, program, width, "vector")
    first, first_s = _timed(recorder, "machine.vector.run_job_batch",
                            lambda: vector.run_job_batch(batch, program))
    warm, warm_s = _timed(recorder, "machine.vector.run_job_batch",
                          lambda: vector.run_job_batch(batch, program))
    if first is None or warm is None:
        raise RuntimeError("the vector batch kernel declined the batch")
    metrics.put("machine.vector.batch_first_s_per_trace", first_s / width,
                "s", width)
    metrics.put("machine.vector.batch_warm_s_per_trace", warm_s / width,
                "s", width)
    metrics.put("machine.vector.sim_cycles_per_s", cycles * width / warm_s,
                "1/s", width)

    chunk = _jobs(request, program, width, request.engine)
    # The engine's lazy per-process set-up is paid here, not timed below.
    with recorder.span("harness.engine.run_jobs"):
        run_jobs(chunk)
    results, untraced_s = _timed(recorder, "harness.engine.run_jobs",
                                 lambda: run_jobs(chunk))
    observed = _jobs(request, program, width, request.engine, observe=True)
    with obs.scope(force=True):
        traced_results, traced_s = _timed(
            recorder, "harness.engine.run_jobs",
            lambda: run_jobs(observed))
    if trace_digest(traced_results) != trace_digest(results):
        raise RuntimeError("traced run_jobs changed the energy traces")
    metrics.put("harness.engine.run_jobs_untraced_s_per_trace",
                untraced_s / width, "s", width)
    metrics.put("harness.engine.run_jobs_traced_s_per_trace",
                traced_s / width, "s", width)
    metrics.put("harness.engine.traced_over_untraced",
                traced_s / untraced_s, "ratio", width)

    metrics.put("service.executor.digest_s", _median_of(
        recorder, "service.executor.trace_digest",
        lambda: trace_digest(results)), "s", REPEATS)
    matrix = np.vstack([result.energy for result in results])
    partition = np.arange(width, dtype=np.int64) % 2
    metrics.put("obs.leakage.population_s", _median_of(
        recorder, "obs.leakage.assess_population",
        lambda: assess_population(matrix, partition, results[0].markers)),
        "s", REPEATS)
    metrics.put("obs.leakage.pair_s", _median_of(
        recorder, "obs.leakage.assess_pair",
        lambda: assess_pair(results[0].trace, results[1].trace)),
        "s", REPEATS)

    document, local_s = _timed(recorder,
                               "service.executor.execute_assessment",
                               lambda: execute_assessment(request))
    metrics.put("service.executor.assess_untraced_s", local_s, "s")
    with obs.scope(force=True):
        traced_document, seconds = _timed(
            recorder, "service.executor.execute_assessment",
            lambda: execute_assessment(request, observe=True))
    metrics.put("service.executor.assess_traced_s", seconds, "s")
    if traced_document["trace_digest"] != document["trace_digest"]:
        raise RuntimeError("a traced assessment changed the trace digest")
    text, seconds = _timed(recorder, "service.executor.serialize",
                           lambda: json.dumps(document, sort_keys=True))
    metrics.put("service.executor.serialize_s", seconds, "s")
    metrics.put("service.executor.result_bytes", len(text.encode()),
                "count")

    journal = RequestJournal(scratch / "replay-journal.jsonl")
    events = EventLog(scratch / "replay-events.jsonl")
    try:
        key = request.program_key()
        metrics.put("service.journal.append_s", _median_of(
            recorder, "service.journal.append",
            lambda: journal.submitted("req-replay", request.client,
                                      request.priority, key)), "s", REPEATS)
        metrics.put("obs.events.emit_s", _median_of(
            recorder, "obs.events.emit",
            lambda: events.emit("replay", id="req-replay", state="done")),
            "s", REPEATS)
    finally:
        events.close()
        journal.close()
    return local_s
