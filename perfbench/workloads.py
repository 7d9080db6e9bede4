"""Workloads: seeded request streams and the loops that drive the daemon.

Every workload is built from ``--seed`` alone, so the same seed yields
the same request payloads; the daemon only ever sees those payloads.
All traffic goes through :class:`repro.service.client.ServiceClient`
from one process, over at most two keep-alive connections.
"""

from __future__ import annotations

import math
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.service.client import ServiceClient
from repro.service.errors import (AdmissionRejected, DeadlineExceeded,
                                  ServiceError)

from spans import SpanRecorder
from stats import lateness, open_loop_latency

#: DES rounds of every request.  Two rounds keep a traced request of the
#: ``campaign`` shape near three seconds, so a run of every workload fits
#: the benchmark's time budget; the paper's full 16 rounds would take ten
#: times as long per trace.
ROUNDS = 2

#: Client-side wait for one request (refusal beyond it = timed out).
REQUEST_TIMEOUT_S = 120.0

CAMPAIGN_TRACES = 32
BURST_TRACES = 8
#: Six requests on two executor threads drain in three waves, so the
#: median latency falls inside the middle wave; with four (two waves) it
#: fell between them and swung with every run.
BURST_SIZE = 6
#: A burst drains in about 5 s, so bursts do not pile up.
BURST_PERIOD_S = 8.0
#: One in this many ``interactive`` requests of each masking uses fresh
#: keys; the others repeat an earlier request exactly.  A hit served
#: while the other client's miss holds the interpreter lock takes about
#: 110 ms instead of 48 ms, and each miss slows two or three such hits.
#: With this few misses, on fixed positions, the median stays inside the
#: uncontended hit mode and the number of misses does not depend on the
#: seed (at 3 in 4 repeats the median fell between the two modes).
FRESH_EVERY = 16
PAIR_MASKINGS = ("selective", "none")


def _word(rng: random.Random) -> str:
    return f"0x{rng.getrandbits(64):016X}"


def population(rng: random.Random, n_traces: int) -> dict:
    return {"mode": "population", "masking": "selective",
            "engine": "vector", "rounds": ROUNDS, "n_traces": n_traces,
            "key": _word(rng), "seed": rng.getrandbits(31)}


def pair(rng: random.Random, masking: str) -> dict:
    return {"mode": "pair", "masking": masking, "rounds": ROUNDS,
            "key": _word(rng), "key_b": _word(rng),
            "plaintext": _word(rng)}


#: Clients (keep-alive connections) of every workload.
CLIENTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(masking, engine)`` program variants the workload uses.
    variants: tuple
    open_loop: bool = False


WORKLOADS = {
    "campaign": Workload("campaign", (("selective", "vector"),)),
    "interactive": Workload("interactive",
                            (("selective", None), ("none", None))),
    "burst": Workload("burst", (("selective", "vector"),), open_loop=True),
}


def warmup_payload(masking: str, engine: Optional[str]) -> dict:
    """The smallest request that loads one program variant; it bypasses
    the verdict cache so it cannot serve a later request."""
    return {"mode": "population", "masking": masking, "engine": engine,
            "rounds": ROUNDS, "n_traces": 2, "seed": 1, "cache": False}


class RequestStream:
    """The workload's request payloads, in order, from one seed.

    ``campaign`` and ``burst`` send fresh seeds (every request misses the
    verdict cache).  ``interactive`` alternates the masking of a pair
    request between ``selective`` and ``none`` (Fig. 8 vs Fig. 9); one
    in :data:`FRESH_EVERY` requests of each masking uses fresh keys
    (verdict-cache writes), the others repeat an earlier request of the
    same masking exactly (reads).
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self._rng = random.Random(f"{workload}:{seed}")
        self._history = {masking: [] for masking in PAIR_MASKINGS}
        self._count = 0
        self._lock = threading.Lock()

    def next(self) -> tuple[int, dict, bool]:
        """``(index, payload, is_repeat)`` of the next request."""
        with self._lock:
            index = self._count
            self._count += 1
            if self.workload == "campaign":
                return index, population(self._rng, CAMPAIGN_TRACES), False
            if self.workload == "burst":
                return index, population(self._rng, BURST_TRACES), False
            masking = PAIR_MASKINGS[index % 2]
            earlier = self._history[masking]
            # The two maskings take their fresh turns half a period apart.
            turn = (index // 2 + index % 2 * FRESH_EVERY // 2) % FRESH_EVERY
            if earlier and turn:
                return index, dict(self._rng.choice(earlier)), True
            payload = pair(self._rng, masking)
            earlier.append(payload)
            return index, payload, False

    def shape(self) -> dict:
        """A representative request of this workload (for replays and
        the solo daemon-vs-local comparison) from a separate stream."""
        rng = random.Random(f"{self.workload}:shape")
        if self.workload == "campaign":
            return population(rng, CAMPAIGN_TRACES)
        if self.workload == "burst":
            return population(rng, BURST_TRACES)
        return pair(rng, "selective")


class TracedClient(ServiceClient):
    """:class:`ServiceClient` that counts HTTP calls and records a span
    around each (``service.client.<METHOD>``)."""

    def __init__(self, base_url: str, recorder: SpanRecorder):
        super().__init__(base_url, timeout_s=REQUEST_TIMEOUT_S)
        self.recorder = recorder
        self.calls = 0

    def _call_text(self, method, path, *args, **kwargs):
        self.calls += 1
        with self.recorder.span(f"service.client.{method}"):
            return super()._call_text(method, path, *args, **kwargs)


@dataclass
class Outcome:
    """What happened to one request of the measured window."""
    index: int
    payload: dict
    repeat: bool
    due: float
    sent: float
    done: float = 0.0
    #: ``ok``, ``failed``, ``refused``, ``timed_out`` or ``wrong``.
    kind: str = "ok"
    document: Optional[dict] = None
    calls: int = 0
    traced: bool = False
    error: str = ""
    #: Number of the client (connection) that sent the request.
    client: int = 0

    @property
    def latency(self) -> float:
        return open_loop_latency(self.due, self.done)

    @property
    def late(self) -> float:
        return lateness(self.due, self.sent)

    @property
    def result(self) -> dict:
        return self.document["result"]


@dataclass
class Window:
    outcomes: list = field(default_factory=list)
    start: float = 0.0
    #: ``(due, last completion)`` of each burst (open loop only).
    bursts: list = field(default_factory=list)


def _classify(error: ServiceError) -> str:
    if isinstance(error, AdmissionRejected):
        return "refused"
    # The client reports its own wait budget running out as a plain
    # ServiceError whose message names it.
    if isinstance(error, DeadlineExceeded) or "client-side wait" in str(
            error):
        return "timed_out"
    return "failed"


def _assess(client: TracedClient, recorder: SpanRecorder,
            outcome: Outcome, parent: Optional[int]) -> None:
    calls = client.calls
    with recorder.span("service.client.assess",
                       request=str(outcome.index), parent=parent):
        try:
            outcome.document = client.assess_detailed(
                outcome.payload, timeout_s=REQUEST_TIMEOUT_S)
        except ServiceError as error:
            outcome.kind = _classify(error)
            outcome.error = f"{type(error).__name__}: {error}"
    outcome.done = time.perf_counter()
    outcome.calls = client.calls - calls
    outcome.traced = recorder.enabled


def closed_loop(clients: list, recorder: SpanRecorder,
                stream: RequestStream, seconds: float,
                parent: Optional[int]) -> Window:
    """Each client sends its next request when the previous one returns,
    until ``seconds`` have passed; requests in flight then finish."""
    window = Window(start=time.perf_counter())
    stop_at = window.start + seconds
    lock = threading.Lock()

    def client_loop(client: TracedClient) -> None:
        while time.perf_counter() < stop_at:
            index, payload, repeat = stream.next()
            now = time.perf_counter()
            outcome = Outcome(index, payload, repeat, due=now, sent=now,
                              client=clients.index(client))
            _assess(client, recorder, outcome, parent)
            with lock:
                window.outcomes.append(outcome)

    _run_threads(client_loop, clients)
    return window


def open_loop(clients: list, recorder: SpanRecorder,
              stream: RequestStream, seconds: float,
              parent: Optional[int]) -> Window:
    """Every :data:`BURST_PERIOD_S`, :data:`BURST_SIZE` requests are due
    together, whether or not earlier ones finished.

    The first client submits each burst (without waiting) and both
    clients then long-poll the outstanding requests oldest first; the
    submitter never waits past the next due time.  Latency runs from the
    due time to the moment a poll saw the request terminal.
    """
    window = Window(start=time.perf_counter())
    dues = [window.start + k * BURST_PERIOD_S
            for k in range(max(1, math.ceil(seconds / BURST_PERIOD_S)))]
    pending: deque = deque()
    lock = threading.Lock()
    state = {"next_burst": 0}

    def submit_due(client: TracedClient) -> None:
        while state["next_burst"] < len(dues) \
                and time.perf_counter() >= dues[state["next_burst"]]:
            due = dues[state["next_burst"]]
            state["next_burst"] += 1
            for _ in range(BURST_SIZE):
                index, payload, repeat = stream.next()
                outcome = Outcome(index, payload, repeat, due=due,
                                  sent=time.perf_counter())
                calls = client.calls
                with recorder.span("service.client.submit",
                                   request=str(index), parent=parent):
                    try:
                        outcome.document = client.submit(payload)
                    except ServiceError as error:
                        outcome.kind = _classify(error)
                        outcome.error = f"{type(error).__name__}: {error}"
                        outcome.done = time.perf_counter()
                outcome.calls = client.calls - calls
                outcome.traced = recorder.enabled
                with lock:
                    window.outcomes.append(outcome)
                    if outcome.kind == "ok":
                        pending.append(outcome)

    def client_loop(client: TracedClient, submitter: bool) -> None:
        while True:
            if submitter:
                submit_due(client)
            next_due = dues[state["next_burst"]] \
                if state["next_burst"] < len(dues) else None
            with lock:
                outcome = pending.popleft() if pending else None
            if outcome is None:
                if next_due is None:
                    return
                time.sleep(min(0.005, max(next_due - time.perf_counter(),
                                          0.0)))
                continue
            wait = REQUEST_TIMEOUT_S
            if submitter and next_due is not None:
                wait = max(next_due - time.perf_counter(), 0.0)
            calls = client.calls
            with recorder.span("service.client.status",
                               request=str(outcome.index), parent=parent):
                document = client.status(outcome.document["id"],
                                         wait_s=wait)
            outcome.calls += client.calls - calls
            if not document.get("terminal"):
                if time.perf_counter() - outcome.due > REQUEST_TIMEOUT_S:
                    outcome.kind = "timed_out"
                    outcome.done = time.perf_counter()
                    continue
                with lock:
                    pending.appendleft(outcome)
                continue
            outcome.done = time.perf_counter()
            outcome.document = document
            if document.get("state") != "done":
                outcome.kind = "failed"
                outcome.error = str(document.get("error"))

    _run_threads(lambda client: client_loop(client, client is clients[0]),
                 clients)
    for due in dues:
        members = [o for o in window.outcomes if o.due == due]
        if members:
            window.bursts.append((due, max(o.done for o in members)))
    return window


def _run_threads(target, clients: list) -> None:
    errors: list = []

    def guarded(client) -> None:
        try:
            target(client)
        except BaseException as error:  # surfaced after join
            errors.append(error)
            raise

    threads = [threading.Thread(target=guarded, args=(client,),
                                name=f"client-{number}")
               for number, client in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
