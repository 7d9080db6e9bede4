"""Correctness gate applied to every run's daemon results.

* every result's ``cycles`` equals the recorded schedule length of its
  program;
* exact repeats of a request return identical trace digests and
  verdicts;
* a seeded sample of results matches, bit for bit in digest and verdict,
  :func:`~repro.service.executor.execute_assessment` run untraced in this
  process — the batch-CLI path the golden digests anchor.

A result that fails any check turns its outcome into ``wrong``.
"""

from __future__ import annotations

import json
import random

from repro.harness.engine import default_cache
from repro.machine import fastpath
from repro.service.executor import execute_assessment
from repro.service.protocol import AssessRequest

#: Results per run re-executed in process.
SAMPLE_SIZE = 2

#: Result fields that must agree bit for bit.
IDENTITY_FIELDS = ("n_traces", "cycles", "trace_digest", "verdict")


def _identity(result: dict) -> str:
    """Canonical JSON of the identity fields (string equality also holds
    for NaN statistics and for tuples that the wire turned into lists)."""
    return json.dumps({name: result[name] for name in IDENTITY_FIELDS},
                      sort_keys=True)


def _schedule_cycles(request: AssessRequest, memo: dict) -> int:
    key = request.program_key()
    if key not in memo:
        program = default_cache().program_for(request.compile_request())
        memo[key] = fastpath.bound_schedule_for(program).schedule.cycles
    return memo[key]


def _mark_wrong(outcome, reason: str, problems: list) -> None:
    outcome.kind = "wrong"
    outcome.error = reason
    problems.append(f"request {outcome.index}: {reason}")


def verify(outcomes: list, seed: int) -> list[str]:
    """Apply the gate; returns the problems found (empty when correct)."""
    problems: list[str] = []
    cycles_memo: dict = {}
    first_of: dict = {}
    ok = [o for o in outcomes if o.kind == "ok"]
    for outcome in ok:
        request = AssessRequest.from_dict(outcome.payload)
        result = outcome.result
        expected = [_schedule_cycles(request, cycles_memo)]
        if result["cycles"] != expected:
            _mark_wrong(outcome, f"cycles {result['cycles']} != recorded "
                                 f"schedule {expected}", problems)
            continue
        if result["n_traces"] != (2 if request.mode == "pair"
                                  else request.n_traces):
            _mark_wrong(outcome, f"{result['n_traces']} traces", problems)
            continue
        key = json.dumps(outcome.payload, sort_keys=True)
        first = first_of.setdefault(key, outcome)
        if _identity(first.result) != _identity(result):
            _mark_wrong(outcome, f"repeat of request {first.index} "
                                 "returned another digest or verdict",
                        problems)
    candidates = [o for o in ok if o.kind == "ok"]
    rng = random.Random(f"check:{seed}")
    for outcome in rng.sample(candidates,
                              min(SAMPLE_SIZE, len(candidates))):
        local = execute_assessment(AssessRequest.from_dict(outcome.payload))
        if _identity(local) != _identity(outcome.result):
            _mark_wrong(outcome, "daemon result differs from the local "
                                 "untraced execute_assessment", problems)
    return problems
