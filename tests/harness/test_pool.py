"""Shared worker pool: leasing, generations, fingerprints, shutdown.

Every test runs against a real forked ``ProcessPoolExecutor`` (the pool
module has no mock path) but keeps worker counts at 1, so the suite
stays cheap.  The singleton is reset around every test — shared state
must never leak between tests, exactly as it must never leak between a
daemon's requests.
"""

import os

import pytest

from repro.harness import pool as pool_module
from repro.harness import resilience
from repro.harness.engine import SimJob, run_jobs
from repro.harness.pool import (FINGERPRINT_KEYS, SharedWorkerPool,
                                environment_fingerprint)
from repro.isa.assembler import assemble

ASM = """
.data
x: .word 5
.text
lw $t0, x
xor $t1, $t0, $t0
sw $t1, x
nop
halt
"""


def _echo(value):
    return value


@pytest.fixture(autouse=True)
def fresh_pool(monkeypatch):
    """Isolate the process-wide singleton and the fault-plan env."""
    monkeypatch.delenv(resilience.FAULT_PLAN_ENV, raising=False)
    pool_module.reset_shared_pool()
    yield
    pool_module.reset_shared_pool()


def _jobs(count=2):
    program = assemble(ASM)
    return [SimJob(program=program, noise_sigma=0.5, noise_seed=i + 1,
                   label=f"job[{i}]") for i in range(count)]


# -- leasing ----------------------------------------------------------------


def test_second_acquire_reuses_warm_generation():
    pool = SharedWorkerPool()
    lease = pool.acquire(1)
    assert lease is not None and not lease.private
    assert lease.submit(_echo, 17).result(timeout=30) == 17
    lease.release()
    again = pool.acquire(1)
    assert again is not None and not again.private
    assert again.submit(_echo, 18).result(timeout=30) == 18
    again.release()
    stats = pool.shutdown(grace_s=10.0)
    assert stats["cold_builds"] == 1
    assert stats["warm_acquires"] == 1
    assert stats["generation"] == 1
    assert stats["stranded_workers"] == 0


def test_concurrent_acquire_overflows_to_private_lease():
    pool = SharedWorkerPool()
    holder = pool.acquire(1)
    overflow = pool.acquire(1)
    try:
        assert holder is not None and not holder.private
        assert overflow is not None and overflow.private
        # The overflow lease really works, on its own executor.
        assert overflow.submit(_echo, 3).result(timeout=30) == 3
    finally:
        overflow.release()
        holder.release()
    stats = pool.shutdown(grace_s=10.0)
    assert stats["shared_leases"] == 1
    assert stats["private_leases"] == 1
    assert stats["stranded_workers"] == 0


def test_kill_and_rebuild_forks_a_fresh_generation():
    pool = SharedWorkerPool()
    lease = pool.acquire(1)
    first_generation = pool.stats()["generation"]
    lease.kill()
    assert lease.rebuild()
    assert pool.stats()["generation"] == first_generation + 1
    assert lease.submit(_echo, 5).result(timeout=30) == 5
    lease.release()
    stats = pool.shutdown(grace_s=10.0)
    assert stats["rebuilds"] == 1
    assert stats["stranded_workers"] == 0


def test_release_with_running_work_retires_the_generation():
    import time as time_module

    pool = SharedWorkerPool()
    lease = pool.acquire(1)
    generation = pool.stats()["generation"]
    lease.submit(time_module.sleep, 60)
    lease.release()  # must not block for the sleeping worker
    follow_up = pool.acquire(1)
    assert follow_up is not None
    assert pool.stats()["generation"] == generation + 1
    assert follow_up.submit(_echo, 9).result(timeout=30) == 9
    follow_up.release()
    assert pool.shutdown(grace_s=10.0)["stranded_workers"] == 0


# -- environment fingerprinting ---------------------------------------------


def test_fingerprint_covers_the_worker_facing_environment(monkeypatch):
    for key in FINGERPRINT_KEYS:
        monkeypatch.delenv(key, raising=False)
    baseline = environment_fingerprint()
    monkeypatch.setenv("REPRO_FAULT_PLAN", "1:1:crash")
    assert environment_fingerprint() != baseline


def test_fingerprint_change_rebuilds_idle_pool(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    pool = SharedWorkerPool()
    lease = pool.acquire(1)
    lease.release()
    generation = pool.stats()["generation"]
    monkeypatch.setenv("REPRO_FAULT_PLAN", "99:9:crash")  # never matches
    lease = pool.acquire(1)
    assert lease is not None and not lease.private
    assert pool.stats()["generation"] == generation + 1
    assert pool.stats()["fingerprint_rebuilds"] == 1
    lease.release()
    pool.shutdown(grace_s=10.0)


# -- probes -----------------------------------------------------------------


def test_probe_passes_live_pool_and_quarantines_dead_workers():
    pool = SharedWorkerPool()
    assert pool.probe(timeout_s=30.0)  # nothing built yet: trivially fine
    lease = pool.acquire(1)
    lease.release()
    assert pool.probe(timeout_s=30.0)
    # Kill the workers behind the pool's back: the probe must notice and
    # quarantine the generation instead of leaving it wedged.
    generation = pool.stats()["generation"]
    executor = pool._executor
    for process in list(executor._processes.values()):
        process.kill()
    assert not pool.probe(timeout_s=10.0)
    assert pool.stats()["probe_failures"] == 1
    lease = pool.acquire(1)
    assert lease is not None
    assert pool.stats()["generation"] == generation + 1
    assert lease.submit(_echo, 2).result(timeout=30) == 2
    lease.release()
    pool.shutdown(grace_s=10.0)


# -- factory identity -------------------------------------------------------


def test_injected_factory_refusal_degrades_instead_of_masking():
    """A monkeypatched factory returning None must yield serial (None),
    never be papered over by a warm shared executor."""
    lease = pool_module.acquire_lease(2, factory=lambda workers: None)
    assert lease is None


def test_canonical_factory_takes_the_shared_path():
    lease = pool_module.acquire_lease(
        1, factory=resilience._DEFAULT_POOL_FACTORY)
    assert lease is not None and not lease.private
    lease.release()


# -- shutdown ---------------------------------------------------------------


def test_shutdown_is_idempotent_and_acquire_after_is_private():
    pool = SharedWorkerPool()
    lease = pool.acquire(1)
    lease.release()
    first = pool.shutdown(grace_s=10.0)
    assert first["shut_down"] and first["stranded_workers"] == 0
    assert pool.shutdown(grace_s=10.0)["stranded_workers"] == 0
    late = pool.acquire(1)
    assert late is not None and late.private
    assert late.submit(_echo, 11).result(timeout=30) == 11
    late.release()


# -- resilience integration -------------------------------------------------


def test_run_jobs_batches_share_one_warm_pool():
    """Two consecutive parallel batches: the second must lease the warm
    generation instead of forking a fresh pool, bit-identically.  Pinned
    to the per-job engine: a vector batch never leases the pool."""
    first = run_jobs(_jobs(), jobs=2, engine="fast")
    second = run_jobs(_jobs(), jobs=2, engine="fast")
    for a, b in zip(first, second):
        assert (a.energy == b.energy).all()
    stats = pool_module.pool_stats()
    assert stats is not None
    assert stats["shared_leases"] == 2
    assert stats["warm_acquires"] >= 1
    assert stats["generation"] == 1


def test_broken_pool_recovery_leaves_no_stranded_workers(monkeypatch):
    """The broken-pool cleanup contract, extended to the shared pool: a
    worker crash that condemns the executor mid-batch must end with a
    rebuilt generation serving correct results, and the pool's own
    shutdown must account for zero stranded worker processes."""
    import numpy as np

    clean = [result.energy for result in run_jobs(_jobs(4))]
    monkeypatch.setenv(resilience.FAULT_PLAN_ENV, "job[2]:1:crash")
    results = run_jobs(_jobs(4), jobs=2, failure_policy="retry", retries=2)
    for clean_energy, result in zip(clean, results):
        assert np.array_equal(clean_energy, result.energy)
    summary = pool_module.shutdown_shared_pool(grace_s=30.0)
    assert summary is not None
    assert summary["stranded_workers"] == 0
    assert summary["rebuilds"] >= 1
