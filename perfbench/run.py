"""Benchmark of served assessment requests.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 \\
        --trace 0

One run starts ``python -m repro serve`` (default configuration plus
``--journal`` and ``--event-log``) as a subprocess, measures its set-up
time, drives it with the workload for ``--seconds`` through
``ServiceClient`` (two keep-alive connections), checks the results, and
prints every metric with its unit and sample count.  The last line of
standard output is one JSON object: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.

``--trace 1`` runs the window in two halves, the first with the
benchmark's span recorder off and the second with it on (their latency
ratio is ``bench.trace_overhead``), then collects the daemon's request
traces and ``/metrics``, and replays one request of the workload's shape
in process through the layer entry points.  Spans are written to the
run directory at the end.

Each run writes its configuration, log, per-request CSV, metrics and
spans side by side under ``perfbench/runs/<run>/``, and gives every
daemon (and this process) a private compile-cache directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: Set-ups per run before and after the window, each with an empty and
#: then a pre-filled compile cache; ``setup_empty_s`` and ``setup_s`` are
#: their medians.  A single start varies by a quarter on a shared host;
#: with an even count the median averages the two middle starts.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2

#: ``/healthz`` round trips timed for ``service.server.rtt_p50_s``.
RTT_PROBES = 20

#: Most request traces fetched after the traced window, evenly spaced
#: (each fetch is one round trip of about 44 ms).
TRACE_SAMPLES = 100

#: Layers whose self time the traced run reports.
SPAN_LAYERS = ("service.client", "harness.engine", "machine.fastpath",
               "machine.vector", "service.executor", "obs.leakage",
               "service.journal", "obs.events")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_fingerprint(root: Path) -> str:
    """SHA-256 over the package sources (paths and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git work tree
    of its own (the source sha256 identifies the code either way)."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = completed.stdout.split()
    if completed.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


class Metrics:
    """Named values with unit and sample count, printed as a table."""

    def __init__(self):
        self.values: dict[str, tuple[float, str, int]] = {}

    def put(self, name: str, value, unit: str, samples: int = 1) -> None:
        self.values[name] = (float(value), unit, int(samples))

    def table(self) -> list[str]:
        width = max(len(name) for name in self.values)
        return [f"{name:<{width}}  {value:>14.6g} {unit:<6} n={samples}"
                for name, (value, unit, samples)
                in sorted(self.values.items())]

    def select(self, declared: list[dict]) -> dict:
        """The declared metrics, as the JSON result wants them."""
        selected = {}
        for spec in declared:
            name = spec["name"]
            if name not in self.values:
                raise RuntimeError(f"metric {name} was not measured")
            value, unit, _ = self.values[name]
            if unit != spec["unit"]:
                raise RuntimeError(f"metric {name} measured in {unit}, "
                                   f"declared in {spec['unit']}")
            selected[name] = {"value": value if math.isfinite(value)
                              else None, "unit": unit}
        return selected


def durable_size(daemon) -> tuple[int, int]:
    """``(lines, bytes)`` of the daemon's journal plus event log."""
    lines = size = 0
    for path in (daemon.journal, daemon.event_log):
        if path.exists():
            data = path.read_bytes()
            lines += data.count(b"\n")
            size += len(data)
    return lines, size


def set_up(root: Path, workdir: Path, cache_dir: Path, workload):
    """Spawn a daemon and send one warm-up request per program variant.

    Returns ``(daemon, listen_s, warmup_s)``; the set-up time is their
    sum, spawn to the end of the last warm-up.
    """
    from daemon import Daemon
    from repro.service.client import ServiceClient
    from workloads import warmup_payload

    daemon = Daemon(root, workdir, cache_dir)
    try:
        with ServiceClient(daemon.url, timeout_s=120.0) as client:
            for masking, engine in workload.variants:
                client.assess_detailed(warmup_payload(masking, engine))
    except BaseException:
        daemon.stop()
        raise
    done = time.perf_counter()
    return daemon, daemon.listening - daemon.spawned, done - daemon.listening


def throughput(window, ok: list, open_loop: bool, weight) -> float:
    """Work per second of the measured window.

    An open loop divides by the time some burst was in flight.  A closed
    loop sums each client's own rate, its work over the time to its last
    completion, so the stretch where one client finishes alone does not
    dilute the rate.
    """
    from stats import busy_seconds

    if open_loop:
        return sum(weight(o) for o in ok) / busy_seconds(window.bursts)
    by_client: dict = {}
    for outcome in ok:
        by_client.setdefault(outcome.client, []).append(outcome)
    return sum(sum(weight(o) for o in mine)
               / (max(o.done for o in mine) - window.start)
               for mine in by_client.values())


def end_to_end(metrics: Metrics, window, open_loop: bool) -> None:
    from stats import (median, percentile_if_supported, tail_percentile,
                       with_failures)

    outcomes = window.outcomes
    ok = [o for o in outcomes if o.kind == "ok"]
    failed = len(outcomes) - len(ok)
    latencies = with_failures([o.latency for o in ok], failed)
    metrics.put("latency_p50_s", median(latencies), "s", len(latencies))
    p90 = percentile_if_supported(latencies, 90.0)
    if p90 is not None:
        metrics.put("latency_p90_s", p90, "s", len(latencies))
    tail = tail_percentile(latencies)
    if tail is not None:
        metrics.put(f"latency_tail_p{tail[0]:g}_s", tail[1], "s",
                    len(latencies))
    traces = sum(o.result["n_traces"] for o in ok)
    metrics.put("traces_per_s",
                throughput(window, ok, open_loop,
                           lambda o: o.result["n_traces"]), "1/s", traces)
    metrics.put("requests_per_s",
                throughput(window, ok, open_loop, lambda o: 1), "1/s",
                len(ok))
    metrics.put("failed_share", failed / len(outcomes), "share",
                len(outcomes))


def collect_daemon(metrics: Metrics, client, window, recorder,
                   shape: dict, cache_before: dict) -> tuple[float, dict]:
    """Per-layer numbers read from the daemon after the traced window.

    Returns the daemon-side latency of one solo request of the
    workload's shape (for ``service.executor.daemon_over_local``) and the
    daemon's ``/metrics`` document.
    """
    from repro.obs.spans import count_spans
    from stats import median, percentile

    ok = [o for o in window.outcomes if o.kind == "ok"]
    waits, span_counts = [], []
    with recorder.span("bench.collect"):
        for outcome in ok[::max(1, math.ceil(len(ok) / TRACE_SAMPLES))]:
            document = client.trace(outcome.document["id"])
            span_counts.append(count_spans(document.get("spans") or []))
            started = [mark["t_s"] for mark in document["timeline"]
                       if mark["event"] == "started"]
            if started:
                waits.append(started[0])
        cache_after = client.cache_stats()
        daemon_metrics = client.metrics()
        rtts = []
        for _ in range(RTT_PROBES):
            start = time.perf_counter()
            client.health()
            rtts.append(time.perf_counter() - start)
        solo = client.assess_detailed(dict(shape, cache=False))
    metrics.put("service.server.rtt_p50_s", median(rtts), "s", len(rtts))
    overheads = [(o.done - o.sent) - o.document["latency_s"] for o in ok]
    metrics.put("service.server.overhead_p50_s", median(overheads), "s",
                len(overheads))
    metrics.put("service.server.calls_per_request",
                sum(o.calls for o in window.outcomes)
                / len(window.outcomes), "count", len(window.outcomes))
    metrics.put("service.queue.wait_p50_s",
                percentile(waits, 50.0) if waits else 0.0, "s", len(waits))
    metrics.put("service.queue.wait_p90_s",
                percentile(waits, 90.0) if waits else 0.0, "s", len(waits))
    metrics.put("service.queue.refused",
                sum(1 for o in window.outcomes if o.kind == "refused"),
                "count", len(window.outcomes))
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    metrics.put("service.cache.hit_ratio",
                hits / lookups if lookups else 0.0, "share", lookups)
    hit_latencies = [o.latency for o in ok
                     if o.result.get("verdict_cache", {}).get("hit")]
    metrics.put("service.cache.hit_p50_s",
                median(hit_latencies) if hit_latencies else 0.0, "s",
                len(hit_latencies))
    metrics.put("service.cache.coalesced",
                cache_after["coalesced"] - cache_before["coalesced"],
                "count", lookups)
    metrics.put("obs.spans_per_request",
                sum(span_counts) / len(span_counts), "count",
                len(span_counts))
    return solo["latency_s"], daemon_metrics


def loadgen(metrics: Metrics, window) -> None:
    from stats import drift, percentile

    lates = [o.late for o in window.outcomes]
    metrics.put("loadgen.late_p90_s", percentile(lates, 90.0), "s",
                len(lates))
    metrics.put("loadgen.late_max_s", max(lates), "s", len(lates))
    ordered = [o.latency for o in sorted(window.outcomes,
                                         key=lambda o: (o.sent, o.index))
               if o.kind == "ok"]
    value = drift(ordered)
    metrics.put("loadgen.drift", value if value is not None else 1.0,
                "ratio", len(ordered))


def vector_fallback(window) -> tuple[float, int]:
    """Share of traces of vector-engine requests not served by vector."""
    asked = served = 0
    for outcome in window.outcomes:
        if outcome.kind != "ok" or outcome.payload.get("engine") != "vector":
            continue
        engines = outcome.result["engines"]
        asked += sum(engines.values())
        served += engines.get("vector", 0)
    return ((asked - served) / asked if asked else 0.0), asked


def write_csv(path: Path, outcomes: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as stream:
        writer = csv.writer(stream)
        writer.writerow(["index", "traced", "repeat", "kind", "due_s",
                         "sent_s", "done_s", "latency_s",
                         "daemon_latency_s", "calls", "cache_hit",
                         "n_traces", "trace_digest", "error"])
        origin = min((o.due for o in outcomes), default=0.0)
        for o in sorted(outcomes, key=lambda o: o.index):
            result = o.document.get("result", {}) if o.document else {}
            writer.writerow([
                o.index, int(o.traced), int(o.repeat), o.kind,
                f"{o.due - origin:.6f}", f"{o.sent - origin:.6f}",
                f"{o.done - origin:.6f}", f"{o.latency:.6f}",
                (o.document or {}).get("latency_s", ""), o.calls,
                int(bool(result.get("verdict_cache", {}).get("hit"))),
                result.get("n_traces", ""), result.get("trace_digest", ""),
                o.error])


def run(args, root: Path, run_dir: Path, log) -> int:
    import check
    import layers
    from spans import SpanRecorder, layer_table
    from stats import median
    from workloads import (CLIENTS, WORKLOADS, RequestStream, TracedClient,
                           closed_loop, open_loop)

    workload = WORKLOADS[args.workload]
    traced = args.trace == 1
    metrics = Metrics()
    recorder = SpanRecorder(enabled=False)
    stream = RequestStream(workload.name, args.seed)
    drive = open_loop if workload.open_loop else closed_loop

    empty, setups = [], []

    def set_up_pair(number: int):
        """An empty-cache set-up, then a pre-filled one that starts from a
        private copy of the cache the first filled; returns the running
        pre-filled daemon."""
        workdir = run_dir / f"setup{number}"
        filled = workdir / "empty" / "cache"
        daemon, listen_s, warmup_s = set_up(root, workdir / "empty", filled,
                                            workload)
        daemon.stop()
        empty.append(listen_s + warmup_s)
        if not (run_dir / "bench-cache").exists():
            shutil.copytree(filled, run_dir / "bench-cache")
        shutil.copytree(filled, workdir / "filled" / "cache")
        daemon, listen_s, warmup_s = set_up(
            root, workdir / "filled", workdir / "filled" / "cache", workload)
        setups.append((listen_s, warmup_s))
        return daemon

    # Set-ups before and after the window sample the host's speed at
    # different moments; the last one before the window serves it.
    for number in range(SETUPS_BEFORE):
        if number:
            daemon.stop()
        daemon = set_up_pair(number)
    clients = [TracedClient(daemon.url, recorder) for _ in range(CLIENTS)]
    windows = []
    try:
        if traced:
            untraced = drive(clients, recorder, stream, args.seconds / 2,
                             parent=None)
            windows.append(untraced)
            recorder.enabled = True
            cache_before = clients[0].cache_stats()
            lines_before, bytes_before = durable_size(daemon)
            with recorder.span("bench.window") as phase:
                window = drive(clients, recorder, stream,
                               args.seconds / 2, parent=phase)
            windows.append(window)
            lines_after, bytes_after = durable_size(daemon)
            solo_s, daemon_metrics = collect_daemon(
                metrics, clients[0], window, recorder, stream.shape(),
                cache_before)
            (run_dir / "daemon-metrics.json").write_text(
                json.dumps(daemon_metrics, indent=1, sort_keys=True))
            count = len(window.outcomes)
            metrics.put("durable.lines_per_request",
                        (lines_after - lines_before) / count, "count",
                        count)
            metrics.put("durable.bytes_per_request",
                        (bytes_after - bytes_before) / count, "bytes",
                        count)
        else:
            window = drive(clients, recorder, stream, args.seconds,
                           parent=None)
            windows.append(window)
        metrics.put("rss_peak_mb", daemon.peak_rss_mb(), "MiB")
    finally:
        for client in clients:
            client.close()
        daemon.stop()
    connections = sum(c.connections_opened for c in clients)
    for number in range(SETUPS_BEFORE, SETUPS_BEFORE + SETUPS_AFTER):
        set_up_pair(number).stop()
    metrics.put("setup_empty_s", median(empty), "s", len(empty))
    metrics.put("setup_s", median([a + b for a, b in setups]), "s",
                len(setups))
    metrics.put("setup.listen_s", median([a for a, _ in setups]), "s",
                len(setups))
    metrics.put("setup.warmup_s", median([b for _, b in setups]), "s",
                len(setups))

    if traced:
        with recorder.span("bench.replay"):
            local_s = layers.replay(stream.shape(), recorder, run_dir,
                                    metrics)
        metrics.put("service.executor.daemon_over_local", solo_s / local_s,
                    "ratio")
        share, asked = vector_fallback(window)
        metrics.put("machine.vector.fallback_share", share, "share", asked)
        loadgen(metrics, window)
        before = [o.latency for o in untraced.outcomes if o.kind == "ok"]
        after = [o.latency for o in window.outcomes if o.kind == "ok"]
        metrics.put("bench.trace_overhead", median(after) / median(before),
                    "ratio", len(after))
        table = layer_table(recorder.spans)
        for layer in SPAN_LAYERS:
            metrics.put(f"span.{layer}.self_s",
                        table["layers"].get(layer, 0.0), "s")
        metrics.put("span.residual_share", table["residual_share"],
                    "share")
        recorder.write(run_dir / "spans.jsonl")

    outcomes = [o for w in windows for o in w.outcomes]
    problems = check.verify(outcomes, args.seed)
    # With --trace 1 the end-to-end numbers come from the untraced half.
    end_to_end(metrics, windows[0], workload.open_loop)

    for line in metrics.table():
        log(line)
    log(f"connections opened: {connections}")
    log("set-ups (s): empty " + " ".join(f"{t:.3f}" for t in empty)
        + "; filled " + " ".join(f"{a + b:.3f}" for a, b in setups))
    for problem in problems:
        log(f"WRONG: {problem}")
    write_csv(run_dir / "results.csv", outcomes)

    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    chosen = declared["per_layer" if traced else "end_to_end"]
    failed = sum(1 for o in outcomes if o.kind != "ok")
    result = {"correct": not problems and failed == 0,
              "attempted": len(outcomes), "failed": failed,
              "metrics": metrics.select(chosen)}
    (run_dir / "metrics.json").write_text(json.dumps(
        {"all": {name: {"value": value, "unit": unit, "samples": samples}
                 for name, (value, unit, samples)
                 in metrics.values.items()},
         "result": result}, indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds through the ``finally`` blocks that stop daemons.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no repro sources (src/repro); run "
              "from the repository root", file=sys.stderr)
        return 2
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = BENCH_DIR / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
        f"-{os.getpid()}")
    run_dir.mkdir(parents=True)
    # Before any repro import: this process gets its own compile cache
    # and no inherited engine or tracing switch.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_COMPILE_CACHE_DIR"] = str(run_dir / "bench-cache")
    sys.path.insert(0, str(root / "src"))

    import numpy

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    from daemon import FLAGS
    config = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "daemon_flags": [*FLAGS, "--journal", "<daemon dir>/journal.jsonl",
                         "--event-log", "<daemon dir>/events.jsonl"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_sha": git_sha(root), "source_sha256": source_fingerprint(root),
        "toolchain": {"python": platform.python_version(),
                      "implementation": platform.python_implementation(),
                      "numpy": numpy.__version__,
                      "platform": platform.platform()},
    }
    (run_dir / "config.json").write_text(json.dumps(config, indent=1))
    log_stream = open(run_dir / "run.log", "w", encoding="utf-8")

    def log(line: str) -> None:
        print(line, flush=True)
        log_stream.write(line + "\n")

    try:
        log(f"run {run_dir.name}: {json.dumps(config, sort_keys=True)}")
        return run(args, root, run_dir, log)
    finally:
        log_stream.close()
        for cache in list(run_dir.rglob("*cache*")):
            if cache.is_dir():
                shutil.rmtree(cache, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
