"""serve_mix: writes beside reads on the live server, lockstep over one connection.

Inputs: the update stream of ``N_OBJECTS`` linear-DR random-walk objects
(one ingest batch per simulated second) interleaved with a seeded Poisson
range / nearest / geofence query stream, as a ``ReplayPlan``.  The
simulated span grows with ``--seconds`` so the replay lasts about that long.

The server (``LiveLocationServer`` over a ``SHARDS``-shard
``LocationService``) runs in the benchmark's process and event loop and is
driven by ``run_load_test(mode="lockstep")``: one connection, one request
in flight, each query carrying the watermark of the last acknowledged
batch.  That is the only schedule whose answers are deterministic, and it
keeps request ids exact for the traced run.  Set-up is facade registration
plus server start, repeated.  ``ops_per_s`` is completed requests per
second of the replay.  The latencies are in the details: the medians
``query_p50_ms`` and ``ingest_p50_ms``, and the tails ``query_p99_ms`` and
``ingest_p95_ms`` (medians over ten consecutive windows of the stream of each
window's percentile, see :func:`~perfbench.stats.windowed_percentile`).
"""

from __future__ import annotations

import asyncio
import random
import time
from statistics import median

import numpy as np

from perfbench.fleetgen import linear_lanes, random_walk_fleet
from perfbench.harness import Measured
from perfbench.layers import installed
from perfbench.stats import peak_rss_mb, windowed_percentile

NAME = "serve_mix"

N_OBJECTS = 1000
SHARDS = 4
ACCURACY_M = 50.0
#: Simulated seconds replayed per second of ``--seconds``.
SIM_SECONDS_PER_SECOND = 80
#: Mean query arrivals per simulated second (~3200 queries at 10 s).
QUERY_RATE = 4.0
SETUP_REPEATS = 25
#: Queries recomputed by the in-process reference replay.
CHECK_QUERIES = 300


def make_inputs(seed: int, seconds: int):
    from repro.service.loadgen import build_replay_plan
    from repro.sim.workload import QueryWorkload

    rng = np.random.default_rng([seed, 2])
    samples = SIM_SECONDS_PER_SECOND * seconds
    times, truth, sensor = random_walk_fleet(rng, N_OBJECTS, samples)
    lanes = linear_lanes(times, truth, sensor, [ACCURACY_M] * N_OBJECTS,
                         range(N_OBJECTS))
    workload = QueryWorkload(arrival_rate_per_s=QUERY_RATE, seed=seed)
    return build_replay_plan(lanes, workload)


async def _serve(plan, setup_tracer, run_tracer):
    from repro.service.live.server import LiveLocationServer
    from repro.service.loadgen import run_load_test, service_for_plan

    setup_times = []
    repeats = 1 if setup_tracer else SETUP_REPEATS
    for repeat in range(repeats):
        with installed(setup_tracer):
            started = time.perf_counter()
            server = LiveLocationServer(service_for_plan(plan, n_shards=SHARDS))
            host, port = await server.start()
            setup_times.append(time.perf_counter() - started)
        if repeat + 1 < repeats:
            await server.stop()
    try:
        with installed(run_tracer):
            report = await run_load_test(plan, host, port, clients=1, mode="lockstep")
    finally:
        await server.stop()
    return setup_times, report


def measure(plan, seconds: int, tracers=None) -> Measured:
    setup_tracer, run_tracer = tracers or (None, None)
    setup_times, report = asyncio.run(_serve(plan, setup_tracer, run_tracer))
    unanswered = len(plan.calls) - len(report.query_records)
    unaccepted = sum(1 for seq in report.batch_seqs if seq is None)
    return Measured(
        metrics={
            "setup_s": median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": report.throughput_rps,
        },
        attempted=len(plan.batches) + len(plan.calls),
        failed=report.rejected_batches + unaccepted + unanswered,
        setups=len(setup_times),
        passes=1,
        outputs=report,
        details={"objects": N_OBJECTS, "shards": SHARDS, "batches": len(plan.batches),
                 "updates": plan.total_updates, "queries": len(plan.calls),
                 "setup_samples_s": setup_times, "wall_s": report.wall_seconds,
                 "rejected_batches": report.rejected_batches,
                 "query_p50_ms": report.query_latency.percentile(50.0) * 1e3,
                 "ingest_p50_ms": report.ingest_latency.percentile(50.0) * 1e3,
                 "query_p99_ms": windowed_percentile(report.query_latency._samples, 99.0) * 1e3,
                 "ingest_p95_ms": windowed_percentile(report.ingest_latency._samples, 95.0) * 1e3},
    )


def check(plan, measured: Measured):
    """Live answers equal an in-process replay of the recorded schedule.

    The reference is a plain one-shard facade that applies the accepted
    batches in the sequence order the server assigned and answers a seeded
    sample of the queries at their recorded ``at_seq`` watermarks.
    """
    from repro.service.loadgen import service_for_plan
    from repro.sim.workload import execute_call

    report = measured.outputs
    records = report.query_records
    rng = random.Random(plan.workload.seed)
    chosen = sorted(rng.sample(range(len(records)), min(CHECK_QUERIES, len(records))),
                    key=lambda r: (records[r][1], r))
    applied = sorted((seq, index) for index, seq in enumerate(report.batch_seqs)
                     if seq is not None)
    service = service_for_plan(plan, n_shards=1)
    problems = []
    cursor = 0
    for record in chosen:
        call_index, at_seq, live = records[record]
        while cursor < len(applied) and applied[cursor][0] <= at_seq:
            t, batch = plan.batches[applied[cursor][1]]
            service.ingest_batch(batch, t)
            cursor += 1
        reference = execute_call(service, plan.workload, plan.calls[call_index])
        if live != reference:
            problems.append(f"query {call_index} at seq {at_seq}: live answer differs "
                            "from the reference replay")
    return len(chosen), problems
