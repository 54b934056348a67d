"""``service_mix``: an open-loop request mix against a ``DecodeService``.

The service runs in its own process.  One single-threaded asyncio
generator with two tenant connections sends a seeded schedule at one
fixed rate, chosen to keep the server well under half busy, and times
each request from its due time.  The mix is mostly 400-instruction
``decode`` requests whose seeds come from a pool twice the size of the
decode handler's 32-entry workload cache, so both cache hits and misses
occur; a few ``reachability`` and ``coverage`` requests ride along.

The front end (protocol, ``FairScheduler``, ``Batcher``, engine-lane
thread) costs most of each request's server CPU here, and the decode
engine sees thousands of short streams, where per-call set-up matters
rather than the hot loop of ``decode_long``.  ``latency_ms`` is the
median latency from due time, ``cpu_ms`` the server's CPU time (its
process and pool workers) per completed request.  Every payload is
checked against a direct call of the same handler after the timed phase.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import subprocess
import sys
from collections import OrderedDict
from contextlib import nullcontext
from typing import Any, Dict, List, Tuple

from harness import Outcome, Tracer, child_env, clock, measure_setup

RATE_PER_S = 100.0
DECODE_INSTRUCTIONS = 400
#: Twice the decode handler's 32-entry workload cache.
DECODE_SEED_POOL = 64
HANDLER_CACHE_ENTRIES = 32
REACHABILITY_SHARE = 0.02
COVERAGE_SHARE = 0.02
TENANTS = ("tenant-a", "tenant-b")

LAYERS = ("repro.service.server", "repro.service.handlers")


def schedule(seed: int, count: int) -> List[Tuple[str, str, Dict[str, Any]]]:
    """``count`` requests as ``(tenant, capability, params)``, from ``seed``."""
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        tenant = TENANTS[rng.randrange(len(TENANTS))]
        roll = rng.random()
        if roll < REACHABILITY_SHARE:
            requests.append((tenant, "reachability", {"spec": "rappid_control:4x2"}))
        elif roll < REACHABILITY_SHARE + COVERAGE_SHARE:
            requests.append((tenant, "coverage", {"circuit": "fifo_rt_chain:4"}))
        else:
            params = {"seed": rng.randrange(DECODE_SEED_POOL), "instructions": DECODE_INSTRUCTIONS}
            requests.append((tenant, "decode", params))
    return requests


def repeat_share(requests) -> float:
    """Share of decode seeds among the 32 most recently used ones."""
    recent: OrderedDict = OrderedDict()
    hits = decodes = 0
    for _tenant, capability, params in requests:
        if capability != "decode":
            continue
        decodes += 1
        key = params["seed"]
        if key in recent:
            hits += 1
            recent.move_to_end(key)
        else:
            recent[key] = None
            if len(recent) > HANDLER_CACHE_ENTRIES:
                recent.popitem(last=False)
    return hits / max(decodes, 1)


class Server:
    """The service child process and its stdin control channel."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "service_proc.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        self.port = json.loads(self.process.stdout.readline())["port"]

    def cpu_seconds(self) -> float:
        self.process.stdin.write("cpu\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())["cpu_s"]

    def stop(self) -> None:
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


async def _connect(port: int):
    from repro.service.client import ServiceClient

    return {
        tenant: await ServiceClient.connect("127.0.0.1", port, tenant=tenant) for tenant in TENANTS
    }


async def _close(clients) -> None:
    for client in clients.values():
        await client.close()


async def _warm_up(port: int) -> None:
    """One request of each capability; seeds outside the timed pool."""
    clients = await _connect(port)
    try:
        client = clients[TENANTS[0]]
        await client.request("coverage", {"circuit": "fifo_rt_chain:4"})
        await client.request("reachability", {"spec": "rappid_control:4x2"})
        for index in range(4):
            await client.request(
                "decode", {"seed": DECODE_SEED_POOL + index, "instructions": DECODE_INSTRUCTIONS}
            )
    finally:
        await _close(clients)


async def _drive(port: int, requests, outcome: Outcome, tracer: Tracer):
    """Send ``requests`` on schedule; returns one record per request.

    The host probe runs once a second, right after a send.
    """
    from repro.service.client import BackpressureRejected

    clients = await _connect(port)
    records: List[Dict[str, Any]] = [{} for _ in requests]
    tasks = set()

    async def fire(index: int, due: float) -> None:
        tenant, capability, params = requests[index]
        record = records[index]
        record["late_s"] = clock() - due
        span = tracer.span("service.request", rid=f"{tenant}-{index}") if record["traced"] else nullcontext()
        try:
            with span:
                result = await clients[tenant].request(capability, params)
        except Exception as exc:  # a failed request is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["rejected"] = isinstance(exc, BackpressureRejected)
            return
        record["latency_s"] = clock() - due
        record["payload"] = result.payload
        record["trace"] = result.trace

    try:
        start = clock() + 0.05
        for index in range(len(requests)):
            due = start + index / RATE_PER_S
            records[index]["traced"] = outcome.traced and index % 2 == 1
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            task = asyncio.create_task(fire(index, due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            if index % int(RATE_PER_S) == 0:
                outcome.probe.tick()
        while tasks:
            await asyncio.gather(*list(tasks))
    finally:
        await _close(clients)
    return records


def direct_payloads(requests, tracer: Tracer, timed: bool):
    """Each request's payload from a direct handler call, in schedule order.

    With ``timed`` set every request is replayed and timed (the traced
    run's ``handler_ms``); otherwise each distinct request runs once.
    """
    from repro.service import handlers

    payloads: Dict[str, Any] = {}
    seconds: List[float] = []
    for _tenant, capability, params in requests:
        key = json.dumps([capability, params], sort_keys=True)
        if key in payloads and not timed:
            continue
        handler = handlers.get(capability)
        with tracer.span(f"service.handler.{capability}"):
            start = clock()
            payloads[key] = handler.run(dict(params), lambda _chunk: None)
            seconds.append(clock() - start)
    return payloads, seconds


def run(seed: int, seconds: float, outcome: Outcome, tracer: Tracer) -> None:
    servers: List[Server] = []

    def prepare(_repeat):
        for server in servers:
            server.stop()
        servers[:] = [Server()]
        asyncio.run(_warm_up(servers[0].port))

    requests = schedule(seed, int(RATE_PER_S * seconds))
    try:
        measure_setup(outcome, LAYERS, prepare)
        server = servers[0]
        cpu_before = server.cpu_seconds()
        with tracer.recording([], active=outcome.traced):
            records = asyncio.run(_drive(server.port, requests, outcome, tracer))
        cpu_after = server.cpu_seconds()
    finally:
        for server in servers:
            server.stop()

    with tracer.recording([], active=outcome.traced):
        direct, handler_seconds = direct_payloads(requests, tracer, outcome.traced)
    completed = []
    for (tenant, capability, params), record in zip(requests, records):
        outcome.attempted += 1
        if "error" in record:
            outcome.check(f"service.{capability}", False, record["error"])
            continue
        completed.append(record)
        key = json.dumps([capability, params], sort_keys=True)
        outcome.match(f"service.{capability}", record["payload"], direct[key])
    latencies_ms = sorted(1000.0 * record["latency_s"] for record in completed)
    outcome.exact.update(
        requests=len(requests),
        decode_repeat_share=repeat_share(requests),
        capabilities={
            name: sum(1 for request in requests if request[1] == name)
            for name in ("decode", "reachability", "coverage")
        },
    )

    if not outcome.traced:
        if completed:
            outcome.metric("latency_ms", statistics.median(latencies_ms), "ms", len(latencies_ms))
            outcome.metric(
                "cpu_ms", 1000.0 * (cpu_after - cpu_before) / len(completed), "ms", len(completed)
            )
        return
    quantiles = statistics.quantiles(latencies_ms, n=100)
    outcome.metric("service.p90_ms", quantiles[89], "ms", len(latencies_ms))
    outcome.metric("service.p99_ms", quantiles[98], "ms", len(latencies_ms))
    outcome.metric(
        "service.queue_depth_mean",
        statistics.fmean(record["trace"]["admission"]["queue_depth"] for record in completed),
        "count",
        len(completed),
    )
    handler_ms = 1000.0 * statistics.fmean(handler_seconds)
    outcome.metric("service.handler_ms", handler_ms, "ms", len(handler_seconds))
    outcome.metric(
        "service.engine_share", handler_ms / statistics.fmean(latencies_ms), "ratio", len(completed)
    )
    outcome.metric(
        "service.batch_size_mean",
        statistics.fmean(record["trace"]["batch"]["size"] for record in completed),
        "count",
        len(completed),
    )
    outcome.metric("service.decode_repeat_share", repeat_share(requests), "ratio", len(requests))
    outcome.metric(
        "service.rejected", sum(1 for record in records if record.get("rejected")), "count", len(records)
    )
    outcome.metric(
        "loadgen.late_ms",
        1000.0 * statistics.fmean(record["late_s"] for record in records),
        "ms",
        len(records),
    )
    traced_ms = [1000.0 * r["latency_s"] for r in completed if r["traced"]]
    untraced_ms = [1000.0 * r["latency_s"] for r in completed if not r["traced"]]
    if traced_ms and untraced_ms:
        outcome.metric(
            "trace.overhead_pct",
            100.0 * (statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0),
            "%",
            len(completed),
        )
