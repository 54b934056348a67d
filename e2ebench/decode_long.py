"""``decode_long``: RAPPID decode of one long seeded stream.

``RappidDecoder.run`` and ``RappidDecoder.run_sharded`` alternate on one
~100k-line stream.  ``engine.rappid_batch`` and ``engine.pool`` do nearly
all the work; no synthesis, Petri-net, fault-simulation or service code
runs.  ``latency_ms`` is the wall time of the fastest ``run()`` plus
``run_sharded()`` round over the stream, ``cpu_ms`` the least CPU time
of a round (this process and its pool workers): on a shared host every
disturbance only adds time, so the least-disturbed round is the
steadiest measure of the program's cost.  Every timed result is
checked against ``_reference_run``, whose digest is computed once after
the timed phase.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from array import array

from harness import Outcome, Tracer, clock, measure_setup, tree_cpu_s

#: ~4.56 instructions per 16-byte line: 456k instructions span ~100k lines.
STREAM_INSTRUCTIONS = 456_000
#: Warm-up stream: forces the pool workers to start and import.
WARMUP_INSTRUCTIONS = 20_000
#: Paper, Table 1: RAPPID decodes about 3x the instructions per ns of the
#: clocked decoder it replaced.
PAPER_TABLE1_RATIO = 3.0

LAYERS = (
    "repro.rappid.microarch",
    "repro.rappid.workload",
    "repro.engine.rappid_batch",
    "repro.engine.pool",
    "repro.engine.resilience",
)


def result_digest(result) -> str:
    """SHA-256 over the exact per-instruction trajectories plus ``total_time_ps``.

    ``energy_pj`` is left out: the engine may differ from the reference
    in its last ulp by design.
    """
    digest = hashlib.sha256()
    for values in (
        result.issue_times_ps,
        result.instruction_latencies_ps,
        result.tag_intervals_ps,
        result.line_intervals_ps,
        result.steer_intervals_ps,
        [result.total_time_ps, result.instruction_count, result.line_count],
    ):
        digest.update(len(values).to_bytes(8, "little"))
        digest.update(array("d", values).tobytes())
    return digest.hexdigest()


def run(seed: int, seconds: float, outcome: Outcome, tracer: Tracer) -> None:
    from repro.engine import pool, resilience
    from repro.rappid.clocked_baseline import ClockedDecoder
    from repro.rappid.microarch import RappidDecoder
    from repro.rappid.workload import WorkloadGenerator

    decoder = RappidDecoder()
    shards = pool.worker_count()
    counters = {"decide": 0, "pooled": 0, "retries": 0}

    def count_decision(_args, _kwargs, result):
        counters["decide"] += 1
        counters["pooled"] += bool(result[0])

    def count_retries(_args, _kwargs, _result):
        counters["retries"] += resilience.LAST_HEALTH.get("retries", 0)

    targets = [
        ("repro.engine.rappid_batch", "run_batched", "engine.rappid_batch.run_batched", None),
        ("repro.engine.rappid_batch", "run_sharded", "engine.rappid_batch.run_sharded", None),
        ("repro.engine.resilience", "supervised_map", "engine.resilience.supervised_map", count_retries),
        ("repro.engine.pool", "publish_payload", "engine.pool.publish_payload", None),
        ("repro.engine.pool", "decide", "engine.pool.decide", count_decision),
    ]

    def prepare(_repeat):
        # Workers fork before the long stream exists, so their memory (and
        # peak_rss_mb) does not depend on what the parent held at fork time.
        pool.shutdown()
        gc.collect()
        warm = WorkloadGenerator(seed=seed + 1).workload(WARMUP_INSTRUCTIONS)
        decoder.run(*warm)
        decoder.run_sharded(*warm, shards=max(shards, 2), use_processes=True)
        with tracer.recording([]):
            with tracer.span("rappid.workload.gen"):
                generator = WorkloadGenerator(seed=seed)
                instructions = generator.instructions(STREAM_INSTRUCTIONS)
                lines = generator.cache_lines(instructions)
        return instructions, lines

    instructions, lines = measure_setup(outcome, LAYERS, prepare)
    gen_samples = tracer.totals().get("rappid.workload.gen", {"calls": 0})["calls"]
    count = len(instructions)

    rounds = []  # wall seconds of each complete run() + run_sharded() round
    round_cpu = []  # CPU seconds of the same rounds
    traced_rounds = []
    untraced_rounds = []
    digests = []
    methods = (("run", decoder.run), ("sharded", lambda ins, lns: decoder.run_sharded(ins, lns, shards=shards)))
    began = clock()
    sample = 0
    # A traced run needs at least one traced and one untraced sample.
    while sample < 1 + outcome.traced or clock() - began < seconds:
        traced = outcome.traced and sample % 2 == 1
        round_s = round_cpu_s = 0.0
        complete = True
        for kind, method in methods:
            # Each result holds ~45 MB in reference cycles; collect the
            # previous one untimed so samples do not inherit its GC debt.
            gc.collect()
            outcome.probe.tick()
            with tracer.recording(targets, active=traced):
                with tracer.span(f"decode.{kind}"):
                    cpu_start = tree_cpu_s()
                    start = clock()
                    result = outcome.attempt(kind, lambda: method(instructions, lines))
                    elapsed = clock() - start
                    cpu_elapsed = tree_cpu_s() - cpu_start
            if result is None:
                complete = False
                continue
            round_s += elapsed
            round_cpu_s += cpu_elapsed
            digests.append((kind, result_digest(result)))
            del result
        if complete:
            rounds.append(round_s)
            round_cpu.append(round_cpu_s)
            (traced_rounds if traced else untraced_rounds).append(round_s)
        sample += 1

    reference = decoder._reference_run(instructions, lines)
    expected = result_digest(reference)
    for kind, digest in digests:
        outcome.match(f"decode.{kind}", digest, expected)
    clocked = ClockedDecoder().run(instructions, lines)
    outcome.exact.update(
        instructions=count,
        lines=len(lines),
        rappid_total_time_ps=reference.total_time_ps,
        rappid_instructions_per_ns=reference.throughput_instructions_per_ns,
        clocked_instructions_per_ns=clocked.throughput_instructions_per_ns,
        rappid_vs_clocked_throughput=reference.throughput_instructions_per_ns
        / clocked.throughput_instructions_per_ns,
        paper_table1_throughput_ratio=PAPER_TABLE1_RATIO,
        model_note="behavioural timing model; not validated against silicon",
    )
    pool.shutdown()

    if not outcome.traced:
        if rounds:
            outcome.metric("latency_ms", 1000.0 * min(rounds), "ms", len(rounds))
            outcome.metric("cpu_ms", 1000.0 * min(round_cpu), "ms", len(round_cpu))
        return
    totals = tracer.totals()

    def per_call(name: str, key: str = "self_s") -> float:
        entry = totals.get(name)
        return entry[key] / entry["calls"] if entry else 0.0

    def calls_of(name: str) -> int:
        return int(totals.get(name, {"calls": 0})["calls"])

    sharded_calls = calls_of("decode.sharded")
    outcome.metric("rappid.workload.gen_s", per_call("rappid.workload.gen"), "s", gen_samples)
    outcome.metric(
        "engine.rappid_batch.run_batched_s",
        per_call("engine.rappid_batch.run_batched"),
        "s",
        calls_of("engine.rappid_batch.run_batched"),
    )
    outcome.metric(
        "engine.rappid_batch.run_sharded_s",
        per_call("engine.rappid_batch.run_sharded"),
        "s",
        calls_of("engine.rappid_batch.run_sharded"),
    )
    outcome.metric(
        "engine.resilience.supervised_map_s",
        per_call("engine.resilience.supervised_map", "total_s"),
        "s",
        calls_of("engine.resilience.supervised_map"),
    )
    serial = totals.get("engine.rappid_batch.run_sharded", {}).get("total_s", 0.0) - totals.get(
        "engine.resilience.supervised_map", {}
    ).get("total_s", 0.0)
    outcome.metric(
        "engine.rappid_batch.sharded_serial_s", serial / max(sharded_calls, 1), "s", sharded_calls
    )
    outcome.metric(
        "engine.pool.publish_payload_s",
        per_call("engine.pool.publish_payload", "total_s"),
        "s",
        calls_of("engine.pool.publish_payload"),
    )
    outcome.metric(
        "engine.pool.pool_share",
        counters["pooled"] / max(counters["decide"], 1),
        "ratio",
        counters["decide"],
    )
    outcome.metric("engine.resilience.retries", counters["retries"], "count", sharded_calls)
    if traced_rounds and untraced_rounds:
        outcome.metric(
            "trace.overhead_pct",
            100.0 * (statistics.median(traced_rounds) / statistics.median(untraced_rounds) - 1.0),
            "%",
            len(traced_rounds) + len(untraced_rounds),
        )
