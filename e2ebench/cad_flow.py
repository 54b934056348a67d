"""``cad_flow``: repeated passes of the paper's Figure 2 design flow.

Every pass builds fresh spec objects and starts with
``repro.analysis.invalidate()``, so every pass does the same work:
synthesis, conformance, reduced and flat reachability, event-driven
simulation and stuck-at fault campaigns.  The RAPPID decoder and the
service do none of it.

``latency_ms`` is the timed wall time of the fastest pass and ``cpu_ms``
the least CPU time of a pass (this process and its pool workers), the
least-disturbed samples on a shared host.

Outputs that do not depend on the seed are checked against digests
pinned from the retained ``_reference_*`` oracles in ``expected.json``
(regenerate with ``python3 e2ebench/pin.py``); the jittered campaign,
seeded by the workload seed, is checked against
``_reference_simulate_faults`` after the timed phase.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import statistics

from harness import Outcome, Tracer, clock, measure_setup, tree_cpu_s

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

SI_SPECS = ("fifo", "call", "celement")
EXPLORE_SIZES = ((16, 4), (24, 6))
BFS_SIZE = (2, 2)  # 66,258 markings
SIM_DURATION_PS = 750_000.0
SIM_MAX_EVENTS = 4_000_000
CHAIN_STAGES = (8, 16)
JITTER_STAGES = 8
JITTER = {"delay_jitter": 0.05, "environment_jitter": 0.25}
STIMULI = [("s0_li", 1, 50.0)]

LAYERS = (
    "repro.analysis",
    "repro.stg.specs",
    "repro.synthesis",
    "repro.verification",
    "repro.petrinet.reachability",
    "repro.circuit.simulator",
    "repro.testability",
)


def _targets(counters):
    """Layer functions the traced passes rebind; some run inside others."""
    def count_faults(args, _kwargs, _result):
        engine, faults = args[0], args[1]
        collapse = engine.last_collapse
        counters["faults_enumerated"] += len(faults)
        counters["faults_simulated"] += collapse["simulated"] if collapse else len(faults)

    return [
        ("repro.synthesis.speed_independent", "synthesize_si", "synthesis.synthesize_si", None),
        ("repro.synthesis.rt_synthesis", "synthesize_rt", "synthesis.synthesize_rt", None),
        ("repro.synthesis.burst_mode", "synthesize_burst_mode", "synthesis.synthesize_burst_mode", None),
        ("repro.stategraph.graph", "build_state_graph", "stategraph.build_state_graph", None),
        ("repro.boolean.minimize", "minimize", "boolean.minimize", None),
        ("repro.verification.conformance", "verify_conformance", "verification.verify_conformance", None),
        ("repro.petrinet.reachability", "explore", "petrinet.explore", None),
        (
            "repro.petrinet.reachability",
            "build_reachability_graph",
            "petrinet.build_reachability_graph",
            None,
        ),
        ("repro.circuit.simulator", "EventDrivenSimulator.run", "circuit.simulator.run", None),
        ("repro.engine.faultsim", "FaultSimEngine.run", "engine.faultsim.run", count_faults),
    ]


def byte_unit(columns: int = 32):
    """RAPPID byte-unit row: a C-element tag ring with per-column decode load."""
    from repro.circuit.library import STANDARD_LIBRARY
    from repro.circuit.netlist import Netlist

    netlist = Netlist(f"byte_unit{columns}")
    c2 = STANDARD_LIBRARY.get("C2")
    inv = STANDARD_LIBRARY.get("INV")
    domino = STANDARD_LIBRARY.get("DOMINO_AND2")
    for i in range(columns):
        netlist.add_gate(f"ack{i}", inv, [f"tag{(i + 1) % columns}"], f"a{i}")
        netlist.add_gate(f"c{i}", c2, [f"tag{(i - 1) % columns}", f"a{i}"], f"tag{i}")
        netlist.add_gate(f"dec{i}", domino, [f"tag{i}", f"a{i}"], f"len{i}")
        netlist.add_gate(f"buf{i}", inv, [f"len{i}"], f"steer{i}")
    netlist.set_initial_value("tag0", 1)
    return netlist


SIM_CIRCUITS = ("ring31", "byte_unit32")


def sim_circuits():
    from repro.circuit.netlist import build_ring_oscillator

    return dict(zip(SIM_CIRCUITS, (build_ring_oscillator(31), byte_unit(32))))


def chain(cell, stages: int):
    from repro.circuit.analysis import chain_environment_rules
    from repro.circuit.netlist import chain_handshake_cells

    return chain_handshake_cells(cell, stages), chain_environment_rules(stages)


# -- digests shared with pin.py ------------------------------------------------


def graph_digest(graph) -> str:
    """Marking order plus edges (by marking index), as the oracle defines them."""
    index = {marking: position for position, marking in enumerate(graph.markings)}
    text = "\n".join(
        [repr(list(marking.items())) for marking in graph.markings]  # sorted by place
        + [f"{index[source]} {name} {index[target]}" for (source, name), target in graph.edges.items()]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(trace) -> str:
    text = "\n".join(
        [str(trace.event_count)]
        + [f"{net} {waveform.changes!r}" for net, waveform in sorted(trace.waveforms.items())]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def coverage_digest(total: int, detected: int, undetected) -> str:
    text = json.dumps([total, detected, sorted(str(fault) for fault in undetected)])
    return hashlib.sha256(text.encode()).hexdigest()


def reference_coverage_digest(results) -> str:
    return coverage_digest(
        len(results), sum(r.detected for r in results), [r.fault for r in results if not r.detected]
    )


# -- one pass ------------------------------------------------------------------


def flow_pass(seed: int, tracer: Tracer, outcome: Outcome, expected, exact, layer, jitter_out):
    """One Figure 2 pass; returns its timed wall and CPU seconds.

    Checks run untimed.  CPU seconds are those of this process and its
    pool workers during the timed steps.

    Fills ``exact`` with counts that must repeat exactly, ``layer`` with
    this pass's per-layer figures, and ``jitter_out`` with the jittered
    campaign's digest, which is checked after the timed phase.
    """
    from repro import analysis
    from repro.circuit.simulator import EventDrivenSimulator
    from repro.petrinet.reachability import build_reachability_graph, explore
    from repro.stg import specs
    from repro.synthesis import synthesize_rt, synthesize_si
    from repro.synthesis.burst_mode import synthesize_burst_mode
    from repro.testability import stuck_at_coverage
    from repro.verification.conformance import verify_conformance
    from repro.verification.rt_verify import verify_with_constraints

    checks = []
    seconds = {}
    cpu_seconds = []

    def step(label, action):
        outcome.probe.tick()
        with tracer.span(f"flow.{label}"):
            cpu_start = tree_cpu_s()
            start = clock()
            result = outcome.attempt(label, action)
            seconds[label] = clock() - start
            cpu_seconds.append(tree_cpu_s() - cpu_start)
        return result

    stats_before = analysis.stats()
    analysis.invalidate()

    si = {}
    for name in SI_SPECS:
        si[name] = step(f"synthesize_si.{name}", lambda: synthesize_si(specs.load_spec(name)))
    rt = step("synthesize_rt.fifo", lambda: synthesize_rt(specs.load_spec("fifo")))
    step("synthesize_burst_mode.fifo", lambda: synthesize_burst_mode(specs.load_spec("fifo")))

    for name, result in si.items():
        if result is None:
            continue
        label = f"conformance.si.{name}"
        verdict = step(label, lambda: verify_conformance(result.netlist, result.encoded_stg))
        if verdict is not None:
            checks.append((label, verdict.conforms, True))
    if rt is not None:
        verdict = step(
            "conformance.rt",
            lambda: verify_with_constraints(rt.netlist, rt.encoded_stg, rt.constraints),
        )
        if verdict is not None:
            checks.append(("conformance.rt", verdict.correct_under_constraints, True))

    for n_bytes, n_columns in EXPLORE_SIZES:
        label = f"explore.rappid_control_{n_bytes}x{n_columns}"
        graph = step(label, lambda: explore(specs.rappid_control(n_bytes, n_columns).net))
        if graph is not None:
            exact[f"{label}.states"] = len(graph.markings)
            checks.append((label, "deadlock-free" if not graph.deadlocks() else "deadlock", "deadlock-free"))
            layer["explore_states"] = layer.get("explore_states", 0) + len(graph.markings)

    label = "bfs.rappid_control_{}x{}".format(*BFS_SIZE)
    net = specs.rappid_control(*BFS_SIZE).net
    graph = step(label, lambda: build_reachability_graph(net))
    if graph is not None:
        exact[f"{label}.states"] = len(graph.markings)
        layer["bfs_states_per_s"] = len(graph.markings) / seconds[label]
        checks.append((label, graph_digest(graph), expected[label]))
    del graph

    transitions = 0
    for name, netlist in sim_circuits().items():
        label = f"simulate.{name}"
        trace = step(
            label,
            lambda: EventDrivenSimulator(netlist).run(
                duration_ps=SIM_DURATION_PS, max_events=SIM_MAX_EVENTS
            ),
        )
        if trace is not None:
            transitions += trace.total_transitions()
            exact[f"{label}.events"] = trace.event_count
            checks.append((label, trace_digest(trace), expected[label]))
    layer["transitions_per_s"] = transitions / sum(
        seconds[f"simulate.{name}"] for name in SIM_CIRCUITS
    )

    if rt is not None:
        for stages in CHAIN_STAGES:
            label = f"coverage.rt_chain{stages}"
            netlist, rules = chain(rt.netlist, stages)
            report = step(label, lambda: stuck_at_coverage(netlist, rules, STIMULI))
            if report is not None:
                exact[f"{label}.faults"] = [report.total_faults, report.detected_faults]
                checks.append(
                    (
                        label,
                        coverage_digest(report.total_faults, report.detected_faults, report.undetected),
                        expected[label],
                    )
                )
        netlist, rules = chain(rt.netlist, JITTER_STAGES)
        label = f"jitter_coverage.rt_chain{JITTER_STAGES}"
        report = step(label, lambda: stuck_at_coverage(netlist, rules, STIMULI, seed=seed, **JITTER))
        if report is not None:
            exact[f"{label}.faults"] = [report.total_faults, report.detected_faults]
            jitter_out.append(
                coverage_digest(report.total_faults, report.detected_faults, report.undetected)
            )

    for label, got, want in checks:
        outcome.match(label, got, want)
    stats_after = analysis.stats()
    layer["analysis_hits"] = stats_after["hits"] - stats_before["hits"]
    layer["analysis_misses"] = stats_after["misses"] - stats_before["misses"]
    return sum(seconds.values()), sum(cpu_seconds)


def jitter_reference_digest(seed: int) -> str:
    from repro.stg import specs
    from repro.synthesis import synthesize_rt
    from repro.testability.simulation import _reference_simulate_faults

    netlist, rules = chain(synthesize_rt(specs.load_spec("fifo")).netlist, JITTER_STAGES)
    return reference_coverage_digest(
        _reference_simulate_faults(netlist, rules, STIMULI, seed=seed, **JITTER)
    )


def run(seed: int, seconds: float, outcome: Outcome, tracer: Tracer) -> None:
    from repro import analysis
    from repro.engine import pool

    with open(EXPECTED) as handle:
        expected = json.load(handle)
    counters = {"faults_enumerated": 0, "faults_simulated": 0}
    targets = _targets(counters)

    def prepare(_repeat):
        for module in LAYERS:
            importlib.import_module(module)
        pool.shutdown()
        pool.get_pool()

    measure_setup(outcome, LAYERS, prepare)

    passes = []
    cpu = []
    traced_passes = []
    untraced_passes = []
    jitter_digests = []
    traced_layers = []
    began = clock()
    # A pass starts while the window is open, so the last one may end past
    # it; a traced run needs at least one traced and one untraced pass.
    while len(passes) < 1 + outcome.traced or clock() - began < seconds:
        gc.collect()  # untimed: no pass inherits the previous pass's garbage
        traced = outcome.traced and len(passes) % 2 == 1
        layer = {}
        with tracer.recording(targets, active=traced):
            with tracer.span("flow.pass"):
                elapsed, cpu_elapsed = flow_pass(
                    seed, tracer, outcome, expected, outcome.exact, layer, jitter_digests
                )
        passes.append(elapsed)
        cpu.append(cpu_elapsed)
        (traced_passes if traced else untraced_passes).append(elapsed)
        if traced:
            traced_layers.append(layer)

    reference = jitter_reference_digest(seed)
    for digest in jitter_digests:
        outcome.match(f"jitter_coverage.rt_chain{JITTER_STAGES}", digest, reference)
    pool.shutdown()

    if not outcome.traced:
        outcome.metric("latency_ms", 1000.0 * min(passes), "ms", len(passes))
        outcome.metric("cpu_ms", 1000.0 * min(cpu), "ms", len(cpu))
        return
    totals = tracer.totals()
    n = max(len(traced_passes), 1)

    def self_per_pass(name: str) -> float:
        return totals.get(name, {"self_s": 0.0})["self_s"] / n

    for metric, span in (
        ("synthesis.synthesize_si_s", "synthesis.synthesize_si"),
        ("synthesis.synthesize_rt_s", "synthesis.synthesize_rt"),
        ("synthesis.synthesize_burst_mode_s", "synthesis.synthesize_burst_mode"),
        ("stategraph.build_state_graph_s", "stategraph.build_state_graph"),
        ("boolean.minimize_s", "boolean.minimize"),
        ("verification.verify_conformance_s", "verification.verify_conformance"),
        ("petrinet.explore_s", "petrinet.explore"),
        ("petrinet.build_reachability_graph_s", "petrinet.build_reachability_graph"),
        ("circuit.simulator.run_s", "circuit.simulator.run"),
    ):
        outcome.metric(metric, self_per_pass(span), "s", n)
    coverage_s = sum(
        totals.get(f"flow.coverage.rt_chain{stages}", {"total_s": 0.0})["total_s"]
        for stages in CHAIN_STAGES
    )
    jitter_s = totals.get(f"flow.jitter_coverage.rt_chain{JITTER_STAGES}", {"total_s": 0.0})["total_s"]
    outcome.metric("testability.stuck_at_coverage_s", coverage_s / n, "s", n)
    outcome.metric("testability.jitter_coverage_s", jitter_s / n, "s", n)

    def mean_of(key: str) -> float:
        return statistics.fmean(layer.get(key, 0) for layer in traced_layers)

    outcome.metric("petrinet.explore_states", mean_of("explore_states"), "count", n)
    outcome.metric("petrinet.bfs_states_per_s", mean_of("bfs_states_per_s"), "states/s", n)
    outcome.metric("circuit.simulator.transitions_per_s", mean_of("transitions_per_s"), "1/s", n)
    outcome.metric("engine.faultsim.faults_enumerated", counters["faults_enumerated"] / n, "count", n)
    outcome.metric("engine.faultsim.faults_simulated", counters["faults_simulated"] / n, "count", n)
    outcome.metric("analysis.hits", mean_of("analysis_hits"), "count", n)
    outcome.metric("analysis.misses", mean_of("analysis_misses"), "count", n)
    if traced_passes and untraced_passes:
        outcome.metric(
            "trace.overhead_pct",
            100.0 * (statistics.median(traced_passes) / statistics.median(untraced_passes) - 1.0),
            "%",
            len(passes),
        )
