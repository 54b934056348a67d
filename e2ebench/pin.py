"""Regenerate ``expected.json`` from the retained ``_reference_*`` oracles.

The ``cad_flow`` outputs that do not depend on the workload seed are
checked against these digests.  Every digest here comes from an oracle,
never from the fast path under test:

* flat BFS -- ``_reference_build_reachability_graph``;
* simulation -- ``_ReferenceEventDrivenSimulator``;
* fault campaigns -- ``_reference_simulate_faults``.

Run from the repository root (takes about a minute)::

    python3 e2ebench/pin.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import SRC  # noqa: E402

sys.path.insert(0, SRC)

import cad_flow  # noqa: E402


def main() -> int:
    from repro.circuit.simulator import _ReferenceEventDrivenSimulator
    from repro.petrinet.reachability import _reference_build_reachability_graph
    from repro.stg import specs
    from repro.synthesis import synthesize_rt
    from repro.testability.simulation import _reference_simulate_faults

    expected = {}
    label = "bfs.rappid_control_{}x{}".format(*cad_flow.BFS_SIZE)
    graph = _reference_build_reachability_graph(specs.rappid_control(*cad_flow.BFS_SIZE).net)
    expected[label] = cad_flow.graph_digest(graph)
    del graph
    for name, netlist in cad_flow.sim_circuits().items():
        trace = _ReferenceEventDrivenSimulator(netlist).run(
            duration_ps=cad_flow.SIM_DURATION_PS, max_events=cad_flow.SIM_MAX_EVENTS
        )
        expected[f"simulate.{name}"] = cad_flow.trace_digest(trace)
    cell = synthesize_rt(specs.load_spec("fifo")).netlist
    for stages in cad_flow.CHAIN_STAGES:
        netlist, rules = cad_flow.chain(cell, stages)
        results = _reference_simulate_faults(netlist, rules, cad_flow.STIMULI)
        expected[f"coverage.rt_chain{stages}"] = cad_flow.reference_coverage_digest(results)
    with open(cad_flow.EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expected)} digests to {cad_flow.EXPECTED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
