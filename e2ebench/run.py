"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload decode_long --seed 1 --seconds 30 --trace 0

Runs one workload (``decode_long``, ``cad_flow`` or ``service_mix``; see
``e2ebench/README.md``) from the repository root's ``src`` tree, checks
every timed output against its oracle and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
Exits non-zero, printing no result, when the program's sources are
missing, or a metric of ``BENCHMARK.json`` was not measured.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

WORKLOADS = ("decode_long", "cad_flow", "service_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-expected",
        action="store_true",
        help="self-test only: make every expected digest wrong",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(harness.SRC, "repro", "engine")):
        print(f"no program sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)

    import importlib

    workload = importlib.import_module(args.workload)
    outcome = harness.Outcome(args.workload, args.seed, bool(args.trace), args.corrupt_expected)
    tracer = harness.Tracer()
    workload.run(args.seed, args.seconds, outcome, tracer)
    harness.stop_resource_tracker()
    if args.trace:
        tracer.dump(harness.trace_path(args.workload, args.seed))
    else:
        outcome.metric("peak_rss_mb", harness.peak_rss_mb(), "MB", 1)
    return 0 if outcome.emit() else 3


if __name__ == "__main__":
    raise SystemExit(main())
