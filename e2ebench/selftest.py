"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Checks, in about two minutes:

1. a short untraced and a short traced run of each workload print every
   end-to-end (untraced) or per-layer (traced) metric of
   ``BENCHMARK.json`` with its unit, a sample count for each metric
   ``layer_map.json`` assigns to that workload, and no failed operation;
2. a run whose expected digests are deliberately corrupted counts
   failures instead of passing;
3. no child process and no ``/dev/shm`` segment outlives a run;
4. ``layer_map.json`` defines every end-to-end metric for every
   workload and maps every per-layer metric to a declared end-to-end
   metric and workload;
5. without the program's sources the benchmark exits non-zero and
   prints no result.

Exits with the number of failed checks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHORT_SECONDS = "2"

failures = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def load(path: str):
    with open(path) as handle:
        return json.load(handle)


def shm_segments():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def session_processes(sid: int):
    """PIDs still alive in session ``sid`` (Linux /proc)."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def bench(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    """Run the benchmark in its own session.

    Returns the exit code, stdout, stderr, surviving session PIDs (killed)
    and new /dev/shm segments.
    """
    before = shm_segments()
    command = [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", SHORT_SECONDS, "--trace", str(trace), *extra]
    process = subprocess.Popen(
        command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = process.communicate(timeout=300)
    leftovers = session_processes(process.pid)
    for pid in leftovers:
        os.kill(pid, 9)
    new_shm = sorted(shm_segments() - before)
    if process.returncode != 0:
        print(stderr, file=sys.stderr)
    return process.returncode, stdout, stderr, leftovers, new_shm


def result_of(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def report_of(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("report "):
            return json.loads(line[len("report "):])
    return {}


def main() -> int:
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    layer_map = load(os.path.join(HERE, "layer_map.json"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}

    # 4. the map covers every per-layer metric
    per_layer = {m["name"] for m in spec["per_layer"]}
    expect(set(layer_map["per_layer"]) == per_layer, "layer map covers exactly the per-layer metrics")
    unmapped = [
        name for name, entry in layer_map["per_layer"].items()
        if entry["workload"] not in workloads + ["all"] or entry["moves"] not in end_to_end | {"all"}
    ]
    expect(not unmapped, f"layer map names declared workloads and end-to-end metrics {unmapped}")
    expect(
        sorted(layer_map["end_to_end"]) == sorted(workloads)
        and all(set(defined) == end_to_end for defined in layer_map["end_to_end"].values()),
        "every end-to-end metric is defined for every workload",
    )

    # 1 and 3. short runs print their metrics and leave nothing behind
    for workload in workloads:
        for trace in (0, 1):
            if trace:
                wanted = per_layer
                own = {
                    name for name, entry in layer_map["per_layer"].items()
                    if entry["workload"] in (workload, "all")
                }
            else:
                wanted = own = end_to_end
            code, stdout, _stderr, leftovers, new_shm = bench(workload, trace)
            result = result_of(stdout)
            label = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None, f"{label} exits 0 with a result")
            if result is None:
                continue
            metrics = result["metrics"]
            samples = report_of(stdout).get("samples", {})
            expect(set(metrics) == wanted, f"{label} prints exactly the declared metrics {sorted(set(metrics) ^ wanted)}")
            expect(
                all(metrics[name]["unit"] == units[name] for name in metrics),
                f"{label} reports the declared units",
            )
            expect(all(samples.get(name, 0) >= 1 for name in own), f"{label} measures its own metrics")
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{label} has zero failed operations",
            )
            expect(not leftovers, f"{label} leaves no child process {leftovers}")
            expect(not new_shm, f"{label} leaves no /dev/shm segment {new_shm}")

    # 2. corrupted expected digests must count failures
    for workload in workloads:
        code, stdout, _stderr, _leftovers, _shm = bench(workload, 0, "--corrupt-expected")
        result = result_of(stdout)
        expect(
            code == 0 and result is not None and result["failed"] >= 1 and not result["correct"],
            f"{workload} with corrupted expected digests counts failures",
        )

    # 5. a tree holding only the benchmark fails cleanly
    bare = os.path.join(ROOT, ".bench_traces", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "e2ebench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, stdout, _stderr, _leftovers, _shm = bench(workloads[0], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result_of(stdout) is None, "without sources: non-zero exit and no result")

    print(f"{len(failures)} failed check(s)")
    return len(failures)


if __name__ == "__main__":
    raise SystemExit(main())
