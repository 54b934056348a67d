"""Shared machinery of the end-to-end benchmark.

* :class:`Tracer` -- the in-memory span recorder of traced runs.  A span
  is a name, a start, an end, the parent span and a request id.  Spans
  are recorded around each call the benchmark makes into a layer, and
  around public layer functions the program calls internally, which
  :meth:`Tracer.recording` rebinds from outside for the duration of a
  traced sample and restores afterwards.
* :class:`Outcome` -- counts attempted and failed operations, collects
  metrics with their sample counts, and prints the result lines.
* The host-speed probe, the host stamp, peak-RSS, CPU-time and set-up
  helpers.

Nothing here imports the program under test at module level, so the
entry point can report a missing source tree before touching it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
TRACE_DIR = os.path.join(ROOT, ".bench_traces")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

clock = time.perf_counter


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder; disabled unless a traced sample is running."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Tuple[str, float, float, int, Optional[str]]] = []
        self._parent: contextvars.ContextVar[int] = contextvars.ContextVar(
            "bench-span-parent", default=-1
        )

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        """Record ``name`` around the block when tracing is enabled."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._parent.get(), rid))
        token = self._parent.set(index)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._parent.reset(token)
            _, _, _, parent, rid = self.spans[index]
            self.spans[index] = (name, start, end, parent, rid)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``after(args, kwargs, result)`` may count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def recording(
        self, targets: Sequence[Tuple[str, str, str, Optional[Callable]]], active: bool = True
    ):
        """Enable spans and rebind each target for the duration of the block.

        With ``active`` false the block runs untraced and nothing is rebound.

        A target is ``(module, attribute, span name, after)``; ``attribute``
        is ``function`` or ``Class.method``.  A function is rebound in every
        loaded ``repro`` module that holds it, so calls the program makes
        internally through ``from x import f`` bindings are traced too.
        """
        if not active:
            yield
            return
        restore: List[Tuple[Any, str, Any]] = []
        try:
            for module_name, attribute, name, after in targets:
                module = sys.modules.get(module_name) or __import__(
                    module_name, fromlist=["_"]
                )
                owner_name, _, method = attribute.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[method]
                    restore.append((owner, method, original))
                    setattr(owner, method, self.wrap(name, original, after))
                    continue
                original = getattr(module, attribute)
                traced = self.wrap(name, original, after)
                for loaded in list(sys.modules.values()):
                    namespace = getattr(loaded, "__dict__", None)
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(namespace.items()):
                        if value is original:
                            restore.append((loaded, key, original))
                            setattr(loaded, key, traced)
            self.enabled = True
            yield
        finally:
            self.enabled = False
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is span time minus the time of its direct child spans.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent, _rid) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return totals

    def dump(self, path: str) -> None:
        """Write every span and the per-name totals as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "request"],
                    "spans": self.spans,
                    "totals": self.totals(),
                },
                handle,
            )


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------


class Outcome:
    """Operation counts, metrics and the printed result of one run."""

    def __init__(self, workload: str, seed: int, traced: bool, corrupt: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.exact: Dict[str, Any] = {}
        self.probe = HostProbe()

    def attempt(self, label: str, action: Callable[[], Any]) -> Any:
        """Run one operation; an exception counts as a failure, not a crash."""
        self.attempted += 1
        try:
            return action()
        except Exception:  # a broken operation must not end the run
            self.failed += 1
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        """Record a failed operation when an output disagrees with its oracle."""
        if not ok:
            self.failed += 1
            print(f"MISMATCH {label} {detail}".rstrip(), file=sys.stderr)
        return ok

    def match(self, label: str, got: Any, expected: Any) -> bool:
        """``check`` that an output digest equals its oracle's.

        With ``corrupt`` set (the self-test), every expected digest is
        deliberately wrong, so each comparison must count a failure.
        """
        if self.corrupt:
            expected = f"corrupted:{expected}"
        return self.check(label, got == expected, f"got {got!r} expected {expected!r}")

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def emit(self) -> bool:
        """Print the sample table, the exact-count report, then the result.

        Every workload reports every end-to-end metric of ``BENCHMARK.json``
        (untraced) or every per-layer metric (traced).  A per-layer metric
        of a layer this workload leaves idle reads 0 with 0 samples: the
        layer was not called.  Returns False, printing no result, when a
        metric is missing or has another unit than declared.
        """
        if self.traced:
            self.metric(
                "host.probe_ops_per_s", self.probe.median(), "1/s", len(self.probe.rates)
            )
        declared = declared_metrics(self.traced)
        if self.traced:
            for name, unit in declared.items():
                self.metrics.setdefault(name, (0.0, unit, 0))
        reported = {name: unit for name, (_value, unit, _samples) in self.metrics.items()}
        if reported != declared:
            wrong = sorted(set(reported.items()) ^ set(declared.items()))
            print(f"metrics differ from BENCHMARK.json: {wrong}", file=sys.stderr)
            return False
        for name, (value, unit, samples) in sorted(self.metrics.items()):
            print(f"  {name:<44} {value:>16.6g} {unit:<9} samples={samples}")
        print(
            "report "
            + json.dumps(
                {
                    "workload": self.workload,
                    "seed": self.seed,
                    "trace": int(self.traced),
                    "host": host_stamp(),
                    "probe": self.probe.summary(),
                    "exact": self.exact,
                    "samples": {k: v[2] for k, v in sorted(self.metrics.items())},
                },
                sort_keys=True,
            )
        )
        print(
            json.dumps(
                {
                    "correct": self.failed == 0,
                    "attempted": max(self.attempted, 1),
                    "failed": self.failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit, _samples) in sorted(self.metrics.items())
                    },
                }
            )
        )
        return True


def declared_metrics(traced: bool) -> Dict[str, str]:
    """Name -> unit of the per-layer (traced) or end-to-end metrics declared."""
    with open(MANIFEST) as handle:
        manifest = json.load(handle)
    return {m["name"]: m["unit"] for m in manifest["per_layer" if traced else "end_to_end"]}


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------

PROBE_OPS = 20_000


class HostProbe:
    """A fixed pure-Python loop timed between samples: host speed, not program speed.

    Reported beside the metrics, never used to normalise them.
    """

    def __init__(self) -> None:
        self.rates: List[float] = []

    def tick(self) -> None:
        start = clock()
        acc = 0
        for value in range(PROBE_OPS):
            acc += value * value % 7
        self.rates.append(PROBE_OPS / (clock() - start))

    def median(self) -> float:
        return statistics.median(self.rates) if self.rates else 0.0

    def summary(self) -> Dict[str, float]:
        if len(self.rates) < 4:
            return {"ops_per_s": self.median(), "samples": len(self.rates)}
        q1, q2, q3 = statistics.quantiles(self.rates, n=4)
        return {
            "ops_per_s": q2,
            "iqr_pct": 100.0 * (q3 - q1) / q2,
            "samples": len(self.rates),
        }


def _git_revision() -> Optional[str]:
    """HEAD of the repository the benchmark sits in; None outside git."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over the program's Python sources (works outside git too)."""
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


@functools.lru_cache(maxsize=1)
def host_stamp() -> Dict[str, Any]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return {
        "cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": _git_revision(),
        "src_sha256": _source_digest(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _child_pids() -> List[int]:
    pids: List[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            pass
    return pids


def tree_cpu_s() -> float:
    """CPU seconds (user + system) of this process and all its children.

    Live children (pool workers, which outlive any one call) are read
    from ``/proc`` with their own reaped children; children already
    reaped are counted through ``RUSAGE_CHILDREN``.
    """
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # ended between listing and reading
            continue
        # utime, stime, cutime, cstime are fields 14-17 of stat(5).
        total += sum(int(value) for value in fields[11:15]) / ticks
    return total


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if shared memory started it.

    The tracker is a helper process that otherwise exits only after this
    process does; stopping it here lets the run end with no process of
    its own still alive.  Every segment has been released by then.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds(modules: Iterable[str]) -> float:
    """Wall time for a fresh interpreter to start and import ``modules``."""
    start = clock()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=child_env(),
        check=True,
        timeout=120,
    )
    return clock() - start


def measure_setup(
    outcome: Outcome, modules: Sequence[str], prepare: Callable[[int], Any]
) -> Any:
    """Set up ``SETUP_REPEATS`` times; record the median as ``setup_s``.

    One set-up is a fresh interpreter importing the workload's layers
    plus ``prepare(repeat)`` in this process.  The last repeat's
    prepared state is returned for the timed phase.
    """
    times = []
    state = None
    for repeat in range(SETUP_REPEATS):
        state = None  # release the previous repeat's state before the next
        elapsed = import_seconds(modules)
        start = clock()
        state = prepare(repeat)
        times.append(elapsed + clock() - start)
    if not outcome.traced:
        outcome.metric("setup_s", statistics.median(times), "s", len(times))
    return state


def trace_path(workload: str, seed: int) -> str:
    return os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
