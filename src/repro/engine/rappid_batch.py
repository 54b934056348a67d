"""Batched RAPPID front-end evaluation.

:func:`run_batched` computes exactly what the reference per-instruction
loop in :mod:`repro.rappid.microarch` computes -- the same floating point
operations in the same order for every per-instruction time, so those
results are bit-identical -- while stripping the interpreter overhead.

One stream, precomputed latencies
---------------------------------
Every entry point works on the structure-of-arrays
:class:`~repro.rappid.workload.InstructionStream` (plain instruction
lists are converted once by ``InstructionStream.from_instructions``).
:func:`_prepare` turns its buffers into per-instruction arrays with one
vectorised table lookup per latency model: first and last cache line,
length-decode latency (indexed by length and class code), the tag hop
into each instruction (the tag latency of its predecessor's length) and
the steering latency.  The per-instruction recurrence
(:func:`_hot_loop`, or :func:`_general_loop` when an instruction can
span ``prefetch_depth`` line boundaries) then only adds and compares
floats; line arrivals are dict lookups, with the reference's arrival
recursion unrolled in :func:`_arrival_of` for lines no instruction
starts in.  Steering (a max-plus scan per output row) and the interval
reductions run vectorised in numpy with the same IEEE float64 ops.

``energy_pj`` alone is accumulated as one closed-form sum instead of four
adds per instruction, so it may differ from the reference in the last
ulp; everything else compares equal with ``==``.

Warm-start seams (:class:`ShardState`)
--------------------------------------
``run_batched`` (and both loop bodies) accept an explicit carry --
previous tag time and length, per-row ``buffer_free``, the round-robin
row phase, and the ``line_consumed``/``line_arrival`` tails -- so a
stream can be evaluated from any seam state and report its carry-out
(``emit_carry=True``).  Chaining shards through their carries performs
the same floating-point operations in the same order as one monolithic
run: per-instruction times concatenate bit-identically.

Exact sharded evaluation (:func:`run_sharded`)
----------------------------------------------
``run_sharded`` cuts a large stream at cache-line boundaries.  A shard
is a slice of the stream's buffers, ``(config, stream[start:stop],
base_line)``, and every worker solves its shard from a *cold* seam in
parallel (:func:`_cold_shard`), returning its per-instruction and
per-line times as numpy arrays.  On the pool path, large calls publish
the stream's buffers **once** through the shared-memory payload
machinery of :mod:`repro.engine.pool` (:func:`_publish_shard_set`):
each worker call ships only a ``(handle, shard index)`` pair and slices
its shard out of the shared stream (:func:`_cold_shard_payload` caches
the decoded stream per call token).  Calls below the shared-memory
threshold, or any call when ``/dev/shm`` is unavailable, send each
worker its own slice instead; the transport taken is recorded as
``payload`` (``"shm"``/``"inline"``) in
:data:`repro.engine.pool.LAST_DECISION`.

The parent then stitches shards in order (:func:`_stitch_shard`): it
replays a few cache lines of each shard from the true (warm) seam state
and watches for the warm trajectory to lock onto the worker's cold one
at one constant offset ``d``.  All calibration latencies are
integer-valued picoseconds, so every time in the system is an
exactly-representable float64 integer; once every live state component
(tag times, per-line consumed/arrival times) in a verification window
agrees with ``cold + d`` bit-for-bit, every later value provably equals
``cold + d`` as well, and the precomputed suffix is adopted by one exact
vectorised add.  Steering runs once over the merged tag array -- the
identical :func:`_steer` call ``run_batched`` makes -- and the shared
:func:`_finalize` derives the measurement fields, so ``run_sharded`` is
**bit-identical** to :func:`run_batched` on every field (``energy_pj``
is the very same closed-form sum).  Configurations with fractional
calibrations, or seams that never lock, degrade gracefully: the parent
replays the whole shard from the warm seam, which is still exact,
merely not parallel.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.rappid.isa import (
    decode_latency_ps,
    steering_latency_ps,
    tag_latency_ps,
)
from repro.rappid.workload import (
    CLASS_ORDER,
    CacheLine,
    Instruction,
    InstructionStream,
)

_NEG_INF = float("-inf")

# Magnitude bound under which sums of exactly-representable integers stay
# exactly representable in float64 through every intermediate below.
_EXACT_BOUND = float(2**50)

# Instructions converted to Python lists per step of a seam replay: a
# replay usually locks within a few lines, so whole-shard conversion
# would be wasted.
_REPLAY_BLOCK = 1_024


def _validate_config(config) -> None:
    """Reject configurations whose line-arrival recursion cannot terminate."""
    if config.prefetch_depth < 1:
        raise ValueError(
            f"prefetch_depth must be >= 1 (got {config.prefetch_depth}): "
            "a line's arrival is defined relative to the consumption of the "
            "line prefetch_depth earlier, so depth 0 would make every line "
            "block on itself"
        )


@dataclass
class ShardState:
    """Carry state of the RAPPID recurrence at an instruction-stream seam.

    ``tag_time``/``prev_length`` describe the last tagged instruction
    before the seam, ``buffer_free``/``next_row`` the steering fabric
    (per-row absolute free times and the round-robin phase of the next
    instruction), and ``line_consumed``/``line_arrival`` the cache-line
    state, keyed by absolute line index.  The line dicts are carried in
    full (a gap line arbitrarily far back can in principle be re-read
    through the arrival recursion); :func:`run_sharded` never ships them
    across processes, so their size only costs memory, not IPC.
    """

    tag_time: float = _NEG_INF
    prev_length: int = 0
    next_row: int = 0
    buffer_free: List[float] = field(default_factory=list)
    line_consumed: Dict[int, float] = field(default_factory=dict)
    line_arrival: Dict[int, float] = field(default_factory=dict)

    @classmethod
    def cold(cls, rows: int) -> "ShardState":
        """The state of an untouched front end (stream start)."""
        return cls(buffer_free=[0.0] * rows)


class _Prepared(NamedTuple):
    """Per-instruction arrays of one stream under one line geometry."""

    stream: InstructionStream
    first_lines: np.ndarray
    last_lines: np.ndarray
    decode_ps: np.ndarray  # length-decode latency of each instruction
    hop_ps: np.ndarray  # tag hop into each instruction (predecessor's length)
    steer_ps: np.ndarray
    span_max: int  # most line boundaries one instruction crosses


def _prepare(
    instructions: Sequence[Instruction], line_bytes: int, prev_length: int = 0
) -> _Prepared:
    """Latency and line arrays of a stream (``prev_length``: carried length).

    Each latency model is evaluated once per distinct length (or
    length/class pair) present, then gathered per instruction.  The first
    hop of a cold stream is 0.0: it is added to a ``-inf`` tag time.
    """
    stream = InstructionStream.from_instructions(instructions)
    lengths = stream.lengths
    first_lines = stream.first_lines(line_bytes)
    last_lines = stream.last_lines(line_bytes)
    classes = len(CLASS_ORDER)
    keys = lengths * classes + stream.class_codes
    size = int(lengths.max()) + 1
    decode_of = np.zeros(size * classes)
    for key in np.flatnonzero(np.bincount(keys)).tolist():
        decode_of[key] = decode_latency_ps(key // classes, CLASS_ORDER[key % classes])
    tag_of = np.zeros(size)
    steer_of = np.zeros(size)
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        tag_of[length] = tag_latency_ps(length)
        steer_of[length] = steering_latency_ps(length)
    hop_ps = np.empty(len(lengths))
    hop_ps[0] = tag_latency_ps(prev_length) if prev_length else 0.0
    hop_ps[1:] = tag_of[lengths[:-1]]
    return _Prepared(
        stream,
        first_lines,
        last_lines,
        decode_of[keys],
        hop_ps,
        steer_of[lengths],
        int((last_lines - first_lines).max()),
    )


def _loop_for(prefetch_depth: int, span_max: int):
    """Hot loop when no instruction spans ``prefetch_depth`` line boundaries.

    Deferring a line's ``line_consumed`` store to the line change is
    observable only if a straddling fetch can read the *current* line's
    consumption, i.e. when an instruction spans at least
    ``prefetch_depth`` line boundaries (``span_max`` is the stream's
    widest span).  The common regime takes the hot loop; the exotic one
    keeps per-instruction stores.
    """
    return _hot_loop if prefetch_depth > span_max else _general_loop


def _positive_deltas(times: np.ndarray) -> np.ndarray:
    """``b - a`` for consecutive pairs with ``b > a`` (IEEE-identical)."""
    deltas = np.diff(times)
    return deltas[deltas > 0.0]


def _intervals(times: Sequence[float]) -> List[float]:
    """``[b - a for consecutive pairs if b > a]`` as a list."""
    return _positive_deltas(np.asarray(times, dtype=np.float64)).tolist()


def run_batched(
    config,
    instructions: Sequence[Instruction],
    lines: Sequence[CacheLine],
    carry: Optional[ShardState] = None,
    emit_carry: bool = False,
) -> Optional[dict]:
    """Evaluate an instruction stream in one batched pass.

    Returns the measurement fields of
    :class:`~repro.rappid.microarch.RappidResult` as a dict (the caller
    owns the result type, avoiding a circular import), or ``None`` for an
    empty stream.

    ``carry`` warm-starts the evaluation from a seam state (the passed
    object is not mutated); ``emit_carry=True`` adds the carry-out under
    the ``"carry_out"`` key.  Chaining calls through their carries
    reproduces a monolithic run's per-instruction times bit-for-bit;
    intervals and latencies are reported per call, over this stream only.
    """
    _validate_config(config)
    if not len(instructions):
        return None
    if carry is None:
        carry = ShardState.cold(config.rows)
    prep = _prepare(instructions, config.line_bytes, carry.prev_length)

    loop = _loop_for(config.prefetch_depth, prep.span_max)
    avail_times, tag_times, line_consumed, line_arrival = loop(
        prep.first_lines,
        prep.last_lines,
        prep.decode_ps,
        prep.hop_ps,
        config.prefetch_depth,
        config.line_fetch_latency_ps,
        carry.tag_time,
        dict(carry.line_consumed),
        dict(carry.line_arrival),
    )
    issue_arr, buffer_free, next_row = _steer(
        tag_times,
        prep.steer_ps,
        config.rows,
        config.output_buffer_cycle_ps,
        carry.buffer_free or [0.0] * config.rows,
        carry.next_row,
    )

    if carry.line_consumed:
        # Per-call contract: line intervals cover only the lines this
        # stream consumed, not the carried-in history (a carried line this
        # call re-consumed reports its updated time).
        consumed_values = [
            line_consumed[line] for line in np.unique(prep.first_lines).tolist()
        ]
    else:
        consumed_values = list(line_consumed.values())
    lengths = prep.stream.lengths
    fields = _finalize(
        config,
        lengths,
        avail_times,
        tag_times,
        issue_arr,
        consumed_values,
        len(lengths),
        len(lines),
        carry.next_row,
    )
    if emit_carry:
        fields["carry_out"] = ShardState(
            tag_time=float(tag_times[-1]),
            prev_length=int(lengths[-1]),
            next_row=next_row,
            buffer_free=buffer_free,
            line_consumed=line_consumed,
            line_arrival=line_arrival,
        )
    return fields


def _finalize(
    config,
    lengths: np.ndarray,
    avail_times: np.ndarray,
    tag_times: np.ndarray,
    issue_times: np.ndarray,
    consumed_values: Sequence[float],
    instruction_count: int,
    line_count: int,
    first_row: int = 0,
) -> dict:
    """Derive the measurement fields from the raw per-instruction times.

    Shared verbatim by :func:`run_batched` and :func:`run_sharded` so the
    two entry points perform the identical final floating-point ops.
    """
    rows = config.rows
    # Round-robin row assignment: row r's issues sit at positions
    # congruent to (r - first_row) modulo rows.
    steer_intervals = np.concatenate(
        [
            _positive_deltas(issue_times[(row - first_row) % rows :: rows])
            for row in range(rows)
        ]
    )
    energy = (
        instruction_count
        * (config.decode_energy_pj + config.tag_energy_pj + config.steer_energy_pj)
        + config.byte_latch_energy_pj * int(lengths.sum())
    )
    consumed = np.sort(np.asarray(consumed_values, dtype=np.float64))
    return {
        "instruction_count": instruction_count,
        "line_count": line_count,
        "total_time_ps": float(issue_times.max()),
        "issue_times_ps": issue_times.tolist(),
        "instruction_latencies_ps": (issue_times - avail_times).tolist(),
        "tag_intervals_ps": _intervals(tag_times),
        "line_intervals_ps": _intervals(consumed),
        "steer_intervals_ps": steer_intervals.tolist(),
        "energy_pj": energy,
    }


def _steer(
    tag_arr: np.ndarray,
    steer_arr: np.ndarray,
    rows: int,
    cycle: float,
    initial_free: Optional[List[float]] = None,
    first_row: int = 0,
) -> Tuple[np.ndarray, List[float], int]:
    """Issue times for round-robin steering into ``rows`` output buffers.

    The recurrence per row is ``issue[k] = max(tag[k], issue[k-1] + cycle)
    + steer[k]``, a max-plus scan.  When every input is an integer-valued
    float within :data:`_EXACT_BOUND` -- true for the calibration tables,
    whose picosecond latencies are whole numbers -- every intermediate of
    both the sequential reference loop and the ``cumsum``/
    ``maximum.accumulate`` transform below is an exactly-representable
    integer, so the vectorised result is bit-identical and the scan runs
    per row in C.  Fractional calibrations fall back to the sequential
    loop.

    ``initial_free``/``first_row`` warm-start the fabric at a seam.

    Returns ``(issue_times, final buffer_free, next_row)``.
    """
    n = len(tag_arr)
    if initial_free is None:
        initial_free = [0.0] * rows
    free_arr = np.asarray(initial_free, dtype=np.float64)
    exact = (
        float(cycle).is_integer()
        and cycle >= 0.0
        and bool(np.isfinite(tag_arr).all())
        and bool((tag_arr == np.floor(tag_arr)).all())
        and bool((steer_arr == np.floor(steer_arr)).all())
        and bool((free_arr == np.floor(free_arr)).all())
        and float(np.abs(tag_arr).max(initial=0.0)) < _EXACT_BOUND
        and float(np.abs(free_arr).max(initial=0.0)) < _EXACT_BOUND
        and n * (float(np.abs(steer_arr).max(initial=0.0)) + cycle) < _EXACT_BOUND
    )
    if exact:
        issue_arr = np.empty(n)
        final_free = list(initial_free)
        for row in range(rows):
            offset = (row - first_row) % rows
            tag_row = tag_arr[offset::rows]
            if not len(tag_row):
                continue
            steer_row = steer_arr[offset::rows]
            ceiling = tag_row + steer_row
            # The seam buffer_free enters only the first element.
            ceiling[0] = max(ceiling[0], initial_free[row] + steer_row[0])
            offsets = np.empty(len(tag_row))
            offsets[0] = 0.0
            np.cumsum(steer_row[1:] + cycle, out=offsets[1:])
            issue_row = np.maximum.accumulate(ceiling - offsets) + offsets
            issue_arr[offset::rows] = issue_row
            final_free[row] = float(issue_row[-1]) + cycle
        return issue_arr, final_free, (first_row + n) % rows

    issue_times: List[float] = []
    issue_append = issue_times.append
    buffer_free = list(initial_free)
    row = first_row
    for tag_time, steer_lat in zip(tag_arr.tolist(), steer_arr.tolist()):
        free = buffer_free[row]
        steer_start = tag_time if tag_time >= free else free
        issue = steer_start + steer_lat
        buffer_free[row] = issue + cycle
        row += 1
        if row == rows:
            row = 0
        issue_append(issue)
    return np.array(issue_times), buffer_free, row


def _arrival_of(
    line: int,
    line_arrival: Dict[int, float],
    line_consumed: Dict[int, float],
    prefetch_depth: int,
    fetch_latency: float,
) -> float:
    """Arrival time of ``line``: the reference's recursion, unrolled.

    A line arrives ``fetch_latency`` after the line ``prefetch_depth``
    earlier was consumed, or -- when that blocker has no consumption on
    record -- after the blocker's own arrival; the first
    ``prefetch_depth`` lines arrive at 0.  Every arrival computed on the
    way is stored, as in the reference.
    """
    pending = []
    while True:
        arrival = line_arrival.get(line)
        if arrival is not None:
            break
        if line < prefetch_depth:
            arrival = line_arrival[line] = 0.0
            break
        pending.append(line)
        line -= prefetch_depth
        arrival = line_consumed.get(line)
        if arrival is not None:
            break
    for line in reversed(pending):
        arrival = line_arrival[line] = arrival + fetch_latency
    return arrival


def _hot_loop(
    first_lines: np.ndarray,
    last_lines: np.ndarray,
    decode_ps: np.ndarray,
    hop_ps: np.ndarray,
    prefetch_depth: int,
    fetch_latency: float,
    previous_tag_time: float,
    line_consumed: Dict[int, float],
    line_arrival: Dict[int, float],
) -> Tuple[np.ndarray, np.ndarray, Dict[int, float], Dict[int, float]]:
    """Per-instruction recurrence with line-consumption stores deferred.

    Tag times are nondecreasing, so one store per line (of the line's last
    tag) equals the reference's per-instruction running max; the caller
    guarantees no straddling fetch can observe the deferral.  A cold
    ``previous_tag_time`` of ``-inf`` makes the first tag collapse to
    ``ready`` without the reference's position-0 branch.

    Lines are walked as per-instruction steps and spans (small ints,
    which Python does not allocate), and times go straight into
    ``array('d')`` buffers.
    """
    arrival_get = line_arrival.get
    consumed_get = line_consumed.get
    avail_times = array("d")
    tag_times = array("d")
    avail_append = avail_times.append
    tag_append = tag_times.append
    steps = np.diff(first_lines, prepend=-1)
    spans = last_lines - first_lines

    current_line = -1
    current_avail = 0.0
    for step, span, decode_lat, hop in zip(
        steps.tolist(), spans.tolist(), decode_ps.tolist(), hop_ps.tolist()
    ):
        if step:
            if current_line >= 0:
                line_consumed[current_line] = previous_tag_time
            current_line += step
            current_avail = arrival_get(current_line)
            if current_avail is None:
                previous_done = consumed_get(current_line - prefetch_depth)
                if previous_done is None:
                    current_avail = _arrival_of(
                        current_line, line_arrival, line_consumed, prefetch_depth, fetch_latency
                    )
                else:
                    current_avail = previous_done + fetch_latency
                    line_arrival[current_line] = current_avail
        bytes_available = current_avail
        if span:
            for line in range(current_line + 1, current_line + span + 1):
                arrival = arrival_get(line)
                if arrival is None:
                    previous_done = consumed_get(line - prefetch_depth)
                    if previous_done is None:
                        arrival = _arrival_of(
                            line, line_arrival, line_consumed, prefetch_depth, fetch_latency
                        )
                    else:
                        arrival = previous_done + fetch_latency
                        line_arrival[line] = arrival
                if arrival > bytes_available:
                    bytes_available = arrival
        avail_append(bytes_available)

        ready = bytes_available + decode_lat
        tag_time = previous_tag_time + hop
        if tag_time < ready:
            tag_time = ready
        tag_append(tag_time)
        previous_tag_time = tag_time
    if current_line >= 0:
        line_consumed[current_line] = previous_tag_time
    return np.frombuffer(avail_times), np.frombuffer(tag_times), line_consumed, line_arrival


def _general_loop(
    first_lines: np.ndarray,
    last_lines: np.ndarray,
    decode_ps: np.ndarray,
    hop_ps: np.ndarray,
    prefetch_depth: int,
    fetch_latency: float,
    previous_tag_time: float,
    line_consumed: Dict[int, float],
    line_arrival: Dict[int, float],
) -> Tuple[np.ndarray, np.ndarray, Dict[int, float], Dict[int, float]]:
    """Reference-shaped loop with per-instruction line_consumed stores.

    Used for exotic configurations (instructions that can span
    ``prefetch_depth`` line boundaries) where the deferred store of
    :func:`_hot_loop` could be observed.  Same parameters as
    :func:`_hot_loop`.
    """
    arrival_get = line_arrival.get
    avail_times = array("d")
    tag_times = array("d")
    for first_line, last_line, decode_lat, hop in zip(
        first_lines.tolist(), last_lines.tolist(), decode_ps.tolist(), hop_ps.tolist()
    ):
        bytes_available = arrival_get(first_line)
        if bytes_available is None:
            bytes_available = _arrival_of(
                first_line, line_arrival, line_consumed, prefetch_depth, fetch_latency
            )
        for line in range(first_line + 1, last_line + 1):
            arrival = arrival_get(line)
            if arrival is None:
                arrival = _arrival_of(
                    line, line_arrival, line_consumed, prefetch_depth, fetch_latency
                )
            if arrival > bytes_available:
                bytes_available = arrival
        avail_times.append(bytes_available)

        ready = bytes_available + decode_lat
        tag_time = previous_tag_time + hop
        if tag_time < ready:
            tag_time = ready
        tag_times.append(tag_time)

        consumed = line_consumed.get(first_line, 0.0)
        line_consumed[first_line] = consumed if consumed >= tag_time else tag_time
        previous_tag_time = tag_time
    return np.frombuffer(avail_times), np.frombuffer(tag_times), line_consumed, line_arrival


# -- exact multiprocessing shard protocol --------------------------------------------


def _shard_boundaries(first_lines: np.ndarray, shards: int) -> List[int]:
    """Split instruction indices into contiguous, line-aligned chunks."""
    n = len(first_lines)
    boundaries = [0]
    for shard in range(1, shards):
        cut = n * shard // shards
        while 0 < cut < n and first_lines[cut] == first_lines[cut - 1]:
            cut += 1
        if cut > boundaries[-1] and cut < n:
            boundaries.append(cut)
    boundaries.append(n)
    return boundaries


def _shard_payload(config, stream: InstructionStream, span: Tuple[int, int, int]) -> tuple:
    """Wire format of one shard: the config, a stream slice, its base line."""
    start, stop, base_line = span
    return config, stream[start:stop], base_line


def _store_lines(by_line: np.ndarray, lines: Dict[int, float]) -> None:
    """Write a line dict into a per-line array."""
    if lines:
        keys = np.fromiter(lines.keys(), np.int64, len(lines))
        by_line[keys] = np.fromiter(lines.values(), np.float64, len(lines))


def _line_array(by_line: Dict[int, float], line_count: int) -> np.ndarray:
    """Per-line times as an array, NaN where the dict has no entry."""
    values = np.full(line_count, np.nan)
    _store_lines(values, by_line)
    return values


def _cold_shard(payload: tuple) -> tuple:
    """Worker: solve one shard from a cold seam, on its slice's arrays.

    Line indices are relative to the shard's base line.  Returns
    ``(avail, tags, consumed-by-line, arrival-by-line)`` as float64
    arrays; the per-line arrays hold NaN for lines the recurrence never
    touched (gap lines with no instruction start).
    """
    config, stream, base_line = payload
    prep = _prepare(stream, config.line_bytes)
    first_lines = prep.first_lines - base_line
    last_lines = prep.last_lines - base_line
    loop = _loop_for(config.prefetch_depth, prep.span_max)
    avail, tags, consumed, arrival = loop(
        first_lines,
        last_lines,
        prep.decode_ps,
        prep.hop_ps,
        config.prefetch_depth,
        config.line_fetch_latency_ps,
        _NEG_INF,
        {},
        {},
    )
    line_count = int(last_lines.max()) + 1
    return avail, tags, _line_array(consumed, line_count), _line_array(arrival, line_count)


def _publish_shard_set(config, stream: InstructionStream, spans: Sequence[tuple]):
    """Publish one call's stream and shard spans as a shared-memory handle.

    Returns ``None`` when a segment is not worth it or cannot be created
    -- buffers below the shared-memory threshold, or ``/dev/shm``
    unavailable.  An inline handle would ship the *whole* stream in
    every worker call (N times the data); the caller then sends each
    worker its own slice instead.
    """
    from repro.engine import pool

    if stream.nbytes < pool.SHM_MIN_PAYLOAD_BYTES:
        return None
    blob = pickle.dumps((config, stream, list(spans)), protocol=pickle.HIGHEST_PROTOCOL)
    ref = pool.publish_payload(blob)
    if ref.kind != "shm":
        pool.release_payload(ref)  # no-op for inline handles
        return None
    return ref


# Worker-side cache of the one in-flight call's shard set, so a worker
# serving several shards of one run_sharded call attaches and unpickles
# it once.  Tokens are one per call and never recur (the parent releases
# the segment before returning), so a single slot is the right bound --
# anything older is dead weight in a long-lived worker.
_SHARD_SET_CACHE: Dict[str, tuple] = {}


def _cold_shard_payload(ref, index: int) -> tuple:
    """Worker entry point for the published-payload route.

    Fetches the call's stream from the shared-memory segment, caches the
    decoded form per token, and solves shard ``index`` exactly like
    :func:`_cold_shard`.
    """
    from repro.engine import pool

    shard_set = _SHARD_SET_CACHE.get(ref.token)
    if shard_set is None:
        shard_set = pickle.loads(pool.fetch_payload(ref))
        # The decoded set supersedes the raw bytes; drop both the blob
        # and any previous call's set rather than pinning dead payloads.
        pool.forget_cached_payload(ref)
        _SHARD_SET_CACHE.clear()
        _SHARD_SET_CACHE[ref.token] = shard_set
    config, stream, spans = shard_set
    return _cold_shard(_shard_payload(config, stream, spans[index]))


def _offset_exact(cold_arrays: Sequence[np.ndarray]) -> bool:
    """True when every finite cold value is an integer within the exact bound.

    The suffix-adoption step adds a constant offset to the worker's
    trajectory; that addition is bit-exact only over integer-valued
    float64s, so fractional calibrations disable adoption (the stitcher
    then replays the shard fully, which is exact regardless).
    """
    for values in cold_arrays:
        finite = values[np.isfinite(values)]
        if finite.size and (
            bool((finite != np.floor(finite)).any())
            or float(np.abs(finite).max()) >= _EXACT_BOUND
        ):
            return False
    return True


def _worker_count() -> int:
    from repro.engine import pool

    return pool.worker_count()


def _replay_lists(array: np.ndarray, start: int, stop: int):
    """``array[start:stop]`` as Python scalars, converted block by block."""
    return chain.from_iterable(
        array[low : min(low + _REPLAY_BLOCK, stop)].tolist()
        for low in range(start, stop, _REPLAY_BLOCK)
    )


def _line_dict(by_line: np.ndarray, low: int) -> Dict[int, float]:
    """The recorded (non-NaN) entries of ``by_line[low:]``, keyed by line."""
    values = by_line[low:]
    known = np.flatnonzero(values == values)
    return dict(zip((known + low).tolist(), values[known].tolist()))


def _stitch_shard(
    config,
    prep: _Prepared,
    start: int,
    stop: int,
    base_line: int,
    cold: tuple,
    window_lines: int,
    consumed_by_line: np.ndarray,
    arrival_by_line: np.ndarray,
    previous_tag_time: float,
    out_avail: np.ndarray,
    out_tags: np.ndarray,
) -> float:
    """Replay one shard from the true seam until it locks onto the cold run.

    The global line state lives in ``consumed_by_line``/``arrival_by_line``
    (NaN: nothing on record); the replay works on dicts seeded with the
    lines it can read.  It mirrors :func:`_general_loop` instruction by
    instruction (identical float ops), writing into
    ``out_avail``/``out_tags``.  After each completed cache line the warm
    state is compared against the worker's cold state: once every tag,
    consumed and arrival value across ``window_lines`` consecutive lines
    differs from the cold value by one constant integer offset ``d`` --
    and every window line has a consumed entry, which pins the arrival
    recursion's reach-back inside the window -- all later warm values
    provably equal ``cold + d``, so the remaining suffix is adopted with
    one exact vectorised add.  If the window never locks (or the cold
    values are not exact integers) the whole shard is replayed, which is
    exact, just sequential.  The first shard's cold seam *is* the stream
    start, so it is adopted wholesale.

    Returns the tag time carried past the shard.
    """
    cold_avail, cold_tags, cold_consumed, cold_arrival = cold
    line_count = len(cold_consumed)
    if start == 0:
        out_avail[:stop] = cold_avail
        out_tags[:stop] = cold_tags
        consumed_by_line[:line_count] = cold_consumed
        arrival_by_line[:line_count] = cold_arrival
        return float(cold_tags[-1])

    span_max = prep.span_max
    prefetch_depth = config.prefetch_depth
    fetch_latency = config.line_fetch_latency_ps
    # The replay reads lines from base_line on, plus the arrival walk's
    # reach-back, which stops at the first earlier line with an arrival on
    # record: when every line before the seam has one, it never passes
    # base_line - prefetch_depth.
    seed_from = 0
    if not np.isnan(arrival_by_line[:base_line]).any():
        seed_from = max(0, base_line - prefetch_depth)
    line_consumed = _line_dict(consumed_by_line, seed_from)
    line_arrival = _line_dict(arrival_by_line, seed_from)
    arrival_get = line_arrival.get
    consumed_get = line_consumed.get
    exact_ok = _offset_exact(cold)
    consumed_list = cold_consumed.tolist() if exact_ok else []
    arrival_list = cold_arrival.tolist() if exact_ok else []

    # Uniform warm-minus-cold tag offset of each completed line (NaN: mixed).
    line_delta: Dict[int, float] = {}

    def window_offset(top: int) -> Optional[float]:
        """The lock offset, or None if the window below ``top`` disagrees."""
        d = line_delta.get(top)
        if d is None or d != d:
            return None
        if d != int(d) or not -_EXACT_BOUND < d < _EXACT_BOUND:
            return None
        low = top - window_lines + 1
        if low < base_line:
            return None
        for line in range(low, top + 1):
            tag_d = line_delta.get(line)
            if tag_d is not None and tag_d != d:
                return None
            index = line - base_line
            cold_done = consumed_list[index]
            warm_done = consumed_get(line)
            if warm_done is None:
                # Gap line: the arrival walk could step over the window's
                # verified state, so refuse to lock on windows with gaps.
                return None
            if cold_done != cold_done or warm_done - cold_done != d:
                return None
            warm_arrival = arrival_get(line)
            if warm_arrival is not None:
                cold_arr = arrival_list[index]
                if cold_arr != cold_arr or warm_arrival - cold_arr != d:
                    return None
        for line in range(top + 1, top + span_max + 1):
            index = line - base_line
            if index >= line_count:
                break
            warm_arrival = arrival_get(line)
            if warm_arrival is not None:
                cold_arr = arrival_list[index]
                if cold_arr != cold_arr or warm_arrival - cold_arr != d:
                    return None
        return d

    avail_times: List[float] = []
    tag_times: List[float] = []
    adopt_from: Optional[int] = None
    adopt_d = 0.0
    current_line = -1
    current_delta: Optional[float] = None
    i = start
    for first_line, last_line, decode_lat, hop, cold_tag in zip(
        _replay_lists(prep.first_lines, start, stop),
        _replay_lists(prep.last_lines, start, stop),
        _replay_lists(prep.decode_ps, start, stop),
        _replay_lists(prep.hop_ps, start, stop),
        _replay_lists(cold_tags, 0, stop - start),
    ):
        if first_line != current_line:
            if current_line >= 0:
                line_delta[current_line] = (
                    current_delta if current_delta is not None else float("nan")
                )
                if exact_ok:
                    locked = window_offset(current_line)
                    if locked is not None:
                        adopt_from = i
                        adopt_d = locked
                        break
            current_line = first_line
            current_delta = None

        bytes_available = arrival_get(first_line)
        if bytes_available is None:
            bytes_available = _arrival_of(
                first_line, line_arrival, line_consumed, prefetch_depth, fetch_latency
            )
        for line in range(first_line + 1, last_line + 1):
            arrival = arrival_get(line)
            if arrival is None:
                arrival = _arrival_of(
                    line, line_arrival, line_consumed, prefetch_depth, fetch_latency
                )
            if arrival > bytes_available:
                bytes_available = arrival
        avail_times.append(bytes_available)

        ready = bytes_available + decode_lat
        tag_time = previous_tag_time + hop
        if tag_time < ready:
            tag_time = ready
        tag_times.append(tag_time)

        consumed = consumed_get(first_line)
        if consumed is None or consumed < tag_time:
            line_consumed[first_line] = tag_time

        delta = tag_time - cold_tag
        if current_delta is None:
            current_delta = delta
        elif current_delta != delta:
            current_delta = float("nan")

        previous_tag_time = tag_time
        i += 1
    out_avail[start:i] = avail_times
    out_tags[start:i] = tag_times
    _store_lines(consumed_by_line, line_consumed)
    _store_lines(arrival_by_line, line_arrival)
    if adopt_from is None:
        return previous_tag_time

    # Locked: adopt the precomputed suffix at the constant offset.  Lines
    # after the last replayed one take the cold consumption; arrivals
    # already on record (warm) are kept.
    tail = adopt_from - start
    np.add(cold_avail[tail:], adopt_d, out=out_avail[adopt_from:stop])
    np.add(cold_tags[tail:], adopt_d, out=out_tags[adopt_from:stop])
    skip = int(prep.first_lines[adopt_from - 1]) + 1 - base_line
    cold_tail = cold_consumed[skip:]
    np.copyto(
        consumed_by_line[base_line + skip : base_line + line_count],
        cold_tail + adopt_d,
        where=cold_tail == cold_tail,
    )
    warm = arrival_by_line[base_line : base_line + line_count]
    np.copyto(
        warm, cold_arrival + adopt_d, where=(warm != warm) & (cold_arrival == cold_arrival)
    )
    return float(cold_tags[-1]) + adopt_d


def _stitch(
    config, prep: _Prepared, spans: Sequence[tuple], results: Sequence[tuple]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge the cold shard solutions into the true trajectory, in order.

    Returns the stream's ``(avail, tags)`` arrays and the consumed times
    of its lines.
    """
    count = len(prep.stream)
    line_total = int(prep.last_lines.max()) + 1
    window_lines = config.prefetch_depth + prep.span_max + 2
    out_avail = np.empty(count)
    out_tags = np.empty(count)
    consumed_by_line = np.full(line_total, np.nan)
    arrival_by_line = np.full(line_total, np.nan)
    previous_tag_time = _NEG_INF
    for (start, stop, base), cold in zip(spans, results):
        previous_tag_time = _stitch_shard(
            config,
            prep,
            start,
            stop,
            base,
            cold,
            window_lines,
            consumed_by_line,
            arrival_by_line,
            previous_tag_time,
            out_avail,
            out_tags,
        )
    return out_avail, out_tags, consumed_by_line[consumed_by_line == consumed_by_line]


def run_sharded(
    config,
    instructions: Sequence[Instruction],
    lines: Sequence[CacheLine],
    shards: int = 2,
    min_shard_instructions: int = 1_024,
    use_processes: Optional[bool] = None,
) -> Optional[dict]:
    """Exact sharded evaluation of a large stream (bit-identical to run).

    Workers solve line-aligned shards (slices of one stream) from cold
    seams in parallel; the parent replays a few lines per seam to lock
    each shard onto the true warm trajectory and adopts the precomputed
    suffixes (see the module docstring).  Every measurement field equals
    :func:`run_batched`'s bit-for-bit, including ``energy_pj``.

    Falls back to :func:`run_batched` for a single shard or a stream
    shorter than ``min_shard_instructions`` per shard.  ``use_processes``
    is tri-state: ``None`` (default) applies the persistent-pool policy
    of :func:`repro.engine.pool.decide` -- single-CPU hosts and streams
    below the calibrated per-shard threshold (the larger of
    ``min_shard_instructions`` and
    :data:`~repro.engine.pool.POOL_MIN_SHARD_INSTRUCTIONS`) delegate to
    :func:`run_batched`, everything else reuses the process-global
    worker pool; ``False`` forces the full protocol in-process
    (deterministic testing of the stitcher); ``True`` forces the pool,
    falling back to in-process evaluation if workers cannot be spawned.
    The results are identical on every path, and every call records its
    decision in :data:`repro.engine.pool.LAST_DECISION`.
    """
    from repro.engine import pool

    _validate_config(config)
    if not len(instructions):
        return None
    shards = max(1, shards)
    use_pool, _reason = pool.decide(
        len(instructions),
        shards,
        forced=use_processes,
        min_shard_instructions=min_shard_instructions,
    )
    if use_processes is None and not use_pool:
        return run_batched(config, instructions, lines)
    if shards == 1 or len(instructions) < min_shard_instructions * shards:
        pool.LAST_DECISION.update(use_pool=False, reason="stream-too-small")
        return run_batched(config, instructions, lines)

    prep = _prepare(instructions, config.line_bytes)
    stream = prep.stream
    boundaries = _shard_boundaries(prep.first_lines, shards)
    if len(boundaries) <= 2:
        pool.LAST_DECISION.update(use_pool=False, reason="single-shard-boundary")
        return run_batched(config, stream, lines)

    pairs = list(zip(boundaries, boundaries[1:]))
    # The first shard keeps absolute line indices: its cold seam *is* the
    # true stream start, so its solution is adopted wholesale (offset 0).
    spans = [(0, pairs[0][1], 0)] + [
        (start, stop, int(prep.first_lines[start])) for start, stop in pairs[1:]
    ]
    payloads = [_shard_payload(config, stream, span) for span in spans]

    results = None
    if use_pool:
        # Persistent process-global pool: created lazily on the first
        # sharded call, reused (warm workers) by every later one.  The
        # stream publishes once through the shared-memory payload path;
        # each worker call carries only (handle, shard index).  Dispatch
        # runs supervised (repro.engine.resilience): per-task deadlines,
        # infrastructure-only retries with pool respawn, and
        # partial-result salvage.  Application errors raised by worker
        # code propagate to the caller -- they are engine bugs, not a
        # reason to silently recompute in-process.
        from repro.engine import resilience

        try:
            executor = pool.get_pool()
        except (OSError, PermissionError):
            # Workers cannot be spawned at all on this host.
            pool.discard()
            pool.LAST_DECISION.update(use_pool=False, reason="pool-spawn-failed")
            executor = None
        if executor is not None:
            ref = _publish_shard_set(config, stream, spans)
            try:
                if ref is not None:
                    items = [(ref, index) for index in range(len(payloads))]
                    worker_fn = _cold_shard_payload
                    transport = "shm"
                else:
                    # Small stream or no shared memory: each worker call
                    # carries its own shard's slice (and nothing else).
                    items = [(payload,) for payload in payloads]
                    worker_fn = _cold_shard
                    transport = "inline"
                try:
                    results = resilience.supervised_map(
                        executor, worker_fn, items, label="run_sharded"
                    )
                except resilience.PoolDispatchError as error:
                    # Terminal infrastructure failure: keep every shard
                    # that completed, solve only the lost ones here
                    # (bit-identical either way -- shards are
                    # deterministic).
                    results = error.results
                    for index in error.pending:
                        results[index] = _cold_shard(payloads[index])
                    resilience.mark_degraded("in-process-salvage")
                    pool.LAST_DECISION.update(reason="pool-dispatch-degraded")
                pool.LAST_DECISION.update(payload=transport)
            finally:
                # Every worker that needed the bytes has copied them out
                # (dispatch resolved above); on failure the segment must
                # not leak either.
                if ref is not None:
                    pool.release_payload(ref)
    if results is None:
        results = [_cold_shard(payload) for payload in payloads]

    out_avail, out_tags, consumed_values = _stitch(config, prep, spans, results)
    issue_arr, _buffer_free, _next_row = _steer(
        out_tags, prep.steer_ps, config.rows, config.output_buffer_cycle_ps
    )
    return _finalize(
        config,
        stream.lengths,
        out_avail,
        out_tags,
        issue_arr,
        consumed_values,
        len(stream),
        len(lines),
    )
