"""Tests for the structure-of-arrays :class:`InstructionStream`.

The stream is the one representation of an instruction sequence from the
workload generator to a shard slice.  These tests pin its Sequence
behaviour (views, slicing, equality, round trips), its line geometry, the
generator's RNG draw order, and that the decode engine returns the same
bits for a stream, the equivalent list, and the reference loop.
"""

import gc
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import rappid_batch
from repro.rappid.isa import LENGTH_CLASSES, LengthClass, InstructionClass
from repro.rappid.microarch import RappidConfig, RappidDecoder
from repro.rappid.workload import (
    CLASS_ORDER,
    Instruction,
    InstructionStream,
    WorkloadGenerator,
)


def _signature(result):
    return (
        result.instruction_count,
        result.line_count,
        result.total_time_ps,
        result.issue_times_ps,
        result.instruction_latencies_ps,
        result.tag_intervals_ps,
        result.line_intervals_ps,
        result.steer_intervals_ps,
    )


def _scalar_draws(seed, count, classes=LENGTH_CLASSES):
    """The generator's specification: one roll per instruction, first
    bucket whose running probability sum reaches it, last bucket else."""
    rng = random.Random(seed)
    result = []
    offset = 0
    for index in range(count):
        roll = rng.random()
        cumulative = 0.0
        chosen = classes[-1]
        for bucket in classes:
            cumulative += bucket.probability
            if roll <= cumulative:
                chosen = bucket
                break
        result.append(Instruction(index, chosen.length, chosen.instruction_class, offset))
        offset += chosen.length
    return result, rng.random()


class TestGeneratorDrawOrder:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_draw_loop(self, seed):
        generator = WorkloadGenerator(seed=seed)
        expected, next_roll = _scalar_draws(seed, 700)
        assert generator.instructions(700) == expected
        # Exactly one draw per instruction: the RNG continues in step.
        assert generator._rng.random() == next_roll

    def test_uneven_distribution_with_zero_bucket(self):
        classes = (
            LengthClass(2, InstructionClass.COMMON, 0.5),
            LengthClass(5, InstructionClass.IMMEDIATE, 0.0),
            LengthClass(9, InstructionClass.COMPLEX, 0.495),
        )
        generator = WorkloadGenerator(seed=12, length_classes=classes)
        expected, _ = _scalar_draws(12, 500, classes)
        assert generator.instructions(500) == expected

    def test_fixed_length_stream_uses_class_of_length(self):
        stream = WorkloadGenerator().fixed_length_instructions(20, 9)
        assert all(i.instruction_class is InstructionClass.COMPLEX for i in stream)
        assert [i.start_byte for i in stream] == list(range(0, 180, 9))


class TestSequenceBehaviour:
    def setup_method(self):
        self.stream = WorkloadGenerator(seed=3).instructions(300)
        self.items = list(self.stream)

    def test_round_trip_through_views(self):
        again = InstructionStream.from_instructions(self.items)
        assert again == self.stream
        assert list(again) == self.items
        assert InstructionStream.from_instructions(self.stream) is self.stream
        assert all(isinstance(item, Instruction) for item in self.items)
        assert [item.index for item in self.items] == list(range(300))

    def test_round_trip_keeps_the_first_index_of_a_list_slice(self):
        again = InstructionStream.from_instructions(self.items[40:90])
        assert again.first_index == 40
        assert again == self.items[40:90]

    def test_equality(self):
        assert self.stream == self.items
        assert self.stream == tuple(self.items)
        assert self.items == self.stream
        assert self.stream == WorkloadGenerator(seed=3).instructions(300)
        assert self.stream != WorkloadGenerator(seed=4).instructions(300)
        assert self.stream != self.items[:-1]
        assert self.stream[1:] != self.stream[:-1]
        assert self.stream != 5
        changed = list(self.items)
        last = changed[-1]
        changed[-1] = Instruction(last.index, last.length + 1, last.instruction_class, last.start_byte)
        assert self.stream != changed

    def test_integer_and_negative_indexing(self):
        for position in (0, 1, 150, 299, -1, -2, -300):
            assert self.stream[position] == self.items[position]
        for position in (300, -301):
            with pytest.raises(IndexError):
                self.stream[position]

    @pytest.mark.parametrize(
        "window",
        [
            slice(10, 20),
            slice(-25, None),
            slice(None, -290),
            slice(290, 500),
            slice(50, 10),
            slice(None, None, 3),
            slice(None, None, -7),
            slice(200, 20, -11),
        ],
    )
    def test_slicing_matches_list(self, window):
        part = self.stream[window]
        assert list(part) == self.items[window]
        assert len(part) == len(self.items[window])

    def test_step_one_slices_share_the_buffers(self):
        part = self.stream[100:140]
        assert isinstance(part, InstructionStream)
        assert part.first_index == 100
        assert np.shares_memory(part.lengths, self.stream.lengths)
        nested = part[5:-5]
        assert nested == self.items[105:135]
        assert nested[0].index == 105

    def test_read_only(self):
        with pytest.raises(ValueError):
            self.stream.lengths[0] = 7
        with pytest.raises(TypeError):
            self.stream[0] = self.items[1]
        with pytest.raises(TypeError):
            hash(self.stream)

    def test_pickle_ships_only_the_slice(self):
        part = self.stream[200:260]
        blob = pickle.dumps(part)
        copy = pickle.loads(blob)
        assert copy == part
        assert copy.first_index == 200
        assert len(blob) < len(pickle.dumps(self.stream)) / 2

    def test_buffers_are_validated(self):
        with pytest.raises(ValueError):
            InstructionStream([1, 2], [0], [0, 1])
        with pytest.raises(ValueError):
            InstructionStream([1], [len(CLASS_ORDER)], [0])


class TestLineGeometry:
    @pytest.mark.parametrize("line_bytes", [8, 16, 32])
    def test_line_of_line_index_and_column(self, line_bytes):
        generator = WorkloadGenerator(seed=9, line_bytes=line_bytes)
        stream, lines = generator.workload(400)
        first_lines = stream.first_lines(line_bytes).tolist()
        last_lines = stream.last_lines(line_bytes).tolist()
        for item, first, last in zip(stream, first_lines, last_lines):
            assert item.line_of(line_bytes) == first == item.start_byte // line_bytes
            assert last == (item.start_byte + item.length - 1) // line_bytes
            # line_index and column always describe 16-byte lines.
            assert item.line_index == item.line_of(16)
            assert item.column == item.start_byte % 16
            assert item.line_index * 16 + item.column == item.start_byte
        assert len(lines) == last_lines[-1] + 1
        for line in lines:
            assert all(item.line_of(line_bytes) == line.index for item in line.instructions)
        assert [item for line in lines for item in line.instructions] == list(stream)

    def test_cache_lines_are_stream_views(self):
        generator = WorkloadGenerator(seed=2)
        stream, lines = generator.workload(100)
        populated = [line for line in lines if line.instruction_count]
        assert all(isinstance(line.instructions, InstructionStream) for line in lines)
        assert np.shares_memory(populated[0].instructions.start_bytes, stream.start_bytes)

    def test_cache_lines_reject_out_of_order_streams(self):
        items = list(WorkloadGenerator(seed=1).instructions(50))
        with pytest.raises(ValueError):
            WorkloadGenerator().cache_lines(items[::-1])


def _engine_cases():
    return [
        ("default", RappidConfig(), None),
        # prefetch_depth 1: straddling fetches can observe the current
        # line's consumption, so the general loop runs.
        ("general-loop", RappidConfig(prefetch_depth=1, rows=3), None),
        # Fractional fetch latency: cold shards are not integer-valued,
        # so every seam replays its whole shard.
        ("full-replay", RappidConfig(line_fetch_latency_ps=150.5), None),
        ("8-byte-lines", RappidConfig(line_bytes=8, prefetch_depth=2), 8),
        ("32-byte-lines", RappidConfig(line_bytes=32, rows=5), 32),
    ]


class TestEngineOnStreams:
    @pytest.mark.parametrize("label,config,line_bytes", _engine_cases())
    def test_stream_list_sharded_and_reference_agree(self, label, config, line_bytes):
        generator = WorkloadGenerator(seed=17, line_bytes=line_bytes or 16)
        stream, lines = generator.workload(3_000)
        decoder = RappidDecoder(config)
        from_stream = decoder.run(stream, lines)
        from_list = decoder.run(list(stream), list(lines))
        sharded = decoder.run_sharded(
            stream, lines, shards=3, min_shard_instructions=64, use_processes=False
        )
        reference = decoder._reference_run(stream, lines)
        assert _signature(from_stream) == _signature(from_list) == _signature(reference)
        assert _signature(sharded) == _signature(from_stream)
        assert from_stream.energy_pj == from_list.energy_pj == sharded.energy_pj
        assert math.isclose(from_stream.energy_pj, reference.energy_pj, rel_tol=1e-9)

    def test_cases_take_the_intended_paths(self):
        stream = WorkloadGenerator(seed=17).instructions(3_000)
        default = rappid_batch._prepare(stream, 16)
        assert rappid_batch._loop_for(2, default.span_max) is rappid_batch._hot_loop
        assert rappid_batch._loop_for(1, default.span_max) is rappid_batch._general_loop
        exact = rappid_batch._cold_shard((RappidConfig(), stream[1_000:2_000], 0))
        fractional = rappid_batch._cold_shard(
            (RappidConfig(line_fetch_latency_ps=150.5), stream[1_000:2_000], 0)
        )
        assert rappid_batch._offset_exact(exact)
        assert not rappid_batch._offset_exact(fractional)

    @pytest.mark.parametrize("prefetch_depth", [1, 2, 3, 4])
    def test_streams_with_byte_gaps(self, prefetch_depth):
        """Lines inside byte gaps can lack an arrival, so a seam's arrival
        walk may reach back past the shard (the stitcher then seeds its
        replay with the whole line state)."""
        rng = random.Random(prefetch_depth)
        items = []
        offset = 0
        for index in range(2_000):
            length = rng.randint(1, 11)
            items.append(Instruction(index, length, CLASS_ORDER[rng.randrange(5)], offset))
            offset += length
            if rng.random() < 0.08:
                offset += 16 * rng.randint(1, 8)
        stream = InstructionStream.from_instructions(items)
        lines = WorkloadGenerator().cache_lines(stream)
        decoder = RappidDecoder(RappidConfig(prefetch_depth=prefetch_depth))
        fast = decoder.run(stream, lines)
        assert _signature(fast) == _signature(decoder._reference_run(items, lines))
        for shards in (2, 6):
            sharded = decoder.run_sharded(
                stream, lines, shards=shards, min_shard_instructions=16, use_processes=False
            )
            assert _signature(sharded) == _signature(fast)

    def test_stream_slice_runs_like_its_list(self):
        stream, lines = WorkloadGenerator(seed=5).workload(2_000)
        decoder = RappidDecoder()
        assert _signature(decoder.run(stream[700:1_300], lines)) == _signature(
            decoder.run(list(stream)[700:1_300], lines)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(1, 600),
        line_bytes=st.sampled_from([8, 16, 32]),
        prefetch_depth=st.integers(1, 4),
        rows=st.integers(1, 6),
        fetch_ps=st.sampled_from([150.0, 150.5, 0.0, 900.0]),
        fixed_length=st.one_of(st.none(), st.integers(1, 11)),
    )
    def test_generated_streams_match_reference(
        self, seed, count, line_bytes, prefetch_depth, rows, fetch_ps, fixed_length
    ):
        generator = WorkloadGenerator(seed=seed, line_bytes=line_bytes)
        if fixed_length is None:
            stream = generator.instructions(count)
        else:
            stream = generator.fixed_length_instructions(count, fixed_length)
        lines = generator.cache_lines(stream)
        decoder = RappidDecoder(
            RappidConfig(
                line_bytes=line_bytes,
                prefetch_depth=prefetch_depth,
                rows=rows,
                line_fetch_latency_ps=fetch_ps,
            )
        )
        fast = decoder.run(stream, lines)
        assert _signature(fast) == _signature(decoder._reference_run(stream, lines))
        assert _signature(fast) == _signature(decoder.run(list(stream), lines))
        sharded = decoder.run_sharded(
            stream, lines, shards=3, min_shard_instructions=16, use_processes=False
        )
        assert _signature(sharded) == _signature(fast)
        assert sharded.energy_pj == fast.energy_pj


class TestNoReferenceCycles:
    """A decode leaves nothing for the cycle collector: its line-state
    dicts are freed by reference counting when the call returns."""

    @pytest.mark.parametrize("sharded", [False, True])
    def test_decode_leaves_no_garbage(self, sharded):
        stream, lines = WorkloadGenerator(seed=8).workload(3_000)
        decoder = RappidDecoder()

        def decode():
            if sharded:
                return decoder.run_sharded(
                    stream, lines, shards=3, min_shard_instructions=64, use_processes=False
                )
            return decoder.run(stream, lines)

        decode()  # warm-up: lazy imports and caches
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = decode()
            del result
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        names = [getattr(obj, "__name__", "") for obj in garbage]
        assert "arrival_of" not in names
        assert not garbage, sorted({type(obj).__name__ for obj in garbage})
