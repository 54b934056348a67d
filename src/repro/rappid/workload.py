"""Synthetic instruction workloads.

The paper evaluates RAPPID on instruction streams delivered as 16-byte cache
lines.  Real traces are proprietary; the generator below draws instruction
lengths from the published-statistics-inspired distribution in
:mod:`repro.rappid.isa` (or a caller-supplied one) and packs them into cache
lines exactly as the front end would see them -- instructions may straddle
line boundaries.

Streams are held as an :class:`InstructionStream`: three read-only numpy
buffers (lengths, class codes, start bytes) behind an immutable
``Sequence[Instruction]`` interface.  Items are :class:`Instruction`
views built on access, slices share the buffers, and the decode engine
reads the buffers directly -- a long stream never materialises one
dataclass per instruction.
"""

from __future__ import annotations

import random
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from itertools import accumulate, count, repeat, starmap
from operator import attrgetter, index as as_index
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.rappid.isa import (
    LENGTH_CLASSES,
    InstructionClass,
    LengthClass,
    class_of_length,
)

#: Class code ``k`` of a stream stands for ``CLASS_ORDER[k]``.
CLASS_ORDER: Tuple[InstructionClass, ...] = tuple(InstructionClass)
# Keyed by id(): Enum.__hash__ is a Python-level call, id() is not.
_CODE_BY_ID: Dict[int, int] = {id(cls): code for code, cls in enumerate(CLASS_ORDER)}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction in the synthetic stream."""

    index: int
    length: int
    instruction_class: InstructionClass
    start_byte: int  # absolute byte offset in the stream

    def line_of(self, line_bytes: int = 16) -> int:
        """Cache line holding the first byte, for a given line geometry."""
        return self.start_byte // line_bytes

    @property
    def line_index(self) -> int:
        """``line_of`` for the default 16-byte lines (use :meth:`line_of`
        whenever the configuration's ``line_bytes`` may differ)."""
        return self.start_byte // 16

    @property
    def column(self) -> int:
        """Byte column (0..15) of the first byte within a 16-byte line."""
        return self.start_byte % 16


def _read_only(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


class InstructionStream(_SequenceABC):
    """Immutable structure-of-arrays instruction stream.

    ``lengths``, ``class_codes`` (indices into :data:`CLASS_ORDER`) and
    ``start_bytes`` are read-only numpy buffers; ``stream[i]`` builds an
    :class:`Instruction` view numbered ``first_index + i``.  Step-1
    slices are streams sharing the parent's buffers (O(1), no copy);
    extended slices return a list of views.  Streams compare equal to
    streams with the same buffers and numbering, and to lists or tuples
    of the same instructions.
    """

    __slots__ = ("_lengths", "_codes", "_starts", "_lo", "_hi", "_index0")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, lengths, class_codes, start_bytes, first_index: int = 0) -> None:
        lengths = _read_only(lengths, np.int64)
        class_codes = _read_only(class_codes, np.uint8)
        start_bytes = _read_only(start_bytes, np.int64)
        if not len(lengths) == len(class_codes) == len(start_bytes):
            raise ValueError("stream buffers must have equal lengths")
        if class_codes.size and int(class_codes.max()) >= len(CLASS_ORDER):
            raise ValueError("class code out of range")
        self._lengths = lengths
        self._codes = class_codes
        self._starts = start_bytes
        self._lo = 0
        self._hi = len(lengths)
        self._index0 = first_index

    @classmethod
    def packed(cls, lengths, class_codes, first_index: int = 0) -> "InstructionStream":
        """A stream laid out back to back from byte 0 (start = prefix sum)."""
        lengths = np.asarray(lengths, dtype=np.int64)
        start_bytes = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=start_bytes[1:])
        return cls(lengths, class_codes, start_bytes, first_index)

    @classmethod
    def from_instructions(
        cls, instructions: Sequence[Instruction]
    ) -> "InstructionStream":
        """The stream of any instruction sequence (a stream is returned as is).

        Views are numbered contiguously from the first instruction's
        ``index``; every other field round-trips exactly.
        """
        if isinstance(instructions, InstructionStream):
            return instructions
        n = len(instructions)
        lengths = np.fromiter(map(attrgetter("length"), instructions), np.int64, n)
        codes = np.fromiter(
            map(
                _CODE_BY_ID.__getitem__,
                map(id, map(attrgetter("instruction_class"), instructions)),
            ),
            np.uint8,
            n,
        )
        starts = np.fromiter(map(attrgetter("start_byte"), instructions), np.int64, n)
        return cls(lengths, codes, starts, instructions[0].index if n else 0)

    # -- buffers ---------------------------------------------------------------

    @property
    def lengths(self) -> np.ndarray:
        return self._lengths[self._lo : self._hi]

    @property
    def class_codes(self) -> np.ndarray:
        return self._codes[self._lo : self._hi]

    @property
    def start_bytes(self) -> np.ndarray:
        return self._starts[self._lo : self._hi]

    @property
    def first_index(self) -> int:
        return self._index0 + self._lo

    @property
    def nbytes(self) -> int:
        return len(self) * (
            self._lengths.itemsize + self._codes.itemsize + self._starts.itemsize
        )

    def first_lines(self, line_bytes: int = 16) -> np.ndarray:
        """Per-instruction ``line_of(line_bytes)`` (line of the first byte)."""
        return self.start_bytes // line_bytes

    def last_lines(self, line_bytes: int = 16) -> np.ndarray:
        """Per-instruction line of the last byte."""
        return (self.start_bytes + self.lengths - 1) // line_bytes

    # -- Sequence protocol -----------------------------------------------------

    def __len__(self) -> int:
        return self._hi - self._lo

    def _view(self, lo: int, hi: int) -> "InstructionStream":
        view = object.__new__(InstructionStream)
        view._lengths = self._lengths
        view._codes = self._codes
        view._starts = self._starts
        view._lo = lo
        view._hi = hi
        view._index0 = self._index0
        return view

    def __getitem__(self, key):  # type: ignore[override]
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            return self._view(self._lo + start, self._lo + max(start, stop))
        position = as_index(key)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("instruction index out of range")
        at = self._lo + position
        return Instruction(
            index=self._index0 + at,
            length=int(self._lengths[at]),
            instruction_class=CLASS_ORDER[self._codes[at]],
            start_byte=int(self._starts[at]),
        )

    def __iter__(self) -> Iterator[Instruction]:
        return map(
            Instruction,
            count(self.first_index),
            self.lengths.tolist(),
            map(CLASS_ORDER.__getitem__, self.class_codes.tolist()),
            self.start_bytes.tolist(),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, InstructionStream):
            return (
                len(self) == len(other)
                and (not len(self) or self.first_index == other.first_index)
                and bool(np.array_equal(self.lengths, other.lengths))
                and bool(np.array_equal(self.class_codes, other.class_codes))
                and bool(np.array_equal(self.start_bytes, other.start_bytes))
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __reduce__(self):
        return (
            InstructionStream,
            (self.lengths, self.class_codes, self.start_bytes, self.first_index),
        )

    def __repr__(self) -> str:
        return f"InstructionStream({len(self)} instructions, first_index={self.first_index})"


@dataclass
class CacheLine:
    """One cache line with the instructions that *start* in it."""

    index: int
    instructions: Sequence[Instruction] = field(default_factory=list)

    @property
    def instruction_count(self) -> int:
        return len(self.instructions)

    @property
    def average_length(self) -> float:
        if not self.instructions:
            return 0.0
        return sum(i.length for i in self.instructions) / len(self.instructions)


class WorkloadGenerator:
    """Generate reproducible synthetic instruction streams."""

    def __init__(
        self,
        seed: int = 0,
        length_classes: Sequence[LengthClass] = LENGTH_CLASSES,
        line_bytes: int = 16,
    ) -> None:
        self.seed = seed
        self.length_classes = list(length_classes)
        self.line_bytes = line_bytes
        self._rng = random.Random(seed)
        total = sum(c.probability for c in self.length_classes)
        if not 0.99 <= total <= 1.01:
            raise ValueError(f"length distribution sums to {total}, expected 1.0")

    def instructions(self, count: int) -> InstructionStream:
        """Generate ``count`` instructions laid out back to back in memory.

        One ``random()`` draw per instruction, in stream order; the bucket
        is the first whose running probability sum reaches the roll (the
        last bucket if none does), found for every roll at once.
        """
        rolls = np.fromiter(starmap(self._rng.random, repeat((), count)), np.float64, count)
        cumulative = np.fromiter(
            accumulate(bucket.probability for bucket in self.length_classes),
            np.float64,
        )
        # "First i with cumulative[i] >= roll" is unchanged by a running
        # max, which makes the thresholds sorted for searchsorted.
        picks = np.searchsorted(np.maximum.accumulate(cumulative), rolls)
        np.minimum(picks, len(self.length_classes) - 1, out=picks)
        bucket_lengths = np.array([bucket.length for bucket in self.length_classes])
        bucket_codes = np.array(
            [_CODE_BY_ID[id(bucket.instruction_class)] for bucket in self.length_classes]
        )
        return InstructionStream.packed(bucket_lengths[picks], bucket_codes[picks])

    def fixed_length_instructions(self, count: int, length: int) -> InstructionStream:
        """A degenerate stream where every instruction has the same length.

        Used for the scalability sweeps of Figure 1: lines with many short
        instructions stress the tag and steering cycles, lines with few long
        instructions stress the length decoders.
        """
        code = _CODE_BY_ID[id(class_of_length(length))]
        return InstructionStream.packed(
            np.full(count, length, dtype=np.int64), np.full(count, code)
        )

    def cache_lines(self, instructions: Sequence[Instruction]) -> List[CacheLine]:
        """Group instructions by the cache line their first byte lives in.

        Each line's ``instructions`` is a slice of the stream (no copy).
        """
        stream = InstructionStream.from_instructions(instructions)
        if not len(stream):
            return []
        first_lines = stream.first_lines(self.line_bytes)
        if len(stream) > 1 and bool((first_lines[1:] < first_lines[:-1]).any()):
            raise ValueError("instructions must be in stream (start byte) order")
        line_count = int(stream.last_lines(self.line_bytes)[-1]) + 1
        bounds = np.searchsorted(first_lines, np.arange(line_count + 1)).tolist()
        view = stream._view
        base = stream._lo
        return [
            CacheLine(index, view(base + lo, base + hi))
            for index, lo, hi in zip(range(line_count), bounds, bounds[1:])
        ]

    def workload(
        self, instruction_count: int
    ) -> Tuple[InstructionStream, List[CacheLine]]:
        """Convenience: generate instructions and their cache lines."""
        instructions = self.instructions(instruction_count)
        return instructions, self.cache_lines(instructions)

    def statistics(self, instructions: Sequence[Instruction]) -> Dict[str, float]:
        """Summary statistics of a stream (mean length, class mix, etc.)."""
        stream = InstructionStream.from_instructions(instructions)
        if not len(stream):
            return {"count": 0}
        lengths = stream.lengths
        n = len(stream)
        mean_length = int(lengths.sum()) / n
        stats: Dict[str, float] = {
            "count": float(n),
            "mean_length": mean_length,
            "max_length": float(lengths.max()),
            "min_length": float(lengths.min()),
            "instructions_per_line": self.line_bytes / mean_length,
        }
        codes, first_seen, counts = np.unique(
            stream.class_codes, return_index=True, return_counts=True
        )
        for at in np.argsort(first_seen).tolist():
            stats[f"class_{CLASS_ORDER[codes[at]].value}"] = int(counts[at]) / n
        return stats
