"""RAPPID: the Revolving Asynchronous Pentium(R) Processor Instruction Decoder.

A behavioural reproduction of the microarchitecture of Section 2 / Figure 1:
sixteen speculative length decoders, a revolving tag unit, a crossbar
steering fabric into four output buffers, and the three intertwined
self-timed cycles (length decoding, steering, tag).  A 400 MHz clocked
baseline model provides the comparison column of Table 1.

The silicon's absolute numbers cannot be reproduced without the fab; the
model captures the structural reasons for the paper's results -- average-case
versus worst-case timing, activity-proportional versus clocked power, and
the area cost of sixteen-fold speculation.
"""

from repro.rappid.isa import InstructionClass, LENGTH_CLASSES, decode_latency_ps, tag_latency_ps
from repro.rappid.workload import CacheLine, Instruction, InstructionStream, WorkloadGenerator
from repro.rappid.microarch import RappidConfig, RappidDecoder, RappidResult
from repro.rappid.clocked_baseline import ClockedConfig, ClockedDecoder, ClockedResult
from repro.rappid.metrics import Table1Comparison, compare_designs

__all__ = [
    "InstructionClass",
    "LENGTH_CLASSES",
    "decode_latency_ps",
    "tag_latency_ps",
    "CacheLine",
    "Instruction",
    "InstructionStream",
    "WorkloadGenerator",
    "RappidConfig",
    "RappidDecoder",
    "RappidResult",
    "ClockedConfig",
    "ClockedDecoder",
    "ClockedResult",
    "Table1Comparison",
    "compare_designs",
]
