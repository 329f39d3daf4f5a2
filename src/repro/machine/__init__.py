"""Machine substrate: functional PowerPC-subset simulation.

Two execution front ends share one execution core
(:mod:`repro.machine.executor`):

* :class:`~repro.machine.simulator.Simulator` fetches 32-bit words from
  an uncompressed :class:`~repro.linker.program.Program`;
* :class:`~repro.machine.compressed_sim.CompressedSimulator` fetches
  codewords from a compressed image, expands them through the
  dictionary in its decode stage (paper Figure 3), and issues the
  original instructions.

Each front end has two interchangeable implementations selected by the
``implementation`` constructor keyword: the ``"reference"``
decode-on-every-fetch interpreter, and the default ``"fast"``
translation-cache path (:mod:`repro.machine.fastpath`) that predecodes
every instruction once into a bound thunk and executes straight-line
traces without re-entering the dispatch loop.  Every thunk is generated
from the per-mnemonic statement templates of
:mod:`repro.machine.fusion`; trace bodies may embed
*superinstructions* — fused two-instruction thunks for the hottest
adjacent pairs — and strict-mode stream decoding goes through the
table-driven bulk decoder (:mod:`repro.machine.bulkdecode`) instead of
the item-at-a-time walk.

The integration tests run every workload through both front ends and
both implementations and require identical architectural results — the
paper's correctness claim.
"""

from repro.machine.memory import Memory
from repro.machine.state import MachineState
from repro.machine.simulator import (
    IMPLEMENTATIONS,
    RunResult,
    Simulator,
    profile_program,
    run_program,
)
from repro.machine.compressed_sim import CompressedSimulator, run_compressed
from repro.machine.bulkdecode import (
    bulk_stats,
    clear_tables,
    set_backend,
)
from repro.machine.fastpath import (
    clear_translation_caches,
    translation_cache_stats,
)
from repro.machine.fusion import (
    configure as configure_fusion,
    fusion_stats,
    plan_from_profile,
)
from repro.machine.icache import InstructionCache, attach_to_simulator
from repro.machine.timing import TimingParameters, time_compressed, time_uncompressed
from repro.machine.trace import trace_compressed, trace_program, traces_equivalent

__all__ = [
    "IMPLEMENTATIONS",
    "Memory",
    "MachineState",
    "RunResult",
    "Simulator",
    "bulk_stats",
    "clear_tables",
    "clear_translation_caches",
    "configure_fusion",
    "fusion_stats",
    "plan_from_profile",
    "profile_program",
    "run_program",
    "set_backend",
    "translation_cache_stats",
    "CompressedSimulator",
    "run_compressed",
    "InstructionCache",
    "attach_to_simulator",
    "TimingParameters",
    "time_compressed",
    "time_uncompressed",
    "trace_compressed",
    "trace_program",
    "traces_equivalent",
]
