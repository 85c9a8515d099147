"""The Kiwi HLS compiler and runtime (paper §3.1–§3.2), rebuilt.

Kiwi turns .NET CIL into Verilog; our Kiwi turns a restricted Python
subset ("Emu-Python") into the netlist IR of :mod:`repro.rtl`.  The Emu
extensions the paper lists (§3.2) map as follows:

(i)   IP-block instantiation — compiled designs and hand netlists share
      :class:`repro.rtl.Module`, so IP blocks are instantiated directly.
(ii)  hard/soft timing — ``kiwi.pause()`` is a hard clock-cycle barrier;
      code between pauses is scheduled combinationally into one cycle.
(iii) byte-array ↔ struct casting — protocol wrappers over byte memories
      (:mod:`repro.core.protocols`) give fields names and types.
(iv)  >64-bit words — :mod:`repro.utils.words`.

Public surface:

* :func:`~repro.kiwi.runtime.pause` and the thread runtimes with
  *software* and *hardware* semantics (§3.4 "Multi-threading").
* :func:`~repro.kiwi.compiler.compile_function` — Emu-Python → FSM →
  netlist, with timing and resource reports.
"""

from repro.kiwi.runtime import (
    Pause, pause, run_software, HardwareThread, KiwiScheduler,
)
from repro.kiwi.compiler import (
    CompiledDesign, compile_function, compile_threads,
)
from repro.kiwi.opt import PassStats, optimize

__all__ = [
    "Pause", "pause", "run_software", "HardwareThread", "KiwiScheduler",
    "CompiledDesign", "compile_function", "compile_threads",
    "PassStats", "optimize",
]
