"""repro.engine — compiled execution spine + unified discrete-event
runtime.

Two halves, one goal (run the reproduction as fast as the hardware
allows):

* :mod:`repro.engine.compiler` compiles a Kiwi
  :class:`~repro.kiwi.compiler.CompiledDesign` into exec-generated
  Python superblocks — fused runs of FSM states over structure-of-
  arrays registers, expression DAGs flattened to straight-line locals,
  memories as preallocated lists — replacing per-cycle netlist
  interpretation on the hot path.  That is the only code generator;
  three drivers execute its blocks on one warm kernel:
  ``CompiledKernel.run`` (one lane),
  :mod:`repro.engine.batch`'s ``run_batch`` and ``latencies`` (N lanes
  in lockstep, hazard-gated; every cycle model runs ``latencies``) and
  :mod:`repro.engine.pipelined`'s ``run_stream`` (requests overlap
  *within* one kernel the way the -O3 hardware schedule does — a new
  request issues every II cycles, hazard stalls only on real memory
  dependences, strict in-order retire; verification only, so it is
  imported by module path, not from here).  :mod:`repro.verify` holds
  all of them — and the interpreted
  :class:`~repro.rtl.simulator.Simulator` — to one semantics.
* :mod:`repro.engine.sched` is the one discrete-event scheduler every
  layer shares — a heap of timed callbacks (the netsim event loop
  subclasses it; fault plans and health detectors arm on it).  Events
  at one nanosecond run in scheduling order, so a zero-delay event
  follows everything already queued for that instant.
  :mod:`repro.engine.openloop` drives deployments with open-loop
  arrivals as arrival/start/completion events on it, so latency
  distributions are queueing-derived.
"""

from repro.engine.batch import BatchedKernel
from repro.engine.compiler import (
    CompiledKernel, compile_design, compile_kernel,
)
from repro.engine.openloop import (
    ArrivalSpec, OpenLoopReport, run_open_loop,
)
from repro.engine.sched import Scheduler

__all__ = [
    "ArrivalSpec", "BatchedKernel", "CompiledKernel", "OpenLoopReport",
    "Scheduler", "compile_design", "compile_kernel", "run_open_loop",
]
