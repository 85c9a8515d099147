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
  :mod:`repro.engine.batch`'s ``run_batch`` (N lanes in lockstep per
  dispatch, hazard-gated — what every deployed cycle model runs) and
  :mod:`repro.engine.pipelined`'s ``run_stream`` (requests overlap
  *within* one kernel the way the -O3 hardware schedule does — a new
  request issues every II cycles, hazard stalls only on real memory
  dependences, strict in-order retire).
  :mod:`repro.engine.verify` proves the compiled kernel equivalent to
  the interpreted :class:`~repro.rtl.simulator.Simulator` on random
  inputs (results, final memories, and same-level cycle counts), the
  lockstep driver equivalent to both on warm job streams, and the
  pipelined driver equivalent to the sequential -O0 engine with N
  requests in flight.
* :mod:`repro.engine.sched` is the one discrete-event scheduler every
  layer now shares (the netsim event loop subclasses it), with
  processes and bounded back-pressure queues;
  :mod:`repro.engine.openloop` uses them to drive deployments with
  open-loop arrivals so latency distributions are queueing-derived.
"""

from repro.engine.batch import BatchedKernel
from repro.engine.compiler import (
    CompiledKernel, compile_design, compile_kernel,
)
from repro.engine.openloop import (
    ArrivalSpec, OpenLoopReport, run_open_loop,
)
from repro.engine.pipelined import PipelinedKernel, compile_pipelined
from repro.engine.sched import Delay, Process, Queue, Scheduler
from repro.engine.verify import (
    BatchReport, EngineReport, PipelineReport, assert_batch_equivalent,
    assert_engine_equivalent, assert_pipeline_equivalent,
    batch_differential_check, engine_differential_check,
    pipeline_differential_check,
)

__all__ = [
    "ArrivalSpec", "BatchReport", "BatchedKernel", "CompiledKernel",
    "Delay", "EngineReport", "OpenLoopReport", "PipelineReport",
    "PipelinedKernel", "Process", "Queue", "Scheduler",
    "assert_batch_equivalent", "assert_engine_equivalent",
    "assert_pipeline_equivalent", "batch_differential_check",
    "compile_design", "compile_kernel",
    "compile_pipelined", "engine_differential_check",
    "pipeline_differential_check", "run_open_loop",
]
