"""``repro.kiwi.opt`` — the optimizing middle-end of the Kiwi compiler.

The scheduler (:mod:`repro.kiwi.builder`) emits a correct but naive
FSM: every statement's expression is kept verbatim and every barrier is
a cycle.  This package rewrites that FSM before code generation:

* :mod:`repro.kiwi.opt.rewrite` — expression rewriting: constant
  folding, algebraic simplification, strength reduction.
* :mod:`repro.kiwi.opt.passes` — the FSM passes: folding, CSE (via
  structural interning), branch resolution + unreachable-state pruning,
  dead-register elimination, and state fusion/retiming under the
  timing-level budget.
* :mod:`repro.kiwi.opt.pipeline` — the ``-O3`` initiation-interval
  pipelining analysis: recurrence + resource bounds over the
  cross-state dependence graph, emitted as a
  :class:`~repro.kiwi.opt.pipeline.PipelineSchedule`.
* :mod:`repro.kiwi.opt.manager` — pipelines per ``opt_level``
  (0/1/2/3) and the fixpoint driver.

Entry point: :func:`repro.kiwi.opt.manager.optimize`, called by
:func:`repro.kiwi.compiler.compile_function` with its ``opt_level``.
"""

from repro.kiwi.opt.manager import PIPELINES, PassManager, optimize
from repro.kiwi.opt.passes import (
    BranchResolvePass, ConstantFoldPass, CsePass, DeadRegisterPass,
    OptContext, PassStats, StateFusionPass,
)
from repro.kiwi.opt.pipeline import (
    DEFAULT_STREAM_MEMORIES, PIPELINE_CONTROL_LEVELS, PipelineSchedule,
    analyze_pipeline,
)

__all__ = [
    "PIPELINES", "PassManager", "optimize",
    "BranchResolvePass", "ConstantFoldPass", "CsePass",
    "DeadRegisterPass", "OptContext", "PassStats", "StateFusionPass",
    "DEFAULT_STREAM_MEMORIES", "PIPELINE_CONTROL_LEVELS",
    "PipelineSchedule", "analyze_pipeline",
]
