"""Initiation-interval pipelining analysis (the ``-O3`` middle-end).

State fusion (-O2) shortens one request's path through the FSM; this
pass overlaps *different* requests across that path.  A pipelined
kernel issues a new request every II cycles (the *initiation
interval*) while earlier requests are still in flight, so the
sustained service interval drops from the full request latency to II
— per-request latency is untouched.

The analysis is a schedule-feasibility proof, not a rewrite: the FSM
the engine and the Verilog backend see is unchanged, and the schedule
it emits (:class:`PipelineSchedule`) is what the cycle models and the
dynamic in-flight executor (:mod:`repro.engine.pipelined`) consume.
II is the maximum of two classic bounds over the cross-state
dependence graph:

* **recurrence bound** — a request's write to a shared (warm) memory
  must land before the *next* request's read of it (RAW), after the
  previous request's read (WAR), and writes must stay ordered (WAW).
  With writes possible as late as stage ``w_max`` and reads as early
  as stage ``r_min``, RAW alone forces ``II >= w_max - r_min + 1``.
* **resource bound** — one memory port per cycle: two in-flight
  requests may not touch the same memory in the same cycle, so the
  accessing states' cycle offsets must stay distinct modulo II.

Stage numbers come from longest/shortest entry paths over the state
DAG, so branchy kernels get a sound interval of possible offsets per
state.  Three structural gates make the schedule honest rather than
optimistic:

* data-dependent loops have no static stage numbers — no pipelining;
* a kernel whose observable outputs can depend on *stale* registers
  (values left by the previous request) serialises on the register
  file — :func:`repro.kiwi.analysis.lockstep_safe` answers this
  exactly, and a dirty kernel is not pipelined;
* pipeline issue/hazard control costs logic depth
  (:data:`PIPELINE_CONTROL_LEVELS`); if the machine no longer fits
  the timing budget with that margin, pipelining is refused instead
  of silently mis-reporting timing.

Per-request stream buffers (the ``frame`` memory convention shared by
every service kernel and :class:`~repro.targets.kernel_model.
KernelCycleModel`) are freshly loaded for each request, so they are
excluded from both bounds — each in-flight request owns a private
copy.
"""

from repro.kiwi.analysis import (
    lockstep_safe, mems_read, mems_written, stage_intervals, state_roots,
)
from repro.rtl.expr import expr_depth

#: Depth margin charged for the pipeline's issue counter and hazard
#: interlock muxes on every register/memory-port path.
PIPELINE_CONTROL_LEVELS = 2

#: Memories treated as per-request stream buffers when the kernel has
#: them (every service kernel calls its packet buffer ``frame``).
DEFAULT_STREAM_MEMORIES = ("frame",)


class PipelineSchedule:
    """The result of the II analysis for one sealed FSM.

    ``feasible`` means requests genuinely overlap: the FSM is a DAG,
    observables are clean of stale registers, the control margin fits
    the timing budget, and the computed II is strictly less than the
    request latency.  When it is False, ``reason`` says which gate
    refused, and the cycle models fall back to sequential service.
    """

    def __init__(self, feasible, initiation_interval, latency_cycles,
                 recurrence_ii=1, resource_ii=1, stages=None,
                 memory_bounds=None, stream_memories=(), reason=None):
        self.feasible = feasible
        #: Steady-state issue interval in cycles (None when not
        #: pipelined — service interval is then the full latency).
        self.initiation_interval = initiation_interval
        #: States on the longest entry→idle path (per-request core
        #: cycles of the critical path; the measured latency of the
        #: engine adds its one latch cycle on top).
        self.latency_cycles = latency_cycles
        self.recurrence_ii = recurrence_ii
        self.resource_ii = resource_ii
        #: state index -> (earliest, latest) stage (entry = 0).
        self.stages = dict(stages or {})
        #: shared memory -> {"raw": n, "war": n, "waw": n} bounds.
        self.memory_bounds = dict(memory_bounds or {})
        self.stream_memories = tuple(stream_memories)
        self.reason = reason

    def speedup(self):
        """Steady-state throughput multiplier over sequential issue."""
        if not self.feasible:
            return 1.0
        return self.latency_cycles / float(self.initiation_interval)

    def __repr__(self):
        if self.feasible:
            return ("PipelineSchedule(II=%d, latency=%d, rec=%d, res=%d)"
                    % (self.initiation_interval, self.latency_cycles,
                       self.recurrence_ii, self.resource_ii))
        return "PipelineSchedule(not pipelined: %s)" % (self.reason,)


def _multiple_in_range(lo, hi, ii):
    """Is any positive multiple of *ii* inside [lo, hi]?"""
    if hi < ii:
        return False
    first = max(1, -(-lo // ii))              # ceil(lo / ii), min 1
    return first * ii <= hi


def _port_conflict(accessors, ii):
    """Can two in-flight requests hit one memory in the same cycle?

    Requests are issued II cycles apart, so states *a* (at offset in
    [e_a, l_a]) and *b* collide exactly when some non-zero multiple of
    II fits in the difference range of their offset intervals.
    """
    for i, (e_a, l_a) in enumerate(accessors):
        for e_b, l_b in accessors[i:]:
            if _multiple_in_range(e_a - l_b, l_a - e_b, ii) or \
                    _multiple_in_range(e_b - l_a, l_b - e_a, ii):
                return True
    return False


def analyze_pipeline(fsm, var_widths, spec, level_budget=48,
                     stream_memories=DEFAULT_STREAM_MEMORIES):
    """Compute the pipelining schedule of a sealed, optimized FSM."""
    entry, stages = stage_intervals(fsm)
    if entry is fsm.idle:
        return PipelineSchedule(False, None, 0,
                                reason="empty kernel")
    if stages is None:
        return PipelineSchedule(False, None, None,
                                reason="data-dependent loop")
    latency = max(latest for _, latest in stages.values()) + 1

    # Gate 1: observables must not depend on registers left over from
    # the previous request — per-request register files would change
    # behaviour otherwise.
    if not lockstep_safe(fsm, spec, var_widths):
        return PipelineSchedule(
            False, None, latency,
            reason="observables depend on cross-request register state")

    # Gate 2: the hazard/issue control logic must still close timing.
    max_levels = 0
    for state in fsm.states:
        if state is fsm.idle:
            continue
        memo = {}
        for root in state_roots(state):
            max_levels = max(max_levels, expr_depth(root, memo))
    if max_levels + PIPELINE_CONTROL_LEVELS > level_budget:
        return PipelineSchedule(
            False, None, latency,
            reason="pipeline control exceeds the %d-level budget"
            % level_budget)

    mem_names = [name for name, _ in spec.memory_params]
    streams = tuple(name for name in stream_memories
                    if name in mem_names)
    shared = [name for name in mem_names if name not in streams]

    shared_set = set(shared)
    reads = {name: [] for name in shared}     # (earliest, latest)
    writes = {name: [] for name in shared}
    accessors = {name: [] for name in shared}
    for state, interval in stages.items():
        read_here = mems_read(state) & shared_set
        written_here = mems_written(state) & shared_set
        for name in read_here:
            reads[name].append(interval)
        for name in written_here:
            writes[name].append(interval)
        for name in read_here | written_here:
            accessors[name].append(interval)

    memory_bounds = {}
    recurrence_ii = 1
    resource_ii = 1
    for name in shared:
        if not accessors[name]:
            continue
        bounds = {"raw": 1, "war": 1, "waw": 1}
        if writes[name]:
            w_min = min(e for e, _ in writes[name])
            w_max = max(l for _, l in writes[name])
            bounds["waw"] = max(1, w_max - w_min + 1)
            if reads[name]:
                r_min = min(e for e, _ in reads[name])
                r_max = max(l for _, l in reads[name])
                bounds["raw"] = max(1, w_max - r_min + 1)
                bounds["war"] = max(1, r_max - w_min + 1)
        memory_bounds[name] = bounds
        recurrence_ii = max(recurrence_ii, *bounds.values())
        resource_ii = max(resource_ii, len(accessors[name]))

    stage_map = {state.index: tuple(interval)
                 for state, interval in stages.items()}
    ii = max(recurrence_ii, resource_ii)
    while ii < latency and any(
            _port_conflict(accessors[name], ii) for name in shared):
        ii += 1
    if ii >= latency:
        return PipelineSchedule(
            False, None, latency, recurrence_ii=recurrence_ii,
            resource_ii=resource_ii, stages=stage_map,
            memory_bounds=memory_bounds, stream_memories=streams,
            reason="no feasible II below the %d-cycle latency" % latency)
    return PipelineSchedule(
        True, ii, latency, recurrence_ii=recurrence_ii,
        resource_ii=resource_ii, stages=stage_map,
        memory_bounds=memory_bounds, stream_memories=streams)
