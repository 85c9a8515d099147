"""The pipelined driver: several requests in flight on one kernel.

:class:`PipelinedKernel` steps the kernel's generated blocks — compiled
one state per block — with up to *depth* requests in flight at once,
cycle by cycle, the way the pipelined hardware would: a new request
issues every II cycles (the ``-O3`` schedule's initiation interval),
each in-flight request owns a lane (a private register column entry
and a private row of each stream memory, the per-request ``frame``
buffer), and warm memories stay shared.

Correctness does not lean on the static schedule: every cycle, a
younger request stalls before executing a state that

* **reads** a shared memory some older in-flight request may still
  write (read-after-write),
* **writes** a shared memory some older request may still read or
  write (write-after-read / write-after-write), or
* touches a shared memory an older request is accessing *this* cycle
  (one port per memory per cycle),

where "may still" is name-level reachability over the FSM from the
older request's current state.  The oldest request never stalls, so
the pipeline always drains.  Requests retire strictly in issue order
(results, stream-buffer commit, and the warm register file hand-off
all happen at retire), which keeps final memory images byte-identical
to sequential execution — the differential harness in
:mod:`repro.verify` proves exactly that, N requests in flight
against the sequential ``-O0`` engine.

When the kernel has no feasible schedule (data-dependent loops, stale
register observables, timing budget), the same loop degrades to
serial issue — one request at a time, cycle counts identical to
:meth:`~repro.engine.compiler.CompiledKernel.run`.
"""

from repro.errors import EngineError
from repro.engine.compiler import STEP, CompiledKernel
from repro.kiwi.analysis import reach_union
from repro.kiwi.opt.pipeline import DEFAULT_STREAM_MEMORIES


class _Context:
    """One in-flight request."""

    __slots__ = ("lanes", "uniform", "state", "streams", "issue_cycle",
                 "finish_cycle", "stalls")

    def __init__(self, lane, uniform, state, streams, issue_cycle):
        self.lanes = (lane,)
        self.uniform = uniform
        self.state = state
        self.streams = streams
        self.issue_cycle = issue_cycle
        self.finish_cycle = None
        self.stalls = 0


class PipelinedKernel(CompiledKernel):
    """A :class:`CompiledKernel` that additionally offers
    :meth:`run_stream` — same generated code, same warm state,
    overlapping requests."""

    def __init__(self, design, depth=None, schedule=None):
        super().__init__(design)
        if schedule is None:
            schedule = getattr(design.fsm, "pipeline_schedule", None)
        self.schedule = schedule
        feasible = schedule is not None and schedule.feasible
        #: Issue interval in cycles (None: serial issue).
        self.ii = schedule.initiation_interval if feasible else None
        if depth is None:
            depth = (-(-schedule.latency_cycles // self.ii)
                     if feasible else 1)
        self.depth = max(1, int(depth))
        streams = (schedule.stream_memories if feasible
                   else DEFAULT_STREAM_MEMORIES)
        self.stream_memories = tuple(name for name in streams
                                     if name in self._mems)
        # Name-level per-state access sets on *shared* memories and
        # their reachability closure — the "may still touch" relation
        # hazard stalls use.
        stream_set = frozenset(self.stream_memories)
        fsm = design.fsm
        self._shared_reads = [s - stream_set for s in self._reads]
        self._shared_writes = [s - stream_set for s in self._writes]
        self._reads_reach = reach_union(fsm, self._shared_reads)
        self._writes_reach = reach_union(fsm, self._shared_writes)
        #: Cycle numbers at which requests retired, for steady-state
        #: throughput measurement across one :meth:`run_stream` call.
        self.retire_cycles = []
        self.stall_cycles = 0
        #: Most requests simultaneously in flight during the last
        #: stream — differential callers assert this is > 1 so the
        #: check cannot pass without ever overlapping requests.
        self.peak_in_flight = 0

    def _may_conflict(self, state, older_state):
        """Must a request at *state* hold back this cycle because of
        an older one at *older_state*?"""
        need_r = self._shared_reads[state]
        need_w = self._shared_writes[state]
        if need_r & self._writes_reach[older_state]:
            return True                                  # RAW
        return bool(need_w & (self._writes_reach[older_state] |
                              self._reads_reach[older_state]))  # WAW/WAR

    def run_stream(self, jobs, max_cycles=1000000):
        """Execute *jobs* (``(scalars, memories)`` pairs, like
        ``run_batch``) with up to :attr:`depth` in flight.

        Returns one ``(results, latency_cycles, stream_images)`` per
        job, in job order: the result tuple, the issue-to-retire cycle
        count (latch cycle included, stall cycles included), and the
        request's final private stream-memory images (the mutated
        ``frame`` — i.e. the reply bytes).  Warm memories and the
        register file are handed over in issue order, so after the
        stream the shared state matches sequential execution of the
        same jobs.
        """
        jobs = [(scalars, memories or {}) for scalars, memories in jobs]
        if not jobs:
            return []
        self._validate(jobs)
        for _, memories in jobs:
            for name, image in memories.items():
                if name not in self.stream_memories:
                    raise EngineError(
                        "per-request image for shared memory %r: only "
                        "stream memories %r may be loaded per request "
                        "in pipelined execution"
                        % (name, list(self.stream_memories)))
                if len(image) != self._mem_depths[name]:
                    raise EngineError(
                        "pipelined stream memory %r needs a full %d-word "
                        "image (got %d words)"
                        % (name, self._mem_depths[name], len(image)))
        layout = self._layout(frozenset(self.stream_memories),
                              self._latch_only, max_cycles, mode=STEP)[0]
        blocks = layout.blocks
        counts = self.state_counts
        # Lane 0 is the warm register file; in-flight requests take
        # lanes 1..depth.
        lanes = self.depth + 1
        cols = layout.soa_cols
        for col in cols:
            col[1:] = [0] * self.depth
        rows = {name: self._rows[name] for name in self.stream_memories}
        for lane_rows in rows.values():
            lane_rows[:] = [None] * lanes
        free = list(range(self.depth, 0, -1))
        nxt = [0] * lanes
        cyc = [0] * lanes
        out = []
        self.retire_cycles = []
        self.stall_cycles = 0
        self.peak_in_flight = 0
        active = []                    # oldest first
        next_job = 0
        last_issue = None
        cycle = 0
        while len(out) < len(jobs):
            cycle += 1
            if cycle > max_cycles:
                raise EngineError(
                    "pipelined stream on %r did not finish in %d "
                    "cycles" % (self.name, max_cycles))
            # Phase 1: stall decisions against start-of-cycle states,
            # oldest first; one claim per shared memory per cycle.
            stepping = []
            claimed = set()
            for position, context in enumerate(active):
                state = context.state
                if not state:
                    continue
                touched = (self._shared_reads[state] |
                           self._shared_writes[state])
                stall = bool(touched & claimed) or (touched and any(
                    older.state and self._may_conflict(state, older.state)
                    for older in active[:position]))
                if stall:
                    context.stalls += 1
                    self.stall_cycles += 1
                else:
                    claimed |= touched
                    stepping.append(context)
            # Phase 2: execute.  No two stepping contexts touch the
            # same shared memory this cycle, so order is immaterial.
            for context in stepping:
                block = blocks[context.state]
                block.fn(context.lanes, nxt, cyc, context.uniform)
                if counts is not None:
                    counts[context.state] += 1
                context.state = block.next_const
                if context.state is None:
                    context.state = nxt[context.lanes[0]]
                if not context.state:
                    context.finish_cycle = cycle
            # Phase 3: retire strictly in issue order.
            while active and not active[0].state:
                context = active.pop(0)
                lane = context.lanes[0]
                for col in cols:
                    col[0] = col[lane]
                for name, image in context.streams.items():
                    self._mems[name][:] = image
                free.append(lane)
                self.invocations += 1
                out.append((tuple([col[0] for _, col in self._results]),
                            1 + context.finish_cycle - context.issue_cycle,
                            {name: list(image) for name, image
                             in context.streams.items()}))
                self.retire_cycles.append(cycle)
            # Phase 4: issue (this cycle is the new request's latch
            # cycle; it executes its entry state next cycle).
            if next_job < len(jobs) and len(active) < self.depth:
                due = (last_issue is None or
                       (self.ii is not None and
                        cycle - last_issue >= self.ii) or
                       (self.ii is None and not active))
                if due:
                    memories = jobs[next_job][1]
                    lane = free.pop()
                    for col in cols:
                        col[lane] = col[0]
                    uniform = self._latch_lane(jobs[next_job], lane,
                                               layout)
                    # An unloaded stream buffer sees whatever the
                    # shared memory holds right now (nothing else in
                    # flight writes it — it is a stream memory).
                    streams = {name: self._private_rows(
                        name, (memories.get(name, self._mems[name]),))[0]
                        for name in self.stream_memories}
                    for name, image in streams.items():
                        rows[name][lane] = image
                    active.append(_Context(lane, uniform, layout.entry,
                                           streams, cycle))
                    next_job += 1
                    last_issue = cycle
            in_flight = sum(1 for context in active if context.state)
            if in_flight > self.peak_in_flight:
                self.peak_in_flight = in_flight
        return out

    def measured_interval(self):
        """Average cycles between retires over the last stream — the
        executor's own steady-state II (equals the schedule's II once
        the pipeline is warm and hazard-free)."""
        retires = self.retire_cycles
        if len(retires) < 2:
            return None
        return (retires[-1] - retires[0]) / float(len(retires) - 1)


def compile_pipelined(fn, opt_level=3, name=None, depth=None,
                      level_budget=None):
    """Front-to-back: Kiwi-compile *fn* (``-O3`` by default) and wrap
    the result in a :class:`PipelinedKernel`."""
    from repro.kiwi.compiler import DEFAULT_LEVEL_BUDGET, compile_function
    design = compile_function(
        fn, name=name, opt_level=opt_level,
        level_budget=DEFAULT_LEVEL_BUDGET if level_budget is None
        else level_budget)
    return PipelinedKernel(design, depth=depth)
