"""The lockstep driver: N requests per dispatch over the superblocks.

:class:`~repro.engine.compiler.CompiledKernel` runs one lane at a
time.  The hardware the repo reproduces has no such limit — Emu cores
pipeline many independent requests — so :class:`BatchedKernel` adds
:meth:`~BatchedKernel.run_batch`, which parks *N* lanes on the same
generated blocks and advances every lane parked at a block in one
dispatch.  Lanes idle at different cycles; a finished lane simply
leaves the active-lane lists, so ragged batches cost only the work
their live lanes do.

Lockstep reorders execution across requests, so it is only attempted
when two static analyses prove the reorder unobservable:

1. **Definite assignment**
   (:func:`repro.kiwi.analysis.lockstep_safe`) — no observable depends
   on a register value the previous request left behind, and every
   result register is assigned on all entry→idle paths.  Registers
   then carry no information between requests, so per-lane copies
   starting from the batch-entry snapshot are equivalent to the
   sequential carry chain.
2. **Hazard gating** — memories *loaded in full by every lane* are
   per-lane rows (a full load severs any cross-request flow); shared
   memories the FSM writes are *hazards*.  A state touching a hazard
   memory may only execute for lane *k* once every lane below *k* is
   clear (finished, or parked in a state that cannot reach a hazard
   state), so all hazard-memory operations happen in lane-major
   order — exactly the sequential interleaving — while pure states
   still run in lockstep.

When either fails for a batch (or its lanes load different or partial
memory images), ``run_batch`` is a loop of one-lane :meth:`run` calls —
always correct, just not accelerated.  ``fallback_batches``/
``lockstep_batches`` count which path ran.  A call costs its lanes: a
qualifying batch of one *is* the one-lane loop, and what a wider one
needs that depends only on the layout (its lane columns, latched
columns, result columns) is worked out when the layout is compiled.

Per-request observables are bit-identical to one-lane execution:
results, per-lane latency cycles, final memory images, and warm state
across successive batches (the one permitted difference: a register
the analysis proved unreadable-before-write may hold a different
*internal* value after a batch — it is unobservable by construction,
and :mod:`repro.verify` checks the observable set).
"""

from repro.errors import EngineError
from repro.engine.compiler import CompiledKernel
from repro.kiwi.analysis import lockstep_safe

#: Width the layers above chunk, look ahead and drain by (``run_batch``
#: itself takes any number of jobs).
LANES = 64


class BatchedKernel(CompiledKernel):
    """A :class:`CompiledKernel` that additionally offers
    :meth:`run_batch` — same blocks, same warm state, N lanes."""

    def __init__(self, design):
        super().__init__(design)
        self.lockstep_capable = lockstep_safe(design.fsm, design.spec,
                                              self._reg_names)
        self.lockstep_batches = 0
        self.fallback_batches = 0

    def run_batch(self, jobs, max_cycles=100000):
        """Run *jobs* — ``(scalars, memories)`` pairs, one per lane —
        and return ``[(results, latency_cycles), ...]`` in lane order.

        Observably identical to calling :meth:`run` per job in order
        (warm state included); lockstep-accelerated when the batch
        qualifies, sequential otherwise.
        """
        jobs = [(scalars, memories or {})
                for scalars, memories in jobs]
        if not jobs:
            return []
        if not (self._validate(jobs) and self.lockstep_capable):
            self.fallback_batches += 1
            return [self.run(max_cycles, memories, **scalars)[:2]
                    for scalars, memories in jobs]
        n = len(jobs)
        if n == 1:
            # One lane in lockstep with itself is the one-lane driver:
            # same layout key, same blocks, nothing to spread or fold.
            out = [self._run_lane(jobs[0], True, max_cycles)[:2]]
            self.lockstep_batches += 1
            return out
        loaded = jobs[0][1].keys()
        lane_latch = self._latch(jobs)
        uniform_set = frozenset(
            name for name in self._latch_only
            if len(set(lane_latch[name])) == 1)
        checked, mode = self._mode(max_cycles)
        layout = self._layout(frozenset(loaded), uniform_set, mode)
        # Every lane starts from the warm register file (lane 0) with
        # its own latched parameters on top.
        for col in layout.soa_cols:
            col[:] = col[:1] * n
        for name, col in layout.latched_cols:
            col[:] = lane_latch[name]
        for name in loaded:
            self._rows[name][:] = self._private_rows(
                name, [memories[name] for _, memories in jobs])
        uniform = tuple([lane_latch[name][0]
                         for name in layout.uniform_names])
        latencies = self._drive(layout, n, uniform,
                                max_cycles if checked else None)
        result_cols = [col if soa else col * n
                       for col, soa in layout.result_cols]
        results = zip(*result_cols) if result_cols else [()] * n
        out = list(zip(results, latencies))
        # The last lane is the warm state, like sequential execution.
        for col in layout.soa_cols:
            col[0] = col[-1]
        for name in loaded:
            self._mems[name][:] = self._rows[name][-1]
        self.invocations += n
        self.lockstep_batches += 1
        return out

    def _drive(self, layout, n, uniform, max_cycles):
        """The lockstep dispatch loop with hazard gating; returns the
        per-lane latencies.  *max_cycles* is ``None`` when no lane can
        run out of budget.

        A hazard block normally runs for its *whole* sorted lane group
        in one dispatch: when every unclear lane below the group's top
        lane is in the group, the block's ascending lane-major loop
        *is* the sequential interleaving, so one call satisfies the
        gate for every member at once.  When lanes are staggered
        (stragglers still in earlier pure blocks), pure blocks run
        first so the group can re-form; only if nothing else can move
        does the lowest unclear lane go through alone.
        """
        cyc = [1] * n
        nxt = [0] * n
        latencies = [0] * n
        if layout.entry == 0:
            return cyc
        counts = self.state_counts
        blocks = layout.blocks
        frontier = {layout.entry: list(range(n))}
        lane_pos = [layout.entry] * n    # frontier leader per live lane
        clear = [False] * n
        min_unclear = 0

        def run(block, lanes):
            if max_cycles is not None:
                limit = max_cycles - block.size
                for lane in lanes:
                    if cyc[lane] > limit:
                        raise self._timeout(max_cycles)
            block.fn(lanes, nxt, cyc, uniform)
            if counts is not None:
                for index in block.state_indices:
                    counts[index] += len(lanes)
            target = block.next_const
            if target is not None:
                if target == 0:
                    for lane in lanes:
                        latencies[lane] = cyc[lane]
                        clear[lane] = True
                        lane_pos[lane] = 0
                else:
                    in_reach = blocks[target].in_reach
                    for lane in lanes:
                        clear[lane] = not in_reach
                        lane_pos[lane] = target
                    frontier.setdefault(target, []).extend(lanes)
            else:
                for lane in lanes:
                    target = nxt[lane]
                    if target == 0:
                        latencies[lane] = cyc[lane]
                        clear[lane] = True
                        lane_pos[lane] = 0
                    else:
                        clear[lane] = not blocks[target].in_reach
                        lane_pos[lane] = target
                        frontier.setdefault(target, []).append(lane)

        while frontier:
            ran = False
            # Hazard group dispatch while the gate provably holds.
            while min_unclear < n:
                if clear[min_unclear]:
                    min_unclear += 1
                    continue
                leader = lane_pos[min_unclear]
                block = blocks[leader]
                if not block.hazard:
                    break
                parked = frontier[leader]
                parked.sort()
                grouped = True
                i = 0
                for k in range(min_unclear + 1, parked[-1]):
                    if clear[k]:
                        continue
                    while parked[i] < k:
                        i += 1
                    if parked[i] != k:
                        grouped = False
                        break
                if not grouped:
                    break
                del frontier[leader]
                run(block, parked)
                ran = True
            # Pure blocks run in full lockstep over all parked lanes.
            for leader in sorted(frontier):
                lanes = frontier.get(leader)
                if not lanes:
                    continue
                block = blocks[leader]
                if block.hazard:
                    continue
                del frontier[leader]
                run(block, lanes)
                ran = True
            if ran:
                continue
            # Stalemate: stragglers are parked at *different* hazard
            # blocks, so no group forms and nothing is pure.  The
            # lowest unclear lane always satisfies the gate alone.
            leader = lane_pos[min_unclear]
            lanes = frontier.get(leader)
            if lanes is None or min_unclear not in lanes:
                raise EngineError(            # pragma: no cover
                    "internal: batched scheduler stalled for %r"
                    % self.name)
            lanes.remove(min_unclear)
            if not lanes:
                del frontier[leader]
            run(blocks[leader], [min_unclear])
        return latencies
