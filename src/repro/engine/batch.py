"""The lockstep driver: N requests per dispatch over the superblocks.

:class:`~repro.engine.compiler.CompiledKernel` runs one lane at a
time.  The hardware the repo reproduces has no such limit — Emu cores
pipeline many independent requests — so :class:`BatchedKernel` adds
:meth:`~BatchedKernel.run_batch`, which parks *N* lanes on the same
generated blocks and advances every lane parked at a block in one
dispatch (:meth:`~BatchedKernel.latencies`: on a latency-only layout).
Lanes idle at different cycles; a finished lane simply leaves the
active-lane lists, so ragged batches cost only their live lanes' work.

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
memory images), a call is a loop of one-lane runs — always correct,
just not accelerated.  ``fallback_batches``/``lockstep_batches`` count
which path ran; both entries share one body.  A call costs its lanes:
a call of one job *is* the one-lane loop, and what a wider one needs
that depends only on the layout (its lane columns, latched columns,
result columns) is worked out when the layout is compiled.

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
_BYTES = frozenset((bytes, bytearray))


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
        self._observe(False)
        lane_latch = self._latch(jobs)
        uniform_set = frozenset(
            name for name in self._latch_only
            if len(set(lane_latch[name])) == 1)
        return list(zip(*self._lanes(
            len(jobs), lane_latch, uniform_set,
            {name: [memories[name] for _, memories in jobs]
             for name in jobs[0][1]}, max_cycles, False)))

    def latencies(self, scalars, memory, images, max_cycles=100000):
        """Latency cycles of one job per image, in order: each job
        latches *scalars* and loads its full-depth image into *memory*.

        Cycle counts and the other (warm) memories are those of
        :meth:`run` per job, but only what decides them is computed (no
        results).  Validated and latched once per call; the first call
        after power-on fixes the kernel to latency calls.
        """
        if not images:
            return []
        depth = self._mem_depths.get(memory)
        if (set(map(len, images)) != {depth}
                or not scalars.keys() <= self._scalar_masks.keys()):
            self._validate(((scalars, {memory: images[0]}),))  # names it
            raise EngineError("latencies need a full %d-word %r image "
                              "per job" % (depth, memory))
        if self._latency_only is not True:
            self._observe(True)
        inputs = self._inputs
        for name, value in scalars.items():     # every lane's latch
            inputs[name] = value & self._scalar_masks[name]
        n = len(images)
        lane_latch = {name: [inputs[name]] * n for name in
                      self._latch_names} if self._latch_names else {}
        return self._lanes(n, lane_latch, self._latch_only,
                           {memory: images}, max_cycles, True)[1]

    def _lanes(self, n, lane_latch, uniform_set, images, max_cycles,
               latency):
        """The body both entries share: lane *k* latches
        ``lane_latch[name][k]`` (one value for *uniform_set*'s names) and
        loads ``images[name][k]`` (full depth) on the *latency* or full
        layout; returns the lanes' results (none on a latency layout)
        and latencies, the last lane left warm.  One lane, or a kernel
        not lockstep-safe, runs the lanes one after another."""
        layout, limit = self._layout(frozenset(images), uniform_set,
                                     max_cycles, latency)
        uniform = tuple([lane_latch[name][0] for name in
                         layout.uniform_names]) if layout.uniform_names else ()
        for name, rows in images.items():
            # A row the code never writes may be the caller's own image.
            if (name in layout.row_writes or name not in self._byte_mems
                    or not _BYTES.issuperset(map(type, rows))):
                rows = images[name] = self._private_rows(name, rows)
            self._rows[name][:] = rows
        results = []
        if n > 1 and self.lockstep_capable:
            out = self._drive(layout, n, lane_latch, uniform, limit)
            if not latency:
                result_cols = [col if soa else col * n
                               for col, soa in layout.result_cols]
                results = (list(zip(*result_cols)) if result_cols
                           else [()] * n)
            for col in layout.soa_cols:
                col[0] = col[-1]
        else:
            out = []
            for lane in range(n):
                if lane:            # lane 0 runs each row in turn
                    for name, rows in images.items():
                        self._rows[name][0] = rows[lane]
                for name, col in layout.latched_cols:
                    col[0] = lane_latch[name][lane]
                out.append(self._one_lane(layout, uniform, limit))
                if not latency:
                    results.append(tuple([col[0] for col, _
                                          in layout.result_cols]))
        for name, rows in images.items():
            self._mems[name][:] = rows[-1]
        if self.lockstep_capable:
            self.lockstep_batches += 1
        else:
            self.fallback_batches += 1
        self.invocations += n
        return results, out

    def _drive(self, layout, n, lane_latch, uniform, max_cycles):
        """The lockstep dispatch loop with hazard gating; returns the
        per-lane latencies.  Every lane starts from lane 0's warm
        registers under its own *lane_latch* values; the caller folds the
        last lane back.  *max_cycles* is ``None`` when no lane can run
        out of budget.

        A hazard block normally runs for its *whole* sorted lane group
        in one dispatch: when every unclear lane below the group's top
        lane is in the group, the block's ascending lane-major loop
        *is* the sequential interleaving, so one call satisfies the
        gate for every member at once.  When lanes are staggered
        (stragglers still in earlier pure blocks), pure blocks run
        first so the group can re-form; only if nothing else can move
        does the lowest unclear lane go through alone.
        """
        for col in layout.soa_cols:
            col[:] = col[:1] * n
        for name, col in layout.latched_cols:
            col[:] = lane_latch[name]
        cyc = [1] * n
        nxt = [0] * n
        latencies = [1] * n
        counts = self.state_counts
        blocks = layout.blocks
        frontier = {layout.entry: list(range(n))} if layout.entry else {}
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
