"""Facts about a sealed FSM that more than one consumer needs.

The ``-O3`` pipelining analysis (:mod:`repro.kiwi.opt.pipeline`), the
timing report and the execution engine (:mod:`repro.engine`) all ask
the same questions of an FSM: which expressions does a state evaluate,
which registers and memories does it touch, what can a request still
reach from here, how long is the longest path, and — the subtle one —
can any observable depend on a register value the *previous* request
left behind (:func:`lockstep_safe`).  They are answered once, here, on
the compiler side; the engine imports them, never the other way round.
"""

from repro.kiwi.builder import MemReadRef, VarRef
from repro.kiwi.fsm import Branch
from repro.rtl.expr import BinOp, Concat, Const, Mux, Slice, UnOp


def state_roots(state, effects=None):
    """Every expression a state evaluates (pre-edge, phase 1): of its
    *effects* ``(updates, writes)`` if given, else of all of them."""
    updates, writes = effects or (state.updates, state.writes)
    for name in sorted(updates):
        yield updates[name]
    for _, addr, data, enable in writes:
        yield addr
        yield data
        yield enable
    transition = state.transition
    if isinstance(transition, Branch):
        yield transition.cond


def walk(roots, assume=None):
    """Each distinct node of the DAGs under *roots*, once; of a ``Mux``
    whose selector is the node *assume* (known true), only the true arm."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if isinstance(node, Mux) and node.sel is assume:
            stack.append(node.if_true)
        else:
            stack.extend(node.children())


def mems_read(state):
    return {node.mem_name for node in walk(state_roots(state))
            if isinstance(node, MemReadRef)}


def mems_written(state):
    return {mem_name for mem_name, _, _, _ in state.writes}


def vars_written(fsm):
    """Registers some non-idle state updates."""
    return {name for state in fsm.states if state is not fsm.idle
            for name in state.updates}


def reach_union(fsm, facts):
    """Per state index, the union of *facts* (sets, indexed by state)
    over every state a request can still execute from there, itself
    included — "may this request still touch X"."""
    out = [set(fact) for fact in facts]
    changed = True
    while changed:
        changed = False
        for state in fsm.states:
            if state is fsm.idle:
                continue
            acc = out[state.index]
            before = len(acc)
            for succ in fsm.successors(state):
                if succ is not fsm.idle:
                    acc |= out[succ.index]
            changed = changed or len(acc) != before
    return [frozenset(acc) for acc in out]


def live_effects(fsm, observed, latched, loaded):
    """Per state index, the ``(updates, writes)`` (a dict, a list) whose
    values can reach an observable — a branch condition or a memory in
    *observed* — by backward liveness over the FSM.  The idle→entry edge
    counts, less what the next idle cycle overwrites (*latched*
    registers, *loaded* memories), so a register a later request reads
    stays live.  A write's address and data matter under its enable."""
    def reads(root, assume=None):
        return {("mem", node.mem_name) if isinstance(node, MemReadRef)
                else node.name for node in walk((root,), assume)
                if isinstance(node, (MemReadRef, VarRef))}

    states = [s for s in fsm.states if s is not fsm.idle]
    uses = {state: (                # what each effect reads, walked once
        reads(state.transition.cond)
        if isinstance(state.transition, Branch) else set(),
        {name: reads(expr) for name, expr in state.updates.items()},
        [reads(addr, enable) | reads(data, enable) | reads(enable)
         for _, addr, data, enable in state.writes]) for state in states}
    always = frozenset(("mem", name) for name in observed)
    killed = frozenset(latched) | {("mem", name) for name in loaded}
    entry = fsm.idle.transition.if_true
    live_in = dict.fromkeys(fsm.states, always)
    effects = [({}, [])] * len(fsm.states)
    changed = True
    while changed:                  # the last pass changes nothing
        changed = False
        for state in reversed(states):
            out = set(always)
            for succ in fsm.successors(state):
                out |= (live_in[entry] - killed if succ is fsm.idle
                        else live_in[succ])
            cond, update_uses, write_uses = uses[state]
            live = out - state.updates.keys() | cond
            updates = {}
            for name in state.updates.keys() & out:
                updates[name] = state.updates[name]
                live |= update_uses[name]
            writes = []
            for write, used in zip(state.writes, write_uses):
                if ("mem", write[0]) in out:
                    writes.append(write)
                    live |= used
            effects[state.index] = (updates, writes)
            changed |= live != live_in[state]
            live_in[state] = frozenset(live)
    return effects


def stage_intervals(fsm):
    """(earliest, latest) stage per reachable state, or None on a loop.

    Stages are path lengths from the entry state over the FSM with the
    return-to-idle edges removed; a cycle among the remaining states is
    a data-dependent loop and has no static schedule.  Returns
    ``(entry, stages)``.
    """
    entry = fsm.idle.transition.if_true
    if entry is fsm.idle:
        return entry, {}
    succs = {}
    stack, seen = [entry], {entry}
    while stack:
        state = stack.pop()
        succs[state] = [s for s in fsm.successors(state)
                        if s is not fsm.idle]
        for succ in succs[state]:
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    indegree = {state: 0 for state in succs}
    for state in succs:
        for succ in succs[state]:
            indegree[succ] += 1
    order = [s for s in succs if indegree[s] == 0]
    for state in order:                       # Kahn: grows while walked
        for succ in succs[state]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                order.append(succ)
    if len(order) != len(succs):
        return entry, None                    # residual cycle: a loop
    earliest = {entry: 0}
    latest = {entry: 0}
    for state in order:                       # topological: preds first
        for succ in succs[state]:
            shortest = earliest[state] + 1
            longest = latest[state] + 1
            if shortest < earliest.get(succ, shortest + 1):
                earliest[succ] = shortest
            if longest > latest.get(succ, -1):
                latest[succ] = longest
    return entry, {state: (earliest[state], latest[state])
                   for state in order}


class _Bail(Exception):
    """Cleanliness analysis exceeded its budget — treat as dirty."""


class CleanAnalysis:
    """Does any observable value depend on *stale* registers?

    A register read at request entry observes whatever the previous
    request left behind — sequential execution defines which request
    that is, overlapped execution (lockstep lanes, pipelined issue)
    changes it.  Overlap is therefore sound exactly when no
    *observable* (memory-write address/data/enable, branch condition,
    or result register) depends on a stale value.  ``clean(expr)``
    decides "this expression's value is independent of stale
    registers" bottom-up, with one crucial refinement: if-conversion
    guards every predicated value with the predicate that makes it
    well-defined (``values[h]`` is written with data
    ``Mux(is_set, built_value, stale_v)`` under enable ``is_set``), so
    write addresses and data are checked *under the assumption their
    enable is true*, and a ``Mux`` whose selector is an assumed
    predicate only contributes the selected arm.  Predicates are
    matched structurally (the front-end CSEs them into shared nodes,
    but structural equality is what soundness needs: equal pure
    expressions have equal values).
    """

    BUDGET = 200000

    def __init__(self):
        self._fp = {}
        self._intern = {}
        self._sels = {}
        self._steps = 0

    def fingerprint(self, expr):
        # Interned to a small int: fingerprints live in frozensets that
        # are intersected on every memo lookup, and hashing deep nested
        # tuples there is quadratic in practice (tuples do not cache
        # their hash).  Equal structures still get equal fingerprints.
        key = id(expr)
        cached = self._fp.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, VarRef):
            out = ("var", expr.name)
        elif isinstance(expr, Const):
            out = ("const", expr.value, expr.width)
        elif isinstance(expr, Mux):
            out = ("mux", self.fingerprint(expr.sel),
                   self.fingerprint(expr.if_true),
                   self.fingerprint(expr.if_false))
        elif isinstance(expr, BinOp):
            out = ("bin", expr.op, self.fingerprint(expr.lhs),
                   self.fingerprint(expr.rhs))
        elif isinstance(expr, UnOp):
            out = ("un", expr.op, self.fingerprint(expr.operand))
        elif isinstance(expr, Slice):
            out = ("slice", expr.msb, expr.lsb,
                   self.fingerprint(expr.operand))
        elif isinstance(expr, MemReadRef):
            out = ("memread", expr.mem_name,
                   self.fingerprint(expr.addr))
        elif isinstance(expr, Concat):
            out = ("cat",) + tuple(self.fingerprint(part)
                                   for part in expr.parts)
        else:
            out = ("opaque", id(expr))
        out = self._intern.setdefault(out, len(self._intern))
        self._fp[key] = out
        return out

    def _sels_below(self, expr):
        """Fingerprints of every Mux selector in *expr*'s subtree —
        the only assumptions whose truth can matter inside it.  Memo
        keys are restricted to this set so unrelated path contexts
        collapse (otherwise deep mux nests go exponential)."""
        key = id(expr)
        cached = self._sels.get(key)
        if cached is not None:
            return cached
        out = frozenset()
        if isinstance(expr, Mux):
            out = out | {self.fingerprint(expr.sel)}
        for child in expr.children():
            out = out | self._sels_below(child)
        self._sels[key] = out
        return out

    def clean(self, expr, defined, assume_true=frozenset()):
        try:
            return self._clean(expr, defined, assume_true,
                               frozenset(), {})
        except _Bail:
            return False

    def _clean(self, expr, defined, true_fps, false_fps, memo):
        self._steps += 1
        if self._steps > self.BUDGET:
            raise _Bail()
        relevant = self._sels_below(expr)
        key = (id(expr), true_fps & relevant, false_fps & relevant)
        cached = memo.get(key)
        if cached is None:
            cached = self._clean_uncached(expr, defined, true_fps,
                                          false_fps, memo)
            memo[key] = cached
        return cached

    def _clean_uncached(self, expr, defined, true_fps, false_fps,
                        memo):
        if isinstance(expr, Const):
            return True
        if isinstance(expr, VarRef):
            return expr.name in defined
        if isinstance(expr, Mux):
            sel_fp = self.fingerprint(expr.sel)
            if sel_fp in true_fps:
                return self._clean(expr.if_true, defined, true_fps,
                                   false_fps, memo)
            if sel_fp in false_fps:
                return self._clean(expr.if_false, defined, true_fps,
                                   false_fps, memo)
            if not self._clean(expr.sel, defined, true_fps,
                               false_fps, memo):
                return False
            return (self._clean(expr.if_true, defined,
                                true_fps | {sel_fp}, false_fps, memo)
                    and self._clean(expr.if_false, defined, true_fps,
                                    false_fps | {sel_fp}, memo))
        # Memory contents are stale-free by induction: per-request
        # buffers are freshly loaded, and every shared-memory write
        # passed this same analysis — so a read is clean iff its
        # address is.
        return all(self._clean(child, defined, true_fps, false_fps,
                               memo)
                   for child in expr.children())


def lockstep_safe(fsm, spec, var_names):
    """Can requests overlap on this FSM without stale-register effects?

    Forward must-assign dataflow over the FSM, where a state assigns
    only the registers whose update expression is *clean* (dirty
    updates are permitted — the register simply stays stale, and any
    later observable use of it fails the check).  Latched parameters
    count as assigned at entry and registers no state updates hold
    their reset value forever.  Requires every memory-write operand
    (under its enable) and every branch condition to be clean, and
    every result register to be definitely assigned on all paths into
    idle.
    """
    entry = fsm.idle.transition.if_true
    if entry is fsm.idle:
        return True                      # degenerate: no work at all
    latched = frozenset(name for name, _ in spec.scalar_params)
    never_written = frozenset(var_names) - vars_written(fsm) - latched
    states = [s for s in fsm.states if s is not fsm.idle]
    analysis = CleanAnalysis()
    preds = {s: [] for s in states}
    idle_preds = []
    for state in states:
        for succ in fsm.successors(state):
            if succ is fsm.idle:
                idle_preds.append(state)
            else:
                preds[succ].append(state)
    everything = frozenset(
        name for s in states for name in s.updates) | latched
    da_in = {s: everything for s in states}
    da_in[entry] = latched

    def assigns(state):
        defined = da_in[state] | never_written
        return frozenset(
            name for name in state.updates
            if analysis.clean(state.updates[name], defined))

    changed = True
    while changed:
        changed = False
        for state in states:
            # The idle edge into entry contributes exactly the latched
            # parameter set (everything else is stale previous-request
            # state); other in-edges contribute their out-sets; the
            # meet is the intersection.
            acc = latched if state is entry else None
            for pred in preds[state]:
                out = da_in[pred] | assigns(pred)
                acc = out if acc is None else (acc & out)
            if acc is None:
                acc = da_in[state]       # unreachable: keep top
            if acc != da_in[state]:
                da_in[state] = acc
                changed = True
    for state in states:
        defined = da_in[state] | never_written
        for _, addr, data, enable in state.writes:
            if not analysis.clean(enable, defined):
                return False
            assume = frozenset((analysis.fingerprint(enable),))
            if not analysis.clean(addr, defined, assume):
                return False
            if not analysis.clean(data, defined, assume):
                return False
        transition = state.transition
        if isinstance(transition, Branch):
            if not analysis.clean(transition.cond, defined):
                return False
    acc = None
    for pred in idle_preds:
        out = da_in[pred] | assigns(pred)
        acc = out if acc is None else (acc & out)
    results = {"__result%d" % index
               for index in range(len(spec.results))}
    return results <= ((acc or frozenset()) | never_written)
