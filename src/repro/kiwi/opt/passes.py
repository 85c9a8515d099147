"""The optimization passes over the scheduled FSM.

Every pass is semantics-preserving with respect to the kernel's
observable behaviour: result values and final memory contents for any
input.  What a pass *may* change is the shape of the machine — fewer
expressions (folding, CSE), fewer registers (dead-register elimination),
fewer states (unreachable pruning, state fusion).  Cycle counts only
change through :class:`StateFusionPass`, which the -O2 pipeline enables.

Passes mutate the FSM in place and report what they did through
:class:`PassStats`; the manager (:mod:`repro.kiwi.opt.manager`) runs
them to a fixpoint and renumbers the states afterwards.
"""

from repro.kiwi.analysis import walk
from repro.kiwi.builder import MemReadRef, VarRef
from repro.kiwi.fsm import Branch, Goto
from repro.kiwi.opt.rewrite import fold_expr, fold_node, transform
from repro.rtl.expr import BinOp, Const, Expr, Mux, UnOp, expr_depth


class PassStats:
    """What one pass changed (all counters default to zero)."""

    FIELDS = ("exprs_folded", "exprs_shared", "branches_resolved",
              "states_removed", "states_fused", "registers_removed",
              "updates_removed")

    def __init__(self, name):
        self.name = name
        for field in self.FIELDS:
            setattr(self, field, 0)

    def changed(self):
        return any(getattr(self, field) for field in self.FIELDS)

    def merge(self, other):
        for field in self.FIELDS:
            setattr(self, field,
                    getattr(self, field) + getattr(other, field))

    def __repr__(self):
        parts = ["%s=%d" % (f, getattr(self, f))
                 for f in self.FIELDS if getattr(self, f)]
        return "PassStats(%s: %s)" % (self.name,
                                      ", ".join(parts) or "no changes")


class OptContext:
    """Everything a pass needs: the FSM, the register table, the spec."""

    def __init__(self, fsm, var_widths, spec, level_budget=48):
        self.fsm = fsm
        self.var_widths = var_widths
        self.spec = spec
        self.level_budget = level_budget
        self.result_names = {"__result%d" % index
                             for index in range(len(spec.results))}


def _rewrite_state(state, fn, memo):
    """Apply a transform to every expression a state owns."""
    for name in list(state.updates):
        state.updates[name] = transform(state.updates[name], fn, memo)
    state.writes = [
        (mem, transform(addr, fn, memo), transform(data, fn, memo),
         transform(enable, fn, memo))
        for mem, addr, data, enable in state.writes]
    transition = state.transition
    if isinstance(transition, Branch) and isinstance(transition.cond, Expr):
        transition.cond = transform(transition.cond, fn, memo)


def _each_state(ctx):
    """Every state except idle (idle's cond is the ``__start__`` string
    patched by the builder; it owns no expressions)."""
    for state in ctx.fsm.states:
        if state is not ctx.fsm.idle:
            yield state


class Pass:
    """Base class: subclasses set ``name`` and implement ``run``."""

    name = "pass"

    def run(self, ctx):
        raise NotImplementedError


class ConstantFoldPass(Pass):
    """Constant folding + algebraic simplification + strength reduction
    (see :mod:`repro.kiwi.opt.rewrite` for the rule set)."""

    name = "const-fold"

    def run(self, ctx):
        stats = PassStats(self.name)
        memo = {}

        def counting_fold(node):
            result = fold_node(node)
            if result is not node:
                stats.exprs_folded += 1
            return result

        for state in _each_state(ctx):
            _rewrite_state(state, counting_fold, memo)
        return stats


class CsePass(Pass):
    """Common-subexpression elimination by structural interning.

    Structurally-equal subtrees (same :meth:`~repro.rtl.expr.Expr.key`)
    collapse onto one node; downstream, everything that consumes
    expressions — the simulator, the resource estimator, the Verilog
    emitter — treats shared nodes as one wire, so this is sharing into
    wires, across all states of the machine at once."""

    name = "cse"

    def run(self, ctx):
        # Canonicalise every subtree by its structural ``key()``,
        # routed through the shared `transform` machinery so sharing
        # spans every expression of every state (one memo, one table).
        stats = PassStats(self.name)
        table = {}
        memo = {}

        def intern(node):
            canonical = table.setdefault(node.key(), node)
            if canonical is not node:
                stats.exprs_shared += 1
            return canonical

        for state in _each_state(ctx):
            _rewrite_state(state, intern, memo)
        return stats


class BranchResolvePass(Pass):
    """Turn branches whose condition folded to a constant into gotos,
    then drop states no longer reachable from idle."""

    name = "branch-resolve"

    def run(self, ctx):
        stats = PassStats(self.name)
        fsm = ctx.fsm
        for state in _each_state(ctx):
            transition = state.transition
            if isinstance(transition, Branch) and \
                    isinstance(transition.cond, Const):
                target = transition.if_true if transition.cond.value \
                    else transition.if_false
                state.transition = Goto(target)
                stats.branches_resolved += 1

        reachable = {fsm.idle}
        frontier = [fsm.idle]
        while frontier:
            state = frontier.pop()
            for successor in fsm.successors(state):
                if successor not in reachable:
                    reachable.add(successor)
                    frontier.append(successor)
        kept = [s for s in fsm.states if s in reachable]
        stats.states_removed += len(fsm.states) - len(kept)
        fsm.states = kept
        return stats


def _vars_read(roots):
    """The names of all VarRefs under *roots* (each DAG node visited
    once: an unmemoised walk is exponential in the sharing depth)."""
    return {node.name for node in walk(roots) if isinstance(node, VarRef)}


class DeadRegisterPass(Pass):
    """Remove updates to registers whose value is never observed.

    A register is live if it is a result, or if it is read by a state
    transition, a memory write, or the update of another live register
    (computed to a fixpoint).  Dead registers are deleted from the
    register table, so codegen never materialises them."""

    name = "dead-reg"

    def run(self, ctx):
        stats = PassStats(self.name)
        observed = []
        update_reads = {}        # var -> set of vars its updates read
        for state in _each_state(ctx):
            transition = state.transition
            if isinstance(transition, Branch) and \
                    isinstance(transition.cond, Expr):
                observed.append(transition.cond)
            for _, addr, data, enable in state.writes:
                observed += (addr, data, enable)
            for name, expr in state.updates.items():
                update_reads.setdefault(name, set()).update(
                    _vars_read((expr,)))

        live = set(ctx.result_names) | _vars_read(observed)
        frontier = list(live)
        while frontier:
            name = frontier.pop()
            for read in update_reads.get(name, ()):
                if read not in live:
                    live.add(read)
                    frontier.append(read)

        for state in _each_state(ctx):
            for name in list(state.updates):
                if name not in live:
                    del state.updates[name]
                    stats.updates_removed += 1
        for name in list(ctx.var_widths):
            if name not in live and name not in ctx.result_names:
                del ctx.var_widths[name]
                stats.registers_removed += 1
        return stats


class StateFusionPass(Pass):
    """Merge a state into its unique Goto-predecessor (retiming).

    If state A ends in ``Goto(B)`` and A is B's only predecessor, B's
    work can execute in A's cycle: B's expressions are rewritten so that
    reads of registers A updates become A's update expressions, and
    reads of memories A writes grow store-forwarding muxes (the same
    construction the scheduler uses within one cycle).  The merge is
    taken only when the fused state's logic depth stays within the
    timing budget — this is §3.4's "schedule a suitable amount of
    computation in a single clock cycle", applied after the fact.

    At -O2 pinned ``pause()`` states may be absorbed too: the barrier
    becomes a scheduling hint that retiming may remove when timing
    allows.  Observable results and memory contents are unchanged; only
    the cycle count drops.
    """

    name = "state-fusion"

    def __init__(self, fuse_pinned=True):
        self.fuse_pinned = fuse_pinned

    def run(self, ctx):
        stats = PassStats(self.name)
        while self._fuse_one(ctx, stats):
            pass
        return stats

    def _predecessors(self, fsm):
        preds = {state: [] for state in fsm.states}
        for state in fsm.states:
            for successor in fsm.successors(state):
                preds[successor].append(state)
        return preds

    def _fuse_one(self, ctx, stats):
        fsm = ctx.fsm
        preds = self._predecessors(fsm)
        for a in fsm.states:
            if a is fsm.idle:
                continue
            transition = a.transition
            if not isinstance(transition, Goto):
                continue
            b = transition.target
            if b is a or b is fsm.idle or b not in preds:
                continue
            if b.pinned and not self.fuse_pinned:
                continue
            if preds[b] != [a]:
                continue
            if self._merge(ctx, a, b):
                fsm.states.remove(b)
                stats.states_fused += 1
                return True
        return False

    def _merge(self, ctx, a, b):
        """Fuse *b* into *a*; returns False if the depth budget vetoes."""
        env = a.updates
        memo = {}
        fold_memo = {}

        def substitute(node):
            if isinstance(node, VarRef):
                return env.get(node.name, node)
            if isinstance(node, MemReadRef):
                return self._forward(node, a.writes)
            return node

        def rewrite(expr):
            # Substitute, then fold: the forwarding muxes this builds
            # compare (mostly constant) addresses, and folding them away
            # immediately keeps the depth check honest.
            return fold_expr(transform(expr, substitute, memo), fold_memo)

        merged_updates = dict(a.updates)
        for name, expr in b.updates.items():
            merged_updates[name] = rewrite(expr)
        merged_writes = list(a.writes) + [
            (mem, rewrite(addr), rewrite(data), rewrite(enable))
            for mem, addr, data, enable in b.writes]
        transition = b.transition
        if isinstance(transition, Branch):
            merged_transition = Branch(rewrite(transition.cond),
                                       transition.if_true,
                                       transition.if_false)
        else:
            merged_transition = Goto(transition.target)

        depth_memo = {}
        depth = 0
        for expr in merged_updates.values():
            depth = max(depth, expr_depth(expr, depth_memo))
        for _, addr, data, enable in merged_writes:
            depth = max(depth, expr_depth(addr, depth_memo),
                        expr_depth(data, depth_memo),
                        expr_depth(enable, depth_memo))
        if isinstance(merged_transition, Branch):
            depth = max(depth, expr_depth(merged_transition.cond,
                                          depth_memo))
        if depth > ctx.level_budget:
            return False

        a.updates = merged_updates
        a.writes = merged_writes
        a.transition = merged_transition
        if b.label and b.label not in ("join", "pause"):
            a.label = "%s+%s" % (a.label, b.label) if a.label else b.label
        return True

    @staticmethod
    def _forward(read, writes):
        """Wrap a memory read with forwarding from same-cycle writes
        (later writes take priority, mirroring the scheduler)."""
        result = read
        for mem, addr, data, enable in writes:
            if mem != read.mem_name:
                continue
            hit = enable if enable.width == 1 else UnOp("|r", enable)
            hit = BinOp("&", hit,
                        BinOp("==", read.addr, addr, result_width=1))
            result = Mux(hit, data, result)
        return result
