"""Per-FSM-state cycle attribution on the compiled engine.

The engine compiles FSM states into blocks and every driver knows
which states a dispatched block ran for which lanes, so attribution is
a counter bump per dispatch: with profiling enabled a
:class:`~repro.engine.compiler.CompiledKernel` runs its untraced
layout (every lane executes every state of a block) and increments
``counts[state]`` once per lane per state.  Every state is exactly one
clock cycle, so the counts *are* cycles — summed over requests they must
equal the measured per-request latencies minus the one idle (latch)
cycle each, which is the cross-check that keeps the profile honest
against the Table 3/4 cycle numbers (and lets the hotspot table show
precisely which states the ``-O0``→``-O2`` optimizer deleted).

This module only *reads* kernels (counts + FSM labels); enabling the
counters is the kernel's own
:meth:`~repro.engine.compiler.CompiledKernel.enable_profiling`, and
deployments thread it via ``deploy(...).with_profile()``.
"""

from repro.errors import ObsError
from repro.harness.report import render_table


class StateCycles:
    """One FSM state's share of the profile."""

    __slots__ = ("index", "label", "cycles")

    def __init__(self, index, label, cycles):
        self.index = index
        self.label = label
        self.cycles = cycles

    def __repr__(self):
        return "StateCycles(#%d %s: %d)" % (self.index, self.label,
                                            self.cycles)


class KernelProfile:
    """Cycles per FSM state, with the hotspot-table rendering."""

    def __init__(self, name, opt_level, states, invocations):
        self.name = name
        self.opt_level = opt_level
        #: Every non-idle state, in FSM index order (including cold
        #: states at 0 cycles — coverage holes are data too).
        self.states = list(states)
        self.invocations = invocations

    @classmethod
    def from_kernel(cls, kernel):
        """Build from a profiled engine kernel (raises unless
        :meth:`~repro.engine.compiler.CompiledKernel.enable_profiling`
        ran first)."""
        counts = kernel.state_counts
        if counts is None:
            raise ObsError(
                "kernel %r is not profiling; call enable_profiling() "
                "(deployments: .with_profile())" % (kernel.name,))
        fsm = kernel.design.fsm
        states = [StateCycles(state.index, state.label or "",
                              counts[state.index])
                  for state in fsm.states if state is not fsm.idle]
        return cls(kernel.name, kernel.opt_level, states,
                   kernel.invocations)

    # -- aggregation ---------------------------------------------------------

    def merge(self, other):
        """Sum another profile of the *same* compiled shape into this
        one (multicore cores / cluster shards run identical kernels)."""
        if (other.name != self.name
                or other.opt_level != self.opt_level
                or len(other.states) != len(self.states)):
            raise ObsError(
                "cannot merge profile of %r (-O%s, %d states) into "
                "%r (-O%s, %d states)"
                % (other.name, other.opt_level, len(other.states),
                   self.name, self.opt_level, len(self.states)))
        for mine, theirs in zip(self.states, other.states):
            mine.cycles += theirs.cycles
        self.invocations += other.invocations
        return self

    # -- derived -------------------------------------------------------------

    @property
    def total_cycles(self):
        """Cycles spent inside states.  Each invocation additionally
        pays one idle latch cycle, so measured per-request latencies
        sum to ``total_cycles + invocations``."""
        return sum(state.cycles for state in self.states)

    def cycles_per_request(self):
        if not self.invocations:
            return None
        return (self.total_cycles + self.invocations) / self.invocations

    def per_state(self):
        """``{state index: cycles}`` (the assert-friendly view)."""
        return {state.index: state.cycles for state in self.states}

    def hotspots(self, top=None):
        """States by descending cycles (ties broken by index, so the
        order is deterministic)."""
        ordered = sorted(self.states,
                         key=lambda state: (-state.cycles, state.index))
        return ordered[:top] if top else ordered

    def hotspot_table(self, top=None):
        """The aligned hotspot table harnesses and the CLI print."""
        total = self.total_cycles
        rows = []
        for state in self.hotspots(top):
            share = state.cycles / total if total else 0.0
            rows.append(["#%d" % state.index, state.label or "-",
                         str(state.cycles), "%5.1f%%" % (100 * share)])
        title = ("Kernel profile: %s at -O%s — %d cycles over %d "
                 "request(s)" % (self.name, self.opt_level, total,
                                 self.invocations))
        return render_table(["State", "Label", "Cycles", "Share"],
                            rows, title=title)

    def __repr__(self):
        return ("KernelProfile(%s, -O%s, %d cycles, %d invocations)"
                % (self.name, self.opt_level, self.total_cycles,
                   self.invocations))


def merge_profiles(profiles):
    """Fold same-shaped profiles (shards/cores) into one; ``None`` for
    an empty list."""
    merged = None
    for profile in profiles:
        if merged is None:
            merged = KernelProfile(profile.name, profile.opt_level,
                                   [StateCycles(s.index, s.label,
                                                s.cycles)
                                    for s in profile.states],
                                   profile.invocations)
        else:
            merged.merge(profile)
    return merged
