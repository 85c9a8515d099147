"""Public compiler API (workflow step B1 of Fig. 1).

``compile_function`` runs the full pipeline — parse, schedule,
optimize, emit — and returns a :class:`CompiledDesign` bundling the
netlist, the FSM, the timing report, and helpers to simulate the design
and to emit Verilog.

The *optimize* step is the middle-end of :mod:`repro.kiwi.opt`,
selected by ``opt_level``:

* ``0`` — no passes; byte-identical to a compiler without a middle-end,
* ``1`` (default) — resource passes only (folding, CSE, dead-register
  and unreachable-state elimination); cycle counts are untouched,
* ``2`` — adds state fusion/retiming under the timing-level budget,
  which reduces cycles-per-request,
* ``3`` — adds initiation-interval pipelining analysis
  (:mod:`repro.kiwi.opt.pipeline`): per-request latency cycles stay
  at the ``-O2`` figure, but the machine may overlap independent
  requests every ``achieved_ii`` cycles, which the cycle models use
  as the sustained service interval.

That every level means the same thing is :mod:`repro.verify`'s to
show, from outside: the compiler does not call its verifier.
"""

from repro.errors import CompileError
from repro.kiwi.analysis import state_roots
from repro.kiwi.builder import FsmBuilder
from repro.kiwi.codegen import generate
from repro.kiwi.frontend import parse_function
from repro.kiwi.opt import optimize
from repro.rtl.expr import expr_depth as _expr_depth
from repro.rtl.resources import estimate_resources
from repro.rtl.simulator import Simulator
from repro.rtl.verilog import emit_verilog

DEFAULT_OPT_LEVEL = 1
DEFAULT_LEVEL_BUDGET = 48


class TimingReport:
    """Schedule statistics (paper §3.4: too much work per cycle and the
    design fails timing; too little and it is inefficient).

    At ``-O3`` the report also carries the latency-vs-throughput split
    of the pipelining analysis: :attr:`latency_cycles` (critical-path
    states per request) is what one request experiences, while
    :attr:`achieved_ii` is the steady-state interval between request
    issues when the kernel pipelines.
    """

    def __init__(self, state_count, max_logic_levels, levels_per_state,
                 pipeline=None):
        self.state_count = state_count
        self.max_logic_levels = max_logic_levels
        self.levels_per_state = levels_per_state
        #: The -O3 :class:`~repro.kiwi.opt.pipeline.PipelineSchedule`
        #: (None below -O3).
        self.pipeline = pipeline

    @property
    def achieved_ii(self):
        """Steady-state initiation interval in cycles, or None when
        the machine is not pipelined (below -O3, or the analysis
        refused — loops, stale-register observables, budget)."""
        if self.pipeline is not None and self.pipeline.feasible:
            return self.pipeline.initiation_interval
        return None

    @property
    def latency_cycles(self):
        """Critical-path core states per request (None without the
        -O3 analysis, whose DAG walk computes it)."""
        if self.pipeline is not None:
            return self.pipeline.latency_cycles
        return None

    def meets_timing(self, max_levels=48):
        """Would this schedule close timing at the target clock?

        48 logic levels is a generous budget for 200 MHz on a Virtex-7;
        the ablation benchmark sweeps pause density against this.
        """
        return self.max_logic_levels <= max_levels

    def __repr__(self):
        text = "TimingReport(states=%d, max_levels=%d" % (
            self.state_count, self.max_logic_levels)
        if self.achieved_ii is not None:
            text += ", ii=%d/latency=%d" % (self.achieved_ii,
                                            self.latency_cycles)
        return text + ")"


def compute_timing(fsm):
    """Schedule statistics of an FSM (run after optimization so the
    report describes the machine actually emitted)."""
    max_levels = 0
    per_state = {}
    for state in fsm.states:
        memo = {}
        levels = max((_expr_depth(root, memo)
                      for root in state_roots(state)), default=0)
        per_state[state.index] = levels
        max_levels = max(max_levels, levels)
    return TimingReport(fsm.state_count, max_levels, per_state,
                        pipeline=getattr(fsm, "pipeline_schedule", None))


class CompiledDesign:
    """The output of the Kiwi compiler for one kernel."""

    def __init__(self, spec, fsm, module, timing, opt_level=0,
                 pass_stats=None):
        self.spec = spec
        self.fsm = fsm
        self.module = module
        self.timing = timing
        self.opt_level = opt_level
        self.pass_stats = list(pass_stats or [])

    @property
    def name(self):
        return self.spec.name

    @property
    def state_count(self):
        return self.fsm.state_count

    def resources(self):
        """Resource estimate of the generated netlist."""
        return estimate_resources(self.module)

    def verilog(self):
        """Emit the design as Verilog text, linear in the netlist at
        every level (shared and sliced subexpressions are ``_xN``
        wires); the ``Verilog`` leg of ``tests/verilog_reader.py``
        reads it back and runs it against the netlist."""
        return emit_verilog(self.module)

    def simulator(self):
        """A fresh cycle simulator over the generated netlist."""
        return Simulator(self.module)

    def run(self, max_cycles=100000, memories=None, **scalars):
        """Execute one invocation on the netlist simulator.

        Returns ``(results, latency_cycles, sim)``: the tuple of result
        values, the number of cycles ``busy`` was high, and the simulator
        (so callers can inspect memory side effects).
        """
        sim = self.simulator()
        return self.run_on(sim, max_cycles=max_cycles, memories=memories,
                           **scalars)

    def run_on(self, sim, max_cycles=100000, memories=None, **scalars):
        """Execute one invocation on an existing simulator (warm state)."""
        if memories:
            for mem_name, contents in memories.items():
                for addr, value in enumerate(contents):
                    sim.poke_memory(mem_name, addr, value)
        for name, value in scalars.items():
            sim.poke(name, value)
        sim.poke("start", 1)
        sim.step()              # idle: latch parameters, enter entry state
        sim.poke("start", 0)
        latency = 1
        while sim.peek("busy"):
            if latency >= max_cycles:
                raise CompileError(
                    "design %r did not finish in %d cycles"
                    % (self.name, max_cycles))
            sim.step()
            latency += 1
        results = tuple(
            sim.peek("result%d" % index)
            for index in range(len(self.spec.results)))
        return results, latency, sim


def compile_function(fn, name=None, opt_level=DEFAULT_OPT_LEVEL,
                     level_budget=DEFAULT_LEVEL_BUDGET):
    """Compile a kernel function into a :class:`CompiledDesign`.

    *opt_level* selects the middle-end pipeline (see the module
    docstring); *level_budget* is the timing budget (logic levels per
    cycle) that bounds -O2 state fusion.
    """
    spec = parse_function(fn)
    builder = FsmBuilder(spec)
    fsm = builder.build()
    pass_stats = optimize(fsm, builder.var_widths, spec, opt_level,
                          level_budget=level_budget)
    module = generate(spec, fsm, builder.var_widths, name=name)
    timing = compute_timing(fsm)
    return CompiledDesign(spec, fsm, module, timing,
                          opt_level=opt_level, pass_stats=pass_stats)


def compile_threads(functions, name="parallel",
                    opt_level=DEFAULT_OPT_LEVEL):
    """Compile several kernels as parallel circuits (§3.4 hardware
    semantics: "parallel threads may be wired into parallel logical
    sub-circuits").

    Returns a list of :class:`CompiledDesign` plus an aggregate resource
    report; the multi-threaded resource ablation uses this.
    """
    designs = [compile_function(fn, opt_level=opt_level)
               for fn in functions]
    total = None
    for design in designs:
        report = design.resources()
        if total is None:
            total = report
            total.name = name
        else:
            total.merge(report)
    return designs, total
