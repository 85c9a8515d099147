"""The optimizing middle-end: pass-level behaviour.

Each pass is checked both at the expression level (fold rules) and at
the machine level (state counts, registers, latencies) — plus the two
global contracts: ``-O0`` is the identity and ``-O1`` never changes a
cycle count.
"""

import pytest

from repro.errors import CompileError
from repro.kiwi import compile_function
from repro.kiwi.opt.rewrite import fold_expr
from repro.rtl.expr import BinOp, Const, Mux, Slice, UnOp
from repro.kiwi.builder import VarRef
from repro.verify import Interpreter, check, job_streams


# -- kernels (module level so inspect can find their source) --------------

def const_math(a: "u8") -> "u8":
    x = 2 + 3
    y = x * 4
    return a + bits(y, 8)


def mul_by_eight(a: "u16") -> "u16":
    return bits(a * 8, 16)


def repeated_subexpr(a: "u16", b: "u16") -> "u16":
    x = (a + b) * (a + b)
    y = (a + b) + x
    return bits(y, 16)


def dead_local(a: "u8") -> "u8":
    unused = a * 7
    also_unused = unused + 3
    return a + 1


def never_taken(a: "u8") -> "u8":
    r = a + 1
    if a != a:
        pause()
        r = 99
    return r


def two_pause(a: "u8") -> "u8":
    pause()
    pause()
    return a


def chain(a: "u16", b: "u16") -> "u16":
    x = a * b + a
    pause()
    y = x * 3 + b
    pause()
    z = y * 5 + x
    pause()
    return bits(z, 16)


def writes_then_reads(buf: "mem[8]x8") -> "u8":
    buf[0] = 7
    pause()
    x = buf[0]
    buf[1] = x + 1
    pause()
    y = buf[1]
    return y


# -- fold rules ------------------------------------------------------------

class TestFoldRules:
    def test_const_binop_folds_with_width(self):
        out = fold_expr(BinOp("+", Const(200, 8), Const(100, 8)))
        assert isinstance(out, Const) and out.value == 44  # wraps at 8

    def test_add_zero_identity(self):
        x = VarRef("x", 8)
        assert fold_expr(BinOp("+", x, Const(0, 8))) is x
        assert fold_expr(BinOp("+", Const(0, 8), x)) is x

    def test_sub_self_is_zero(self):
        x = VarRef("x", 8)
        out = fold_expr(BinOp("-", x, VarRef("x", 8)))
        assert isinstance(out, Const) and out.value == 0

    def test_mul_strength_reduction(self):
        x = VarRef("x", 8)
        out = fold_expr(BinOp("*", x, Const(8, 8)))
        assert isinstance(out, BinOp) and out.op == "<<"
        assert isinstance(out.rhs, Const) and out.rhs.value == 3
        assert out.width == 8

    def test_mul_by_zero_and_one(self):
        x = VarRef("x", 8)
        assert fold_expr(BinOp("*", x, Const(1, 8))) is x
        out = fold_expr(BinOp("*", x, Const(0, 8)))
        assert isinstance(out, Const) and out.value == 0

    def test_and_or_xor_identities(self):
        x = VarRef("x", 8)
        assert fold_expr(BinOp("&", x, Const(0xFF, 8))) is x
        assert fold_expr(BinOp("|", x, Const(0, 8))) is x
        out = fold_expr(BinOp("^", x, VarRef("x", 8)))
        assert isinstance(out, Const) and out.value == 0

    def test_div_mod_strength_reduction(self):
        x = VarRef("x", 8)
        out = fold_expr(BinOp("/", x, Const(4, 8)))
        assert isinstance(out, BinOp) and out.op == ">>"
        out = fold_expr(BinOp("%", x, Const(4, 8)))
        assert isinstance(out, BinOp) and out.op == "&"
        assert out.rhs.value == 3

    def test_div_by_zero_matches_simulator(self):
        out = fold_expr(BinOp("/", VarRef("x", 8), Const(0, 8)))
        assert isinstance(out, Const) and out.value == 0

    def test_compare_self(self):
        x = VarRef("x", 8)
        assert fold_expr(x.eq(VarRef("x", 8))).value == 1
        assert fold_expr(x.ne(VarRef("x", 8))).value == 0

    def test_mux_const_sel_and_equal_arms(self):
        a, b = VarRef("a", 8), VarRef("b", 8)
        assert fold_expr(Mux(Const(1, 1), a, b)) is a
        assert fold_expr(Mux(Const(0, 1), a, b)) is b
        sel = VarRef("s", 1)
        assert fold_expr(Mux(sel, a, VarRef("a", 8))).key() == a.key()

    def test_mux_boolean_arms_become_wire(self):
        sel = VarRef("s", 1)
        assert fold_expr(Mux(sel, Const(1, 1), Const(0, 1))) is sel
        out = fold_expr(Mux(sel, Const(0, 1), Const(1, 1)))
        assert isinstance(out, UnOp) and out.op == "!"

    def test_slice_of_slice_composes(self):
        x = VarRef("x", 16)
        out = fold_expr(Slice(Slice(x, 11, 4), 3, 1))
        assert isinstance(out, Slice)
        assert (out.msb, out.lsb) == (7, 5) and out.operand is x

    def test_full_slice_is_identity(self):
        x = VarRef("x", 8)
        assert fold_expr(Slice(x, 7, 0)) is x

    def test_double_negation(self):
        x = VarRef("x", 8)
        assert fold_expr(UnOp("~", UnOp("~", x))) is x

    def test_shift_out_of_range(self):
        x = VarRef("x", 8)
        out = fold_expr(BinOp(">>", x, Const(9, 8)))
        assert isinstance(out, Const) and out.value == 0

    def test_fold_never_changes_width(self):
        x = VarRef("x", 8)
        for expr in (BinOp("*", x, Const(4, 8)),
                     BinOp("%", x, Const(16, 8)),
                     Mux(Const(1, 1), x, Const(0, 8))):
            assert fold_expr(expr).width == expr.width


# -- machine-level pass behaviour ------------------------------------------

def _stats(design, name):
    for stats in design.pass_stats:
        if stats.name == name:
            return stats
    raise AssertionError("no %r stats on %r" % (name, design.name))


class TestPipeline:
    def test_o0_runs_no_passes(self):
        design = compile_function(const_math, opt_level=0)
        assert design.pass_stats == []
        assert design.opt_level == 0

    def test_o0_is_deterministic(self):
        a = compile_function(const_math, opt_level=0).verilog()
        b = compile_function(const_math, opt_level=0).verilog()
        assert a == b

    def test_unknown_level_rejected(self):
        with pytest.raises(CompileError, match="optimization level"):
            compile_function(const_math, opt_level=7)

    def test_constant_folding_happens(self):
        design = compile_function(const_math, opt_level=1)
        assert _stats(design, "const-fold").exprs_folded > 0
        # Equal to the unoptimized semantics (bare literals are
        # bit_length-wide, so 2+3 wraps at 2 bits — folding keeps it).
        unopt = compile_function(const_math, opt_level=0)
        assert design.run(a=5)[0] == unopt.run(a=5)[0]

    def test_strength_reduction_in_verilog(self):
        unopt = compile_function(mul_by_eight, opt_level=0).verilog()
        opt = compile_function(mul_by_eight, opt_level=1).verilog()
        assert "*" in unopt
        assert "*" not in opt and "<<" in opt
        design = compile_function(mul_by_eight, opt_level=1)
        assert design.run(a=7)[0][0] == 56

    def test_cse_shares_subtrees(self):
        design = compile_function(repeated_subexpr, opt_level=1)
        assert _stats(design, "cse").exprs_shared > 0
        unopt = compile_function(repeated_subexpr, opt_level=0)
        assert design.resources().logic < unopt.resources().logic
        assert design.run(a=3, b=4)[0][0] == (7 * 7 + 7) & 0xFFFF

    def test_dead_registers_removed(self):
        design = compile_function(dead_local, opt_level=1)
        assert _stats(design, "dead-reg").registers_removed >= 2
        assert "v_unused" not in design.module.signals
        assert "v_also_unused" not in design.module.signals
        unopt = compile_function(dead_local, opt_level=0)
        assert "v_unused" in unopt.module.signals
        assert design.run(a=9)[0][0] == 10

    def test_constant_branch_prunes_unreachable(self):
        design = compile_function(never_taken, opt_level=1)
        stats = _stats(design, "branch-resolve")
        assert stats.branches_resolved >= 1
        assert stats.states_removed >= 1
        unopt = compile_function(never_taken, opt_level=0)
        assert design.state_count < unopt.state_count
        assert design.run(a=7)[0][0] == 8

    def test_o1_preserves_every_cycle(self):
        for kernel in (const_math, never_taken, two_pause, chain,
                       writes_then_reads):
            unopt = compile_function(kernel, opt_level=0)
            opt = compile_function(kernel, opt_level=1)
            kwargs = {"a": 3} if "a" in dict(
                unopt.spec.scalar_params) else {}
            extra = {}
            if dict(unopt.spec.memory_params):
                extra["memories"] = {
                    name: [0] * mem.depth
                    for name, mem in unopt.spec.memory_params}
            if "b" in dict(unopt.spec.scalar_params):
                kwargs["b"] = 5
            r0, lat0, _ = unopt.run(**kwargs, **extra)
            r1, lat1, _ = opt.run(**kwargs, **extra)
            assert (r0, lat0) == (r1, lat1)

    def test_o2_fuses_pauses(self):
        unopt = compile_function(two_pause, opt_level=0)
        opt = compile_function(two_pause, opt_level=2)
        assert opt.state_count < unopt.state_count
        (r0,), lat0, _ = unopt.run(a=7)
        (r2,), lat2, _ = opt.run(a=7)
        assert r0 == r2 == 7
        assert lat2 < lat0

    def test_fusion_respects_level_budget(self):
        full = compile_function(chain, opt_level=2, level_budget=48)
        tight = compile_function(chain, opt_level=2, level_budget=3)
        unopt = compile_function(chain, opt_level=0)
        assert full.state_count < tight.state_count <= unopt.state_count
        assert full.timing.max_logic_levels <= 48
        for design in (full, tight):
            assert design.run(a=3, b=4)[0] == unopt.run(a=3, b=4)[0]

    def test_fusion_forwards_memory_writes(self):
        unopt = compile_function(writes_then_reads, opt_level=0)
        opt = compile_function(writes_then_reads, opt_level=2)
        (r0,), lat0, sim0 = unopt.run(memories={"buf": [0] * 8})
        (r2,), lat2, sim2 = opt.run(memories={"buf": [0] * 8})
        assert r0 == r2 == 8
        assert lat2 < lat0
        for addr in range(8):
            assert sim0.peek_memory("buf", addr) == \
                sim2.peek_memory("buf", addr)

    def test_optimized_verilog_uses_shared_wires(self):
        unopt = compile_function(repeated_subexpr, opt_level=0).verilog()
        opt = compile_function(repeated_subexpr, opt_level=1).verilog()
        assert "// shared subexpressions (CSE)" not in unopt
        assert "// shared subexpressions (CSE)" in opt
        assert "_x0" in opt

    def test_verify_flag_runs_cosimulation(self):
        report = check(chain, [Interpreter(0), Interpreter(2)],
                       job_streams(chain, 8, "opt-passes/chain"))
        assert report.ok
        assert report.runs > 0

