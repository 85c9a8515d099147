"""The emitted Verilog is legal, linear, and means the netlist.

``tests/verilog_reader.py`` reads the text back under Verilog-2001's
width rules; its ``Verilog`` leg runs it against the interpreted
netlist on every service kernel at every level, and catches three
planted emitter bugs; the ``simulators`` fixture catches a fourth, an
emitter that drops the ``initial`` block.
"""

import re

import pytest

from repro.harness.optimization import SERVICE_KERNELS
from repro.ip.pearson import PearsonHash, pearson_hash
from repro.kiwi import compile_function
from repro.rtl import Concat, Const, Mux, Simulator, Slice, verilog
from repro.verify import Interpreter, check, job_streams
from verilog_reader import Verilog, VerilogError, read_verilog

LEVELS = range(4)
SEED = "verilog-leg-1"
#: A part-select after ``)`` or ``}``, or on a constant.
EXPRESSION_SELECT = re.compile(r"[)}]\[|'d\d+\[")

ICMP = next(case for case in SERVICE_KERNELS if case.name == "ICMP echo")


def wrapping_sum(a: "u8", b: "u8") -> "u16":
    return a + b                    # 8-bit sum, zero-extended


def test_every_part_select_is_on_a_name_and_o0_text_is_linear():
    o0_bytes = 0
    for case in SERVICE_KERNELS:
        for level in LEVELS:
            text = compile_function(case.kernel, opt_level=level).verilog()
            assert not EXPRESSION_SELECT.search(text), (case.name, level)
            o0_bytes += len(text) if level == 0 else 0
    assert o0_bytes < 1_000_000


@pytest.mark.parametrize("case", SERVICE_KERNELS, ids=lambda c: c.name)
def test_verilog_leg_agrees_with_the_interpreter(case):
    """Results, memory images and cycle counts (the two legs share a
    timing key), cold and warm, at every level."""
    streams = job_streams(case, 12, SEED)
    for level in LEVELS:
        report = check(case, [Interpreter(level), Verilog(level)], streams)
        assert report.require().runs == 24
        assert Verilog(level).timing == Interpreter(level).timing


# -- the reader ---------------------------------------------------------------

WIDTHS = """module widths (
  clk,
  a,
  b,
  wide,
  wrapped,
  over
);
  input clk;
  input [7:0] a;
  input [7:0] b;
  output wire [8:0] wide;
  output wire [8:0] wrapped;
  output wire over;

  assign wide = (a + b);
  assign wrapped = {1'd0, (a + b)};
  assign over = ((a + b) > 9'd255);
endmodule
"""


def test_reader_sizes_operands_by_verilog_rules():
    """The target widens an operand (no wrap); a concatenation part is
    self-determined (wraps); a comparison sizes both sides to the
    wider."""
    sim = Simulator(read_verilog(WIDTHS))
    sim.poke("a", 200)
    sim.poke("b", 100)
    assert [sim.peek(name) for name in ("wide", "wrapped", "over")] == \
        [300, 44, 1]


@pytest.mark.parametrize("rhs", [
    "(a + b)[3:0]",             # part-select of an expression
    "{4'd0, a}[3:0]",           # ... of a concatenation
    "8'd255[3:0]",              # ... of a constant
    "a - b",                    # an operator the emitter parenthesises
    "4'd16",                    # a constant wider than its size
    "c",                        # an undeclared name
])
def test_reader_rejects_what_the_emitter_never_writes(rhs):
    text = ("module t (\n  clk,\n  a,\n  b,\n  y\n);\n  input clk;\n"
            "  input [3:0] a;\n  input [3:0] b;\n  output wire [3:0] y;\n"
            "  assign y = %s;\nendmodule\n" % rhs)
    with pytest.raises(VerilogError):
        read_verilog(text)


INITIAL = """module t (
  clk,
  a,
  y
);
  input clk;
  input [3:0] a;
  output wire [3:0] y;
  reg [3:0] r;
  reg [3:0] t__m [0:1]; // 1-bit addr
%s
  assign y = (r + t__m[1'd0]);
%s
endmodule
"""

INIT = "  initial begin\n    r = 4'd3;\n    t__m[0] = 4'd9;\n  end"
ALWAYS = "  always @(posedge clk) begin\n    r <= a;\n%s  end"


def test_reader_reads_one_initial_block_of_constants():
    sim = Simulator(read_verilog(INITIAL % (INIT, ALWAYS % "")))
    assert sim.peek("y") == 12


@pytest.mark.parametrize("before, after", [
    (INIT + "\n" + INIT, ALWAYS % ""),                     # a second block
    ("", ALWAYS % INIT.replace("  initial", "    initial")),  # in always
    (INIT.replace("4'd3", "a"), ALWAYS % ""),               # not a constant
    (INIT.replace("t__m[0]", "t__m[2]"), ALWAYS % ""),      # out of range
])
def test_reader_rejects_initial_outside_its_subset(before, after):
    with pytest.raises(VerilogError):
        read_verilog(INITIAL % (before, after))


# -- planted emitter bugs -----------------------------------------------------

def _plant(monkeypatch, rewrite):
    """Make the emitter render ``rewrite(node)`` in place of each node."""
    emit = verilog._emit

    def mutant(expr, names, define=False):
        if define or id(expr) not in names:
            expr = rewrite(expr)
        return emit(expr, names, define)

    monkeypatch.setattr(verilog, "_emit", mutant)


def _caught(subject, level):
    report = check(subject, [Interpreter(level), Verilog(level)],
                   job_streams(subject, 8, SEED))
    assert not report.ok
    assert {m.leg for m in report.mismatches} == {"verilog -O%d" % level}
    return report.mismatches[0]


def test_swapped_mux_arms_are_caught(monkeypatch):
    _plant(monkeypatch, lambda e: Mux(e.sel, e.if_false, e.if_true)
           if isinstance(e, Mux) else e)
    _caught(ICMP, 2)


def test_off_by_one_slice_msb_is_caught(monkeypatch):
    _plant(monkeypatch, lambda e: Slice(e.operand, e.msb - 1, e.lsb)
           if isinstance(e, Slice) and e.msb > e.lsb else e)
    _caught(ICMP, 2)


def test_dropped_zero_extension_is_caught(monkeypatch):
    """Without ``{8'd0, ...}`` the 8-bit sum is taken at the 16-bit
    target's width and stops wrapping."""
    _plant(monkeypatch, lambda e: e.parts[1]
           if isinstance(e, Concat) and len(e.parts) == 2
           and isinstance(e.parts[0], Const) and not e.parts[0].value
           else e)
    for level in LEVELS:
        assert _caught(wrapping_sum, level).what == "result[0]"


def test_dropped_initial_block_is_caught(monkeypatch, simulators):
    """Without ``initial`` the Pearson table reads back all zero."""
    monkeypatch.setattr(verilog, "_initial", lambda flat: [])
    sim = simulators(PearsonHash().build_netlist())
    sim.poke("data_in", 7)
    sim.poke("init_hash_enable", 1)
    sim.step()
    with pytest.raises(AssertionError, match="245, 0"):
        sim.peek("digest")
    assert pearson_hash(b"\x07") == 245
