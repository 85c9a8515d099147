"""Verilog emission (workflow step B1), and ``repr`` as its printer."""

from repro.rtl import Module, const, emit_verilog, mux


def make_design():
    m = Module("demo")
    en = m.input("en", 1)
    count = m.reg("count", 8)
    out = m.output("out", 8)
    mem = m.memory("table", 8, 16)
    m.comb(out, count + mem.read(count[3:0]))
    m.sync(count, mux(en, count + const(1, 8), count))
    m.write_port(mem, count[3:0], count, en)
    return m


class TestEmission:
    def test_module_header(self):
        text = emit_verilog(make_design())
        assert text.startswith("module demo (")
        assert "endmodule" in text

    def test_ports_declared(self):
        text = emit_verilog(make_design())
        assert "input en;" in text
        assert "output wire [7:0] out;" in text
        assert "input clk;" in text

    def test_register_and_always_block(self):
        text = emit_verilog(make_design())
        assert "reg [7:0] count;" in text
        assert "always @(posedge clk) begin" in text
        assert "count <=" in text

    def test_memory_declared_and_written(self):
        text = emit_verilog(make_design())
        assert "[0:15]" in text
        assert "if (en)" in text

    def test_continuous_assign(self):
        text = emit_verilog(make_design())
        assert "assign out =" in text

    def test_hierarchy_flattened_with_prefixes(self):
        child = Module("leaf")
        x = child.input("x", 4)
        y = child.output("y", 4)
        child.comb(y, ~x)
        parent = Module("top")
        a = parent.input("a", 4)
        b = parent.output("b", 4)
        parent.instantiate("u0", child, x=a, y=b)
        text = emit_verilog(parent)
        assert "u0__x" in text
        assert "module top (" in text

    def test_compiled_kernel_emits(self):
        from repro.kiwi import compile_function
        from repro.services.icmp_echo import icmp_echo_kernel
        text = compile_function(icmp_echo_kernel).verilog()
        assert "module icmp_echo_kernel (" in text
        assert "fsm_state" in text


class TestPrinter:
    """``repr`` of an expression is the emitter's linear text; gated on
    bytes, not time."""

    def test_repr_is_the_emitters_wire_lines_then_the_root(self):
        m = Module("dag")
        a, b = m.input("a", 8), m.input("b", 8)
        shared = a + b
        expr = mux(shared[0], shared * shared, shared ^ b)
        m.comb(m.output("y", 8), expr)
        lines = emit_verilog(m).splitlines()
        wires = [line[len("  assign "):-1] for line in lines
                 if line.startswith("  assign _x")]
        root = next(line for line in lines if line.startswith("  assign y"))
        assert wires == ["_x0 = (a + b)"]
        assert repr(expr).splitlines() == \
            wires + [root[len("  assign y = "):-1]]

    def test_builder_level_nodes_print_their_own_text(self):
        from repro.kiwi.builder import MemReadRef, VarRef
        addr = VarRef("x", 8) + 1
        read = MemReadRef("frame", addr, 8)
        assert repr(read ^ addr) == \
            "_x0 = (var:x<8> + 8'd1)\n(mem:frame[_x0] ^ _x0)"

    def test_dns_o0_next_state_prints_linear(self):
        """The DNS kernel's ``-O0`` next-state of ``t3`` printed as a
        tree was 15 MB; a key printed its whole tree too."""
        from repro.harness.optimization import SERVICE_KERNELS
        from repro.kiwi import compile_function
        dns = next(case for case in SERVICE_KERNELS if case.name == "DNS")
        module = compile_function(dns.kernel, opt_level=0).module
        expr = next(expr for reg, expr in module.sync_assigns.items()
                    if reg.name == "v_t3")
        assert len(repr(expr)) <= 64 * 1024
        assert len(repr(expr.key())) <= 1024
