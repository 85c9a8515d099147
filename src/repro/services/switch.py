"""L2 learning switch (§4.1) — the paper's flagship example (Fig. 2).

Two variants, exactly as the paper describes:

* :class:`LearningSwitch` with ``use_ip_cam=True`` (default) uses the
  CAM IP block — less developer burden on the tooling side, much better
  resource usage and timing;
* ``use_ip_cam=False`` uses the pure-language :class:`RegisterCAM` —
  "does not burden developers with implementation details".

``switch_kernel`` is the flat Emu-Python version that the Kiwi compiler
synthesises for Table 3's resource/latency comparison.
"""

from repro.core import netfpga as NetFPGA
from repro.core.protocols.ethernet import EthernetWrapper
from repro.ip.cam import BinaryCAM, RegisterCAM
from repro.kiwi.runtime import pause
from repro.services.base import EmuService

DEFAULT_TABLE_SIZE = 256     # 256-entry tables, as in §5.3


class LearningSwitch(EmuService):
    """Layer-2 learning switch over a MAC → port CAM."""

    name = "switch"

    def __init__(self, table_size=DEFAULT_TABLE_SIZE, use_ip_cam=True,
                 num_ports=4):
        cam_cls = BinaryCAM if use_ip_cam else RegisterCAM
        self.lut = cam_cls(key_width=48, value_width=8, depth=table_size)
        self.num_ports = num_ports
        self.use_ip_cam = use_ip_cam

    def on_frame(self, dataplane):
        """Direct transcription of Fig. 2."""
        eth = EthernetWrapper(dataplane.tdata)
        dst_mac = eth.destination_mac
        src_mac = eth.source_mac

        # CAM lookup for the destination port (1 cycle on the IP block).
        lut_element_op = self.lut.lookup(dst_mac)
        dstmac_lut_hit = self.lut.matched
        yield pause()

        if dstmac_lut_hit:
            NetFPGA.set_output_port(dataplane, lut_element_op)
        else:
            NetFPGA.broadcast(dataplane)
        yield pause()

        # Learn: add the source MAC if it is not already there.
        self.lut.lookup(src_mac)
        srcmac_lut_exist = self.lut.matched
        yield pause()
        if not srcmac_lut_exist:
            self.lut.write(src_mac, dataplane.src_port)

    def reset(self):
        self.lut.clear()


def switch_kernel(frame: "mem[64]x8", src_port: "u8", dst_hit: "u1",
                  dst_port: "u8", src_hit: "u1") -> ("u4", "u1", "u48"):
    """Flat Emu-Python learning switch for the Kiwi compiler.

    The CAM is an IP block (§3.2 (i)): its match results arrive as the
    ``dst_hit``/``dst_port``/``src_hit`` inputs, and the learn request
    leaves as the ``(learn_enable, learn_key)`` results —
    :func:`build_emu_switch_core` wires both sides together.  The frame
    memory holds the packet headers.  Returns ``(dst_ports bitmap,
    learn_enable, learn_key)``.  The schedule lands the paper's 8-cycle
    module latency (Table 3): 2 cycles of CAM interaction + 6 here.
    """
    dst_mac: "u48" = 0
    src_mac: "u48" = 0
    for i in range(6):
        dst_mac = bits((dst_mac << 8) | frame[i], 48)
        src_mac = bits((src_mac << 8) | frame[6 + i], 48)
    pause()

    # Fig. 2: hit -> one-hot output port, miss -> broadcast (all ports
    # except the source).
    out_ports: "u4" = 0
    if dst_hit == 1:
        out_ports = bits(1 << bits(dst_port, 2), 4)
    else:
        out_ports = bits(15 & ~(1 << bits(src_port, 2)), 4)
    pause()

    # Fig. 2 lines 13-18: learn the source MAC if absent.
    learn: "u1" = 0
    if src_hit == 0:
        learn = 1
    pause()
    return out_ports, learn, src_mac


def build_emu_switch_core(table_size=DEFAULT_TABLE_SIZE, opt_level=None):
    """The full Emu switch design: compiled kernel + CAM IP block.

    Returns ``(compiled_design, top_module)``; the top module is what
    Table 3 reports resources for (and matches the paper's observation
    that ~85% of the Emu switch's resources are the CAM).  *opt_level*
    overrides the compiler's default middle-end level (e.g. ``2`` for
    the optimized Table 3 row).
    """
    from repro.kiwi.compiler import DEFAULT_OPT_LEVEL, compile_function
    from repro.rtl.module import Module

    if opt_level is None:
        opt_level = DEFAULT_OPT_LEVEL
    design = compile_function(switch_kernel, opt_level=opt_level)
    cam = BinaryCAM(key_width=48, value_width=8, depth=table_size)
    cam_netlist = cam.build_netlist("mac_cam")

    top = Module("emu_switch_core")
    start = top.input("start", 1)
    src_port = top.input("src_port", 8)
    search_key = top.input("search_key", 48)
    dst_ports = top.output("dst_ports", 4)
    busy = top.output("busy", 1)

    cam_match = top.wire("cam_match", 1)
    cam_value = top.wire("cam_value", 8)
    kernel_result = top.wire("kernel_dst_ports", 4)
    kernel_busy = top.wire("kernel_busy", 1)
    learn_en = top.wire("learn_en", 1)
    learn_key = top.wire("learn_key", 48)

    top.instantiate(
        "cam", cam_netlist,
        search_key=search_key, write_en=learn_en, write_key=learn_key,
        write_value=src_port, match=cam_match, value_out=cam_value)
    top.instantiate(
        "kernel", design.module,
        start=start, src_port=src_port, dst_hit=cam_match,
        dst_port=cam_value, src_hit=cam_match,
        busy=kernel_busy, result0=kernel_result, result1=learn_en,
        result2=learn_key)
    top.comb(dst_ports, kernel_result)
    top.comb(busy, kernel_busy)
    return design, top
