"""Utility functions for interacting with the FPGA dataplane (Fig. 6).

The paper lists these as the target-binding layer: "one could have
different sets of such functions for different targets, without changing
the code for protocol parsing or IP blocks."  The CPU and netsim targets
reuse exactly these functions over the same :class:`NetFPGAData`.
"""

from repro.core.dataplane import NetFPGAData


def get_frame(src):
    """Extract the frame from ``NetFPGA_Data`` into a byte array."""
    return bytearray(src.tdata)


def set_frame(src, dst):
    """Move the contents of a byte array into the frame field."""
    dst.tdata[:] = src


def read_input_port(dataplane):
    """Read the port on which the frame was received."""
    return dataplane.src_port


def set_output_port(dataplane, value):
    """Forward out of a single port: one-hot encode *value*."""
    dataplane.dst_ports = 1 << int(value)


def broadcast(dataplane, exclude_source=True):
    """Send out of every port (except, by default, the input port)."""
    mask = (1 << NetFPGAData.NUM_PORTS) - 1
    if exclude_source:
        mask &= ~(1 << dataplane.src_port)
    dataplane.dst_ports = mask


def drop(dataplane):
    """Clear the output bitmap: the frame is implicitly dropped."""
    dataplane.dst_ports = 0


def send_back(dataplane):
    """Reply out of the port the frame arrived on (echo services)."""
    dataplane.dst_ports = 1 << dataplane.src_port
