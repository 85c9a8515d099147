"""Signals: the leaves of the expression IR.

A :class:`Signal` is a named, fixed-width net.  Its *kind* determines how
the simulator treats it:

* ``input``  — driven from outside the module each cycle,
* ``wire``   — driven by exactly one combinational assignment,
* ``reg``    — state element, updated at the clock edge.

Outputs are just wires (or regs) marked as ports on the module.
"""

from repro.errors import WidthError
from repro.rtl.expr import Expr


class Signal(Expr):
    """A named net with a fixed width."""

    __slots__ = ("name", "width", "kind", "init")

    KINDS = ("input", "wire", "reg")

    def __init__(self, name, width, kind="wire", init=0):
        if width <= 0:
            raise WidthError("signal %r width must be positive" % name)
        if kind not in self.KINDS:
            raise WidthError("signal %r has unknown kind %r" % (name, kind))
        self.name = name
        self.width = width
        self.kind = kind
        self.init = init & ((1 << width) - 1)

    def children(self):
        return ()

    def _key(self):
        # A signal is a physical net: identity, not structure.  Two
        # same-named signals in different modules are different wires.
        return ("sig", self)
