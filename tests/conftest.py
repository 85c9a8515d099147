"""Shared fixtures: canonical addresses and request frames."""

import pytest

from repro.net.packet import Frame, ip_to_int, mac_to_int


@pytest.fixture
def macs():
    return {
        "service": mac_to_int("02:00:00:00:00:01"),
        "client": mac_to_int("02:00:00:00:00:aa"),
        "gateway": mac_to_int("02:00:00:00:00:05"),
        "wan": mac_to_int("02:00:00:00:01:00"),
    }


@pytest.fixture
def ips():
    return {
        "service": ip_to_int("10.0.0.1"),
        "client": ip_to_int("10.0.0.2"),
        "public": ip_to_int("198.51.100.1"),
        "remote": ip_to_int("203.0.113.9"),
    }


@pytest.fixture
def bursts():
    """``bursts(items, sizes)``: *items* cut into consecutive bursts,
    sizes cycling — for burst-partition invariance tests."""
    from repro.verify import cut
    return lambda items, sizes: list(cut(items, sizes))


@pytest.fixture
def echo_request(macs, ips):
    from repro.core.protocols.icmp import build_icmp_echo_request
    return Frame(build_icmp_echo_request(
        macs["service"], macs["client"], ips["client"], ips["service"]),
        src_port=1).pad()


class Lockstep:
    """``Simulator(netlist)`` and a simulator of ``emit_verilog(netlist)``
    read back by ``tests/verilog_reader.py``, driven together: every
    call (``poke``, ``step``, ``peek``, ``peek_memory``, ...) goes to
    both, and what the two return must agree."""

    def __init__(self, netlist):
        from repro.rtl import Simulator, verilog
        from verilog_reader import read_verilog
        self.sims = (Simulator(netlist),
                     Simulator(read_verilog(verilog.emit_verilog(netlist))))

    def local(self, sim, item):
        """*item* (a signal, or a signal or memory name) as *sim* knows
        it: the text writes a hierarchical ``a.b`` as ``a__b``."""
        item = getattr(item, "name", item)
        if isinstance(item, str) and sim is self.sims[1]:
            return item.replace(".", "__")
        return item

    def __getattr__(self, method):
        def both(*args):
            answers = [getattr(sim, method)(*[self.local(sim, a)
                                              for a in args])
                       for sim in self.sims]
            assert answers[0] == answers[1], (method, args, answers)
            return answers[0]
        return both

    @property
    def _values(self):
        """The register backdoor: a write lands on both sides."""
        return _Backdoor(self)


class _Backdoor:
    def __init__(self, lockstep):
        self.lockstep = lockstep

    def __setitem__(self, signal, value):
        for sim in self.lockstep.sims:
            name = self.lockstep.local(sim, signal)
            sim._values[sim.module.signals[name]] = value


@pytest.fixture(scope="session")
def simulators():
    """``simulators(netlist)``: the netlist and its Verilog text read
    back, in :class:`Lockstep`.  Session-scoped, so ``@given`` tests
    may take it."""
    return Lockstep
