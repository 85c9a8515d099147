"""Discrete-event network simulator — the Mininet role in Fig. 1 (§3.3).

"By using virtual interfaces, developers can test network functions in a
simulator."  The paper compiles the NAT service to software, Mininet and
hardware from one codebase; here the same service object attaches to a
:class:`~repro.netsim.topology.Network` node and handles the very same
frames hosts exchange.

* :mod:`repro.netsim.sim`      — the event loop (time in ns).
* :mod:`repro.netsim.node`     — hosts and service nodes.
* :mod:`repro.netsim.link`     — links with latency + bandwidth.
* :mod:`repro.netsim.faults`   — fault injection: lossy links, timed
  kill/partition/restore scripts (shared with the ``cluster`` backend).
* :mod:`repro.netsim.topology` — the network builder.
"""

from repro.netsim.sim import EventLoop
from repro.netsim.node import Host, ServiceNode
from repro.netsim.link import Link
from repro.netsim.faults import FaultInjector, FaultPlan, FaultyLink
from repro.netsim.topology import Network

__all__ = ["EventLoop", "FaultInjector", "FaultPlan", "FaultyLink",
           "Host", "Link", "Network", "ServiceNode"]
