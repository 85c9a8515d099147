"""The networking services of paper §4, written against the Emu API.

Every service is a pause-annotated handler (single codebase) that runs
under software semantics (CPU target), inside the network simulator, or
stepped cycle-by-cycle inside the FPGA pipeline model.  Services that
the paper synthesised also ship a flat *kernel* in the compilable
Emu-Python subset (``<service>_kernel``) used for resource and latency
reports.

* :mod:`repro.services.switch`      — L2 learning switch (§4.1, Fig. 2)
* :mod:`repro.services.filter_l3l4` — L3–L4 filter slotted into the
  switch, plus the iptables-style rule front-end (§4.1)
* :mod:`repro.services.icmp_echo`   — ICMP echo server (§4.2)
* :mod:`repro.services.tcp_ping`    — TCP reachability responder (§4.2)
* :mod:`repro.services.dns_server`  — non-recursive DNS server (§4.3)
* :mod:`repro.services.memcached`   — Memcached server (§4.3)
* :mod:`repro.services.nat`         — UDP/TCP NAT gateway (§4.4)
* :mod:`repro.services.kvcache`     — in-dataplane LRU cache (§4.4)
"""

from repro.services.base import EmuService
from repro.services.switch import LearningSwitch
from repro.services.filter_l3l4 import FilterRule, L3L4Filter, \
    FilteringSwitch
from repro.services.icmp_echo import IcmpEchoService
from repro.services.tcp_ping import TcpPingService
from repro.services.dns_server import DnsServerService
from repro.services.memcached import MemcachedService
from repro.services.nat import NatService
from repro.services.kvcache import KVCacheService


def registry():
    """name -> :class:`~repro.deploy.spec.ServiceSpec` for every
    deployable service (see :mod:`repro.services.catalog`).

    Imported lazily: the registry pulls in the deploy layer, which
    pulls in every backend — a cycle if resolved at package init
    (the deploy layer builds every service it deploys from here).
    """
    from repro.services.catalog import registry as _registry
    return _registry()

__all__ = [
    "EmuService", "LearningSwitch", "FilterRule", "L3L4Filter",
    "FilteringSwitch", "IcmpEchoService", "TcpPingService",
    "DnsServerService", "MemcachedService", "NatService", "KVCacheService",
    "registry",
]
