"""Heterogeneous execution targets (§3.3, contribution 2).

The same service object runs on all of them:

* :mod:`repro.targets.cpu`     — workflow A: an ordinary process over
  virtual NICs (software semantics; develop/test/debug).
* :mod:`repro.targets.fpga`    — workflow B/C: the NetFPGA SUME model —
  reference pipeline (Fig. 10) around the service as the "main logical
  core", with a 200 MHz cycle/latency/throughput model.
* :mod:`repro.netsim`          — the Mininet-style simulated network
  (services attach to simulated hosts' links).
* :mod:`repro.targets.multicore` — N service cores, one per port
  (§5.4's 4-core Memcached experiment).

Build them through :func:`repro.deploy.deploy` — one fluent API with
uniform seeding, optimization threading, fault wiring, and metrics.
These classes are the implementation layer the deploy backends
delegate to, and the package exports exactly what
:mod:`repro.deploy.backends` imports; everything else is reached by
module path.
"""

from repro.targets.cpu import CpuTarget
from repro.targets.fpga import FpgaTarget
from repro.targets.multicore import MultiCoreTarget

__all__ = ["CpuTarget", "FpgaTarget", "MultiCoreTarget"]
