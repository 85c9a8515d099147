"""Scale-out clustering: shards, replication, and key-hash routing.

§5.4 scales one Emu device to four cores; this package scales the same
services across *many* devices.  The pieces:

* :mod:`repro.cluster.ring`        — consistent-hash ring (virtual
  nodes, shard add/remove, remap statistics).
* :mod:`repro.cluster.health`      — the miss-count failure detector
  behind the self-healing path.
* :mod:`repro.cluster.replication` — pluggable write-replication
  policies plus per-service write classifiers.
* :mod:`repro.cluster.balancer`    — the flow keys a request is routed
  by (memcached key, else the 5-tuple).
* :mod:`repro.cluster.target`      — :class:`ClusterTarget`, the
  many-device analogue of ``MultiCoreTarget`` (batched dispatch,
  aggregate throughput model) and the ``cluster`` deploy backend.

Any existing :class:`~repro.services.base.EmuService` (memcached,
kvcache, DNS, NAT) drops in unchanged: the cluster layer only needs a
service factory, a flow-key extractor, and optionally an ``is_write``
classifier.
"""

from repro.cluster.balancer import five_tuple_key, flow_key, memcached_key
from repro.cluster.health import MissCountDetector
from repro.cluster.replication import (
    NoReplication, PrimaryReplica, ReadOneWriteAll, ReplicationPolicy,
    memcached_is_write,
)
from repro.cluster.ring import HashRing, RemapStats, ring_position
from repro.cluster.target import REQUEST_TIMEOUT_NS, ClusterTarget

__all__ = [
    "ClusterTarget", "HashRing", "MissCountDetector", "NoReplication",
    "PrimaryReplica", "REQUEST_TIMEOUT_NS", "ReadOneWriteAll",
    "RemapStats", "ReplicationPolicy", "five_tuple_key", "flow_key",
    "memcached_is_write", "memcached_key", "ring_position",
]
