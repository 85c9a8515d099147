"""Instantiate the cluster on :mod:`repro.netsim` for latency-real runs.

Two builders:

* :func:`build_star` — client, one balancer, N shards on point-to-point
  links: the smallest topology that exercises the whole dataplane.
* :func:`build_leaf_spine` — the datacenter shape: a spine balancer
  hashes each key to a leaf; each leaf runs its *own*
  :class:`~repro.cluster.balancer.ShardBalancerService` over its local
  shards.  Because the balancer is just an Emu service, the two tiers
  are the same program with different rings — hierarchical consistent
  hashing with no new mechanism.

Every wire is a real :class:`~repro.netsim.link.Link` (latency +
serialization), so round trips include the fabric, not just the
service: a request crosses client→spine→leaf→shard and the reply walks
back the same way.
"""

from repro.cluster.balancer import ShardBalancerService, flow_key
from repro.cluster.health import DEFAULT_PHI_THRESHOLD
from repro.cluster.ring import DEFAULT_VNODES
from repro.errors import ClusterError
from repro.netsim import Network, schedule_health_checks

#: Intra-rack copper vs inter-rack fiber: leaf links are shorter.
SPINE_LINK_NS = 1500
LEAF_LINK_NS = 500
CLIENT_LINK_NS = 2000


class ClusterNetwork:
    """A built cluster: the netsim network plus named handles.

    Shard (and spine—leaf) wires are
    :class:`~repro.netsim.faults.FaultyLink` instances, so any member
    can be partitioned — :meth:`kill_shard` / :meth:`partition` — and
    restored; the balancer's failure detector notices through the
    missing reply heartbeats once :meth:`enable_health_checks` arms the
    probe ticker.
    """

    def __init__(self, net, client, spine, leaves, shards,
                 shard_links=None, leaf_links=None):
        self.net = net
        self.client = client
        self.spine = spine             # ServiceNode running the balancer
        self.leaves = leaves           # [ServiceNode] (empty for star)
        self.shards = shards           # {shard_id: ServiceNode}
        self.shard_links = shard_links or {}   # shard_id -> FaultyLink
        self.leaf_links = leaf_links or {}     # leaf name -> FaultyLink

    @property
    def balancer(self):
        """The spine's balancer service."""
        return self.spine.service

    def balancers(self):
        """Every balancer tier: the spine plus any leaf balancers."""
        return [self.spine.service] + [leaf.service
                                       for leaf in self.leaves]

    # -- fault verbs (the FaultPlan vocabulary) -----------------------------

    def _link_for(self, name):
        link = self.shard_links.get(name) or self.leaf_links.get(name)
        if link is None:
            raise ClusterError("no faultable link for %r" % (name,))
        return link

    def kill_shard(self, shard_id):
        """Crash a shard: its uplink goes dark mid-flight."""
        self._link_for(shard_id).take_down()

    def restore_shard(self, shard_id):
        self.heal(shard_id)

    def partition(self, name):
        """Cut the named shard's or leaf's uplink."""
        self._link_for(name).take_down()

    def heal(self, name):
        """Bring the named uplink back *and* re-admit the member on
        any balancer tier that health-evicted it — an evicted member
        receives no traffic, so it can never heartbeat its own way
        back into the ring."""
        self._link_for(name).bring_up()
        for balancer in self.balancers():
            if name in getattr(balancer, "down", ()):
                balancer.mark_up(name)

    # -- health wiring ------------------------------------------------------

    def enable_health_checks(self, every_ns=20_000, until_ns=1_000_000_000):
        """Arm periodic ``check_health`` ticks on every balancer tier
        (each balancer monitors the shards behind its own ports)."""
        for balancer in self.balancers():
            schedule_health_checks(self.net.loop, balancer, every_ns,
                                   until_ns)

    # -- workload drivers ---------------------------------------------------

    def run_requests(self, frames, max_events=1_000_000):
        """Send *frames* from the client, run to quiescence, and return
        the replies that made it back."""
        for frame in frames:
            self.client.send(frame.copy())
        self.net.run(max_events=max_events)
        return self.client.drain()

    def run_paced(self, frames, gap_ns=1000, max_events=5_000_000):
        """Send one frame every *gap_ns* (so faults land mid-workload
        rather than after an instantaneous burst), run to quiescence,
        and return the replies."""
        for index, frame in enumerate(frames):
            copy = frame.copy()
            self.net.loop.schedule(
                index * gap_ns,
                lambda frame=copy: self.client.send(frame))
        self.net.run(max_events=max_events)
        return self.client.drain()

    def dispatch_counts(self):
        """Requests each shard handled (from the shard nodes)."""
        return {shard_id: node.frames_handled
                for shard_id, node in self.shards.items()}


def _shard_fault_args(shard_faults, fault_seed, index):
    """Per-link FaultyLink kwargs: shared impairments, distinct seed."""
    faults = dict(shard_faults or {})
    faults.setdefault("seed", fault_seed + index)
    return faults


def build_star(service_factory, num_shards=4, key_fn=flow_key,
               vnodes=DEFAULT_VNODES, client_latency_ns=CLIENT_LINK_NS,
               shard_latency_ns=LEAF_LINK_NS,
               bandwidth_bps=10_000_000_000, shard_faults=None,
               fault_seed=101, phi_threshold=DEFAULT_PHI_THRESHOLD):
    """Client — balancer — N shards, one hop each.

    Shard wires are always :class:`~repro.netsim.faults.FaultyLink`
    (impaired per *shard_faults*, ideal by default) so chaos plans can
    kill and restore members.
    """
    if num_shards < 1:
        raise ClusterError("need at least one shard")
    net = Network()
    client = net.add_host("client")
    shard_ids = ["shard%d" % index for index in range(num_shards)]
    balancer = ShardBalancerService(
        {shard_id: 1 + index for index, shard_id in enumerate(shard_ids)},
        uplink_port=0, vnodes=vnodes, key_fn=key_fn,
        phi_threshold=phi_threshold)
    spine = net.add_service("lb", balancer, num_ports=1 + num_shards)
    net.connect(client, 0, spine, 0, latency_ns=client_latency_ns,
                bandwidth_bps=bandwidth_bps)
    shards = {}
    shard_links = {}
    for index, shard_id in enumerate(shard_ids):
        node = net.add_service(shard_id, service_factory(), num_ports=1)
        shard_links[shard_id] = net.connect(
            spine, 1 + index, node, 0, latency_ns=shard_latency_ns,
            bandwidth_bps=bandwidth_bps,
            faults=_shard_fault_args(shard_faults, fault_seed, index))
        shards[shard_id] = node
    return ClusterNetwork(net, client, spine, [], shards,
                          shard_links=shard_links)


def build_leaf_spine(service_factory, num_shards=8, shards_per_leaf=4,
                     key_fn=flow_key, vnodes=DEFAULT_VNODES,
                     client_latency_ns=CLIENT_LINK_NS,
                     spine_latency_ns=SPINE_LINK_NS,
                     leaf_latency_ns=LEAF_LINK_NS,
                     bandwidth_bps=10_000_000_000, shard_faults=None,
                     fault_seed=101,
                     phi_threshold=DEFAULT_PHI_THRESHOLD):
    """Client — spine balancer — leaf balancers — shards."""
    if num_shards < 1:
        raise ClusterError("need at least one shard")
    if shards_per_leaf < 1:
        raise ClusterError("need at least one shard per leaf")
    net = Network()
    client = net.add_host("client")

    shard_ids = ["shard%d" % index for index in range(num_shards)]
    groups = [shard_ids[start:start + shards_per_leaf]
              for start in range(0, num_shards, shards_per_leaf)]

    # Spine: hashes the same flow key, but over leaf labels.
    spine_svc = ShardBalancerService(
        {"leaf%d" % index: 1 + index for index in range(len(groups))},
        uplink_port=0, vnodes=vnodes, key_fn=key_fn,
        phi_threshold=phi_threshold)
    spine = net.add_service("spine", spine_svc,
                            num_ports=1 + len(groups))
    net.connect(client, 0, spine, 0, latency_ns=client_latency_ns,
                bandwidth_bps=bandwidth_bps)

    leaves = []
    shards = {}
    shard_links = {}
    leaf_links = {}
    for leaf_index, group in enumerate(groups):
        leaf_svc = ShardBalancerService(
            {shard_id: 1 + slot for slot, shard_id in enumerate(group)},
            uplink_port=0, vnodes=vnodes, key_fn=key_fn,
            phi_threshold=phi_threshold)
        leaf_name = "leaf%d" % leaf_index
        leaf = net.add_service(leaf_name, leaf_svc,
                               num_ports=1 + len(group))
        leaf_links[leaf_name] = net.connect(
            spine, 1 + leaf_index, leaf, 0, latency_ns=spine_latency_ns,
            bandwidth_bps=bandwidth_bps,
            faults=_shard_fault_args(None, fault_seed + 1000,
                                     leaf_index))
        leaves.append(leaf)
        for slot, shard_id in enumerate(group):
            node = net.add_service(shard_id, service_factory(),
                                   num_ports=1)
            shard_links[shard_id] = net.connect(
                leaf, 1 + slot, node, 0, latency_ns=leaf_latency_ns,
                bandwidth_bps=bandwidth_bps,
                faults=_shard_fault_args(
                    shard_faults, fault_seed,
                    leaf_index * shards_per_leaf + slot))
            shards[shard_id] = node
    return ClusterNetwork(net, client, spine, leaves, shards,
                          shard_links=shard_links, leaf_links=leaf_links)
