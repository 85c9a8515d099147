"""``ClusterTarget``: N sharded Emu devices behind one `send()`.

Where :class:`~repro.targets.multicore.MultiCoreTarget` scales *up*
(one device, one core per port), this target scales *out*: every shard
is a full :class:`~repro.targets.fpga.FpgaTarget` (its own device), a
consistent-hash ring routes each request to the shard owning its key,
and a :class:`~repro.cluster.replication.ReplicationPolicy` decides
where writes are additionally applied.

The API matches the existing targets — ``send(frame)`` returns the
request's outcome and ``max_qps`` gives sustainable throughput
— plus ``send_batch(frames)``, which routes each frame once and hands
each owning shard its group as one burst (``send_to``, which a caller
that has already routed the frames calls directly).
"""

from repro.cluster.balancer import flow_key
from repro.cluster.health import MissCountDetector
from repro.cluster.replication import NoReplication
from repro.cluster.ring import DEFAULT_VNODES, HashRing, max_over_mean
from repro.errors import ClusterError
from repro.targets.fpga import FpgaTarget, line_rate_pps

#: Client-side timeout charged per request attempt that a crashed
#: shard never answered — the probe interval of the failure detector.
REQUEST_TIMEOUT_NS = 50_000.0


class ClusterTarget:
    """N sharded service instances behind a consistent-hash ring."""

    def __init__(self, service_factory, num_shards=8, policy=None,
                 is_write=None, key_fn=flow_key, vnodes=DEFAULT_VNODES,
                 seed=1, suspect_after=3, opt_level=None,
                 level_budget=None):
        if num_shards < 1:
            raise ClusterError("need at least one shard")
        self._factory = service_factory
        self._seed = seed
        self.opt_level = opt_level
        self.level_budget = level_budget
        self.policy = policy if policy is not None else NoReplication()
        self.key_fn = key_fn
        self._is_write = is_write or (lambda frame: False)
        self.shards = {}               # shard_id -> FpgaTarget
        self.ring = HashRing(vnodes=vnodes)
        self._next_shard = 0
        self._shard_order = []         # sorted ids + index, cached for
        self._shard_index = {}         # the per-write replica planner
        # Failure handling.
        self.suspect_after = suspect_after
        self._down = set()             # crashed, not yet evicted
        self.failed_shards = {}        # shard_id -> evicted FpgaTarget
        self.detectors = {}            # shard_id -> MissCountDetector
        # Stats.
        self.requests = 0
        self.writes = 0
        self.replica_applies = 0
        self.batches = 0
        self.shard_loads = {}
        self.failed_requests = 0       # attempts a dead shard ate
        self.failovers = 0
        self.rejoins = 0
        self.handoff_replays = 0       # queued writes promoted on evict
        self._pending = []             # queued async replica applies
        #: Optional ``callable(label, args=None)`` — the observability
        #: layer's instant-event hook (``TraceRecorder.hook()``); this
        #: module stays ignorant of the tracing package.
        self.event_hook = None
        for _ in range(num_shards):
            self.add_shard()

    # -- membership ---------------------------------------------------------

    @property
    def num_shards(self):
        return len(self.shards)

    @property
    def shard_ids(self):
        """Shard ids in ring order (a copy; the index open-loop queues
        and replica placement use)."""
        return list(self._shard_order)

    @property
    def live_shards(self):
        """Shard ids answering requests (in the ring and not crashed)."""
        return [shard_id for shard_id in self.ring.shards
                if shard_id not in self._down]

    def add_shard(self):
        """Bring up a new shard device and join it to the ring."""
        shard_number = self._next_shard
        self._next_shard += 1
        shard_id = "shard%d" % shard_number
        # Seed by the never-reused shard number, so a shard added after
        # a removal does not duplicate a live shard's jitter stream.
        self.shards[shard_id] = FpgaTarget(
            self._factory(), num_ports=1,
            seed=self._seed + shard_number, opt_level=self.opt_level,
            level_budget=self.level_budget)
        self.ring.add_shard(shard_id)
        self.shard_loads[shard_id] = 0
        self.detectors[shard_id] = MissCountDetector(self.suspect_after)
        self._reindex()
        return shard_id

    def _reindex(self):
        self._shard_order = self.ring.shards
        self._shard_index = {shard_id: index for index, shard_id
                             in enumerate(self._shard_order)}

    def remove_shard(self, shard_id, sample_keys=None):
        """Drain a shard: rehome its stored entries, leave the ring.

        Entries are migrated by re-applying them to their new ring
        owners through the service's store API (duck-typed:
        ``_store``/``store_set``, the memcached/kvcache shape); services
        without that shape just lose the shard's soft state, like a
        cache node going away.  Returns
        :class:`~repro.cluster.ring.RemapStats` over *sample_keys*
        (default: every key stored anywhere in the cluster, so the
        fraction reflects the whole key population, not just the
        departing shard's).
        """
        if shard_id not in self.shards:
            raise ClusterError("no shard %r" % (shard_id,))
        if shard_id in self._down:
            raise ClusterError("shard %r has crashed; evict_shard() "
                               "fails it over instead" % (shard_id,))
        if len(self.shards) == 1:
            raise ClusterError("cannot remove the last shard")
        if sample_keys is None:
            sample_keys = self._stored_keys()
        before = self.ring
        departing = self.shards.pop(shard_id)
        self.ring = HashRing(before.shards, vnodes=before.vnodes)
        self.ring.remove_shard(shard_id)
        self.shard_loads.pop(shard_id, None)
        self._reindex()

        store = getattr(departing.service, "_store", None)
        if store:
            self._rehome_entries(store, before, shard_id)

        return before.remap_stats(self.ring, sample_keys) \
            if sample_keys else None

    def _stored_keys(self):
        """Every key stored on any live shard (the default remap
        sample, so fractions reflect the whole key population)."""
        return [key for shard in self.shards.values()
                for key in getattr(shard.service, "_store", ())]

    def _rehome_entries(self, store, before, departed_id):
        """Re-apply *store*'s entries that ring *before* assigned to
        *departed_id* onto their new ring owners (duck-typed through
        the ``store_set`` shape); returns how many moved."""
        moved = 0
        for key, entry in list(store.items()):
            if before.lookup(key) != departed_id:
                continue     # a replica copy; the owner's is fresher
            owner = self.ring.lookup(key)
            service = self.shards[owner].service
            if hasattr(service, "store_set"):
                value, flags = entry if isinstance(entry, tuple) \
                    else (entry, 0)
                service.store_set(key, value, flags)
                moved += 1
        return moved

    # -- failure handling ---------------------------------------------------

    def kill_shard(self, shard_id):
        """Crash a shard: it stops answering but stays in the ring
        until the failure detector evicts it (no graceful drain — the
        difference between this and :meth:`remove_shard` is the whole
        point of the fault model)."""
        if shard_id not in self.shards:
            raise ClusterError("no shard %r" % (shard_id,))
        if len(self.shards) - len(self._down) <= 1:
            raise ClusterError("cannot kill the last live shard")
        self._down.add(shard_id)
        if self.event_hook is not None:
            self.event_hook("kill:%s" % shard_id,
                            {"shard": shard_id})

    def evict_shard(self, shard_id):
        """Fail a crashed shard out of the ring (failover).

        Three steps, in order:

        1. the ring drops the shard, so its keys fall to their
           clockwise successors;
        2. queued (hinted) replica writes are replayed: any write whose
           primary was the dead shard exists only in the queue, so it
           is promoted onto the key's new ring owner — this is what
           makes "no acknowledged write lost" hold under
           :class:`~repro.cluster.replication.PrimaryReplica`;
        3. replica copies already applied on survivors are re-homed to
           the new ring owners, so post-failover reads hit.
        """
        if shard_id not in self.shards:
            raise ClusterError("no shard %r" % (shard_id,))
        if len(self.shards) == 1:
            raise ClusterError("cannot evict the last shard")
        before = self.ring
        self.failed_shards[shard_id] = self.shards.pop(shard_id)
        self._down.discard(shard_id)
        self.ring = HashRing(before.shards, vnodes=before.vnodes)
        self.ring.remove_shard(shard_id)
        self.shard_loads.pop(shard_id, None)
        self._reindex()

        # Hinted handoff: a queued write whose primary just died is the
        # only surviving copy of an acknowledged write — promote it to
        # the key's new ring owner now.  Hints owed *to* the dead shard
        # need no work here: they resolve to the live successor at
        # flush time.
        pending, self._pending = self._pending, []
        for owner_id, offset, frame in pending:
            if owner_id == shard_id:
                key = self.key_fn(frame.data)
                if key is not None:
                    self._apply_one(self.ring.lookup(key), frame)
                    self.handoff_replays += 1
            else:
                self._pending.append((owner_id, offset, frame))

        # Promote replica copies that were already applied: entries the
        # dead shard owned live on its replicas; re-home them.
        for survivor in list(self.shards.values()):
            store = getattr(survivor.service, "_store", None)
            if store:
                self._rehome_entries(store, before, shard_id)
        self.failovers += 1
        if self.event_hook is not None:
            self.event_hook("evict:%s" % shard_id,
                            {"shard": shard_id,
                             "replays": self.handoff_replays})

    def restore_shard(self, shard_id, sample_keys=None):
        """Rejoin a crashed shard after repair.

        A crash loses soft state, so the shard comes back empty and is
        warmed with the keys the new ring assigns it *before* traffic
        shifts — no acknowledged write is lost and only ~1/N of keys
        remap (the bounded-rejoin guarantee).  Stale copies left on the
        previous owners are shadowed by the ring, not deleted — cache
        semantics.  Returns :class:`~repro.cluster.ring.RemapStats`
        over *sample_keys* (default: every stored key), or ``None`` for
        a shard that was killed but never evicted.
        """
        if shard_id in self._down:
            # Killed but the detector never fired: it simply answers
            # again (its store never went anywhere).
            self._down.discard(shard_id)
            self.detectors[shard_id].reset()
            return None
        if shard_id not in self.failed_shards:
            raise ClusterError("shard %r is not failed" % (shard_id,))
        target = self.failed_shards.pop(shard_id)
        target.service.reset()
        if sample_keys is None:
            sample_keys = self._stored_keys()
        before = self.ring
        self.ring = HashRing(before.shards, vnodes=before.vnodes)
        self.ring.add_shard(shard_id)
        self.shards[shard_id] = target
        self.shard_loads[shard_id] = 0
        self.detectors[shard_id].reset()
        self._reindex()

        # Warm the rejoining shard with the keys it now owns, pulled
        # from their pre-rejoin owners.
        service = target.service
        if hasattr(service, "store_set"):
            for owner_id, node in self.shards.items():
                if owner_id == shard_id:
                    continue
                store = getattr(node.service, "_store", None)
                if not store:
                    continue
                for key, entry in list(store.items()):
                    if self.ring.lookup(key) != shard_id:
                        continue
                    value, flags = entry if isinstance(entry, tuple) \
                        else (entry, 0)
                    service.store_set(key, value, flags)
        self.rejoins += 1
        if self.event_hook is not None:
            self.event_hook("rejoin:%s" % shard_id,
                            {"shard": shard_id})
        return before.remap_stats(self.ring, sample_keys) \
            if sample_keys else None

    # -- dispatch -----------------------------------------------------------

    def owner_of(self, frame):
        """The shard id the ring routes *frame* to (``None`` when the
        frame has no routable key).  Public so the deploy backend and
        the open-loop load layer share the exact routing the cluster
        uses, rather than re-deriving it."""
        key = self.key_fn(frame.data)
        if key is None:
            return None
        return self.ring.lookup(key)

    def _owner(self, frame):
        owner = self.owner_of(frame)
        if owner is None:
            raise ClusterError("frame has no routable key")
        return owner

    def _apply_replicas(self, frame, owner_id):
        shard_ids = self._shard_order
        owner_index = self._shard_index[owner_id]
        replicas = self.policy.replica_indices(owner_index,
                                               len(shard_ids))
        for index in replicas:
            if self.policy.synchronous_apply:
                self._apply_one(shard_ids[index], frame)
            else:
                # Queue a *hint* — (owner, replica offset), resolved to
                # a concrete shard only at flush time, so membership
                # changes between enqueue and flush retarget the apply
                # instead of orphaning it.
                offset = (index - owner_index) % len(shard_ids)
                self._pending.append((owner_id, offset, frame.copy()))

    def _apply_one(self, shard_id, frame):
        """Replica apply: store update only, no latency recording."""
        replica = frame.copy()
        replica.src_port = 0
        self.shards[shard_id].service.process(replica)
        self.replica_applies += 1
        if self.event_hook is not None:
            self.event_hook("replica-apply:%s" % shard_id,
                            {"shard": shard_id})

    def send(self, frame):
        """Route one request to its shard; returns the shard's outcome
        (see :mod:`repro.deploy.backends`).

        A request routed to a crashed shard times out — ``([], None,
        None, REQUEST_TIMEOUT_NS)``, never acknowledged — and feeds that
        shard's failure detector; when the detector trips, the shard is
        failed over (:meth:`evict_shard`) so subsequent requests for
        its keys reach the promoted owner.
        """
        owner = self._owner(frame)
        if owner in self._down:
            return self._send_timed_out(frame, owner)
        return self.send_to(owner, [frame])[0]

    def _send_timed_out(self, frame, owner):
        """A request hit a crashed shard: count the timeout, feed the
        detector, and fail over once the miss streak trips it.  No core
        ran, and the client burns its full timeout on the dead shard's
        queue — so an open-loop trace shows the 50 us tail span it is,
        not an instant failure."""
        self.requests += 1
        self.failed_requests += 1
        if self.event_hook is not None:
            self.event_hook("timeout:%s" % owner,
                            {"shard": owner,
                             "misses": self.detectors[owner].misses + 1})
        if self.detectors[owner].record_miss():
            self.evict_shard(owner)
        return [], None, None, REQUEST_TIMEOUT_NS

    def send_batch(self, frames):
        """Dispatch a frame list: route each frame once, then run each
        shard's group through :meth:`send_to`.  Results come back in
        input order and are identical to sequential ``send()`` — a
        key's reads and writes land in one shard's group, so their
        relative order (the only order replies depend on) is
        preserved.
        """
        frames = list(frames)
        by_shard = {}
        for position, frame in enumerate(frames):
            by_shard.setdefault(self._owner(frame), []).append(position)
        results = [None] * len(frames)
        for owner, positions in by_shard.items():
            outcomes = self.send_to(owner, [frames[position]
                                            for position in positions])
            for position, outcome in zip(positions, outcomes):
                results[position] = outcome
        self.batches += 1
        return results

    def send_to(self, owner, frames):
        """Run *frames*, every one routed to shard *owner*, in order;
        one outcome each.  The shard takes the group as one burst, and
        its target, detector and counters are resolved once."""
        if owner in self._down or owner not in self.shards:
            # Fault path: per-frame dispatch, so the failure detector
            # sees the same miss sequence as sequential send() and
            # re-routes the rest after failover.  (Consistent hashing
            # keeps every *other* group's owner valid: eviction only
            # moves the dead shard's keys.)
            return [self.send(frame) for frame in frames]
        burst = [frame.copy() for frame in frames]
        for local in burst:
            local.src_port = 0
        results = self.shards[owner].send_batch(burst)
        detector = self.detectors[owner]
        writes = []
        for frame in frames:
            detector.record_ok()
            if self._is_write(frame):
                writes.append(frame)
        self.requests += len(frames)
        self.shard_loads[owner] += len(frames)
        self.writes += len(writes)
        for frame in writes:
            self._apply_replicas(frame, owner)
        return results

    def flush_replication(self):
        """Apply queued async replica writes; returns how many ran.

        Each queued hint is resolved against the *current* shard order:
        a replica slot whose shard has since died lands on the live
        successor, and a hint whose owner has left the cluster is
        dropped (its data was promoted during the eviction or migrated
        by the graceful drain).
        """
        pending, self._pending = self._pending, []
        order = self._shard_order
        applied = 0
        for owner_id, offset, frame in pending:
            owner_index = self._shard_index.get(owner_id)
            if owner_index is None:
                continue
            replica_id = order[(owner_index + offset) % len(order)]
            if replica_id != owner_id:         # cluster may have shrunk
                self._apply_one(replica_id, frame)
                applied += 1
        return applied

    @property
    def pending_replication(self):
        return len(self._pending)

    # -- statistics ---------------------------------------------------------

    def load_imbalance(self):
        """Max/mean requests routed per shard (1.0 = perfectly even)."""
        return max_over_mean(self.shard_loads.values())

    # -- throughput model ---------------------------------------------------

    def max_qps(self, read_frame, write_frame, write_ratio,
                imbalance=None):
        """Aggregate throughput for a read/write mix.

        The hottest shard saturates first, so the per-shard budget is
        scaled by the ring's load *imbalance* (measured from routed
        traffic unless given).  At aggregate rate R each shard handles
        its (imbalanced) share of full requests plus its share of the
        policy's replica applies — the §5.4 write-replication asymmetry
        generalized to N shards:

            R·L/N · [(1-w)/G + w/W] + R·w·a/N · β/W = 1

        with G/W the single-shard read/write rates, a the policy's
        replica applies per write, β the replica-apply cost fraction.
        """
        if imbalance is None:
            imbalance = self.load_imbalance()
        any_shard = next(iter(self.shards.values()))
        read_qps = any_shard.max_qps(read_frame.copy())
        write_qps = any_shard.max_qps(write_frame.copy())
        n = len(self.shards)
        applies = self.policy.replicas_per_write(n)
        beta = self.policy.REPLICA_APPLY_FRACTION
        per_shard = (imbalance / n) * ((1.0 - write_ratio) / read_qps +
                                       write_ratio / write_qps) + \
            (write_ratio * applies / n) * beta / write_qps
        aggregate = 1.0 / per_shard
        line = n * line_rate_pps(len(read_frame.data))
        return min(aggregate, line)
