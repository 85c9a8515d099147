"""Multiple Emu cores, one per port (§5.4).

"Using four Emu cores (one per port) further increases [Memcached
throughput] by 3.7x ... SET requests must be applied to all instances,
thus their relative ratio in performance cannot improve.  The downside
is that such an approach requires changes to the main logical core
wrapper in NetFPGA SUME."

The wrapper change is modelled here: each port gets its own service
instance; read-type requests are served by the arrival port's core
alone, while write-type requests are replicated into every core.
"""

from repro.errors import TargetError
from repro.targets.fpga import FpgaTarget, line_rate_pps


class MultiCoreTarget:
    """N independent cores behind N ports, with write replication."""

    #: Applying a replicated write on a non-arrival core skips request
    #: parsing and response generation: only the store update runs.
    REPLICA_APPLY_FRACTION = 0.25

    def __init__(self, service_factory, num_cores=4, seed=1,
                 is_write=None, opt_level=None, level_budget=None):
        if num_cores < 1:
            raise TargetError("need at least one core")
        self.cores = [FpgaTarget(service_factory(), num_ports=1,
                                 seed=seed + index, opt_level=opt_level,
                                 level_budget=level_budget)
                      for index in range(num_cores)]
        self.num_cores = num_cores
        self._is_write = is_write or (lambda frame: False)

    def serving_core(self, frame, port=None):
        """Which core a frame occupies (its arrival port's).  The
        deploy backend and the open-loop load layer route with this,
        so the wrapper's port→core mapping lives in exactly one
        place."""
        port = frame.src_port if port is None else port
        return port % self.num_cores

    def send(self, frame, port=None):
        """Route one request; writes are replicated to every core.
        The outcome is the serving core's: replica applies are
        background work, not a cost of the request."""
        core_index = self.serving_core(frame, port)
        if self._is_write(frame):
            results = []
            for core in self.cores:
                replica = frame.copy()
                replica.src_port = 0
                results.append(core.send(replica))
            return results[core_index]
        local = frame.copy()
        local.src_port = 0
        return self.cores[core_index].send(local)

    def max_qps(self, read_frame, write_frame, write_ratio):
        """Aggregate throughput for a read/write mix.

        Reads scale with the number of cores; writes are replicated so
        every core spends (reduced) time on every write — the \u00a75.4
        asymmetry that caps the 4-core speedup at ~3.7x.
        """
        read_core_qps = self.cores[0].max_qps(read_frame.copy())
        write_core_qps = self.cores[0].max_qps(write_frame.copy())
        # Per-core budget at aggregate rate R: each core fully handles
        # its 1/N share of reads and writes, plus cheap replica applies
        # of the other cores' writes:
        #   R/N * [ (1-w)/G + w/W + w*(N-1)*beta/W ] = 1
        n = self.num_cores
        beta = self.REPLICA_APPLY_FRACTION
        per_core = ((1.0 - write_ratio) / read_core_qps +
                    write_ratio * (1.0 + beta * (n - 1)) / write_core_qps)
        aggregate = n / per_core
        line = n * line_rate_pps(len(read_frame.data))
        return min(aggregate, line)
