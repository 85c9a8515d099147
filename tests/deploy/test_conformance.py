"""Backend conformance: same service + same trace => same replies.

The §3.3 claim as a test matrix: every registry service's shard-safe
trace replays through every backend the spec supports, and the reply
signature — (port, bytes) per request, in order — must equal the CPU
target's (software semantics, the ground truth).  Latency differs by
design between backends; replies may not — and on one backend neither
may depend on how the trace is cut into ``send`` / ``send_batch``
calls.  Each cell is a :func:`repro.verify.check` over
:class:`~repro.verify.Deployed` legs.

Seeded per tests/README: the trace seed is fixed per cell by SEED, so
a failing cell reproduces exactly.
"""

import pytest

from repro.deploy.conformance import BACKEND_CASES
from repro.services.catalog import registry
from repro.verify import WHOLE, Deployed, check, job_streams

SEED = 7
COUNT = 24

SPECS = registry()
CPU = BACKEND_CASES[0]


def _matrix_cells():
    cells = []
    for name in sorted(SPECS):
        spec = SPECS[name]
        for case in BACKEND_CASES[1:]:      # cpu is the baseline itself
            if spec.supports(case[1]):
                cells.append(pytest.param(
                    name, case,
                    id="%s-%s" % (name, case[0].replace(" ", ""))))
    return cells


class _Kept(Deployed):
    """A leg that keeps what it observed, for the metrics check."""

    def run(self, frames):
        self.observed = super().run(frames)
        return self.observed


@pytest.mark.parametrize("service,case", _matrix_cells())
def test_replies_match_cpu_baseline(service, case):
    spec = SPECS[service]
    leg = _Kept(case, SEED)
    report = check(spec, [Deployed(CPU, SEED), leg,
                          Deployed(case, SEED, WHOLE),
                          Deployed(case, SEED, (1, 5, 2, 17, 3))],
                   job_streams(spec, COUNT, SEED))
    assert report.ok and report.runs == COUNT, \
        "%s on %s diverged from software semantics (or from itself " \
        "under another cut): %r" % (service, case[0],
                                    report.mismatches[:1])

    # Uniform observability: every backend filled the same counters
    # through the same code path.
    signature = [seen["result"] for seen, _ in leg.observed]
    snapshot = leg.deployment.stats()
    assert snapshot["requests"] == COUNT
    assert snapshot["replies"] == sum(len(per_request)
                                      for per_request in signature)
    assert snapshot["drops"] == sum(1 for per_request in signature
                                    if not per_request)


@pytest.mark.parametrize("service", sorted(SPECS))
def test_metrics_shape_is_consistent(service):
    """Every backend's snapshot has the same keys (empty where a
    backend has nothing to measure, never missing)."""
    spec = SPECS[service]
    legs = [Deployed(case, SEED) for case in BACKEND_CASES
            if spec.supports(case[1])]
    assert check(spec, legs, job_streams(spec, 4, SEED)).ok
    shapes = {frozenset(leg.deployment.metrics.snapshot())
              for leg in legs}
    assert len(shapes) == 1


def test_every_spec_supports_the_ground_truth_backends():
    """cpu (the baseline) and fpga (the paper's target) are
    mandatory; the matrix is meaningless without them."""
    for spec in SPECS.values():
        assert spec.supports("cpu")
        assert spec.supports("fpga")


def test_cluster_trace_is_shard_safe():
    """The nat trace pins one flow (its 5-tuple is the routing key);
    the memcached trace keys GET/SET pairs identically — the property
    the matrix relies on for stateful services."""
    from repro.cluster.balancer import flow_key
    nat_keys = {flow_key(f.data)
                for f in SPECS["nat"].trace(16, SEED)}
    assert len(nat_keys) == 1
