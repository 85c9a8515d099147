"""``repro.deploy`` — one deployment API over every backend.

The paper's core claim is "one service codebase, heterogeneous
targets" (§3.3).  This package is that claim as an API: a service
described once (:class:`~repro.deploy.spec.ServiceSpec`, one per
entry in :func:`repro.services.registry`, defined in
:mod:`repro.services.catalog`) deploys onto any registered backend
through one fluent builder::

    from repro.deploy import deploy

    dep = deploy("memcached").on("cluster", shards=8) \\
                             .with_opt(2).with_seed(7).start()
    replies = dep.send_batch(frames)
    print(dep.metrics.snapshot())
    print(dep.describe())

Backends (``cpu``, ``fpga``, ``multicore``, ``cluster``, ``netsim``)
are adapters over the existing target layers — registered by name, so
new substrates, services, and chaos scripts compose without touching
call sites.  Every deployment gets the same
:class:`~repro.deploy.metrics.Metrics` for free, and the
backend-conformance suite (:mod:`repro.deploy.conformance`) proves
the replies are identical everywhere.

Try it: ``python -m repro.deploy --service memcached --backend fpga
--opt 2 --requests 1000``.
"""

from repro.deploy.backends import BACKENDS, Backend, resolve_backend
from repro.deploy.builder import Deployment, DeploymentConfig, deploy
from repro.deploy.metrics import Metrics
from repro.deploy.spec import ALL_BACKENDS, ProtocolClient, ServiceSpec

__all__ = [
    "ALL_BACKENDS", "BACKENDS", "Backend", "Deployment",
    "DeploymentConfig", "Metrics", "ProtocolClient", "ServiceSpec",
    "deploy", "resolve_backend",
]
