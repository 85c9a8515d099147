"""Backend conformance: the same trace must get the same replies.

The matrix columns (:data:`BACKEND_CASES`) and its renderer.  The
comparison itself is :func:`repro.verify.check` with one
:class:`~repro.verify.Deployed` leg per column: each registered
service's shard-safe trace replays through every backend the spec
supports, and every request's reply signature — which ports, which
bytes, in which order — must equal the CPU target's (software
semantics, the ground truth per §3.3).

``tests/deploy/test_conformance.py`` asserts each cell;
``python -m repro.deploy --matrix`` prints :func:`run_matrix`'s table.
"""

from repro.harness.report import render_table
from repro.services.catalog import registry
from repro.verify import Deployed, check, job_streams

#: (label, backend name, builder-configuration kwargs, opt level);
#: the cpu column comes first — it is the reference leg.
BACKEND_CASES = [
    ("cpu", "cpu", {}, None),
    ("fpga -O0", "fpga", {}, 0),
    ("fpga -O2", "fpga", {}, 2),
    ("multicore x4", "multicore", {"cores": 4}, None),
    ("cluster x4", "cluster", {"shards": 4}, None),
    ("netsim", "netsim", {}, None),
]


def run_matrix(count=32, seed=7, services=None):
    """Run every (service × backend) cell; returns ``(results, text)``.

    ``results[service][label]`` is ``"ok"``, ``"skip"`` (spec does not
    support the backend) or the first :class:`~repro.verify.Mismatch`
    of that column against the cpu one — it names the request.
    """
    specs = registry()
    names = sorted(specs) if services is None else list(services)
    labels = [case[0] for case in BACKEND_CASES]
    results = {}
    for name in names:
        spec = specs[name]
        report = check(spec, [Deployed(case, seed) for case in BACKEND_CASES
                              if spec.supports(case[1])],
                       job_streams(spec, count, seed))
        row = results[name] = {
            label: "ok" if label in report.legs else "skip"
            for label in labels}
        for mismatch in reversed(report.mismatches):
            row[mismatch.leg] = mismatch
    rows = [[name] + [cell if isinstance(cell, str) else "MISMATCH"
                      for cell in results[name].values()]
            for name in names]
    text = render_table(
        ["Service"] + labels, rows,
        title="Backend conformance: replies vs the CPU target "
              "(%d requests, seed %d)" % (count, seed))
    return results, text
