"""The per-layer counts are counts: two passes agree exactly."""

from bench import layers
from bench.workloads import WORKLOADS


def test_opcode_ledger_repeats_exactly_and_names_every_layer():
    workload = WORKLOADS["mc_bin_hot"]
    stream = workload.stream(5, slices=1)
    first, attempted, failed = layers.opcode_ledger(workload, stream,
                                                    count=64)
    second, _, _ = layers.opcode_ledger(workload, stream, count=64)
    assert (attempted, failed) == (128, 0)
    assert first == second
    assert set(first) == {"ops.%s_per_req" % layer
                          for layer in layers.LAYERS + ("other", "total")}
    parts = sum(value for name, value in first.items()
                if name != "ops.total_per_req")
    assert parts == first["ops.total_per_req"] > 0
    assert first["ops.cluster_per_req"] == 0      # no cluster on fpga
    assert first["ops.core_per_req"] > 0


def test_spans_nest_and_self_times_add_up():
    workload = WORKLOADS["dns_tcp_cluster"]
    stream = workload.stream(5, slices=1)
    metrics, spans, attempted, failed = layers.traced_replay(
        workload, stream, count=64)
    assert (attempted, failed) == (128, 0)
    rows = spans.rows
    roots = [row for row in rows if row[4] is None]
    assert len(roots) == 2 and all(row[0] == "replay.batch"
                                   for row in roots)
    for name, _, start, end, parent, batch in rows:
        assert end >= start and batch in (0, 1)
        if parent is not None:
            assert rows[parent][2] <= start and end <= rows[parent][3]
    own = spans.self_ns_by_layer()
    assert sum(own.values()) == sum(row[3] - row[2] for row in roots)
    assert metrics["span.engine_self_us_per_req"] == 0   # behavioural DNS
    assert metrics["span.targets_self_us_per_req"] > 0
