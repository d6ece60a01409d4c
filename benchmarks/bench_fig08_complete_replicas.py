"""Benchmark regenerating Figure 8: expected replicas on complete
topologies.  The base-4 series is the one matching the paper's 1.55-1.63
plot."""


def test_fig8_expected_replicas_complete(run_and_print):
    result = run_and_print("fig8")
    base4 = [row for row in result.rows if row[0].startswith("base-4")]
    values = [row[2] for row in sorted(base4, key=lambda r: r[1])]
    assert values == sorted(values)  # slowly increasing in N
    assert all(1.4 < v < 1.7 for v in values)
