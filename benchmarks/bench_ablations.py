"""Ablation benchmarks beyond the paper's tables (the ``ablation-*`` experiments):

- routing metric (common-digits vs prefix vs suffix — the Section 4.2
  distinguishability claim);
- duplicate suppression on/off for static insertion;
- lookup success as a function of the max_flows budget;
- tie-breaking policy sensitivity.
"""


def test_ablation_metric(run_and_print):
    result = run_and_print("ablation-metric")
    success = {row[0]: row[1] for row in result.rows}
    traffic = {row[0]: row[3] for row in result.rows}
    # Section 4.2: prefix/suffix metrics barely distinguish neighbors —
    # nearly every neighbor ties at score 0, so under MPIL's tie-splitting
    # they degenerate into flooding.  The common-digits metric reaches
    # comparable success at a fraction of the traffic.
    assert success["common-digits"] >= success["prefix"] - 15.0
    assert success["common-digits"] >= success["suffix"] - 15.0
    assert traffic["common-digits"] < traffic["prefix"]
    assert traffic["common-digits"] < traffic["suffix"]


def test_ablation_duplicate_suppression(run_and_print):
    result = run_and_print("ablation-ds")
    for family in ("power-law", "random"):
        on = result.filtered(family=family, ds="on")[0]
        off = result.filtered(family=family, ds="off")[0]
        assert off[3] >= on[3]  # DS off can only increase traffic


def test_ablation_flow_budget(run_and_print):
    result = run_and_print("ablation-flows")
    budgets = result.column("max_flows")
    success = result.column("success_%")
    assert budgets == sorted(budgets)
    assert success[-1] >= success[0]  # more flows, no worse success


def test_ablation_tiebreak(run_and_print):
    result = run_and_print("ablation-tiebreak")
    rates = result.column("success_%")
    assert max(rates) - min(rates) <= 25.0  # policy-insensitive
