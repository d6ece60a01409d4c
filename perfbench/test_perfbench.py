"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import io
import itertools
import json
import pathlib
import re
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import layer_metrics  # noqa: E402
from probes import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    SEED_POOL,
    SVC_MPIL_SPEC,
    WORKLOADS,
    canonical_digest,
    execution_seeds,
    result_digest,
    sweep_seeds,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- inputs -----------------------------------------------------------------


def test_same_seed_yields_identical_inputs():
    for seed in (0, 3, 9, 12345, -7):
        first = (execution_seeds(seed, 12), sweep_seeds(execution_seeds(seed, 1)[0]))
        again = (execution_seeds(seed, 12), sweep_seeds(execution_seeds(seed, 1)[0]))
        assert first == again
        assert all(0 <= s < SEED_POOL for s in first[0])
    assert execution_seeds(1, 3) != execution_seeds(2, 3)


def test_same_experiment_seed_yields_identical_program_inputs():
    from repro.overlay.power_law import power_law_graph

    seed = execution_seeds(4, 1)[0]
    first = power_law_graph(300, seed=(seed, "power-law", 300, 0))
    again = power_law_graph(300, seed=(seed, "power-law", 300, 0))
    other = power_law_graph(300, seed=(seed + 1, "power-law", 300, 0))
    assert sorted(first.edges()) == sorted(again.edges())
    assert sorted(first.edges()) != sorted(other.edges())


def test_composed_service_spec_is_not_mutated_by_composing():
    from repro import api

    before = copy.deepcopy(SVC_MPIL_SPEC)
    api.compose(SVC_MPIL_SPEC)
    assert SVC_MPIL_SPEC == before


def test_every_pooled_seed_has_a_digest():
    table = json.loads((HERE / "digests.json").read_text())
    for name in WORKLOADS:
        assert sorted(int(seed) for seed in table[name]) == list(range(SEED_POOL))


# -- output check -----------------------------------------------------------


def test_digest_catches_a_perturbed_result():
    from repro import api

    result = api.run("fig9", scale="smoke", seed=1)
    payload = result.to_dict()
    assert canonical_digest(payload) == result_digest(result)
    perturbed = copy.deepcopy(payload)
    row = perturbed["rows"][0]
    index = next(i for i, value in enumerate(row) if isinstance(value, (int, float)))
    row[index] = row[index] + 1
    assert canonical_digest(perturbed) != result_digest(result)


def _fake_record(wall, setup, verified=True, **extra):
    record = {
        "wall_s": wall, "setup_s": setup, "ops": 100, "digest": "d",
        "verified": verified, "peak_rss_mb": 50.0,
    }
    record.update(extra)
    return record


def test_a_digest_mismatch_counts_as_a_failure(monkeypatch):
    records = iter([_fake_record(1.5, 1.0), _fake_record(1.5, 1.0, verified=False)])
    ticks = itertools.count(0.0, 1.0)
    monkeypatch.setattr(run, "run_cold", lambda *args, **kwargs: next(records))
    monkeypatch.setattr(run, "clock", lambda: next(ticks))
    digests = {seed: "d" for seed in range(SEED_POOL)}
    # a third execution would end after 4 s: the run stops after two
    metrics, attempted, failed = run.untraced_run(ROOT, "static-cold", 0, 4.0, digests)
    assert (attempted, failed) == (2, 1)
    assert metrics["success_frac"] == 0.5


def test_a_run_whose_executions_all_crash_still_reports(monkeypatch):
    ticks = itertools.count(0.0, 1.0)
    monkeypatch.setattr(run, "run_cold", lambda *args, **kwargs: None)
    monkeypatch.setattr(run, "clock", lambda: next(ticks))
    digests = {seed: "d" for seed in range(SEED_POOL)}
    # each crash takes 1 s: a crash does not end the run, the deadline does
    metrics, attempted, failed = run.untraced_run(ROOT, "static-cold", 0, 4.0, digests)
    assert (attempted, failed) == (2, 2)
    assert metrics == {"success_frac": 0.0}


# -- self time --------------------------------------------------------------


def test_self_time_on_nested_and_overlapping_spans():
    # root [0,10] has children A [1,4] and B [3,6] (overlapping) and
    # C [8,12] (running past root's end); A has a child D [2,3]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    assert list(self_times(starts, ends, parents)) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_time_ignores_empty_and_identical_children():
    starts = [0.0, 2.0, 2.0, 5.0]
    ends = [10.0, 4.0, 4.0, 5.0]
    parents = [-1, 0, 0, 0]
    assert list(self_times(starts, ends, parents)) == pytest.approx([8.0, 2.0, 2.0, 0.0])


def test_tracer_spans_nesting_and_hot_cover():
    tracer = Tracer(stride=1)
    ticks = iter(range(100))

    def tick() -> float:
        return float(next(ticks))

    import probes

    original_clock = probes.clock
    probes.clock = tick
    try:
        def leaf(x):
            return x

        hot_leaf = tracer.hot("p.point", "perturbation", leaf)

        def inner(x):
            return hot_leaf(x)

        inner_span = tracer.span("layer.inner", "layer", inner)

        def outer(x):
            return inner_span(x) + inner_span(x)

        outer_span = tracer.span("layer.outer", "layer", outer)
        recursive = tracer.span("layer.outer", "layer", lambda x: outer_span(x))
        assert recursive(1) == 2
    finally:
        probes.clock = original_clock
    assert tracer.spans("layer.outer") == 1  # the recursive call is nested
    assert tracer.spans("layer.inner") == 2
    assert tracer.counted("p.point") == 2
    rows = {row["probe"]: row for row in tracer.probe_report(wall_s=20.0)}
    # each inner span lasts 3 ticks, of which the timed hot call covers 1
    assert rows["layer.inner"]["self_s"] == pytest.approx(2 * (3 - 1))
    assert rows["p.point"]["self_s"] == pytest.approx(2.0)
    total = sum(row["self_s"] for row in rows.values())
    assert total == pytest.approx(tracer.total("layer.outer"))


# -- names ------------------------------------------------------------------


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def _main_output(monkeypatch, trace, records):
    ticks = itertools.count(0.0, 1.0)
    monkeypatch.setattr(run, "run_cold", lambda *args, **kwargs: next(records))
    monkeypatch.setattr(run, "clock", lambda: next(ticks))
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(
            ["--workload", "svc-mpil", "--seed", "0", "--seconds", "1", "--trace", str(trace)]
        ) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_command_emits_every_end_to_end_metric(monkeypatch):
    records = iter([_fake_record(3.0, 1.0)])
    result = _main_output(monkeypatch, 0, records)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_command_emits_every_per_layer_metric(monkeypatch):
    layers = layer_metrics(Tracer(), {}, 0.5)
    probes_rows = Tracer().probe_report(1.0)
    records = iter([
        _fake_record(3.0, 1.0),
        _fake_record(4.0, 1.0, layers=layers, probes=probes_rows),
    ])
    result = _main_output(monkeypatch, 1, records)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["bench.trace_overhead_s"]["value"] == pytest.approx(1.0)


def test_traced_execution_reproduces_the_untraced_digest():
    table = json.loads((HERE / "digests.json").read_text())
    command = [sys.executable, str(HERE / "cold.py"), "static-cold", "0", "trace", "0.0",
               table["static-cold"]["0"]]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert record["verified"]
    assert record["layers"]["overlay.graphs"] == 12
    assert record["layers"]["pastry.view_queries"] == 0
