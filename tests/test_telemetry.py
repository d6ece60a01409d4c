"""Tests for repro.telemetry: spans, the metrics registry, sinks, and the
determinism contract (tracing on/off byte-identity, jobs-independent
telemetry blobs, lint-clean modules)."""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import sqlite3

import pytest

from repro import api
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.cli import main
from repro.experiments.ledger import TaskLedger
from repro.experiments.registry import run_experiment
from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.store import ResultStore
from repro.lint import LintConfig, lint_paths, load_config
from repro.sim.engine import (
    add_events_processed,
    events_processed_total,
    reset_events_processed,
)
from repro.telemetry import (
    MetricsRegistry,
    SpanRecorder,
    Telemetry,
    current,
    runtime_registry,
    use,
)
from repro.telemetry.progress import ProgressMeter, format_rate, service_window_line
from repro.telemetry.sinks import read_jsonl, render_hop_tree, write_jsonl
from repro.telemetry.spans import Span

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def result_digest(result) -> str:
    """The artifact-byte digest the determinism gates compare."""
    return hashlib.sha256(
        json.dumps(result.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def spans_digest(recorder: SpanRecorder) -> str:
    buffer = io.StringIO()
    write_jsonl(recorder, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(2)
        registry.gauge("depth").set(7)
        registry.histogram("hops").observe(3)
        registry.histogram("hops").observe(40)
        snapshot = registry.snapshot()
        assert snapshot["requests"] == 3
        assert snapshot["depth"] == 7
        assert snapshot["hops"]["count"] == 2
        assert snapshot["hops"]["sum"] == 43
        assert sum(snapshot["hops"]["buckets"]) == 2

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        registry.inc("messages", kind="lookup", scale="smoke")
        registry.inc("messages", scale="smoke", kind="lookup")
        assert len(registry) == 1
        snapshot = registry.snapshot()
        assert snapshot["messages{kind=lookup,scale=smoke}"] == 2

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.inc("zeta")
        registry.inc("alpha")
        registry.gauge("mid").set(1)
        assert list(registry.snapshot()) == sorted(registry.snapshot())

    def test_reset_zeroes_in_place_keeping_handles_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0
        counter.inc()  # the cached handle must still feed the registry
        assert registry.snapshot()["events"] == 1

    def test_series_filtering(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b", variant="x").set(2)
        gauges = registry.series(kind="gauge")
        assert [g.name for g in gauges] == ["b"]
        assert dict(gauges[0].labels) == {"variant": "x"}
        assert [s.name for s in registry.series(name="a")] == ["a"]

    def test_histogram_bounds_must_ascend(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", bounds=(5.0, 1.0))

    def test_inc_convenience_matches_counter(self):
        registry = MetricsRegistry()
        registry.inc("n", 4, kind="x")
        assert registry.counter("n", kind="x").value == 4


class TestEngineCounterShims:
    def test_events_counter_backed_by_runtime_registry(self):
        before = events_processed_total()
        add_events_processed(11)
        assert events_processed_total() == before + 11
        assert (
            runtime_registry().counter("sim_events_processed_total").value
            == events_processed_total()
        )

    def test_reset_returns_previous_total(self):
        add_events_processed(3)
        previous = events_processed_total()
        assert reset_events_processed() == previous
        assert events_processed_total() == 0


class TestSpanRecorder:
    def test_ids_allocated_even_when_dropped(self):
        recorder = SpanRecorder(max_spans=2)
        trace = recorder.begin_trace("lookup")
        ids = [recorder.emit(trace, "send", node=i) for i in range(4)]
        assert ids == [0, 1, 2, 3]  # cap-independent ids
        assert len(recorder) == 2
        assert recorder.dropped == 2
        assert "2 dropped" in str(recorder)

    def test_clear_resets_drop_count(self):
        recorder = SpanRecorder(max_spans=1)
        trace = recorder.begin_trace("lookup")
        recorder.emit(trace, "send", node=0)
        recorder.emit(trace, "send", node=1)
        recorder.clear()
        assert recorder.dropped == 0
        assert str(recorder) == "SpanRecorder(0 spans)"

    def test_unbounded_never_drops(self):
        recorder = SpanRecorder(max_spans=None)
        trace = recorder.begin_trace("lookup")
        for i in range(10):
            recorder.emit(trace, "send", node=i)
        assert recorder.dropped == 0
        assert str(recorder) == "SpanRecorder(10 spans)"

    def test_trace_ids_monotonic_and_first_seen(self):
        recorder = SpanRecorder()
        first = recorder.begin_trace("insert")
        second = recorder.begin_trace("lookup")
        recorder.emit(second, "send")
        recorder.emit(first, "send")
        assert first == "000000:insert" and second == "000001:lookup"
        assert recorder.trace_ids() == [second, first]

    def test_filters(self):
        recorder = SpanRecorder()
        trace = recorder.begin_trace("lookup")
        recorder.emit(trace, "send", node=1)
        recorder.emit(trace, "reply", node=2)
        assert [s.name for s in recorder.spans(node=2)] == ["reply"]
        assert [s.node for s in recorder.spans(name="send")] == [1]

    def test_attrs_sorted_for_identity(self):
        recorder = SpanRecorder()
        trace = recorder.begin_trace("lookup")
        recorder.emit(trace, "send", b=2, a=1)
        (span,) = recorder.spans()
        assert span.attrs == (("a", 1), ("b", 2))


class TestSinks:
    def _sample(self) -> list[Span]:
        recorder = SpanRecorder()
        trace = recorder.begin_trace("lookup")
        root = recorder.emit(trace, "lookup", node=0, start=0.0)
        send = recorder.emit(trace, "send", node=0, start=0.0, end=1.0,
                             parent_id=root, to=5)
        recorder.emit(trace, "reply", node=5, start=1.0, parent_id=send, hop=1)
        return recorder.spans()

    def test_jsonl_round_trip(self, tmp_path):
        spans = self._sample()
        path = tmp_path / "spans.jsonl"
        assert write_jsonl(spans, path) == 3
        assert read_jsonl(path) == sorted(spans, key=lambda s: s.span_id)

    def test_jsonl_bytes_deterministic(self):
        spans = self._sample()
        first, second = io.StringIO(), io.StringIO()
        write_jsonl(reversed(spans), first)  # input order must not matter
        write_jsonl(spans, second)
        assert first.getvalue() == second.getvalue()

    def test_read_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace_id": "000000:x", "span_id": 0}\nnot json\n')
        with pytest.raises(ConfigurationError, match="line 1"):
            read_jsonl(path)

    def test_hop_tree_nests_children(self):
        tree = render_hop_tree(self._sample())
        lines = tree.splitlines()
        assert lines[0] == "trace 000000:lookup"
        assert lines[1].startswith("  lookup")
        assert lines[2].startswith("    send")
        assert lines[3].startswith("      reply")

    def test_hop_tree_orphans_render_at_root(self):
        span = Span(trace_id="000000:x", span_id=9, parent_id=4,
                    name="send", node=1, start=0.0, end=1.0)
        tree = render_hop_tree([span])
        assert "send" in tree

    def test_hop_tree_empty(self):
        assert render_hop_tree([]) == "(no spans)"


class TestTelemetryHandle:
    def test_use_nests_and_restores(self):
        outer, inner = Telemetry(), Telemetry()
        default = current()
        with use(outer):
            assert current() is outer
            with use(inner):
                assert current() is inner
            assert current() is outer
        assert current() is default

    def test_snapshot_shape(self):
        handle = Telemetry.with_spans(max_spans=10)
        handle.metrics.inc("n")
        trace = handle.spans.begin_trace("x")
        handle.spans.emit(trace, "send")
        snapshot = handle.snapshot()
        assert snapshot["metrics"] == {"n": 1}
        assert snapshot["spans"] == {"recorded": 1, "dropped": 0}

    def test_default_handle_records_no_spans(self):
        assert Telemetry().spans is None


class TestTracingDeterminism:
    """The PR's hard requirement: byte-identical artifacts off and on."""

    @pytest.mark.parametrize("experiment_id", ["fig9", "ext-outage"])
    def test_tracing_on_off_byte_identical(self, experiment_id):
        plain = run_experiment(experiment_id, "smoke", 1)
        handle = Telemetry.with_spans()
        traced = run_experiment(experiment_id, "smoke", 1, telemetry=handle)
        assert handle.spans is not None and len(handle.spans) > 0
        assert result_digest(plain) == result_digest(traced)

    def test_traced_twice_identical_span_stream(self):
        first = Telemetry.with_spans()
        second = Telemetry.with_spans()
        run_experiment("fig9", "smoke", 1, telemetry=first)
        run_experiment("fig9", "smoke", 1, telemetry=second)
        assert spans_digest(first.spans) == spans_digest(second.spans)

    def test_hop_tree_parent_links_complete(self):
        traced = api.telemetry("svc-outage", scale="smoke", seed=1)
        trace_ids = traced.spans.trace_ids()
        lookup_traces = [t for t in trace_ids if t.endswith(":timed-lookup")]
        assert lookup_traces, f"no timed-lookup traces among {trace_ids[:5]}"
        spans = traced.spans.spans(trace_id=lookup_traces[0])
        by_id = {span.span_id: span for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert len(roots) == 1
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, f"dangling parent on {span}"

    def test_metrics_blob_attached_to_result(self):
        result = run_experiment("fig9", "smoke", 1)
        assert result.metrics is not None
        assert result.metrics["experiment"] == "fig9"
        assert result.metrics["cells"] == len(result.metrics["per_cell"])
        assert "mpil_requests_total{kind=insert}" in result.metrics["final"]
        # never part of the artifact bytes
        assert "metrics" not in result.to_dict()


class TestSweepTelemetry:
    def _sweep(self, tmp_path, name, jobs):
        store = ResultStore(tmp_path / name)
        spec = SweepSpec(("fig9",), seeds=(0, 1), scale="smoke")
        report = run_sweep(spec, store, jobs=jobs)
        assert not report.failures
        return store

    def test_jobs_do_not_change_telemetry_blobs(self, tmp_path):
        serial = self._sweep(tmp_path, "serial", jobs=1)
        pooled = self._sweep(tmp_path, "pooled", jobs=2)
        for seed in (0, 1):
            serial_blob = serial.telemetry_path("fig9", "smoke", seed).read_bytes()
            pooled_blob = pooled.telemetry_path("fig9", "smoke", seed).read_bytes()
            assert serial_blob, "telemetry blob missing"
            assert (
                hashlib.sha256(serial_blob).hexdigest()
                == hashlib.sha256(pooled_blob).hexdigest()
            )

    def test_ledger_indexes_metrics_summary(self, tmp_path):
        store = self._sweep(tmp_path, "indexed", jobs=1)
        records = store.ledger.query_results(experiment_id="fig9")
        assert len(records) == 2
        for record in records:
            assert record.metrics["cells"] >= 1
            assert any(
                key.startswith("mpil_requests_total") for key in record.metrics["final"]
            )


class TestLedgerMigration:
    def test_old_database_gains_metrics_column(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        conn = sqlite3.connect(path)
        with conn:
            conn.executescript(
                """
                CREATE TABLE tasks (
                    experiment_id TEXT NOT NULL, scale TEXT NOT NULL,
                    seed INTEGER NOT NULL, state TEXT NOT NULL DEFAULT 'pending',
                    attempts INTEGER NOT NULL DEFAULT 0, worker TEXT,
                    checksum TEXT, error TEXT, updated_at TEXT,
                    PRIMARY KEY (experiment_id, scale, seed)
                );
                CREATE TABLE results (
                    experiment_id TEXT NOT NULL, scale TEXT NOT NULL,
                    seed INTEGER NOT NULL, path TEXT NOT NULL,
                    checksum TEXT NOT NULL, rows INTEGER NOT NULL,
                    wall_clock REAL NOT NULL, events_processed INTEGER NOT NULL,
                    written_at TEXT NOT NULL,
                    PRIMARY KEY (experiment_id, scale, seed)
                );
                INSERT INTO results VALUES
                    ('fig9', 'smoke', 0, 'fig9/smoke/seed_0.json',
                     'sha256:abc', 3, 1.5, 100, '2026-01-01T00:00:00+00:00');
                """
            )
        conn.close()
        with TaskLedger(path) as ledger:
            (record,) = ledger.query_results(experiment_id="fig9")
            assert record.metrics == {}  # pre-migration rows get the default
        with TaskLedger(path) as ledger:  # migration is idempotent
            assert len(ledger.query_results()) == 1


class TestLintRegression:
    """Telemetry modules honour the determinism contract (satellite 6)."""

    def test_repo_config_keeps_telemetry_clean(self):
        report = lint_paths(
            [str(REPO_ROOT / "src" / "repro" / "telemetry")],
            config=load_config(pyproject=REPO_ROOT / "pyproject.toml"),
        )
        assert report.ok, [v.render() for v in report.violations]

    def test_only_progress_needs_the_wall_clock_allowance(self):
        report = lint_paths(
            [str(REPO_ROOT / "src" / "repro" / "telemetry")],
            config=LintConfig(root=REPO_ROOT),
        )
        det003 = [v for v in report.violations if v.rule_id == "DET003"]
        assert det003, "expected DET003 hits without the allowlist"
        assert {v.path for v in det003} == {"src/repro/telemetry/progress.py"}
        assert not [v for v in report.violations if v.rule_id == "DET004"]
        others = [v for v in report.violations if v.rule_id != "DET003"]
        assert not others, [v.render() for v in others]


class TestProgressRendering:
    def test_format_rate(self):
        assert format_rate(532.4) == "532"
        assert format_rate(12_400) == "12.4k"
        assert format_rate(3_100_000) == "3.1M"

    def test_meter_counts_and_label(self):
        meter = ProgressMeter(total_tasks=4)
        meter.task_finished(ok=True, events_processed=100)
        meter.task_finished(ok=False)
        line = meter.line(label="fig9 seed=0")
        assert line.startswith("[2/4] fig9 seed=0 done=1 failed=1")

    def test_service_window_line(self):
        line = service_window_line(
            "pastry", 3, arrivals=64, success_rate=92.5, p99=0.31,
            in_flight=5, slo_ok=False,
        )
        assert "window   3" in line
        assert "arrivals=64" in line
        assert "slo=VIOLATED" in line


class TestCliTelemetry:
    def test_trace_command_prints_parent_linked_tree(self, tmp_path, capsys):
        out = tmp_path / "spans.jsonl"
        code = main([
            "trace", "fig9", "--scale", "smoke", "--seed", "1",
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "trace 000000:insert" in captured.out
        spans = read_jsonl(out)
        assert spans
        by_id = {span.span_id for span in spans}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id

    def test_trace_unknown_kind_lists_recorded_kinds(self, capsys):
        code = main([
            "trace", "fig9", "--scale", "smoke", "--seed", "1",
            "--kind", "nope",
        ])
        assert code == 2
        assert "recorded kinds: insert" in capsys.readouterr().err

    def test_run_trace_exports_jsonl(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main([
            "run", "fig9", "--scale", "smoke", "--seed", "1",
            "--trace", str(out),
        ])
        assert code == 0
        assert read_jsonl(out)

    def test_status_shows_metrics_lines(self, tmp_path, capsys):
        store_root = tmp_path / "results"
        spec = SweepSpec(("fig9",), seeds=(0,), scale="smoke")
        report = run_sweep(spec, ResultStore(store_root), jobs=1)
        assert not report.failures
        code = main(["status", "fig9", "--out", str(store_root)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "metrics:" in captured
        assert "mpil_" in captured


class TestApiTelemetry:
    def test_telemetry_matches_untraced_run(self):
        traced = api.telemetry("fig9", scale="smoke", seed=1)
        assert traced.result == api.run("fig9", scale="smoke", seed=1)
        assert len(traced.spans) > 0
        assert traced.metrics  # final registry snapshot rides along

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            api.telemetry("nope")
