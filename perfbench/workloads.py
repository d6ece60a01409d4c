"""The benchmark's workloads: what one cold execution runs, and its checks.

Each workload is one call into the program's public API (``repro.api``)
at a fixed size.  The benchmark's ``--seed`` picks the experiment seeds
(:func:`execution_seeds`); the outputs of every experiment seed in
:data:`SEED_POOL` are pinned by the digests in ``digests.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import shutil
import tempfile
from typing import Any, Callable, Optional

#: experiment seeds whose output digests are recorded (``digests.json``)
SEED_POOL = 10

#: worker processes of the ``sweep-smoke`` workload (fixed, so the load is
#: the same on every machine; at most ``nproc`` on a 2-core box)
SWEEP_JOBS = 2

#: sweep seeds per ``sweep-smoke`` execution
SWEEP_SEEDS = 4

#: lookups per cell and variant of the ``pastry-flap`` workload: a third
#: of fig11's 120 at ``default``, so a run covers three seeds
PASTRY_FLAP_LOOKUPS = 40

#: the ``svc-mpil`` experiment: open-loop MPIL service traffic under
#: 30:30 flapping plus a regional outage over the middle third of the run.
#: 600 simulated seconds (not 1200) keep an execution near 6 s, so a run
#: covers four or five seeds.
SVC_MPIL_SPEC: dict = {
    "experiment": {
        "id": "perfbench-svc-mpil",
        "title": "MPIL service traffic under flapping and a regional outage",
    },
    "sweep": {"column": "severity", "values": [0.0, 0.5, 1.0]},
    "scenario": [
        {"family": "flapping", "period": "30:30", "probability": 0.2},
        {
            "family": "regional-outage",
            "start": 200.0,
            "duration": 200.0,
            "severity": "$severity",
        },
    ],
    "variants": {"names": ["mpil-ds", "mpil-nods"]},
    "service": {
        "arrival": "poisson",
        "rate": 6.0,
        "duration": 600.0,
        "window": 60.0,
        "insert_fraction": 0.1,
    },
}


class WorkloadError(Exception):
    """A workload produced output the benchmark cannot accept."""


@dataclasses.dataclass
class Outcome:
    """What one execution of a workload produced."""

    digest: str
    ops: int
    #: per-layer quantities only the workload can see (sweep bookkeeping)
    values: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in README.md and BENCHMARK.json."""

    name: str
    run: Callable[[int, pathlib.Path], Outcome]
    #: set-up is the process's imports only (else imports, registry load
    #: and the construction calls)
    setup_imports_only: bool = False
    #: layers whose probes a traced execution installs (None: all)
    traced_layers: Optional[frozenset] = None


def canonical_digest(payload: Any) -> str:
    """sha256 of ``payload`` as sorted, compact JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result: Any) -> str:
    """The digest of an :class:`~repro.experiments.base.ExperimentResult`."""
    return canonical_digest(result.to_dict())


def execution_seeds(seed: int, count: int) -> list[int]:
    """Experiment seeds of the first ``count`` executions of a run."""
    return [(seed + index) % SEED_POOL for index in range(count)]


def sweep_seeds(seed: int) -> list[int]:
    """The sweep seeds of a ``sweep-smoke`` execution with experiment seed ``seed``."""
    return list(range(seed, seed + SWEEP_SEEDS))


def _final_metrics(result: Any) -> dict:
    return (result.metrics or {}).get("final", {})


def _metric_sum(final: dict, name: str) -> int:
    """Sum of every labeled series of counter ``name``."""
    return int(
        sum(
            value
            for key, value in final.items()
            if key == name or key.startswith(name + "{")
        )
    )


def run_static_cold(seed: int, root: pathlib.Path) -> Outcome:
    from repro import api

    result = api.run("fig10", scale="default", seed=seed)
    ops = _metric_sum(_final_metrics(result), "mpil_requests_total")
    return Outcome(digest=result_digest(result), ops=ops)


def run_pastry_flap(seed: int, root: pathlib.Path) -> Outcome:
    from repro import api

    scale = api.get_scale("default").evolve(
        name=f"default-lookups{PASTRY_FLAP_LOOKUPS}", perturbed_lookups=PASTRY_FLAP_LOOKUPS
    )
    result = api.run("fig11", scale=scale, seed=seed)
    final = _final_metrics(result)
    ops = _metric_sum(final, "pastry_lookups_total") + _metric_sum(
        final, "timed_lookups_total"
    )
    return Outcome(digest=result_digest(result), ops=ops)


def run_svc_mpil(seed: int, root: pathlib.Path) -> Outcome:
    from repro import api

    result = api.run(api.compose(SVC_MPIL_SPEC), scale="default", seed=seed)
    arrivals = result.columns.index("arrivals")
    ops = sum(int(row[arrivals]) for row in result.rows)
    return Outcome(digest=result_digest(result), ops=ops)


def run_sweep_smoke(seed: int, root: pathlib.Path) -> Outcome:
    from repro import api

    experiment_ids = [spec.experiment_id for spec in api.list_experiments()]
    store = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=root)
    try:
        report = api.sweep(
            experiment_ids,
            seeds=sweep_seeds(seed),
            scale="smoke",
            jobs=SWEEP_JOBS,
            store=store,
        )
        retries = sum(max(0, row.attempts - 1) for row in api.sweep_status(store))
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if report.failures:
        raise WorkloadError(
            f"{len(report.failures)} sweep tasks failed: {report.failures[0].error}"
        )
    task_digests = sorted(canonical_digest(outcome.payload) for outcome in report.outcomes)
    return Outcome(
        digest=canonical_digest(task_digests),
        ops=len(report.outcomes),
        values={
            "experiments.task_s": sum(outcome.wall_clock for outcome in report.outcomes),
            "experiments.jobs": SWEEP_JOBS,
            "experiments.retries": retries,
        },
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("static-cold", run_static_cold),
        Workload("pastry-flap", run_pastry_flap),
        Workload("svc-mpil", run_svc_mpil),
        Workload(
            "sweep-smoke",
            run_sweep_smoke,
            setup_imports_only=True,
            traced_layers=frozenset({"experiments"}),
        ),
    )
}
