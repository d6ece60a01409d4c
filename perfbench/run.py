"""The repository's benchmark: cold, layer-resolved runs of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every execution of a workload is a
fresh process (``cold.py``), so no construction cache survives between
executions; executions run one after another (a closed loop).

``--trace 0`` runs executions until the next one would end after
``--seconds`` (at least one) and reports the end-to-end metrics as
medians over the executions that completed.

``--trace 1`` runs one untraced and one traced execution of the same
experiment seed, prints the traced layer report, and reports the
per-layer metrics of the traced execution plus the tracing overhead.

Every full execution's output digest must match ``digests.json``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; when no execution completed,
the metrics hold only ``success_frac`` (0).  The exit code is 0 when a
result was printed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probes import clock  # noqa: E402
from workloads import SEED_POOL, WORKLOADS, execution_seeds  # noqa: E402

DIGESTS = HERE / "digests.json"

#: a run ends within this many seconds, whatever it was asked for
RUN_LIMIT_S = 170.0

class BenchError(Exception):
    """The benchmark cannot run here (no program, no recorded digest)."""


def load_digests(workload: str) -> dict[int, str]:
    if not DIGESTS.is_file():
        raise BenchError(f"{DIGESTS} is missing")
    table = json.loads(DIGESTS.read_text())
    return {int(seed): digest for seed, digest in table.get(workload, {}).items()}


def run_cold(
    root: pathlib.Path,
    workload: str,
    seed: int,
    mode: str,
    expected: str | None,
    timeout: float,
) -> dict | None:
    """Run one cold execution; its record, or None if it failed."""
    command = [sys.executable, str(HERE / "cold.py"), workload, str(seed), mode]
    spawned_at = clock()
    command.append(repr(spawned_at))
    if expected is not None:
        command.append(expected)
    try:
        done = subprocess.run(
            command, cwd=root, stdout=subprocess.PIPE, timeout=max(timeout, 1.0), text=True
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} {mode} timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(
            f"perfbench: {workload} seed {seed} {mode} exited {done.returncode}",
            file=sys.stderr,
        )
        return None
    record = json.loads(lines[-1])
    shown = ("wall_s", "setup_s", "peak_rss_mb")
    print(
        f"perfbench: {workload} seed {seed} {mode}: "
        + " ".join(f"{key} {record[key]:.4f}" for key in shown if key in record),
        file=sys.stderr,
    )
    return record


def untraced_run(root, workload, seed, seconds, digests) -> tuple[dict, int, int]:
    """Closed loop of executions until ``seconds`` have passed.

    A failed execution (crash, timeout or wrong digest) does not end the
    run, so ``success_frac`` reflects every execution attempted.
    """
    started = clock()
    full: list[dict] = []
    attempted = failed = 0
    longest = 0.0
    for exp_seed in execution_seeds(seed, 10_000):  # the deadline ends the loop
        elapsed = clock() - started
        if attempted and elapsed + longest > min(seconds, RUN_LIMIT_S):
            break
        attempted += 1
        record = run_cold(
            root, workload, exp_seed, "run", digests[exp_seed], RUN_LIMIT_S - elapsed
        )
        longest = max(longest, clock() - started - elapsed)
        if record is None or not record["verified"]:
            failed += 1
        if record is not None:
            full.append(record)
    metrics = {"success_frac": (attempted - failed) / attempted}
    if full:
        median = statistics.median
        metrics.update({
            "wall_s": median([r["wall_s"] for r in full]),
            "setup_s": median([r["setup_s"] for r in full]),
            # pooled over the run: static-cold's op time is under a second
            # per execution, and a garbage collection landing in it or in
            # set-up moves a single execution's ratio by up to a third
            "ops_per_s": sum(r["ops"] for r in full)
            / sum(r["wall_s"] - r["setup_s"] for r in full),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in full]),
        })
    return metrics, attempted, failed


def print_layer_report(workload: str, traced: dict, untraced: dict) -> None:
    wall = traced["wall_s"]
    print(f"# {workload}: traced wall {wall:.3f} s, untraced {untraced['wall_s']:.3f} s, "
          f"tracing overhead {wall - untraced['wall_s']:+.3f} s")
    print(f"# {'layer':<14}{'probe':<24}{'self_s':>10}{'share':>8}{'calls':>11}"
          f"{'p50_us':>11}{'p99_us':>11}")
    by_layer: dict[str, list[dict]] = {}
    for row in traced["probes"]:
        by_layer.setdefault(row["layer"], []).append(row)
    attributed = 0.0
    for layer in sorted(by_layer):
        rows = by_layer[layer]
        self_s = sum(row["self_s"] for row in rows)
        attributed += self_s
        print(f"# {layer:<14}{'(layer)':<24}{self_s:>10.3f}{self_s / wall:>8.1%}"
              f"{sum(row['calls'] for row in rows):>11}")
        for row in rows:
            timing = (
                f"{row['p50_us']:>11.1f}{row['p99_us']:>11.1f}"
                if row["kind"] != "count" else f"{'-':>11}{'-':>11}"
            )
            print(f"# {'':<14}{row['probe']:<24}{row['self_s']:>10.3f}{row['share']:>8.1%}"
                  f"{row['calls']:>11}{timing}")
    rest = wall - attributed
    print(f"# {'(outside probes)':<38}{rest:>10.3f}{rest / wall:>8.1%}")
    layers = traced["layers"]
    if layers["experiments.sweep_s"]:
        print(f"# runtime overhead = sweep wall - task time / jobs = "
              f"{layers['experiments.sweep_s']:.3f} - {layers['experiments.task_s']:.3f} / "
              f"{layers['experiments.jobs']} = {layers['experiments.runtime_overhead_s']:.3f} s")


def traced_run(root, workload, seed, digests) -> tuple[dict, int, int]:
    """One untraced and one traced execution of the same experiment seed.

    Both are checked against the same recorded digest, so a traced
    execution that changed the program's output fails the run and its
    layer numbers are not accepted.  If either execution does not
    complete, no metric is reported.
    """
    started = clock()
    exp_seed = execution_seeds(seed, 1)[0]
    untraced = run_cold(root, workload, exp_seed, "run", digests[exp_seed], RUN_LIMIT_S)
    if untraced is None:
        return {}, 1, 1
    traced = run_cold(
        root, workload, exp_seed, "trace", digests[exp_seed], RUN_LIMIT_S - (clock() - started)
    )
    if traced is None:
        return {}, 2, 1 + (not untraced["verified"])
    failed = sum(1 for record in (untraced, traced) if not record["verified"])
    print_layer_report(workload, traced, untraced)
    metrics = dict(traced["layers"])
    metrics["bench.traced_wall_s"] = traced["wall_s"]
    metrics["bench.trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics, 2, failed


def metric_units() -> dict[str, str]:
    """Units of every metric the benchmark reports, by name."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = pathlib.Path.cwd()
    try:
        if not (root / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program under {root / 'src'}; run from a checkout's root")
        digests = load_digests(args.workload)
        missing = sorted(set(range(SEED_POOL)) - set(digests))
        if missing:
            raise BenchError(f"no digest recorded for {args.workload} seed {missing[0]}")
        units = metric_units()
        if args.trace:
            metrics, attempted, failed = traced_run(root, args.workload, args.seed, digests)
        else:
            metrics, attempted, failed = untraced_run(
                root, args.workload, args.seed, args.seconds, digests
            )
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
