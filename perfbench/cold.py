"""One cold execution of a workload, in a fresh process.

    python3 perfbench/cold.py WORKLOAD SEED MODE SPAWNED_AT [DIGEST]

``MODE`` is ``run`` (untraced) or ``trace`` (layer probes installed).
``SPAWNED_AT`` is the parent's
``time.monotonic()`` just before it started this process, so wall and
set-up times include interpreter start-up.  With ``DIGEST`` the output
digest is checked against it.  The last line of standard output is one
JSON object; a failure exits non-zero with a traceback on standard error.
``run.py`` drives this; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import pathlib
import resource
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import install, layer_metrics  # noqa: E402
from probes import SetupClock, Tracer, clock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def execute(name: str, seed: int, mode: str, spawned_at: float, expected: str | None) -> dict:
    workload = WORKLOADS[name]
    from repro import api

    imported = clock()
    api.list_experiments()  # the registry loads lazily; load it now
    registry_loaded = clock()
    registry_load_s = registry_loaded - imported
    # sweep-smoke's set-up is the parent's imports; the others' also
    # covers the registry load and the construction calls
    if workload.setup_imports_only:
        base_setup_s = imported - spawned_at
        setup = None
    else:
        base_setup_s = registry_loaded - spawned_at
        setup = SetupClock()

    tracer = Tracer() if mode == "trace" else None
    install(tracer, setup, workload.traced_layers)
    outcome = workload.run(seed, ROOT)
    verified = expected is None or outcome.digest == expected
    wall_s = clock() - spawned_at
    record = {
        "wall_s": wall_s,
        "setup_s": base_setup_s + (setup.total if setup is not None else 0.0),
        "ops": outcome.ops,
        "digest": outcome.digest,
        "verified": verified,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, outcome.values, registry_load_s)
        record["probes"] = tracer.probe_report(wall_s)
    return record


def main(argv: list[str]) -> int:
    name, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    expected = argv[4] if len(argv) > 4 else None
    if name not in WORKLOADS or mode not in ("run", "trace"):
        print(f"cold.py: bad arguments {argv}", file=sys.stderr)
        return 2
    record = execute(name, seed, mode, spawned_at, expected)
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
