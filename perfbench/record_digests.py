"""Record the output digest of every workload for every pooled seed.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run from the root of a checkout.  Each digest comes from a cold,
untraced execution (the same ``cold.py`` the benchmark runs).  Rewrite
``digests.json`` only when the program's outputs change on purpose, and
say why in the commit.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DIGESTS, RUN_LIMIT_S, run_cold  # noqa: E402
from workloads import SEED_POOL, WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    root = pathlib.Path.cwd()
    for name in names:
        digests = {}
        for seed in range(SEED_POOL):
            record = run_cold(root, name, seed, "run", None, RUN_LIMIT_S)
            if record is None:
                print(f"{name} seed {seed}: execution failed", file=sys.stderr)
                return 1
            digests[str(seed)] = record["digest"]
            print(f"{name} seed {seed}: {record['digest']} wall {record['wall_s']:.3f} s "
                  f"setup {record['setup_s']:.3f} s rss {record['peak_rss_mb']:.1f} MiB "
                  f"ops {record['ops']}", flush=True)
        table[name] = digests
        DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
