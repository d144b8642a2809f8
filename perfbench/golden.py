"""Capture the golden artifact manifest at the default seed.

    python3 perfbench/golden.py

Writes ``perfbench/golden.json``: the SHA-256 of every artifact each
distinct workload command writes at ``workloads.DEFAULT_SEED``
(``hourly-yield-2w`` shares the ``hourly-yield`` entry). Run it only on a
commit whose artifacts are known to be right. It refuses to overwrite an
existing manifest: a run that disagrees with the manifest is a changed
program, not a stale manifest.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import GOLDEN, ROOT, Bench, use_source_tree
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    if GOLDEN.exists():
        print(f"error: {GOLDEN} exists; remove it deliberately to recapture", file=sys.stderr)
        return 1
    use_source_tree()
    manifest = {}
    for name in ("paper-grid", "hourly-yield", "potential"):
        work = ROOT / ".perfbench_work" / f"golden-{name}-{os.getpid()}"
        bench = Bench(WORKLOADS[name], DEFAULT_SEED, 0.0, work)
        try:
            bench.generate()
            bench.command("golden", bench.args(1))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if bench.problems:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        manifest[name] = bench.reference
    GOLDEN.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
