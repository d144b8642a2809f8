"""Capture the artifact digests of the paper's 45-case grid.

    python3 tests/paper_grid.py

Writes ``tests/golden_paper_grid.json``: the SHA-256 of every artifact
that :func:`agrivolt.scenario.run_scenario` writes for the paper grid
(3 mount kinds x spacings 4.5-12 m x heights 1-3 m, every other setting at
its default) on the fixture year, with the fixture prices, plus the
Python, numpy and libc versions it was taken with. Run it only on a commit
whose artifacts are known to be right. It refuses to overwrite an existing
file: a run that disagrees with it is a changed program, not a stale
manifest. ``test_paper_grid.py`` checks every digest.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_paper_grid.json"
SPACINGS = (4.5, 6.0, 7.5, 9.0, 12.0)
HEIGHTS = (1.0, 2.0, 3.0)


def environment() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "libc": " ".join(platform.libc_ver()),
    }


def run_grid(location, weather, prices, out: Path, threads: int) -> dict[str, str]:
    """Run the grid into ``out``; the SHA-256 of each written file by name."""
    from agrivolt.config import ScenarioConfig
    from agrivolt.scenario import run_scenario

    config = ScenarioConfig(location=location, spacings=SPACINGS, heights=HEIGHTS)
    written = run_scenario(config, weather, prices, out, threads)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}


def main() -> int:
    if GOLDEN.exists():
        print(f"error: {GOLDEN} exists; remove it deliberately to recapture", file=sys.stderr)
        return 1
    sys.path.insert(0, str(HERE.parent / "src"))
    import fixturegen

    rows = fixturegen.synthetic_weather()
    weather = fixturegen.weather_columns(rows)
    prices = fixturegen.synthetic_prices([r.time for r in rows])
    with tempfile.TemporaryDirectory() as out:
        digests = run_grid(fixturegen.FOULUM, weather, prices, Path(out), threads=2)
    golden = {"environment": environment(), "artifacts": dict(sorted(digests.items()))}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(digests)} artifacts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
