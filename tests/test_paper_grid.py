"""The paper's 45-case grid writes the artifacts recorded in
``golden_paper_grid.json``, byte for byte (see ``paper_grid.py``)."""

from __future__ import annotations

import json

import paper_grid


def test_paper_grid_artifacts_match_golden(foulum, weather, prices, tmp_path):
    golden = json.loads(paper_grid.GOLDEN.read_text())
    digests = paper_grid.run_grid(foulum, weather, prices, tmp_path, threads=2)
    expected = golden["artifacts"]
    differ = sorted(n for n in expected.keys() | digests.keys()
                    if expected.get(n) != digests.get(n))
    assert not differ, (
        f"{len(differ)} of {len(expected)} paper-grid artifacts differ: {differ[:10]}"
        f"{' ...' if len(differ) > 10 else ''}; recorded with {golden['environment']}, "
        f"running with {paper_grid.environment()}"
    )
