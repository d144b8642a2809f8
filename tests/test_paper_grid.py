"""The paper's 45-case grid writes the artifacts recorded in
``golden_paper_grid.json``, byte for byte (see ``paper_grid.py``), whether
its cases write their files on two worker processes or in-process."""

from __future__ import annotations

import json

import pytest

import paper_grid

pytestmark = pytest.mark.slow


def check_against_golden(foulum, weather, prices, out, threads):
    golden = json.loads(paper_grid.GOLDEN.read_text())
    digests = paper_grid.run_grid(foulum, weather, prices, out, threads=threads)
    expected = golden["artifacts"]
    differ = sorted(n for n in expected.keys() | digests.keys()
                    if expected.get(n) != digests.get(n))
    assert not differ, (
        f"{len(differ)} of {len(expected)} paper-grid artifacts differ: {differ[:10]}"
        f"{' ...' if len(differ) > 10 else ''}; recorded with {golden['environment']}, "
        f"running with {paper_grid.environment()}"
    )


def test_paper_grid_artifacts_match_golden(foulum, weather, prices, tmp_path):
    """Two workers, into an existing output directory."""
    check_against_golden(foulum, weather, prices, tmp_path, threads=2)


def test_paper_grid_artifacts_match_golden_in_process(foulum, weather, prices, tmp_path):
    """One process, into a new output directory."""
    check_against_golden(foulum, weather, prices, tmp_path / "out", threads=1)
