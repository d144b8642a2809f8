"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The traced runs take about a minute: every workload's command runs
traced twice at the default seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import workloads
from run import GOLDEN, HERE, ROOT, Bench, use_source_tree

use_source_tree()

#: Per-layer counts that must repeat exactly between traced runs.
EXACT_COUNTS = (
    "outputs.bytes",
    "outputs.files",
    "shading.ground_map_calls",
    "shading.cell_hours",
    "scenario.ipc_bytes",
    "land.mpix",
    "land.regions",
)

#: Artifacts written and ground maps computed per workload command: the
#: paper grid maps each of its 3 cases for every month of Apr-Sep.
SHAPE = {
    "paper-grid": (13, 18),
    "hourly-yield": (31, 9),
    "hourly-yield-2w": (31, 0),  # ground maps run in the workers
    "potential": (2, 0),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_artifacts_match_golden(name, tmp_path):
    bench = Bench(workloads.WORKLOADS[name], workloads.DEFAULT_SEED, 0.0, tmp_path)
    bench.generate()
    golden = json.loads(GOLDEN.read_text())
    bench.reference = golden["hourly-yield" if name == "hourly-yield-2w" else name]

    first = bench.traced(untraced_wall_s=0.0)
    second = bench.traced(untraced_wall_s=0.0)

    assert bench.problems == []
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    assert first["outputs.files"] == len(bench.reference) == SHAPE[name][0]
    assert first["shading.ground_map_calls"] == SHAPE[name][1]
    assert 0.5 < first["trace.coverage"] <= 1.0


def test_land_rasters_follow_the_seed():
    codes_a, regions_a = workloads.land_rasters(5, side=200)
    codes_b, regions_b = workloads.land_rasters(5, side=200)
    codes_c, _ = workloads.land_rasters(6, side=200)
    assert np.array_equal(codes_a, codes_b) and np.array_equal(regions_a, regions_b)
    assert not np.array_equal(codes_a, codes_c)
    assert np.array_equal(codes_a == workloads.NODATA, regions_a == workloads.NODATA)


def test_potential_check_catches_inconsistent_summary(tmp_path):
    inputs = workloads.Inputs(files={}, units=2, mpix=1.0, expected={"total_km2": 3.0})
    header = (
        "region_id,total_km2,eligible_km2,share_pct,capacity_GW,"
        "energy_tilt_TWh,energy_vertical_TWh,energy_tracking_TWh\n"
    )
    (tmp_path / "regions.csv").write_text(
        header + "1,1.0,0.5,50.0,1.0,1.0,1.0,1.0\n2,2.0,0.5,25.0,1.0,1.0,1.0,1.0\n"
    )
    summary = {
        "total_km2": 3.0, "eligible_km2": 1.0, "capacity_gw": 2.0,
        "energy_tilt_twh": 2.0, "energy_vertical_twh": 2.0, "energy_tracking_twh": 2.0,
    }

    def write_summary(values):
        lines = ["quantity,value"] + [f"{k},{v:.6f}" for k, v in sorted(values.items())]
        (tmp_path / "summary.csv").write_text("\n".join(lines) + "\n")

    potential = workloads.WORKLOADS["potential"]
    write_summary(summary)
    assert workloads.check_artifacts(potential, inputs, tmp_path) == []
    write_summary({**summary, "energy_tilt_twh": 2.5})
    assert len(workloads.check_artifacts(potential, inputs, tmp_path)) == 1


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
