"""Acceptance gate: one test per headline capability, run with -v for a
per-criterion pass/fail line.

Each criterion exercises the public API end to end and prints a PASS line
with the measured numbers once its assertions hold. Several criteria
cross-check the analytic implementation against independent brute-force
reference routes (see oracles.py); those reference computations are kept
deliberately simple and are never shared with the implementation.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from agrivolt import indicators
from agrivolt.agronomy import par_flux, sort_decision_points
from agrivolt.electrical import (
    PanelModel,
    angular_loss,
    cell_temperature,
    effective_irradiance,
    power_output,
    simulate_year,
)
from agrivolt.land import (
    DEFAULT_CLASS_SETS,
    LandRaster,
    aggregate_potential,
    eligibility_mask,
    region_potential,
)
from agrivolt.layout import MOUNT_KINDS, build_layout
from agrivolt.outputs import monthly_daily_yield
from agrivolt.shading import effective_shading_factor, row_shading
from agrivolt.sky import PlaneIrradiance
from agrivolt.solar import SolarPosition, sun_vector
from oracles import (
    brute_force_eligibility,
    ground_shadow_masks,
    rasterized_ground_mask,
    rasterized_row_shading,
    row_shading_fractions,
)


def test_criterion_01_stc_identity():
    """Standard test conditions reproduce the nameplate power exactly."""
    panel = replace(PanelModel(), eta_system=1.0)
    poa = PlaneIrradiance(direct=1000.0, circumsolar=0.0, isotropic=0.0, reflected=0.0)
    g_eff = effective_irradiance(poa, 0.0, 0.0, panel.alpha_r)
    assert g_eff == pytest.approx(1000.0, rel=1e-12)
    wind = 1.0
    temp_air = 25.0 - 1000.0 / (panel.u0 + panel.u1 * wind)  # cell lands at 25 degC
    p_stc = 250.0
    power, t_cell, eta = power_output(g_eff, temp_air, wind, p_stc, panel)
    assert t_cell == pytest.approx(25.0, abs=1e-9)
    assert abs(power - p_stc) / p_stc <= 1e-9
    print(f"PASS criterion 1: STC closure P={power!r} W vs nameplate {p_stc!r} W")


def test_criterion_02_loss_model_anchors():
    """Shading-block, angular-loss and cell-temperature point values."""
    f_es = effective_shading_factor(0.5, 1, 3)
    assert f_es == pytest.approx(0.625, rel=1e-12)
    al = angular_loss(math.radians(60.0))
    assert al == pytest.approx(0.0502, abs=0.0005)
    t_cell = cell_temperature(20.0, 1000.0, 1.0)
    assert t_cell == pytest.approx(50.16, abs=0.01)
    print(
        f"PASS criterion 2: F_ES(0.5,1,3)={f_es}, AL(60deg)={al:.6f}, "
        f"T_cell(20,1000,1)={t_cell:.4f} degC"
    )


def test_criterion_03_par_anchor():
    """Full sun converts to 1960 umol/m2/s of photosynthetic photons."""
    par = par_flux(1000.0)
    assert par == pytest.approx(1960.0, abs=1.0)
    print(f"PASS criterion 3: PAR(1000 W/m2) = {par:.1f} umol/m2/s")


@pytest.mark.slow
def test_criterion_04_shadow_geometry_oracle():
    """200 randomized (kind, spacing, height, sun) cases: the analytic row
    shading fraction and ground shadow area both match a 1 cm brute-force
    rasterization within 0.5% of collector / field area."""
    rng = np.random.default_rng(2024)
    step = 0.01
    field = 10.0
    n_cells = int(round(field / step))
    centers = (np.arange(n_cells) + 0.5) * step
    xx, yy = np.meshgrid(centers, centers)
    cell_area = step * step
    field_area = field * field

    worst_row = 0.0
    worst_ground = 0.0
    for case in range(200):
        kind = MOUNT_KINDS[rng.integers(0, 3)]
        spacing = float(rng.choice([3.0, 4.5, 6.0]))
        height = float(rng.choice([1.0, 2.0, 3.0]))
        sun = SolarPosition(
            altitude=math.radians(float(rng.uniform(2.0, 65.0))),
            azimuth=math.radians(float(rng.uniform(-178.0, 178.0))),
        )
        layout = build_layout(
            kind, spacing, height, field=(field, field), latitude_deg=56.49
        )
        geom = layout.row_geometry(layout.orientation(sun))
        sv = sun_vector(sun)

        fractions = row_shading_fractions(geom, sv)
        for row in sorted({0, geom.count // 2, geom.count - 1}):
            reference = rasterized_row_shading(geom, sv, row, step)
            diff = abs(fractions[row] - reference)
            worst_row = max(worst_row, diff)
            assert diff <= 0.005, (
                f"case {case}: {kind} s={spacing} h={height} row {row}: "
                f"analytic {fractions[row]:.6f} vs rasterized {reference:.6f}"
            )

        impl_mask = ground_shadow_masks(geom, sv, centers, centers)
        ref_mask = rasterized_ground_mask(geom, sv, xx, yy)
        area_diff = abs(
            float(impl_mask.sum()) - float(ref_mask.sum())
        ) * cell_area
        worst_ground = max(worst_ground, area_diff / field_area)
        assert area_diff <= 0.005 * field_area, (
            f"case {case}: {kind} s={spacing} h={height}: shadow area gap "
            f"{area_diff:.4f} m2 on {field_area} m2"
        )
    print(
        f"PASS criterion 4: 200 randomized cases, worst row-shading gap "
        f"{worst_row:.5f}, worst ground-area gap {worst_ground:.5%} of field"
    )


def test_criterion_05_july_ground_maps(july_maps):
    """July ground-light heterogeneity at the reference site: map minima per
    mount kind and map means inside the expected band."""
    minima = {kind: float(grid.normalized.min()) for kind, grid in july_maps.items()}
    means = {kind: float(grid.normalized.mean()) for kind, grid in july_maps.items()}
    assert minima["tilt"] == pytest.approx(0.57, abs=0.05)
    assert minima["vertical"] == pytest.approx(0.776, abs=0.05)
    assert minima["tracking"] == pytest.approx(0.78, abs=0.05)
    for kind, mean in means.items():
        assert 0.80 <= mean <= 0.88, f"{kind} mean {mean}"
    print(
        "PASS criterion 5: July map minima "
        + ", ".join(f"{k}={minima[k]:.3f}" for k in MOUNT_KINDS)
        + "; means "
        + ", ".join(f"{k}={means[k]:.3f}" for k in MOUNT_KINDS)
    )


def test_criterion_06_seasonal_orderings(annual_reports, annual_sims):
    """Annual specific yield orders tracking > tilt > vertical; December
    favours the steep fixed tilt; June favours the tracker."""
    sy = {k: annual_reports[k].specific_yield_kwh_kw for k in MOUNT_KINDS}
    assert sy["tracking"] > sy["tilt"] > sy["vertical"]

    daily = {k: monthly_daily_yield(annual_sims[k]) for k in MOUNT_KINDS}
    december = {k: daily[k][11] for k in MOUNT_KINDS}
    june = {k: daily[k][5] for k in MOUNT_KINDS}
    assert december["tilt"] > december["tracking"]
    assert december["tilt"] > december["vertical"]
    assert june["tracking"] > june["tilt"]
    assert june["tracking"] > june["vertical"]
    print(
        f"PASS criterion 6: specific yield kWh/kW tracking={sy['tracking']:.1f} > "
        f"tilt={sy['tilt']:.1f} > vertical={sy['vertical']:.1f}; December daily "
        f"tilt={december['tilt']:.4f} tops {december['tracking']:.4f}/"
        f"{december['vertical']:.4f}; June tracking={june['tracking']:.3f} highest"
    )


def test_criterion_07_shadow_loss_limits(sky, foulum, decision_grid):
    """At 15 W/m2 capacity density every mount kind loses under 1% to row
    shading, and losses grow monotonically with density within a kind."""
    losses_15 = {}
    for kind in MOUNT_KINDS:
        layout = build_layout(
            kind, 12.0, 1.0, field=(100.0, 100.0), latitude_deg=foulum.latitude,
            bifaciality=0.8 if kind == "vertical" else 0.0,
        )
        default_density = (
            PanelModel().stc_efficiency * 1000.0 * layout.collector_area
            / layout.field_area
        )
        panel = replace(
            PanelModel(),
            stc_efficiency=PanelModel().stc_efficiency * 15.0 / default_density,
        )
        sim = simulate_year(layout, sky, panel)
        density = sim.capacity_w / layout.field_area
        assert density == pytest.approx(15.0, rel=1e-12)
        loss = 100.0 * (1.0 - sim.p_w.sum() / sim.p_noshadow_w.sum())
        losses_15[kind] = loss
        assert loss < 1.0, f"{kind}: {loss:.3f}% at 15 W/m2"

    _, results = decision_grid
    for kind in MOUNT_KINDS:
        for height in (1.0, 2.0):
            sweep = sorted(
                (
                    (
                        r.simulation.capacity_w / r.simulation.layout.field_area,
                        100.0
                        * (
                            1.0
                            - r.simulation.p_w.sum()
                            / r.simulation.p_noshadow_w.sum()
                        ),
                    )
                    for r in results
                    if r.spec.kind == kind and r.spec.height == height
                ),
            )
            assert len(sweep) == 4
            for (d_lo, l_lo), (d_hi, l_hi) in zip(sweep, sweep[1:]):
                assert d_hi > d_lo
                assert l_hi > l_lo, (
                    f"{kind} h={height}: loss {l_hi:.4f}% at {d_hi:.0f} W/m2 not "
                    f"above {l_lo:.4f}% at {d_lo:.0f} W/m2"
                )
    print(
        "PASS criterion 7: losses at 15 W/m2 "
        + ", ".join(f"{k}={losses_15[k]:.4f}%" for k in MOUNT_KINDS)
        + "; density sweeps monotone for all kinds and heights"
    )


def test_criterion_08_price_weighting(annual_reports):
    """With morning/evening-peaking prices, vertical east-west production is
    worth more per ground area than tracking, although tracking produces
    more energy."""
    vertical = annual_reports["vertical"]
    tracking = annual_reports["tracking"]
    assert (
        vertical.price_weighted_yield_kwh_m2 > tracking.price_weighted_yield_kwh_m2
    )
    assert tracking.electricity_yield_kwh_m2 > vertical.electricity_yield_kwh_m2
    print(
        f"PASS criterion 8: price-weighted vertical "
        f"{vertical.price_weighted_yield_kwh_m2:.2f} > tracking "
        f"{tracking.price_weighted_yield_kwh_m2:.2f} kWh/m2; unweighted tracking "
        f"{tracking.electricity_yield_kwh_m2:.2f} > vertical "
        f"{vertical.electricity_yield_kwh_m2:.2f} kWh/m2"
    )


def test_criterion_09_decision_map_target(decision_grid):
    """The scenario grid offers tilt and vertical configurations that keep
    the light-hungry crop class on at least 80% of the field while yielding
    30 +- 5 kWh/m2 of electricity."""
    _, results = decision_grid
    for r in results:  # each point carries its case's indicators
        rep = indicators.report(r.simulation, r.spec.scenario)
        assert (r.point.scenario, r.point.kind, r.point.spacing, r.point.height) == (
            r.spec.scenario, r.spec.kind, r.spec.spacing, r.spec.height)
        assert r.point.capacity_density_w_m2 == rep.capacity_density_w_m2
        assert r.point.electricity_yield_kwh_m2 == rep.electricity_yield_kwh_m2
    points = sort_decision_points([r.point for r in results])

    def qualifies(p):
        return p.frac_high >= 0.80 and abs(p.electricity_yield_kwh_m2 - 30.0) <= 5.0

    tilt_hits = [p for p in points if p.kind == "tilt" and qualifies(p)]
    vertical_hits = [p for p in points if p.kind == "vertical" and qualifies(p)]
    assert tilt_hits, "no tilt scenario meets the high-light/30 kWh target"
    assert vertical_hits, "no vertical scenario meets the high-light/30 kWh target"

    by_case = {(p.kind, p.spacing, p.height): p for p in points}
    # the tracker wins the yield race at any shared sparse-to-moderate geometry
    for spacing in (3.0, 4.5, 6.0, 12.0):
        for height in [1.0] + ([2.0] if spacing in (6.0, 12.0) else []):
            tracker = by_case[("tracking", spacing, height)]
            for other in ("tilt", "vertical"):
                assert (
                    tracker.electricity_yield_kwh_m2
                    > by_case[(other, spacing, height)].electricity_yield_kwh_m2
                )
    # everything in the qualifying yield band keeps shade-tolerant and
    # medium-demand crops on most of the field
    for p in points:
        if 25.0 <= p.electricity_yield_kwh_m2 <= 50.0:
            assert p.frac_low > 0.8
            assert p.frac_med > 0.8
    # within one kind and height, halving the spacing always densifies
    for kind in MOUNT_KINDS:
        for height in (1.0, 2.0):
            sweep = [
                by_case[(kind, s, height)].capacity_density_w_m2
                for s in (12.0, 6.0, 4.5, 3.0)
            ]
            assert all(b > a for a, b in zip(sweep, sweep[1:]))
    best_tilt = tilt_hits[0]
    best_vertical = vertical_hits[0]
    print(
        f"PASS criterion 9: qualifiers {best_tilt.scenario} "
        f"(yield {best_tilt.electricity_yield_kwh_m2:.1f}, high {best_tilt.frac_high:.3f}) "
        f"and {best_vertical.scenario} "
        f"(yield {best_vertical.electricity_yield_kwh_m2:.1f}, high {best_vertical.frac_high:.3f})"
    )


def test_criterion_10_regional_potential():
    """Regional arithmetic anchors plus a three-region raster suite checked
    against the exhaustive all-pairs distance oracle."""
    # anchor 1: a single region of 8341 eligible km2 at 30 W/m2, 850 kWh/kW
    codes = np.full((83, 101), 211, dtype=np.int64)
    codes[0, :42] = 311
    raster = LandRaster(codes=codes, cell_size=1000.0)
    eligible = codes == 211
    regions = replace(raster, codes=np.ones_like(codes))
    (pot,) = region_potential(raster, eligible, regions).potentials(
        30.0, lambda rid: {"vertical": 850.0}
    )
    assert pot.eligible_km2 == pytest.approx(8341.0, rel=1e-12)
    assert pot.capacity_gw == pytest.approx(250.2, abs=0.05)
    assert pot.energy_twh["vertical"] == pytest.approx(212.7, abs=0.05)
    assert abs(pot.energy_twh["vertical"] - 215.0) / 215.0 < 0.02

    # anchor 2: 1.7e6 km2 at 30 W/m2 is 51 TW on the nose
    big = LandRaster(codes=np.full((170, 100), 211, dtype=np.int64), cell_size=10_000.0)
    all_true = np.ones(big.codes.shape, dtype=bool)
    big_regions = replace(big, codes=np.ones_like(big.codes))
    (pot_big,) = region_potential(big, all_true, big_regions).potentials(
        30.0, lambda rid: {"tilt": 1000.0}
    )
    assert pot_big.eligible_km2 == pytest.approx(1.7e6, rel=1e-12)
    assert pot_big.capacity_gw == 51000.0

    # three-region synthetic raster: mask agrees exactly with the oracle,
    # and the region table adds up
    rng = np.random.default_rng(37)
    pool = np.array([211, 231, 241, 112, 311, 324, 511, -9999])
    codes3 = rng.choice(pool, size=(25, 30), p=[0.35, 0.2, 0.1, 0.08, 0.12, 0.05, 0.05, 0.05])
    raster3 = LandRaster(codes=codes3, cell_size=500.0)
    regions3 = np.ones(codes3.shape, dtype=np.int64)
    regions3[:, 10:20] = 2
    regions3[:, 20:] = 3
    buffer_m = 300.0
    mask = eligibility_mask(raster3, DEFAULT_CLASS_SETS, buffer_m)
    oracle_mask = brute_force_eligibility(raster3, DEFAULT_CLASS_SETS, buffer_m)
    np.testing.assert_array_equal(mask, oracle_mask)

    yields = {"tilt": 1000.0, "vertical": 900.0, "tracking": 1080.0}
    pots = region_potential(raster3, mask, replace(raster3, codes=regions3)).potentials(
        30.0, lambda rid: yields
    )
    assert [p.region_id for p in pots] == [1, 2, 3]
    study_km2 = float((codes3 != raster3.nodata).sum()) * raster3.pixel_area_km2
    assert sum(p.total_km2 for p in pots) == pytest.approx(study_km2, rel=1e-12)
    assert sum(p.eligible_km2 for p in pots) == pytest.approx(
        float(mask.sum()) * raster3.pixel_area_km2, rel=1e-12
    )
    for p in pots:
        assert p.capacity_gw == pytest.approx(p.eligible_km2 * 1e6 * 30.0 / 1e9, rel=1e-12)
        for kind, sy in yields.items():
            assert p.energy_twh[kind] == pytest.approx(
                p.capacity_gw * sy / 1000.0, rel=1e-12
            )
    summary = aggregate_potential(pots, demand_twh=2550.0)
    assert summary["capacity_gw"] == pytest.approx(
        sum(p.capacity_gw for p in pots), rel=1e-12
    )
    assert summary["demand_multiple_tilt"] == pytest.approx(
        summary["energy_tilt_twh"] / 2550.0, rel=1e-12
    )
    print(
        f"PASS criterion 10: anchors 250.23 GW / {pot.energy_twh['vertical']:.4f} TWh "
        f"(within 2% of 215) and 51 TW exact; 3-region suite mask matches the "
        f"all-pairs oracle on {mask.size} pixels"
    )


def test_criterion_11_determinism(cli_runs):
    """Identical command lines give byte-identical artifact sets, and the
    worker count leaves every byte unchanged."""
    code_first, first = cli_runs["first"]
    code_rerun, rerun = cli_runs["rerun"]
    code_threads, threaded = cli_runs["threads2"]
    assert code_first == 0 and code_rerun == 0 and code_threads == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in rerun.iterdir())
    assert names == sorted(p.name for p in threaded.iterdir())
    assert len(names) == 10
    for name in names:
        blob = (first / name).read_bytes()
        assert blob == (rerun / name).read_bytes(), f"rerun changed {name}"
        assert blob == (threaded / name).read_bytes(), f"threads changed {name}"
    print(
        f"PASS criterion 11: {len(names)} artifacts byte-identical across rerun "
        f"and across 1 vs 2 worker processes"
    )
