"""Module electrical model and the hourly year simulation."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrivolt import electrical
from agrivolt.electrical import (
    HULD_COEFFICIENTS_CSI,
    MAX_BLOCKS,
    PanelModel,
    angular_loss,
    cell_temperature,
    effective_irradiance,
    power_output,
    relative_efficiency,
    simulate_year,
    wind_at_module,
)
from agrivolt.errors import InputError
from agrivolt.layout import MOUNT_KINDS, build_layout
from agrivolt.sky import PlaneIrradiance

from conftest import reference_layout
from oracles import reference_field_year


class TestAngularLoss:
    def test_reference_value_at_60_degrees(self):
        assert angular_loss(math.radians(60.0)) == pytest.approx(0.0502, abs=0.0005)

    def test_zero_at_normal_incidence(self):
        assert angular_loss(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_total_at_grazing(self):
        assert angular_loss(0.5 * math.pi) == 1.0
        assert angular_loss(2.0) == 1.0

    def test_monotone_in_incidence(self):
        angles = np.linspace(0.0, 0.5 * math.pi, 91)
        losses = [angular_loss(a) for a in angles]
        assert all(b >= a for a, b in zip(losses, losses[1:]))
        assert all(0.0 <= loss <= 1.0 for loss in losses)

    def test_closed_form(self):
        theta = math.radians(40.0)
        alpha = 0.17
        scale = 1.0 - math.exp(-1.0 / alpha)
        expected = 1.0 - (1.0 - math.exp(-math.cos(theta) / alpha)) / scale
        assert angular_loss(theta, alpha) == pytest.approx(expected, rel=1e-12)


class TestCellTemperature:
    def test_reference_value(self):
        assert cell_temperature(20.0, 1000.0, 1.0) == pytest.approx(50.16, abs=0.01)

    def test_no_irradiance_is_ambient(self):
        assert cell_temperature(12.0, 0.0, 3.0) == 12.0

    def test_wind_cools(self):
        still = cell_temperature(20.0, 800.0, 0.0)
        breezy = cell_temperature(20.0, 800.0, 5.0)
        assert breezy < still


class TestWindAtModule:
    def test_quadratic_profile(self):
        assert wind_at_module(5.0, 2.0) == pytest.approx(0.2, rel=1e-12)
        assert wind_at_module(5.0, 10.0) == pytest.approx(5.0, rel=1e-12)

    def test_exponent_override(self):
        assert wind_at_module(5.0, 2.0, exponent=1.0) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            wind_at_module(5.0, 0.0)


class TestRelativeEfficiency:
    def test_exactly_one_at_stc(self):
        assert relative_efficiency(1000.0, 25.0, PanelModel()) == 1.0

    def test_zero_for_dark(self):
        assert relative_efficiency(0.0, 25.0, PanelModel()) == 0.0
        assert relative_efficiency(-5.0, 25.0, PanelModel()) == 0.0

    def test_hot_cells_lose(self):
        panel = PanelModel()
        assert relative_efficiency(1000.0, 60.0, panel) < 1.0

    def test_low_light_loses(self):
        panel = PanelModel()
        assert relative_efficiency(50.0, 25.0, panel) < 1.0

    def test_coefficient_expansion(self):
        panel = PanelModel()
        g, t = 600.0, 40.0
        k1, k2, k3, k4, k5, k6 = HULD_COEFFICIENTS_CSI
        lg = math.log(g / 1000.0)
        dt = t - 25.0
        expected = (
            1.0 + k1 * lg + k2 * lg**2 + dt * (k3 + k4 * lg + k5 * lg**2) + k6 * dt**2
        )
        assert relative_efficiency(g, t, panel) == pytest.approx(expected, rel=1e-12)


class TestPowerOutput:
    def test_stc_identity(self):
        """At 1000 W/m2 effective irradiance and a 25 degC cell, a panel
        with unit system efficiency returns exactly its nameplate power."""
        panel = replace(PanelModel(), eta_system=1.0)
        wind = 2.0
        temp_air = 25.0 - 1000.0 / (panel.u0 + panel.u1 * wind)
        p_stc = 123456.0
        power, t_cell, eta = power_output(1000.0, temp_air, wind, p_stc, panel)
        assert t_cell == pytest.approx(25.0, abs=1e-12)
        assert eta == pytest.approx(1.0, rel=1e-12)
        assert power == pytest.approx(p_stc, rel=1e-9)

    def test_dark_output_zero(self):
        power, t_cell, eta = power_output(0.0, 10.0, 2.0, 1000.0, PanelModel())
        assert power == 0.0
        assert t_cell == 10.0
        assert eta == 0.0

    def test_system_losses_scale_linearly(self):
        panel = PanelModel()
        lossless = replace(panel, eta_system=1.0)
        p_with, _, _ = power_output(700.0, 15.0, 2.0, 1000.0, panel)
        p_without, _, _ = power_output(700.0, 15.0, 2.0, 1000.0, lossless)
        assert p_with == pytest.approx(0.86 * p_without, rel=1e-12)


class TestEffectiveIrradiance:
    POA = PlaneIrradiance(direct=500.0, circumsolar=50.0, isotropic=120.0, reflected=30.0)

    def test_unshaded_normal_incidence(self):
        g = effective_irradiance(self.POA, 0.0, 0.0, 0.17)
        al0 = angular_loss(0.0)
        assert g == pytest.approx(550.0 * (1.0 - al0) + 150.0, rel=1e-12)

    def test_full_shading_leaves_diffuse(self):
        assert effective_irradiance(self.POA, 1.0, 0.0, 0.17) == pytest.approx(
            150.0, rel=1e-12
        )

    def test_only_beamlike_attenuated(self):
        g = effective_irradiance(self.POA, 0.5, math.radians(30.0), 0.17)
        al = angular_loss(math.radians(30.0))
        assert g == pytest.approx(550.0 * 0.5 * (1.0 - al) + 150.0, rel=1e-12)


class TestPanelModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PanelModel(stc_efficiency=0.0)
        with pytest.raises(ValueError):
            PanelModel(eta_system=1.5)
        for blocks in (0, MAX_BLOCKS + 1, 10**9):
            with pytest.raises(ValueError, match="blocks"):
                PanelModel(blocks=blocks)
        assert PanelModel(blocks=MAX_BLOCKS).blocks == MAX_BLOCKS
        with pytest.raises(ValueError):
            PanelModel(u0=-1.0)

    def test_defaults(self):
        panel = PanelModel()
        assert panel.stc_efficiency == 0.20
        assert panel.eta_system == 0.86
        assert panel.alpha_r == 0.17
        assert (panel.u0, panel.u1) == (26.92, 6.24)
        assert panel.blocks == 3
        assert panel.wind_shear_exponent == 2.0


class TestSimulateYear:
    def test_capacity_from_collector_area(self, annual_sims):
        sim = annual_sims["tilt"]
        expected = 0.20 * 1000.0 * sim.layout.collector_area
        assert sim.capacity_w == pytest.approx(expected, rel=1e-12)

    def test_counterfactual_never_below_actual(self, annual_sims):
        for sim in annual_sims.values():
            assert np.all(sim.p_noshadow_w >= sim.p_w - 1e-9)
            assert sim.p_noshadow_w.sum() >= sim.p_w.sum()

    def test_night_hours_idle(self, annual_sims, weather):
        sim = annual_sims["tilt"]
        dark = weather.ghi <= 0.0
        assert np.all(sim.p_w[dark] == 0.0)
        assert np.all(sim.g_eff_wm2[dark] == 0.0)
        # idle cells sit at ambient temperature
        ambient = weather.temp_air
        np.testing.assert_allclose(sim.t_cell_c[dark], ambient[dark])

    def test_cells_warm_in_the_sun(self, annual_sims, weather):
        sim = annual_sims["tilt"]
        bright = weather.ghi > 200.0
        ambient = weather.temp_air
        assert np.all(sim.t_cell_c[bright] > ambient[bright])

    def test_shading_fractions_bounded(self, annual_sims):
        for sim in annual_sims.values():
            for column in (sim.f_es_front, sim.f_es_rear):
                assert np.all(column >= 0.0)
                assert np.all(column <= 1.0)

    def test_monofacial_rear_face_unused(self, annual_sims):
        assert np.all(annual_sims["tilt"].f_es_rear == 0.0)
        assert np.all(annual_sims["tracking"].f_es_rear == 0.0)

    def test_bifacial_rear_contributes(self, sky):
        mono = build_layout("vertical", 6.0, 2.0, field=(30.0, 30.0), bifaciality=0.0)
        bi = build_layout("vertical", 6.0, 2.0, field=(30.0, 30.0), bifaciality=0.8)
        e_mono = simulate_year(mono, sky).p_w.sum()
        e_bi = simulate_year(bi, sky).p_w.sum()
        assert e_bi > 1.3 * e_mono  # the western face sees whole afternoons

    def test_partial_year_rejected(self, sky):
        layout = build_layout("tilt", 6.0, 2.0, latitude_deg=56.49)
        with pytest.raises(InputError, match="full year"):
            simulate_year(layout, sky.take(slice(0, 100)))

    def test_gappy_year_rejected(self, sky):
        layout = build_layout("tilt", 6.0, 2.0, latitude_deg=56.49)
        broken = sky.take(np.r_[0:4000, 4001:len(sky), 4000])
        with pytest.raises(InputError):
            simulate_year(layout, broken)

    @pytest.mark.parametrize("kind, faces", [("tilt", 1), ("vertical", 2), ("tracking", 1)])
    def test_angular_loss_once_per_face_and_lit_hour(self, sky, monkeypatch, kind, faces):
        """The open and shaded rows share each face's incidence angles, so one
        simulation takes the angular loss of every lit hour once per face."""
        seen = []

        def counted(incidence, alpha_r):
            seen.append(np.size(incidence))
            return angular_loss(incidence, alpha_r)

        monkeypatch.setattr(electrical, "angular_loss", counted)
        simulate_year(reference_layout(kind, 100.0), sky)
        lit = np.count_nonzero(~((sky.ghi <= 0.0) | (sky.altitude <= 0.0)))
        assert lit == 4413  # the fixture year
        assert sum(seen) == faces * lit

    def test_shadow_loss_independent_of_panel_scale(self, sky):
        """Halving the nameplate efficiency halves power everywhere, so the
        relative shadow loss is unchanged; density studies can scale the
        panel without re-deriving loss percentages."""
        layout = build_layout("tilt", 4.5, 2.0, field=(30.0, 30.0), latitude_deg=56.49)
        full = simulate_year(layout, sky, PanelModel())
        half = simulate_year(layout, sky, replace(PanelModel(), stc_efficiency=0.10))
        loss_full = 1.0 - full.p_w.sum() / full.p_noshadow_w.sum()
        loss_half = 1.0 - half.p_w.sum() / half.p_noshadow_w.sum()
        assert loss_full == pytest.approx(loss_half, rel=1e-9)


#: Layouts for the oracle comparison: every mount kind, monofacial and
#: bifacial faces, a rotation clamp, and a field of a single row.
ORACLE_LAYOUTS = {
    "tilt": dict(kind="tilt", spacing=6.0, height=2.0, latitude_deg=56.49),
    "bifacial_vertical": dict(kind="vertical", spacing=6.0, height=2.0),
    "tracking_clamp_60": dict(
        kind="tracking", spacing=6.0, height=2.0, max_rotation=math.radians(60.0)
    ),
    "bifacial_tracking": dict(kind="tracking", spacing=4.5, height=2.0, bifaciality=0.7),
    "one_row": dict(kind="tilt", spacing=6.0, height=2.0, field=(30.0, 5.0), latitude_deg=56.49),
}


COLUMNS = ("p_w", "p_noshadow_w", "t_cell_c", "f_es_front", "f_es_rear", "g_eff_wm2")


def assert_same_bits(sim, reference) -> None:
    """Every hour of the six arrays equal with ``==`` (NaN matching NaN) and
    with the same sign bit, so that -0.0 and 0.0 count as different."""
    for column, expected in zip(COLUMNS, reference):
        actual = getattr(sim, column)
        assert np.array_equal(actual, expected, equal_nan=True), column
        assert np.array_equal(np.signbit(actual), np.signbit(expected)), column


@st.composite
def random_cases(draw):
    """A layout and panel of any mount kind, one-row fields and edge
    parameters included; None where the layout itself is invalid."""
    kind = draw(st.sampled_from(MOUNT_KINDS))
    kwargs = dict(
        kind=kind,
        spacing=draw(st.floats(1.0, 14.0)),
        height=draw(st.floats(0.3, 3.5)),
        field=(draw(st.floats(2.0, 40.0)), draw(st.floats(2.0, 40.0))),
        bifaciality=draw(st.sampled_from([0.0, 0.0, 1.0]) | st.floats(0.0, 1.0)),
    )
    if kind == "tilt":
        kwargs["tilt"] = draw(st.floats(0.02, 1.55))
    if kind == "tracking":
        kwargs["max_rotation"] = draw(st.none() | st.floats(0.05, 1.6))
    panel = PanelModel(
        blocks=draw(st.integers(1, 4)),
        alpha_r=draw(st.floats(0.02, 2.0)),
        u1=draw(st.sampled_from([0.0, 6.24]) | st.floats(0.0, 20.0)),
        # exponents near -440 push the module wind to inf, and u1 * wind to NaN
        wind_shear_exponent=draw(st.floats(-1.0, 4.0) | st.floats(-445.0, -400.0)),
    )
    try:
        return build_layout(**kwargs), panel
    except ValueError:
        return None


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("name", sorted(ORACLE_LAYOUTS))
    def test_six_arrays_equal(self, name, sky):
        """One incidence angle per face and the open rows as the counterfactual
        give the same bits as the form that recomputes both."""
        layout = build_layout(**{"field": (30.0, 30.0), **ORACLE_LAYOUTS[name]})
        assert_same_bits(simulate_year(layout, sky), reference_field_year(layout, sky))

    @settings(max_examples=12, deadline=None)
    @given(case=random_cases(), albedo=st.floats(0.0, 1.0))
    def test_random_layouts_equal_bit_for_bit(self, sky, case, albedo):
        """All hours at once as arrays give the bits of the per-hour scalar
        model on random layouts and panels."""
        if case is None:
            return
        layout, panel = case
        try:
            sim = simulate_year(layout, sky, panel, albedo)
        except ValueError:
            # the module wind overflows: the per-hour model refuses it too
            with pytest.raises(ValueError):
                reference_field_year(layout, sky, panel, albedo)
            return
        assert_same_bits(sim, reference_field_year(layout, sky, panel, albedo))
