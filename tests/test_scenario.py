import re

import numpy as np
import pytest

from mgrl.scenario import (
    CSV_COLUMNS,
    MAX_KW,
    Scenario,
    ScenarioConfig,
    load_scenario_csv,
    synth_cyclone_scenario,
    write_scenario_csv,
)
from mgrl.table import TableError


class TestScenario:
    """A Scenario checks itself when it is made, so every instance has
    at least one hour and only finite loads and generation."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["loads", "p_re"])
    def test_non_finite_value_refused_naming_series_and_hour(self, field,
                                                             value):
        series = {"p_re": np.full(6, 50.0), "loads": np.full((6, 3), 10.0)}
        series[field].reshape(6, -1)[4, -1] = value
        with pytest.raises(ValueError,
                           match=f"^non-finite {field} at scenario hour 4$"):
            Scenario(**series)

    def test_first_non_finite_hour_is_named(self):
        loads = np.full((6, 3), 10.0)
        loads[5, 0] = loads[2, 1] = np.nan
        with pytest.raises(ValueError, match="hour 2$"):
            Scenario(p_re=np.full(6, 50.0), loads=loads)

    @pytest.mark.parametrize("p_re, loads", [
        ((6,), (4, 3)),
        ((4,), (4, 2)),
        ((4, 1), (4, 3)),
    ], ids=["loads-shorter-than-p_re", "two-tiers", "column-p_re"])
    def test_wrong_shapes_refused_naming_both(self, p_re, loads):
        """Made, each would fail only inside train or evaluate_policy,
        with a NumPy broadcast or reshape error; a column p_re would give
        a (4, 9) feature matrix."""
        with pytest.raises(ValueError, match=re.escape(
                f"p_re must be (horizon,) and loads (horizon, 3), "
                f"got {p_re} and {loads}")):
            Scenario(p_re=np.full(p_re, 50.0), loads=np.full(loads, 10.0))

    def test_empty_scenario_refused(self):
        with pytest.raises(ValueError, match="^cannot run an episode on an "
                                             "empty scenario$"):
            Scenario(p_re=np.empty(0), loads=np.empty((0, 3)))


class TestScenarioConfig:
    def test_defaults_validate(self):
        ScenarioConfig()

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(horizon_steps=0), "horizon_steps"),
        (dict(rng_seed=-1), "rng_seed"),
        (dict(start_hour=24), "start_hour"),
        (dict(cyclone_window=(400, 300)), "cyclone_window"),
        (dict(cyclone_window=(0, 1000)), "cyclone_window"),
        (dict(cyclone_depression=1.5), "cyclone_depression"),
        (dict(solar_capacity_kw=-1.0), "capacities"),
        (dict(base_loads_kw=(1.0, -2.0, 3.0)), "base_loads_kw"),
        (dict(solar_capacity_kw=2e6), "solar_capacity_kw"),
        (dict(wind_capacity_kw=MAX_KW), "wind_capacity_kw"),
        # Means summing to 0.9 MW peak above 1 MW: shapes times noise.
        (dict(base_loads_kw=(5e5, 3e5, 1e5)), "base_loads_kw"),
    ])
    def test_rejects_bad_fields(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generator_near_the_kw_cap_writes_a_readable_scenario(
            self, tmp_path, seed):
        """Ratings a ScenarioConfig accepts give powers that the scenario
        reader accepts: generation and hourly total load within MAX_KW."""
        cfg = ScenarioConfig(solar_capacity_kw=MAX_KW - 80.0,
                             wind_capacity_kw=80.0,
                             base_loads_kw=(3e5, 2e5, 1.5e5), rng_seed=seed)
        path = tmp_path / "scenario.csv"
        write_scenario_csv(synth_cyclone_scenario(cfg), path)
        scn = load_scenario_csv(path)
        assert scn.p_re.max() <= MAX_KW
        assert scn.loads.sum(axis=1).max() > 0.8 * MAX_KW


class TestSynthCycloneScenario:
    def test_shapes_and_positivity(self):
        scn = synth_cyclone_scenario(ScenarioConfig())
        assert scn.horizon == 720
        assert scn.p_re.shape == (720,)
        assert scn.loads.shape == (720, 3)
        assert np.all(np.isfinite(scn.p_re))
        assert np.all(scn.p_re >= 0)
        assert np.all(scn.loads >= 0)
        assert np.all(np.isfinite(scn.loads))

    def test_deterministic_per_seed(self):
        a = synth_cyclone_scenario(ScenarioConfig(rng_seed=3))
        b = synth_cyclone_scenario(ScenarioConfig(rng_seed=3))
        c = synth_cyclone_scenario(ScenarioConfig(rng_seed=4))
        np.testing.assert_array_equal(a.p_re, b.p_re)
        np.testing.assert_array_equal(a.loads, b.loads)
        assert not np.array_equal(a.p_re, c.p_re)

    def test_night_hours_are_wind_only(self):
        cfg = ScenarioConfig()
        scn = synth_cyclone_scenario(cfg)
        # Hours 0-5 precede sunrise: everything must fit inside wind capacity.
        assert np.all(scn.p_re[:6] <= cfg.wind_capacity_kw + 1e-9)
        # Midday generation should exceed any pre-dawn hour on a calm day.
        assert scn.p_re[12] > scn.p_re[2]

    def test_storm_window_depresses_generation(self):
        cfg = ScenarioConfig()
        scn = synth_cyclone_scenario(cfg)
        calm = synth_cyclone_scenario(
            ScenarioConfig(cyclone_depression=0.0, cyclone_window=(0, 0)))
        start, end = cfg.cyclone_window
        assert scn.p_re[start:end].mean() < calm.p_re[start:end].mean()
        # Turbine cut-out: second half of the window has no wind, so any
        # remaining generation is dimmed solar.
        peak = (start + end) // 2
        dimmed_solar_max = cfg.solar_capacity_kw * (1 - cfg.cyclone_depression)
        assert np.all(scn.p_re[peak:end] <= dimmed_solar_max + 1e-9)

    def test_load_means_track_base_loads(self):
        cfg = ScenarioConfig(horizon_steps=720)
        scn = synth_cyclone_scenario(cfg)
        means = scn.loads.mean(axis=0)
        np.testing.assert_allclose(means, cfg.base_loads_kw, rtol=0.05)

    def test_start_hour_shifts_load_phase(self):
        midnight = synth_cyclone_scenario(ScenarioConfig(rng_seed=1))
        midday = synth_cyclone_scenario(
            ScenarioConfig(rng_seed=1, start_hour=12))
        # Business load at step 0 should be far higher when step 0 is noon;
        # +/-10% noise cannot close the gap between the two shape values.
        assert midday.loads[0, 1] > 2.0 * midnight.loads[0, 1]


class TestScenarioCsv:
    def test_round_trip_is_exact(self, tmp_path):
        scn = synth_cyclone_scenario(
            ScenarioConfig(horizon_steps=48, cyclone_window=(20, 32)))
        path = tmp_path / "scn.csv"
        write_scenario_csv(scn, path)
        back = load_scenario_csv(path)
        np.testing.assert_array_equal(scn.p_re, back.p_re)
        np.testing.assert_array_equal(scn.loads, back.loads)

    def test_header_text(self, tmp_path):
        path = tmp_path / "scn.csv"
        write_scenario_csv(synth_cyclone_scenario(
            ScenarioConfig(horizon_steps=2, cyclone_window=(0, 0))), path)
        assert path.read_text().splitlines()[0] == "t,p_re,l1,l2,l3"

    def test_all_zero_file(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("t,p_re,l1,l2,l3\n0,0,0,0,0\n1,0,0,0,0\n2,0,0,0,0\n")
        scn = load_scenario_csv(path)
        assert scn.horizon == 3
        assert np.all(scn.p_re == 0)
        assert np.all(scn.loads == 0)

    def test_identity_column(self, tmp_path):
        path = tmp_path / "id.csv"
        path.write_text("t,p_re,l1,l2,l3\n0,10,1,1,1\n1,20,1,1,1\n2,30,1,1,1\n")
        scn = load_scenario_csv(path)
        np.testing.assert_array_equal(scn.p_re, [10.0, 20.0, 30.0])

    def test_negative_value_names_row_and_column(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("t,p_re,l1,l2,l3\n0,5,1,1,1\n1,5,1,-5,1\n")
        with pytest.raises(TableError, match="data row 2, column l2"):
            load_scenario_csv(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,p_re,l1,l2,l3\n0,1,1,1,1\n")
        with pytest.raises(TableError, match="header"):
            load_scenario_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TableError, match="empty"):
            load_scenario_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t,p_re,l1,l2,l3\n0,1,1,1\n")
        with pytest.raises(TableError, match="data row 1"):
            load_scenario_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,p_re,l1,l2,l3\n0,abc,1,1,1\n")
        with pytest.raises(TableError,
                           match="data row 1, column p_re"):
            load_scenario_csv(path)

    def test_out_of_order_t(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,p_re,l1,l2,l3\n0,1,1,1,1\n2,1,1,1,1\n")
        with pytest.raises(TableError, match="data row 2, column t"):
            load_scenario_csv(path)
