import math

import numpy as np
import pytest

from mgrl.env import PRIORITY_WEIGHTS, resilience_index
from mgrl.ppo import TrainStats
from mgrl.metrics import (
    EXCEEDS_CALENDAR,
    TRAIN_CSV_HEADER,
    annualize_throughput,
    battery_throughput,
    estimate_battery_life,
    read_train_metrics_csv,
    resilience_report,
    reward_curve_summary,
    write_train_metrics_csv,
)
from test_trajectory import make_trajectory


class TestResilienceIndex:
    def test_weighted_hand_case(self):
        # weighted shortage 7*10+2*10+10 = 100 over weighted load
        # 7*50+2*50+50 = 500: exactly 0.8
        assert resilience_index((10.0, 10.0, 10.0), (50.0, 50.0, 50.0),
                                PRIORITY_WEIGHTS) == 0.8

    def test_no_shortage_is_perfect(self):
        assert resilience_index((0.0, 0.0, 0.0), (10.0, 20.0, 30.0),
                                PRIORITY_WEIGHTS) == 1.0

    def test_total_shortage_is_zero(self):
        loads = (12.0, 7.0, 3.0)
        assert resilience_index(loads, loads, PRIORITY_WEIGHTS) == 0.0

    def test_zero_demand_is_perfect(self):
        assert resilience_index((0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                                PRIORITY_WEIGHTS) == 1.0

    def test_monotone_in_each_shortage(self):
        loads = (40.0, 40.0, 40.0)
        base = resilience_index((5.0, 5.0, 5.0), loads, PRIORITY_WEIGHTS)
        for tier in range(3):
            worse = [5.0, 5.0, 5.0]
            worse[tier] += 1.0
            assert resilience_index(tuple(worse), loads,
                                    PRIORITY_WEIGHTS) < base

    def test_priority_ordering_of_equal_energy_shortfalls(self):
        loads = (40.0, 40.0, 40.0)
        tier_hit = [resilience_index(tuple(10.0 if i == t else 0.0
                                           for i in range(3)), loads,
                                     PRIORITY_WEIGHTS)
                    for t in range(3)]
        # losing essential load must hurt more than business, business
        # more than agricultural
        assert tier_hit[0] < tier_hit[1] < tier_hit[2]

    def test_custom_weights(self):
        assert resilience_index((1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                                weights=(1.0, 1.0, 1.0)) == 0.5


class TestResilienceReport:
    def test_matches_trajectory_brute_force(self):
        traj = make_trajectory(steps=25, seed=11)
        rep = resilience_report(traj, PRIORITY_WEIGHTS)
        sh = traj.shortages.sum(axis=0)
        ld = traj.loads.sum(axis=0)
        want = 1.0 - (7 * sh[0] + 2 * sh[1] + sh[2]) / \
            (7 * ld[0] + 2 * ld[1] + ld[2])
        assert rep.ri == pytest.approx(want, abs=1e-12)
        assert rep.shortage_sums == tuple(sh)
        assert rep.load_sums == tuple(ld)

    def test_uses_the_given_weights(self):
        traj = make_trajectory(steps=25, seed=11)
        w = np.array([10.0, 1.0, 0.1])
        want = 1.0 - (w @ traj.shortages.sum(axis=0)) / \
            (w @ traj.loads.sum(axis=0))
        rep = resilience_report(traj, tuple(w))
        assert rep.ri == pytest.approx(want, abs=1e-12)
        assert rep.ri != resilience_report(traj, PRIORITY_WEIGHTS).ri


class TestBatteryThroughput:
    def test_half_of_total_flow(self):
        assert battery_throughput([10.0, 0.0], [0.0, 20.0]) == 15.0

    def test_idle_battery_has_zero_throughput(self):
        assert battery_throughput(np.zeros(24), np.zeros(24)) == 0.0

    def test_charge_only_counts_half(self):
        assert battery_throughput([52.0], [0.0]) == 26.0


class TestAnnualize:
    def test_month_long_episode_scales_by_twelve_ish(self):
        got = annualize_throughput(1000.0, episode_hours=720.0)
        assert got == pytest.approx(1000.0 * 8760.0 / 720.0, rel=1e-12)

    def test_year_long_episode_is_identity(self):
        assert annualize_throughput(5000.0, 8760.0) == 5000.0

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            annualize_throughput(100.0, 0.0)


class TestBatteryLife:
    def test_reference_case_is_exact(self):
        est = estimate_battery_life(156000.0)
        assert est.lifetime_throughput_kwh == 3000.0 * 780.0
        assert est.estimated_years == 15.0
        assert est.describe() == "15.00 years"

    def test_years_inversely_proportional_to_throughput(self):
        a = estimate_battery_life(156000.0)
        b = estimate_battery_life(78000.0)
        assert b.estimated_years == 2.0 * a.estimated_years

    def test_never_cycled_returns_sentinel(self):
        est = estimate_battery_life(0.0)
        assert math.isinf(est.estimated_years)
        assert est.describe() == EXCEEDS_CALENDAR

    def test_custom_rating(self):
        est = estimate_battery_life(1000.0, rated_cycles=10.0, e_max=100.0)
        assert est.estimated_years == 1.0

    def test_negative_throughput_rejected(self):
        with pytest.raises(ValueError):
            estimate_battery_life(-1.0)


class TestRewardCurveSummary:
    def test_constant_curve_converges_immediately(self):
        s = reward_curve_summary(np.arange(12), np.full(12, 0.75))
        assert s.converged_at == 0
        assert s.final_value == 0.75
        assert s.last_quartile_mean == 0.75

    def test_rise_then_plateau(self):
        rewards = np.concatenate([np.zeros(5), np.ones(30)])
        s = reward_curve_summary(np.arange(35), rewards, window=5)
        assert s.converged_at != -1
        assert 5 <= s.converged_at <= 12  # after the jump, once the
        assert s.final_value == 1.0       # rolling window clears the zeros
        assert s.last_quartile_mean == 1.0

    def test_still_climbing_curve_converges_only_at_the_end(self):
        s = reward_curve_summary(np.arange(10), np.linspace(0.0, 1.0, 10),
                                 window=1)
        assert s.converged_at == 9

    def test_rolling_window_shorter_at_the_start(self):
        rewards = np.array([0.0, 1.0, 2.0, 3.0])
        s = reward_curve_summary(np.arange(4), rewards, window=3)
        np.testing.assert_allclose(s.rolling_mean, [0.0, 0.5, 1.0, 2.0])

    def test_band_is_relative_to_final_value(self):
        # small wobble around 0.5 stays inside a 2% relative band
        rewards = 0.5 + 0.004 * np.array([1, -1] * 10)
        s = reward_curve_summary(np.arange(20), rewards, window=1, band=0.02)
        assert s.converged_at == 0

    @pytest.mark.parametrize("updates,rewards", [
        (np.arange(3), np.zeros(4)),
        (np.arange(1), np.zeros(1)),
        (np.arange(3), np.array([0.0, math.nan, 1.0])),
    ])
    def test_bad_inputs_rejected(self, updates, rewards):
        with pytest.raises(ValueError):
            reward_curve_summary(updates, rewards)


class TestTrainMetricsCsv:
    def make_stats(self):
        return [
            TrainStats(update=0, mean_reward_norm=math.nan, ri=math.nan,
                       policy_loss=-0.01, value_loss=4.5, entropy=7.09,
                       clip_frac=0.0),
            TrainStats(update=1, mean_reward_norm=0.73125, ri=0.8019,
                       policy_loss=-0.0203, value_loss=1.25, entropy=7.01,
                       clip_frac=0.1875),
        ]

    def test_header_is_pinned(self, tmp_path):
        path = tmp_path / "m.csv"
        write_train_metrics_csv(self.make_stats(), path)
        first = path.read_text().splitlines()[0]
        assert first == "update,mean_reward_norm,RI,policy_loss," \
                        "value_loss,entropy,clip_frac"

    def test_round_trip_exact(self, tmp_path):
        stats = self.make_stats()
        path = tmp_path / "m.csv"
        write_train_metrics_csv(stats, path)
        back = read_train_metrics_csv(path)
        assert len(back) == 2
        assert back[1] == stats[1]
        assert back[0].update == 0
        assert math.isnan(back[0].mean_reward_norm)
        assert back[0].policy_loss == stats[0].policy_loss

    def test_no_numpy_reprs_leak(self, tmp_path):
        path = tmp_path / "m.csv"
        write_train_metrics_csv(self.make_stats(), path)
        assert "np.float64" not in path.read_text()

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("update,oops\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_train_metrics_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(TRAIN_CSV_HEADER) + "\n0,1.0,2.0\n")
        with pytest.raises(ValueError, match="ragged"):
            read_train_metrics_csv(path)

    def test_empty_log_round_trips(self, tmp_path):
        path = tmp_path / "m.csv"
        write_train_metrics_csv([], path)
        assert read_train_metrics_csv(path) == []
