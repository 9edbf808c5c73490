import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgrl.env import (
    EnvConfig,
    PRIORITY_WEIGHTS,
    resilience_index,
    scenario_rows,
    step,
    step_batch,
)
from mgrl.neural import make_policy, make_value
from mgrl.ppo import EnvBatch, collect_rollouts, evaluate_policy
from mgrl.scenario import Scenario, ScenarioConfig, synth_cyclone_scenario

from test_neural import raw_inputs

IDLE = (0.0, 0.0, 0.0, 0.0, 0.0)


def make_row(loads=(30.0, 20.0, 10.0), p_re=100.0):
    return (*loads, p_re, p_re - sum(loads))


def battery(soc, row, a_ch, a_dis, cfg=EnvConfig()):
    """(p_ch, p_dis, soc_next) of one step with equal allocation weights."""
    soc_next, p_ch, p_dis, *_ = step(cfg, row, soc, (a_ch, a_dis, 0, 0, 0))
    return p_ch, p_dis, soc_next


def softmax(w_raw):
    """Allocation of one unit of supply to zero loads: the softmax weights
    that step applies, exactly (each share is multiplied by 1.0)."""
    unit = make_row(loads=(0.0, 0.0, 0.0), p_re=1.0)
    return step(EnvConfig(), unit, 0.5, (0.0, 0.0, *w_raw))[4]


def allocate(p_supply, w_raw, loads):
    """(allocations, imbalances, shortages) with the battery idle."""
    out = step(EnvConfig(), make_row(loads, p_supply), 0.5,
               (0.0, 0.0, *w_raw))
    assert out[3] == p_supply
    return out[4], out[5], out[6]


def small_scenario(horizon=24, seed=0):
    return synth_cyclone_scenario(ScenarioConfig(
        horizon_steps=horizon, cyclone_window=(horizon // 2, horizon // 2),
        rng_seed=seed))


class TestEnvConfig:
    def test_defaults_validate(self):
        EnvConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        dict(soc_min=0.0),
        dict(soc_min=0.9, soc_max=0.2),
        dict(eta_ch=0.0),
        dict(eta_dis=1.5),
        dict(e_max_kwh=0.0),
        dict(p_conv_kw=-1.0),
        dict(reward_weights=(1.0, 2.0, 3.0)),
        dict(reward_weights=(1.0, -1.0, -5.0)),
        dict(init_soc_range=(0.1, 0.5)),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            EnvConfig(**kwargs).validate()


class TestReset:
    def test_degenerate_range_is_exact(self):
        cfg = EnvConfig(init_soc_range=(0.5, 0.5))
        assert cfg.initial_soc(np.random.default_rng(42)) == 0.5

    def test_net_power_from_scenario_row(self):
        scn = Scenario(p_re=np.array([100.0]),
                       loads=np.array([[30.0, 20.0, 10.0]]))
        assert scenario_rows(scn) == ((30.0, 20.0, 10.0, 100.0, 40.0),)

    def test_same_seed_same_state(self):
        cfg = EnvConfig()
        assert (cfg.initial_soc(np.random.default_rng(7))
                == cfg.initial_soc(np.random.default_rng(7)))

    def test_soc_within_init_range(self):
        cfg = EnvConfig(init_soc_range=(0.3, 0.4))
        for seed in range(20):
            assert 0.3 <= cfg.initial_soc(np.random.default_rng(seed)) <= 0.4

    def test_empty_scenario_rejected(self):
        scn = Scenario(p_re=np.empty(0), loads=np.empty((0, 3)))
        with pytest.raises(ValueError):
            scenario_rows(scn)


class TestNormalizeWeights:
    def test_symmetry(self):
        assert softmax((0.0, 0.0, 0.0)) == (1 / 3, 1 / 3, 1 / 3)

    def test_known_values(self):
        w = softmax((1.0, 0.0, -1.0))
        np.testing.assert_allclose(w, (0.66524, 0.24473, 0.09003), atol=1e-5)

    @given(st.floats(-30.0, 30.0))
    def test_shift_invariance(self, c):
        assert softmax((c, c, c)) == (1 / 3, 1 / 3, 1 / 3)

    @given(st.tuples(*[st.floats(-30.0, 30.0)] * 3))
    def test_sums_to_one_and_positive(self, w_raw):
        w = softmax(w_raw)
        assert all(x > 0 for x in w)
        assert abs(sum(w) - 1.0) <= 1e-12

    @given(st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    def test_wide_inputs_still_sum_to_one(self, w_raw):
        w = softmax(w_raw)
        assert all(x >= 0 for x in w)
        assert abs(sum(w) - 1.0) <= 1e-12

    def test_extreme_inputs_stay_finite(self):
        w = softmax((700.0, -700.0, 0.0))
        assert all(math.isfinite(x) for x in w)
        assert abs(sum(w) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [(math.nan, 0, 0), (0, math.inf, 0)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            step(EnvConfig(), make_row(), 0.5, (0.0, 0.0, *bad))


class TestApplyBattery:
    def test_full_charge_hand_case(self):
        row = make_row(loads=(0.0, 0.0, 0.0), p_re=200.0)
        p_ch, p_dis, soc = battery(0.5, row, 1.0, 0.0)
        assert p_ch == 52.0
        assert p_dis == 0.0
        assert soc == 0.5 + 0.9 * 52.0 / 780.0  # = 0.56 exactly

    def test_full_discharge_hand_case(self):
        row = make_row(loads=(200.0, 0.0, 0.0), p_re=0.0)
        p_ch, p_dis, soc = battery(0.5, row, 0.0, 1.0)
        assert p_dis == 52.0
        assert p_ch == 0.0
        assert soc == 0.5 - (52.0 / 0.95) / 780.0  # ~ 0.42982

    def test_idle_is_fixed_point(self):
        assert battery(0.37, make_row(), 0.0, 0.0) == (0.0, 0.0, 0.37)

    def test_negative_actions_request_nothing(self):
        p_ch, p_dis, _ = battery(0.5, make_row(), -0.5, -1.0)
        assert (p_ch, p_dis) == (0.0, 0.0)

    def test_full_battery_cannot_charge(self):
        row = make_row(loads=(0.0, 0.0, 0.0), p_re=100.0)
        p_ch, _, soc = battery(0.9, row, 1.0, 0.0)
        assert p_ch == 0.0
        assert soc == 0.9

    def test_empty_battery_cannot_discharge(self):
        row = make_row(loads=(100.0, 0.0, 0.0), p_re=0.0)
        _, p_dis, soc = battery(0.2, row, 0.0, 1.0)
        assert p_dis == 0.0
        assert soc == 0.2

    def test_surplus_caps_charging(self):
        row = make_row(loads=(90.0, 0.0, 0.0), p_re=100.0)
        p_ch, _, _ = battery(0.5, row, 1.0, 0.0)
        assert p_ch == 10.0

    def test_deficit_caps_discharging(self):
        row = make_row(loads=(110.0, 0.0, 0.0), p_re=100.0)
        _, p_dis, _ = battery(0.5, row, 0.0, 1.0)
        assert p_dis == 10.0

    def test_mutual_exclusion_by_net_sign(self):
        surplus = make_row(loads=(10.0, 0.0, 0.0), p_re=100.0)
        p_ch, p_dis, _ = battery(0.5, surplus, 1.0, 1.0)
        assert p_ch > 0.0 and p_dis == 0.0
        deficit = make_row(loads=(100.0, 0.0, 0.0), p_re=10.0)
        p_ch, p_dis, _ = battery(0.5, deficit, 1.0, 1.0)
        assert p_ch == 0.0 and p_dis > 0.0
        balanced = make_row(loads=(50.0, 0.0, 0.0), p_re=50.0)
        p_ch, p_dis, _ = battery(0.5, balanced, 1.0, 1.0)
        assert p_ch == 0.0 and p_dis == 0.0

    def test_headroom_charges_exactly_to_max(self):
        cfg = EnvConfig()
        row = make_row(loads=(0.0, 0.0, 0.0), p_re=200.0)
        p_ch, _, soc = battery(0.89, row, 1.0, 0.0, cfg)
        assert 0.0 < p_ch < cfg.p_conv_kw
        assert soc == cfg.soc_max

    @given(soc=st.floats(0.2, 0.9),
           a_ch=st.floats(-1, 1), a_dis=st.floats(-1, 1),
           p_re=st.floats(0, 300), load=st.floats(0, 300))
    @settings(max_examples=200)
    def test_flows_feasible_and_soc_reproducible(self, soc, a_ch, a_dis,
                                                 p_re, load):
        cfg = EnvConfig()
        row = make_row(loads=(load, 0.0, 0.0), p_re=p_re)
        p_ch, p_dis, soc_next = battery(soc, row, a_ch, a_dis, cfg)
        assert p_ch >= 0.0 and p_dis >= 0.0
        assert p_ch * p_dis == 0.0
        assert cfg.soc_min <= soc_next <= cfg.soc_max
        # SOC recomputed independently from the reported flows.
        expect = soc + (cfg.eta_ch * p_ch - p_dis / cfg.eta_dis) / cfg.e_max_kwh
        assert abs(soc_next - expect) <= 1e-12


class TestAllocatePower:
    def test_hand_case(self):
        alloc, imb, short = allocate(90.0, (0.0, 0.0, 0.0),
                                     (60.0, 20.0, 10.0))
        assert alloc == (30.0, 30.0, 30.0)
        assert imb == (-30.0, 10.0, 20.0)
        assert short == (30.0, 0.0, 0.0)

    def test_zero_supply_shorts_everything(self):
        _, _, short = allocate(0.0, (0.0, 0.0, 0.0), (5.0, 6.0, 7.0))
        assert short == (5.0, 6.0, 7.0)

    def test_exact_match_has_no_shortage(self):
        alloc, imb, short = allocate(90.0, (0.0, 0.0, 0.0),
                                     (30.0, 30.0, 30.0))
        assert short == (0.0, 0.0, 0.0)
        assert imb == (0.0, 0.0, 0.0)

    @given(p_supply=st.floats(0, 500),
           w=st.tuples(*[st.floats(-5, 5)] * 3),
           loads=st.tuples(*[st.floats(0, 200)] * 3))
    @settings(max_examples=200)
    def test_allocations_sum_to_supply(self, p_supply, w, loads):
        alloc, imb, short = allocate(p_supply, w, loads)
        assert abs(sum(alloc) - p_supply) <= 1e-9 * max(1.0, p_supply)
        for a, l, i, s in zip(alloc, loads, imb, short):
            assert i == a - l
            assert s == max(0.0, -i)
            assert 0.0 <= s <= max(l, 0.0) + 1e-12


class TestStepReward:
    def test_no_shortage_is_one(self):
        row = make_row(loads=(5.0, 5.0, 5.0), p_re=300.0)
        assert step(EnvConfig(), row, 0.5, IDLE)[7] == 1.0

    def test_total_shortage_is_zero(self):
        row = make_row(loads=(10.0, 20.0, 30.0), p_re=0.0)
        assert step(EnvConfig(), row, 0.2, (0.0, 1.0, 0.0, 0.0, 0.0))[7] == 0.0

    def test_weighted_hand_case(self):
        r = resilience_index((0.0, 10.0, 10.0), (10.0, 10.0, 10.0),
                             EnvConfig().reward_weights)
        assert r == 0.7  # 1 - (2*10 + 1*10)/100, exact in binary floats

    def test_all_zero_loads_convention(self):
        row = make_row(loads=(0.0, 0.0, 0.0), p_re=0.0)
        assert step(EnvConfig(), row, 0.5, IDLE)[7] == 1.0

    @given(loads=st.tuples(*[st.floats(0, 100)] * 3),
           fracs=st.tuples(*[st.floats(0, 1)] * 3))
    @settings(max_examples=200)
    def test_bounded(self, loads, fracs):
        shorts = tuple(f * l for f, l in zip(fracs, loads))
        r = resilience_index(shorts, loads, PRIORITY_WEIGHTS)
        assert 0.0 <= r <= 1.0


class TestStep:
    def test_balanced_zero_action_rewards_one(self):
        """Generation exactly covers loads and weights match shares."""
        loads = (50.0, 30.0, 20.0)
        # Raw weights whose softmax equals the load shares.
        w_raw = tuple(math.log(l / 100.0) for l in loads)
        out = step(EnvConfig(), make_row(loads, 100.0), 0.5,
                   (0.0, 0.0, *w_raw))
        assert out[7] == pytest.approx(1.0, abs=1e-12)
        assert out[0] == 0.5

    def test_no_resources_rewards_zero(self):
        row = make_row(loads=(40.0, 10.0, 5.0), p_re=0.0)
        _, _, p_dis, _, _, _, _, reward = step(
            EnvConfig(), row, 0.2, (0.0, 1.0, 0.0, 0.0, 0.0))
        assert p_dis == 0.0
        assert reward == 0.0

    def test_supply_identity_and_done(self):
        scn = small_scenario(horizon=3)
        cfg = EnvConfig()
        rows = scenario_rows(scn)
        soc = 0.5
        rng = np.random.default_rng(0)
        for row in rows:
            soc, p_ch, p_dis, p_supply, *_ = step(
                cfg, row, soc, tuple(rng.uniform(-1, 1, 5)))
            assert p_supply == row[3] + p_dis - p_ch
        # An episode is the row table: there is no hour past the horizon.
        assert len(rows) == 3
        with pytest.raises(IndexError):
            rows[3]


def bits(x):
    """The IEEE bit patterns of a float or float array, so that zero signs
    and NaN payloads count in a comparison."""
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


# Exact action edges (the clip bounds and both zeros) next to the interior;
# step reads a NaN battery request as no request.
UNIT = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), st.floats(-1, 1))
REQUEST = st.one_of(UNIT, st.just(math.nan))


@st.composite
def batch_hours(draw, kind):
    """(cfg, row, socs, actions) for step_batch: a scenario hour of the
    given kind, 1-8 envs, SOCs at and inside the band edges, actions at
    the clip edges and allocation weights of any finite spread."""
    w3 = draw(st.floats(0, 10))
    d2, d1 = draw(st.floats(1e-3, 10)), draw(st.floats(1e-3, 10))
    cfg = EnvConfig(reward_weights=(w3 + d2 + d1, w3 + d2, w3))
    cfg.validate()
    if kind == "no-load":
        loads = (0.0, 0.0, 0.0)
    else:
        loads = draw(st.tuples(*[st.one_of(st.just(0.0), st.floats(1, 500))]
                               * 2, st.floats(1, 500)))
    total = loads[0] + loads[1] + loads[2]
    p_re = {"no-load": draw(st.floats(0, 300)),
            "surplus": total + draw(st.floats(1e-6, 300)),
            "balanced": total,
            "deficit": total * draw(st.floats(0, 0.99))}[kind]
    row = make_row(loads, p_re)
    n = draw(st.integers(1, 8))
    socs = draw(st.lists(st.one_of(st.sampled_from([cfg.soc_min,
                                                    cfg.soc_max]),
                                   st.floats(cfg.soc_min, cfg.soc_max)),
                         min_size=n, max_size=n))
    weight = st.one_of(UNIT, st.floats(allow_nan=False,
                                       allow_infinity=False))
    actions = draw(st.lists(st.tuples(REQUEST, REQUEST, weight, weight,
                                      weight),
                            min_size=n, max_size=n))
    return cfg, row, socs, actions


class TestStepBatch:
    """step_batch is step on arrays: the same bits per env."""

    @pytest.mark.parametrize("kind",
                             ["no-load", "surplus", "balanced", "deficit"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_step_per_env(self, kind, data):
        cfg, row, socs, actions = data.draw(batch_hours(kind))
        assert {"no-load": row[:3] == (0.0, 0.0, 0.0),
                "surplus": row[4] > 0.0,
                "balanced": row[4] == 0.0,
                "deficit": row[4] < 0.0}[kind]
        soc_next, short, reward = step_batch(cfg, row, np.array(socs),
                                             np.array(actions))
        assert soc_next.shape == reward.shape == (len(socs),)
        assert short.shape == (len(socs), 3)
        for i, (soc, action) in enumerate(zip(socs, actions)):
            ref = step(cfg, row, soc, action)
            assert bits(soc_next[i]) == bits(ref[0])
            assert bits(short[i]) == bits(ref[6])
            assert bits(reward[i]) == bits(ref[7])

    def test_weight_spread_beyond_float_range(self):
        """An offset that overflows to -inf gives share 0.0 in both, and
        step_batch warns no more than step (warnings fail the suite)."""
        action = [0.0, 0.0, -1.7976931348623157e308, 1.7976931348623157e308,
                  0.0]
        ref = step(EnvConfig(), make_row(), 0.5, action)
        soc_next, short, reward = step_batch(EnvConfig(), make_row(),
                                             np.array([0.5]),
                                             np.array([action]))
        assert bits(short[0]) == bits(ref[6])
        assert bits(reward[0]) == bits(ref[7])

    @given(n=st.integers(1, 6), env=st.integers(0, 5), dim=st.integers(2, 4),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_weight_raises_like_step(self, n, env, dim, bad):
        actions = np.zeros((n, 5))
        actions[env % n, dim] = bad
        with pytest.raises(ValueError) as scalar:
            step(EnvConfig(), make_row(), 0.5, actions[env % n].tolist())
        with pytest.raises(ValueError) as batch:
            step_batch(EnvConfig(), make_row(), np.full(n, 0.5), actions)
        assert str(batch.value) == str(scalar.value)


class TestMicrogridEnv:
    """Episode accounting of the rollout loops over step."""

    def test_summary_matches_brute_force(self):
        """Accumulated episode stats equal a from-scratch recomputation."""
        scn = small_scenario(horizon=30, seed=2)
        cfg = EnvConfig()
        policy = make_policy(6, 5, (8,), np.random.default_rng(5),
                             *raw_inputs(6))
        ev = evaluate_policy(policy, cfg, scn, deterministic=False, seed=6)
        summary, traj = ev.summaries[0], ev.trajectory

        sh = traj.shortages.sum(axis=0)
        ld = traj.loads.sum(axis=0)
        w = np.array(cfg.reward_weights)
        ri = 1.0 - (w @ sh) / (w @ ld)
        rewards = traj.reward.tolist()
        assert summary.steps == 30
        assert abs(summary.reward_sum - sum(rewards)) <= 1e-12
        assert abs(summary.ri - ri) <= 1e-12
        expect = (sum(rewards) + ri) / (30 + 1)
        assert abs(summary.reward_final_norm - expect) <= 1e-12

    def test_reset_clears_accumulators(self):
        scn = small_scenario(horizon=5)
        policy = make_policy(6, 5, (8,), np.random.default_rng(0),
                             *raw_inputs(6))
        value = make_value(6, (8,), np.random.default_rng(1), *raw_inputs(6))
        envs = EnvBatch(EnvConfig(), scn, 1, seed=0)
        buf = collect_rollouts(policy, value, envs, 10,
                               np.random.default_rng(2))
        first, second = buf.episode_summaries
        assert second.steps == first.steps == 5
        assert second.reward_sum == pytest.approx(buf.rewards[5:, 0].sum(),
                                                  abs=1e-12)

    def test_normalized_reward_in_unit_interval(self):
        scn = small_scenario(horizon=12, seed=9)
        policy = make_policy(6, 5, (8,), np.random.default_rng(1),
                             *raw_inputs(6))
        ev = evaluate_policy(policy, EnvConfig(), scn, n_episodes=3,
                             deterministic=False, seed=2)
        for summary in ev.summaries:
            assert 0.0 <= summary.reward_final_norm <= 1.0
