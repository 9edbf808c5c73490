import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgrl.env import (
    EnvConfig,
    PRIORITY_WEIGHTS,
    allocate,
    resilience_index,
    scenario_rows,
    step,
    summarize_episode,
)
from mgrl.neural import make_policy, mlp_init
from mgrl.ppo import EnvBatch, collect_rollouts, evaluate_policy
from mgrl.scenario import Scenario, ScenarioConfig, synth_cyclone_scenario

from test_neural import raw_inputs
from test_trajectory import make_trajectory

IDLE = (0.0, 0.0, 0.0, 0.0, 0.0)


def make_row(loads=(30.0, 20.0, 10.0), p_re=100.0):
    return (*loads, p_re, p_re - sum(loads))


def battery(soc, row, a_ch, a_dis, cfg=EnvConfig()):
    """(p_ch, p_dis, soc_next) of one step with equal allocation weights."""
    soc_next, p_ch, p_dis, *_ = step(cfg, row, soc, (a_ch, a_dis, 0, 0, 0))
    return p_ch, p_dis, soc_next


def split(p_supply, w_raw, loads, cfg=EnvConfig()):
    """One supply's (allocations, imbalances, shortages) as tuples and its
    reward as a float, from a one-row allocate call."""
    alloc, imb, short, reward = allocate(cfg, np.array(loads),
                                         np.array([p_supply]),
                                         np.array([w_raw], dtype=float))
    return (tuple(alloc[0].tolist()), tuple(imb[0].tolist()),
            tuple(short[0].tolist()), float(reward[0]))


def softmax(w_raw):
    """Allocation of one unit of supply to zero loads: the softmax weights
    that allocate applies, exactly (each share is multiplied by 1.0)."""
    return split(1.0, w_raw, (0.0, 0.0, 0.0))[0]


def hour(row, soc=0.5, action=IDLE, cfg=EnvConfig()):
    """One whole hour: step moves the battery, then allocate splits its
    supply.  Returns (soc_next, p_ch, p_dis, p_supply, allocations,
    imbalances, shortages, reward), the per-tier values as tuples."""
    soc_next, p_ch, p_dis, p_supply = step(cfg, row, soc, action)
    return (soc_next, p_ch, p_dis, p_supply,
            *split(p_supply, action[2:], row[:3], cfg))


def small_scenario(horizon=24, seed=0):
    return synth_cyclone_scenario(ScenarioConfig(
        horizon_steps=horizon, cyclone_window=(horizon // 2, horizon // 2),
        rng_seed=seed))


class TestEnvConfig:
    def test_defaults_validate(self):
        EnvConfig()

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
            EnvConfig(**kwargs)


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
        with pytest.raises(ValueError, match="empty scenario"):
            Scenario(p_re=np.empty(0), loads=np.empty((0, 3)))


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
            split(90.0, bad, (30.0, 20.0, 10.0))


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
        alloc, imb, short, _ = split(90.0, (0.0, 0.0, 0.0),
                                     (60.0, 20.0, 10.0))
        assert alloc == (30.0, 30.0, 30.0)
        assert imb == (-30.0, 10.0, 20.0)
        assert short == (30.0, 0.0, 0.0)

    def test_zero_supply_shorts_everything(self):
        _, _, short, _ = split(0.0, (0.0, 0.0, 0.0), (5.0, 6.0, 7.0))
        assert short == (5.0, 6.0, 7.0)

    def test_exact_match_has_no_shortage(self):
        alloc, imb, short, _ = split(90.0, (0.0, 0.0, 0.0),
                                     (30.0, 30.0, 30.0))
        assert short == (0.0, 0.0, 0.0)
        assert imb == (0.0, 0.0, 0.0)

    @given(p_supply=st.floats(0, 500),
           w=st.tuples(*[st.floats(-5, 5)] * 3),
           loads=st.tuples(*[st.floats(0, 200)] * 3))
    @settings(max_examples=200)
    def test_allocations_sum_to_supply(self, p_supply, w, loads):
        alloc, imb, short, _ = split(p_supply, w, loads)
        assert abs(sum(alloc) - p_supply) <= 1e-9 * max(1.0, p_supply)
        for a, l, i, s in zip(alloc, loads, imb, short):
            assert i == a - l
            assert s == max(0.0, -i)
            assert 0.0 <= s <= max(l, 0.0) + 1e-12


class TestStepReward:
    def test_no_shortage_is_one(self):
        row = make_row(loads=(5.0, 5.0, 5.0), p_re=300.0)
        assert hour(row)[7] == 1.0

    def test_total_shortage_is_zero(self):
        row = make_row(loads=(10.0, 20.0, 30.0), p_re=0.0)
        assert hour(row, 0.2, (0.0, 1.0, 0.0, 0.0, 0.0))[7] == 0.0

    def test_weighted_hand_case(self):
        r = resilience_index((0.0, 10.0, 10.0), (10.0, 10.0, 10.0),
                             EnvConfig().reward_weights)
        assert r == 0.7  # 1 - (2*10 + 1*10)/100, exact in binary floats

    def test_all_zero_loads_convention(self):
        row = make_row(loads=(0.0, 0.0, 0.0), p_re=0.0)
        assert hour(row)[7] == 1.0

    def test_zero_demand_maps_to_one_per_element(self):
        """Hours or envs as columns; a zero-demand column divides by
        nothing, so no warning (warnings fail the suite)."""
        loads = np.array([[0.0, 10.0], [0.0, 10.0], [0.0, 10.0]])
        shorts = np.array([[0.0, 0.0], [0.0, 10.0], [0.0, 10.0]])
        r = resilience_index(shorts, loads, PRIORITY_WEIGHTS)
        assert r.tolist() == [1.0, 0.7]

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
        # Raw weights in [-1, 1] whose softmax equals the load shares.
        w_raw = tuple(math.log(l / max(loads)) for l in loads)
        out = hour(make_row(loads, 100.0), 0.5, (0.0, 0.0, *w_raw))
        assert out[7] == pytest.approx(1.0, abs=1e-12)
        assert out[0] == 0.5

    def test_no_resources_rewards_zero(self):
        row = make_row(loads=(40.0, 10.0, 5.0), p_re=0.0)
        _, _, p_dis, _, _, _, _, reward = hour(
            row, 0.2, (0.0, 1.0, 0.0, 0.0, 0.0))
        assert p_dis == 0.0
        assert reward == 0.0

    def test_supply_identity_and_done(self):
        scn = small_scenario(horizon=3)
        cfg = EnvConfig()
        rows = scenario_rows(scn)
        soc = 0.5
        rng = np.random.default_rng(0)
        for row in rows:
            soc, p_ch, p_dis, p_supply = step(
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
    """(cfg, row, socs, actions) for step on n SOCs: a scenario hour of
    the given kind (no load at either zero of generation), 1-8 envs, SOCs
    at and inside the band edges and battery requests at the clip edges
    (the weights, which step ignores, 0)."""
    cfg = EnvConfig()
    if kind == "no-load":
        loads = (0.0, 0.0, 0.0)
    else:
        loads = draw(st.tuples(*[st.one_of(st.just(0.0), st.floats(1, 500))]
                               * 2, st.floats(1, 500)))
    total = loads[0] + loads[1] + loads[2]
    # A hand-written scenario can hold -0.0, where p_re + 0.0 is +0.0.
    p_re = {"no-load": draw(st.one_of(st.just(-0.0), st.floats(0, 300))),
            "surplus": total + draw(st.floats(1e-6, 300)),
            "balanced": total,
            "deficit": total * draw(st.floats(0, 0.99))}[kind]
    row = make_row(loads, p_re)
    n = draw(st.integers(1, 8))
    socs = draw(st.lists(st.one_of(st.sampled_from([cfg.soc_min,
                                                    cfg.soc_max]),
                                   st.floats(cfg.soc_min, cfg.soc_max)),
                         min_size=n, max_size=n))
    actions = draw(st.lists(st.tuples(REQUEST, REQUEST, *[st.just(0.0)] * 3),
                            min_size=n, max_size=n))
    return cfg, row, socs, actions


def scalar_battery(cfg, row, soc, action):
    """One SOC's battery move in Python floats, both sides computed: both
    requests, mutual exclusion by the sign of p_net, the converter rating,
    both SOC headrooms and the surplus and deficit caps, then the SOC
    update, its clip and the supply."""
    p_re, p_net = row[3], row[4]
    p_ch_req = max(0.0, action[0]) * cfg.p_conv_kw
    p_dis_req = max(0.0, action[1]) * cfg.p_conv_kw
    if p_net >= 0:
        p_dis_req = 0.0
    else:
        p_ch_req = 0.0
    headroom_ch = max(0.0, cfg.soc_max - soc) * cfg.e_max_kwh / cfg.eta_ch
    headroom_dis = max(0.0, soc - cfg.soc_min) * cfg.e_max_kwh * cfg.eta_dis
    p_ch = min(p_ch_req, cfg.p_conv_kw, headroom_ch, max(0.0, p_net))
    p_dis = min(p_dis_req, cfg.p_conv_kw, headroom_dis, max(0.0, -p_net))
    soc_next = soc + (cfg.eta_ch * p_ch - p_dis / cfg.eta_dis) / cfg.e_max_kwh
    soc_next = min(max(soc_next, cfg.soc_min), cfg.soc_max)
    return soc_next, p_ch, p_dis, p_re + p_dis - p_ch


class TestStepOnFloatsAndArrays:
    """step is one battery body: on (n,) arrays and on floats, each env's
    move is scalar_battery's, bit for bit."""

    @pytest.mark.parametrize("kind",
                             ["no-load", "surplus", "balanced", "deficit"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_battery_per_env(self, kind, data):
        cfg, row, socs, actions = data.draw(batch_hours(kind))
        assert {"no-load": row[:3] == (0.0, 0.0, 0.0),
                "surplus": row[4] > 0.0,
                "balanced": row[4] == 0.0,
                "deficit": row[4] < 0.0}[kind]
        # The rollout's layout: the requests are rows of the transposed
        # (n, N_ACTIONS) actions, strided views.
        out = step(cfg, row, np.array(socs), np.array(actions).T)
        # The flow that the sign of p_net rules out is the float 0.0.
        idle = 2 if row[4] >= 0.0 else 1
        assert type(out[idle]) is float
        assert [np.shape(a) for k, a in enumerate(out) if k != idle] == \
            [(len(socs),)] * 3
        for i, (soc, action) in enumerate(zip(socs, actions)):
            want = bits(scalar_battery(cfg, row, soc, action))
            got = [a if k == idle else a[i] for k, a in enumerate(out)]
            assert bits(got) == want
            one = step(cfg, row, soc, action)
            assert [type(a) for a in one] == [float] * 4
            assert bits(one) == want

    @pytest.mark.parametrize("p_re", [200.0, 60.0, 0.0],
                             ids=["surplus", "zero-net", "deficit"])
    def test_request_beyond_the_range_steps_as_its_clip(self, p_re):
        """step's rating cap is the battery requests' clamp: a request
        beyond [-1, 1] (or -0.0 or NaN) moves the battery, bit for bit, as
        its clip does, in the float form and the array form, at SOCs where
        the rating or the headroom binds."""
        cfg = EnvConfig()
        row = make_row((30.0, 20.0, 10.0), p_re)  # p_net 140, 0 or -60 kW
        beyond = [1.0 + 2.0 ** -52, 1.3, 40.0, -1.0 - 2.0 ** -52, -3.0,
                  -0.0, math.nan]
        pairs = [(a, b) for a in beyond for b in beyond]
        clipped = np.clip(np.array(pairs), -1.0, 1.0)
        for soc in (cfg.soc_min, 0.5, cfg.soc_max):
            socs = np.full(len(pairs), soc)
            got = step(cfg, row, socs, np.array(pairs).T)
            want = step(cfg, row, socs, clipped.T)
            assert [bits(a) for a in got] == [bits(a) for a in want]
            for pair, one in zip(pairs, clipped.tolist()):
                assert bits(step(cfg, row, soc, pair)) == \
                    bits(step(cfg, row, soc, one))
        if row[4] != 0.0:  # the rating binds a request above 1 at mid SOC
            flow = step(cfg, row, 0.5, (1.3, 1.3))[1 if row[4] > 0 else 2]
            assert flow == cfg.p_conv_kw


def scalar_allocation(cfg, loads, p_supply, w):
    """One supply's allocate outputs in Python floats, tier by tier: the
    weights clipped to [-1, 1], the max-subtracted softmax split,
    imbalances, shortages and reward."""
    w = [min(max(x, -1.0), 1.0) for x in w]
    m = max(w)
    e = [math.exp(x - m) for x in w]
    s = e[0] + e[1] + e[2]
    alloc = [x / s * p_supply for x in e]
    imb = [a - l for a, l in zip(alloc, loads)]
    short = [-min(0.0, i) for i in imb]
    w1, w2, w3 = cfg.reward_weights
    demand = w1 * loads[0] + w2 * loads[1] + w3 * loads[2]
    unmet = w1 * short[0] + w2 * short[1] + w3 * short[2]
    return alloc, imb, short, 1.0 if demand == 0.0 else 1.0 - unmet / demand


@st.composite
def allocation_hours(draw):
    """(cfg, loads, supplies, weights) of 1-12 hours: any strictly
    decreasing reward weights, loads all zero or in kW, supplies from
    none to beyond the demand, allocation weights of any finite spread."""
    w3 = draw(st.floats(0, 10))
    d2, d1 = draw(st.floats(1e-3, 10)), draw(st.floats(1e-3, 10))
    cfg = EnvConfig(reward_weights=(w3 + d2 + d1, w3 + d2, w3))
    n = draw(st.integers(1, 12))
    load = st.one_of(st.just(0.0), st.floats(1, 500))
    loads = draw(st.lists(st.one_of(st.just((0.0, 0.0, 0.0)),
                                    st.tuples(load, load, load)),
                          min_size=n, max_size=n))
    supplies = draw(st.lists(st.one_of(st.just(0.0), st.floats(0, 2000)),
                             min_size=n, max_size=n))
    weight = st.one_of(UNIT, st.floats(allow_nan=False,
                                       allow_infinity=False))
    w = draw(st.lists(st.tuples(weight, weight, weight), min_size=n,
                      max_size=n))
    return cfg, np.array(loads), np.array(supplies), np.array(w)


class TestAllocate:
    """allocate is one array function: every row alone, and per element
    the scalar formula, bit for bit."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_one_row_calls(self, data):
        cfg, loads, supplies, w = data.draw(allocation_hours())
        out = allocate(cfg, loads, supplies, w)
        assert [a.shape for a in out] == [w.shape] * 3 + [supplies.shape]
        for t in range(len(w)):
            one = allocate(cfg, loads[t], supplies[t:t + 1], w[t:t + 1])
            assert [bits(a[t]) for a in out] == [bits(a[0]) for a in one]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_formula_per_row(self, data):
        cfg, loads, supplies, w = data.draw(allocation_hours())
        out = allocate(cfg, loads, supplies, w)
        for t in range(len(w)):
            ref = scalar_allocation(cfg, loads[t].tolist(), supplies[t],
                                    w[t].tolist())
            assert [bits(a[t]) for a in out] == [bits(r) for r in ref]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_weights_beyond_the_range_split_as_their_clip(self, data):
        """allocate clips the weights to [-1, 1] itself: any finite spread
        gives, bit for bit, what its clip gives, in one call and row by
        row."""
        cfg, loads, supplies, w = data.draw(allocation_hours())
        want = allocate(cfg, loads, supplies, np.clip(w, -1.0, 1.0))
        got = allocate(cfg, loads, supplies, w)
        assert [bits(a) for a in got] == [bits(a) for a in want]
        for t in range(len(w)):
            one = allocate(cfg, loads[t], supplies[t:t + 1], w[t:t + 1])
            assert [bits(a[0]) for a in one] == [bits(a[t]) for a in want]

    def test_edge_rows(self):
        """A zero-load hour pays exactly 1.0, a weight spread beyond the
        float range splits as its clip to [-1, 1] does, without a warning
        (warnings fail the suite), and a tier with no shortage reads -0.0,
        in one call and row by row."""
        cfg = EnvConfig()
        loads = np.array([[0.0, 0.0, 0.0], [30.0, 20.0, 10.0],
                          [30.0, 20.0, 10.0]])
        supplies = np.array([50.0, 90.0, 60.0])
        big = 1.7976931348623157e308
        w = np.array([[0.0, 0.0, 0.0], [-big, big, 0.0], [0.0, 0.0, 0.0]])
        alloc, imb, short, reward = allocate(cfg, loads, supplies, w)
        assert reward[0] == 1.0
        clipped = allocate(cfg, loads[1], supplies[1:2],
                           np.array([[-1.0, 1.0, 0.0]]))
        assert ([bits(a[1]) for a in (alloc, imb, short, reward)]
                == [bits(a[0]) for a in clipped])
        assert short[0].tolist() == [0.0] * 3
        assert short[1].tolist() == [30.0 - alloc[1, 0], 0.0, 0.0]
        assert short[2].tolist() == [10.0, 0.0, 0.0]
        assert np.signbit(short).tolist() == [[True] * 3,
                                              [False, True, True],
                                              [False, True, True]]
        for t in range(3):
            one = allocate(cfg, loads[t], supplies[t:t + 1], w[t:t + 1])
            assert (bits([alloc[t], imb[t], short[t]])
                    == bits([a[0] for a in one[:3]]))
            assert bits(reward[t]) == bits(one[3][0])

    @given(n=st.integers(1, 6), row=st.integers(0, 5), dim=st.integers(0, 2),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_weight_names_its_row(self, n, row, dim, bad):
        w = np.zeros((n, 3))
        w[row % n, dim] = bad
        with pytest.raises(ValueError) as err:
            allocate(EnvConfig(), np.ones(3), np.ones(n), w)
        assert str(err.value) == (f"non-finite allocation weights: "
                                  f"{w[row % n].tolist()}")


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
        assert len(rewards) == 30
        assert abs(summary.ri - ri) <= 1e-12
        expect = (sum(rewards) + ri) / (len(rewards) + 1)
        assert abs(summary.reward_final_norm - expect) <= 1e-12

    def test_reset_clears_accumulators(self):
        """The second episode's summary reads only its own five hours."""
        scn = small_scenario(horizon=5)
        policy = make_policy(6, 5, (8,), np.random.default_rng(0),
                             *raw_inputs(6))
        value = mlp_init([6, 8, 1], np.random.default_rng(1))
        envs = EnvBatch(EnvConfig(), scn, 1, seed=0)
        buf = collect_rollouts(policy, value, envs, 10,
                               np.random.default_rng(2))
        first, second = buf.episode_summaries
        assert buf.dones[:, 0].tolist() == ([0.0] * 4 + [1.0]) * 2
        assert second.reward_final_norm == pytest.approx(
            (buf.rewards[5:, 0].sum() + second.ri) / (5 + 1), abs=1e-12)

    def test_normalized_reward_in_unit_interval(self):
        scn = small_scenario(horizon=12, seed=9)
        policy = make_policy(6, 5, (8,), np.random.default_rng(1),
                             *raw_inputs(6))
        ev = evaluate_policy(policy, EnvConfig(), scn, n_episodes=3,
                             deterministic=False, seed=2)
        for summary in ev.summaries:
            assert 0.0 <= summary.reward_final_norm <= 1.0


class TestSummarizeEpisode:
    """The one reduction of an episode's hour log."""

    @staticmethod
    def brute_ri(shortages, loads, w):
        w = np.array(w)
        return 1.0 - (w @ shortages.sum(axis=0)) / (w @ loads.sum(axis=0))

    def test_matches_trajectory_brute_force(self):
        traj = make_trajectory(steps=25, seed=11)
        s = summarize_episode(EnvConfig(), traj.loads, traj.shortages,
                              traj.reward)
        assert type(s.ri) is float  # report.csv writes repr(ri)
        assert s.ri == pytest.approx(
            self.brute_ri(traj.shortages, traj.loads, PRIORITY_WEIGHTS),
            abs=1e-12)
        # Summed hour by hour from 0.0, as a running float total would.
        assert s.shortage_kwh == tuple(sum(col, 0.0)
                                       for col in traj.shortages.T.tolist())
        assert s.load_kwh == tuple(sum(col, 0.0)
                                   for col in traj.loads.T.tolist())
        assert s.reward_final_norm == (sum(traj.reward.tolist(), 0.0)
                                       + s.ri) / (25 + 1)

    def test_uses_the_given_weights(self):
        traj = make_trajectory(steps=25, seed=11)
        w = (10.0, 1.0, 0.1)
        got = summarize_episode(EnvConfig(reward_weights=w), traj.loads,
                                traj.shortages, traj.reward).ri
        assert got == pytest.approx(
            self.brute_ri(traj.shortages, traj.loads, w), abs=1e-12)
        assert got != summarize_episode(EnvConfig(), traj.loads,
                                        traj.shortages, traj.reward).ri

    def test_window_is_a_slice_of_the_hours(self):
        traj = make_trajectory(steps=40, seed=3)
        window = slice(12, 20)
        s = summarize_episode(EnvConfig(), traj.loads[window],
                              traj.shortages[window], traj.reward[window])
        assert s.ri == pytest.approx(
            self.brute_ri(traj.shortages[window], traj.loads[window],
                          PRIORITY_WEIGHTS), abs=1e-12)
        assert s.reward_final_norm == pytest.approx(
            (traj.reward[window].sum() + s.ri) / (8 + 1), abs=1e-12)

    def test_zero_demand_episode_is_perfect(self):
        s = summarize_episode(EnvConfig(), np.zeros((6, 3)), np.zeros((6, 3)),
                              np.ones(6))
        assert type(s.ri) is float
        assert s.ri == 1.0
        assert s.reward_final_norm == 1.0
        assert s.shortage_kwh == s.load_kwh == (0.0, 0.0, 0.0)
