import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from mgrl.env import (
    EnvConfig,
    N_ACTIONS,
    N_FEATURES,
    load_totals,
    scenario_rows,
    step,
    summarize_episode,
)
from mgrl.neural import (
    adam_init,
    adam_step,
    forward_policy,
    forward_value,
    gaussian_entropy,
    gaussian_log_prob,
    load_checkpoint,
    make_policy,
    make_value,
    normalize,
    pack_params,
    policy_params,
    sample_action,
    save_checkpoint,
    value_params,
)
from mgrl.ppo import (
    EnvBatch,
    PpoConfig,
    TrainingDivergedError,
    UpdateWorkspace,
    clipped_policy_loss,
    collect_rollouts,
    compute_gae,
    evaluate_policy,
    obs_stats_from_scenario,
    ppo_loss_and_grads,
    total_loss,
    train,
    value_loss,
)
from mgrl.scenario import Scenario, ScenarioConfig, synth_cyclone_scenario
from mgrl.seeding import derive_rng

from test_neural import raw_inputs


def small_scenario(horizon=10, seed=0):
    return synth_cyclone_scenario(ScenarioConfig(
        horizon_steps=horizon, cyclone_window=(horizon // 2, horizon // 2),
        rng_seed=seed))


def tiny_config(**overrides):
    base = dict(total_updates=2, rollout_steps=16, n_envs=2,
                minibatch_size=8, epochs_per_update=2, hidden_sizes=(8,),
                seed=0)
    base.update(overrides)
    return PpoConfig(**base)


def gae_brute_force(r, v, d, boot, gamma, lam):
    """Direct discounted-delta summation, truncated at episode ends."""
    steps = len(r)
    adv = np.zeros(steps)
    for t in range(steps):
        acc, coef = 0.0, 1.0
        for k in range(t, steps):
            next_v = boot if k == steps - 1 else v[k + 1]
            delta = r[k] + gamma * next_v * (1.0 - d[k]) - v[k]
            acc += coef * delta
            if d[k]:
                break
            coef *= gamma * lam
        adv[t] = acc
    return adv


class TestPpoConfig:
    def test_defaults_validate(self):
        PpoConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=1.5),
        dict(gae_lambda=-0.1),
        dict(clip_eps=0.0),
        dict(learning_rate=0.0),
        dict(c1=-1.0),
        dict(rollout_steps=10, n_envs=3),
        dict(minibatch_size=0),
        dict(total_updates=-1),
        dict(hidden_sizes=()),
        dict(init_log_std=math.inf),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            tiny_config(**kwargs).validate()


class TestComputeGae:
    def test_two_step_hand_case(self):
        adv, ret = compute_gae([1.0, 2.0], [0.5, 1.0], [0.0, 0.0],
                               2.0, gamma=0.9, lam=0.8)
        # delta_1 = 2 + 0.9*2 - 1 = 2.8; delta_0 = 1 + 0.9*1 - 0.5 = 1.4
        np.testing.assert_allclose(adv, [1.4 + 0.72 * 2.8, 2.8], atol=1e-14)
        np.testing.assert_allclose(ret, adv + [0.5, 1.0], atol=1e-14)

    def test_done_blocks_propagation(self):
        adv, _ = compute_gae([1.0, 2.0], [0.5, 1.0], [1.0, 0.0],
                             2.0, gamma=0.9, lam=0.8)
        assert adv[0] == pytest.approx(0.5, abs=1e-14)

    def test_gamma_zero_is_td_residual(self):
        r = np.array([0.3, 0.7, 0.2])
        v = np.array([0.1, 0.4, 0.9])
        adv, _ = compute_gae(r, v, np.zeros(3), 5.0, gamma=0.0, lam=0.95)
        np.testing.assert_allclose(adv, r - v, atol=1e-14)

    def test_matches_brute_force_on_random_sequences(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            steps = int(rng.integers(1, 30))
            r = rng.standard_normal(steps)
            v = rng.standard_normal(steps)
            d = (rng.random(steps) < 0.15).astype(float)
            boot = float(rng.standard_normal())
            gamma, lam = rng.uniform(0, 1, 2)
            adv, ret = compute_gae(r, v, d, boot, gamma, lam)
            want = gae_brute_force(r, v, d, boot, gamma, lam)
            np.testing.assert_allclose(adv, want, atol=1e-10)
            np.testing.assert_allclose(ret, want + v, atol=1e-10)

    def test_batched_matches_per_env(self):
        rng = np.random.default_rng(1)
        r = rng.standard_normal((20, 3))
        v = rng.standard_normal((20, 3))
        d = (rng.random((20, 3)) < 0.2).astype(float)
        boot = rng.standard_normal(3)
        adv, ret = compute_gae(r, v, d, boot, 0.99, 0.95)
        for i in range(3):
            ai, ri = compute_gae(r[:, i], v[:, i], d[:, i], boot[i],
                                 0.99, 0.95)
            np.testing.assert_array_equal(adv[:, i], ai)
            np.testing.assert_array_equal(ret[:, i], ri)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_gae(np.zeros(3), np.zeros(4), np.zeros(3), 0.0, 0.9, 0.9)


class TestLossHelpers:
    def test_clip_hand_case_positive_advantage(self):
        # ratio 1.3, advantage +1: objective min(1.3, 1.2) = 1.2 exactly.
        loss, clip_frac, unclipped = clipped_policy_loss(
            np.array([1.3]), np.ones(1), clip_eps=0.2)
        assert loss == -1.2
        assert clip_frac == 1.0 and unclipped[0] == 0.0

    def test_clip_hand_case_negative_advantage(self):
        # ratio 0.5, advantage -1: objective min(-0.5, -0.8) = -0.8 exactly.
        loss, clip_frac, unclipped = clipped_policy_loss(
            np.array([0.5]), -np.ones(1), clip_eps=0.2)
        assert loss == 0.8
        assert clip_frac == 1.0 and unclipped[0] == 0.0

    def test_unclipped_region_is_plain_surrogate(self):
        loss, clip_frac, unclipped = clipped_policy_loss(
            np.array([1.1]), np.array([2.0]), 0.2)
        assert loss == pytest.approx(-2.0 * 1.1, rel=1e-12)
        assert clip_frac == 0.0 and unclipped[0] == 1.0

    def test_value_loss_is_mean_squared_error(self):
        assert value_loss(np.array([1.0, 3.0]), np.array([0.0, 1.0])) == 2.5

    def test_total_loss_combination(self):
        assert total_loss(1.0, 2.0, 3.0, c1=0.5, c2=0.01) == \
            pytest.approx(1.0 + 1.0 - 0.03, abs=1e-15)


def loss_batch(policy, value, states, **rest):
    """The batch ppo_loss_and_grads takes: both nets' normalized inputs
    plus the actions, old log-probs, advantages and returns in ``rest``."""
    return {"policy_x": normalize(policy, states),
            "value_x": normalize(value, states), **rest}


def fd_max_rel_err(policy, value, batch, cfg, h=1e-5):
    """Largest relative error between the analytic gradient and central
    differences of the total loss, over every entry of the packed
    parameter vector, with every call through one reused workspace."""
    theta = pack_params(policy, value)
    ws = UpdateWorkspace(policy, value, len(batch["actions"]))
    ppo_loss_and_grads(policy, value, batch, cfg, ws)
    grad = ws.grad.copy()
    worst = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        up = ppo_loss_and_grads(policy, value, batch, cfg, ws,
                                with_grads=False).total
        theta[i] = orig - h
        dn = ppo_loss_and_grads(policy, value, batch, cfg, ws,
                                with_grads=False).total
        theta[i] = orig
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]),
                                                   1e-6))
    return worst


class TestPpoLossAndGrads:
    def make_batch(self, policy, value, n=24, seed=2):
        """(states, loss batch) whose ratios sit safely away from the clip
        kinks, so the objective is smooth at every finite-difference
        evaluation."""
        rng = np.random.default_rng(seed)
        obs = rng.standard_normal((n, N_FEATURES))
        mean, log_std = forward_policy(policy, obs), policy.clamped_log_std()
        act = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
        lp_now = gaussian_log_prob(mean, log_std, act)
        bands = np.array([[0.55, 0.77], [0.83, 1.17], [1.23, 1.65]])
        pick = bands[rng.integers(0, 3, n)]
        ratio = rng.uniform(pick[:, 0], pick[:, 1])
        lp_old = lp_now - np.log(ratio)
        return obs, loss_batch(policy, value, obs, actions=act,
                               log_probs=lp_old,
                               advantages=rng.standard_normal(n),
                               returns=rng.standard_normal(n))

    def make_nets(self, seed=3, init_log_std=-0.3):
        rng = np.random.default_rng(seed)
        policy = make_policy(N_FEATURES, N_ACTIONS, (8,), rng,
                             *raw_inputs(N_FEATURES),
                             init_log_std=init_log_std)
        value = make_value(N_FEATURES, (8,), rng, *raw_inputs(N_FEATURES))
        return policy, value

    def grad_ws(self, policy, value, batch, cfg=None):
        """ws.grad after one call, with the policy and value views."""
        ws = UpdateWorkspace(policy, value, len(batch["actions"]))
        ppo_loss_and_grads(policy, value, batch, cfg or tiny_config(), ws)
        return ws

    def test_parts_match_helpers(self):
        policy, value = self.make_nets()
        states, batch = self.make_batch(policy, value)
        cfg = tiny_config()
        ws = UpdateWorkspace(policy, value, len(states))
        ws.grad[:] = np.nan
        rep = ppo_loss_and_grads(policy, value, batch, cfg, ws,
                                 with_grads=False)

        mean, log_std = forward_policy(policy, states), \
            policy.clamped_log_std()
        lp_new = gaussian_log_prob(mean, log_std, batch["actions"])
        loss, _, _ = clipped_policy_loss(np.exp(lp_new - batch["log_probs"]),
                                         batch["advantages"], cfg.clip_eps)
        assert rep.policy_loss == pytest.approx(loss, rel=1e-12)
        vals = forward_value(value, states)
        assert rep.value_loss == pytest.approx(
            value_loss(vals, batch["returns"]), rel=1e-12)
        assert rep.entropy == gaussian_entropy(log_std)
        assert rep.total == pytest.approx(
            total_loss(rep.policy_loss, rep.value_loss, rep.entropy,
                       cfg.c1, cfg.c2), rel=1e-12)
        assert np.all(np.isnan(ws.grad))  # no gradient pass ran

    def test_clip_frac_counts_clipped_ratios(self):
        policy, value = self.make_nets()
        cfg = tiny_config()
        states, batch = self.make_batch(policy, value, n=40)
        rep = ppo_loss_and_grads(policy, value, batch, cfg,
                                 UpdateWorkspace(policy, value, 40),
                                 with_grads=False)
        mean, log_std = forward_policy(policy, states), \
            policy.clamped_log_std()
        lp_new = gaussian_log_prob(mean, log_std, batch["actions"])
        ratio = np.exp(lp_new - batch["log_probs"])
        want = np.mean(np.abs(ratio - 1.0) > cfg.clip_eps)
        assert rep.clip_frac == want

    def test_gradients_match_finite_differences(self):
        """Analytic PPO gradients vs central differences, h = 1e-5."""
        policy, value = self.make_nets()
        cfg = tiny_config()
        states, batch = self.make_batch(policy, value)

        mean, log_std = forward_policy(policy, states), \
            policy.clamped_log_std()
        ratio = np.exp(gaussian_log_prob(mean, log_std, batch["actions"])
                       - batch["log_probs"])
        assert np.abs(np.abs(ratio - 1.0) - cfg.clip_eps).min() > 2e-2
        assert fd_max_rel_err(policy, value, batch, cfg) < 1e-4

    def test_log_std_gradient_gated_at_clamp(self):
        policy, value = self.make_nets(init_log_std=-10.0)  # below the clamp
        ws = self.grad_ws(policy, value, self.make_batch(policy, value)[1])
        np.testing.assert_array_equal(ws.policy_grads[-1],
                                      np.zeros(N_ACTIONS))

    def test_entropy_bonus_pushes_log_std_up(self):
        policy, value = self.make_nets()
        cfg = tiny_config()
        _, batch = self.make_batch(policy, value)
        batch["advantages"] = np.zeros_like(batch["advantages"])
        ws = self.grad_ws(policy, value, batch, cfg)
        # With zero advantages the surrogate term vanishes and only the
        # entropy bonus acts on log_std: d total / d log_std = -c2.
        np.testing.assert_allclose(ws.policy_grads[-1],
                                   np.full(N_ACTIONS, -cfg.c2), atol=1e-12)

    def test_workspace_call_equals_allocating_call(self):
        """The minibatches train() feeds a 40-row rollout at minibatch 16:
        two full ones and a short last one.  Through one reused 16-row
        workspace they give the same losses and gradients as through a
        fresh workspace of exactly each minibatch's size."""
        policy, value = self.make_nets()
        pack_params(policy, value)
        cfg = tiny_config(rollout_steps=40, minibatch_size=16)
        _, rollout = self.make_batch(policy, value, n=40)
        ws = UpdateWorkspace(policy, value, cfg.minibatch_size)
        ws.grad[:] = np.nan  # stale contents must never leak through
        for lo in range(0, 40, cfg.minibatch_size):
            batch = {k: a[lo:lo + cfg.minibatch_size]
                     for k, a in rollout.items()}
            fresh = UpdateWorkspace(policy, value, len(batch["actions"]))
            want = ppo_loss_and_grads(policy, value, batch, cfg, fresh)
            got = ppo_loss_and_grads(policy, value, batch, cfg, ws)
            for part in ("total", "policy_loss", "value_loss", "entropy",
                         "clip_frac"):
                assert getattr(got, part) == getattr(want, part)
            np.testing.assert_array_equal(ws.grad, fresh.grad)

    def test_workspace_gradients_are_views_of_one_vector(self):
        policy, value = self.make_nets()
        ws = self.grad_ws(policy, value, self.make_batch(policy, value)[1])
        grads = ws.policy_grads + ws.value_grads
        assert all(g.base is ws.grad for g in grads)
        assert sum(g.size for g in grads) == ws.grad.size
        np.testing.assert_array_equal(
            np.concatenate([g.ravel() for g in grads]), ws.grad)

    def test_minibatch_update_allocates_no_activation(self):
        """After one warm-up call, a 256-row loss/grad plus Adam step on
        6 -> 64 -> 64 -> 5 nets raises the traced peak by < 64 KiB; one
        256 x 64 float64 activation alone is 128 KiB."""
        rng = np.random.default_rng(7)
        policy = make_policy(N_FEATURES, N_ACTIONS, (64, 64), rng,
                             *raw_inputs(N_FEATURES))
        value = make_value(N_FEATURES, (64, 64), rng, *raw_inputs(N_FEATURES))
        theta = pack_params(policy, value)
        opt = adam_init(theta, 3e-4)
        ws = UpdateWorkspace(policy, value, 256)
        _, batch = self.make_batch(policy, value, n=256)
        cfg = PpoConfig()

        def update():
            ppo_loss_and_grads(policy, value, batch, cfg, ws)
            adam_step(theta, ws.grad, opt)

        update()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            update()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 64 * 1024


def bits(x):
    """IEEE bit patterns, so that a comparison sees every last bit."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def reference_rollout(policy, value, cfg, scn, n_envs, seed, steps, rng):
    """collect_rollouts rebuilt from sample_action, forward_value and step.

    The nets see the whole env batch each hour, as BLAS rounding depends on
    the batch shape, with that hour's (n_envs, N_ACTIONS) standard normal
    draws; step then advances one env at a time, and each env keeps its own
    episode sums.
    """
    rows = scenario_rows(scn)
    load_sums = load_totals(rows)
    rngs = [derive_rng(seed, f"env-{i}") for i in range(n_envs)]
    soc = [cfg.initial_soc(r) for r in rngs]
    sums = [[0.0] * 4 for _ in range(n_envs)]  # reward, 3 tier shortages
    hours, summaries, clock = [], [], 0
    for _ in range(steps):
        obs = np.array([(s, *rows[clock]) for s in soc])
        actions, preclip, log_prob = sample_action(
            policy, obs, rng.standard_normal((n_envs, N_ACTIONS)))
        rewards = []
        for i, action in enumerate(actions.tolist()):
            soc[i], *_, short, reward = step(cfg, rows[clock], soc[i], action)
            rewards.append(reward)
            for k, x in enumerate((reward, *short)):
                sums[i][k] += x
        clock += 1
        done = clock == len(rows)
        hours.append((obs, preclip, log_prob, rewards,
                      forward_value(value, obs), [float(done)] * n_envs))
        if done:
            summaries += [summarize_episode(cfg, r, sh, load_sums, clock)
                          for r, *sh in sums]
            clock = 0
            soc = [cfg.initial_soc(r) for r in rngs]
            sums = [[0.0] * 4 for _ in range(n_envs)]
    bootstrap = forward_value(value,
                              np.array([(s, *rows[clock]) for s in soc]))
    return [np.array(col) for col in zip(*hours)], bootstrap, summaries


class TestCollectRollouts:
    def make_parts(self, horizon=5, n_envs=2, seed=5):
        scn = small_scenario(horizon=horizon)
        env_cfg = EnvConfig()
        rng = np.random.default_rng(seed)
        policy = make_policy(N_FEATURES, N_ACTIONS, (8,), rng,
                             *raw_inputs(N_FEATURES))
        value = make_value(N_FEATURES, (8,), rng, *raw_inputs(N_FEATURES))
        envs = EnvBatch(env_cfg, scn, n_envs, seed=0)
        return policy, value, envs

    def test_shapes_and_episode_accounting(self):
        policy, value, envs = self.make_parts(horizon=5, n_envs=2)
        buf = collect_rollouts(policy, value, envs, 12,
                               np.random.default_rng(6))
        assert buf.states.shape == (6, 2, N_FEATURES)
        assert buf.bootstrap.shape == (2,)
        # Each env finishes exactly one 5-step episode within 6 steps.
        np.testing.assert_array_equal(buf.dones.sum(axis=0), [1.0, 1.0])
        np.testing.assert_array_equal(buf.dones[4], [1.0, 1.0])
        assert len(buf.episode_summaries) == 2
        assert all(s.steps == 5 for s in buf.episode_summaries)

    def test_stored_values_and_log_probs_consistent(self):
        policy, value, envs = self.make_parts()
        buf = collect_rollouts(policy, value, envs, 8,
                               np.random.default_rng(7))
        for t in range(4):
            np.testing.assert_allclose(
                buf.values[t], forward_value(value, buf.states[t]),
                rtol=1e-12)
            np.testing.assert_allclose(
                buf.log_probs[t],
                gaussian_log_prob(forward_policy(policy, buf.states[t]),
                                  policy.clamped_log_std(), buf.actions[t]),
                rtol=1e-12)

    def test_goes_through_the_public_batch_calls(self, monkeypatch):
        """One sample_action and one forward_value call per hour on the
        (n_envs, N_FEATURES) observations, plus one bootstrap call."""
        import mgrl.ppo as ppo_mod

        calls = {"sample_action": [], "forward_value": []}
        for name in calls:
            def counted(net, x, *rest, _name=name,
                        _fn=getattr(ppo_mod, name)):
                calls[_name].append(x.shape)
                return _fn(net, x, *rest)
            monkeypatch.setattr(ppo_mod, name, counted)
        policy, value, envs = self.make_parts(horizon=5, n_envs=3)
        collect_rollouts(policy, value, envs, 21, np.random.default_rng(4))
        assert calls["sample_action"] == [(3, N_FEATURES)] * 7
        assert calls["forward_value"] == [(3, N_FEATURES)] * 8

    def test_divisibility_enforced(self):
        policy, value, envs = self.make_parts(n_envs=2)
        with pytest.raises(ValueError):
            collect_rollouts(policy, value, envs, 7,
                             np.random.default_rng(0))
        no_envs = EnvBatch(EnvConfig(), small_scenario(), 0, seed=0)
        with pytest.raises(ValueError):
            collect_rollouts(policy, value, no_envs, 4,
                             np.random.default_rng(0))

    def test_episode_summaries_match_replay_through_step(self):
        """Each finished episode, replayed from its stored clipped actions
        through step, gives the RI and normalized reward collected."""
        cfg = EnvConfig()
        policy, value, envs = self.make_parts(horizon=5, n_envs=3)
        rows = scenario_rows(small_scenario(horizon=5))
        buf = collect_rollouts(policy, value, envs, 36,
                               np.random.default_rng(8))
        actions = np.clip(buf.actions, -1.0, 1.0)
        w = np.array(cfg.reward_weights)
        replayed = []
        for start in range(0, 10, 5):  # two whole episodes in 12 steps
            for i in range(3):
                soc = buf.states[start, i, 0]
                rewards, shortages, loads = [], [], []
                for t, row in enumerate(rows):
                    assert buf.states[start + t, i, 0] == soc
                    soc, *_, short, reward = step(
                        cfg, row, soc, tuple(actions[start + t, i]))
                    rewards.append(reward)
                    shortages.append(short)
                    loads.append(row[:3])
                ri = 1.0 - (w @ np.sum(shortages, axis=0)) / \
                    (w @ np.sum(loads, axis=0))
                replayed.append((ri, (sum(rewards) + ri) / (len(rows) + 1)))
        assert len(buf.episode_summaries) == len(replayed) == 6
        for summary, (ri, norm) in zip(buf.episode_summaries, replayed):
            assert abs(summary.ri - ri) <= 1e-12
            assert abs(summary.reward_final_norm - norm) <= 1e-12

    @pytest.mark.parametrize("n_envs", [1, 3, 8])
    def test_matches_scalar_reference_rollout(self, n_envs):
        """Two 7-hour rollouts on a 5-hour scenario under non-default
        reward weights, the second resuming mid-episode, are the
        reference's 14 hours bit for bit: every buffer field, both
        bootstraps and the episode summaries."""
        cfg = EnvConfig(reward_weights=(4.0, 1.5, 0.25))
        scn = small_scenario(horizon=5)
        rng = np.random.default_rng(11)
        policy = make_policy(N_FEATURES, N_ACTIONS, (8,), rng,
                             *raw_inputs(N_FEATURES))
        value = make_value(N_FEATURES, (8,), rng, *raw_inputs(N_FEATURES))
        ref, ref_bootstrap, ref_summaries = reference_rollout(
            policy, value, cfg, scn, n_envs, 3, 14, np.random.default_rng(12))
        envs = EnvBatch(cfg, scn, n_envs, seed=3)
        rollout_rng = np.random.default_rng(12)
        bufs = [collect_rollouts(policy, value, envs, 7 * n_envs, rollout_rng)
                for _ in range(2)]
        for k, buf in enumerate(bufs):
            fields = (buf.states, buf.actions, buf.log_probs, buf.rewards,
                      buf.values, buf.dones)
            for got, want in zip(fields, ref):
                np.testing.assert_array_equal(bits(got),
                                              bits(want[7 * k:7 * k + 7]))
        np.testing.assert_array_equal(
            bits(bufs[0].bootstrap), bits(forward_value(value, ref[0][7])))
        np.testing.assert_array_equal(bits(bufs[1].bootstrap),
                                      bits(ref_bootstrap))
        got = [astuple(s) for buf in bufs for s in buf.episode_summaries]
        assert len(got) == 2 * n_envs
        np.testing.assert_array_equal(
            bits(got), bits([astuple(s) for s in ref_summaries]))


class TestObsStats:
    def test_soc_centred_on_band(self):
        mean, scale = obs_stats_from_scenario(EnvConfig(), small_scenario())
        assert mean[0] == pytest.approx(0.55)
        assert scale[0] == pytest.approx(0.35)

    def test_exogenous_features_use_series_moments(self):
        scn = small_scenario(horizon=50)
        mean, scale = obs_stats_from_scenario(EnvConfig(), scn)
        assert mean[4] == pytest.approx(scn.p_re.mean())
        assert scale[4] == pytest.approx(scn.p_re.std())

    def test_constant_series_floored(self):
        loads = np.tile([10.0, 5.0, 5.0], (8, 1))
        scn = Scenario(p_re=np.full(8, 20.0), loads=loads)
        _, scale = obs_stats_from_scenario(EnvConfig(), scn)
        assert np.all(scale >= 1e-6)


class TestTrain:
    def test_stats_per_update_and_checkpoint_order(self):
        seen = []
        res = train(tiny_config(total_updates=3), EnvConfig(),
                    small_scenario(),
                    checkpoint_fn=lambda u, p, v, s: seen.append(u))
        assert [s.update for s in res.stats] == [0, 1, 2]
        assert seen == [0, 1, 2]
        assert all(np.isfinite(s.policy_loss) for s in res.stats)

    def test_episode_metrics_appear_once_episodes_finish(self):
        res = train(tiny_config(), EnvConfig(), small_scenario(horizon=5))
        # horizon 5, 8 steps per env per update: episodes complete in update 0
        assert np.isfinite(res.stats[0].mean_reward_norm)
        assert 0.0 <= res.stats[-1].ri <= 1.0

    def test_same_seed_reproduces_training_exactly(self):
        # horizon 5 so episodes finish in update 0 and no stat is NaN
        a = train(tiny_config(), EnvConfig(), small_scenario(horizon=5))
        b = train(tiny_config(), EnvConfig(), small_scenario(horizon=5))
        assert a.stats == b.stats
        for pa, pb in zip(policy_params(a.policy), policy_params(b.policy)):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_changes_training(self):
        a = train(tiny_config(seed=0), EnvConfig(), small_scenario())
        b = train(tiny_config(seed=1), EnvConfig(), small_scenario())
        assert a.stats != b.stats

    def test_params_live_in_one_vector_and_round_trip(self, tmp_path):
        res = train(tiny_config(), EnvConfig(), small_scenario(horizon=5))
        params = policy_params(res.policy) + value_params(res.value)
        flat = params[0].base
        assert flat is not None and flat.ndim == 1
        assert all(p.base is flat for p in params)
        assert sum(p.size for p in params) == flat.size
        save_checkpoint(res.policy, res.value, tmp_path / "ck.json")
        policy, value = load_checkpoint(tmp_path / "ck.json")
        for a, b in zip(params, policy_params(policy) + value_params(value)):
            np.testing.assert_array_equal(a, b)
        s = np.random.default_rng(8).standard_normal((3, N_FEATURES))
        np.testing.assert_array_equal(forward_policy(res.policy, s),
                                      forward_policy(policy, s))

    def test_divergence_raises_with_diagnostic(self, monkeypatch):
        import mgrl.ppo as ppo_mod

        def poisoned(policy, value, batch, cfg, ws, with_grads=True):
            return ppo_mod.LossReport(total=math.nan, policy_loss=math.nan,
                                      value_loss=1.0, entropy=1.0,
                                      clip_frac=0.0)

        monkeypatch.setattr(ppo_mod, "ppo_loss_and_grads", poisoned)
        with pytest.raises(TrainingDivergedError) as exc:
            ppo_mod.train(tiny_config(), EnvConfig(), small_scenario())
        assert exc.value.diagnostic["update"] == 0


class TestEvaluation:
    def trained(self):
        res = train(tiny_config(), EnvConfig(), small_scenario())
        return res.policy

    def test_deterministic_episode_is_repeatable(self):
        policy = self.trained()
        scn = small_scenario()
        env_cfg = EnvConfig()
        a = evaluate_policy(policy, env_cfg, scn, n_episodes=2, seed=3)
        b = evaluate_policy(policy, env_cfg, scn, n_episodes=2, seed=3)
        assert a.mean_reward_norm == b.mean_reward_norm
        assert a.ri == b.ri
        np.testing.assert_array_equal(a.trajectory.soc, b.trajectory.soc)

    def test_trajectory_covers_whole_horizon(self):
        policy = self.trained()
        ev = evaluate_policy(policy, EnvConfig(), small_scenario(horizon=10))
        assert len(ev.trajectory) == 10
        assert len(ev.summaries) == 1

    def test_stochastic_episode_follows_its_action_stream(self):
        policy = self.trained()
        scn = small_scenario()
        a, b, c = (evaluate_policy(policy, EnvConfig(), scn,
                                   deterministic=False, seed=seed)
                   for seed in (3, 3, 4))
        np.testing.assert_array_equal(a.trajectory.reward,
                                      b.trajectory.reward)
        assert not np.array_equal(a.trajectory.reward, c.trajectory.reward)

    def test_bad_episode_count_rejected(self):
        with pytest.raises(ValueError):
            evaluate_policy(self.trained(), EnvConfig(), small_scenario(),
                            n_episodes=0)

    def test_mode_steps_recoverable_from_trajectory(self):
        policy = self.trained()
        ev = evaluate_policy(policy, EnvConfig(), small_scenario(horizon=10))
        traj = ev.trajectory
        for t in range(10):
            assert traj.mode_at(t) in ("charge", "discharge", "idle")
