import math
import tracemalloc
import warnings
from collections import namedtuple
from dataclasses import astuple

import numpy as np
import pytest

from mgrl.env import (
    EnvConfig,
    N_ACTIONS,
    N_FEATURES,
    NonFiniteActionError,
    scenario_rows,
    summarize_episode,
)
from mgrl.neural import (
    LOG_2PI,
    LOG_STD_MAX,
    LOG_STD_MIN,
    adam_init,
    adam_step,
    gaussian_entropy,
    gaussian_log_prob,
    load_checkpoint,
    make_policy,
    mlp_init,
    normalize,
    pack_params,
    policy_action,
    policy_params,
    save_checkpoint,
    value_params,
)
from mgrl.ppo import (
    EnvBatch,
    PpoConfig,
    ROLLOUT_WIDTH,
    RolloutBuffer,
    TrainingDivergedError,
    UpdateWorkspace,
    clipped_policy_loss,
    collect_rollouts,
    compute_gae,
    evaluate_actions,
    evaluate_policy,
    obs_stats_from_scenario,
    ppo_loss_and_grads,
    total_loss,
    train,
    value_loss,
)
from mgrl.scenario import Scenario, ScenarioConfig, synth_cyclone_scenario
from mgrl.seeding import derive_rng
from mgrl.trajectory import read_trajectory_csv, write_trajectory_csv

from test_env import hour
from test_neural import raw_forward, raw_inputs


def small_scenario(horizon=10, seed=0):
    return synth_cyclone_scenario(ScenarioConfig(
        horizon_steps=horizon, cyclone_window=(horizon // 2, horizon // 2),
        rng_seed=seed))


def unmakeable_series():
    """pytest params (series, message): the series of scenarios that
    cannot be made, with the match of the refusal.  None of them may get
    as far as a NumPy warning: no hours ("Mean of empty slice" in the
    scenario statistics), an infinite generation hour (inf - inf in its
    standard deviation) and an hour whose generation and last load are
    both infinite (inf - inf in its net energy)."""
    scn = small_scenario(horizon=12)
    gen = scn.p_re.copy()
    gen[7] = np.inf
    both = scn.loads.copy()
    both[7, 2] = np.inf
    return [
        pytest.param({"p_re": np.empty(0), "loads": np.empty((0, 3))},
                     "^cannot run an episode on an empty scenario$",
                     id="empty"),
        pytest.param({"p_re": gen, "loads": scn.loads},
                     "^non-finite p_re at scenario hour 7$", id="inf-p_re"),
        pytest.param({"p_re": gen, "loads": both},
                     "^non-finite loads at scenario hour 7$", id="inf-both"),
    ]


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


def gae_recursion(r, v, d, boot, gamma, lam):
    """The per-hour GAE recursion, one hour per step of the loop."""
    steps = r.shape[0]
    adv = np.zeros_like(r)
    gae = np.zeros(r.shape[1:])
    for t in reversed(range(steps)):
        next_v = boot if t == steps - 1 else v[t + 1]
        not_done = 1.0 - d[t]
        delta = r[t] + gamma * next_v * not_done - v[t]
        gae = delta + gamma * lam * not_done * gae
        adv[t] = gae
    return adv, adv + v


class TestPpoConfig:
    def test_defaults_validate(self):
        PpoConfig()

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=1.5),
        dict(gae_lambda=-0.1),
        dict(clip_eps=0.0),
        dict(learning_rate=0.0),
        dict(c1=-1.0),
        dict(rollout_steps=10, n_envs=3),
        # collect_rollouts relies on these three: it has no check of its own
        dict(n_envs=0),
        dict(n_envs=-2),
        dict(rollout_steps=0),
        dict(minibatch_size=0),
        dict(total_updates=-1),
        dict(hidden_sizes=()),
        dict(init_log_std=math.inf),
        dict(init_log_std=math.nan),
        dict(init_log_std=LOG_STD_MAX),
        dict(init_log_std=3.0),
        dict(init_log_std=LOG_STD_MIN),
        dict(init_log_std=-6.0),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            tiny_config(**kwargs)


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

    @pytest.mark.parametrize("shape", [(37,), (64, 8), (5, 1)],
                             ids=["1-D", "T-by-8", "T-by-1"])
    def test_matches_per_hour_recursion_bit_for_bit(self, shape):
        """Same bits as the per-hour recursion, episode ends included."""
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            r, v = rng.standard_normal((2, *shape))
            d = (rng.random(shape) < 0.1).astype(float)
            d[shape[0] // 2] = 1.0  # an episode end in every column
            boot = rng.standard_normal(shape[1:])
            if len(shape) == 1:
                boot = float(boot)
            gamma, lam = rng.uniform(0.0, 1.0, 2)
            got = compute_gae(r, v, d, boot, gamma, lam)
            want = gae_recursion(r, v, d, boot, gamma, lam)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                np.testing.assert_array_equal(bits(g), bits(w))

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


def loss_batch(policy, states, actions, log_probs, advantages, returns):
    """The batch ppo_loss_and_grads takes: a (B, ROLLOUT_WIDTH) table
    holding the actor-normalized states, which both nets read, the
    actions, old log-probs, advantages and returns; its other columns are
    NaN."""
    batch = RolloutBuffer(np.full((len(states), ROLLOUT_WIDTH), np.nan))
    batch.states[:] = normalize(policy, states)
    batch.actions[:], batch.log_probs[:] = actions, log_probs
    batch.advantages[:], batch.returns[:] = advantages, returns
    return batch


def fd_max_rel_err(policy, value, batch, cfg, h=1e-5):
    """Largest relative error between the analytic gradient and central
    differences of the total loss, over every entry of the packed
    parameter vector, with every call through one reused workspace."""
    theta = pack_params(policy, value)
    ws = UpdateWorkspace(policy, value, len(batch.table))
    ppo_loss_and_grads(policy, value, batch, cfg, ws)
    grad = ws.grad.copy()
    worst = 0.0
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        up = ppo_loss_and_grads(policy, value, batch, cfg, ws).total
        theta[i] = orig - h
        dn = ppo_loss_and_grads(policy, value, batch, cfg, ws).total
        theta[i] = orig
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]),
                                                   1e-6))
    return worst


class TestPpoLossAndGrads:
    def make_batch(self, policy, n=24, seed=2):
        """(states, loss batch) whose ratios sit safely away from the clip
        kinks, so the objective is smooth at every finite-difference
        evaluation."""
        rng = np.random.default_rng(seed)
        obs = rng.standard_normal((n, N_FEATURES))
        mean, log_std = raw_forward(policy, obs), policy.clamped_log_std()
        act = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
        lp_now = gaussian_log_prob(mean, log_std, act)
        bands = np.array([[0.55, 0.77], [0.83, 1.17], [1.23, 1.65]])
        pick = bands[rng.integers(0, 3, n)]
        ratio = rng.uniform(pick[:, 0], pick[:, 1])
        lp_old = lp_now - np.log(ratio)
        return obs, loss_batch(policy, obs, actions=act,
                               log_probs=lp_old,
                               advantages=rng.standard_normal(n),
                               returns=rng.standard_normal(n))

    def make_nets(self, seed=3, init_log_std=-0.3):
        rng = np.random.default_rng(seed)
        policy = make_policy(N_FEATURES, N_ACTIONS, (8,), rng,
                             *raw_inputs(N_FEATURES),
                             init_log_std=init_log_std)
        value = mlp_init([N_FEATURES, 8, 1], rng)
        return policy, value

    def grad_ws(self, policy, value, batch, cfg=None):
        """ws.grad after one call, with the policy and value views."""
        ws = UpdateWorkspace(policy, value, len(batch.table))
        ppo_loss_and_grads(policy, value, batch, cfg or tiny_config(), ws)
        return ws

    def test_parts_match_helpers(self):
        policy, value = self.make_nets()
        states, batch = self.make_batch(policy)
        cfg = tiny_config()
        ws = UpdateWorkspace(policy, value, len(states))
        rep = ppo_loss_and_grads(policy, value, batch, cfg, ws)

        mean, log_std = raw_forward(policy, states), \
            policy.clamped_log_std()
        lp_new = gaussian_log_prob(mean, log_std, batch.actions)
        loss, _, _ = clipped_policy_loss(np.exp(lp_new - batch.log_probs),
                                         batch.advantages, cfg.clip_eps)
        assert rep.policy_loss == pytest.approx(loss, rel=1e-12)
        vals = raw_forward(policy, states, value)
        assert rep.value_loss == pytest.approx(
            value_loss(vals, batch.returns), rel=1e-12)
        assert rep.entropy == gaussian_entropy(log_std)
        assert rep.total == pytest.approx(
            total_loss(rep.policy_loss, rep.value_loss, rep.entropy,
                       cfg.c1, cfg.c2), rel=1e-12)

    def test_clip_frac_counts_clipped_ratios(self):
        policy, value = self.make_nets()
        cfg = tiny_config()
        states, batch = self.make_batch(policy, n=40)
        rep = ppo_loss_and_grads(policy, value, batch, cfg,
                                 UpdateWorkspace(policy, value, 40))
        mean, log_std = raw_forward(policy, states), \
            policy.clamped_log_std()
        lp_new = gaussian_log_prob(mean, log_std, batch.actions)
        ratio = np.exp(lp_new - batch.log_probs)
        want = np.mean(np.abs(ratio - 1.0) > cfg.clip_eps)
        assert rep.clip_frac == want

    def test_gradients_match_finite_differences(self):
        """Analytic PPO gradients vs central differences, h = 1e-5."""
        policy, value = self.make_nets()
        cfg = tiny_config()
        states, batch = self.make_batch(policy)

        mean, log_std = raw_forward(policy, states), \
            policy.clamped_log_std()
        ratio = np.exp(gaussian_log_prob(mean, log_std, batch.actions)
                       - batch.log_probs)
        assert np.abs(np.abs(ratio - 1.0) - cfg.clip_eps).min() > 2e-2
        assert fd_max_rel_err(policy, value, batch, cfg) < 1e-4

    def test_log_std_gradient_gated_at_clamp(self):
        policy, value = self.make_nets(init_log_std=-10.0)  # below the clamp
        ws = self.grad_ws(policy, value, self.make_batch(policy)[1])
        np.testing.assert_array_equal(ws.policy_grads[-1],
                                      np.zeros(N_ACTIONS))

    def test_entropy_bonus_pushes_log_std_up(self):
        policy, value = self.make_nets()
        cfg = tiny_config()
        _, batch = self.make_batch(policy)
        batch.advantages[:] = 0.0
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
        _, rollout = self.make_batch(policy, n=40)
        ws = UpdateWorkspace(policy, value, cfg.minibatch_size)
        ws.grad[:] = np.nan  # stale contents must never leak through
        for lo in range(0, 40, cfg.minibatch_size):
            batch = RolloutBuffer(rollout.table[lo:lo + cfg.minibatch_size])
            fresh = UpdateWorkspace(policy, value, len(batch.table))
            want = ppo_loss_and_grads(policy, value, batch, cfg, fresh)
            got = ppo_loss_and_grads(policy, value, batch, cfg, ws)
            for part in ("total", "policy_loss", "value_loss", "entropy",
                         "clip_frac"):
                assert getattr(got, part) == getattr(want, part)
            np.testing.assert_array_equal(ws.grad, fresh.grad)

    def test_workspace_gradients_are_views_of_one_vector(self):
        policy, value = self.make_nets()
        ws = self.grad_ws(policy, value, self.make_batch(policy)[1])
        grads = ws.policy_grads + ws.value_grads
        assert all(g.base is ws.grad for g in grads)
        assert sum(g.size for g in grads) == ws.grad.size
        np.testing.assert_array_equal(
            np.concatenate([g.ravel() for g in grads]), ws.grad)

    def test_matches_per_formula_oracle_bit_for_bit(self):
        """LossReport and ws.grad equal, bit for bit, the loss and gradient
        built here term by term: plain forwards, np.clip/np.mean/np.sum,
        the residual computed once for the log-density and again for its
        gradient, and a plain backward.  The 300-row rollout at minibatch
        48 ends in a short 12-row batch; ratios fall on both sides of both
        clip edges under advantages of either sign; one log-std sits below
        its clamp and one exactly at its upper bound."""
        rng = np.random.default_rng(21)
        policy = make_policy(N_FEATURES, N_ACTIONS, (64, 64), rng,
                             *raw_inputs(N_FEATURES), init_log_std=-0.4)
        value = mlp_init([N_FEATURES, 64, 64, 1], rng)
        pack_params(policy, value)
        policy.log_std[:2] = (LOG_STD_MIN - 1.0, LOG_STD_MAX)
        cfg = PpoConfig(minibatch_size=48)
        _, rollout = self.make_batch(policy, n=300, seed=22)
        rollout.log_probs[:] += rng.uniform(-0.6, 0.6, 300)  # leave the bands
        ws = UpdateWorkspace(policy, value, cfg.minibatch_size)
        clipped = []
        for lo in range(0, 300, cfg.minibatch_size):
            batch = RolloutBuffer(rollout.table[lo:lo + cfg.minibatch_size])
            rep = ppo_loss_and_grads(policy, value, batch, cfg, ws)
            want_rep, want_grad, ratio = loss_oracle(policy, value, batch,
                                                     cfg)
            np.testing.assert_array_equal(bits(astuple(rep)),
                                          bits(want_rep))
            np.testing.assert_array_equal(bits(ws.grad), bits(want_grad))
            clipped.append(np.abs(ratio - 1.0) > cfg.clip_eps)
        clipped = np.concatenate(clipped)
        assert 0.2 < clipped.mean() < 0.8  # both kinds of rows
        assert np.all(ws.policy_grads[-1][:2] == 0.0)  # gated at the clamp

    def test_minibatch_update_allocates_no_activation(self):
        """After one warm-up call, a 256-row loss/grad plus Adam step on
        6 -> 64 -> 64 -> 5 nets raises the traced peak by < 64 KiB; one
        256 x 64 float64 activation alone is 128 KiB."""
        rng = np.random.default_rng(7)
        policy = make_policy(N_FEATURES, N_ACTIONS, (64, 64), rng,
                             *raw_inputs(N_FEATURES))
        value = mlp_init([N_FEATURES, 64, 64, 1], rng)
        theta = pack_params(policy, value)
        opt = adam_init(theta, 3e-4)
        ws = UpdateWorkspace(policy, value, 256)
        _, batch = self.make_batch(policy, n=256)
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

    def test_workspace_holds_one_activation_set(self):
        """At train-wide's 2048-row full batch with 64-64 nets the
        workspace holds one net's layer outputs (the actor and critic take
        turns in them) and one backward scratch array: <= 4.5 MiB, where
        both nets' outputs and three scratch arrays took 7.2 MiB."""
        rng = np.random.default_rng(8)
        policy = make_policy(N_FEATURES, N_ACTIONS, (64, 64), rng,
                             *raw_inputs(N_FEATURES))
        value = mlp_init([N_FEATURES, 64, 64, 1], rng)
        tracemalloc.start()
        try:
            ws = UpdateWorkspace(policy, value, 2048)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 4.5 * 2 ** 20
        for p_out, v_out in zip(ws.policy_outs, ws.value_outs):
            assert p_out.base is v_out.base

    @pytest.mark.parametrize("p_hidden,v_hidden", [((8,), (16, 4)),
                                                   ((16, 4), (8,))])
    def test_nets_of_other_shapes_share_one_workspace(self, p_hidden,
                                                      v_hidden):
        """An actor and a critic that differ in width and depth go through
        one reused workspace, minibatch after minibatch (the last one
        short), and still match the oracle bit for bit."""
        rng = np.random.default_rng(23)
        policy = make_policy(N_FEATURES, N_ACTIONS, p_hidden, rng,
                             *raw_inputs(N_FEATURES), init_log_std=-0.3)
        value = mlp_init([N_FEATURES, *v_hidden, 1], rng)
        pack_params(policy, value)
        cfg = tiny_config(rollout_steps=40, minibatch_size=16)
        _, rollout = self.make_batch(policy, n=40, seed=24)
        ws = UpdateWorkspace(policy, value, cfg.minibatch_size)
        for lo in range(0, 40, cfg.minibatch_size):
            batch = RolloutBuffer(rollout.table[lo:lo + cfg.minibatch_size])
            rep = ppo_loss_and_grads(policy, value, batch, cfg, ws)
            want_rep, want_grad, _ = loss_oracle(policy, value, batch, cfg)
            np.testing.assert_array_equal(bits(astuple(rep)),
                                          bits(want_rep))
            np.testing.assert_array_equal(bits(ws.grad), bits(want_grad))

    def test_overflowed_clipped_ratio_gives_finite_gradient(self):
        """A row whose ratio overflows to inf on the clipped branch adds
        no gradient, exactly as a row whose huge ratio is still finite:
        the two calls agree bit for bit, in the gradient and the report."""
        policy, value = self.make_nets()
        cfg = tiny_config()
        _, batch = self.make_batch(policy, n=4)
        batch.advantages[:] = 1.0
        got = []
        for shift in (50.0, 800.0):
            shifted = RolloutBuffer(batch.table.copy())
            shifted.log_probs[0] -= shift
            ws = UpdateWorkspace(policy, value, 4)
            with np.errstate(over="ignore"):
                rep = ppo_loss_and_grads(policy, value, shifted, cfg, ws)
            got.append((astuple(rep), ws.grad.copy()))
        (rep50, grad50), (rep800, grad800) = got
        assert np.isfinite(rep800[0]) and np.all(np.isfinite(grad800))
        np.testing.assert_array_equal(bits(rep800), bits(rep50))
        np.testing.assert_array_equal(bits(grad800), bits(grad50))


def bits(x):
    """IEEE bit patterns, so that a comparison sees every last bit."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def loss_oracle(policy, value, batch, cfg):
    """ppo_loss_and_grads spelled out formula by formula: the LossReport
    fields, the flat gradient in pack_params order and the ratios."""
    def forward(m, x):
        hs = [x]
        for i, (w, b) in enumerate(zip(m.weights, m.biases)):
            h = hs[-1] @ w + b
            hs.append(np.tanh(h) if i < len(m.weights) - 1 else h)
        return hs

    def backward(m, hs, g):
        gw, gb = [None] * len(m.weights), [None] * len(m.weights)
        for i in range(len(m.weights) - 1, -1, -1):
            gw[i], gb[i] = hs[i].T @ g, np.sum(g, axis=0)
            if i > 0:
                g = (g @ m.weights[i].T) * (1.0 - np.square(hs[i]))
        return [*gw, *gb]

    act, lp_old = batch.actions, batch.log_probs
    adv, ret, n = batch.advantages, batch.returns, len(act)
    hp = forward(policy.trunk, batch.states)
    hv = forward(value, batch.states)
    mean, vals = hp[-1], hv[-1][:, 0]
    log_std = np.clip(policy.log_std, LOG_STD_MIN, LOG_STD_MAX)
    lp = -0.5 * (((act - mean) / np.exp(log_std)) ** 2).sum(axis=-1) \
        - log_std.sum() - 0.5 * mean.shape[-1] * LOG_2PI
    ratio = np.exp(lp - lp_old)
    surr1 = ratio * adv
    surr2 = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv
    pol_loss = float(-np.mean(np.minimum(surr1, surr2)))
    clip_frac = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_eps))
    val_loss = float(np.mean((vals - ret) ** 2))
    entropy = float(log_std.sum() + 0.5 * len(log_std) * (1.0 + LOG_2PI))
    total = pol_loss + cfg.c1 * val_loss - cfg.c2 * entropy
    sigma = np.exp(log_std)
    z = (act - mean) / sigma
    g_lp = -(adv * ratio * (surr1 <= surr2).astype(np.float64)) / n
    g_log_std = np.sum(g_lp[:, None] * (z * z - 1.0), axis=0) - cfg.c2
    g_log_std *= ((policy.log_std > LOG_STD_MIN)
                  & (policy.log_std < LOG_STD_MAX)).astype(np.float64)
    g_mean = g_lp[:, None] * (z / sigma)
    g_val = (cfg.c1 * 2.0 * (vals - ret) / n)[:, None]
    grads = [*backward(policy.trunk, hp, g_mean), g_log_std,
             *backward(value, hv, g_val)]
    return ((total, pol_loss, val_loss, entropy, clip_frac),
            np.concatenate([g.ravel() for g in grads]), ratio)


def reference_rollout(policy, value, cfg, scn, n_envs, seed, steps, rng):
    """collect_rollouts rebuilt from raw_forward (the actor's normalizer,
    then blocked_forward), policy_action and whole hours of step and
    allocate on the draws clipped to [-1, 1], the clamp that step and
    allocate apply themselves.

    The nets see the whole env batch each hour, as BLAS rounding depends on
    the batch shape, with that hour's (n_envs, N_ACTIONS) standard normal
    draws at that hour's std, and each hour's draws are scored by their
    own gaussian_log_prob call; each env's hour then runs alone, and
    each env keeps its own lists of the episode's hourly shortages and
    rewards.
    """
    rows = scenario_rows(scn)
    rngs = [derive_rng(seed, f"env-{i}") for i in range(n_envs)]
    soc = [cfg.initial_soc(r) for r in rngs]
    logs = [([], []) for _ in range(n_envs)]  # per env: shortages, rewards
    hours, summaries, clock = [], [], 0
    for _ in range(steps):
        obs = np.array([(s, *rows[clock]) for s in soc])
        mean = raw_forward(policy, obs)
        drawn = policy_action(mean, np.exp(policy.clamped_log_std()),
                              rng.standard_normal((n_envs, N_ACTIONS)))
        actions = np.clip(drawn, -1.0, 1.0)
        log_prob = gaussian_log_prob(mean, policy.clamped_log_std(), drawn)
        rewards = []
        for i, action in enumerate(actions.tolist()):
            soc[i], *_, short, reward = hour(rows[clock], soc[i], action,
                                             cfg)
            rewards.append(reward)
            logs[i][0].append(short)
            logs[i][1].append(reward)
        clock += 1
        done = clock == len(rows)
        hours.append((obs, drawn, log_prob, rewards,
                      raw_forward(policy, obs, value),
                      [float(done)] * n_envs))
        if done:
            summaries += [summarize_episode(cfg, scn.loads, np.array(sh),
                                            np.array(r)) for sh, r in logs]
            clock = 0
            soc = [cfg.initial_soc(r) for r in rngs]
            logs = [([], []) for _ in range(n_envs)]
    bootstrap = raw_forward(policy,
                            np.array([(s, *rows[clock]) for s in soc]), value)
    return [np.array(col) for col in zip(*hours)], bootstrap, summaries


class TestCollectRollouts:
    def make_parts(self, horizon=5, n_envs=2, seed=5,
                   norm=raw_inputs(N_FEATURES)):
        scn = small_scenario(horizon=horizon)
        env_cfg = EnvConfig()
        rng = np.random.default_rng(seed)
        policy = make_policy(N_FEATURES, N_ACTIONS, (8,), rng, *norm)
        value = mlp_init([N_FEATURES, 8, 1], rng)
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

    def test_stored_values_and_log_probs_consistent(self):
        """Under the scenario's own (non-identity) normalizer the stored
        states are the raw states' network inputs, normalize(policy, raw)
        bit for bit, and the stored values and log-probs are the nets'
        on the raw states."""
        scn = small_scenario(horizon=5)
        norm = obs_stats_from_scenario(EnvConfig(), scn)
        assert not np.array_equal(norm, raw_inputs(N_FEATURES))
        policy, value, envs = self.make_parts(norm=norm)
        buf = collect_rollouts(policy, value, envs, 8,
                               np.random.default_rng(7))
        (raw, *_), _, _ = reference_rollout(policy, value, EnvConfig(), scn,
                                            2, 0, 4, np.random.default_rng(7))
        np.testing.assert_array_equal(bits(buf.states),
                                      bits(normalize(policy, raw)))
        for t in range(4):
            np.testing.assert_allclose(
                buf.values[t], raw_forward(policy, raw[t], value),
                rtol=1e-12)
            np.testing.assert_allclose(
                buf.log_probs[t],
                gaussian_log_prob(raw_forward(policy, raw[t]),
                                  policy.clamped_log_std(), buf.actions[t]),
                rtol=1e-12)

    @pytest.mark.parametrize("hours, segments, ends", [
        (4, [4], 0), (5, [5], 1), (7, [5, 2], 1), (12, [5, 5, 2], 2)])
    def test_goes_through_the_public_batch_calls(self, monkeypatch, hours,
                                                 segments, ends):
        """One normalize call per rollout, by the actor on the scenario's
        (horizon, N_FEATURES) states; per hour one mlp_forward call on the
        (n_envs, N_FEATURES) network inputs; one stacked critic
        blocked_forward call on all hours' states, then one on the
        bootstrap's inputs; one allocate
        call per episode segment, on that segment's (k, n_envs) supplies
        and (k, 1, 3) loads.  On a 5-hour scenario the rollouts end 0, 1
        (at their last hour or inside) and 2 episodes."""
        import mgrl.ppo as ppo_mod

        for gone in ("forward_policy", "forward_value", "net_input"):
            assert not hasattr(ppo_mod, gone)
        assert not hasattr(EnvBatch, "observe")
        names = ("normalize", "mlp_forward", "blocked_forward")
        calls = {name: [] for name in (*names, "allocate")}
        nets = {name: [] for name in names}
        for name in names:
            def counted(net, x, *rest, _name=name,
                        _fn=getattr(ppo_mod, name)):
                calls[_name].append(x.shape)
                nets[_name].append(id(net))
                return _fn(net, x, *rest)
            monkeypatch.setattr(ppo_mod, name, counted)

        def allocate(cfg, loads, p_supply, w, _fn=ppo_mod.allocate):
            calls["allocate"].append((loads.shape, p_supply.shape, w.shape))
            return _fn(cfg, loads, p_supply, w)
        monkeypatch.setattr(ppo_mod, "allocate", allocate)
        policy, value, envs = self.make_parts(horizon=5, n_envs=3)
        buf = collect_rollouts(policy, value, envs, 3 * hours,
                               np.random.default_rng(4))
        assert calls["normalize"] == [(5, N_FEATURES)]
        assert nets["normalize"] == [id(policy)]
        assert calls["mlp_forward"] == [(3, N_FEATURES)] * hours
        assert calls["blocked_forward"] == [(hours, 3, N_FEATURES),
                                            (3, N_FEATURES)]
        assert nets["blocked_forward"] == [id(value)] * 2
        assert calls["allocate"] == [((k, 1, 3), (k, 3), (k, 3, 3))
                                     for k in segments]
        assert len(buf.episode_summaries) == 3 * ends

    def test_episode_summaries_match_replay_through_step(self):
        """Each finished episode, replayed from its stored actions clipped
        to [-1, 1] through step and allocate, gives the RI and normalized
        reward collected."""
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
                    soc, *_, short, reward = hour(
                        row, soc, tuple(actions[start + t, i].tolist()), cfg)
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

    @pytest.mark.parametrize("hours", [7, 12])
    @pytest.mark.parametrize("n_envs", [1, 3, 8, 64])
    def test_matches_scalar_reference_rollout(self, n_envs, hours):
        """Two 7- or 12-hour rollouts on a 5-hour scenario under
        non-default reward weights, the second resuming mid-episode, are
        the reference's hours bit for bit: every buffer field, both
        bootstraps and the episode summaries.  A 12-hour rollout ends two
        episodes."""
        cfg = EnvConfig(reward_weights=(4.0, 1.5, 0.25))
        scn = small_scenario(horizon=5)
        rng = np.random.default_rng(11)
        policy = make_policy(N_FEATURES, N_ACTIONS, (8,), rng,
                             *raw_inputs(N_FEATURES))
        value = mlp_init([N_FEATURES, 8, 1], rng)
        ref, ref_bootstrap, ref_summaries = reference_rollout(
            policy, value, cfg, scn, n_envs, 3, 2 * hours,
            np.random.default_rng(12))
        envs = EnvBatch(cfg, scn, n_envs, seed=3)
        rollout_rng = np.random.default_rng(12)
        bufs = [collect_rollouts(policy, value, envs, hours * n_envs,
                                 rollout_rng)
                for _ in range(2)]
        for k, buf in enumerate(bufs):
            fields = (buf.states, buf.actions, buf.log_probs, buf.rewards,
                      buf.values, buf.dones)
            for got, want in zip(fields, ref):
                np.testing.assert_array_equal(
                    bits(got), bits(want[hours * k:hours * (k + 1)]))
        np.testing.assert_array_equal(
            bits(bufs[0].bootstrap),
            bits(raw_forward(policy, ref[0][hours], value)))
        np.testing.assert_array_equal(bits(bufs[1].bootstrap),
                                      bits(ref_bootstrap))
        got = [np.hstack(astuple(s))
               for buf in bufs for s in buf.episode_summaries]
        assert len(got) == 2 * hours // 5 * n_envs
        np.testing.assert_array_equal(
            bits(got), bits([np.hstack(astuple(s)) for s in ref_summaries]))


    def test_nan_means_refused_as_non_finite_weights(self):
        """A policy whose means are NaN draws NaN weights, which the
        rollout refuses with allocate's error."""
        policy, value, envs = self.make_parts(horizon=5, n_envs=3)
        policy.trunk.biases[-1][:] = np.nan
        with pytest.raises(ValueError, match=r"^non-finite allocation "
                                             r"weights: \[nan, nan, nan\]$"):
            collect_rollouts(policy, value, envs, 21,
                             np.random.default_rng(4))


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


# The five fields of a minibatch that ppo_loss_and_grads reads.
FieldBatch = namedtuple("FieldBatch",
                        "states actions log_probs advantages returns")


def reference_train(cfg, env_cfg, scn):
    """train rebuilt from collect_rollouts, compute_gae,
    ppo_loss_and_grads and adam_step, with the rollout kept field by
    field: five contiguous arrays (the states as the rollout stored them,
    already both nets' inputs), each gathered by its own np.take per
    epoch, and a minibatch their row slices.  Returns the TrainStats rows
    as tuples and the final parameter vector."""
    obs_mean, obs_scale = obs_stats_from_scenario(env_cfg, scn)
    policy = make_policy(N_FEATURES, N_ACTIONS, cfg.hidden_sizes,
                         derive_rng(cfg.seed, "policy-init"), obs_mean,
                         obs_scale, init_log_std=cfg.init_log_std)
    value = mlp_init([N_FEATURES, *cfg.hidden_sizes, 1],
                     derive_rng(cfg.seed, "value-init"))
    envs = EnvBatch(env_cfg, scn, cfg.n_envs, cfg.seed)
    rollout_rng = derive_rng(cfg.seed, "rollout")
    shuffle_rng = derive_rng(cfg.seed, "minibatch")
    n, size = cfg.rollout_steps, cfg.minibatch_size
    theta = pack_params(policy, value)
    opt = adam_init(theta, cfg.learning_rate)
    ws = UpdateWorkspace(policy, value, min(size, n))
    stats, reward_norm, ri = [], math.nan, math.nan
    for update in range(cfg.total_updates):
        buf = collect_rollouts(policy, value, envs, n, rollout_rng)
        adv, ret = compute_gae(buf.rewards, buf.values, buf.dones,
                               buf.bootstrap, cfg.gamma, cfg.gae_lambda)
        fields = FieldBatch(
            buf.states.reshape(n, N_FEATURES),
            buf.actions.reshape(n, N_ACTIONS), buf.log_probs.reshape(n),
            ((adv - adv.mean()) / (adv.std() + 1e-8)).reshape(n),
            ret.reshape(n))
        sums, count = (0.0, 0.0, 0.0, 0.0), 0
        for _ in range(cfg.epochs_per_update):
            perm = shuffle_rng.permutation(n)
            taken = [np.take(a, perm, axis=0) for a in fields]
            for lo in range(0, n, size):
                batch = FieldBatch(*(a[lo:lo + size] for a in taken))
                r = ppo_loss_and_grads(policy, value, batch, cfg, ws)
                adam_step(theta, ws.grad, opt)
                sums = tuple(s + part for s, part in zip(sums, (
                    r.policy_loss, r.value_loss, r.entropy, r.clip_frac)))
                count += 1
        if buf.episode_summaries:
            reward_norm = float(np.mean(
                [s.reward_final_norm for s in buf.episode_summaries]))
            ri = float(np.mean([s.ri for s in buf.episode_summaries]))
        stats.append((update, reward_norm, ri, *(s / count for s in sums)))
    return stats, theta


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

    @pytest.mark.parametrize("shape", [
        dict(n_envs=4, rollout_steps=64, minibatch_size=16),
        dict(n_envs=8, rollout_steps=64, minibatch_size=64),
        dict(n_envs=4, rollout_steps=48, minibatch_size=20),
    ], ids=["four-minibatches", "one-full-batch", "ragged-last-minibatch"])
    def test_matches_field_by_field_reference_loop(self, shape):
        """train's one rollout table, one np.take per epoch and row-slice
        minibatches give, bit for bit, the stats and final parameters of
        the loop that gathers five contiguous fields (the ragged shape's
        epochs are 20, 20 and 8 rows)."""
        cfg = PpoConfig(total_updates=3, epochs_per_update=3, seed=2,
                        **shape)
        env_cfg, scn = EnvConfig(), small_scenario(horizon=8)
        res = train(cfg, env_cfg, scn)
        want_stats, want_theta = reference_train(cfg, env_cfg, scn)
        assert np.all(np.isfinite(want_stats))
        np.testing.assert_array_equal(
            bits([astuple(s) for s in res.stats]), bits(want_stats))
        np.testing.assert_array_equal(
            bits(pack_params(res.policy, res.value)), bits(want_theta))

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
        policy = load_checkpoint(tmp_path / "ck.json")
        for a, b in zip(policy_params(res.policy), policy_params(policy),
                        strict=True):
            np.testing.assert_array_equal(a, b)
        s = np.random.default_rng(8).standard_normal((3, N_FEATURES))
        np.testing.assert_array_equal(raw_forward(res.policy, s),
                                      raw_forward(policy, s))

    @pytest.mark.parametrize("field", ["loads", "p_re"])
    def test_non_finite_scenario_refused_before_first_update(self, field):
        seen = []
        with pytest.raises(ValueError,
                           match=f"non-finite {field} at scenario hour 3$"):
            train(tiny_config(), EnvConfig(),
                  non_finite_scenario(field, np.nan, hour=3),
                  checkpoint_fn=lambda u, p, v, s: seen.append(u))
        assert seen == []

    @pytest.mark.parametrize("series, message", unmakeable_series())
    def test_unmakeable_scenario_refused_without_a_warning(self, series,
                                                           message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                train(tiny_config(), EnvConfig(), Scenario(**series))

    def test_divergence_raises_with_diagnostic(self, monkeypatch):
        import mgrl.ppo as ppo_mod

        def poisoned(policy, value, batch, cfg, ws):
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

    def test_mode_steps_recoverable_from_trajectory(self):
        policy = self.trained()
        ev = evaluate_policy(policy, EnvConfig(), small_scenario(horizon=10))
        traj = ev.trajectory
        for t in range(10):
            assert traj.mode_at(t) in ("charge", "discharge", "idle")

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_matches_per_hour_reference_loop(self, deterministic):
        """Bit for bit the loop that builds each hour's state afresh and
        runs the actor on it through raw_forward (and policy_action on its
        draws), then steps and splits the action clipped to [-1, 1].  The
        reference runs the actor on the hour's (1, 6) batch, which takes
        ``ndarray.dot`` as evaluation's 1-D row does, and again on its
        (1, 1, 6) stack, which takes ``@``."""
        policy = self.trained()
        policy.log_std[:] = -0.5  # draws that move the SOC both ways
        env_cfg = EnvConfig()
        scn = small_scenario(horizon=48, seed=2)
        ev = evaluate_policy(policy, env_cfg, scn, n_episodes=2,
                             deterministic=deterministic, seed=4)
        traj = ev.trajectory
        assert np.ptp(traj.soc) > 0.0
        logged = np.column_stack([traj.soc, traj.flows, traj.allocations,
                                  traj.imbalances, traj.shortages,
                                  traj.reward])
        forwards = {"batch": lambda obs: raw_forward(policy, obs),
                    "stack": lambda obs: raw_forward(policy, obs[:, None])[0]}
        for name, forward in forwards.items():
            summaries = []
            for ep in range(2):
                soc = env_cfg.initial_soc(derive_rng(4, f"eval-reset-{ep}"))
                rng = derive_rng(4, f"eval-action-{ep}")
                log = []
                for row in scenario_rows(scn):
                    obs = np.array([(soc, *row)])
                    if deterministic:
                        action = np.clip(forward(obs), -1.0, 1.0)
                    else:
                        action = np.clip(policy_action(
                            forward(obs), np.exp(policy.clamped_log_std()),
                            rng.standard_normal((1, N_ACTIONS))), -1.0, 1.0)
                    out = hour(row, soc, action[0].tolist(), env_cfg)
                    log.append((soc, *out[1:4], *out[4], *out[5], *out[6],
                                out[7]))
                    soc = out[0]
                log = np.array(log)
                summaries.append(summarize_episode(env_cfg, scn.loads,
                                                   log[:, 10:13], log[:, 13]))
                if ep == 0:
                    np.testing.assert_array_equal(logged, log, name)
            assert ev.summaries == summaries, name

    def test_act_sees_each_hour_and_its_soc_in_order(self):
        scn = small_scenario(horizon=12, seed=1)
        seen = []

        def act(t, soc, rng):
            seen.append((t, soc))
            return rng.uniform(-1.0, 1.0, (1, N_ACTIONS))

        ev = evaluate_actions(act, EnvConfig(), scn, n_episodes=3, seed=8)
        assert [t for t, _ in seen] == list(range(12)) * 3
        assert all(type(soc) is float for _, soc in seen)
        # The first episode's SOCs are logged.
        assert [soc for _, soc in seen[:12]] == ev.trajectory.soc.tolist()
        assert [soc for t, soc in seen if t == 0] == [
            EnvConfig().initial_soc(derive_rng(8, f"eval-reset-{ep}"))
            for ep in range(3)]
        assert np.ptp(ev.trajectory.soc) > 0.0

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_infinite_action_mean_is_refused(self, deterministic):
        """An actor's +inf, which step would run as a full request, is
        refused before the episode is scored."""
        policy = self.trained()
        policy.trunk.biases[-2][:] = 1e3
        policy.trunk.weights[-1][:] = 1e308
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteActionError,
                match=r"^non-finite action at hour 0: \[inf, "):
            evaluate_policy(policy, EnvConfig(), small_scenario(horizon=10),
                            n_episodes=2, deterministic=deterministic)

    @pytest.mark.parametrize("field", ["loads", "p_re"])
    def test_non_finite_scenario_refused_before_first_hour(self, field,
                                                           monkeypatch):
        import mgrl.ppo as ppo_mod

        scn = small_scenario(horizon=12)
        series = {"loads": scn.loads.copy(), "p_re": scn.p_re.copy()}
        series[field][7] = np.nan
        policy = self.trained()

        def no_step(*args):
            raise AssertionError("an hour was stepped")

        monkeypatch.setattr(ppo_mod, "step", no_step)
        for deterministic in (True, False):
            with pytest.raises(ValueError,
                               match=f"non-finite {field} at scenario hour 7$"):
                evaluate_policy(policy, EnvConfig(), Scenario(**series),
                                deterministic=deterministic)


    @pytest.mark.parametrize("series, message", unmakeable_series())
    def test_unmakeable_scenario_refused_without_a_warning(self, series,
                                                           message):
        policy = self.trained()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                evaluate_policy(policy, EnvConfig(), Scenario(**series))


def idle_action(t, soc, rng):
    """Battery requests off, equal allocation weights."""
    a = np.zeros((1, N_ACTIONS))
    a[:, :2] = -1.0
    return a


def non_finite_scenario(field, value, hour=7, horizon=12):
    """small_scenario with one element of ``field`` at ``hour`` set to
    ``value``: the last load tier for ``loads``."""
    scn = small_scenario(horizon=horizon)
    series = {"loads": scn.loads.copy(), "p_re": scn.p_re.copy()}
    series[field].reshape(horizon, -1)[hour, -1] = value
    return Scenario(**series)


class TestEvaluateActions:
    def test_idle_battery_holds_soc_and_scores_the_report_ri(self):
        env_cfg = EnvConfig()
        ev = evaluate_actions(idle_action, env_cfg,
                              small_scenario(horizon=24), seed=2)
        traj = ev.trajectory
        assert np.all(traj.p_ch == 0.0) and np.all(traj.p_dis == 0.0)
        assert np.all(traj.soc == traj.soc[0])
        rep = summarize_episode(env_cfg, traj.loads, traj.shortages,
                                traj.reward)
        assert ev.ri == rep.ri
        assert ev.summaries == [rep]

    def test_training_episode_replays_to_one_summary(self, tmp_path):
        """One training episode, replayed from its stored actions clipped
        to [-1, 1], is summarized alike by the rollout, by evaluation and
        from the trajectory written and read back."""
        env_cfg = EnvConfig(init_soc_range=(0.5, 0.5))
        scn = small_scenario(horizon=12, seed=4)
        rng = np.random.default_rng(9)
        policy = make_policy(N_FEATURES, N_ACTIONS, (8,), rng,
                             *raw_inputs(N_FEATURES))
        value = mlp_init([N_FEATURES, 8, 1], rng)
        buf = collect_rollouts(policy, value, EnvBatch(env_cfg, scn, 2, 0),
                               24, np.random.default_rng(10))
        hours = iter(np.clip(buf.actions[:, 1], -1.0, 1.0))
        ev = evaluate_actions(lambda t, soc, rng: next(hours)[None], env_cfg,
                              scn)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(ev.trajectory, path)
        traj = read_trajectory_csv(path)
        np.testing.assert_array_equal(traj.states(), buf.states[:, 1])
        trained = buf.episode_summaries[1]
        assert trained == ev.summaries[0] == summarize_episode(
            env_cfg, traj.loads, traj.shortages, traj.reward)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["loads", "p_re"])
    def test_non_finite_scenario_refused_naming_series_and_hour(
            self, field, value, monkeypatch):
        """An act that never looks at the state (criterion 7's baselines)
        cannot carry a NaN scenario into the summary: such a Scenario
        cannot be made, so no hour is stepped."""
        import mgrl.ppo as ppo_mod

        def no_step(*args):
            raise AssertionError("an hour was stepped")

        monkeypatch.setattr(ppo_mod, "step", no_step)
        with pytest.raises(ValueError,
                           match=f"non-finite {field} at scenario hour 7$"):
            evaluate_actions(idle_action, EnvConfig(),
                             non_finite_scenario(field, value))

    def test_allocates_each_episode_in_one_call(self, monkeypatch):
        """The battery is stepped hour by hour; the split of every hour's
        supply is one allocate call per episode."""
        import mgrl.ppo as ppo_mod

        calls = []

        def counted(cfg, loads, p_supply, w, _fn=ppo_mod.allocate):
            calls.append((loads.shape, p_supply.shape, w.shape))
            return _fn(cfg, loads, p_supply, w)

        monkeypatch.setattr(ppo_mod, "allocate", counted)
        evaluate_actions(idle_action, EnvConfig(), small_scenario(horizon=12),
                         n_episodes=3)
        assert calls == [((12, 3), (12,), (12, 3))] * 3

    def test_non_finite_weight_refused_after_the_battery_loop(self,
                                                              monkeypatch):
        """A NaN weight at hour 5 is refused once all 12 hours' batteries
        have moved, naming the hour and its action."""
        import mgrl.ppo as ppo_mod

        stepped = []

        def counted(*args, _fn=ppo_mod.step):
            stepped.append(args[0])
            return _fn(*args)

        def act(t, soc, rng):
            a = idle_action(t, soc, rng)
            a[0, 3] = math.nan if t == 5 else 0.25
            return a

        monkeypatch.setattr(ppo_mod, "step", counted)
        with pytest.raises(ValueError) as err:
            evaluate_actions(act, EnvConfig(), small_scenario(horizon=12),
                             n_episodes=2)
        assert str(err.value) == ("non-finite action at hour 5: "
                                  "[-1.0, -1.0, 0.0, nan, 0.0]")
        assert len(stepped) == 12

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_request_refused_before_allocate(self, monkeypatch,
                                                        bad):
        """Any action function, not only the policy's, is refused a
        non-finite battery request: at hour 3 of 12, with finite weights,
        once all 12 hours are stepped and before any allocate call."""
        import mgrl.ppo as ppo_mod

        stepped, allocated = [], []

        def counted(*args, _fn=ppo_mod.step):
            stepped.append(args[0])
            return _fn(*args)

        def act(t, soc, rng):
            charge = bad if t == 3 else 0.5
            return np.array([charge, -1.0, 0.25, 0.0, -0.25])

        monkeypatch.setattr(ppo_mod, "step", counted)
        monkeypatch.setattr(ppo_mod, "allocate",
                            lambda *args: allocated.append(args))
        with pytest.raises(NonFiniteActionError) as err:
            evaluate_actions(act, EnvConfig(), small_scenario(horizon=12))
        assert str(err.value) == (f"non-finite action at hour 3: "
                                  f"{[bad, -1.0, 0.25, 0.0, -0.25]}")
        assert len(stepped) == 12
        assert allocated == []

    def test_each_episode_acts_on_its_own_action_stream(self):
        def draws(seed):
            seen = []

            def act(t, soc, rng):
                seen.append(rng.random())
                return idle_action(t, soc, rng)

            evaluate_actions(act, EnvConfig(), small_scenario(horizon=4),
                             n_episodes=3, seed=seed)
            return seen

        first = draws(5)
        assert first == draws(5)
        assert first == [x for ep in range(3) for x in
                         derive_rng(5, f"eval-action-{ep}").random(4).tolist()]
        assert len(set(first[::4])) == 3
