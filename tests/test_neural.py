import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mgrl.env import N_ACTIONS, N_FEATURES, EnvConfig, features
from mgrl.neural import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    BLOCK_ROWS,
    AdamState,
    CheckpointError,
    GaussianPolicy,
    Mlp,
    adam_init,
    adam_step,
    blocked_forward,
    gaussian_entropy,
    gaussian_log_prob,
    load_checkpoint,
    make_policy,
    mlp_backward,
    mlp_forward,
    mlp_init,
    normalize,
    policy_action,
    policy_params,
    save_checkpoint,
    value_params,
)
from mgrl.ppo import ROLLOUT_WIDTH, obs_stats_from_scenario
from mgrl.scenario import ScenarioConfig, synth_cyclone_scenario


def raw_inputs(n):
    """An identity normalizer: (obs_mean, obs_scale) for n features."""
    return np.zeros(n), np.ones(n)


def raw_forward(policy, x, critic=None):
    """The actor's means, or with ``critic`` that net's values (its one
    output column), on raw states, as the program computes them: the
    actor's normalizer into a fresh array, then ``blocked_forward``."""
    x = normalize(policy, x)
    if critic is None:
        return blocked_forward(policy.trunk, x)
    return blocked_forward(critic, x)[..., 0]


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def backward(m, cache, gy):
    """(weight grads, bias grads, input grad) of mlp_backward into fresh
    buffers."""
    grads = [np.empty_like(p) for p in [*m.weights, *m.biases]]
    scratch = np.empty(len(gy) * max(m.sizes))
    gx = mlp_backward(m, cache, gy, grads, scratch)
    return grads[:len(m.weights)], grads[len(m.weights):], gx


def formula_backward(m, cache, gy):
    """The backward written formula by formula, leaving the cache as it
    was: (weight grads, bias grads, input grad)."""
    g, gw, gb = gy, [], []
    for i in range(len(m.weights) - 1, -1, -1):
        gw.insert(0, cache[i].T @ g)
        gb.insert(0, np.sum(g, axis=0))
        g = g @ m.weights[i].T
        if i > 0:
            g = g * (1.0 - np.square(cache[i]))
    return gw, gb, g


class TestMlpInit:
    def test_hidden_layers_are_scaled_orthogonal(self):
        m = mlp_init([6, 12, 4], np.random.default_rng(0), out_gain=0.01)
        w0 = m.weights[0]  # (6, 12): wide, rows orthogonal
        np.testing.assert_allclose(w0 @ w0.T, 2.0 * np.eye(6), atol=1e-10)
        w1 = m.weights[1]  # (12, 4): tall head, columns orthogonal
        np.testing.assert_allclose(w1.T @ w1, 0.01 ** 2 * np.eye(4),
                                   atol=1e-10)

    def test_biases_start_at_zero(self):
        m = mlp_init([3, 5, 2], np.random.default_rng(1))
        assert all(np.all(b == 0.0) for b in m.biases)

    def test_sizes_property(self):
        m = mlp_init([4, 8, 8, 2], np.random.default_rng(2))
        assert m.sizes == [4, 8, 8, 2]

    def test_deterministic_per_seed(self):
        a = mlp_init([3, 4, 2], np.random.default_rng(9))
        b = mlp_init([3, 4, 2], np.random.default_rng(9))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)


class TestMlpForwardBackward:
    def test_single_layer_is_affine(self):
        m = Mlp(weights=[np.array([[2.0], [1.0]])], biases=[np.array([3.0])])
        y, _ = mlp_forward(m, np.array([[1.0, 4.0]]))
        assert y[0, 0] == 2.0 + 4.0 + 3.0

    def test_hidden_activation_is_tanh(self):
        m = Mlp(weights=[np.eye(1), np.eye(1)],
                biases=[np.zeros(1), np.zeros(1)])
        y, _ = mlp_forward(m, np.array([[0.5]]))
        assert y[0, 0] == pytest.approx(math.tanh(0.5), abs=1e-15)

    def test_backward_matches_finite_differences(self):
        """Hand-rolled reverse mode vs central differences, h = 1e-5."""
        rng = np.random.default_rng(3)
        m = mlp_init([3, 5, 4, 2], rng, out_gain=0.7)
        x = rng.standard_normal((6, 3))
        gy = rng.standard_normal((6, 2))  # gradient of L = sum(gy * y)

        _, cache = mlp_forward(m, x)
        gw, gb, gx = backward(m, cache, gy)

        def loss():
            y, _ = mlp_forward(m, x)
            return float((gy * y).sum())

        h = 1e-5
        for param, grad in [*zip(m.weights, gw), *zip(m.biases, gb)]:
            flat_p, flat_g = param.ravel(), grad.ravel()
            for idx in range(flat_p.size):
                orig = flat_p[idx]
                flat_p[idx] = orig + h
                up = loss()
                flat_p[idx] = orig - h
                dn = loss()
                flat_p[idx] = orig
                assert rel_err((up - dn) / (2 * h), flat_g[idx]) < 1e-4

        for i in range(x.size):
            orig = x.ravel()[i]
            x.ravel()[i] = orig + h
            up = loss()
            x.ravel()[i] = orig - h
            dn = loss()
            x.ravel()[i] = orig
            assert rel_err((up - dn) / (2 * h), gx.ravel()[i]) < 1e-4

    def test_buffers_match_the_formula_reference_bit_for_bit(self):
        """Taller NaN-filled buffers, as a short last minibatch sees them:
        the buffered forward is the allocating one, and the backward the
        per-formula one, bit for bit."""
        rng = np.random.default_rng(5)
        m = mlp_init([3, 7, 5, 2], rng, out_gain=0.7)
        x = rng.standard_normal((6, 3))
        gy = rng.standard_normal((6, 2))
        y, cache = mlp_forward(m, x)
        want_w, want_b, want_x = formula_backward(m, cache, gy)

        outs = [np.full((9, k), np.nan) for k in m.sizes[1:]]
        scratch = np.full(9 * 7, np.nan)
        grads = [np.full_like(p, np.nan) for p in [*m.weights, *m.biases]]
        y2, cache2 = mlp_forward(m, x, outs, scratch)
        np.testing.assert_array_equal(y2, y)
        assert y2.base is outs[-1]
        gx = mlp_backward(m, cache2, gy, grads, scratch)
        for got, want in zip([*grads, gx], [*want_w, *want_b, want_x]):
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))
        assert gx.base is scratch

    def test_input_grad_skipped_on_request(self):
        """Without the input gradient the parameter gradients are the
        same bits and None comes back."""
        rng = np.random.default_rng(6)
        m = mlp_init([3, 7, 5, 2], rng, out_gain=0.7)
        x, gy = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
        want_w, want_b, _ = backward(m, mlp_forward(m, x)[1], gy)
        grads = [np.empty_like(p) for p in [*m.weights, *m.biases]]
        assert mlp_backward(m, mlp_forward(m, x)[1], gy, grads,
                            np.empty(6 * 7), input_grad=False) is None
        for got, want in zip(grads, [*want_w, *want_b]):
            np.testing.assert_array_equal(got, want)

    def test_buffered_backward_uses_up_only_the_hidden_activations(self):
        """The buffered pass overwrites cache[1:-1] and keeps the input
        cache[0] and the output cache[-1]."""
        rng = np.random.default_rng(7)
        m = mlp_init([3, 7, 5, 2], rng, out_gain=0.7)
        x = rng.standard_normal((6, 3))
        outs = [np.empty((6, k)) for k in m.sizes[1:]]
        scratch = np.empty(6 * 7)
        y, cache = mlp_forward(m, x, outs, scratch)
        kept = [a.copy() for a in cache]
        grads = [np.empty_like(p) for p in [*m.weights, *m.biases]]
        mlp_backward(m, cache, rng.standard_normal((6, 2)), grads, scratch)
        assert cache[0] is x and cache[-1] is y
        for i in (0, -1):
            np.testing.assert_array_equal(cache[i], kept[i])
        for got, was in zip(cache[1:-1], kept[1:-1]):
            assert not np.array_equal(got, was)

    def eval_nets(self):
        """An actor and a one-column critic with non-trivial weights, and
        a synthetic scenario's 720 states (random SOCs) under the actor's
        normalizer."""
        env_cfg = EnvConfig()
        scn = synth_cyclone_scenario(ScenarioConfig())
        rng = np.random.default_rng(8)
        p = make_policy(N_FEATURES, N_ACTIONS, (64, 64), rng,
                        *obs_stats_from_scenario(env_cfg, scn))
        critic = mlp_init([N_FEATURES, 64, 64, 1], rng)
        for a in [*p.trunk.weights, *p.trunk.biases, *critic.weights,
                  *critic.biases]:
            a += rng.normal(0.0, 0.3, a.shape)
        states = features(0.0, scn.loads, scn.p_re)
        states[:, 0] = rng.uniform(env_cfg.soc_min, env_cfg.soc_max,
                                   len(states))
        x = normalize(p, states)
        assert x.shape == (720, N_FEATURES)
        return p.trunk, critic, x

    @pytest.mark.parametrize("net", ["actor", "critic"])
    def test_row_gives_its_batch_and_stack_rows_bit_for_bit(self, net):
        """An evaluation hour runs the actor on one 1-D normalized row:
        over the 720 rows it gives the bits of its (1, n) batch, both
        through ``ndarray.dot``, and of its slice of a (K, 1, n) stack,
        K = 8, through ``@``, the other entry into BLAS; the critic
        alike.  A flat (K, n) batch rounds some rows differently, so it
        is not covered."""
        actor, critic, x = self.eval_nets()
        m = actor if net == "actor" else critic
        rows = np.array([mlp_forward(m, row)[0] for row in x])
        assert rows.shape == (720, m.sizes[-1])
        batches = np.array([mlp_forward(m, x[t:t + 1])[0][0]
                            for t in range(len(x))])
        np.testing.assert_array_equal(bits(rows), bits(batches))
        k = 8
        stacks = np.concatenate([
            mlp_forward(m, x[t:t + k, None, :])[0][:, 0]
            for t in range(0, len(x), k)])
        np.testing.assert_array_equal(bits(rows), bits(stacks))

    @pytest.mark.parametrize("n_envs", [1, 3, 8, 64])
    def test_strided_batch_gives_its_stack_slice_bit_for_bit(self, n_envs):
        """A rollout hour runs the actor on its (n_envs, n) state rows, a
        strided view of the (T, n_envs, 17) rollout table, through
        ``ndarray.dot``; the rollout's critic runs once on the (T,
        n_envs, n) stack of those views through ``@``.  Each hour's
        call gives the bits of its slice of the stack, for the actor
        and the one-column critic."""
        actor, critic, x = self.eval_nets()
        rng = np.random.default_rng(n_envs)
        hours = 24
        table = np.zeros((hours, n_envs, ROLLOUT_WIDTH))
        table[..., :N_FEATURES] = x[rng.integers(len(x),
                                                 size=(hours, n_envs))]
        table[..., 0] = rng.uniform(-1.0, 1.0, (hours, n_envs))
        states = table[..., :N_FEATURES]
        for m in (actor, critic):
            stack = mlp_forward(m, states)[0]
            assert stack.shape == (hours, n_envs, m.sizes[-1])
            for t in range(hours):
                np.testing.assert_array_equal(
                    bits(mlp_forward(m, states[t])[0]), bits(stack[t]))


class TestGaussianHead:
    def test_log_prob_matches_scipy(self):
        rng = np.random.default_rng(4)
        mean = rng.standard_normal((5, 3))
        log_std = rng.uniform(-1.0, 0.5, 3)
        a = rng.standard_normal((5, 3))
        want = stats.norm.logpdf(a, loc=mean,
                                 scale=np.exp(log_std)).sum(axis=1)
        np.testing.assert_allclose(gaussian_log_prob(mean, log_std, a),
                                   want, rtol=1e-12)

    def test_entropy_matches_scipy(self):
        log_std = np.array([-0.3, 0.0, 0.7])
        want = sum(stats.norm.entropy(scale=s) for s in np.exp(log_std))
        assert gaussian_entropy(log_std) == pytest.approx(want, rel=1e-12)

    def test_log_prob_peaks_at_mean(self):
        mean = np.zeros((1, 2))
        log_std = np.zeros(2)
        at_mean = gaussian_log_prob(mean, log_std, mean)
        off = gaussian_log_prob(mean, log_std, mean + 0.5)
        assert at_mean[0] > off[0]

    def test_log_std_clamped_in_forward(self):
        """Sampling scales the draws by the clamped std."""
        rng = np.random.default_rng(5)
        p = make_policy(2, 3, (4,), rng, *raw_inputs(2), init_log_std=10.0)
        s, z = np.zeros((1, 2)), np.ones((1, 3))
        for bound in (LOG_STD_MAX, LOG_STD_MIN):
            assert np.all(p.clamped_log_std() == bound)
            action = policy_action(raw_forward(p, s),
                                   np.exp(p.clamped_log_std()), z)
            np.testing.assert_allclose(
                action, raw_forward(p, s) + math.exp(bound), rtol=1e-14)
            p.log_std[:] = -50.0

    def test_sample_is_scored_as_drawn(self):
        """The action is the draw itself, beyond [-1, 1] too (the
        environment clamps it), and gaussian_log_prob scores that draw."""
        rng = np.random.default_rng(6)
        p = make_policy(3, 2, (8,), rng, *raw_inputs(3), init_log_std=1.5)
        s = np.array([[0.3, -0.2, 0.9], [1.0, 0.5, -2.0]])
        mean, std = raw_forward(p, s), np.exp(p.clamped_log_std())
        z = np.random.default_rng(7).standard_normal((2, 2))
        action = policy_action(mean, std, z)
        np.testing.assert_array_equal(action, mean + std * z)
        assert np.abs(action).max() > 1.0  # draws beyond [-1, 1]
        want = stats.norm.logpdf(action, loc=mean, scale=std).sum(axis=1)
        np.testing.assert_allclose(
            gaussian_log_prob(mean, p.clamped_log_std(), action), want,
            rtol=1e-12)

    def test_sample_reproducible(self):
        """The draw is mean + exp(log_std) * z for the caller's z."""
        p = make_policy(3, 2, (8,), np.random.default_rng(8), *raw_inputs(3),
                        init_log_std=-0.5)
        s = np.ones((4, 3))
        z = np.random.default_rng(11).standard_normal((4, 2))
        std = np.exp(p.clamped_log_std())
        a = policy_action(raw_forward(p, s), std, z)
        b = policy_action(raw_forward(p, s), std, z.copy())
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, raw_forward(p, s) + std * z)

    def test_mean_action_is_the_mean(self):
        """Without draws the action is the mean itself, unclipped."""
        mean = np.array([[-3.0, -0.25, 0.0, 0.5, 2.0]])
        assert policy_action(mean) is mean


class TestBlockedForward:
    def nets(self):
        rng = np.random.default_rng(31)
        norm = rng.normal(size=N_FEATURES), rng.uniform(0.5, 2.0, N_FEATURES)
        return (make_policy(N_FEATURES, N_ACTIONS, (64, 64), rng, *norm),
                mlp_init([N_FEATURES, 64, 64, 1], rng))

    @pytest.mark.parametrize("n", [1, 3, BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3,
                                   5000, 5001])
    def test_blocks_give_the_unblocked_pass_bit_for_bit(self, n):
        p, v = self.nets()
        x = np.random.default_rng(n).normal(size=(n, N_FEATURES)) * 3.0
        for m in (p.trunk, v):
            np.testing.assert_array_equal(bits(blocked_forward(m, x)),
                                          bits(mlp_forward(m, x)[0]))

    @pytest.mark.parametrize("b", [1, 3, 8, 64, BLOCK_ROWS + 88])
    @pytest.mark.parametrize("above", [False, True])
    def test_stack_gives_its_batches_calls_bit_for_bit(self, b, above):
        """A (T, B, N_FEATURES) stack, with T x B below or above BLOCK_ROWS
        (a B above it is blocked by whole batches anyway), gives each
        batch what its own (B, N_FEATURES) call gives."""
        p, v = self.nets()
        t = 2 * BLOCK_ROWS // b + 3 if above else max(1, BLOCK_ROWS // b - 1)
        x = np.random.default_rng(b).normal(size=(t, b, N_FEATURES)) * 3.0
        means, values = blocked_forward(p.trunk, x), blocked_forward(v, x)
        assert means.shape == (t, b, N_ACTIONS) and values.shape == (t, b, 1)
        for k in range(t):
            np.testing.assert_array_equal(
                bits(means[k]), bits(blocked_forward(p.trunk, x[k])))
            np.testing.assert_array_equal(
                bits(values[k]), bits(blocked_forward(v, x[k])))

    def test_explainer_cloud_allocates_no_full_activation(self):
        """5,000 states through a 6 -> 64 -> 64 -> 5 actor raise the
        traced peak by < 2 MiB; one 5,000 x 64 float64 activation alone
        is 2.4 MiB."""
        p, _ = self.nets()
        x = np.random.default_rng(32).normal(size=(5000, N_FEATURES))
        raw_forward(p, x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            raw_forward(p, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 2 * 1024 * 1024


def bits(x):
    """IEEE bit patterns, so that a comparison sees every last bit."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestObservationNormalization:
    def test_policy_normalizes_inputs(self):
        rng = np.random.default_rng(13)
        obs_mean = np.array([10.0, -5.0])
        obs_scale = np.array([2.0, 4.0])
        p = make_policy(2, 1, (6,), rng, obs_mean=obs_mean,
                        obs_scale=obs_scale)
        raw = GaussianPolicy(trunk=p.trunk, log_std=p.log_std,
                             obs_mean=np.zeros(2), obs_scale=np.ones(2))
        x = np.array([[12.0, 3.0]])
        np.testing.assert_array_equal(
            raw_forward(p, x),
            raw_forward(raw, (x - obs_mean) / obs_scale))

    def test_normalize_is_the_formula_bit_for_bit(self):
        """Into a fresh array, normalize writes the bits of
        (x - obs_mean) / obs_scale."""
        rng = np.random.default_rng(15)
        p = make_policy(N_FEATURES, N_ACTIONS, (4,), rng,
                        obs_mean=rng.normal(size=N_FEATURES),
                        obs_scale=rng.uniform(0.1, 3.0, N_FEATURES))
        x = rng.normal(size=(7, N_FEATURES)) * 50.0
        want = (x - p.obs_mean) / p.obs_scale
        got = normalize(p, x)
        np.testing.assert_array_equal(bits(got), bits(want))
        assert not np.shares_memory(got, x)

    def test_bad_normalization_shape_rejected(self):
        with pytest.raises(ValueError):
            make_policy(3, 2, (4,), np.random.default_rng(0),
                        obs_mean=np.zeros(4), obs_scale=np.ones(3))

    def test_value_scalar_vs_batch(self):
        """One state is a one-row batch: its (1,) value is the value of
        that state in any larger batch."""
        v = mlp_init([2, 4, 1], np.random.default_rng(15))
        s = np.array([[0.4, -0.1]])
        single = blocked_forward(v, s)[:, 0]
        batch = blocked_forward(v, np.concatenate([s, s]))[:, 0]
        assert single.shape == (1,) and batch.shape == (2,)
        assert batch[0] == single[0] == batch[1]


class TestAdam:
    def test_matches_hand_rolled_reference(self):
        """Two steps against an independent textbook implementation."""
        rng = np.random.default_rng(16)
        theta = rng.standard_normal(8)
        ref = theta.copy()
        state = adam_init(theta, lr=0.05)
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t in (1, 2):
            g = rng.standard_normal(theta.shape)
            adam_step(theta, g, state)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1.0 - 0.9 ** t)
            vhat = v / (1.0 - 0.999 ** t)
            ref -= 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
            np.testing.assert_allclose(theta, ref, rtol=1e-12, atol=1e-15)

    def test_first_step_is_signed_lr(self):
        theta = np.array([1.0, -1.0])
        state = adam_init(theta, lr=0.01)
        adam_step(theta, np.array([0.5, -2.0]), state)
        np.testing.assert_allclose(theta, [1.0 - 0.01, -1.0 + 0.01],
                                   rtol=1e-7)

    def test_updates_in_place(self):
        p = np.zeros(3)
        state = adam_init(p, lr=0.1)
        adam_step(p, np.ones(3), state)
        assert np.all(p != 0.0)

    def test_shape_mismatch_rejected(self):
        p = np.zeros(4)
        state = adam_init(p, lr=0.1)
        with pytest.raises(ValueError):
            adam_step(p, np.zeros(3), state)
        with pytest.raises(ValueError):  # state sized for another vector
            adam_step(np.zeros(5), np.zeros(5), state)


class TestParamViews:
    def test_policy_params_are_live_views(self):
        p = make_policy(3, 2, (4,), np.random.default_rng(17), *raw_inputs(3))
        params = policy_params(p)
        assert params[-1] is p.log_std
        params[0][0, 0] = 123.0
        assert p.trunk.weights[0][0, 0] == 123.0

    def test_value_params_cover_all_layers(self):
        v = mlp_init([3, 4, 4, 1], np.random.default_rng(18))
        assert len(value_params(v)) == 2 * len(v.weights)


# Values a decimal round trip could lose: a signed zero, the smallest
# subnormal and the largest finite floats.
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def actor_arrays(p):
    return [*policy_params(p), p.obs_mean, p.obs_scale]


class TestCheckpoints:
    def make_pair(self, seed=19):
        rng = np.random.default_rng(seed)
        p = make_policy(6, 5, (8, 8), rng, obs_mean=rng.standard_normal(6),
                        obs_scale=rng.uniform(0.5, 2.0, 6),
                        init_log_std=-0.5)
        return p, mlp_init([6, 8, 8, 1], rng)

    def extreme_pair(self):
        p, v = self.make_pair()
        p.trunk.weights[0][0, :len(EXTREMES)] = EXTREMES
        return p, v

    def test_round_trip_exact(self, tmp_path):
        p, v = self.extreme_pair()
        path = tmp_path / "ck.json"
        save_checkpoint(p, v, path)
        for a, b in zip(actor_arrays(p), actor_arrays(load_checkpoint(path)),
                        strict=True):
            np.testing.assert_array_equal(bits(a), bits(b))

    def test_critic_is_stored_as_its_layers_only(self, tmp_path):
        p, v = self.make_pair()
        save_checkpoint(p, v, tmp_path / "ck.json")
        doc = json.loads((tmp_path / "ck.json").read_text())
        assert set(doc["value"]) == {"sizes", "weights", "biases"}

    def test_a_file_without_a_critic_loads_to_the_same_actor(self,
                                                             tmp_path):
        """The loader never reads the critic: the saved file with its
        value key deleted, the layout of an actor-only checkpoint, loads
        to the actor of the file as written, bit for bit."""
        p, v = self.extreme_pair()
        save_checkpoint(p, v, tmp_path / "ck.json")
        doc = json.loads((tmp_path / "ck.json").read_text())
        del doc["value"]
        (tmp_path / "actor.json").write_text(json.dumps(doc) + "\n")
        for a, b in zip(actor_arrays(load_checkpoint(tmp_path / "ck.json")),
                        actor_arrays(load_checkpoint(tmp_path / "actor.json")),
                        strict=True):
            np.testing.assert_array_equal(bits(a), bits(b))

    def test_round_trip_preserves_policy_output(self, tmp_path):
        p, v = self.make_pair(seed=20)
        save_checkpoint(p, v, tmp_path / "ck.json")
        p2 = load_checkpoint(tmp_path / "ck.json")
        s = np.random.default_rng(21).standard_normal((1, 6))
        np.testing.assert_array_equal(raw_forward(p, s),
                                      raw_forward(p2, s))

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint(path)

    def test_rejects_wrong_version(self, tmp_path):
        p, v = self.make_pair()
        path = tmp_path / "ck.json"
        save_checkpoint(p, v, path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [True, 1.0, 2.0, "2", None, 1, 3],
                             ids=repr)
    def test_rejects_a_version_that_is_not_an_int(self, tmp_path, version):
        """Only the int 2 is a version that loads: 2.0 equals it in
        Python, yet is not a version, and version 1 is no longer read."""
        p, v = self.make_pair()
        path = tmp_path / "ck.json"
        save_checkpoint(p, v, path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "version": version}))
        with pytest.raises(CheckpointError,
                           match=f"unsupported checkpoint version {version}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[6.0, 8], [True, 8], 48, None],
                             ids=repr)
    def test_rejects_a_shape_that_is_not_a_list_of_ints(self, tmp_path,
                                                        shape):
        p, v = self.make_pair()
        path = tmp_path / "ck.json"
        save_checkpoint(p, v, path)
        doc = json.loads(path.read_text())
        doc["policy"]["weights"][0]["shape"] = shape
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=re.escape(
                "policy.weights[0].shape is not a list of integers")):
            load_checkpoint(path)

    def test_rejects_missing_field(self, tmp_path):
        p, v = self.make_pair()
        path = tmp_path / "ck.json"
        save_checkpoint(p, v, path)
        doc = json.loads(path.read_text())
        del doc["policy"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path)

    def test_rejects_inconsistent_sizes(self, tmp_path):
        p, v = self.make_pair()
        path = tmp_path / "ck.json"
        save_checkpoint(p, v, path)
        doc = json.loads(path.read_text())
        doc["policy"]["sizes"][0] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="sizes"):
            load_checkpoint(path)
