import json
import math

import numpy as np
import pytest
from scipy import stats

from mgrl.neural import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    AdamState,
    CheckpointError,
    GaussianPolicy,
    Mlp,
    adam_init,
    adam_step,
    forward_policy,
    forward_value,
    gaussian_entropy,
    gaussian_log_prob,
    load_checkpoint,
    make_policy,
    make_value,
    mlp_backward,
    mlp_forward,
    mlp_init,
    policy_params,
    sample_action,
    save_checkpoint,
    value_params,
)


def raw_inputs(n):
    """An identity normalizer: (obs_mean, obs_scale) for n features."""
    return np.zeros(n), np.ones(n)


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


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
        gw, gb, gx = mlp_backward(m, cache, gy)

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

    def test_buffers_give_the_allocating_result_bit_for_bit(self):
        """Taller NaN-filled buffers, as a short last minibatch sees them."""
        rng = np.random.default_rng(5)
        m = mlp_init([3, 7, 5, 2], rng, out_gain=0.7)
        x = rng.standard_normal((6, 3))
        gy = rng.standard_normal((6, 2))
        y, cache = mlp_forward(m, x)
        gw, gb, gx = mlp_backward(m, cache, gy)

        outs = [np.full((9, k), np.nan) for k in m.sizes[1:]]
        scratch = [np.full(9 * 7, np.nan) for _ in range(3)]
        grads = [np.full_like(p, np.nan) for p in [*m.weights, *m.biases]]
        y2, cache2 = mlp_forward(m, x, outs, scratch)
        np.testing.assert_array_equal(y2, y)
        assert y2.base is outs[-1]
        gw2, gb2, gx2 = mlp_backward(m, cache2, gy, grads, scratch)
        for got, want in zip([*gw2, *gb2, gx2], [*gw, *gb, gx]):
            np.testing.assert_array_equal(got, want)
        assert all(a is b for a, b in zip([*gw2, *gb2], grads))

        *_, skipped = mlp_backward(m, cache, gy, input_grad=False)
        assert skipped is None


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
            _, preclip, _ = sample_action(p, s, z)
            np.testing.assert_allclose(
                preclip, forward_policy(p, s) + math.exp(bound), rtol=1e-14)
            p.log_std[:] = -50.0

    def test_sample_scored_before_clipping(self):
        rng = np.random.default_rng(6)
        p = make_policy(3, 2, (8,), rng, *raw_inputs(3), init_log_std=1.5)
        s = np.array([[0.3, -0.2, 0.9], [1.0, 0.5, -2.0]])
        action, preclip, log_prob = sample_action(
            p, s, np.random.default_rng(7).standard_normal((2, 2)))
        want_lp = gaussian_log_prob(forward_policy(p, s),
                                    p.clamped_log_std(), preclip)
        np.testing.assert_allclose(log_prob, want_lp, rtol=1e-14)
        assert np.abs(preclip).max() > 1.0  # some draws do get clipped
        np.testing.assert_array_equal(action, np.clip(preclip, -1, 1))

    def test_sample_reproducible(self):
        """The draw is mean + exp(log_std) * z for the caller's z."""
        p = make_policy(3, 2, (8,), np.random.default_rng(8), *raw_inputs(3),
                        init_log_std=-0.5)
        s = np.ones((4, 3))
        z = np.random.default_rng(11).standard_normal((4, 2))
        a = sample_action(p, s, z)
        b = sample_action(p, s, z.copy())
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(
            a[1], forward_policy(p, s) + np.exp(p.clamped_log_std()) * z)

    def test_non_finite_inputs_rejected(self):
        p = make_policy(2, 2, (4,), np.random.default_rng(0), *raw_inputs(2))
        v = make_value(2, (4,), np.random.default_rng(0), *raw_inputs(2))
        bad = np.array([[0.0, 1.0], [np.nan, 0.0]])
        for call in (lambda: forward_policy(p, bad),
                     lambda: forward_value(v, bad),
                     lambda: sample_action(p, bad, np.zeros((2, 2)))):
            with pytest.raises(ValueError, match="non-finite"):
                call()

    def test_single_state_must_be_a_batch(self):
        p = make_policy(2, 2, (4,), np.random.default_rng(0), *raw_inputs(2))
        with pytest.raises(ValueError, match="state batch"):
            forward_policy(p, np.zeros(2))


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
            forward_policy(p, x),
            forward_policy(raw, (x - obs_mean) / obs_scale))

    def test_value_normalizes_inputs(self):
        rng = np.random.default_rng(14)
        v = make_value(3, (5,), rng, obs_mean=np.array([1.0, 2.0, 3.0]),
                       obs_scale=np.array([1.0, 2.0, 0.5]))
        raw = make_value(3, (5,), np.random.default_rng(14), *raw_inputs(3))
        np.testing.assert_allclose(
            forward_value(v, np.array([[1.0, 2.0, 3.0]])),
            forward_value(raw, np.zeros((1, 3))), rtol=1e-14)

    def test_bad_normalization_shape_rejected(self):
        with pytest.raises(ValueError):
            make_policy(3, 2, (4,), np.random.default_rng(0),
                        obs_mean=np.zeros(4), obs_scale=np.ones(3))
        with pytest.raises(ValueError):
            make_value(3, (4,), np.random.default_rng(0),
                       obs_mean=np.zeros(3), obs_scale=np.ones(2))

    def test_value_scalar_vs_batch(self):
        """One state is a one-row batch: its (1,) value is the value of
        that state in any larger batch."""
        v = make_value(2, (4,), np.random.default_rng(15), *raw_inputs(2))
        s = np.array([[0.4, -0.1]])
        single = forward_value(v, s)
        batch = forward_value(v, np.concatenate([s, s]))
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
        v = make_value(3, (4, 4), np.random.default_rng(18), *raw_inputs(3))
        assert len(value_params(v)) == 2 * len(v.net.weights)


class TestCheckpoints:
    def make_pair(self, seed=19):
        rng = np.random.default_rng(seed)
        p = make_policy(6, 5, (8, 8), rng, obs_mean=rng.standard_normal(6),
                        obs_scale=rng.uniform(0.5, 2.0, 6),
                        init_log_std=-0.5)
        v = make_value(6, (8, 8), rng, obs_mean=p.obs_mean,
                       obs_scale=p.obs_scale)
        return p, v

    def test_round_trip_exact(self, tmp_path):
        p, v = self.make_pair()
        path = tmp_path / "ck.json"
        save_checkpoint(p, v, path)
        p2, v2 = load_checkpoint(path)
        for a, b in zip(policy_params(p), policy_params(p2)):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(value_params(v), value_params(v2)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(p.obs_mean, p2.obs_mean)
        np.testing.assert_array_equal(p.obs_scale, p2.obs_scale)
        np.testing.assert_array_equal(v.obs_mean, v2.obs_mean)

    def test_round_trip_preserves_policy_output(self, tmp_path):
        p, v = self.make_pair(seed=20)
        save_checkpoint(p, v, tmp_path / "ck.json")
        p2, _ = load_checkpoint(tmp_path / "ck.json")
        s = np.random.default_rng(21).standard_normal((1, 6))
        np.testing.assert_array_equal(forward_policy(p, s),
                                      forward_policy(p2, s))

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
