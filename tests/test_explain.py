import csv
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mgrl.env import EnvConfig, FEATURE_NAMES
from mgrl.explain import (
    CSV_HEADER,
    ExplainConfig,
    FeatureStats,
    SurrogateFitError,
    explain_action,
    explain_step,
    explanation_csv,
    explanation_svg,
    explanation_text,
    fit_surrogate,
    perturb,
    proximity_weights,
    render_explanation,
)

from test_neural import raw_forward, raw_inputs


def flat_stats(mean=0.0, std=1.0):
    """Unbounded feature statistics for oracle tests."""
    return FeatureStats(mean=np.full(6, float(mean)),
                        std=np.full(6, float(std)),
                        low=np.full(6, -np.inf), high=np.full(6, np.inf))


def linear_oracle(z):
    return 2.0 * z[:, 1] - 3.0 * z[:, 5] + 1.0


class TestExplainConfig:
    def test_defaults_validate(self):
        ExplainConfig()

    @pytest.mark.parametrize("kwargs", [
        dict(n_samples=5),
        dict(kernel_sigma=0.0),
        # fit_surrogate and proximity_weights rely on these: no own check
        dict(n_samples=9),
        dict(kernel_sigma=-1.0),
        dict(kernel_sigma=math.nan),
        dict(perturb_scale=-0.1),
        dict(ridge_strength=-1e-6),
        dict(seed=-3),
        dict(perturb_scale=0.0),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ExplainConfig(**kwargs)


class TestFeatureStats:
    def make_traj(self):
        from test_trajectory import make_trajectory
        return make_trajectory(steps=20, seed=1)

    def test_moments_come_from_states(self):
        traj = self.make_traj()
        stats = FeatureStats.from_trajectory(traj, EnvConfig())
        states = traj.states()
        np.testing.assert_allclose(stats.mean, states.mean(axis=0))
        np.testing.assert_allclose(stats.std, states.std(axis=0))

    def test_bounds_follow_physics(self):
        stats = FeatureStats.from_trajectory(self.make_traj(), EnvConfig())
        assert stats.low[0] == 0.2 and stats.high[0] == 0.9
        assert np.all(stats.low[1:5] == 0.0)
        assert stats.low[5] == -np.inf
        assert np.all(np.isinf(stats.high[1:]))

    def test_std_floored_for_constant_features(self):
        traj = self.make_traj()
        traj.soc[:] = 0.5
        stats = FeatureStats.from_trajectory(traj, EnvConfig())
        assert stats.std[0] == 1e-6


class TestPerturb:
    def test_row_zero_is_instance(self):
        x = np.arange(6.0)
        z = perturb(x, flat_stats(), 50, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(z[0], x)

    def test_scale_zero_collapses_cloud(self):
        x = np.arange(6.0)
        z = perturb(x, flat_stats(), 30, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(z, np.tile(x, (30, 1)))

    def test_sample_spread_tracks_requested_scale(self):
        x = np.zeros(6)
        stats = flat_stats(std=2.0)
        z = perturb(x, stats, 20000, 0.5, np.random.default_rng(1))
        np.testing.assert_allclose(z[1:].std(axis=0), 1.0, rtol=0.1)

    def test_clamped_to_bounds(self):
        stats = FeatureStats(mean=np.zeros(6), std=np.ones(6),
                             low=np.full(6, -0.3), high=np.full(6, 0.3))
        z = perturb(np.zeros(6), stats, 500, 2.0, np.random.default_rng(2))
        assert z.min() >= -0.3 and z.max() <= 0.3

    def test_deterministic_per_rng_seed(self):
        x = np.ones(6)
        a = perturb(x, flat_stats(), 40, 1.0, np.random.default_rng(3))
        b = perturb(x, flat_stats(), 40, 1.0, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class TestProximityWeights:
    def test_kernel_values_at_reference_distances(self):
        """D in {0, sigma, 2*sigma} must give {1, e^-1, e^-4}."""
        sigma = 0.75 * math.sqrt(6)
        x = np.zeros(6)
        samples = np.zeros((3, 6))
        samples[1, 0] = sigma       # standardized distance sigma
        samples[2, 0] = 2 * sigma   # standardized distance 2 sigma
        w = proximity_weights(x, samples, flat_stats(), sigma)
        assert abs(w[0] - 1.0) <= 1e-12
        assert abs(w[1] - math.exp(-1.0)) <= 1e-12
        assert abs(w[2] - math.exp(-4.0)) <= 1e-12

    def test_distance_is_standardized(self):
        stats = flat_stats(std=10.0)
        samples = np.zeros((1, 6))
        samples[0, 2] = 10.0  # one feature-std away
        w = proximity_weights(np.zeros(6), samples, stats, 1.0)
        assert w[0] == pytest.approx(math.exp(-1.0), rel=1e-12)


class TestFitSurrogate:
    def fit_linear(self, n=2000, ridge=1e-3, seed=4):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, 6))
        y = linear_oracle(z)
        w = np.exp(-rng.random(n))
        fit, = fit_surrogate(z, y[:, None], w, ridge)
        return fit, z, y, w

    def test_recovers_linear_function(self):
        fit, _, _, _ = self.fit_linear()
        want = np.array([0.0, 2.0, 0.0, 0.0, 0.0, -3.0])
        np.testing.assert_allclose(fit.coefficients, want, atol=0.02)
        assert abs(fit.coefficients[1] - 2.0) / 2.0 < 0.01
        assert abs(fit.coefficients[5] + 3.0) / 3.0 < 0.01
        assert fit.intercept == pytest.approx(1.0, abs=0.02)
        assert fit.r2 > 0.999

    def test_duplicating_samples_changes_nothing(self):
        fit, z, y, w = self.fit_linear(n=400)
        twice, = fit_surrogate(np.concatenate([z, z]),
                               np.concatenate([y, y])[:, None],
                               np.concatenate([w, w]), 1e-3)
        np.testing.assert_allclose(twice.coefficients, fit.coefficients,
                                   rtol=1e-9, atol=1e-12)
        assert twice.r2 == pytest.approx(fit.r2, rel=1e-12)

    def test_weight_scale_invariance(self):
        fit, z, y, w = self.fit_linear(n=400)
        scaled, = fit_surrogate(z, y[:, None], 37.5 * w, 1e-3)
        np.testing.assert_allclose(scaled.coefficients, fit.coefficients,
                                   rtol=1e-12)

    def test_constant_targets_get_unit_r2(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((100, 6))
        fit, = fit_surrogate(z, np.full((100, 1), 3.25), np.ones(100), 1e-3)
        assert fit.r2 == 1.0
        np.testing.assert_allclose(fit.coefficients, 0.0, atol=1e-12)
        assert fit.intercept == pytest.approx(3.25, rel=1e-12)

    def test_singular_design_raises_without_ridge(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((50, 6))
        z[:, 3] = z[:, 2]  # exact collinearity
        y = z[:, 2:3] + 1.0
        with pytest.raises(SurrogateFitError):
            fit_surrogate(z, y, np.ones(50), 0.0)
        fit, = fit_surrogate(z, y, np.ones(50), 1e-3)  # ridge rescues it
        assert np.isfinite(fit.coefficients).all()

    def test_non_finite_targets_rejected(self):
        z = np.random.default_rng(7).standard_normal((20, 6))
        y = np.zeros((20, 1))
        y[3] = np.nan
        with pytest.raises(ValueError):
            fit_surrogate(z, y, np.ones(20), 1e-3)

    def test_overflowing_fit_refused_without_a_warning(self):
        """Finite targets near 1e300 overflow the weighted sums of squares,
        so R^2 is NaN: the fit is refused, not returned, and no NumPy
        warning comes first (the suite makes one an error)."""
        rng = np.random.default_rng(8)
        z = rng.standard_normal((50, 6))
        y = 1e300 * np.column_stack([linear_oracle(z), z[:, 0]])
        with pytest.raises(SurrogateFitError, match="not finite"):
            fit_surrogate(z, y, np.ones(50), 1e-3)


class TestExplainAction:
    def test_linear_oracle_recovered_through_pipeline(self):
        stats = flat_stats(mean=1.0)
        x = np.full(6, 2.0)
        e, = explain_action(linear_oracle, x, (1,), ExplainConfig(seed=0),
                            stats)
        assert abs(e.coefficients[1] - 2.0) / 2.0 < 0.01
        assert abs(e.coefficients[5] + 3.0) / 3.0 < 0.01
        assert e.fidelity > 0.999
        assert not e.low_fidelity
        # contributions = slope * displacement from the reference point
        np.testing.assert_allclose(
            e.contributions, e.coefficients * (x - stats.mean), atol=1e-15)

    def test_single_feature_actor_is_dominant(self):
        stats = flat_stats()
        x = np.zeros(6)
        x[0] = 1.5
        e, = explain_action(lambda z: z[:, 0], x, (0,),
                            ExplainConfig(seed=1), stats)
        assert e.ranked_features()[0] == 0
        assert e.coefficients[0] == pytest.approx(1.0, abs=0.01)
        assert np.all(np.abs(np.delete(e.coefficients, 0)) < 0.01)

    def test_same_seed_reproduces_explanation(self):
        stats = flat_stats()
        x = np.linspace(-1, 1, 6)
        a, = explain_action(linear_oracle, x, (0,), ExplainConfig(seed=3),
                            stats)
        b, = explain_action(linear_oracle, x, (0,), ExplainConfig(seed=3),
                            stats)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert a.fidelity == b.fidelity

    def test_narrower_kernel_improves_local_fit(self):
        """Shrinking sigma must close the gap |g(x) - f(x)| for a curved
        target, the defining locality property of the surrogate."""
        stats = flat_stats()
        x = np.zeros(6)
        x[1] = 1.5

        def curved(z):
            return z[:, 1] ** 2

        errors = []
        for sigma in (4.0, 2.0, 1.0, 0.5):
            e, = explain_action(curved, x, (0,),
                                ExplainConfig(seed=4, kernel_sigma=sigma),
                                stats)
            g_at_x = e.intercept + float(e.coefficients @ x)
            errors.append(abs(g_at_x - 1.5 ** 2))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < errors[0] / 2

    def test_noise_targets_flag_low_fidelity(self):
        stats = flat_stats()
        rng = np.random.default_rng(8)
        e, = explain_action(lambda z: rng.standard_normal(len(z)),
                            np.zeros(6), (0,), ExplainConfig(seed=5), stats)
        assert e.low_fidelity
        assert "WARNING" in explanation_text(e)

    def test_input_validation(self):
        stats = flat_stats()
        with pytest.raises(ValueError):
            explain_action(linear_oracle, np.zeros(4), (0,),
                           ExplainConfig(), stats)
        with pytest.raises(ValueError, match="finite features"):
            explain_action(linear_oracle, np.array([0, 0, np.nan, 0, 0, 0]),
                           (0,), ExplainConfig(), stats)
        with pytest.raises(ValueError):
            explain_action(linear_oracle, np.zeros(6), (9,),
                           ExplainConfig(), stats)
        with pytest.raises(ValueError):
            explain_action(linear_oracle, np.zeros(6), (),
                           ExplainConfig(), stats)
        with pytest.raises(ValueError, match="shape"):  # one column, 2 dims
            explain_action(linear_oracle, np.zeros(6), (0, 1),
                           ExplainConfig(), stats)

    @pytest.mark.parametrize("kwargs", [dict(perturb_scale=1e200),
                                        dict(kernel_sigma=1e-300)])
    def test_overflowing_cloud_or_kernel_is_a_fit_error(self, kwargs):
        """A cloud whose squared distances overflow, or a kernel whose
        sigma^2 underflows, leaves NaN or inf in the normal matrix: a
        SurrogateFitError naming both settings, not LinAlgError."""
        with pytest.raises(SurrogateFitError,
                           match="not finite.*perturb_scale.*kernel_sigma"):
            explain_action(linear_oracle, np.zeros(6), (0,),
                           ExplainConfig(**kwargs), flat_stats())

    def test_infinite_cloud_refused_before_the_target(self):
        """A spread whose perturb_scale multiple overflows gives an
        infinite cloud: a SurrogateFitError naming perturb_scale, raised
        before the target sees a sample."""
        def target(z):
            raise AssertionError("the target was queried")

        with pytest.raises(SurrogateFitError,
                           match="cloud is not finite.*perturb_scale"):
            explain_action(target, np.zeros(6), (0,),
                           ExplainConfig(perturb_scale=10.0),
                           flat_stats(std=1e308))


class TestExplainStep:
    def make_policy_and_traj(self):
        from test_trajectory import make_trajectory
        from mgrl.neural import make_policy
        policy = make_policy(6, 5, (8,), np.random.default_rng(9),
                             *raw_inputs(6))
        return policy, make_trajectory(steps=12, seed=2)

    def test_returns_charge_and_discharge_views(self):
        policy, traj = self.make_policy_and_traj()
        cfg = ExplainConfig(n_samples=200, seed=0)
        out = explain_step(policy, traj, 3, EnvConfig(), cfg)
        assert set(out) == {"charge", "discharge"}
        assert out["charge"].action_dim == 0
        assert out["discharge"].action_dim == 1
        assert out["charge"].action_name == "charge"

    def test_matches_per_dim_reference_bitwise(self):
        """One shared cloud, forward and normal matrix give exactly what a
        separate perturb/forward/weights/fit per dim gives."""
        policy, traj = self.make_policy_and_traj()
        cfg = ExplainConfig(seed=0)
        out = explain_step(policy, traj, 3, EnvConfig(), cfg)

        stats = FeatureStats.from_trajectory(traj, EnvConfig())
        x = traj.states()[3]
        for name, dim in (("charge", 0), ("discharge", 1)):
            z = perturb(x, stats, cfg.n_samples, cfg.perturb_scale,
                        np.random.default_rng(cfg.seed))
            y = raw_forward(policy, z)[:, dim]
            w = proximity_weights(x, z, stats, cfg.kernel_sigma)
            fit, = fit_surrogate(z, y[:, None], w, cfg.ridge_strength)
            e = out[name]
            np.testing.assert_array_equal(e.coefficients, fit.coefficients)
            np.testing.assert_array_equal(e.intercept, fit.intercept)
            np.testing.assert_array_equal(e.fidelity, fit.r2)
            np.testing.assert_array_equal(e.contributions,
                                          fit.coefficients * (x - stats.mean))
        assert np.count_nonzero(out["charge"].coefficients) == 6

    def test_two_column_callable_matches_single_dim_calls(self):
        # The single-dim callables return column views, so each target
        # has the same memory stride (and dot-product rounding) in both.
        def both(z):
            return np.column_stack([linear_oracle(z), z[:, 0] * z[:, 2]])

        stats = flat_stats(mean=0.5)
        x = np.linspace(-1.0, 1.0, 6)
        cfg = ExplainConfig(seed=7, n_samples=800)
        pair = explain_action(both, x, (0, 1), cfg, stats)
        for j, e in enumerate(pair):
            single, = explain_action(lambda z: both(z)[:, j], x, (j,), cfg,
                                     stats)
            assert e.action_dim == single.action_dim == j
            np.testing.assert_array_equal(e.coefficients,
                                          single.coefficients)
            np.testing.assert_array_equal(e.contributions,
                                          single.contributions)
            assert e.intercept == single.intercept
            assert e.fidelity == single.fidelity


class TestRendering:
    def make_explanation(self, **cfg_overrides):
        stats = flat_stats(mean=1.0)
        x = np.full(6, 2.0)
        cfg = ExplainConfig(seed=6, n_samples=500, **cfg_overrides)
        return explain_action(linear_oracle, x, (1,), cfg, stats)[0]

    def test_svg_is_wellformed_xml(self):
        root = ET.fromstring(explanation_svg(self.make_explanation()))
        assert root.tag.endswith("svg")

    def test_svg_with_all_zero_bars(self):
        e = self.make_explanation()
        object.__setattr__(e, "contributions", np.zeros(6))
        root = ET.fromstring(explanation_svg(e))
        assert root.tag.endswith("svg")

    def test_csv_round_trips_full_precision(self):
        e = self.make_explanation()
        rows = list(csv.reader(explanation_csv(e).splitlines()))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) == 7
        by_name = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
        for i, name in enumerate(FEATURE_NAMES):
            assert by_name[name][0] == e.coefficients[i]
            assert by_name[name][1] == e.instance[i]

    def test_csv_rows_ranked_by_contribution(self):
        e = self.make_explanation()
        names = [r[0] for r in csv.reader(explanation_csv(e).splitlines())][1:]
        want = [FEATURE_NAMES[i] for i in e.ranked_features()]
        assert names == want

    def test_text_report_mentions_every_feature(self):
        text = explanation_text(self.make_explanation())
        for name in FEATURE_NAMES:
            assert name in text
        assert "fidelity" in text

    def test_render_writes_three_files(self, tmp_path):
        e = self.make_explanation()
        paths = render_explanation(e, tmp_path / "step0003_discharge")
        assert set(paths) == {"svg", "csv", "txt"}
        for p in paths.values():
            assert (tmp_path / p.split("/")[-1]).exists()
