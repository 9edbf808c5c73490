"""Local linear explanations of the trained actor.

For one state the pipeline perturbs the features, queries the actor's
deterministic mean output, weights the samples by proximity to the
explained state, and fits a weighted ridge surrogate per explained
action dimension.  All explained dims of one state share one
perturbation cloud, one actor forward, one set of proximity weights and
one normal matrix; only the right-hand side and the solve are per dim.
The surrogate yields two views per feature:

* ``coefficients`` — local slopes of the actor output in raw feature
  units (how the output would move if the feature moved);
* ``contributions`` — slope times the feature's displacement from its
  typical trajectory value, i.e. the signed share this feature's current
  reading adds to the decision relative to a typical operating point.

The bar charts render contributions: "renewables are low right now,
which pushes toward discharging" is a statement about displacement, not
about the derivative alone.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .env import ACTION_NAMES, EnvConfig, FEATURE_NAMES, N_FEATURES
from .neural import GaussianPolicy, forward_policy
from .svg import bar_chart
from .trajectory import Trajectory

STD_FLOOR = 1e-6
LOW_FIDELITY_THRESHOLD = 0.5
MAX_CONDITION = 1e12


class SurrogateFitError(RuntimeError):
    """Weighted ridge system could not be solved (singular without ridge)."""


@dataclass(frozen=True)
class ExplainConfig:
    n_samples: int = 5000
    kernel_sigma: float = 0.75 * math.sqrt(N_FEATURES)
    perturb_scale: float = 1.0
    ridge_strength: float = 1e-3
    top_k: int = N_FEATURES
    seed: int = 0

    def validate(self) -> None:
        if self.n_samples < 10:
            raise ValueError(
                f"n_samples must be at least 10, got {self.n_samples}")
        if self.kernel_sigma <= 0.0:
            raise ValueError(
                f"kernel_sigma must be positive, got {self.kernel_sigma}")
        if self.perturb_scale < 0.0:
            raise ValueError(
                f"perturb_scale must be non-negative, got {self.perturb_scale}")
        if self.ridge_strength < 0.0:
            raise ValueError(
                f"ridge_strength must be non-negative, got {self.ridge_strength}")
        if not 1 <= self.top_k <= N_FEATURES:
            raise ValueError(
                f"top_k must lie in [1, {N_FEATURES}], got {self.top_k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature location, spread and physical bounds for the sampler."""

    mean: np.ndarray  # (6,)
    std: np.ndarray   # (6,) floored at STD_FLOOR
    low: np.ndarray   # (6,) clamp floor (-inf where unbounded)
    high: np.ndarray  # (6,) clamp ceiling (+inf where unbounded)

    @staticmethod
    def from_trajectory(traj: Trajectory,
                        env_cfg: EnvConfig) -> "FeatureStats":
        states = traj.states()
        mean = states.mean(axis=0)
        std = np.maximum(states.std(axis=0), STD_FLOOR)
        low = np.array([env_cfg.soc_min, 0.0, 0.0, 0.0, 0.0, -np.inf])
        high = np.array([env_cfg.soc_max, np.inf, np.inf, np.inf,
                         np.inf, np.inf])
        return FeatureStats(mean=mean, std=std, low=low, high=high)


def perturb(x: np.ndarray, stats: FeatureStats, n: int, scale: float,
            rng: np.random.Generator) -> np.ndarray:
    """(n, 6) Gaussian cloud around x, clamped to physical ranges.

    Row 0 is the instance itself so the surrogate always sees the point
    it is meant to explain.
    """
    x = np.asarray(x, dtype=np.float64)
    noise = rng.standard_normal((n, x.size)) * (scale * stats.std)
    noise[0] = 0.0
    return np.clip(x + noise, stats.low, stats.high)


def proximity_weights(x: np.ndarray, samples: np.ndarray,
                      stats: FeatureStats, sigma: float) -> np.ndarray:
    """exp(-D^2 / sigma^2) with D Euclidean over std-standardized features."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d2 = (((samples - x) / stats.std) ** 2).sum(axis=1)
    return np.exp(-d2 / (sigma * sigma))


@dataclass(frozen=True)
class SurrogateFit:
    intercept: float          # raw-unit intercept
    coefficients: np.ndarray  # raw-unit slopes, one per feature
    coef_std: np.ndarray      # slopes on the standardized design
    r2: float                 # weighted coefficient of determination


def fit_surrogate(samples: np.ndarray, targets: np.ndarray,
                  weights: np.ndarray, ridge_strength: float
                  ) -> SurrogateFit | tuple[SurrogateFit, ...]:
    """Weighted ridge regression via normal equations.

    The design is standardized by its own weighted mean/std, which makes
    the intercept decouple (solved in closed form) and leaves a
    symmetric positive-definite system for any positive ridge.  Weights
    are normalized to sum to one, so duplicating the whole sample set
    changes nothing.

    ``targets`` of shape (n,) give one fit; (n, k) give one fit per
    column, all from the same standardized design and normal matrix.
    """
    z_raw = np.asarray(samples, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if len(z_raw) < 10:
        raise ValueError(f"need at least 10 samples, got {len(z_raw)}")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    omega = w / w.sum()

    mu = omega @ z_raw
    var = omega @ (z_raw - mu) ** 2
    sd = np.maximum(np.sqrt(var), 1e-9)
    z = (z_raw - mu) / sd

    zw = z * omega[:, None]
    a = zw.T @ z
    a[np.diag_indices_from(a)] += ridge_strength
    # An exactly collinear design without ridge rounds to a tiny but
    # nonzero pivot, so LAPACK happily returns garbage; reject by
    # conditioning instead of waiting for a zero pivot.
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SurrogateFitError(
            f"surrogate system is singular or ill-conditioned "
            f"(cond={cond:.2e}, ridge_strength={ridge_strength}); "
            f"increase ridge_strength")

    fits = []
    # One solve per column: a multi-column LAPACK solve need not round
    # like the single-column one.
    for y_j in (y[:, None] if y.ndim == 1 else y).T:
        y_bar = float(omega @ y_j)
        beta = np.linalg.solve(a, zw.T @ (y_j - y_bar))
        resid = y_j - y_bar - z @ beta
        ss_res = float(omega @ resid ** 2)
        ss_tot = float(omega @ (y_j - y_bar) ** 2)
        r2 = 1.0 if ss_tot <= 1e-18 else 1.0 - ss_res / ss_tot
        coef_raw = beta / sd
        intercept = y_bar - float(coef_raw @ mu)
        fits.append(SurrogateFit(intercept=intercept, coefficients=coef_raw,
                                 coef_std=beta, r2=r2))
    return fits[0] if y.ndim == 1 else tuple(fits)


@dataclass(frozen=True)
class Explanation:
    instance: np.ndarray
    action_dim: int
    action_name: str
    feature_names: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray   # raw-unit local slopes (0 where dropped)
    contributions: np.ndarray  # coefficient * (instance - reference)
    reference: np.ndarray      # trajectory feature means
    fidelity: float
    low_fidelity: bool
    n_samples: int

    def ranked_features(self) -> list[int]:
        """Feature indices sorted by descending |contribution|."""
        order = sorted(range(len(self.feature_names)),
                       key=lambda i: (-abs(self.contributions[i]), i))
        return order


def explain_action(policy_fn, x: np.ndarray, action_dims: tuple[int, ...],
                   cfg: ExplainConfig,
                   stats: FeatureStats) -> tuple[Explanation, ...]:
    """Explain several scalar actor outputs at one state.

    Args:
        policy_fn: a GaussianPolicy, or any callable mapping an (n, 6)
            state matrix to target values, (n,) for a single dim or
            (n, k) for k dims — the latter keeps the fitter testable
            against known functions.
        x: the state to explain, 6 features.
        action_dims: which actor outputs to explain (0 = charge intent,
            1 = discharge intent, 2-4 = priority weights).
        stats: feature statistics from the evaluation trajectory.

    Returns one Explanation per entry of ``action_dims``, in order.
    """
    cfg.validate()
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (N_FEATURES,):
        raise ValueError(f"instance must have {N_FEATURES} features")
    if not action_dims or not all(0 <= d < len(ACTION_NAMES)
                                  for d in action_dims):
        raise ValueError(f"action_dims out of range: {action_dims}")

    rng = np.random.default_rng(cfg.seed)
    z = perturb(x, stats, cfg.n_samples, cfg.perturb_scale, rng)
    if isinstance(policy_fn, GaussianPolicy):
        # take() returns C order: with two or more dims each target
        # column is strided like a column of the means, so its dot
        # products round exactly as a one-dim fit of that column would.
        y = np.take(forward_policy(policy_fn, z), action_dims, axis=1)
    else:
        y = np.asarray(policy_fn(z), dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
    if y.shape != (cfg.n_samples, len(action_dims)):
        raise ValueError(f"targets have shape {y.shape}, expected "
                         f"{(cfg.n_samples, len(action_dims))}")
    w = proximity_weights(x, z, stats, cfg.kernel_sigma)

    out = []
    for d, y_d, fit in zip(action_dims, y.T,
                           fit_surrogate(z, y, w, cfg.ridge_strength)):
        keep = sorted(range(N_FEATURES),
                      key=lambda i: (-abs(fit.coef_std[i]), i))[:cfg.top_k]
        coefficients = np.zeros(N_FEATURES)
        if cfg.top_k < N_FEATURES:
            fit = fit_surrogate(z[:, keep], y_d, w, cfg.ridge_strength)
            coefficients[keep] = fit.coefficients
        else:
            coefficients[:] = fit.coefficients
        out.append(Explanation(
            instance=x.copy(), action_dim=d, action_name=ACTION_NAMES[d],
            feature_names=FEATURE_NAMES, intercept=fit.intercept,
            coefficients=coefficients,
            contributions=coefficients * (x - stats.mean),
            reference=stats.mean.copy(), fidelity=fit.r2,
            low_fidelity=fit.r2 < LOW_FIDELITY_THRESHOLD,
            n_samples=cfg.n_samples))
    return tuple(out)


def explain_step(policy: GaussianPolicy, traj: Trajectory, t: int,
                 env_cfg: EnvConfig,
                 cfg: ExplainConfig) -> dict[str, Explanation]:
    """Charging-dim and discharging-dim explanations for one logged step."""
    if not 0 <= t < len(traj):
        raise ValueError(
            f"step {t} outside trajectory of length {len(traj)}")
    stats = FeatureStats.from_trajectory(traj, env_cfg)
    x = traj.states()[t]
    return {e.action_name: e
            for e in explain_action(policy, x, (0, 1), cfg, stats)}


# ---------------------------------------------------------------------------
# Rendering

CSV_HEADER = ("feature", "coefficient", "instance_value")


def write_explanation_csv(e: Explanation, path: str | os.PathLike) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for i in e.ranked_features():
            fh.write(f"{e.feature_names[i]},{float(e.coefficients[i])!r},"
                     f"{float(e.instance[i])!r}\n")


def explanation_svg(e: Explanation) -> str:
    order = e.ranked_features()
    title = (f"Attributions for {e.action_name} intent "
             f"(fidelity {e.fidelity:.3f})")
    return bar_chart([e.feature_names[i] for i in order],
                     [e.contributions[i] for i in order],
                     title, value_label="signed contribution to output")


def explanation_text(e: Explanation) -> str:
    lines = [f"Explanation of actor output '{e.action_name}' "
             f"(dimension {e.action_dim})",
             f"  samples: {e.n_samples}   local fidelity (weighted R^2): "
             f"{e.fidelity:.6f}"]
    if e.low_fidelity:
        lines.append("  WARNING: fidelity below "
                     f"{LOW_FIDELITY_THRESHOLD}; treat attributions "
                     "with caution")
    lines.append(f"  surrogate intercept: {e.intercept:.6f}")
    lines.append(f"  {'feature':<22}{'value':>12}{'typical':>12}"
                 f"{'slope':>14}{'contribution':>14}")
    for i in e.ranked_features():
        lines.append(f"  {e.feature_names[i]:<22}{e.instance[i]:>12.4f}"
                     f"{e.reference[i]:>12.4f}{e.coefficients[i]:>14.6f}"
                     f"{e.contributions[i]:>14.6f}")
    return "\n".join(lines) + "\n"


def render_explanation(e: Explanation, base_path: str | os.PathLike
                       ) -> dict[str, str]:
    """Write SVG + CSV + text reports; returns the paths keyed by kind."""
    base = os.fspath(base_path)
    paths = {"svg": base + ".svg", "csv": base + ".csv",
             "txt": base + ".txt"}
    with open(paths["svg"], "w", encoding="utf-8") as fh:
        fh.write(explanation_svg(e))
    write_explanation_csv(e, paths["csv"])
    with open(paths["txt"], "w", encoding="utf-8") as fh:
        fh.write(explanation_text(e))
    return paths
