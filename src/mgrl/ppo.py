"""Proximal policy optimization for the microgrid dispatch task.

The trainer is deliberately self-contained: rollouts come from a small
ensemble of lockstep episodes whose batteries :func:`mgrl.env.step`
moves hour by hour as one SOC array, while the critic and
:func:`mgrl.env.allocate` run once over many hours; evaluation steps
one episode's float SOC through the same :func:`mgrl.env.step`.  Both
normalize the scenario's states once per call and per hour only the
SOC, into the rollout table, which holds both nets' inputs for its whole
life, or a 1-D row for the evaluation actor.  Advantages use generalized
advantage estimation, and updates apply the clipped surrogate objective
with analytic gradients through the numpy networks in :mod:`mgrl.neural`.

Training optimizes the per-step reward stream only; the episode-level
resilience bonus enters the normalized episode score that is *reported*
per update, not the return the critic regresses.
"""

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .env import (
    EnvConfig,
    EpisodeSummary,
    N_ACTIONS,
    N_FEATURES,
    NonFiniteActionError,
    allocate,
    features,
    scenario_rows,
    step,
    summarize_episode,
)
from .neural import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    GaussianPolicy,
    Mlp,
    adam_init,
    adam_step,
    blocked_forward,
    flat_views,
    gaussian_entropy,
    gaussian_log_prob,
    make_policy,
    mlp_backward,
    mlp_forward,
    mlp_init,
    normalize,
    pack_params,
    policy_action,
    policy_params,
    value_params,
)
from .scenario import Scenario
from .seeding import derive_rng
from .table import column_view
from .trajectory import Trajectory


class TrainingDivergedError(RuntimeError):
    """Raised when a minibatch's loss or a rollout's action stops being finite.

    ``diagnostic`` carries enough context (update index, loss parts or
    the rollout's error) to write a post-mortem record.
    """

    def __init__(self, message: str, diagnostic: dict):
        super().__init__(message)
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    c1: float = 0.5
    c2: float = 0.01
    learning_rate: float = 3e-4
    rollout_steps: int = 2048
    epochs_per_update: int = 10
    minibatch_size: int = 256
    total_updates: int = 150
    n_envs: int = 8
    hidden_sizes: tuple[int, ...] = (64, 64)
    init_log_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(
                f"gae_lambda must lie in [0, 1], got {self.gae_lambda}")
        if not self.clip_eps > 0.0:
            raise ValueError(f"clip_eps must be positive, got {self.clip_eps}")
        if not self.learning_rate > 0.0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}")
        if not (self.c1 >= 0.0 and self.c2 >= 0.0):
            raise ValueError("loss coefficients c1, c2 must be non-negative")
        if self.rollout_steps <= 0 or self.n_envs <= 0:
            raise ValueError("rollout_steps and n_envs must be positive")
        if self.rollout_steps % self.n_envs != 0:
            raise ValueError(
                f"rollout_steps ({self.rollout_steps}) must be divisible by "
                f"n_envs ({self.n_envs})")
        if self.epochs_per_update <= 0 or self.minibatch_size <= 0:
            raise ValueError(
                "epochs_per_update and minibatch_size must be positive")
        if self.total_updates < 0:
            raise ValueError(
                f"total_updates must be non-negative, got {self.total_updates}")
        if not self.hidden_sizes or any(h <= 0 for h in self.hidden_sizes):
            raise ValueError(f"bad hidden_sizes {self.hidden_sizes!r}")
        if not LOG_STD_MIN < self.init_log_std < LOG_STD_MAX:  # else frozen
            raise ValueError(f"init_log_std must lie in ({LOG_STD_MIN}, "
                             f"{LOG_STD_MAX}), got {self.init_log_std}")


_LOG_PROB = N_FEATURES + N_ACTIONS
ROLLOUT_WIDTH = _LOG_PROB + 6


@dataclass
class RolloutBuffer:
    """Transitions as one float64 table, a rollout's time-major (T, n_envs,
    ROLLOUT_WIDTH) or a minibatch's (B, ROLLOUT_WIDTH) row slice of it,
    whose fields are column views.  ``bootstrap`` holds the critic value
    of each env's state after the final stored step, which closes off
    truncated episodes in the advantage recursion."""

    table: np.ndarray
    bootstrap: np.ndarray | None = None  # (n_envs,)
    episode_summaries: list[EpisodeSummary] = field(default_factory=list)

    states = column_view(slice(N_FEATURES))  # normalized: network inputs
    actions = column_view(slice(N_FEATURES, _LOG_PROB))  # as drawn
    log_probs = column_view(_LOG_PROB)
    advantages = column_view(_LOG_PROB + 1)  # filled by train, normalized
    returns = column_view(_LOG_PROB + 2)  # filled by train
    rewards = column_view(_LOG_PROB + 3)
    values = column_view(_LOG_PROB + 4)
    dones = column_view(_LOG_PROB + 5)  # 1.0 where the episode ended


@dataclass(frozen=True)
class TrainStats:
    update: int
    mean_reward_norm: float
    ri: float
    policy_loss: float
    value_loss: float
    entropy: float
    clip_frac: float


@dataclass
class TrainResult:
    policy: GaussianPolicy
    value: Mlp
    stats: list[TrainStats]


@dataclass
class EvalResult:
    mean_reward_norm: float
    ri: float
    trajectory: Trajectory
    summaries: list[EpisodeSummary]


def obs_stats_from_scenario(
        env_cfg: EnvConfig, scn: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Fixed observation mean/scale derived from the scenario series.

    SOC is centred on the allowed band; the exogenous features use the
    scenario's own mean and standard deviation.  Scales are floored so a
    constant series cannot produce a degenerate normalizer.
    """
    soc_lo, soc_hi = env_cfg.soc_min, env_cfg.soc_max
    cols = features(0.0, scn.loads, scn.p_re)[:, 1:].T
    mean = np.array([0.5 * (soc_lo + soc_hi)] + [c.mean() for c in cols])
    scale = np.array([max(0.5 * (soc_hi - soc_lo), 1e-6)]
                     + [max(float(c.std()), 1e-6) for c in cols])
    return mean, scale


class EnvBatch:
    """Per-run state of the training envs, which run in lockstep.

    All envs share the scenario clock ``t``: every episode starts at t = 0
    and runs the full horizon, so the envs finish together and each then
    draws a fresh SOC from its own reset stream ``rngs[i]``.  The SOCs are
    an (n_envs,) array, and the hour log of the running episodes holds
    their time-major (horizon, n_envs, 3) shortages and (horizon, n_envs)
    rewards, so one allocation fills a run of hours as one slice.
    """

    def __init__(self, cfg: EnvConfig, scn: Scenario, n_envs: int,
                 seed: int):
        self.cfg = cfg
        self.rows = scenario_rows(scn)
        self.loads, self.p_re = scn.loads, scn.p_re
        self.shortages = np.empty((scn.horizon, n_envs, 3))
        self.rewards = np.empty((scn.horizon, n_envs))
        self.rngs = [derive_rng(seed, f"env-{i}") for i in range(n_envs)]
        self.reset()

    def reset(self) -> None:
        self.t = 0
        self.soc = np.array([self.cfg.initial_soc(rng) for rng in self.rngs])


def collect_rollouts(policy: GaussianPolicy, value: Mlp,
                     envs: EnvBatch, n_steps: int,
                     rng: np.random.Generator) -> RolloutBuffer:
    """Advance every env in lockstep until exactly n_steps transitions exist.

    The scenario's states are normalized once per call, as in evaluation.
    An hour keeps only what feeds the next hour's SOC: its row of that
    block in the table's state rows (the network inputs the buffer keeps)
    with the envs' normalized SOC, one actor forward on those rows, whose
    means :func:`mgrl.neural.policy_action` turns into draws at the
    rollout's one std, and one :func:`mgrl.env.step` call on the envs' SOC
    array and the draws as stored.  One :func:`mgrl.env.allocate` call per
    episode segment (the rollout's hours within one episode) fills the
    rewards and the envs' hour log; an episode that ends is then
    summarized and restarted in place, so a buffer may span several
    (possibly partial) episodes per env.  One stacked critic forward over
    the table's states after the last hour gives the values, each hour bit
    for bit its own call, one on the block's inputs at the final clock the
    bootstrap, and one :func:`mgrl.neural.gaussian_log_prob` call the
    draws' log-densities.
    The critic reads the actor's normalized inputs, as in train.
    :class:`PpoConfig` makes n_steps a multiple of n_envs.
    """
    n_envs = len(envs.rngs)
    steps = n_steps // n_envs

    buf = RolloutBuffer(np.zeros((steps, n_envs, ROLLOUT_WIDTH)))
    states, actions, rewards, dones = (
        buf.states, buf.actions, buf.rewards, buf.dones)
    means = np.empty((steps, n_envs, N_ACTIONS))
    supply = np.empty((steps, n_envs))
    # One draw for the whole rollout: the same numbers, in the same order,
    # as one (n_envs, N_ACTIONS) draw per hour.
    z = rng.standard_normal((steps, n_envs, N_ACTIONS))
    log_std = policy.clamped_log_std()
    std = np.exp(log_std)
    x = normalize(policy, features(0.0, envs.loads, envs.p_re))
    soc_mean, soc_scale = policy.obs_mean[0], policy.obs_scale[0]

    start = 0
    while start < steps:  # one episode segment per pass
        n = min(steps - start, len(envs.rows) - envs.t)
        seg, hours = slice(start, start + n), slice(envs.t, envs.t + n)
        for t in range(seg.start, seg.stop):
            states[t] = x[envs.t]
            states[t, :, 0] = (envs.soc - soc_mean) / soc_scale
            means[t] = mlp_forward(policy.trunk, states[t])[0]
            actions[t] = policy_action(means[t], std, z[t])
            envs.soc, _, _, supply[t] = step(
                envs.cfg, envs.rows[envs.t], envs.soc, actions[t].T)
            envs.t += 1
        *_, envs.shortages[hours], rewards[seg] = allocate(
            envs.cfg, envs.loads[hours, None], supply[seg],
            actions[seg, :, 2:])
        envs.rewards[hours] = rewards[seg]
        if envs.t == len(envs.rows):
            dones[seg.stop - 1] = 1.0
            buf.episode_summaries += [
                summarize_episode(envs.cfg, envs.loads, envs.shortages[:, i],
                                  envs.rewards[:, i])
                for i in range(n_envs)]
            envs.reset()
        start += n

    buf.values[...] = blocked_forward(value, states)[..., 0]
    last = np.tile(x[envs.t], (n_envs, 1))
    last[:, 0] = (envs.soc - soc_mean) / soc_scale
    buf.bootstrap = blocked_forward(value, last)[:, 0]
    buf.log_probs[...] = gaussian_log_prob(means, log_std, actions)
    return buf


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                bootstrap, gamma: float,
                lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over a (possibly batched) rollout.

    Accepts 1-D arrays or time-major ``(T, n_envs)`` arrays.  ``dones``
    gates both the bootstrap term and the recursion so advantages never
    leak across episode boundaries.  Returns (advantages, returns) where
    returns are the value-function regression targets.
    """
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    d = np.asarray(dones, dtype=np.float64)
    if not (r.shape == v.shape == d.shape):
        raise ValueError("rewards, values and dones must share a shape")
    # All hours' TD residuals and decays at once, in the recursion's op order
    next_v = np.empty_like(v)
    next_v[:-1] = v[1:]
    next_v[-1:] = bootstrap
    not_done = 1.0 - d
    adv = r + gamma * next_v * not_done - v
    decay = gamma * lam * not_done
    gae = np.zeros(r.shape[1:])
    for row, k in zip(adv[::-1, None], decay[::-1, None]):
        row += k * gae  # a view into adv: delta + decay * gae
        gae = row
    return adv, adv + v


def clipped_policy_loss(ratio: np.ndarray, advantages: np.ndarray,
                        clip_eps: float) -> tuple[float, float, np.ndarray]:
    """PPO clipped surrogate loss over probability ratios.

    Returns (loss, clip fraction, unclipped): ``unclipped`` is True where
    the min() picks the unclipped branch (ties included), the only rows
    through which the loss depends on the ratio.
    """
    n = len(ratio)
    surr1 = ratio * advantages
    surr2 = np.minimum(np.maximum(ratio, 1.0 - clip_eps),
                       1.0 + clip_eps) * advantages
    loss = -float(np.add.reduce(np.minimum(surr1, surr2)) / n)
    clip_frac = np.count_nonzero(np.abs(ratio - 1.0) > clip_eps) / n
    return loss, clip_frac, surr1 <= surr2


def value_loss(values_pred: np.ndarray, returns: np.ndarray) -> float:
    return float(np.add.reduce(np.square(values_pred - returns))
                 / len(returns))


def total_loss(policy_loss_: float, value_loss_: float, entropy: float,
               c1: float, c2: float) -> float:
    return policy_loss_ + c1 * value_loss_ - c2 * entropy


@dataclass
class LossReport:
    total: float
    policy_loss: float
    value_loss: float
    entropy: float
    clip_frac: float


class UpdateWorkspace:
    """Preallocated arrays for :func:`ppo_loss_and_grads` on up to ``rows``
    minibatch rows: one flat buffer per layer, as wide as the wider net
    there, which holds the actor's output and then the critic's (views
    ``policy_outs`` and ``value_outs``), the loss head's residual, one
    scratch array, and one flat gradient vector ``grad`` laid out like the
    parameter vector of :func:`mgrl.neural.pack_params`.
    """

    def __init__(self, policy: GaussianPolicy, value: Mlp, rows: int):
        p_params = policy_params(policy)
        params = p_params + value_params(value)
        self.grad = np.empty(sum(a.size for a in params))
        views = flat_views(self.grad, params)
        self.policy_grads = views[:len(p_params)]
        self.value_grads = views[len(p_params):]
        p_sizes, v_sizes = policy.trunk.sizes[1:], value.sizes[1:]
        layers = [np.empty(rows * max(k))
                  for k in zip_longest(p_sizes, v_sizes, fillvalue=0)]
        self.policy_outs = [a[:rows * k].reshape(rows, k)
                            for a, k in zip(layers, p_sizes)]
        self.value_outs = [a[:rows * k].reshape(rows, k)
                           for a, k in zip(layers, v_sizes)]
        self.residual = np.empty((rows, policy.trunk.sizes[-1]))
        width = max(*policy.trunk.sizes, *value.sizes)
        self.scratch = np.empty(rows * width)


def ppo_loss_and_grads(policy: GaussianPolicy, value: Mlp,
                       batch: RolloutBuffer, cfg: PpoConfig,
                       ws: UpdateWorkspace) -> LossReport:
    """Evaluate the PPO objective on a minibatch, with analytic gradients.

    ``batch`` is a minibatch :class:`RolloutBuffer`: the actor reads its
    normalized ``states``, and so does the critic, which reads the
    actor's normalized inputs; the loss reads its ``actions``,
    ``log_probs``, ``advantages`` and ``returns``.  Every activation and
    gradient goes into the workspace ``ws``, and the gradient of the
    total loss fills ``ws.grad``.  The two networks'
    terms are independent, so the actor's forward, loss head and backward
    finish before the critic's forward reuses the same layer buffers.
    The min() in the surrogate routes gradient to the unclipped branch on
    ties, and a clipped row adds none, even where its ratio overflows.
    The log-std gradient is gated to zero wherever the clamp is active.
    """
    x, act, lp_old = batch.states, batch.actions, batch.log_probs
    adv, ret = batch.advantages, batch.returns
    n = act.shape[0]

    mean, cache = mlp_forward(policy.trunk, x, ws.policy_outs, ws.scratch)
    log_std = policy.clamped_log_std()
    z = ws.residual[:n]  # (act - mean) / sigma, kept for the gradient
    ratio = np.exp(gaussian_log_prob(mean, log_std, act, z) - lp_old)
    pol_loss, clip_frac, unclipped = clipped_policy_loss(ratio, adv,
                                                         cfg.clip_eps)
    # Select, not multiply by the mask: an overflowed ratio times 0 is nan.
    # adv * 0.0 is the zero that product gave, sign included.
    g_lp = -np.where(unclipped, adv * ratio, adv * 0.0) / n  # d total / d lp
    g_log_std = np.add.reduce(g_lp[:, None] * (z * z - 1.0), axis=0) - cfg.c2
    z /= np.exp(log_std)
    g_mean = g_lp[:, None] * z                     # z / sigma by now
    clamp_open = ((policy.log_std > LOG_STD_MIN)
                  & (policy.log_std < LOG_STD_MAX))
    np.multiply(g_log_std, clamp_open, out=ws.policy_grads[-1])
    mlp_backward(policy.trunk, cache, g_mean, ws.policy_grads[:-1],
                 ws.scratch, input_grad=False)

    out, vcache = mlp_forward(value, x, ws.value_outs, ws.scratch)
    vals = out[:, 0]
    val_loss = value_loss(vals, ret)
    g_val = (cfg.c1 * 2.0 * (vals - ret) / n)[:, None]
    mlp_backward(value, vcache, g_val, ws.value_grads, ws.scratch,
                 input_grad=False)
    entropy = gaussian_entropy(log_std)
    total = total_loss(pol_loss, val_loss, entropy, cfg.c1, cfg.c2)
    return LossReport(total=total, policy_loss=pol_loss, value_loss=val_loss,
                      entropy=entropy, clip_frac=clip_frac)


def train(cfg: PpoConfig, env_cfg: EnvConfig, scn: Scenario,
          checkpoint_fn=None) -> TrainResult:
    """Run PPO for cfg.total_updates and return the trained networks.

    ``checkpoint_fn(update, policy, value, stats)`` is invoked after each
    completed update when given.  Raises TrainingDivergedError the moment
    any loss component, or an action of a rollout, stops being finite.

    Both networks' parameters live in one flat vector (see
    :func:`mgrl.neural.pack_params`) that one Adam step per minibatch
    updates.  Each update fills the rollout table's advantages and
    returns (its states are already both nets' inputs); each epoch
    gathers its shuffled rows with one ``np.take`` into one table, whose
    row slices are the minibatches.  Activations and gradients go into one
    preallocated :class:`UpdateWorkspace`, so a minibatch allocates only
    the loss head's (B,) and (B, N_ACTIONS) temporaries.
    """
    obs_mean, obs_scale = obs_stats_from_scenario(env_cfg, scn)
    policy = make_policy(N_FEATURES, N_ACTIONS, cfg.hidden_sizes,
                         derive_rng(cfg.seed, "policy-init"),
                         obs_mean, obs_scale, init_log_std=cfg.init_log_std)
    value = mlp_init([N_FEATURES, *cfg.hidden_sizes, 1],
                     derive_rng(cfg.seed, "value-init"))
    envs = EnvBatch(env_cfg, scn, cfg.n_envs, cfg.seed)
    rollout_rng = derive_rng(cfg.seed, "rollout")
    shuffle_rng = derive_rng(cfg.seed, "minibatch")

    n = cfg.rollout_steps
    theta = pack_params(policy, value)
    opt = adam_init(theta, cfg.learning_rate)
    ws = UpdateWorkspace(policy, value, min(cfg.minibatch_size, n))
    shuffled = np.empty((n, ROLLOUT_WIDTH))

    stats: list[TrainStats] = []
    last_reward_norm = float("nan")
    last_ri = float("nan")
    for update in range(cfg.total_updates):
        try:  # the last Adam step can overflow the actor
            buf = collect_rollouts(policy, value, envs, n, rollout_rng)
        except NonFiniteActionError as exc:
            raise TrainingDivergedError(
                f"non-finite action in the rollout of update {update}",
                diagnostic={"update": update, "rollout": str(exc)}) from None
        adv, ret = compute_gae(buf.rewards, buf.values, buf.dones,
                               buf.bootstrap, cfg.gamma, cfg.gae_lambda)
        buf.advantages[...] = (adv - adv.mean()) / (adv.std() + 1e-8)
        buf.returns[...] = ret
        rollout = buf.table.reshape(n, ROLLOUT_WIDTH)

        parts = np.zeros(4)  # policy, value, entropy, clip_frac
        n_batches = 0
        for _ in range(cfg.epochs_per_update):
            # In range by construction; "raise" would gather into a copy.
            np.take(rollout, shuffle_rng.permutation(n), axis=0,
                    out=shuffled, mode="clip")
            for lo in range(0, n, cfg.minibatch_size):
                batch = RolloutBuffer(shuffled[lo:lo + cfg.minibatch_size])
                rep = ppo_loss_and_grads(policy, value, batch, cfg, ws)
                if not np.isfinite(rep.total):
                    raise TrainingDivergedError(
                        f"non-finite loss at update {update}",
                        diagnostic={"update": update,
                                    "policy_loss": rep.policy_loss,
                                    "value_loss": rep.value_loss,
                                    "entropy": rep.entropy})
                adam_step(theta, ws.grad, opt)
                parts += (rep.policy_loss, rep.value_loss, rep.entropy,
                          rep.clip_frac)
                n_batches += 1
        parts /= n_batches

        if buf.episode_summaries:
            last_reward_norm = float(np.mean(
                [s.reward_final_norm for s in buf.episode_summaries]))
            last_ri = float(np.mean(
                [s.ri for s in buf.episode_summaries]))
        st = TrainStats(update=update, mean_reward_norm=last_reward_norm,
                        ri=last_ri, policy_loss=float(parts[0]),
                        value_loss=float(parts[1]), entropy=float(parts[2]),
                        clip_frac=float(parts[3]))
        stats.append(st)
        if checkpoint_fn is not None:
            checkpoint_fn(update, policy, value, st)
    return TrainResult(policy=policy, value=value, stats=stats)


def evaluate_actions(act, env_cfg: EnvConfig, scn: Scenario,
                     n_episodes: int = 1, seed: int = 0) -> EvalResult:
    """Score a policy, given as its action function, over n_episodes >= 1
    (``mgrl eval`` refuses fewer); the first is kept in full.  Episode
    ``ep`` starts at the SOC drawn from ``eval-reset-{ep}``, and each hour
    ``act(t, soc, rng)`` maps the hour, its SOC as a Python float and the
    ``eval-action-{ep}`` stream to the action as drawn, a (5,) row or a
    (1, 5) batch, stored alike; :func:`mgrl.env.step` and
    :func:`mgrl.env.allocate` clamp it.  The hours' SOCs and battery flows
    are Python floats, collected in lists and written to the trajectory
    once.  After an episode's last hour a non-finite action is refused,
    naming its hour; then one :func:`mgrl.env.allocate` call splits the
    episode's supply."""
    rows = scenario_rows(scn)
    actions = np.empty((len(rows), N_ACTIONS))
    summaries = []
    for ep in range(n_episodes):
        soc = env_cfg.initial_soc(derive_rng(seed, f"eval-reset-{ep}"))
        rng = derive_rng(seed, f"eval-action-{ep}")
        traj = Trajectory.empty(len(rows))
        traj.p_re[:], traj.loads[:] = scn.p_re, scn.loads
        socs, flows = [], []
        for t, row in enumerate(rows):
            socs.append(soc)
            actions[t] = act(t, soc, rng)
            soc, *flow = step(env_cfg, row, soc, actions[t].tolist())
            flows.append(flow)
        traj.soc[:], traj.flows[:] = socs, flows
        if not np.isfinite(actions).all():
            bad = np.isfinite(actions).all(axis=1).argmin()
            raise NonFiniteActionError(f"non-finite action at hour {bad}: "
                                       f"{actions[bad].tolist()}")
        (traj.allocations[:], traj.imbalances[:], traj.shortages[:],
         traj.reward[:]) = allocate(env_cfg, traj.loads, traj.p_supply,
                                    actions[:, 2:])
        summaries.append(summarize_episode(env_cfg, traj.loads,
                                           traj.shortages, traj.reward))
        if ep == 0:
            first = traj
    return EvalResult(
        float(np.mean([s.reward_final_norm for s in summaries])),
        float(np.mean([s.ri for s in summaries])), first, summaries)


def evaluate_policy(policy: GaussianPolicy, env_cfg: EnvConfig,
                    scn: Scenario, n_episodes: int = 1,
                    deterministic: bool = True, seed: int = 0) -> EvalResult:
    """:func:`evaluate_actions` on the policy mean, or on samples drawn
    from each episode's action stream when not ``deterministic``.
    The scenario's states are normalized once per call, as in a rollout;
    each hour then normalizes only its SOC, feature 0, into its row of that
    block, in Python floats, and runs the actor on the 1-D row (the
    bits of the row's (1, 6) batch, at less cost), drawing (5,) normals
    when stochastic."""
    x = normalize(policy, features(0.0, scn.loads, scn.p_re))
    soc_mean, soc_scale = policy.obs_mean.item(0), policy.obs_scale.item(0)
    std = np.exp(policy.clamped_log_std())

    def act(t, soc, rng):
        x[t, 0] = (soc - soc_mean) / soc_scale
        z = None if deterministic else rng.standard_normal(N_ACTIONS)
        return policy_action(mlp_forward(policy.trunk, x[t])[0], std, z)
    return evaluate_actions(act, env_cfg, scn, n_episodes, seed)
