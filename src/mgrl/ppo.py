"""Proximal policy optimization for the microgrid dispatch task.

The trainer is deliberately self-contained: rollouts come from a small
ensemble of lockstep episodes that :func:`mgrl.env.step_batch` advances
together, advantages use generalized advantage estimation, and updates
apply the clipped surrogate objective with analytic gradients through the
numpy networks in :mod:`mgrl.neural`.  Evaluation runs one episode at a
time through :func:`mgrl.env.step`.

Training optimizes the per-step reward stream only; the episode-level
resilience bonus enters the normalized episode score that is *reported*
per update, not the return the critic regresses.
"""

from dataclasses import dataclass, field

import numpy as np

from .env import (
    EnvConfig,
    EpisodeSummary,
    N_ACTIONS,
    N_FEATURES,
    load_totals,
    scenario_rows,
    step,
    step_batch,
    summarize_episode,
)
from .neural import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    GaussianPolicy,
    ValueNet,
    adam_init,
    adam_step,
    flat_views,
    forward_policy,
    forward_value,
    gaussian_entropy,
    gaussian_log_prob,
    make_policy,
    make_value,
    mlp_backward,
    mlp_forward,
    normalize,
    pack_params,
    policy_params,
    sample_action,
    value_params,
)
from .scenario import Scenario
from .seeding import derive_rng
from .trajectory import Trajectory


class TrainingDivergedError(RuntimeError):
    """Raised when a loss or gradient stops being finite.

    ``diagnostic`` carries enough context (update index, loss parts) to
    write a post-mortem record.
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

    def validate(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(
                f"gae_lambda must lie in [0, 1], got {self.gae_lambda}")
        if self.clip_eps <= 0.0:
            raise ValueError(f"clip_eps must be positive, got {self.clip_eps}")
        if self.learning_rate <= 0.0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}")
        if self.c1 < 0.0 or self.c2 < 0.0:
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
        if not np.isfinite(self.init_log_std):
            raise ValueError("init_log_std must be finite")


@dataclass
class RolloutBuffer:
    """One rollout worth of transitions, time-major over the env ensemble.

    ``bootstrap`` holds the critic value of each env's state after the
    final stored step, used to close off truncated episodes in the
    advantage recursion.
    """

    states: np.ndarray        # (T, n_envs, N_FEATURES)
    actions: np.ndarray       # (T, n_envs, N_ACTIONS) pre-clip samples
    log_probs: np.ndarray     # (T, n_envs)
    rewards: np.ndarray       # (T, n_envs)
    values: np.ndarray        # (T, n_envs)
    dones: np.ndarray         # (T, n_envs) 1.0 where the episode ended
    bootstrap: np.ndarray     # (n_envs,)
    episode_summaries: list[EpisodeSummary] = field(default_factory=list)


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
    value: ValueNet
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
    p_net = scn.p_re - scn.loads.sum(axis=1)
    cols = [scn.loads[:, 0], scn.loads[:, 1], scn.loads[:, 2],
            scn.p_re, p_net]
    mean = np.array([0.5 * (soc_lo + soc_hi)] + [c.mean() for c in cols])
    scale = np.array([max(0.5 * (soc_hi - soc_lo), 1e-6)]
                     + [max(float(c.std()), 1e-6) for c in cols])
    return mean, scale


class EnvBatch:
    """Per-run state of the training envs, which run in lockstep.

    All envs share the scenario clock ``t``: every episode starts at t = 0
    and runs the full horizon, so the envs finish together and each then
    draws a fresh SOC from its own reset stream ``rngs[i]``.  The SOCs
    (n_envs,) and the reward (n_envs,) and shortage (n_envs, 3) sums of
    the running episodes are arrays.
    """

    def __init__(self, cfg: EnvConfig, scn: Scenario, n_envs: int,
                 seed: int):
        cfg.validate()
        self.cfg = cfg
        self.rows = scenario_rows(scn)
        self.load_sums = load_totals(self.rows)
        self.rngs = [derive_rng(seed, f"env-{i}") for i in range(n_envs)]
        self.reset()

    def reset(self) -> None:
        n = len(self.rngs)
        self.t = 0
        self.soc = np.array([self.cfg.initial_soc(rng) for rng in self.rngs])
        self.reward_sums = np.zeros(n)
        self.shortage_sums = np.zeros((n, 3))

    def observe(self, out: np.ndarray) -> np.ndarray:
        """Write the (n_envs, N_FEATURES) observations at the shared clock
        into ``out`` and return it."""
        out[:, 0] = self.soc
        out[:, 1:] = self.rows[self.t]
        return out


def collect_rollouts(policy: GaussianPolicy, value: ValueNet,
                     envs: EnvBatch, n_steps: int,
                     rng: np.random.Generator) -> RolloutBuffer:
    """Advance every env in lockstep until exactly n_steps transitions exist.

    Each hour is one :func:`mgrl.neural.sample_action` call, one
    :func:`mgrl.neural.forward_value` call and one
    :func:`mgrl.env.step_batch` call over all envs.  Finished episodes are
    summarized and restarted in place, so a buffer may span several
    (possibly partial) episodes per env.
    """
    n_envs = len(envs.rngs)
    if n_envs == 0:
        raise ValueError("need at least one environment")
    if n_steps % n_envs != 0:
        raise ValueError(
            f"n_steps ({n_steps}) must be divisible by n_envs ({n_envs})")
    steps = n_steps // n_envs

    states = np.empty((steps, n_envs, N_FEATURES))
    actions = np.empty((steps, n_envs, N_ACTIONS))
    log_probs = np.empty((steps, n_envs))
    rewards = np.empty((steps, n_envs))
    values = np.empty((steps, n_envs))
    dones = np.zeros((steps, n_envs))
    summaries: list[EpisodeSummary] = []
    # One draw for the whole rollout: the same numbers, in the same order,
    # as one (n_envs, N_ACTIONS) draw per hour.
    z = rng.standard_normal((steps, n_envs, N_ACTIONS))

    for t in range(steps):
        obs = envs.observe(states[t])
        action, actions[t], log_probs[t] = sample_action(policy, obs, z[t])
        values[t] = forward_value(value, obs)
        envs.soc, short, rewards[t] = step_batch(
            envs.cfg, envs.rows[envs.t], envs.soc, action)
        envs.reward_sums += rewards[t]
        envs.shortage_sums += short
        envs.t += 1
        if envs.t == len(envs.rows):
            dones[t] = 1.0
            summaries += [summarize_episode(envs.cfg, r, sh, envs.load_sums,
                                            envs.t)
                          for r, sh in zip(envs.reward_sums.tolist(),
                                           envs.shortage_sums.tolist())]
            envs.reset()

    bootstrap = forward_value(value, envs.observe(np.empty((n_envs,
                                                            N_FEATURES))))
    return RolloutBuffer(states=states, actions=actions, log_probs=log_probs,
                         rewards=rewards, values=values, dones=dones,
                         bootstrap=bootstrap, episode_summaries=summaries)


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
    steps = r.shape[0]
    adv = np.zeros_like(r)
    gae = np.zeros(r.shape[1:])
    boot = np.asarray(bootstrap, dtype=np.float64)
    for t in reversed(range(steps)):
        next_v = boot if t == steps - 1 else v[t + 1]
        not_done = 1.0 - d[t]
        delta = r[t] + gamma * next_v * not_done - v[t]
        gae = delta + gamma * lam * not_done * gae
        adv[t] = gae
    return adv, adv + v


def clipped_policy_loss(ratio: np.ndarray, advantages: np.ndarray,
                        clip_eps: float) -> tuple[float, float, np.ndarray]:
    """PPO clipped surrogate loss over probability ratios.

    Returns (loss, clip fraction, unclipped): ``unclipped`` is 1.0 where
    the min() picks the unclipped branch (ties included), the only rows
    through which the loss depends on the ratio.
    """
    surr1 = ratio * advantages
    surr2 = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
    loss = float(-np.mean(np.minimum(surr1, surr2)))
    clip_frac = float(np.mean(np.abs(ratio - 1.0) > clip_eps))
    return loss, clip_frac, (surr1 <= surr2).astype(np.float64)


def value_loss(values_pred: np.ndarray, returns: np.ndarray) -> float:
    return float(np.mean((values_pred - returns) ** 2))


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
    minibatch rows: each network's layer outputs, backward scratch shared by
    both networks, and one flat gradient vector ``grad`` laid out like the
    parameter vector of :func:`mgrl.neural.pack_params`.
    """

    def __init__(self, policy: GaussianPolicy, value: ValueNet, rows: int):
        p_params = policy_params(policy)
        params = p_params + value_params(value)
        self.grad = np.empty(sum(a.size for a in params))
        views = flat_views(self.grad, params)
        self.policy_grads = views[:len(p_params)]
        self.value_grads = views[len(p_params):]
        self.policy_outs = [np.empty((rows, k))
                            for k in policy.trunk.sizes[1:]]
        self.value_outs = [np.empty((rows, k)) for k in value.net.sizes[1:]]
        width = max(*policy.trunk.sizes, *value.net.sizes)
        self.scratch = [np.empty(rows * width) for _ in range(3)]


def ppo_loss_and_grads(policy: GaussianPolicy, value: ValueNet,
                       batch: dict[str, np.ndarray], cfg: PpoConfig,
                       ws: UpdateWorkspace,
                       with_grads: bool = True) -> LossReport:
    """Evaluate the PPO objective on a minibatch, with analytic gradients.

    ``batch`` holds the actor's and critic's normalized inputs
    (``policy_x``, ``value_x``) next to ``actions``, ``log_probs``,
    ``advantages`` and ``returns``.  Every activation and gradient goes
    into the workspace ``ws``; with ``with_grads`` the gradient of the
    total loss fills ``ws.grad``.  The min() in the surrogate routes
    gradient to the unclipped branch on ties, and the log-std gradient is
    gated to zero wherever the clamp is active.
    """
    act = batch["actions"]
    lp_old = batch["log_probs"]
    adv = batch["advantages"]
    ret = batch["returns"]
    n = act.shape[0]

    mean, cache = mlp_forward(policy.trunk, batch["policy_x"], ws.policy_outs,
                              ws.scratch)
    log_std = policy.clamped_log_std()
    ratio = np.exp(gaussian_log_prob(mean, log_std, act) - lp_old)
    pol_loss, clip_frac, unclipped = clipped_policy_loss(ratio, adv,
                                                         cfg.clip_eps)

    out, vcache = mlp_forward(value.net, batch["value_x"], ws.value_outs,
                               ws.scratch)
    vals = out[:, 0]
    val_loss = value_loss(vals, ret)
    entropy = gaussian_entropy(log_std)
    total = total_loss(pol_loss, val_loss, entropy, cfg.c1, cfg.c2)
    report = LossReport(total=total, policy_loss=pol_loss,
                        value_loss=val_loss, entropy=entropy,
                        clip_frac=clip_frac)
    if not with_grads:
        return report

    sigma = np.exp(log_std)
    z = (act - mean) / sigma
    g_lp = -(adv * ratio * unclipped) / n          # d total / d lp_new
    g_log_std = np.sum(g_lp[:, None] * (z * z - 1.0), axis=0) - cfg.c2
    z /= sigma
    g_mean = g_lp[:, None] * z                     # z / sigma by now
    clamp_open = ((policy.log_std > LOG_STD_MIN)
                  & (policy.log_std < LOG_STD_MAX)).astype(np.float64)
    np.multiply(g_log_std, clamp_open, out=ws.policy_grads[-1])
    mlp_backward(policy.trunk, cache, g_mean, ws.policy_grads[:-1],
                 ws.scratch, input_grad=False)
    g_val = (cfg.c1 * 2.0 * (vals - ret) / n)[:, None]
    mlp_backward(value.net, vcache, g_val, ws.value_grads, ws.scratch,
                 input_grad=False)
    return report


def train(cfg: PpoConfig, env_cfg: EnvConfig, scn: Scenario,
          checkpoint_fn=None) -> TrainResult:
    """Run PPO for cfg.total_updates and return the trained networks.

    ``checkpoint_fn(update, policy, value, stats)`` is invoked after each
    completed update when given.  Raises TrainingDivergedError the moment
    any loss component stops being finite.

    Both networks' parameters live in one flat vector (see
    :func:`mgrl.neural.pack_params`) that one Adam step per minibatch
    updates.  Activations and gradients go into one preallocated
    :class:`UpdateWorkspace`, so a minibatch allocates only the loss
    head's (B,) and (B, N_ACTIONS) temporaries.
    """
    cfg.validate()
    env_cfg.validate()
    obs_mean, obs_scale = obs_stats_from_scenario(env_cfg, scn)
    policy = make_policy(N_FEATURES, N_ACTIONS, cfg.hidden_sizes,
                         derive_rng(cfg.seed, "policy-init"),
                         obs_mean, obs_scale, init_log_std=cfg.init_log_std)
    value = make_value(N_FEATURES, cfg.hidden_sizes,
                       derive_rng(cfg.seed, "value-init"),
                       obs_mean, obs_scale)
    envs = EnvBatch(env_cfg, scn, cfg.n_envs, cfg.seed)
    rollout_rng = derive_rng(cfg.seed, "rollout")
    shuffle_rng = derive_rng(cfg.seed, "minibatch")

    n = cfg.rollout_steps
    theta = pack_params(policy, value)
    opt = adam_init(theta, cfg.learning_rate)
    ws = UpdateWorkspace(policy, value, min(cfg.minibatch_size, n))
    shuffled = None

    stats: list[TrainStats] = []
    last_reward_norm = float("nan")
    last_ri = float("nan")
    for update in range(cfg.total_updates):
        buf = collect_rollouts(policy, value, envs, n, rollout_rng)
        adv, ret = compute_gae(buf.rewards, buf.values, buf.dones,
                               buf.bootstrap, cfg.gamma, cfg.gae_lambda)
        states = buf.states.reshape(n, N_FEATURES)
        flat = {"actions": buf.actions.reshape(n, N_ACTIONS),
                "log_probs": buf.log_probs.reshape(n),
                "advantages": ((adv - adv.mean())
                               / (adv.std() + 1e-8)).reshape(n),
                "returns": ret.reshape(n),
                "policy_x": normalize(policy, states),
                "value_x": normalize(value, states)}
        if shuffled is None:
            shuffled = {k: np.empty_like(a) for k, a in flat.items()}

        parts = np.zeros(5)  # total, policy, value, entropy, clip_frac
        n_batches = 0
        for _ in range(cfg.epochs_per_update):
            perm = shuffle_rng.permutation(n)
            for k, a in flat.items():
                np.take(a, perm, axis=0, out=shuffled[k])
            for lo in range(0, n, cfg.minibatch_size):
                batch = {k: a[lo:lo + cfg.minibatch_size]
                         for k, a in shuffled.items()}
                rep = ppo_loss_and_grads(policy, value, batch, cfg, ws)
                if not np.isfinite(rep.total):
                    raise TrainingDivergedError(
                        f"non-finite loss at update {update}",
                        diagnostic={"update": update,
                                    "policy_loss": rep.policy_loss,
                                    "value_loss": rep.value_loss,
                                    "entropy": rep.entropy})
                adam_step(theta, ws.grad, opt)
                parts += (rep.total, rep.policy_loss, rep.value_loss,
                          rep.entropy, rep.clip_frac)
                n_batches += 1
        parts /= n_batches

        if buf.episode_summaries:
            last_reward_norm = float(np.mean(
                [s.reward_final_norm for s in buf.episode_summaries]))
            last_ri = float(np.mean(
                [s.ri for s in buf.episode_summaries]))
        st = TrainStats(update=update, mean_reward_norm=last_reward_norm,
                        ri=last_ri, policy_loss=float(parts[1]),
                        value_loss=float(parts[2]), entropy=float(parts[3]),
                        clip_frac=float(parts[4]))
        stats.append(st)
        if checkpoint_fn is not None:
            checkpoint_fn(update, policy, value, st)
    return TrainResult(policy=policy, value=value, stats=stats)


def evaluate_policy(policy: GaussianPolicy, env_cfg: EnvConfig,
                    scn: Scenario, n_episodes: int = 1,
                    deterministic: bool = True, seed: int = 0) -> EvalResult:
    """Score a policy over n_episodes; the first episode is kept in full.

    Deterministic episodes act on the clipped policy mean; stochastic ones
    sample from the episode's own action stream.
    """
    if n_episodes <= 0:
        raise ValueError(f"n_episodes must be positive, got {n_episodes}")
    env_cfg.validate()
    rows = scenario_rows(scn)
    load_sums = load_totals(rows)
    horizon = len(rows)
    summaries = []
    first_traj = None
    for ep in range(n_episodes):
        soc = env_cfg.initial_soc(derive_rng(seed, f"eval-reset-{ep}"))
        rng = derive_rng(seed, f"eval-action-{ep}")
        traj = Trajectory(
            soc=np.empty(horizon), p_re=scn.p_re.copy(),
            loads=scn.loads.copy(), p_ch=np.empty(horizon),
            p_dis=np.empty(horizon), p_supply=np.empty(horizon),
            allocations=np.empty((horizon, 3)),
            imbalances=np.empty((horizon, 3)),
            shortages=np.empty((horizon, 3)), reward=np.empty(horizon))
        reward_sum = 0.0
        sh_sums = [0.0, 0.0, 0.0]
        for t, row in enumerate(rows):
            obs = np.array([(soc, *row)])
            if deterministic:
                action = np.clip(forward_policy(policy, obs), -1.0, 1.0)
            else:
                action, _, _ = sample_action(
                    policy, obs, rng.standard_normal((1, N_ACTIONS)))
            (soc_next, traj.p_ch[t], traj.p_dis[t], traj.p_supply[t],
             traj.allocations[t], traj.imbalances[t], short,
             reward) = step(env_cfg, row, soc, action[0].tolist())
            traj.soc[t] = soc
            traj.shortages[t] = short
            traj.reward[t] = reward
            reward_sum += reward
            sh_sums[0] += short[0]
            sh_sums[1] += short[1]
            sh_sums[2] += short[2]
            soc = soc_next
        summaries.append(summarize_episode(env_cfg, reward_sum, sh_sums,
                                           load_sums, horizon))
        if first_traj is None:
            first_traj = traj
    return EvalResult(
        mean_reward_norm=float(np.mean([s.reward_final_norm
                                        for s in summaries])),
        ri=float(np.mean([s.ri for s in summaries])),
        trajectory=first_traj, summaries=summaries)
