"""End-to-end acceptance suite.

Each test checks one numbered acceptance criterion and prints a single
PASS/FAIL line for it (bypassing output capture, so the verdict is
visible in any pytest invocation).  Criteria cover physics safety,
per-step identities, reward accounting, gradient and advantage
correctness, surrogate-explanation fidelity and direction, battery-life
algebra, learning behaviour, and whole-pipeline determinism.
"""

import math
import os
import time

import numpy as np

from mgrl.cli import main as cli_main
from mgrl.env import (
    EnvConfig,
    N_ACTIONS,
    N_FEATURES,
    PRIORITY_WEIGHTS,
    allocate,
    features,
    resilience_index,
    scenario_rows,
    step,
)
from mgrl.explain import ExplainConfig, FeatureStats, explain_action, explain_step, proximity_weights
from mgrl.metrics import estimate_battery_life
from mgrl.neural import (
    gaussian_log_prob,
    make_policy,
    mlp_init,
)
from mgrl.ppo import (
    PpoConfig,
    clipped_policy_loss,
    compute_gae,
    evaluate_actions,
    evaluate_policy,
    train,
)
from mgrl.scenario import Scenario, ScenarioConfig, synth_cyclone_scenario
from mgrl.seeding import derive_rng

from test_neural import raw_forward, raw_inputs
from test_ppo import fd_max_rel_err, gae_brute_force, loss_batch


class _Criterion:
    """Prints one PASS/FAIL line per criterion, then asserts the verdict."""

    def __init__(self, capsys, num, name):
        self.capsys = capsys
        self.num = num
        self.name = name
        self.ok = None
        self.detail = ""

    def result(self, ok, detail=""):
        self.ok = bool(ok)
        self.detail = detail

    def _print(self, ok, detail):
        with self.capsys.disabled():
            tail = f"  [{detail}]" if detail else ""
            print(f"\n[criterion {self.num:2d}] {self.name}: "
                  f"{'PASS' if ok else 'FAIL'}{tail}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._print(False, f"{exc_type.__name__}: {exc}")
            return False
        if self.ok is None:
            self._print(False, "no verdict recorded")
            raise AssertionError(f"criterion {self.num}: no verdict recorded")
        self._print(self.ok, self.detail)
        if not self.ok:
            raise AssertionError(
                f"criterion {self.num} ({self.name}): {self.detail}")
        return False


def random_action_rollout(n_steps, seed=0, horizon=720):
    """Yield (row, action, step outcome) over uniformly random actions,
    restarting full-horizon episodes from t = 0 as the rollout loops do."""
    scn = synth_cyclone_scenario(ScenarioConfig(horizon_steps=horizon,
                                                cyclone_window=(
                                                    horizon // 2,
                                                    min(horizon, horizon // 2 + 48)),
                                                rng_seed=seed))
    cfg = EnvConfig()
    rows = scenario_rows(scn)
    reset_rng = derive_rng(seed, "acc-reset")
    act_rng = derive_rng(seed, "acc-action")
    for k in range(n_steps):
        t = k % len(rows)
        if t == 0:
            soc = cfg.initial_soc(reset_rng)
        action = act_rng.uniform(-1.0, 1.0, N_ACTIONS)
        out = step(cfg, rows[t], soc, action.tolist())
        yield rows[t], action, out
        soc = out[0]


def test_criterion_01_soc_safety(capsys):
    """10^5 random-action steps never drive SOC outside [0.2, 0.9]."""
    with _Criterion(capsys, 1, "SOC stays inside the safe band") as c:
        t0 = time.time()
        lo, hi = math.inf, -math.inf
        violations = 0
        for _, _, out in random_action_rollout(100_000, seed=0):
            soc = out[0]
            lo, hi = min(lo, soc), max(hi, soc)
            if not 0.2 <= soc <= 0.9:
                violations += 1
        dt = time.time() - t0
        c.result(violations == 0 and dt < 10.0,
                 f"soc range [{lo:.4f}, {hi:.4f}] over 1e5 steps, {dt:.1f}s")


def test_criterion_02_step_identities(capsys):
    """Mutual exclusion, supply balance, allocation sum, softmax sum."""
    with _Criterion(capsys, 2, "per-step physics identities") as c:
        ok = True
        cfg = EnvConfig()
        loads, weights, supplies = [], [], []
        for row, action, out in random_action_rollout(10_000, seed=1):
            _, p_ch, p_dis, p_supply = out
            if p_ch * p_dis != 0.0:
                ok = False
            if p_supply != row[3] + p_dis - p_ch:
                ok = False
            loads.append(row[:3])
            weights.append(action[2:5])
            supplies.append(p_supply)
        supplies, weights = np.array(supplies), np.array(weights)
        a = allocate(cfg, np.array(loads), supplies, weights)[0]
        worst_alloc = float(np.max(abs(a[:, 0] + a[:, 1] + a[:, 2] - supplies)
                                   / np.maximum(1.0, abs(supplies))))
        # One kW to zero loads splits into exactly the softmax weights.
        w = allocate(cfg, np.zeros(3), np.ones(len(supplies)), weights)[0]
        worst_softmax = float(np.max(abs(w[:, 0] + w[:, 1] + w[:, 2] - 1.0)))
        ok = ok and worst_alloc <= 1e-9 and worst_softmax <= 1e-12
        c.result(ok, f"alloc err {worst_alloc:.2e} (<=1e-9), "
                     f"softmax err {worst_softmax:.2e} (<=1e-12), 1e4 steps")


def test_criterion_03_reward_accounting(capsys):
    """Brute-force reward/RI recomputation over a logged trajectory."""
    with _Criterion(capsys, 3, "reward and resilience accounting") as c:
        policy = make_policy(N_FEATURES, N_ACTIONS, (64, 64),
                             derive_rng(3, "acc-policy"),
                             *raw_inputs(N_FEATURES))
        scn = synth_cyclone_scenario(ScenarioConfig(rng_seed=3))
        ev = evaluate_policy(policy, EnvConfig(), scn, n_episodes=1, seed=3)
        traj = ev.trajectory

        worst = 0.0
        sh_sum, ld_sum = [0.0] * 3, [0.0] * 3
        for t in range(len(traj)):
            l1, l2, l3 = traj.loads[t]
            s1, s2, s3 = traj.shortages[t]
            den = 7.0 * l1 + 2.0 * l2 + l3
            r = 1.0 if den <= 0.0 else 1.0 - (7.0 * s1 + 2.0 * s2 + s3) / den
            worst = max(worst, abs(r - traj.reward[t]))
            for i, (s, l) in enumerate(zip(traj.shortages[t],
                                           traj.loads[t])):
                sh_sum[i] += s
                ld_sum[i] += l
        ri_brute = 1.0 - (7 * sh_sum[0] + 2 * sh_sum[1] + sh_sum[2]) / \
            (7 * ld_sum[0] + 2 * ld_sum[1] + ld_sum[2])
        ri_err = abs(ri_brute - ev.summaries[0].ri)

        hand = (resilience_index((0.0, 10.0, 10.0), (10.0, 10.0, 10.0),
                                 EnvConfig().reward_weights) == 0.7
                and resilience_index((10.0, 10.0, 10.0),
                                     (50.0, 50.0, 50.0),
                                     PRIORITY_WEIGHTS) == 0.8)
        c.result(worst <= 1e-12 and ri_err <= 1e-12 and hand,
                 f"max reward err {worst:.2e}, RI err {ri_err:.2e}, "
                 f"hand cases 0.7/0.8 exact")


def make_safe_batch(policy, rng, n=8):
    """Minibatch whose ratios sit >=0.03 from both clip kinks."""
    obs = rng.standard_normal((n, N_FEATURES))
    mean, log_std = raw_forward(policy, obs), policy.clamped_log_std()
    act = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
    bands = np.array([[0.55, 0.77], [0.83, 1.17], [1.23, 1.65]])
    pick = bands[rng.integers(0, 3, n)]
    ratio = rng.uniform(pick[:, 0], pick[:, 1])
    return loss_batch(
        policy, obs, actions=act,
        log_probs=gaussian_log_prob(mean, log_std, act) - np.log(ratio),
        advantages=rng.standard_normal(n), returns=rng.standard_normal(n))


def test_criterion_04_gradient_correctness(capsys):
    """Analytic PPO gradients vs central differences on 100 random nets,
    on packed parameters through one reused workspace per net, the path
    train() takes."""
    with _Criterion(capsys, 4, "loss gradients match finite differences") as c:
        t0 = time.time()
        cfg = PpoConfig()
        max_err = 0.0
        for trial in range(100):
            rng = derive_rng(4, f"acc-grad-{trial}")
            hidden = tuple(int(rng.integers(3, 7))
                           for _ in range(int(rng.integers(1, 3))))
            policy = make_policy(N_FEATURES, N_ACTIONS, hidden, rng,
                                 *raw_inputs(N_FEATURES),
                                 init_log_std=float(rng.uniform(-1.0, 0.5)))
            value = mlp_init([N_FEATURES, *hidden, 1], rng)
            batch = make_safe_batch(policy, rng)
            max_err = max(max_err, fd_max_rel_err(policy, value, batch, cfg,
                                                  h=1e-5))
        dt = time.time() - t0
        c.result(max_err < 1e-4 and dt < 60.0,
                 f"max rel err {max_err:.2e} over 100 nets, {dt:.1f}s")


def test_criterion_05_gae_oracle(capsys):
    """Recursive GAE equals the discounted-delta sum on 1000 sequences."""
    with _Criterion(capsys, 5, "advantage recursion matches summation") as c:
        rng = derive_rng(5, "acc-gae")
        worst = 0.0
        for _ in range(1000):
            r = rng.standard_normal(50)
            v = rng.standard_normal(50)
            d = (rng.random(50) < 0.1).astype(float)
            boot = float(rng.standard_normal())
            gamma, lam = rng.uniform(0.0, 1.0, 2)
            adv, _ = compute_gae(r, v, d, boot, gamma, lam)
            want = gae_brute_force(r, v, d, boot, gamma, lam)
            worst = max(worst, float(np.abs(adv - want).max()))
        c.result(worst <= 1e-10,
                 f"max |diff| {worst:.2e} over 1000 50-step sequences")


def test_criterion_06_clip_unit_cases(capsys):
    """Hand evaluations of the clipped surrogate at eps = 0.2."""
    with _Criterion(capsys, 6, "surrogate clipping unit cases") as c:
        up, _, _ = clipped_policy_loss(np.array([1.3]), np.ones(1), 0.2)
        dn, _, _ = clipped_policy_loss(np.array([0.5]), -np.ones(1), 0.2)
        c.result(up == -1.2 and dn == 0.8,
                 "(1.3, +1) -> 1.2 and (0.5, -1) -> -0.8, exact")


def test_criterion_07_learning_smoke(capsys):
    """Exact-coverage scenario reaches >=0.99; storm scenario beats both
    the random and the idle-battery baseline by >=0.02 RI."""
    with _Criterion(capsys, 7, "learning smoke test") as c:
        t0 = time.time()

        # Part A: generation exactly covers loads; optimal dispatch can
        # reach reward 1 every step, so the bar is mean >= 0.99.  Rewards
        # here depend on the current action only, so gamma = 0 removes
        # future-reward noise from the advantages.
        T = 48
        loads = np.tile(np.array([30.0, 18.0, 12.0]), (T, 1))
        balanced = Scenario(p_re=loads.sum(axis=1), loads=loads)
        cfg_a = PpoConfig(total_updates=50, rollout_steps=384, n_envs=8,
                          minibatch_size=96, learning_rate=3e-3, c2=0.0,
                          gamma=0.0, init_log_std=-2.0, seed=0)
        res_a = train(cfg_a, EnvConfig(), balanced)
        best = max(s.mean_reward_norm for s in res_a.stats
                   if math.isfinite(s.mean_reward_norm))

        # Part B: the storm scenario; compare resilience indices.
        scn = synth_cyclone_scenario(ScenarioConfig(rng_seed=0))
        env_cfg = EnvConfig()
        res_b = train(PpoConfig(total_updates=150, seed=0), env_cfg, scn)
        trained = evaluate_policy(res_b.policy, env_cfg, scn,
                                  n_episodes=5, seed=0).ri

        # The baselines run through the same loop from the same five
        # episode-start SOCs, so each comparison is paired.
        rand_rng = derive_rng(0, "acc-random-policy")

        def random_action(t, soc, rng):
            return rand_rng.uniform(-1, 1, (1, N_ACTIONS))

        def idle(t, soc, rng):
            obs = features(soc, scn.loads[t:t + 1], scn.p_re[t:t + 1])
            a = np.clip(raw_forward(res_b.policy, obs), -1.0, 1.0)
            a[:, :2] = -1.0  # battery forced idle
            return a

        random_ri, idle_ri = (
            evaluate_actions(act, env_cfg, scn, n_episodes=5, seed=0).ri
            for act in (random_action, idle))

        dt = time.time() - t0
        soft = "met" if trained >= 0.95 else "not met"
        ok = (best >= 0.99 and trained - random_ri >= 0.02
              and trained - idle_ri >= 0.02 and dt < 900.0)
        c.result(ok, f"balanced best {best:.4f} (>=0.99); storm RI "
                     f"{trained:.4f} vs random {random_ri:.4f} vs idle "
                     f"{idle_ri:.4f}; soft goal RI>=0.95 {soft}; {dt:.0f}s")


def test_criterion_08_surrogate_oracle(capsys):
    """Kernel reference values and linear-actor coefficient recovery."""
    with _Criterion(capsys, 8, "local surrogate oracle") as c:
        sigma = ExplainConfig().kernel_sigma
        stats = FeatureStats(mean=np.zeros(6), std=np.ones(6),
                             low=np.full(6, -np.inf),
                             high=np.full(6, np.inf))
        pts = np.zeros((3, 6))
        pts[1, 0] = sigma
        pts[2, 0] = 2.0 * sigma
        w = proximity_weights(np.zeros(6), pts, stats, sigma)
        kernel_ok = (abs(w[0] - 1.0) <= 1e-12
                     and abs(w[1] - math.exp(-1.0)) <= 1e-12
                     and abs(w[2] - math.exp(-4.0)) <= 1e-12)

        def actor(z):
            return 2.0 * z[:, 1] - 3.0 * z[:, 5] + 1.0

        e, = explain_action(actor, np.full(6, 0.5), (0,),
                            ExplainConfig(seed=0), stats)
        coef_ok = (abs(e.coefficients[1] - 2.0) / 2.0 < 0.01
                   and abs(e.coefficients[5] + 3.0) / 3.0 < 0.01
                   and np.all(np.abs(
                       e.coefficients[[0, 2, 3, 4]]) < 0.03))
        c.result(kernel_ok and coef_ok and e.fidelity >= 0.999,
                 f"kernel {{1, e^-1, e^-4}} exact; coefficients "
                 f"{e.coefficients[1]:.4f}/{e.coefficients[5]:.4f} "
                 f"(true 2/-3); R^2 {e.fidelity:.5f}")


def test_criterion_09_explanation_direction(capsys):
    """SOC, generation and net energy push against discharging at the
    first charging-mode step and for it at the first discharging-mode
    step, measured as signed contributions on the discharge dim."""
    with _Criterion(capsys, 9, "explanations track battery mode") as c:
        scn = synth_cyclone_scenario(ScenarioConfig(start_hour=6,
                                                    rng_seed=0))
        env_cfg = EnvConfig(init_soc_range=(0.3, 0.4))
        res = train(PpoConfig(total_updates=150, seed=0), env_cfg, scn)
        traj = evaluate_policy(res.policy, env_cfg, scn,
                               n_episodes=1, seed=7).trajectory
        t_ch = traj.find_mode_step("charge")
        t_dis = traj.find_mode_step("discharge")
        assert t_ch >= 0 and t_dis >= 0

        signs = []
        for t, want_positive in ((t_ch, False), (t_dis, True)):
            expl = explain_step(res.policy, traj, t, env_cfg,
                                ExplainConfig(seed=0))["discharge"]
            for feat in (0, 4, 5):  # SOC, generation, net energy
                v = expl.contributions[feat]
                signs.append(v > 0.0 if want_positive else v < 0.0)
        c.result(all(signs),
                 f"{sum(signs)}/6 contribution signs correct at steps {t_ch} "
                 f"(charging) and {t_dis} (discharging)")


def test_criterion_10_battery_life_algebra(capsys):
    """Lifetime over annual throughput, exactly, for the derived case."""
    with _Criterion(capsys, 10, "battery life estimate") as c:
        est = estimate_battery_life(156_000.0)
        exact = (est.lifetime_throughput_kwh == 3000.0 * 780.0
                 and est.estimated_years == 15.0)
        reference = 15.11  # nearby field estimate: same order, not asserted
        c.result(exact, f"156000 kWh/yr -> 15.0 years exact; "
                        f"reference estimate {reference} same order")


def test_criterion_11_pipeline_determinism(capsys, tmp_path):
    """Same master seed, two consecutive full runs, identical bytes."""
    with _Criterion(capsys, 11, "whole pipeline is deterministic") as c:
        conf = tmp_path / "run.conf"
        conf.write_text(
            "run.seed = 5\n"
            "scenario.horizon_steps = 72\n"
            "scenario.cyclone_window = 30, 44\n"
            "ppo.total_updates = 12\n"
            "ppo.rollout_steps = 256\n"
            "ppo.n_envs = 4\n"
            "ppo.minibatch_size = 64\n"
            "ppo.epochs_per_update = 4\n"
            "explain.n_samples = 800\n")
        artifacts = ("scenario.csv", "metrics.csv", "trajectory.csv",
                     "report.csv", "explain_step0003_charge.csv",
                     "explain_step0003_discharge.csv")
        blobs = []
        for run_dir in ("a", "b"):
            out = str(tmp_path / run_dir)
            for cmd in (["scenario"], ["train"], ["eval"],
                        ["explain", "--step", "3"], ["report"]):
                code = cli_main(cmd + ["--config", str(conf), "--out", out])
                assert code == 0, f"{cmd} exited {code}"
            blobs.append({name: open(os.path.join(out, name), "rb").read()
                          for name in artifacts})
        same = [name for name in artifacts if blobs[0][name] == blobs[1][name]]
        c.result(len(same) == len(artifacts),
                 f"{len(same)}/{len(artifacts)} artifacts byte-identical "
                 f"(incl. metrics.csv)")
