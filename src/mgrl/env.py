"""Microgrid dispatch environment.

Hourly decision process over a fixed scenario: the agent picks normalized
battery charge/discharge requests plus three raw allocation weights; the
environment applies battery limits, splits the resulting supply across the
priority tiers via a softmax of the weights, and pays a reward equal to one
minus the priority-weighted shortage fraction (:func:`resilience_index` of
the step; the episode resilience index is the same formula over episode
totals).

The environment is one pure function, :func:`step`, over plain floats: a
scenario hour from :func:`scenario_rows`, the battery SOC and the action.
:func:`step_batch` is the same hour on arrays, for many SOCs and actions
at once.  Rollout loops own the episode state.  Every episode starts at
t = 0 with a SOC drawn by :meth:`EnvConfig.initial_soc` and runs the full
scenario horizon; parallel training envs advance in lockstep on one shared
clock, so they all finish and restart together.  Training rollouts step
all envs at once through :func:`step_batch`; evaluation runs one episode
at a time through :func:`step`.

Conventions (documented, not configurable):
  * Negative charge/discharge action halves mean "no request"; only the
    positive part maps to power.  A signed single-action encoding was
    rejected because the two requests are separate action dimensions.
  * Capacity caps are expressed at the SOC terminal (charge cap divided by
    eta_ch, discharge cap multiplied by eta_dis) so the SOC update can
    never leave [soc_min, soc_max].
  * Charging is additionally capped at the renewable surplus and
    discharging at the deficit: the grid is islanded, so stored energy can
    neither come from shed load nor vanish as unpenalized over-supply.
  * A step whose loads are all zero pays reward 1 (no demand, no unmet
    demand).
"""

import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario

N_FEATURES = 6
N_ACTIONS = 5

FEATURE_NAMES = ("SOC", "Load_1", "Load_2", "Load_3",
                 "Renewable generation", "Net energy")
ACTION_NAMES = ("charge", "discharge", "w1", "w2", "w3")

# Shortage/load weighting of the three priority tiers (essential first).
PRIORITY_WEIGHTS = (7.0, 2.0, 1.0)


@dataclass(frozen=True)
class EnvConfig:
    soc_min: float = 0.2
    soc_max: float = 0.9
    eta_ch: float = 0.90
    eta_dis: float = 0.95
    e_max_kwh: float = 780.0
    p_conv_kw: float = 52.0
    reward_weights: tuple[float, float, float] = PRIORITY_WEIGHTS
    init_soc_range: tuple[float, float] | None = None  # None -> full SOC band

    def validate(self) -> None:
        if not 0.0 < self.soc_min < self.soc_max <= 1.0:
            raise ValueError(f"need 0 < soc_min < soc_max <= 1, "
                             f"got [{self.soc_min}, {self.soc_max}]")
        if not (0.0 < self.eta_ch <= 1.0 and 0.0 < self.eta_dis <= 1.0):
            raise ValueError("efficiencies must be in (0, 1]")
        if self.e_max_kwh <= 0 or self.p_conv_kw <= 0:
            raise ValueError("e_max_kwh and p_conv_kw must be > 0")
        w1, w2, w3 = self.reward_weights
        if not w1 > w2 > w3 >= 0.0:
            raise ValueError(f"reward_weights must be strictly decreasing "
                             f"and non-negative, got {self.reward_weights}")
        lo, hi = self.soc_range()
        if not self.soc_min <= lo <= hi <= self.soc_max:
            raise ValueError(f"init_soc_range {self.init_soc_range} must lie "
                             f"inside [{self.soc_min}, {self.soc_max}]")

    def soc_range(self) -> tuple[float, float]:
        if self.init_soc_range is None:
            return (self.soc_min, self.soc_max)
        return self.init_soc_range

    def initial_soc(self, rng: np.random.Generator) -> float:
        """Episode-start SOC, uniform over the init range."""
        lo, hi = self.soc_range()
        return float(rng.uniform(lo, hi)) if hi > lo else lo


def scenario_rows(scn: Scenario) -> tuple[tuple[float, ...], ...]:
    """The scenario as one row per hour: (l1, l2, l3, p_re, p_net).

    A row is the exogenous part of that hour's observation; prefixed with
    the SOC it is the feature vector, in FEATURE_NAMES order.
    """
    if scn.horizon < 1:
        raise ValueError("cannot run an episode on an empty scenario")
    return tuple((l1, l2, l3, p_re, p_re - (l1 + l2 + l3))
                 for (l1, l2, l3), p_re in zip(scn.loads.tolist(),
                                               scn.p_re.tolist()))


def load_totals(rows) -> tuple[float, float, float]:
    """Per-tier load summed hour by hour over a full episode of ``rows``."""
    s1 = s2 = s3 = 0.0
    for l1, l2, l3, _, _ in rows:
        s1 += l1
        s2 += l2
        s3 += l3
    return s1, s2, s3


def resilience_index(shortages, loads, weights) -> float:
    """One minus the priority-weighted shortage fraction, in [0, 1].

    Per-step shortages and loads give the step reward; episode totals give
    the episode resilience index.  Zero weighted demand maps to 1: a grid
    with no demand cannot have failed to serve it.
    """
    w1, w2, w3 = weights
    demand = w1 * loads[0] + w2 * loads[1] + w3 * loads[2]
    if demand == 0.0:
        return 1.0
    unmet = w1 * shortages[0] + w2 * shortages[1] + w3 * shortages[2]
    return 1.0 - unmet / demand


def step(cfg: EnvConfig, row, soc: float, action):
    """Advance one hour from SOC ``soc`` at scenario row ``row``.

    ``action`` is (a_ch, a_dis, w1, w2, w3), each in [-1, 1] as the policy
    clips them; allocation weights must be finite.  Battery requests
    are clamped, never rejected: mutual exclusion by the sign of net power,
    then the converter rating, the SOC-headroom caps, and the
    surplus/deficit caps.  Supply is split across the tiers by the softmax
    of the raw weights (max-subtracted for stability).

    Returns (soc_next, p_ch, p_dis, p_supply, allocations, imbalances,
    shortages, reward), the three per-tier values as tuples.
    """
    l1, l2, l3, p_re, p_net = row
    a_ch, a_dis, w1, w2, w3 = action
    if not (math.isfinite(w1) and math.isfinite(w2) and math.isfinite(w3)):
        raise ValueError(f"non-finite allocation weights: {[w1, w2, w3]}")
    m = max(w1, w2, w3)
    e1, e2, e3 = math.exp(w1 - m), math.exp(w2 - m), math.exp(w3 - m)
    s = e1 + e2 + e3

    p_ch_req = max(0.0, a_ch) * cfg.p_conv_kw
    p_dis_req = max(0.0, a_dis) * cfg.p_conv_kw
    if p_net >= 0:
        p_dis_req = 0.0
    else:
        p_ch_req = 0.0
    headroom_ch = max(0.0, cfg.soc_max - soc) * cfg.e_max_kwh / cfg.eta_ch
    headroom_dis = max(0.0, soc - cfg.soc_min) * cfg.e_max_kwh * cfg.eta_dis
    p_ch = min(p_ch_req, cfg.p_conv_kw, headroom_ch, max(0.0, p_net))
    p_dis = min(p_dis_req, cfg.p_conv_kw, headroom_dis, max(0.0, -p_net))
    soc_next = soc + (cfg.eta_ch * p_ch - p_dis / cfg.eta_dis) / cfg.e_max_kwh
    # The caps already hold the update inside the band; the clip only absorbs
    # last-ULP rounding so the bound is exact.
    soc_next = min(max(soc_next, cfg.soc_min), cfg.soc_max)

    p_supply = p_re + p_dis - p_ch
    alloc = (e1 / s * p_supply, e2 / s * p_supply, e3 / s * p_supply)
    imb = (alloc[0] - l1, alloc[1] - l2, alloc[2] - l3)
    short = (-min(0.0, imb[0]), -min(0.0, imb[1]), -min(0.0, imb[2]))
    reward = resilience_index(short, (l1, l2, l3), cfg.reward_weights)
    return soc_next, p_ch, p_dis, p_supply, alloc, imb, short, reward


def step_batch(cfg: EnvConfig, row, soc: np.ndarray, action: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`step` for n envs at the same scenario hour, on arrays.

    ``soc`` has shape (n,) and values in [soc_min, soc_max]; ``action`` has
    shape (n, N_ACTIONS), clipped as for :func:`step`.  Returns (soc_next
    (n,), shortages (n, 3), rewards (n,)), bit for bit what :func:`step`
    returns per env: each element goes through the operations of
    :func:`step` in the same order (``np.where`` keeps the zero signs and
    NaN handling of its ``max``/``min``), and the softmax uses ``math.exp``,
    whose results ``np.exp`` does not always match.
    """
    l1, l2, l3, p_re, p_net = row
    w = action[:, 2:]
    if not np.isfinite(w).all():
        bad = w[~np.isfinite(w).all(axis=1)][0].tolist()
        raise ValueError(f"non-finite allocation weights: {bad}")
    m = np.maximum(np.maximum(w[:, 0], w[:, 1]), w[:, 2])
    # A spread wider than the float range gives offset -inf and share 0.0,
    # as in step, whose float subtraction overflows without a warning.
    with np.errstate(over="ignore"):
        offsets = (w - m[:, None]).ravel().tolist()
    e = np.fromiter(map(math.exp, offsets), float, len(offsets))
    e = e.reshape(w.shape)
    s = e[:, 0] + e[:, 1] + e[:, 2]

    # Every env sees the same p_net, so one side of the mutual exclusion
    # holds for all of them and the other flow is exactly 0.0, as in step.
    charging = p_net >= 0
    a = action[:, 0] if charging else action[:, 1]
    req = np.where(a > 0.0, a, 0.0) * cfg.p_conv_kw
    if charging:
        headroom = (np.maximum(cfg.soc_max - soc, 0.0) * cfg.e_max_kwh
                    / cfg.eta_ch)
        cap = max(0.0, p_net)
    else:
        headroom = (np.maximum(soc - cfg.soc_min, 0.0) * cfg.e_max_kwh
                    * cfg.eta_dis)
        cap = max(0.0, -p_net)
    flow = np.minimum(np.minimum(np.minimum(req, cfg.p_conv_kw), headroom),
                      cap)
    p_ch, p_dis = (flow, 0.0) if charging else (0.0, flow)
    soc_next = soc + (cfg.eta_ch * p_ch - p_dis / cfg.eta_dis) / cfg.e_max_kwh
    soc_next = np.minimum(np.maximum(soc_next, cfg.soc_min), cfg.soc_max)

    p_supply = p_re + p_dis - p_ch
    imb = e / s[:, None] * p_supply[:, None] - (l1, l2, l3)
    short = -np.where(imb < 0.0, imb, 0.0)
    reward = resilience_index(short.T, (l1, l2, l3), cfg.reward_weights)
    return soc_next, short, np.full(soc.shape, reward)


@dataclass
class EpisodeSummary:
    """Aggregates of one finished episode."""

    reward_sum: float
    ri: float
    reward_final_norm: float
    steps: int


def summarize_episode(cfg: EnvConfig, reward_sum: float, shortage_sums,
                      load_sums, steps: int) -> EpisodeSummary:
    """Episode RI over the tier totals, and the normalized final reward:
    the per-step rewards plus the RI bonus over their maximum, steps + 1."""
    ri = resilience_index(shortage_sums, load_sums, cfg.reward_weights)
    return EpisodeSummary(reward_sum=reward_sum, ri=ri,
                          reward_final_norm=(reward_sum + ri) / (steps + 1),
                          steps=steps)
