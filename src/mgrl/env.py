"""Microgrid dispatch environment.

Hourly decision process over a fixed scenario: the agent picks normalized
battery charge/discharge requests plus three raw allocation weights; the
environment applies battery limits, splits the resulting supply across the
priority tiers via a softmax of the weights, and pays a reward equal to one
minus the priority-weighted shortage fraction (:func:`resilience_index` of
the step; :func:`summarize_episode` sums an episode's hours and takes
the same formula over its totals).

An hour has two halves.  The battery move is sequential, its SOC feeding
the next hour: :func:`step`, one definition, moves one float SOC (a
scenario hour from :func:`scenario_rows`, the SOC and the action) or an
array of SOCs at once.  :func:`allocate` splits the supply of any number
of hours or envs in one array call.  Rollout loops own the episode
state: every episode starts at t = 0 with a SOC drawn by
:meth:`EnvConfig.initial_soc` and runs the full scenario horizon.  The
training envs advance in lockstep on one clock, through one :func:`step`
call on their SOC array per hour and one :func:`allocate` call per run
of a rollout's hours within one episode; evaluation steps one episode's
float SOC hour by hour and allocates all its hours in one call.

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


class NonFiniteActionError(ValueError):
    """A non-finite action or explained actor output, which a finite
    checkpoint gives where its actor overflows on the run's states."""


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

    def __post_init__(self):
        if not 0.0 < self.soc_min < self.soc_max <= 1.0:
            raise ValueError(f"need 0 < soc_min < soc_max <= 1, "
                             f"got [{self.soc_min}, {self.soc_max}]")
        if not (0.0 < self.eta_ch <= 1.0 and 0.0 < self.eta_dis <= 1.0):
            raise ValueError("efficiencies must be in (0, 1]")
        if not (self.e_max_kwh > 0 and self.p_conv_kw > 0):
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


def features(soc, loads: np.ndarray, p_re: np.ndarray) -> np.ndarray:
    """(T, N_FEATURES) states in FEATURE_NAMES order from the SOC (per hour
    or one for all hours), the (T, 3) loads and the (T,) generation: the
    net energy column is p_re - (l1 + l2 + l3)."""
    return np.column_stack([np.broadcast_to(soc, p_re.shape), loads, p_re,
                            p_re - loads.sum(axis=1)])


def scenario_rows(scn: Scenario) -> tuple[tuple[float, ...], ...]:
    """The scenario as one row per hour: (l1, l2, l3, p_re, p_net).

    A row is the exogenous part of that hour's observation; prefixed with
    the SOC it is the feature vector, in FEATURE_NAMES order.
    """
    return tuple(map(tuple,
                     features(0.0, scn.loads, scn.p_re)[:, 1:].tolist()))


def resilience_index(shortages, loads, weights):
    """One minus the priority-weighted shortage fraction, in [0, 1].

    Tier-first shortages and loads: (3, n) hours or envs give their
    rewards, episode totals the episode RI.  Zero weighted demand maps to
    1, element by element: a grid with no demand cannot have failed it.
    """
    w1, w2, w3 = weights
    demand = w1 * loads[0] + w2 * loads[1] + w3 * loads[2]
    unmet = w1 * shortages[0] + w2 * shortages[1] + w3 * shortages[2]
    idle = demand == 0.0  # divides by 0.0 + True = 1.0 instead
    return np.where(idle, 1.0, 1.0 - unmet / (demand + idle))


# step's primitives, picked once per call: the positive part, min and max
# of floats or, keeping their zero signs and NaN handling, of arrays.
_FLOAT_OPS = (lambda a: max(0.0, a), min, max)
_ARRAY_OPS = (lambda a: np.where(a > 0.0, a, 0.0), np.minimum, np.maximum)


def step(cfg: EnvConfig, row, soc, action):
    """Move the battery one hour from SOC ``soc`` at scenario row ``row``.

    ``soc`` is a float, or an (n,) array of n lockstep envs' SOCs at the
    same hour; the requests ``action[0]`` (charge) and ``action[1]``
    (discharge) are then floats or (n,) arrays, any real or NaN (no
    request).  They are clamped, never rejected: mutual exclusion by the
    sign of net power, then the converter rating (the requests' clip to
    [-1, 1]), the SOC-headroom cap and the surplus/deficit cap.

    Returns (soc_next, p_ch, p_dis, p_supply), floats or (n,) arrays, each
    env's bit for bit its float call, but for the flow that the hour's
    sign of p_net rules out: the float 0.0 either way.  :func:`allocate`
    splits the supply.
    """
    pos, lo, hi = _ARRAY_OPS if isinstance(soc, np.ndarray) else _FLOAT_OPS
    p_re, p_net = row[3], row[4]
    # Every env sees the same p_net, so one side of the mutual exclusion
    # holds for all of them and the other flow is exactly 0.0.
    charging = p_net >= 0
    req = pos(action[0] if charging else action[1]) * cfg.p_conv_kw
    if charging:
        headroom = hi(cfg.soc_max - soc, 0.0) * cfg.e_max_kwh / cfg.eta_ch
        cap = max(0.0, p_net)
    else:
        headroom = hi(soc - cfg.soc_min, 0.0) * cfg.e_max_kwh * cfg.eta_dis
        cap = max(0.0, -p_net)
    flow = lo(lo(lo(req, cfg.p_conv_kw), headroom), cap)
    # The SOC and supply terms of both flows with the idle flow's 0.0
    # folded in: x - 0.0 is x, and the SOC (at least soc_min > 0) takes a
    # zero delta of either sign to the same sum, but p_re + 0.0 is not
    # p_re where p_re is -0.0.
    if charging:
        delta, p_supply = cfg.eta_ch * flow, (p_re + 0.0) - flow
    else:
        delta, p_supply = -flow / cfg.eta_dis, p_re + flow
    # The caps already hold the update inside the band; the clip only absorbs
    # last-ULP rounding so the bound is exact.
    soc_next = lo(hi(soc + delta / cfg.e_max_kwh, cfg.soc_min), cfg.soc_max)
    p_ch, p_dis = (flow, 0.0) if charging else (0.0, flow)
    return soc_next, p_ch, p_dis, p_supply


def allocate(cfg: EnvConfig, loads: np.ndarray, p_supply: np.ndarray,
             w: np.ndarray):
    """Split supplies across the tiers and score each split.

    ``p_supply`` is (n,), ``w`` the (n, 3) finite raw weights and ``loads``
    (n, 3) or one (3,) row for all n; or for k hours of n envs (k, n),
    (k, n, 3) and the hours' (k, 1, 3) rows.  The split is the
    max-subtracted softmax of the weights clipped to [-1, 1], through
    ``math.exp``, whose results ``np.exp`` does not always match.  Returns
    the allocations, imbalances and shortages, shaped like ``w``, and the
    rewards, each row's :func:`resilience_index`; every row is bit for bit
    its own call.
    """
    if not np.isfinite(w).all():
        bad = w[~np.isfinite(w).all(axis=-1)][0].tolist()
        raise NonFiniteActionError(f"non-finite allocation weights: {bad}")
    w = np.minimum(np.maximum(w, -1.0), 1.0)
    m = np.maximum(np.maximum(w[..., 0], w[..., 1]), w[..., 2])
    offsets = (w - m[..., None]).ravel().tolist()
    e = np.fromiter(map(math.exp, offsets), float, w.size).reshape(w.shape)
    s = e[..., 0] + e[..., 1] + e[..., 2]
    alloc = e / s[..., None] * p_supply[..., None]
    imb = alloc - loads
    short = -np.where(imb < 0.0, imb, 0.0)
    reward = resilience_index(np.moveaxis(short, -1, 0),
                              np.moveaxis(loads, -1, 0), cfg.reward_weights)
    return alloc, imb, short, reward


@dataclass(frozen=True)
class EpisodeSummary:
    """Aggregates of one episode, or of any run of its hours: the RI, the
    normalized final reward and the per-tier shortage and load energy."""

    ri: float
    reward_final_norm: float
    shortage_kwh: tuple[float, float, float]
    load_kwh: tuple[float, float, float]


def summarize_episode(cfg: EnvConfig, loads, shortages,
                      rewards) -> EpisodeSummary:
    """Reduce an episode's (T, 3) loads, (T, 3) shortages and (T,) rewards.

    The columns are summed hour by hour from 0.0: ``sum(axis=0)`` of one
    C-order (T, 7) table adds row by row, where a 1-D ``sum`` of the
    rewards alone would add pairwise.  The RI is :func:`resilience_index` of
    the tier totals; the normalized final reward is the rewards plus the
    RI bonus over their maximum, T + 1.
    """
    *sums, reward_sum = np.column_stack(
        [loads, shortages, rewards]).sum(axis=0).tolist()
    ri = float(resilience_index(sums[3:], sums[:3], cfg.reward_weights))
    return EpisodeSummary(ri, (reward_sum + ri) / (len(rewards) + 1),
                          tuple(sums[3:]), tuple(sums[:3]))
