"""Asset and training metrics.

Everything in here is a pure function over logged trajectories or
training statistics: battery throughput and lifespan accounting,
convergence summaries of the learning curve, and the CSV round-trip for
the training metrics log.  An episode's resilience index comes from
:func:`mgrl.env.summarize_episode`.
"""

import math
import os
from dataclasses import astuple, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import RunConfig
from .env import EnvConfig
from .ppo import TrainStats
from .scenario import STEP_HOURS
from .table import Layout

HOURS_PER_YEAR = 8760.0
EXCEEDS_CALENDAR = "exceeds rated calendar life"


def battery_throughput(p_ch, p_dis) -> float:
    """Equivalent one-direction energy cycled: half of total in plus out,
    for per-step powers over steps of :data:`mgrl.scenario.STEP_HOURS`."""
    p_ch = np.asarray(p_ch, dtype=np.float64)
    p_dis = np.asarray(p_dis, dtype=np.float64)
    return float((p_ch.sum() + p_dis.sum()) * STEP_HOURS / 2.0)


@dataclass(frozen=True)
class BatteryLifeEstimate:
    annual_throughput_kwh: float
    lifetime_throughput_kwh: float
    estimated_years: float  # inf when the battery is never cycled

    def describe(self) -> str:
        if math.isinf(self.estimated_years):
            return EXCEEDS_CALENDAR
        return f"{self.estimated_years:.2f} years"


def annualize_throughput(episode_throughput_kwh: float,
                         episode_hours: float) -> float:
    """Per-year throughput; episode_hours > 0 (``mgrl report`` checks)."""
    return episode_throughput_kwh * (HOURS_PER_YEAR / episode_hours)


def estimate_battery_life(annual_throughput_kwh: float,
                          rated_cycles: float = RunConfig.rated_cycles,
                          e_max: float = EnvConfig.e_max_kwh
                          ) -> BatteryLifeEstimate:
    """Lifespan from equivalent-full-cycle counting.

    The battery is assumed to survive rated_cycles full cycles, i.e. a
    lifetime throughput of rated_cycles * e_max; dividing by the annual
    throughput (never negative: flows are read >= 0) gives calendar years.
    """
    lifetime = rated_cycles * e_max
    years = math.inf if annual_throughput_kwh == 0.0 \
        else lifetime / annual_throughput_kwh
    return BatteryLifeEstimate(annual_throughput_kwh=annual_throughput_kwh,
                               lifetime_throughput_kwh=lifetime,
                               estimated_years=years)


@dataclass(frozen=True)
class CurveSummary:
    last_quartile_mean: float
    converged_at: int         # update index; -1 when never inside the band


def reward_curve_summary(updates, rewards, window: int = 10,
                         band: float = 0.02) -> CurveSummary:
    """Last-quartile mean and a convergence point for a learning curve.

    ``converged_at`` is the earliest update from which the rolling mean
    (over the last ``window`` points, fewer at the start) never again
    leaves a +-band (relative) envelope around its final value; -1 if
    even the last point is outside.  ``mgrl report`` passes >= 2 finite points.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    n = len(rewards)
    rolling_mean = np.empty(n)
    for i in range(min(window - 1, n)):  # the warm-up, over fewer points
        rolling_mean[i] = rewards[:i + 1].mean()
    if n >= window:
        # Each row's mean sums its window pairwise, like a slice's mean()
        rolling_mean[window - 1:] = sliding_window_view(
            rewards, window).mean(axis=1)
    final = float(rolling_mean[-1])
    tol = band * max(abs(final), 1e-12)
    inside = np.abs(rolling_mean - final) <= tol
    converged = -1
    for i in range(n - 1, -1, -1):
        if not inside[i]:
            break
        converged = int(updates[i])
    quart = max(1, n // 4)
    return CurveSummary(last_quartile_mean=float(rewards[-quart:].mean()),
                        converged_at=converged)


# ---------------------------------------------------------------------------
# Training metrics log

TRAIN_CSV_HEADER = ("update", "mean_reward_norm", "RI", "policy_loss",
                    "value_loss", "entropy", "clip_frac")
LAYOUT = Layout("metrics", TRAIN_CSV_HEADER)
_FRACTION = np.isin(TRAIN_CSV_HEADER, ("mean_reward_norm", "RI"))


def write_train_metrics_csv(stats: list[TrainStats],
                            path: str | os.PathLike) -> None:
    LAYOUT.write(path, [s.update for s in stats],
                 [astuple(s)[1:] for s in stats])


def read_train_metrics_csv(path: str | os.PathLike) -> list[TrainStats]:
    """Parse a metrics CSV; bad input raises ValueError naming the file,
    the 1-based data row and the column: a malformed table, or a finite
    mean_reward_norm or RI outside [0, 1].  Both stay NaN until an episode
    ends, so NaN is read as is; the losses are not range-checked."""
    table = LAYOUT.read(path)
    LAYOUT.reject(path, table, ((table < 0) | (table > 1)) & _FRACTION,
                  "value {!r} outside [0, 1]")
    return [TrainStats(int(update), *rest) for update, *rest in table.tolist()]
