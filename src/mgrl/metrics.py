"""Episode-level resilience and asset metrics.

Everything in here is a pure function over logged trajectories or
training statistics: the resilience report (the priority-weighted index
of :func:`mgrl.env.resilience_index` over a trajectory), battery
throughput and lifespan accounting, convergence summaries of the
learning curve, and the CSV round-trip for the training metrics log.
"""

import math
import os
from dataclasses import astuple, dataclass

import numpy as np

from . import env
from .ppo import TrainStats
from .scenario import STEP_HOURS
from .table import Layout
from .trajectory import Trajectory

HOURS_PER_YEAR = 8760.0
EXCEEDS_CALENDAR = "exceeds rated calendar life"


@dataclass(frozen=True)
class ResilienceReport:
    ri: float
    shortage_sums: tuple[float, float, float]
    load_sums: tuple[float, float, float]


def resilience_report(traj: Trajectory, weights) -> ResilienceReport:
    """Episode RI of a logged trajectory under the tier ``weights``."""
    sh = tuple(float(v) for v in traj.shortages.sum(axis=0))
    ld = tuple(float(v) for v in traj.loads.sum(axis=0))
    return ResilienceReport(ri=env.resilience_index(sh, ld, weights),
                            shortage_sums=sh, load_sums=ld)


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
    if episode_hours <= 0.0:
        raise ValueError(f"episode_hours must be positive, got {episode_hours}")
    return episode_throughput_kwh * (HOURS_PER_YEAR / episode_hours)


def estimate_battery_life(annual_throughput_kwh: float,
                          rated_cycles: float = 3000.0,
                          e_max: float = 780.0) -> BatteryLifeEstimate:
    """Lifespan from equivalent-full-cycle counting.

    The battery is assumed to survive rated_cycles full cycles, i.e. a
    lifetime throughput of rated_cycles * e_max; dividing by the annual
    throughput gives calendar years.
    """
    if annual_throughput_kwh < 0.0:
        raise ValueError("annual throughput cannot be negative")
    lifetime = rated_cycles * e_max
    years = math.inf if annual_throughput_kwh == 0.0 \
        else lifetime / annual_throughput_kwh
    return BatteryLifeEstimate(annual_throughput_kwh=annual_throughput_kwh,
                               lifetime_throughput_kwh=lifetime,
                               estimated_years=years)


@dataclass(frozen=True)
class CurveSummary:
    rolling_mean: np.ndarray
    last_quartile_mean: float
    final_value: float        # last rolling mean
    converged_at: int         # update index; -1 when never inside the band


def reward_curve_summary(updates, rewards, window: int = 10,
                         band: float = 0.02) -> CurveSummary:
    """Rolling mean and a convergence point for a learning curve.

    ``converged_at`` is the earliest update from which the rolling mean
    never again leaves a +-band (relative) envelope around its final
    value; -1 if even the last point is outside.
    """
    updates = np.asarray(updates, dtype=np.int64)
    rewards = np.asarray(rewards, dtype=np.float64)
    if updates.shape != rewards.shape:
        raise ValueError("updates and rewards must have equal length")
    if len(rewards) < 2:
        raise ValueError("need at least 2 updates to summarize a curve")
    if not np.all(np.isfinite(rewards)):
        raise ValueError("rewards must be finite; filter missing entries out")

    n = len(rewards)
    rolling_mean = np.empty(n)
    for i in range(n):
        rolling_mean[i] = rewards[max(0, i - window + 1):i + 1].mean()
    final = float(rolling_mean[-1])
    tol = band * max(abs(final), 1e-12)
    inside = np.abs(rolling_mean - final) <= tol
    converged = -1
    for i in range(n - 1, -1, -1):
        if not inside[i]:
            break
        converged = int(updates[i])
    quart = max(1, n // 4)
    return CurveSummary(rolling_mean=rolling_mean,
                        last_quartile_mean=float(rewards[-quart:].mean()),
                        final_value=final, converged_at=converged)


# ---------------------------------------------------------------------------
# Training metrics log

TRAIN_CSV_HEADER = ("update", "mean_reward_norm", "RI", "policy_loss",
                    "value_loss", "entropy", "clip_frac")
LAYOUT = Layout("metrics", TRAIN_CSV_HEADER)


def write_train_metrics_csv(stats: list[TrainStats],
                            path: str | os.PathLike) -> None:
    LAYOUT.write(path, [s.update for s in stats],
                 [astuple(s)[1:] for s in stats])


def read_train_metrics_csv(path: str | os.PathLike) -> list[TrainStats]:
    """Parse a metrics CSV; a malformed table raises ValueError naming the
    file, the 1-based data row and the column.  Float cells are not
    range-checked: mean_reward_norm and RI stay NaN until an episode ends."""
    return [TrainStats(int(update), *rest)
            for update, *rest in LAYOUT.read(path).tolist()]
