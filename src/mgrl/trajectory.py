"""Per-step log of one evaluated episode.

The trajectory CSV is the interchange format between evaluation, metrics,
reporting and explanation: each row holds the observed state at the start
of the hour, the resolved battery flows, the per-tier allocations,
imbalances and shortages, and the step reward.  Floats are written with
repr so a read-back reproduces the numbers exactly.
"""

import os
from dataclasses import dataclass

import numpy as np

from .table import Layout

CSV_HEADER = ("t", "soc", "p_re", "l1", "l2", "l3", "p_ch", "p_dis",
              "p_supply", "alloc1", "alloc2", "alloc3",
              "imb1", "imb2", "imb3", "sh1", "sh2", "sh3", "reward")
LAYOUT = Layout("trajectory", CSV_HEADER)
# Only the imbalances may be negative; SOC and reward are fractions.
_NON_NEGATIVE = ~np.isin(CSV_HEADER, ("imb1", "imb2", "imb3"))
_FRACTION = np.isin(CSV_HEADER, ("soc", "reward"))

MODE_FLOW_EPS_KW = 1e-6


@dataclass
class Trajectory:
    soc: np.ndarray        # (T,) SOC when the decision was taken
    p_re: np.ndarray       # (T,)
    loads: np.ndarray      # (T, 3)
    p_ch: np.ndarray       # (T,)
    p_dis: np.ndarray      # (T,)
    p_supply: np.ndarray   # (T,)
    allocations: np.ndarray  # (T, 3)
    imbalances: np.ndarray   # (T, 3)
    shortages: np.ndarray    # (T, 3)
    reward: np.ndarray       # (T,)

    def __len__(self) -> int:
        return len(self.reward)

    def states(self) -> np.ndarray:
        """(T, 6) observation matrix: SOC, three loads, generation, net."""
        p_net = self.p_re - self.loads.sum(axis=1)
        return np.column_stack([self.soc, self.loads, self.p_re, p_net])

    def mode_at(self, t: int) -> str:
        if self.p_ch[t] > MODE_FLOW_EPS_KW:
            return "charge"
        if self.p_dis[t] > MODE_FLOW_EPS_KW:
            return "discharge"
        return "idle"

    def find_mode_step(self, mode: str) -> int:
        """First step operating in the given mode; -1 when none matches."""
        if mode not in ("idle", "charge", "discharge"):
            raise ValueError(f"unknown mode {mode!r}")
        for t in range(len(self)):
            if self.mode_at(t) == mode:
                return t
        return -1


def write_trajectory_csv(traj: Trajectory, path: str | os.PathLike) -> None:
    LAYOUT.write(path, range(len(traj)), np.column_stack(
        [traj.soc, traj.p_re, traj.loads, traj.p_ch, traj.p_dis,
         traj.p_supply, traj.allocations, traj.imbalances, traj.shortages,
         traj.reward]))


def read_trajectory_csv(path: str | os.PathLike) -> Trajectory:
    """Parse a trajectory CSV; bad input raises ValueError naming the
    file, the 1-based data row and the column: a malformed table, a
    non-finite value, a negative flow, load, allocation or shortage, or
    an SOC or reward outside [0, 1]."""
    a = LAYOUT.read(path)
    LAYOUT.reject(path, a, ~np.isfinite(a), "non-finite value {!r}")
    LAYOUT.reject(path, a, (a < 0) & _NON_NEGATIVE, "negative value {!r}")
    LAYOUT.reject(path, a, (a > 1) & _FRACTION, "value {!r} above 1")
    return Trajectory(
        soc=a[:, 1], p_re=a[:, 2], loads=a[:, 3:6],
        p_ch=a[:, 6], p_dis=a[:, 7], p_supply=a[:, 8],
        allocations=a[:, 9:12], imbalances=a[:, 12:15],
        shortages=a[:, 15:18], reward=a[:, 18])
