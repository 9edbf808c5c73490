"""Per-step log of one evaluated episode, one float64 table.

The trajectory CSV is the interchange format between evaluation, metrics,
reporting and explanation: each row holds the observed state at the start
of the hour, the resolved battery flows, the per-tier allocations,
imbalances and shortages, and the step reward.  Floats are written with
repr so a read-back reproduces the numbers exactly.  A ``Trajectory`` holds
the columns after ``t``; its named fields are views of them, so a write
through one lands in the table.
"""

import os

import numpy as np

from .env import features
from .scenario import KW_CAP, MAX_KW
from .table import Layout, column_view

CSV_HEADER = ("t", "soc", "p_re", "l1", "l2", "l3", "p_ch", "p_dis",
              "p_supply", "alloc1", "alloc2", "alloc3",
              "imb1", "imb2", "imb3", "sh1", "sh2", "sh3", "reward")
LAYOUT = Layout("trajectory", CSV_HEADER)
# Only the imbalances may be negative; SOC and reward are fractions.
_NON_NEGATIVE = ~np.isin(CSV_HEADER, ("imb1", "imb2", "imb3"))
_FRACTION = np.isin(CSV_HEADER, ("soc", "reward"))
_KW = ~np.isin(CSV_HEADER, ("t", "soc", "reward"))
_ALLOCATIONS = np.isin(CSV_HEADER, ("alloc1", "alloc2", "alloc3"))
_SHORTAGES = np.isin(CSV_HEADER, ("sh1", "sh2", "sh3"))
_P_DIS = CSV_HEADER.index("p_dis")

MODES = ("idle", "charge", "discharge")
MODE_FLOW_EPS_KW = 1e-6


class Trajectory:
    def __init__(self, table: np.ndarray):
        self.table = table  # (T, 18) in CSV_HEADER[1:] order

    @classmethod
    def empty(cls, horizon: int) -> "Trajectory":
        return cls(np.empty((horizon, len(CSV_HEADER) - 1)))

    soc = column_view(0)  # (T,) SOC when the decision was taken
    p_re = column_view(1)
    loads = column_view(slice(2, 5))  # (T, 3)
    p_ch = column_view(5)
    p_dis = column_view(6)
    p_supply = column_view(7)
    flows = column_view(slice(5, 8))  # (T, 3): p_ch, p_dis, p_supply
    allocations = column_view(slice(8, 11))  # (T, 3)
    imbalances = column_view(slice(11, 14))  # (T, 3)
    shortages = column_view(slice(14, 17))  # (T, 3)
    reward = column_view(17)

    def __len__(self) -> int:
        return len(self.table)

    def states(self) -> np.ndarray:
        """(T, 6) observation matrix: SOC, three loads, generation, net."""
        return features(self.soc, self.loads, self.p_re)

    def mode_at(self, t: int) -> str:
        if self.p_ch[t] > MODE_FLOW_EPS_KW:
            return "charge"
        if self.p_dis[t] > MODE_FLOW_EPS_KW:
            return "discharge"
        return "idle"

    def find_mode_step(self, mode: str) -> int:
        """First step in ``mode`` (a --mode choice); -1 when none matches."""
        return next((t for t in range(len(self)) if self.mode_at(t) == mode),
                    -1)


def write_trajectory_csv(traj: Trajectory, path: str | os.PathLike) -> None:
    LAYOUT.write(path, range(len(traj)), traj.table)


def read_trajectory_csv(path: str | os.PathLike) -> Trajectory:
    """Parse a trajectory CSV; bad input raises ValueError naming the
    file, the 1-based data row and the column: a malformed table, a ``t``
    index other than 0..n-1, a non-finite value, a negative flow, load,
    allocation or shortage, an SOC or reward outside [0, 1], a power
    beyond ``MAX_KW`` kW, an allocation above its hour's supply, a
    shortage above its tier's load, or an hour that both charges and
    discharges.  Evaluation writes none of the last three: an allocation
    is a softmax share, at most 1, of the supply, a shortage is the
    load less a non-negative allocation, and ``step`` returns the
    ruled-out flow as 0.0."""
    a = LAYOUT.read(path)
    LAYOUT.reject(path, a, ~np.isfinite(a), "non-finite value {!r}")
    LAYOUT.reject(path, a, (a < 0) & _NON_NEGATIVE, "negative value {!r}")
    LAYOUT.reject(path, a, (a > 1) & _FRACTION, "value {!r} above 1")
    LAYOUT.reject(path, a, (abs(a) > MAX_KW) & _KW, KW_CAP)
    traj = Trajectory(a[:, 1:])
    bad = np.zeros(a.shape, dtype=bool)
    bad[:, _ALLOCATIONS] = traj.allocations > traj.p_supply[:, None]
    LAYOUT.reject(path, a, bad, "allocation {!r} above its hour's supply")
    bad[:, _SHORTAGES] = traj.shortages > traj.loads
    LAYOUT.reject(path, a, bad, "shortage {!r} above its tier's load")
    bad[:, _P_DIS] = (traj.p_ch > 0) & (traj.p_dis > 0)
    LAYOUT.reject(path, a, bad, "discharge {!r} in an hour that charges")
    return traj
