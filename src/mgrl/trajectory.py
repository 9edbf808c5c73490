"""Per-step log of one evaluated episode.

The trajectory CSV is the interchange format between evaluation, metrics,
reporting and explanation: each row holds the observed state at the start
of the hour, the resolved battery flows, the per-tier allocations,
imbalances and shortages, and the step reward.  Floats are written with
repr so a read-back reproduces the numbers exactly.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

CSV_HEADER = ("t", "soc", "p_re", "l1", "l2", "l3", "p_ch", "p_dis",
              "p_supply", "alloc1", "alloc2", "alloc3",
              "imb1", "imb2", "imb3", "sh1", "sh2", "sh3", "reward")

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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for t in range(len(traj)):
            row = [t, traj.soc[t], traj.p_re[t], *traj.loads[t],
                   traj.p_ch[t], traj.p_dis[t], traj.p_supply[t],
                   *traj.allocations[t], *traj.imbalances[t],
                   *traj.shortages[t], traj.reward[t]]
            fh.write(",".join(repr(float(v)) if i else str(int(v))
                              for i, v in enumerate(row)) + "\n")


def read_trajectory_csv(path: str | os.PathLike) -> Trajectory:
    """Parse a trajectory CSV; bad input raises ValueError naming the
    file, the 1-based data row and the column."""
    width = len(CSV_HEADER)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, []))
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected trajectory header {header!r}")
        rows = []
        for n, row in enumerate(reader, start=1):
            if len(row) != width:
                where = (f"column {CSV_HEADER[len(row)]} missing"
                         if len(row) < width else
                         f"extra fields after column {CSV_HEADER[-1]}")
                raise ValueError(f"{path}: data row {n}: {where} "
                                 f"({len(row)} fields, expected {width})")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                for name, cell in zip(CSV_HEADER, row):
                    try:
                        float(cell)
                    except ValueError:
                        raise ValueError(f"{path}: data row {n}, column "
                                         f"{name}: not a number: {cell!r}"
                                         ) from None
    a = np.array(rows, dtype=np.float64).reshape(-1, width)
    if not np.isfinite(a).all():
        r, c = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"{path}: data row {r + 1}, column {CSV_HEADER[c]}: "
                         f"non-finite value {float(a[r, c])!r}")
    return Trajectory(
        soc=a[:, 1], p_re=a[:, 2], loads=a[:, 3:6],
        p_ch=a[:, 6], p_dis=a[:, 7], p_supply=a[:, 8],
        allocations=a[:, 9:12], imbalances=a[:, 12:15],
        shortages=a[:, 15:18], reward=a[:, 18])

