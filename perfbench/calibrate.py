"""Host-speed calibration: a fixed reference kernel timed between ops.

The benchmark runs on a few virtual cores of a shared host whose speed
drifts by 10-30% over tens of seconds to minutes, as neighbours come and
go.  That drift moves every timing of a run together and would swamp the
bound by which a change may make the program slower.

The reference kernel below is fixed code that does not touch ``mgrl``:
a scalar Python loop with small dataclasses and tuples (like the env
step), ufuncs on 3-vectors (like action post-processing) and a few small
matmul/tanh layers (like the MLP).  The workloads run it after every
operation, outside the op's timing, so it samples the same host states
as the ops.  In a 200 s test on a 2-vCPU Xeon guest, the time of the
scalar loop alone tracked the ``train-wide`` update time over 10 s
windows with a correlation of 0.96.

:func:`host_factor` is one statistic of the run's reference times over
the same statistic on that guest when quiet (``NOMINAL_S``).  The
benchmark divides each timing by the factor of its own statistic (a
median by the median factor, the 90th percentile by the 90th percentile
factor, a mean-based throughput by the mean factor), so timings read as
on the nominal host; the raw timings are printed beside them.  Matching
the statistic matters for the tail: the slow tail of the ops comes from
the same short host stalls as that of the reference; divided by the
median factor it spread about twice as much across runs.  The factor
tracks the host, not other processes in the guest: run nothing else
beside the benchmark.
"""

from dataclasses import dataclass
from time import perf_counter

import numpy as np

# reference_kernel() times on a quiet 2-vCPU Xeon (Haswell-class) guest
# with NumPy 2 / OpenBLAS 0.3.31, by statistic.  Only ratios to them are
# used, so other values would rescale every timing of that statistic alike.
NOMINAL_S = {"p50": 0.0050, "p90": 0.0060, "mean": 0.0050}

_rng = np.random.default_rng(12345)
# Sizes below OpenBLAS's threading threshold (m*n*k <= 4 * 65536), so the
# kernel runs on one core: a pool thread stalled by another process of the
# guest would otherwise inflate it many times more than the ops.
_X = _rng.standard_normal((64, 32))
_W1 = _rng.standard_normal((32, 64)) * 0.1
_W2 = _rng.standard_normal((64, 64)) * 0.1
_V = _rng.standard_normal(3)


@dataclass
class _State:
    x: float
    y: float
    short: tuple


def reference_kernel() -> float:
    """Run the fixed reference work once; return its wall time in s."""
    t = perf_counter()
    s = _State(0.0, 1.0, (0.0, 0.0, 0.0))
    acc = 0.0
    for i in range(400):
        x = min(max(s.x + 0.1 * (i % 5) - 0.2, 0.0), 1.0)
        short = tuple(max(0.0, c - x) for c in (0.3, 0.5, 0.7))
        s = _State(x, s.y * 0.99 + 0.01, short)
        acc += sum(short)
    for i in range(100):
        a = np.clip(_V * (i % 3), -1.0, 1.0)
        e = np.exp(a - a.max())
        acc += float((e / e.sum())[0])
    for _ in range(30):
        h = np.tanh(_X @ _W1)
        h = np.tanh(h @ _W2)
        acc += float((h.T @ h)[0, 0])
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite sum")
    return perf_counter() - t


def host_factor(samples: list[float], stat: str = "p50") -> float:
    """How much slower than nominal the host ran, by ``stat`` (a key of
    NOMINAL_S) of the reference samples."""
    if not samples:
        return 1.0
    value = (float(np.mean(samples)) if stat == "mean"
             else float(np.percentile(samples, float(stat[1:]))))
    return value / NOMINAL_S[stat]
