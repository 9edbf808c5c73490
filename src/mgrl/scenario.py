"""Time series that drive the microgrid environment.

A scenario bundles hourly renewable generation with three priority-tiered
load profiles (essential, business, agricultural).  Scenarios come from two
sources: a CSV file with real measurements, or the built-in synthetic
generator that layers a tropical-storm disturbance (solar dimming, wind
gusts followed by turbine cut-out) on top of ordinary diurnal profiles.

All series are stored as float64 kW at a fixed one-hour step
(:data:`STEP_HOURS`), so kW and kWh-per-step are numerically
interchangeable.
"""

import os
from dataclasses import dataclass

import numpy as np

from .table import Layout, TableError

CSV_COLUMNS = ("t", "p_re", "l1", "l2", "l3")

# Hours per scenario row.  The generator, the environment step and the
# battery accounting of the report all assume one hour; it is not a knob.
STEP_HOURS = 1.0

# Hour-of-day load shapes, normalised to mean 1 so base_loads_kw are true
# per-tier mean powers.  Essential demand is near-flat with an evening peak,
# business demand follows working hours, agricultural demand is flat.
_ESSENTIAL_SHAPE = np.array(
    [0.82, 0.80, 0.78, 0.78, 0.80, 0.85, 0.95, 1.05, 1.05, 1.00, 1.00, 1.00,
     1.00, 1.00, 1.00, 1.05, 1.10, 1.20, 1.30, 1.35, 1.30, 1.15, 1.00, 0.90])
_BUSINESS_SHAPE = np.array(
    [0.50, 0.48, 0.47, 0.47, 0.48, 0.52, 0.62, 0.85, 1.25, 1.50, 1.55, 1.55,
     1.50, 1.50, 1.55, 1.50, 1.40, 1.20, 0.95, 0.80, 0.70, 0.60, 0.55, 0.52])
_AGRICULTURAL_SHAPE = np.ones(24)

_LOAD_SHAPES = [s / s.mean() for s in
                (_ESSENTIAL_SHAPE, _BUSINESS_SHAPE, _AGRICULTURAL_SHAPE)]

_SUNRISE_HOUR = 6
_SUNSET_HOUR = 18
_STORM_GUST_FACTOR = 2.2


class ScenarioFormatError(TableError):
    """Raised when a scenario CSV violates the documented schema."""


LAYOUT = Layout("scenario", CSV_COLUMNS, row="row {i}", column="column {!r}",
                error=ScenarioFormatError, strip_header=True)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for the synthetic scenario generator."""

    horizon_steps: int = 720
    start_hour: int = 0  # hour of day at step 0
    solar_capacity_kw: float = 140.0
    wind_capacity_kw: float = 80.0
    base_loads_kw: tuple[float, float, float] = (30.0, 24.0, 12.0)
    cyclone_window: tuple[int, int] = (360, 408)
    cyclone_depression: float = 0.8
    rng_seed: int = 0

    def validate(self) -> None:
        if self.horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {self.horizon_steps}")
        if not 0 <= self.start_hour < 24:
            raise ValueError(f"start_hour must be in [0, 24), got {self.start_hour}")
        start, end = self.cyclone_window
        if not (0 <= start <= end <= self.horizon_steps):
            raise ValueError(
                f"cyclone_window must satisfy 0 <= start <= end <= horizon, "
                f"got {self.cyclone_window} with horizon {self.horizon_steps}")
        if not 0.0 <= self.cyclone_depression <= 1.0:
            raise ValueError(
                f"cyclone_depression must be in [0, 1], got {self.cyclone_depression}")
        if self.solar_capacity_kw < 0 or self.wind_capacity_kw < 0:
            raise ValueError("generation capacities must be >= 0")
        if len(self.base_loads_kw) != 3 or any(b < 0 for b in self.base_loads_kw):
            raise ValueError(f"base_loads_kw must be three values >= 0, "
                             f"got {self.base_loads_kw}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class Scenario:
    """Hourly renewable generation and the three tiered load series.

    p_re has shape (horizon,), loads has shape (horizon, 3); both kW.
    Immutable after construction and safe to share across workers.
    """

    p_re: np.ndarray
    loads: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_re", np.asarray(self.p_re, dtype=np.float64))
        object.__setattr__(self, "loads", np.asarray(self.loads, dtype=np.float64))

    @property
    def horizon(self) -> int:
        return len(self.p_re)


def synth_cyclone_scenario(cfg: ScenarioConfig) -> Scenario:
    """Generate a synthetic storm scenario, deterministic for a fixed seed.

    Solar follows a half-sine diurnal arc scaled by capacity; wind is a
    smoothed bounded random walk; the three load tiers follow their diurnal
    shapes with +/-10% multiplicative noise.  Inside the storm window solar
    is dimmed by cyclone_depression while wind gusts up toward the front of
    the window, then the turbines cut out to zero at the storm peak.

    RNG draw order is fixed (wind walk start, wind walk steps, load noise)
    so equal configs produce bitwise-identical scenarios.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.rng_seed)
    T = cfg.horizon_steps
    hours = (cfg.start_hour + np.arange(T)) % 24

    day_frac = (hours - _SUNRISE_HOUR) / (_SUNSET_HOUR - _SUNRISE_HOUR)
    solar = np.where((day_frac >= 0) & (day_frac <= 1),
                     np.sin(np.pi * np.clip(day_frac, 0.0, 1.0)), 0.0)
    solar = cfg.solar_capacity_kw * solar

    level = np.empty(T)
    level[0] = rng.uniform(0.25, 0.65)
    steps = rng.normal(0.0, 0.06, size=T)
    for t in range(1, T):
        level[t] = min(max(level[t - 1] + steps[t], 0.03), 0.95)
    k = min(5, T)  # convolve needs kernel <= series length
    kernel = np.ones(k) / k
    smooth = np.convolve(level, kernel, mode="same")
    smooth /= np.convolve(np.ones(T), kernel, mode="same")
    wind = cfg.wind_capacity_kw * smooth

    start, end = cfg.cyclone_window
    if end > start:
        solar[start:end] *= 1.0 - cfg.cyclone_depression
        peak = (start + end) // 2
        ramp = np.arange(1, peak - start + 1) / max(1, peak - start)
        wind[start:peak] *= 1.0 + (_STORM_GUST_FACTOR - 1.0) * ramp
        wind[peak:end] = 0.0  # cut-out while the storm core passes
    wind = np.clip(wind, 0.0, cfg.wind_capacity_kw)

    noise = rng.uniform(0.9, 1.1, size=(T, 3))
    loads = np.empty((T, 3))
    for i, base in enumerate(cfg.base_loads_kw):
        loads[:, i] = base * _LOAD_SHAPES[i][hours] * noise[:, i]

    return Scenario(p_re=solar + wind, loads=loads)


def load_scenario_csv(path: str | os.PathLike) -> Scenario:
    """Read a scenario from CSV (schema: header ``t,p_re,l1,l2,l3``).

    Raises ScenarioFormatError naming the offending row and column on a
    malformed header, ragged row, non-numeric entry, negative or non-finite
    value, or an out-of-order ``t`` index, and naming the file when it
    has no data rows.
    """
    a = LAYOUT.read(path)
    if not len(a):
        raise ScenarioFormatError(f"{path}: no data rows, expected one "
                                  f"per hour after the header")
    bad = np.flatnonzero(a[:, 0] != np.arange(len(a)))
    if len(bad):
        i = int(bad[0])
        LAYOUT.fail(path, i, "t", f"expected {i}, got {int(a[i, 0])} "
                                  f"(rows must be sorted with no gaps)")
    LAYOUT.reject(path, a, ~np.isfinite(a), "non-finite value {!r}")
    LAYOUT.reject(path, a, a < 0, "negative value {!r}")
    return Scenario(p_re=a[:, 1].copy(), loads=a[:, 2:].copy())


def write_scenario_csv(scn: Scenario, path: str | os.PathLike) -> None:
    """Write a scenario in the CSV schema, round-tripping floats exactly."""
    LAYOUT.write(path, range(scn.horizon),
                 np.column_stack([scn.p_re, scn.loads]))
