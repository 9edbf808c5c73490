"""Run configuration: one plain-text file drives every command.

The file format is deliberately boring — one ``section.key = value``
assignment per line, ``#`` comments, blank lines ignored::

    run.seed = 7
    env.soc_min = 0.2
    ppo.total_updates = 150
    scenario.base_loads_kw = 30, 24, 12

Sections map onto the per-module config dataclasses.  A single master
seed (``run.seed`` or ``--seed``) fans out to per-component sub-seeds
via :func:`mgrl.seeding.derive_seed`; explicitly configured sub-seeds
win over the derived ones.
"""

import math
import os
from dataclasses import dataclass, fields

from .env import EnvConfig
from .explain import ExplainConfig
from .ppo import PpoConfig
from .scenario import ScenarioConfig
from .seeding import derive_seed
from .table import read_text


class ConfigError(ValueError):
    """Malformed config file or unknown/invalid key."""


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    env: EnvConfig
    ppo: PpoConfig
    explain: ExplainConfig
    output_dir: str = "runs/default"
    run_id: str = "run"
    seed: int = 0
    checkpoint_every: int = 0  # 0 -> only the final checkpoint
    rated_cycles: float = 3000.0  # battery full cycles for lifespan estimate

    def validate(self) -> None:
        self.scenario.validate()
        self.env.validate()
        self.ppo.validate()
        self.explain.validate()
        if not self.output_dir:
            raise ConfigError("run.output_dir must not be empty")
        if self.checkpoint_every < 0:
            raise ConfigError(
                f"run.checkpoint_every must be >= 0, "
                f"got {self.checkpoint_every}")
        if self.rated_cycles <= 0:
            raise ConfigError(
                f"run.rated_cycles must be positive, got {self.rated_cycles}")


def _finite(raw: str) -> float:
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return x


def _float_pair_or_none(raw: str):
    if raw.strip().lower() == "none":
        return None
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers or 'none'")
    return (_finite(parts[0]), _finite(parts[1]))


def _int_pair(raw: str):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated integers")
    return (int(parts[0]), int(parts[1]))


# Fields whose type cannot be inferred from their default value.
_SPECIAL_PARSERS = {
    "env.init_soc_range": _float_pair_or_none,
    "scenario.cyclone_window": _int_pair,
}


def _coerce(key: str, raw: str, default):
    if key in _SPECIAL_PARSERS:
        return _SPECIAL_PARSERS[key](raw)
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return _finite(raw)
    if isinstance(default, tuple):
        elem = (_finite if not default or isinstance(default[0], float)
                else type(default[0]))
        return tuple(elem(p.strip()) for p in raw.split(","))
    return raw.strip()


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Raw dotted-key assignments from config text, last write wins."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


_SECTIONS = {
    "scenario": ScenarioConfig,
    "env": EnvConfig,
    "ppo": PpoConfig,
    "explain": ExplainConfig,
}
_RUN_KEYS = ("output_dir", "run_id", "seed", "checkpoint_every",
             "rated_cycles")

# config section -> (dataclass seed field, seed-derivation component name)
_SEED_FIELDS = {"scenario": "rng_seed", "ppo": "seed", "explain": "seed"}


def build_run_config(entries: dict[str, str],
                     seed_override: int | None = None,
                     output_override: str | None = None) -> RunConfig:
    """Assemble and validate a RunConfig from dotted-key assignments."""
    section_kwargs: dict[str, dict] = {name: {} for name in _SECTIONS}
    run_kwargs: dict = {}
    for key, raw in entries.items():
        section, _, field_name = key.partition(".")
        if not field_name:
            raise ConfigError(f"config key {key!r} is missing a section prefix")
        if section == "run":
            if field_name not in _RUN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            default = RunConfig.__dataclass_fields__[field_name].default
            try:
                run_kwargs[field_name] = _coerce(key, raw, default)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section in key {key!r}")
        cls = _SECTIONS[section]
        valid = {f.name for f in fields(cls)}
        if field_name not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        default = getattr(cls(), field_name)
        try:
            section_kwargs[section][field_name] = _coerce(key, raw, default)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc

    if seed_override is not None:
        run_kwargs["seed"] = int(seed_override)
    if output_override is not None:
        run_kwargs["output_dir"] = output_override

    master = run_kwargs.get("seed", RunConfig.__dataclass_fields__["seed"].default)
    for section, seed_field in _SEED_FIELDS.items():
        if seed_field not in section_kwargs[section]:
            section_kwargs[section][seed_field] = derive_seed(master, section)

    cfg = RunConfig(scenario=ScenarioConfig(**section_kwargs["scenario"]),
                    env=EnvConfig(**section_kwargs["env"]),
                    ppo=PpoConfig(**section_kwargs["ppo"]),
                    explain=ExplainConfig(**section_kwargs["explain"]),
                    **run_kwargs)
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_run_config(path: str | os.PathLike | None,
                    seed_override: int | None = None,
                    output_override: str | None = None) -> RunConfig:
    """RunConfig from a file (or pure defaults when path is None)."""
    entries = {} if path is None else parse_config_text(
        read_text(path), source=os.fspath(path))
    return build_run_config(entries, seed_override, output_override)


def config_summary(cfg: RunConfig) -> str:
    """Human-readable dump of every effective setting."""
    lines = [f"run.output_dir = {cfg.output_dir}",
             f"run.run_id = {cfg.run_id}",
             f"run.seed = {cfg.seed}",
             f"run.checkpoint_every = {cfg.checkpoint_every}",
             f"run.rated_cycles = {cfg.rated_cycles}"]
    for section, sub in (("scenario", cfg.scenario), ("env", cfg.env),
                         ("ppo", cfg.ppo), ("explain", cfg.explain)):
        for f in fields(sub):
            lines.append(f"{section}.{f.name} = {getattr(sub, f.name)}")
    return "\n".join(lines) + "\n"
