"""Run configuration: one plain-text file drives every command.

The file format is deliberately boring — one ``section.key = value``
assignment per line, ``#`` comments, blank lines ignored::

    run.seed = 7
    env.soc_min = 0.2
    ppo.total_updates = 150
    scenario.base_loads_kw = 30, 24, 12

Sections map onto the per-module config dataclasses: their fields are the
keys, and each field's type annotation says how its value reads (see
:func:`_coerce`).  A single master seed (``run.seed`` or ``--seed``) fans
out to per-component sub-seeds via :func:`mgrl.seeding.derive_seed`;
explicitly configured sub-seeds win over the derived ones.
"""

import math
import os
from dataclasses import dataclass, fields, is_dataclass
from typing import get_args, get_origin

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
    rated_cycles: float = 3000.0  # battery full cycles for lifespan estimate

    def __post_init__(self):
        if not self.output_dir:
            raise ConfigError("run.output_dir must not be empty")
        if not self.rated_cycles > 0:
            raise ConfigError(
                f"run.rated_cycles must be positive, got {self.rated_cycles}")
        for key, value in _settings(self):
            if isinstance(value, str) and ("#" in value or len(
                    value.splitlines()) > 1 or value != value.strip()):
                raise ConfigError(f"{key} must not contain '#' or a line "
                                  f"break or start or end with whitespace, "
                                  f"which a config file loses: got {value!r}")
        if "," in self.run_id or '"' in self.run_id:
            raise ConfigError(
                f"run.run_id must not contain ',' or '\"', which would "
                f"split its row of report.csv: got {self.run_id!r}")


def _coerce(tp, raw: str):
    """``raw`` read as a value of the annotated field type ``tp``: str,
    int, finite float, ``X | None`` (spelled ``none``) or a tuple given as
    comma-separated values, of fixed length or ``tuple[T, ...]``."""
    raw = raw.strip()
    args = get_args(tp)
    if type(None) in args:  # X | None
        if raw.lower() == "none":
            return None
        tp = args[0]
        args = get_args(tp)
    if get_origin(tp) is tuple:
        parts = raw.split(",")
        if args[-1] is Ellipsis:
            args = args[:1] * len(parts)
        elif len(parts) != len(args):
            raise ValueError(f"expected {len(args)} comma-separated values, "
                             f"got {len(parts)}")
        return tuple(map(_coerce, args, parts))
    value = tp(raw)
    if tp is float and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


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


# section -> its dataclass: the RunConfig fields that are dataclasses
_SECTIONS = {f.name: f.type for f in fields(RunConfig) if is_dataclass(f.type)}
# section -> {key: annotated type}; "run" holds RunConfig's other fields
_SCHEMA = {"run": {f.name: f.type for f in fields(RunConfig)
                   if f.name not in _SECTIONS}}
_SCHEMA.update({section: {f.name: f.type for f in fields(cls)}
                for section, cls in _SECTIONS.items()})


def _settings(cfg: RunConfig):
    """(``section.key``, value) of every setting, in schema order."""
    for section, keys in _SCHEMA.items():
        owner = cfg if section == "run" else getattr(cfg, section)
        for name in keys:
            yield f"{section}.{name}", getattr(owner, name)


# section -> its seed field, derived from run.seed under the section's name
_SEED_FIELDS = {"scenario": "rng_seed", "ppo": "seed", "explain": "seed"}


def build_run_config(entries: dict[str, str],
                     seed_override: int | None = None,
                     output_override: str | None = None) -> RunConfig:
    """A RunConfig from dotted-key assignments; errors name the section."""
    kwargs: dict[str, dict] = {section: {} for section in _SCHEMA}
    for key, raw in entries.items():
        section, _, name = key.partition(".")
        if name not in _SCHEMA.get(section, ()):
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[section][name] = _coerce(_SCHEMA[section][name], raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc

    run_kwargs = kwargs.pop("run")
    if seed_override is not None:
        run_kwargs["seed"] = int(seed_override)
    if output_override is not None:
        run_kwargs["output_dir"] = output_override

    master = run_kwargs.get("seed", RunConfig.seed)
    for section, seed_field in _SEED_FIELDS.items():
        kwargs[section].setdefault(seed_field, derive_seed(master, section))

    sections = {}
    for section, cls in _SECTIONS.items():
        try:
            sections[section] = cls(**kwargs[section])
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return RunConfig(**sections, **run_kwargs)


def load_run_config(path: str | os.PathLike | None,
                    seed_override: int | None = None,
                    output_override: str | None = None) -> RunConfig:
    """RunConfig from a file (or pure defaults when path is None); an
    error in the file's keys or values names the file."""
    if output_override == "":  # the one bad override, not the file's fault
        raise ConfigError("--out must not be empty")
    if path is None:
        return build_run_config({}, seed_override, output_override)
    source = os.fspath(path)
    entries = parse_config_text(read_text(path), source=source)
    try:
        return build_run_config(entries, seed_override, output_override)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def config_summary(cfg: RunConfig) -> str:
    """Every effective setting, one ``section.key = value`` line each, in
    the syntax :func:`_coerce` reads: the output is a config file that
    builds the same RunConfig."""
    lines = []
    for key, value in _settings(cfg):
        if isinstance(value, tuple):
            value = ", ".join(map(str, value))
        lines.append(f"{key} = {value}\n")
    return "".join(lines)
