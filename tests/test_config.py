import math
from dataclasses import replace

import pytest

from mgrl.config import (
    ConfigError,
    RunConfig,
    build_run_config,
    config_summary,
    load_run_config,
    parse_config_text,
)
from mgrl.env import EnvConfig
from mgrl.explain import ExplainConfig
from mgrl.ppo import PpoConfig
from mgrl.scenario import ScenarioConfig
from mgrl.seeding import derive_seed
from mgrl.table import TableError

# Non-finite values a config file cannot carry: the reader refuses them
# before any section sees them, and inf passes "positive" and
# "non-negative" in the sections' own checks.
NON_FINITE = [
    ("explain.kernel_sigma", "nan"),
    ("explain.ridge_strength", "nan"),
    ("explain.perturb_scale", "inf"),
    ("env.e_max_kwh", "nan"),
    ("env.p_conv_kw", "inf"),
    ("env.reward_weights", "inf, 2, 1"),
    ("ppo.learning_rate", "nan"),
    ("ppo.c2", "inf"),
    ("run.rated_cycles", "nan"),
    ("scenario.solar_capacity_kw", "nan"),
    ("scenario.wind_capacity_kw", "inf"),
    ("scenario.base_loads_kw", "30, -inf, 12"),
]

# Every one of the 39 settable keys, each away from its default.
EVERY_KEY = """\
run.output_dir = runs/every
run.run_id = every-key
run.seed = 5
run.rated_cycles = 4500
scenario.horizon_steps = 96
scenario.start_hour = 6
scenario.solar_capacity_kw = 120.5
scenario.wind_capacity_kw = 60
scenario.base_loads_kw = 20, 15.5, 7
scenario.cyclone_window = 40, 60
scenario.cyclone_depression = 0.6
scenario.rng_seed = 11
env.soc_min = 0.15
env.soc_max = 0.85
env.eta_ch = 0.92
env.eta_dis = 0.93
env.e_max_kwh = 500
env.p_conv_kw = 40
env.reward_weights = 5, 2, 0.5
env.init_soc_range = 0.3, 0.6
ppo.gamma = 0.98
ppo.gae_lambda = 0.9
ppo.clip_eps = 0.1
ppo.c1 = 0.4
ppo.c2 = 0.02
ppo.learning_rate = 1e-4
ppo.rollout_steps = 64
ppo.n_envs = 4
ppo.minibatch_size = 16
ppo.epochs_per_update = 3
ppo.total_updates = 7
ppo.hidden_sizes = 32, 16, 8
ppo.init_log_std = -0.5
ppo.seed = 21
explain.n_samples = 400
explain.kernel_sigma = 1.5
explain.perturb_scale = 0.8
explain.ridge_strength = 0.01
explain.seed = 31
"""


class TestParseConfigText:
    def test_basic_assignments(self):
        text = "run.seed = 7\nppo.total_updates=20\n"
        assert parse_config_text(text) == {"run.seed": "7",
                                           "ppo.total_updates": "20"}

    def test_comments_and_blank_lines_ignored(self):
        text = "# full line comment\n\nrun.seed = 3  # trailing comment\n"
        assert parse_config_text(text) == {"run.seed": "3"}

    def test_last_write_wins(self):
        text = "run.seed = 1\nrun.seed = 2\n"
        assert parse_config_text(text) == {"run.seed": "2"}

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="mgrl.conf:2"):
            parse_config_text("run.seed = 1\nbogus line\n",
                              source="mgrl.conf")


class TestBuildRunConfig:
    def test_defaults_when_empty(self):
        cfg = build_run_config({})
        assert cfg.seed == 0
        assert cfg.output_dir == "runs/default"
        assert cfg.ppo.total_updates == 150
        assert cfg.scenario.horizon_steps == 720

    def test_type_coercion_per_field(self):
        cfg = build_run_config({
            "run.run_id": "trial-9",
            "run.rated_cycles": "4500",
            "ppo.total_updates": "12",
            "env.soc_min": "0.25",
            "scenario.base_loads_kw": "40, 20, 10",
            "ppo.hidden_sizes": "16, 16",
        })
        assert cfg.run_id == "trial-9"
        assert cfg.rated_cycles == 4500.0
        assert cfg.ppo.total_updates == 12
        assert cfg.env.soc_min == 0.25
        assert cfg.scenario.base_loads_kw == (40.0, 20.0, 10.0)
        assert cfg.ppo.hidden_sizes == (16, 16)

    def test_soc_range_special_values(self):
        cfg = build_run_config({"env.init_soc_range": "0.3, 0.4"})
        assert cfg.env.init_soc_range == (0.3, 0.4)
        cfg = build_run_config({"env.init_soc_range": "none"})
        assert cfg.env.init_soc_range is None

    def test_cyclone_window_pair(self):
        cfg = build_run_config({"scenario.cyclone_window": "100, 200"})
        assert cfg.scenario.cyclone_window == (100, 200)

    @pytest.mark.parametrize("key", [
        "nosuchsection.field",
        "ppo.nosuchfield",
        "run.nosuchfield",
        "justakey",
    ])
    def test_unknown_keys_rejected(self, key):
        with pytest.raises(ConfigError):
            build_run_config({key: "1"})

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigError, match="ppo.total_updates"):
            build_run_config({"ppo.total_updates": "many"})

    @pytest.mark.parametrize("key, value, want, got", [
        ("env.reward_weights", "1, 2", 3, 2),
        ("scenario.base_loads_kw", "1, 2", 3, 2),
        ("scenario.cyclone_window", "1, 2, 3", 2, 3),
        ("env.init_soc_range", "0.3", 2, 1),
    ])
    def test_wrong_length_tuple_names_the_key(self, key, value, want, got):
        with pytest.raises(ConfigError, match=(
                rf"^bad value for {key}: expected {want} comma-separated "
                rf"values, got {got}$")):
            build_run_config({key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("ppo.n_envs", "0", "ppo: rollout_steps and n_envs must be positive"),
        ("env.soc_min", "0.95", "env: need 0 < soc_min < soc_max <= 1"),
        ("explain.n_samples", "5", "explain: n_samples must be at least 10"),
        ("scenario.start_hour", "24", "scenario: start_hour must be in"),
        # At the log-std clamp or beyond it, the log-std would never train
        ("ppo.init_log_std", "2", "ppo: init_log_std must lie in"),
        ("ppo.init_log_std", "3", "ppo: init_log_std must lie in"),
        ("ppo.init_log_std", "-5", "ppo: init_log_std must lie in"),
    ])
    def test_validation_error_names_the_section(self, key, value, message):
        with pytest.raises(ConfigError) as exc:
            build_run_config({key: value})
        assert str(exc.value).startswith(message)

    def test_component_validation_becomes_config_error(self):
        with pytest.raises(ConfigError):
            build_run_config({"env.soc_min": "0.95"})  # above soc_max
        with pytest.raises(ConfigError):
            build_run_config({"run.rated_cycles": "0"})

    @pytest.mark.parametrize("weights", ["1, -1, -5", "2, 1, -0.5"])
    def test_negative_reward_weights_rejected(self, weights):
        # Negative weights push step rewards above 1, which the trajectory
        # reader behind explain and report then refuses.
        with pytest.raises(ConfigError, match="reward_weights"):
            build_run_config({"env.reward_weights": weights})

    @pytest.mark.parametrize("key, value", NON_FINITE)
    def test_non_finite_value_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"{key}: expected a finite"):
            build_run_config({key: value})

    @pytest.mark.parametrize("entries, out, key", [
        ({}, "runs/a#1", "run.output_dir"),
        ({"run.run_id": "a#b"}, None, "run.run_id"),
    ])
    def test_hash_in_a_string_names_the_key(self, entries, out, key):
        """A '#' would not survive the config file ``config_summary``
        writes: the reader takes it for the start of a comment."""
        with pytest.raises(ConfigError, match=rf"^{key} must not contain"):
            build_run_config(entries, output_override=out)

    @pytest.mark.parametrize("value", [
        " runs/a", "runs/a ", "runs/a\n", "runs\na", "runs/a\r\nb",
        "runs\x0ba", "runs\x1ca", "runs\x85a", "runs\u2028a",
    ])
    @pytest.mark.parametrize("field", ["output_dir", "run_id"])
    def test_string_that_would_not_read_back_names_the_key(self, field,
                                                           value):
        """The reader strips each value and splits the file into lines,
        so ``config_summary`` could not write such a string back."""
        with pytest.raises(ConfigError, match=rf"^run.{field} must not "
                                              rf"contain '#' or a line break"):
            replace(build_run_config({}), **{field: value})

    def test_zero_lowest_reward_weight_accepted(self):
        cfg = build_run_config({"env.reward_weights": "2, 1, 0"})
        assert cfg.env.reward_weights == (2.0, 1.0, 0.0)


class TestConfigsAreCheckedWhenMade:
    """Each config class checks its fields in its constructor, so every
    instance that exists is valid and no consumer checks it again."""

    DEFAULTS = {"scenario": ScenarioConfig(), "env": EnvConfig(),
                "ppo": PpoConfig(), "explain": ExplainConfig(),
                "run": build_run_config({})}

    @pytest.mark.parametrize("key, value", [
        ("env.e_max_kwh", math.nan),
        ("env.p_conv_kw", math.nan),
        ("ppo.clip_eps", math.nan),
        ("ppo.c1", math.nan),
        ("ppo.c2", math.nan),
        ("ppo.learning_rate", math.nan),
        ("explain.kernel_sigma", math.nan),
        ("explain.perturb_scale", math.nan),
        ("explain.ridge_strength", math.nan),
        ("scenario.solar_capacity_kw", math.nan),
        ("scenario.wind_capacity_kw", math.nan),
        pytest.param("scenario.base_loads_kw", (math.nan, 24.0, 12.0),
                     id="scenario.base_loads_kw-l1-nan"),
        pytest.param("scenario.base_loads_kw", (30.0, math.nan, 12.0),
                     id="scenario.base_loads_kw-l2-nan"),
        pytest.param("scenario.base_loads_kw", (30.0, 24.0, math.nan),
                     id="scenario.base_loads_kw-l3-nan"),
        ("run.rated_cycles", math.nan),
    ])
    def test_nan_field_is_refused_when_made(self, key, value):
        """NaN fails every comparison, so each check is written to fail
        on it rather than to pass."""
        section, _, name = key.partition(".")
        with pytest.raises(ValueError):
            replace(self.DEFAULTS[section], **{name: value})

    @pytest.mark.parametrize("section, changes, message", [
        ("scenario", dict(start_hour=24), "start_hour must be in [0, 24)"),
        ("env", dict(soc_min=0.0), "need 0 < soc_min < soc_max <= 1"),
        ("ppo", dict(gamma=2.0), "gamma must lie in [0, 1]"),
        ("explain", dict(n_samples=5), "n_samples must be at least 10"),
        ("run", dict(rated_cycles=0), "run.rated_cycles must be positive"),
    ], ids=["scenario", "env", "ppo", "explain", "run"])
    def test_replace_checks_the_new_config(self, section, changes, message):
        with pytest.raises(ValueError) as exc:
            replace(self.DEFAULTS[section], **changes)
        assert str(exc.value).startswith(message)

    def test_no_config_class_has_a_validate_method(self):
        for cfg in self.DEFAULTS.values():
            assert not hasattr(type(cfg), "validate"), type(cfg).__name__


class TestSeedFanOut:
    def test_master_seed_derives_component_seeds(self):
        cfg = build_run_config({"run.seed": "7"})
        assert cfg.seed == 7
        assert cfg.scenario.rng_seed == derive_seed(7, "scenario")
        assert cfg.ppo.seed == derive_seed(7, "ppo")
        assert cfg.explain.seed == derive_seed(7, "explain")

    def test_component_seeds_differ_from_each_other(self):
        cfg = build_run_config({"run.seed": "7"})
        assert len({cfg.scenario.rng_seed, cfg.ppo.seed,
                    cfg.explain.seed}) == 3

    def test_explicit_component_seed_wins(self):
        cfg = build_run_config({"run.seed": "7", "ppo.seed": "123"})
        assert cfg.ppo.seed == 123
        assert cfg.scenario.rng_seed == derive_seed(7, "scenario")

    def test_seed_override_beats_file_value(self):
        cfg = build_run_config({"run.seed": "7"}, seed_override=9)
        assert cfg.seed == 9
        assert cfg.scenario.rng_seed == derive_seed(9, "scenario")

    def test_output_override(self):
        cfg = build_run_config({"run.output_dir": "runs/a"},
                               output_override="runs/b")
        assert cfg.output_dir == "runs/b"


class TestLoadRunConfig:
    def test_none_path_gives_defaults(self):
        assert load_run_config(None).seed == 0

    def test_reads_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("run.seed = 11\nppo.total_updates = 5\n")
        cfg = load_run_config(path)
        assert cfg.seed == 11
        assert cfg.ppo.total_updates == 5

    def test_missing_file_is_read_error(self, tmp_path):
        with pytest.raises(TableError, match="cannot read"):
            load_run_config(tmp_path / "nope.conf")

    @pytest.mark.parametrize("line, message", [
        ("ppo.total_updates = many", "bad value for ppo.total_updates: "),
        ("env.soc_min = 0.95", "env: need 0 < soc_min < soc_max <= 1"),
        ("ppo.nosuchfield = 1", "unknown config key 'ppo.nosuchfield'"),
        ("explain.top_k = 6", "unknown config key 'explain.top_k'"),
        ("run.checkpoint_every = 1",
         "unknown config key 'run.checkpoint_every'"),
        ('run.run_id = storm,"v2"', "run.run_id must not contain"),
        ("run.run_id = storm,v2", "run.run_id must not contain"),
        ('run.run_id = "v2"', "run.run_id must not contain"),
    ], ids=["bad-value", "bad-validation", "unknown-key", "removed-key",
            "removed-run-key", "run-id-comma-quote", "run-id-comma",
            "run-id-quote"])
    def test_error_names_the_file(self, tmp_path, line, message):
        path = tmp_path / "run.conf"
        path.write_text(f"run.seed = 1\n{line}\n")
        with pytest.raises(ConfigError) as exc:
            load_run_config(path)
        assert str(exc.value).startswith(f"{path}: {message}")


class TestConfigSummary:
    def test_lists_every_section(self):
        cfg = build_run_config({"run.seed": "4", "ppo.total_updates": "9"})
        text = config_summary(cfg)
        assert "run.seed = 4" in text
        assert "ppo.total_updates = 9" in text
        for prefix in ("scenario.", "env.", "ppo.", "explain."):
            assert prefix in text

    def test_reflects_derived_seeds(self):
        cfg = build_run_config({"run.seed": "4"})
        text = config_summary(cfg)
        assert f"scenario.rng_seed = {derive_seed(4, 'scenario')}" in text

    @pytest.mark.parametrize("text", [
        "",
        EVERY_KEY,
        EVERY_KEY + "env.init_soc_range = none\nppo.hidden_sizes = 8\n",
    ], ids=["defaults", "every-key", "every-key-none-one-layer"])
    def test_output_reads_back_as_the_same_config(self, text):
        cfg = build_run_config(parse_config_text(text))
        summary = config_summary(cfg)
        assert build_run_config(parse_config_text(summary)) == cfg
        assert len(parse_config_text(summary)) == 39

    def test_every_key_config_sets_every_key(self):
        entries = parse_config_text(EVERY_KEY)
        defaults = parse_config_text(config_summary(build_run_config({})))
        assert entries.keys() == defaults.keys()
        every = parse_config_text(
            config_summary(build_run_config(entries)))
        assert all(every[key] != defaults[key] for key in defaults)
