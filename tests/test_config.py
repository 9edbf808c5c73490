import pytest

from mgrl.config import (
    ConfigError,
    build_run_config,
    config_summary,
    load_run_config,
    parse_config_text,
)
from mgrl.seeding import derive_seed
from mgrl.table import TableError

# Non-finite values that each section's own validation lets through: NaN
# fails every comparison, and inf passes "positive" and "non-negative".
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

    def test_component_validation_becomes_config_error(self):
        with pytest.raises(ConfigError):
            build_run_config({"env.soc_min": "0.95"})  # above soc_max
        with pytest.raises(ConfigError):
            build_run_config({"run.checkpoint_every": "-1"})
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

    def test_zero_lowest_reward_weight_accepted(self):
        cfg = build_run_config({"env.reward_weights": "2, 1, 0"})
        assert cfg.env.reward_weights == (2.0, 1.0, 0.0)


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
