"""Config schema, override, and builder tests."""

import pytest

from selfaug.config import (
    ConfigValidationError,
    build_experiment_spec,
    build_feature_config,
    build_generator_spec,
    build_st_config,
    build_train_config,
    load_config,
    parse_override,
    validate_config,
)
from selfaug.textmodel import EarlyStop, FixedSteps


class TestValidate:
    def test_empty_document_gets_defaults(self):
        config = validate_config({})
        assert config["model"]["hash_dim"] == 65536
        assert config["experiment"]["regime"] == "few_shot"
        assert config["self_training"]["agreement_threshold"] == 0.999

    def test_unknown_section_with_suggestion(self):
        with pytest.raises(ConfigValidationError, match="did you mean 'model'"):
            validate_config({"modle": {}})

    def test_unknown_key_with_suggestion(self):
        with pytest.raises(ConfigValidationError, match="did you mean 'hash_dim'"):
            validate_config({"model": {"hash_dims": 64}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigValidationError):
            validate_config([1, 2, 3])
        with pytest.raises(ConfigValidationError):
            validate_config({"model": 7})

    def test_env_interpolation(self, monkeypatch):
        monkeypatch.setenv("DATA_ROOT", "/tmp/data")
        config = validate_config({"datasets": {"input_path": "$DATA_ROOT/a.jsonl"}})
        assert config["datasets"]["input_path"] == "/tmp/data/a.jsonl"


class TestOverrides:
    def test_parse_override_yaml_values(self):
        assert parse_override("model.hash_dim=1024") == ("model", "hash_dim", 1024)
        assert parse_override("experiment.arms=[baseline, st]") == (
            "experiment", "arms", ["baseline", "st"],
        )
        assert parse_override("augmentation.tau=null") == ("augmentation", "tau", None)

    def test_malformed_override(self):
        with pytest.raises(ConfigValidationError):
            parse_override("no-equals-sign")
        with pytest.raises(ConfigValidationError):
            parse_override("nodot=3")

    def test_load_config_applies_overrides(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("model:\n  hash_dim: 4096\n", encoding="utf-8")
        config = load_config(path, overrides=["model.hash_dim=8192"], seed=77)
        assert config["model"]["hash_dim"] == 8192
        assert config["experiment"]["master_seed"] == 77

    def test_override_validated(self):
        with pytest.raises(ConfigValidationError):
            load_config(overrides=["model.bogus=1"])


class TestBuilders:
    def test_feature_config(self):
        config = validate_config({"model": {"hash_dim": 4096, "ngram_orders": [1]}})
        fc = build_feature_config(config)
        assert fc.hash_dim == 4096
        assert fc.ngram_orders == frozenset({1})

    def test_train_config_stopping_kinds(self):
        early = build_train_config(validate_config({"model": {"stopping": "early_stop"}}))
        assert isinstance(early.stopping, EarlyStop)
        fixed = build_train_config(validate_config({"model": {"stopping": "fixed_steps"}}))
        assert isinstance(fixed.stopping, FixedSteps)
        assert fixed.stopping.total == 512
        with pytest.raises(ConfigValidationError):
            build_train_config(validate_config({"model": {"stopping": "whenever"}}))

    def test_generator_spec(self):
        config = validate_config({"generator": {"samples_per_input": 7, "flip_rate": 0.5}})
        gen = build_generator_spec(config)
        assert gen.samples_per_input == 7
        assert gen.flip_rate == 0.5

    def test_st_config_mode(self):
        config = validate_config(
            {"self_training": {"mode": "confidence_filtering", "batch": 16}}
        )
        st = build_st_config(config)
        assert st.mode == "confidence_filtering"
        assert st.cf_batch == 16

    def test_st_config_yaml_booleans_map_to_on_off(self):
        for value, expected in ((True, "on"), (False, "off")):
            config = validate_config({"self_training": {"final_finetune_on_l": value}})
            assert build_st_config(config).final_finetune_on_l == expected

    def test_full_experiment_spec(self):
        config = validate_config(
            {
                "experiment": {"arms": ["baseline", "st"], "restarts": 3, "k": 4},
                "datasets": {"task_family": "drifted-cluster", "ood_family": "keyword-sentiment"},
            }
        )
        spec = build_experiment_spec(config)
        assert spec.arms == ("baseline", "st")
        assert spec.task.family == "drifted-cluster"
        assert spec.ood_task.family == "keyword-sentiment"
        assert spec.restarts == 3

    def test_master_seed_propagates_to_train_config(self):
        config = validate_config({"experiment": {"master_seed": 41}})
        assert build_train_config(config).seed == 41
