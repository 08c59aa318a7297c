"""Config schema, override, and builder tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfaug.config import (
    ConfigValidationError,
    build_experiment_spec,
    build_feature_config,
    build_generator_spec,
    build_st_config,
    build_ta_config,
    build_train_config,
    load_config,
    parse_override,
    validate_config,
)
from selfaug.augmentation import GeneratorSpec, TAConfig
from selfaug.corpus import ValidationError
from selfaug.harness import ExperimentSpec
from selfaug.selftrain import SelfTrainConfig
from selfaug.synth import SynthSpec
from selfaug.textmodel import EarlyStop, FeatureConfig, FixedSteps, TrainConfig


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

    @settings(max_examples=300, deadline=None)
    @given(
        expr=st.text(max_size=30)
        | st.builds("model.k={}".format, st.text(alphabet="[]{}:,'\"!&*|>-?#%@` \n\t019aZ.", max_size=20))
    )
    @example(expr="model.k=[")
    @example(expr="model.k=2001-13-45")
    @example(expr="model.k=!!python/object:os.system")
    @example(expr="model.k=" + "[" * 5000)
    def test_parse_override_raises_only_config_errors(self, expr):
        """The CLI maps ConfigValidationError to exit 1; anything else would exit 3."""
        try:
            parse_override(expr)
        except ConfigValidationError:
            pass

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("model: [hash_dim\n", encoding="utf-8")
        with pytest.raises(ConfigValidationError, match="not valid YAML"):
            load_config(path)

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

    @pytest.mark.parametrize(
        "model",
        [
            {"learning_rate": -1}, {"learning_rate": 0}, {"learning_rate": float("nan")},
            {"learning_rate": float("inf")}, {"learning_rate": "abc"}, {"learning_rate": True},
            {"l2": -1}, {"l2": float("inf")}, {"l2": "abc"},
            {"lr_decay": -0.5}, {"lr_decay": float("nan")},
            {"batch_size": 0}, {"batch_size": 2.5}, {"batch_size": True}, {"batch_size": "abc"},
            {"max_steps": 0}, {"patience": 0}, {"patience": False}, {"eval_every": 0},
            {"stopping": "fixed_steps", "fixed_total": 0},
            {"stopping": "fixed_steps", "fixed_total": "abc"},
            {"stopping": "fixed_steps", "checkpoint_every": 0},
            {"stopping": "fixed_steps", "checkpoint_every": True},
            {"stopping": "fixed_steps", "average_last": 0},
        ],
    )
    def test_train_config_rejects_bad_numbers(self, model):
        with pytest.raises(ValidationError):
            build_train_config(validate_config({"model": model}))

    @pytest.mark.parametrize("hash_dim", [0, "abc", True, 4096.0])
    def test_feature_config_rejects_bad_hash_dim(self, hash_dim):
        with pytest.raises(ValidationError):
            build_feature_config(validate_config({"model": {"hash_dim": hash_dim}}))

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

    def test_schema_defaults_match_the_dataclass_defaults(self):
        assert build_experiment_spec(validate_config({})) == ExperimentSpec(task=SynthSpec("keyword-sentiment"))

    @pytest.mark.parametrize(
        "build, cls",
        [
            (build_feature_config, FeatureConfig),
            (build_train_config, TrainConfig),
            (build_st_config, SelfTrainConfig),
            (build_ta_config, TAConfig),
            (build_generator_spec, GeneratorSpec),
        ],
    )
    def test_each_builder_on_the_schema_defaults_gives_its_class_default(self, build, cls):
        assert build(load_config()) == cls()

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

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": {"metric": "bogus"}}, {"experiment": {"metric": "f1"}},
            {"experiment": {"metric": "f1:"}}, {"experiment": {"metric": 5}},
            {"experiment": {"regime": "bogus"}},
            {"self_training": {"pool_mode": "bogus"}},
            {"self_training": {"pool_mode": "bogus"}, "datasets": {"ood_family": "keyword-sentiment"}},
            {"self_training": {"pool_mode": "out_only"}},
            {"self_training": {"pool_mode": "in_plus_out"}},
            {"experiment": {"k": 0}}, {"experiment": {"k": 1.5}}, {"experiment": {"k": True}},
            {"experiment": {"restarts": 0}}, {"experiment": {"restarts": 1.5}},
            {"experiment": {"restarts": True}}, {"experiment": {"restarts": "abc"}},
            {"datasets": {"train_partition_size": 0}}, {"datasets": {"test_size": -1}},
            {"augmentation": {"aux_train_size": 0}}, {"augmentation": {"aux_dev_size": 2.0}},
            {"augmentation": {"tau_budget": 0}}, {"augmentation": {"tau_source_limit": False}},
            {"augmentation": {"ta_pool_limit": -3}}, {"augmentation": {"ta_pool_limit": 1.5}},
            {"augmentation": {"ta_pool_limit": True}},
            {"augmentation": {"tau": 1.0}}, {"augmentation": {"tau": -0.1}},
            {"augmentation": {"tau": float("nan")}}, {"augmentation": {"tau": float("inf")}},
            {"augmentation": {"tau": "abc"}}, {"augmentation": {"tau": True}},
            {"self_training": {"max_iterations": 1.5}}, {"self_training": {"max_iterations": True}},
            {"self_training": {"max_iterations": "abc"}},
            {"self_training": {"agreement_patience": 0}}, {"self_training": {"agreement_patience": -1}},
            {"self_training": {"agreement_threshold": "abc"}},
            {"self_training": {"agreement_threshold": float("nan")}},
            {"self_training": {"agreement_threshold": 2}},
            {"self_training": {"batch": 1.5}}, {"self_training": {"batch": True}},
            {"self_training": {"drop_lowest_confidence_fraction": "abc"}},
            {"generator": {"samples_per_input": 1.5}}, {"generator": {"samples_per_input": "abc"}},
            {"generator": {"flip_rate": 2}}, {"generator": {"flip_rate": -1}},
            {"generator": {"flip_rate": float("nan")}}, {"generator": {"flip_rate": "abc"}},
            {"model": {"ngram_orders": [0]}}, {"model": {"ngram_orders": [-1]}},
            {"model": {"ngram_orders": ["a"]}}, {"model": {"ngram_orders": 3}},
            {"augmentation": {"two_stage": "maybe"}},
            {"augmentation": {"tau_grid": ["a"]}}, {"augmentation": {"tau_grid": "abc"}},
            {"experiment": {"resample_dev": "maybe"}}, {"experiment": {"top3_aggregate": 3}},
        ],
    )
    def test_experiment_spec_rejects_bad_values(self, config):
        with pytest.raises(ValidationError):
            build_experiment_spec(validate_config(config))

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": {"metric": "f1:pos"}}, {"experiment": {"regime": "full"}},
            {"self_training": {"pool_mode": "out_only"}, "datasets": {"ood_family": "keyword-sentiment"}},
            {"augmentation": {"ta_pool_limit": 0}}, {"augmentation": {"tau": None}},
            {"augmentation": {"tau": 0}},
            {"self_training": {"agreement_threshold": 1}}, {"generator": {"flip_rate": 1}},
        ],
    )
    def test_experiment_spec_accepts_edge_values(self, config):
        build_experiment_spec(validate_config(config))

    def test_master_seed_propagates_to_train_config(self):
        config = validate_config({"experiment": {"master_seed": 41}})
        assert build_train_config(config).seed == 41
