"""Config schema, override, and builder tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfaug.config import (
    SCHEMA,
    ConfigValidationError,
    build_experiment_spec,
    load_config,
    parse_override,
    validate_config,
)
from selfaug.corpus import ValidationError
from selfaug.harness import ExperimentSpec
from selfaug.synth import SynthSpec
from selfaug.textmodel import init_params, train


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
        fc = build_experiment_spec(config).feature_config
        assert fc.hash_dim == 4096
        assert fc.ngram_orders == frozenset({1})

    def test_train_config_stopping_kinds(self):
        early = build_experiment_spec(validate_config({"model": {"stopping": "early_stop"}})).train_config
        assert early.stopping == "early_stop"
        fixed = build_experiment_spec(validate_config({"model": {"stopping": "fixed_steps"}})).train_config
        assert fixed.stopping == "fixed_steps"
        assert fixed.max_steps == 300
        with pytest.raises(ValidationError, match="unknown stopping kind"):
            build_experiment_spec(validate_config({"model": {"stopping": "whenever"}}))

    @pytest.mark.parametrize("key", ["fixed_total", "checkpoint_every"])
    def test_old_fixed_step_keys_are_unknown(self, key):
        """``max_steps`` and ``eval_every`` are the fixed-step budget and interval."""
        with pytest.raises(ConfigValidationError, match=f"unknown key model.{key}"):
            validate_config({"model": {key: 30}})

    def test_fixed_steps_run_the_max_steps_the_report_records(self, tiny_dataset):
        model = {"stopping": "fixed_steps", "max_steps": 90, "eval_every": 30, "average_last": 3}
        config = validate_config({"model": model})
        spec = build_experiment_spec(config)
        fc = spec.feature_config
        _, trace = train(init_params(tiny_dataset.label_space, fc), tiny_dataset, spec.train_config, feature_config=fc)
        assert [rec["step"] for rec in trace] == [30, 60, 90]
        assert spec.to_json()["train_config"]["max_steps"] == 90

    @pytest.mark.parametrize(
        "model",
        [
            {"learning_rate": -1}, {"learning_rate": 0}, {"learning_rate": float("nan")},
            {"learning_rate": float("inf")}, {"learning_rate": "abc"}, {"learning_rate": True},
            {"l2": -1}, {"l2": float("inf")}, {"l2": "abc"},
            {"lr_decay": -0.5}, {"lr_decay": float("nan")},
            {"batch_size": 0}, {"batch_size": 2.5}, {"batch_size": True}, {"batch_size": "abc"},
            {"max_steps": 0}, {"patience": 0}, {"patience": False}, {"eval_every": 0},
            {"stopping": "fixed_steps", "max_steps": 0},
            {"stopping": "fixed_steps", "max_steps": "abc"},
            {"stopping": "fixed_steps", "eval_every": 0},
            {"stopping": "fixed_steps", "eval_every": True},
            {"stopping": "fixed_steps", "average_last": 0},
        ],
    )
    def test_train_config_rejects_bad_numbers(self, model):
        with pytest.raises(ValidationError):
            build_experiment_spec(validate_config({"model": model}))

    @pytest.mark.parametrize("hash_dim", [0, "abc", True, 4096.0])
    def test_feature_config_rejects_bad_hash_dim(self, hash_dim):
        with pytest.raises(ValidationError):
            build_experiment_spec(validate_config({"model": {"hash_dim": hash_dim}}))

    def test_generator_spec(self):
        config = validate_config({"generator": {"samples_per_input": 7, "flip_rate": 0.5}})
        gen = build_experiment_spec(config).generator
        assert gen.samples_per_input == 7
        assert gen.flip_rate == 0.5

    def test_st_config_mode(self):
        config = validate_config(
            {"self_training": {"mode": "confidence_filtering", "batch": 16}}
        )
        st = build_experiment_spec(config).st_config
        assert st.mode == "confidence_filtering"
        assert st.cf_batch == 16

    def test_st_config_yaml_booleans_map_to_on_off(self):
        for value, expected in ((True, "on"), (False, "off")):
            config = validate_config({"self_training": {"final_finetune_on_l": value}})
            assert build_experiment_spec(config).st_config.final_finetune_on_l == expected

    def test_schema_defaults_match_the_dataclass_defaults(self):
        assert build_experiment_spec(validate_config({})) == ExperimentSpec(task=SynthSpec("keyword-sentiment"))

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
            # The CLI checks the out-of-domain source: selftrain reads it from --ood.
            {"self_training": {"pool_mode": "out_only"}}, {"self_training": {"pool_mode": "in_plus_out"}},
            {"augmentation": {"ta_pool_limit": 0}}, {"augmentation": {"tau": None}},
            {"augmentation": {"tau": 0}},
            {"self_training": {"agreement_threshold": 1}}, {"generator": {"flip_rate": 1}},
        ],
    )
    def test_experiment_spec_accepts_edge_values(self, config):
        build_experiment_spec(validate_config(config))

    def test_master_seed_propagates_to_train_config(self):
        config = validate_config({"experiment": {"master_seed": 41}})
        assert build_experiment_spec(config).train_config.seed == 41


# The keys that name the task file; every other key sets an ExperimentSpec field.
TASK_FILE_KEYS = {f"datasets.{key}" for key in ("input_path", "input_format", "label_classes", "label_lo", "label_hi")}
# Key -> (a valid value off its default, the keys both compared configs set
# beside it[, the keys only the changed config sets beside it]).
OFF_DEFAULT = {
    "datasets.task_family": ("pair-overlap-nli", {}),
    "datasets.task_name": ("named", {}),
    "datasets.task_params": ({"noise_rate": 0.3}, {}),
    "datasets.train_partition_size": (500, {}),
    "datasets.test_size": (100, {}),
    "datasets.ood_family": ("drifted-cluster", {}),
    "datasets.ood_params": ({"noise_rate": 0.3}, {"datasets.ood_family": "keyword-sentiment"}),
    # An external generator needs a command, which the rule-based one rejects.
    "generator.kind": ("external", {}, {"generator.command": "gen"}),
    "generator.command": ("gen2", {"generator.kind": "external", "generator.command": "gen"}),
    "generator.samples_per_input": (8, {}),
    "generator.flip_rate": (0.2, {}),
    "augmentation.tau": (0.7, {}),
    "augmentation.tau_grid": ([0.2, 0.5], {}),
    "augmentation.tau_budget": (50, {}),
    "augmentation.tau_source_limit": (10, {}),
    "augmentation.two_stage": (False, {}),
    "augmentation.include_original_aux": (False, {}),
    "augmentation.aux_train_size": (100, {}),
    "augmentation.aux_dev_size": (50, {}),
    "augmentation.ta_pool_limit": (0, {}),
    "model.ngram_orders": ([1], {}),
    "model.hash_dim": (1024, {}),
    "model.learning_rate": (0.2, {}),
    "model.batch_size": (16, {}),
    "model.max_steps": (100, {}),
    "model.l2": (0.01, {}),
    "model.lr_decay": (0.01, {}),
    "model.stopping": ("fixed_steps", {}),
    "model.eval_every": (10, {}),
    "model.patience": (15, {}),
    "model.average_last": (2, {}),
    "self_training.max_iterations": (5, {}),
    "self_training.agreement_threshold": (0.9, {}),
    "self_training.agreement_patience": (3, {}),
    "self_training.final_finetune_on_l": ("on", {}),
    "self_training.drop_lowest_confidence_fraction": (0.1, {}),
    "self_training.mode": ("confidence_filtering", {}),
    "self_training.batch": (16, {}),
    "self_training.pool_mode": ("out_only", {}),
    "experiment.arms": (["baseline", "st"], {}),
    "experiment.regime": ("full", {}),
    "experiment.k": (4, {}),
    "experiment.sweep_ks": ([4, 8], {}),
    "experiment.restarts": (3, {}),
    "experiment.metric": ("f1:pos", {}),
    # The dev-free protocol forbids early stopping and fine-tuning chosen by dev.
    "experiment.dev_mode": ("dev_free", {"model.stopping": "fixed_steps", "self_training.final_finetune_on_l": "on"}),
    "experiment.master_seed": (5, {}),
    "experiment.resample_dev": (False, {}),
    "experiment.top3_aggregate": (True, {}),
}


def _spec_json(settings: dict) -> dict:
    raw: dict = {}
    for target, value in settings.items():
        section, key = target.split(".")
        raw.setdefault(section, {})[key] = value
    return build_experiment_spec(validate_config(raw)).to_json()


class TestReportRecordsEverySetting:
    def test_each_key_that_sets_a_spec_field_has_an_off_default_value(self):
        keys = {f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys}
        assert keys - TASK_FILE_KEYS == set(OFF_DEFAULT)

    @pytest.mark.parametrize("target", sorted(OFF_DEFAULT))
    def test_an_off_default_value_moves_the_spec_json(self, target):
        value, base, *also = OFF_DEFAULT[target]
        assert _spec_json({**base, target: value, **(also[0] if also else {})}) != _spec_json(base)
