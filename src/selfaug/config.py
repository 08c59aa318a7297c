"""Declarative config files: schema, validation, and object construction.

A config is a YAML/JSON document with fixed sections. Unknown keys are
rejected (with a nearest-key suggestion), every field has a default, and
string values get environment-variable interpolation so paths can be
parameterized.
"""

from __future__ import annotations

import difflib
import math
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

import yaml

from .augmentation import GeneratorSpec, TAConfig
from .corpus import INPUT_FORMATS, LabelSpace, ValidationError, check_number
from .harness import ExperimentSpec
from .selftrain import SelfTrainConfig
from .synth import SynthSpec
from .textmodel import FeatureConfig, TrainConfig


class ConfigValidationError(ValidationError):
    """A malformed config document, override or command line; ``context`` says what is at fault."""

    def __init__(self, message: str, context: Optional[dict] = None):
        super().__init__(message)
        self.context = context or {}


# Section -> key -> default. ``...`` marks free-form mappings.
SCHEMA: dict[str, dict[str, Any]] = {
    "datasets": {
        "task_family": "keyword-sentiment",
        "task_name": None,
        "task_params": {},
        "train_partition_size": 1000,
        "test_size": 500,
        "input_path": None,
        "input_format": "jsonl",
        "label_classes": None,
        "label_lo": None,
        "label_hi": None,
        "ood_family": None,
        "ood_params": {},
    },
    "generator": {
        "kind": "rule_based",
        "samples_per_input": 4,
        "flip_rate": 0.0,
        "command": None,
    },
    "augmentation": {
        "tau": 0.5,
        "tau_grid": [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "tau_budget": 100,
        "tau_source_limit": 40,
        "two_stage": True,
        "include_original_aux": True,
        "aux_train_size": 400,
        "aux_dev_size": 120,
        "ta_pool_limit": 150,
    },
    "model": {
        "hash_dim": 65536,
        "ngram_orders": [1, 2],
        "learning_rate": 0.1,
        "batch_size": 32,
        "max_steps": 300,
        "l2": 1e-4,
        "lr_decay": 0.0,
        "stopping": "early_stop",
        "patience": 5,
        "eval_every": 20,
        "average_last": 5,
    },
    "self_training": {
        "max_iterations": 30,
        "agreement_threshold": 0.999,
        "agreement_patience": 2,
        "final_finetune_on_l": "auto_by_dev",
        "drop_lowest_confidence_fraction": 0.0,
        "mode": "broad",
        "batch": 32,
        "pool_mode": "in_only",
    },
    "experiment": {
        "arms": ["baseline"],
        "regime": "few_shot",
        "k": 8,
        "restarts": 10,
        "metric": "accuracy",
        "dev_mode": "with_dev",
        "master_seed": 0,
        "resample_dev": True,
        "top3_aggregate": False,
        "sweep_ks": None,
    },
}

def _suggest(key: str, valid: Sequence[str]) -> str:
    close = difflib.get_close_matches(key, valid, n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _interpolate(value):
    if isinstance(value, str):
        return os.path.expandvars(value)
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    return value


def validate_config(raw: Mapping) -> dict:
    """Check a raw document against the schema and fill in defaults."""
    if not isinstance(raw, Mapping):
        raise ConfigValidationError("config document must be a mapping")
    for section in raw:
        if section not in SCHEMA:
            raise ConfigValidationError(
                f"unknown config section {section!r}{_suggest(section, list(SCHEMA))}",
                {"section": section},
            )
        if not isinstance(raw[section], Mapping):
            raise ConfigValidationError(f"section {section!r} must be a mapping")
        for key in raw[section]:
            if key not in SCHEMA[section]:
                raise ConfigValidationError(
                    f"unknown key {section}.{key}{_suggest(key, list(SCHEMA[section]))}",
                    {"section": section, "key": key},
                )
    config = {}
    for section, keys in SCHEMA.items():
        config[section] = {}
        for key, default in keys.items():
            value = raw.get(section, {}).get(key, default)
            config[section][key] = _interpolate(value)
    return config


def _load_yaml(text: str, what: str) -> Any:
    """``yaml.safe_load`` that raises every parse failure as ConfigValidationError."""
    try:
        return yaml.safe_load(text)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # ValueError: a date with month 13
        raise ConfigValidationError(f"{what} is not valid YAML: {' '.join(str(exc).split())}") from None


def parse_override(expr: str) -> tuple[str, str, Any]:
    """Parse a ``section.key=value`` override; values are YAML literals."""
    if "=" not in expr:
        raise ConfigValidationError(f"override {expr!r} must look like section.key=value")
    target, _, value = expr.partition("=")
    if "." not in target:
        raise ConfigValidationError(f"override target {target!r} must be section.key")
    section, _, key = target.partition(".")
    return section, key, _load_yaml(value, f"override {target!r} value")


def load_config(
    path: Optional[Union[str, Path]] = None,
    overrides: Sequence[str] = (),
    seed: Optional[int] = None,
) -> dict:
    raw: dict = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        loaded = _load_yaml(text, f"config {path}")
        raw = loaded if loaded is not None else {}
    for expr in overrides:
        section, key, value = parse_override(expr)
        raw.setdefault(section, {})[key] = value
    if seed is not None:
        raw.setdefault("experiment", {})["master_seed"] = seed
    return validate_config(raw)


# ---------------------------------------------------------------------------
# Object construction
# ---------------------------------------------------------------------------


def _checked_list(name: str, value) -> list:
    """``value``, checked to be a list."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return value


def build_task_space(config: Mapping) -> Optional[LabelSpace]:
    """The label space of the task file ``datasets.input_path``; None when no file is set."""
    ds = config["datasets"]
    if ds["input_format"] not in INPUT_FORMATS:
        raise ValidationError(f"unknown datasets.input_format {ds['input_format']!r}; valid: {INPUT_FORMATS}")
    if not ds["input_path"]:
        for key in ("label_classes", "label_lo", "label_hi"):
            if ds[key] is not None:
                raise ValidationError(f"datasets.{key} must be null without datasets.input_path, got {ds[key]!r}")
        return None
    if not isinstance(ds["input_path"], str):
        raise ValidationError(f"datasets.input_path must be a path, got {ds['input_path']!r}")
    if ds["label_classes"] is not None:
        return LabelSpace.categorical(_checked_list("datasets.label_classes", ds["label_classes"]))
    if ds["label_lo"] is None or ds["label_hi"] is None:
        raise ConfigValidationError("datasets.input_path needs label_classes or label_lo/label_hi")
    for key in ("label_lo", "label_hi"):
        check_number(f"datasets.{key}", ds[key], lo=-math.inf)
    return LabelSpace.continuous(ds["label_lo"], ds["label_hi"])


def build_experiment_spec(config: Mapping) -> ExperimentSpec:
    """The experiment spec of a validated config, with every config object it holds.

    Each object checks itself when it is built, so building the spec checks
    every key but the task file's (``build_task_space``).
    """
    ds, aug, model, st, exp = (
        config[section] for section in ("datasets", "augmentation", "model", "self_training", "experiment")
    )
    finetune = st["final_finetune_on_l"]
    if isinstance(finetune, bool):  # YAML reads a bare on/off as a boolean
        finetune = "on" if finetune else "off"
    if ds["ood_family"] is None and ds["ood_params"] != {}:
        raise ValidationError(
            f"datasets.ood_params must be empty without datasets.ood_family, got {ds['ood_params']!r}"
        )
    if exp["sweep_ks"] is not None and not isinstance(exp["sweep_ks"], list):
        raise ValidationError(f"sweep ks must be a list of integers, got {exp['sweep_ks']!r}")
    train_keys = (
        "learning_rate", "batch_size", "max_steps", "l2", "lr_decay",
        "stopping", "eval_every", "patience", "average_last",
    )
    return ExperimentSpec(
        arms=tuple(_checked_list("experiment.arms", exp["arms"])),
        task=SynthSpec(family=ds["task_family"], name=ds["task_name"], params=ds["task_params"]),
        regime=exp["regime"],
        k=exp["k"],
        restarts=exp["restarts"],
        metric=exp["metric"],
        dev_mode=exp["dev_mode"],
        master_seed=exp["master_seed"],
        train_partition_size=ds["train_partition_size"],
        test_size=ds["test_size"],
        resample_dev=exp["resample_dev"],
        top3_aggregate=exp["top3_aggregate"],
        feature_config=FeatureConfig(
            ngram_orders=frozenset(_checked_list("model.ngram_orders", model["ngram_orders"])),
            hash_dim=model["hash_dim"],
        ),
        train_config=TrainConfig(seed=exp["master_seed"], **{key: model[key] for key in train_keys}),
        st_config=SelfTrainConfig(
            max_iterations=st["max_iterations"],
            agreement_threshold=st["agreement_threshold"],
            agreement_patience=st["agreement_patience"],
            final_finetune_on_l=finetune,
            drop_lowest_confidence_fraction=st["drop_lowest_confidence_fraction"],
            mode=st["mode"],
            cf_batch=st["batch"],
        ),
        ta_config=TAConfig(**{**aug, "tau_grid": tuple(_checked_list("augmentation.tau_grid", aug["tau_grid"]))}),
        generator=GeneratorSpec(**config["generator"]),
        ood_task=None if ds["ood_family"] is None else SynthSpec(family=ds["ood_family"], params=ds["ood_params"]),
        pool_mode=st["pool_mode"],
        sweep_ks=tuple(exp["sweep_ks"] or ()),
    )
