"""Declarative config files: schema, validation, and object construction.

A config is a YAML/JSON document with fixed sections. Unknown keys are
rejected (with a nearest-key suggestion), every field has a default, and
string values get environment-variable interpolation so paths can be
parameterized.
"""

from __future__ import annotations

import difflib
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

import yaml

from .augmentation import GeneratorSpec, TAConfig
from .harness import ExperimentSpec
from .selftrain import SelfTrainConfig
from .synth import SynthSpec
from .textmodel import EarlyStop, FeatureConfig, FixedSteps, TrainConfig


class ConfigValidationError(Exception):
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
        "fixed_total": 512,
        "checkpoint_every": 30,
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

_FREEFORM_KEYS = {("datasets", "task_params"), ("datasets", "ood_params")}


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


def build_feature_config(config: Mapping) -> FeatureConfig:
    model = config["model"]
    return FeatureConfig(
        ngram_orders=frozenset(model["ngram_orders"]), hash_dim=model["hash_dim"]
    )


def build_train_config(config: Mapping) -> TrainConfig:
    model = config["model"]
    if model["stopping"] == "early_stop":
        stopping = EarlyStop(patience=model["patience"], eval_every=model["eval_every"])
    elif model["stopping"] == "fixed_steps":
        stopping = FixedSteps(
            total=model["fixed_total"],
            checkpoint_every=model["checkpoint_every"],
            average_last=model["average_last"],
        )
    else:
        raise ConfigValidationError(f"unknown stopping kind {model['stopping']!r}")
    return TrainConfig(
        learning_rate=model["learning_rate"],
        batch_size=model["batch_size"],
        max_steps=model["max_steps"],
        l2=model["l2"],
        seed=config["experiment"]["master_seed"],
        lr_decay=model["lr_decay"],
        stopping=stopping,
    )


def build_generator_spec(config: Mapping) -> GeneratorSpec:
    gen = config["generator"]
    return GeneratorSpec(
        kind=gen["kind"],
        samples_per_input=gen["samples_per_input"],
        flip_rate=gen["flip_rate"],
        command=gen["command"],
    )


def build_ta_config(config: Mapping) -> TAConfig:
    aug = config["augmentation"]
    return TAConfig(
        tau_grid=tuple(aug["tau_grid"]),
        two_stage=aug["two_stage"],
        include_original_aux=aug["include_original_aux"],
    )


def build_st_config(config: Mapping) -> SelfTrainConfig:
    st = config["self_training"]
    finetune = st["final_finetune_on_l"]
    if isinstance(finetune, bool):  # YAML reads a bare on/off as a boolean
        finetune = "on" if finetune else "off"
    return SelfTrainConfig(
        max_iterations=st["max_iterations"],
        agreement_threshold=st["agreement_threshold"],
        agreement_patience=st["agreement_patience"],
        final_finetune_on_l=finetune,
        drop_lowest_confidence_fraction=st["drop_lowest_confidence_fraction"],
        mode=st["mode"],
        cf_batch=st["batch"],
    )


def build_task_spec(config: Mapping) -> SynthSpec:
    ds = config["datasets"]
    return SynthSpec(
        family=ds["task_family"], name=ds["task_name"], params=dict(ds["task_params"])
    )


def build_ood_spec(config: Mapping) -> Optional[SynthSpec]:
    ds = config["datasets"]
    if ds["ood_family"] is None:
        return None
    return SynthSpec(family=ds["ood_family"], params=dict(ds["ood_params"]))


def build_experiment_spec(config: Mapping) -> ExperimentSpec:
    ds, aug, exp, st = (
        config["datasets"], config["augmentation"], config["experiment"],
        config["self_training"],
    )
    return ExperimentSpec(
        task=build_task_spec(config),
        arms=tuple(exp["arms"]),
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
        feature_config=build_feature_config(config),
        train_config=build_train_config(config),
        st_config=build_st_config(config),
        ta_config=build_ta_config(config),
        generator=build_generator_spec(config),
        aux_train_size=aug["aux_train_size"],
        aux_dev_size=aug["aux_dev_size"],
        tau=aug["tau"],
        tau_budget=aug["tau_budget"],
        tau_source_limit=aug["tau_source_limit"],
        ta_pool_limit=aug["ta_pool_limit"],
        ood_task=build_ood_spec(config),
        pool_mode=st["pool_mode"],
    )
