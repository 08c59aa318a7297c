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
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

import yaml

from .augmentation import GeneratorSpec, TAConfig
from .corpus import INPUT_FORMATS, LabelSpace, ValidationError, as_json, check_number
from .harness import ExperimentSpec
from .selftrain import SelfTrainConfig
from .synth import SynthSpec
from .textmodel import FeatureConfig, TrainConfig


class ConfigValidationError(ValidationError):
    """A malformed config document, override or command line; ``context`` says what is at fault."""

    def __init__(self, message: str, context: Optional[dict] = None):
        super().__init__(message)
        self.context = context or {}


def _defaults(
    cls, names: Optional[Sequence[str]] = None, skip: Sequence[str] = (), rename: Mapping[str, str] = {}
) -> dict:
    """Key -> default of the ``cls`` fields ``names`` (by default each field
    with a plain default, but ``skip``), as YAML reads them: ``as_json`` of
    the default, with an empty list as null (``sweep_ks: null`` spells no
    sweep). ``rename`` maps a field to its key."""
    defaults = {f.name: as_json(f.default) for f in fields(cls) if f.default is not MISSING}
    return {
        rename.get(name, name): None if defaults[name] == [] else defaults[name]
        for name in names or [n for n in defaults if n not in skip]
    }


# Section -> key -> default. ``...`` marks free-form mappings. A key that sets
# a config-class field takes its default from that field.
SCHEMA: dict[str, dict[str, Any]] = {
    "datasets": {
        "task_family": "keyword-sentiment",
        "task_name": None,
        "task_params": {},
        **_defaults(ExperimentSpec, ("train_partition_size", "test_size")),
        "input_path": None,
        "input_format": "jsonl",
        "label_classes": None,
        "label_lo": None,
        "label_hi": None,
        "ood_family": None,
        "ood_params": {},
    },
    "generator": _defaults(GeneratorSpec),
    "augmentation": _defaults(TAConfig),
    "model": {**_defaults(FeatureConfig), **_defaults(TrainConfig, skip=("seed",))},  # seed <- master_seed
    "self_training": {
        **_defaults(SelfTrainConfig, rename={"cf_batch": "batch"}),
        **_defaults(ExperimentSpec, ("pool_mode",)),
    },
    # ood_task is built from datasets.ood_family and ood_params.
    "experiment": _defaults(ExperimentSpec, skip=("train_partition_size", "test_size", "pool_mode", "ood_task")),
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
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigValidationError(
                f"config {path} is not UTF-8 text ({exc.reason} at byte {exc.start})", {"path": str(path)}
            ) from None
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


def _build(cls, section: Mapping, **converted):
    """``cls`` built from the keys of ``section`` named after its fields, with ``converted`` set over them."""
    names = {f.name for f in fields(cls)}
    return cls(**{**{key: value for key, value in section.items() if key in names}, **converted})


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
    orders = model["ngram_orders"]
    return _build(
        ExperimentSpec,
        {**ds, **st, **exp},
        arms=tuple(_checked_list("experiment.arms", exp["arms"])),
        task=SynthSpec(family=ds["task_family"], name=ds["task_name"], params=ds["task_params"]),
        feature_config=_build(FeatureConfig, model, ngram_orders=frozenset(_checked_list("model.ngram_orders", orders))),
        train_config=_build(TrainConfig, model, seed=exp["master_seed"]),
        st_config=_build(SelfTrainConfig, st, final_finetune_on_l=finetune, cf_batch=st["batch"]),
        ta_config=_build(TAConfig, aug, tau_grid=tuple(_checked_list("augmentation.tau_grid", aug["tau_grid"]))),
        generator=_build(GeneratorSpec, config["generator"]),
        ood_task=None if ds["ood_family"] is None else SynthSpec(family=ds["ood_family"], params=ds["ood_params"]),
        sweep_ks=tuple(exp["sweep_ks"] or ()),
    )
