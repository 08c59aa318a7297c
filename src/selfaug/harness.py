"""Experiment runner: restarts, regimes, method arms, sweeps, reporting.

Every run is a pure function of the experiment spec's master seed: restart
seeds are derived by stable hashing, arms within a restart observe identical
splits, and reports serialize canonically (timing lives in a separate
structure so artifacts stay byte-reproducible).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from .augmentation import (
    AugmentedExample,
    GeneratorSpec,
    TAConfig,
    build_ta_examples,
    intermediate_finetune,
    select_tau,
    swap_head,
    ta_examples_to_dataset,
)
from .corpus import (
    Dataset,
    Example,
    LabelSpace,
    RegimeSplit,
    UnlabeledPool,
    ValidationError,
    sample_regime,
    strip_labels,
)
from .selftrain import SelfTrainConfig, SelfTrainResult, mix_pools, self_train
from .synth import NLI_CLASSES, SynthSpec, synth_corpus
from .textmodel import (
    EarlyStop,
    FeatureConfig,
    ModelParams,
    TrainConfig,
    evaluate,
    fixed_steps,
    init_params,
    train,
)

ARM_NAMES = ("baseline", "itft", "ta", "st", "ta-st", "cf-st")


class HarnessError(Exception):
    pass


class CoverageError(HarnessError):
    """A labeling-accuracy series was requested but gold labels were missing."""


def derive_seed(master_seed: int, *parts) -> int:
    """Stable, collision-resistant seed derivation."""
    key = ":".join([str(master_seed), *map(str, parts)])
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2 ** 63)


@dataclass(frozen=True)
class ExperimentSpec:
    task: SynthSpec
    arms: tuple[str, ...] = ("baseline",)
    regime: str = "few_shot"
    k: int = 8
    restarts: int = 10
    metric: str = "accuracy"
    dev_mode: str = "with_dev"  # "with_dev" | "dev_free"
    master_seed: int = 0
    train_partition_size: int = 1000
    test_size: int = 500
    resample_dev: bool = True
    top3_aggregate: bool = False
    feature_config: FeatureConfig = field(default_factory=lambda: FeatureConfig(hash_dim=2 ** 16))
    train_config: TrainConfig = field(default_factory=TrainConfig)
    st_config: SelfTrainConfig = field(default_factory=SelfTrainConfig)
    ta_config: TAConfig = field(default_factory=TAConfig)
    generator: GeneratorSpec = field(default_factory=lambda: GeneratorSpec(samples_per_input=4))
    aux_train_size: int = 400
    aux_dev_size: int = 120
    tau: Optional[float] = 0.5  # None selects tau on the auxiliary dev set
    tau_budget: int = 100
    tau_source_limit: int = 40
    ta_pool_limit: int = 150
    ood_task: Optional[SynthSpec] = None
    pool_mode: str = "in_only"  # "in_only" | "out_only" | "in_plus_out"

    def __post_init__(self):
        if not self.arms:
            raise ValidationError("experiment needs at least one arm")
        unknown = [a for a in self.arms if a not in ARM_NAMES]
        if unknown:
            raise ValidationError(f"unknown arms {unknown}; valid: {ARM_NAMES}")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.dev_mode not in ("with_dev", "dev_free"):
            raise ValidationError(f"unknown dev_mode {self.dev_mode!r}")
        if self.dev_mode == "dev_free":
            if isinstance(self.train_config.stopping, EarlyStop):
                raise ValidationError("dev_free mode forbids early stopping")
            if self.st_config.final_finetune_on_l == "auto_by_dev":
                raise ValidationError(
                    "dev_free mode requires final_finetune_on_l to be 'on' or 'off'"
                )

    def to_json(self) -> dict:
        def spec_json(s: Optional[SynthSpec]):
            if s is None:
                return None
            return {"family": s.family, "name": s.name, "params": dict(s.params)}

        return {
            "task": spec_json(self.task),
            "arms": list(self.arms),
            "regime": self.regime,
            "k": self.k,
            "restarts": self.restarts,
            "metric": self.metric,
            "dev_mode": self.dev_mode,
            "master_seed": self.master_seed,
            "train_partition_size": self.train_partition_size,
            "test_size": self.test_size,
            "resample_dev": self.resample_dev,
            "top3_aggregate": self.top3_aggregate,
            "hash_dim": self.feature_config.hash_dim,
            "ngram_orders": sorted(self.feature_config.ngram_orders),
            "learning_rate": self.train_config.learning_rate,
            "batch_size": self.train_config.batch_size,
            "max_steps": self.train_config.max_steps,
            "l2": self.train_config.l2,
            "st": self.st_config.to_json(),
            "tau": self.tau,
            "ood_task": spec_json(self.ood_task),
            "pool_mode": self.pool_mode,
        }


@dataclass
class RunReport:
    spec: ExperimentSpec
    scores: dict[str, list[Optional[float]]]
    errors: dict[str, list[str]]
    series: dict[str, list[list[dict]]]
    partial: bool = False
    timing: dict[str, float] = field(default_factory=dict)

    def aggregates(self) -> dict[str, dict[str, float]]:
        out = {}
        for arm, arm_scores in self.scores.items():
            valid = [s for s in arm_scores if s is not None]
            if not valid:
                continue
            entry = {
                "mean": float(np.mean(valid)),
                "std": float(np.std(valid)),  # population std, matching the reports
            }
            if self.spec.top3_aggregate:
                entry["top3_mean"] = float(np.mean(sorted(valid, reverse=True)[:3]))
            out[arm] = entry
        return out

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "spec": self.spec.to_json(),
            "scores": self.scores,
            "aggregates": self.aggregates(),
            "errors": self.errors,
            "series": self.series,
            "partial": self.partial,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def scores_csv(self) -> str:
        lines = ["arm,restart,score"]
        for arm in self.spec.arms:
            for r, s in enumerate(self.scores.get(arm, [])):
                lines.append(f"{arm},{r},{'' if s is None else repr(s)}")
        return "\n".join(lines) + "\n"

    def aggregate_csv(self) -> str:
        lines = ["arm,mean,std"]
        agg = self.aggregates()
        for arm in self.spec.arms:
            if arm in agg:
                lines.append(f"{arm},{agg[arm]['mean']!r},{agg[arm]['std']!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Arm pipelines
# ---------------------------------------------------------------------------


@dataclass
class AuxArtifacts:
    """Per-experiment auxiliary-task assets, shared across restarts."""

    aux_train: Dataset
    aux_dev: Dataset
    classifier: ModelParams
    tau: float


def build_aux_artifacts(spec: ExperimentSpec) -> AuxArtifacts:
    """Synthesize the auxiliary NLI sets, train their classifier, settle tau."""
    aux_seed = derive_seed(spec.master_seed, "aux")
    aux_train = synth_corpus(
        SynthSpec("pair-overlap-nli", name="aux-train"), spec.aux_train_size, aux_seed
    )
    aux_dev = synth_corpus(
        SynthSpec("pair-overlap-nli", name="aux-dev"), spec.aux_dev_size, aux_seed + 1
    )
    clf_init = init_params(aux_train.label_space, spec.feature_config)
    clf_config = replace(spec.train_config, seed=derive_seed(spec.master_seed, "aux-clf"))
    classifier, _ = train(
        clf_init,
        aux_train,
        fixed_steps(clf_config, clf_config.max_steps),
        feature_config=spec.feature_config,
    )
    if spec.tau is not None:
        tau = spec.tau
    else:
        sources = tuple(
            Example(id=f"tau-src:{i}", segment_a=ex.segment_a)
            for i, ex in enumerate(aux_dev.examples[: spec.tau_source_limit])
        )
        tau = select_tau(
            classifier,
            spec.generator,
            aux_dev,
            list(spec.ta_config.tau_grid),
            spec.tau_budget,
            derive_seed(spec.master_seed, "tau"),
            pool=UnlabeledPool("tau-sources", sources),
            feature_config=spec.feature_config,
            train_config=spec.train_config,
        )
    return AuxArtifacts(aux_train=aux_train, aux_dev=aux_dev, classifier=classifier, tau=tau)


def build_ta_base_model(
    spec: ExperimentSpec,
    aux: AuxArtifacts,
    pool: UnlabeledPool,
    target_space: LabelSpace,
    seed: int,
) -> tuple[list[AugmentedExample], ModelParams]:
    """Task-augment the first ``ta_pool_limit`` pool sentences, then intermediate-fine-tune."""
    if spec.ta_pool_limit and len(pool) > spec.ta_pool_limit:
        pool = UnlabeledPool(pool.source_name, pool.examples[: spec.ta_pool_limit])
    labels = list(NLI_CLASSES)
    entries = build_ta_examples(
        pool, spec.generator, aux.classifier, aux.tau, labels, seed,
        feature_config=spec.feature_config,
    )
    f0 = intermediate_finetune(
        init_params(aux.aux_train.label_space, spec.feature_config),
        ta_examples_to_dataset(entries, labels),
        aux.aux_train,
        target_space,
        spec.ta_config,
        replace(spec.train_config, seed=seed),
        feature_config=spec.feature_config,
    )
    return entries, f0


def _finetune_and_score(
    spec: ExperimentSpec, f0: ModelParams, split: RegimeSplit, seed: int
) -> float:
    tc = replace(spec.train_config, seed=seed)
    dev = split.dev if spec.dev_mode == "with_dev" else None
    model, _ = train(
        f0, split.train, tc, dev_set=dev,
        feature_config=spec.feature_config, metric=spec.metric,
    )
    return evaluate(model, split.test, spec.metric, spec.feature_config)


def _effective_pool(spec: ExperimentSpec, split: RegimeSplit, restart: int) -> UnlabeledPool:
    if spec.ood_task is None or spec.pool_mode == "in_only":
        return split.pool
    ood_corpus = synth_corpus(
        spec.ood_task, len(split.pool) or spec.train_partition_size,
        derive_seed(spec.master_seed, "ood", restart),
    )
    ood_pool = strip_labels(ood_corpus)
    return mix_pools(split.pool, ood_pool, spec.pool_mode)


def _run_arm(
    spec: ExperimentSpec,
    arm: str,
    split: RegimeSplit,
    aux: Optional[AuxArtifacts],
    restart: int,
    gold: Mapping[str, Any],
) -> tuple[float, Optional[list[dict]]]:
    seed = derive_seed(spec.master_seed, restart, arm)
    fc = spec.feature_config
    target_space = split.train.label_space
    dev = split.dev if spec.dev_mode == "with_dev" else None
    tc = replace(spec.train_config, seed=seed)

    if arm in ("baseline", "st", "cf-st"):
        f0 = init_params(target_space, fc)
    elif arm == "itft":
        # Generic intermediate fine-tuning on the auxiliary labeled set only.
        f0 = swap_head(aux.classifier, target_space)
    else:  # ta, ta-st; ExperimentSpec has rejected any other arm name
        _, f0 = build_ta_base_model(
            spec, aux, split.pool, target_space,
            derive_seed(spec.master_seed, restart, "ta-data"),
        )

    if arm in ("baseline", "itft", "ta"):
        return _finetune_and_score(spec, f0, split, seed), None

    st_config = spec.st_config
    if arm == "cf-st":
        st_config = replace(st_config, mode="confidence_filtering")
    result = self_train(
        f0, split.train, _effective_pool(spec, split, restart), dev=dev, test=split.test,
        st_config=st_config, train_config=tc,
        feature_config=fc, metric=spec.metric, gold=gold,
    )
    score = evaluate(result.final_model, split.test, spec.metric, fc)
    return score, result.per_iteration


# ---------------------------------------------------------------------------
# Experiment entry points
# ---------------------------------------------------------------------------


def base_corpus(spec: ExperimentSpec) -> Dataset:
    """The experiment's train partition: every split and the gold labels come from it."""
    return synth_corpus(spec.task, spec.train_partition_size, derive_seed(spec.master_seed, "corpus"))


def make_splits(spec: ExperimentSpec, base: Optional[Dataset] = None) -> list[RegimeSplit]:
    """The per-restart splits of ``base`` (default ``base_corpus(spec)``), identical for every arm."""
    corpus_seed = derive_seed(spec.master_seed, "corpus")
    base = base_corpus(spec) if base is None else base
    test_spec = replace(spec.task, name=(spec.task.name or spec.task.family) + "-test")
    test = synth_corpus(test_spec, spec.test_size, corpus_seed + 1)

    splits = []
    fixed_dev: Optional[Dataset] = None
    source = base
    if not spec.resample_dev:
        dev_split = sample_regime(base, spec.regime, spec.k, derive_seed(spec.master_seed, "dev"))
        fixed_dev = dev_split.dev
        dev_ids = set(fixed_dev.ids())
        source = Dataset(
            base.name, base.label_space,
            tuple(ex for ex in base.examples if ex.id not in dev_ids),
        )
    for r in range(spec.restarts):
        seed_r = derive_seed(spec.master_seed, "restart", r)
        split = sample_regime(
            source, spec.regime, spec.k, seed_r, test=test,
            dev_size=0 if fixed_dev is not None else None,
        )
        if fixed_dev is not None:
            split = replace(split, dev=fixed_dev)
        splits.append(split)
    return splits


def run_experiment(spec: ExperimentSpec) -> RunReport:
    """Execute every arm on identical per-restart splits and aggregate."""
    needs_aux = any(a in ("itft", "ta", "ta-st") for a in spec.arms)
    aux = build_aux_artifacts(spec) if needs_aux else None

    base = base_corpus(spec)
    splits = make_splits(spec, base)
    gold = base.labels_by_id()

    scores: dict[str, list[Optional[float]]] = {a: [] for a in spec.arms}
    errors: dict[str, list[str]] = {a: [] for a in spec.arms}
    series: dict[str, list[list[dict]]] = {a: [] for a in spec.arms}
    timing: dict[str, float] = {a: 0.0 for a in spec.arms}
    partial = False

    for r, split in enumerate(splits):
        for arm in spec.arms:
            start = time.perf_counter()
            try:
                score, arm_series = _run_arm(spec, arm, split, aux, r, gold)
                scores[arm].append(score)
                if arm_series is not None:
                    series[arm].append(arm_series)
            except Exception as exc:  # isolated: one arm failing must not sink the rest
                scores[arm].append(None)
                errors[arm].append(f"restart {r}: {type(exc).__name__}: {exc}")
                partial = True
            timing[arm] += time.perf_counter() - start

    return RunReport(
        spec=spec, scores=scores, errors=errors, series=series,
        partial=partial, timing=timing,
    )


def sweep_k(spec: ExperimentSpec, ks: Sequence[int]) -> dict:
    """Sample-efficiency sweep: rerun the experiment per examples-per-class k."""
    if spec.regime != "few_shot":
        raise ValidationError("sweep_k requires the few_shot regime")
    if list(ks) != sorted(ks):
        raise ValidationError("ks must be ascending")
    rows = []
    aggregates = []
    for k in ks:
        report = run_experiment(replace(spec, k=k))
        agg = report.aggregates()
        for arm in spec.arms:
            for r, s in enumerate(report.scores[arm]):
                rows.append({"arm": arm, "k": k, "restart": r, "score": s})
            if arm in agg:
                aggregates.append(
                    {"arm": arm, "k": k, "mean": agg[arm]["mean"], "std": agg[arm]["std"]}
                )
    return {"rows": rows, "aggregates": aggregates}


def curve_csv(curve: Mapping) -> str:
    lines = ["arm,k,restart,score"]
    for row in curve["rows"]:
        s = row["score"]
        lines.append(f"{row['arm']},{row['k']},{row['restart']},{'' if s is None else repr(s)}")
    return "\n".join(lines) + "\n"


def curve_aggregate_csv(curve: Mapping) -> str:
    lines = ["arm,k,mean,std"]
    for row in curve["aggregates"]:
        lines.append(f"{row['arm']},{row['k']},{row['mean']!r},{row['std']!r}")
    return "\n".join(lines) + "\n"


def track_labeling_series(result: SelfTrainResult) -> dict[str, list]:
    """Per-iteration labeling-accuracy / metric series from a self-train run.

    The pool series requires the run to have been given gold alignments;
    missing coverage raises rather than silently emitting gaps.
    """
    pool = [rec.get("pool_labeling_accuracy") for rec in result.per_iteration]
    if any(v is None for v in pool):
        raise CoverageError("pool labeling accuracy missing; run with gold alignments")
    out = {
        "pool": pool,
        "dev": [rec.get("dev_metric") for rec in result.per_iteration],
        "test": [rec.get("test_metric") for rec in result.per_iteration],
    }
    if result.mode == "confidence_filtering":
        batches = [rec.get("added_batch_accuracy") for rec in result.per_iteration]
        if any(v is None for v in batches):
            raise CoverageError("added-batch accuracy missing; run with gold alignments")
        out["self_train"] = batches
    return out
