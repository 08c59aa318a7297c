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
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .augmentation import (
    AugmentedExample,
    GeneratorSpec,
    TAConfig,
    build_ta_examples,
    carried_classes,
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
    check_count,
    check_flag,
    check_number,
    sample_regime,
)
from .selftrain import POOL_MODES, SelfTrainConfig, mix_pools, self_train
from .synth import NLI_CLASSES, SynthSpec, synth_corpus
from .textmodel import (
    EarlyStop,
    FeatureConfig,
    ModelParams,
    TrainConfig,
    _parse_metric,
    evaluate,
    fixed_steps,
    init_params,
    train,
)

ARM_NAMES = ("baseline", "itft", "ta", "st", "ta-st", "cf-st")
# The start model each arm trains from; arms of one kind share it within a restart.
START_KIND = {"baseline": "zeros", "st": "zeros", "cf-st": "zeros", "itft": "itft", "ta": "ta", "ta-st": "ta"}
SELF_TRAINING_ARMS = ("st", "ta-st", "cf-st")
AUX_LABEL_SPACE = LabelSpace.categorical(NLI_CLASSES)


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
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)
    train_config: TrainConfig = field(default_factory=TrainConfig)
    st_config: SelfTrainConfig = field(default_factory=SelfTrainConfig)
    ta_config: TAConfig = field(default_factory=TAConfig)
    generator: GeneratorSpec = field(default_factory=GeneratorSpec)
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
        kind, positive = _parse_metric(self.metric)
        if kind == "f1" and not positive:
            raise ValidationError("f1 requires a positive class, e.g. 'f1:pos'")
        if self.regime not in ("full", "limited", "few_shot"):
            raise ValidationError(f"unknown regime {self.regime!r}")
        if self.pool_mode not in POOL_MODES:
            raise ValidationError(f"unknown pool_mode {self.pool_mode!r}")
        if self.pool_mode != "in_only" and self.ood_task is None:
            raise ValidationError(f"pool_mode {self.pool_mode!r} needs an ood_task")
        for name in (
            "k", "restarts", "train_partition_size", "test_size",
            "aux_train_size", "aux_dev_size", "tau_budget", "tau_source_limit",
        ):
            check_count(name, getattr(self, name))
        check_flag("resample_dev", self.resample_dev)
        check_flag("top3_aggregate", self.top3_aggregate)
        check_count("ta_pool_limit", self.ta_pool_limit, minimum=0)
        check_count("master_seed", self.master_seed, minimum=0)
        if self.tau is not None:
            check_number("tau", self.tau, hi=1, open_hi=True)
        elif not self.ta_config.tau_grid:
            raise ValidationError("tau is selected over the tau grid, which is empty")
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
        return _csv(
            "arm,restart,score",
            ((arm, r, s) for arm in self.spec.arms for r, s in enumerate(self.scores.get(arm, []))),
        )

    def aggregate_csv(self) -> str:
        agg = self.aggregates()
        return _csv("arm,mean,std", ((a, agg[a]["mean"], agg[a]["std"]) for a in self.spec.arms if a in agg))


def _cell(value: Any) -> str:
    """A CSV cell: a string as it is, ``None`` empty, a number by ``repr``."""
    return value if isinstance(value, str) else "" if value is None else repr(value)


def _csv(header: str, rows: Iterable[Sequence]) -> str:
    return "\n".join([header, *(",".join(map(_cell, row)) for row in rows)]) + "\n"


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


def _pool_and_gold(
    spec: ExperimentSpec, split: RegimeSplit, restart: int, gold: Mapping[str, Any]
) -> tuple[UnlabeledPool, Mapping[str, Any]]:
    """The restart's self-training pool and gold labels keyed by its ids.

    ``gold`` holds the in-domain labels; out-of-domain rows take the labels
    of their own synthesized corpus.
    """
    ood = None
    if spec.pool_mode != "in_only":
        ood = synth_corpus(
            spec.ood_task, len(split.pool) or spec.train_partition_size,
            derive_seed(spec.master_seed, "ood", restart),
        )
    return mix_pools(split.pool, gold, ood, spec.pool_mode)


def _needs_aux(spec: ExperimentSpec, target_space: LabelSpace) -> bool:
    """An arm starts from the aux head, and some target class carries over from it."""
    aux_arm = any(START_KIND[a] != "zeros" for a in spec.arms)
    return aux_arm and bool(carried_classes(AUX_LABEL_SPACE, target_space))


def _start_model(
    spec: ExperimentSpec, kind: str, split: RegimeSplit, aux: Optional[AuxArtifacts], restart: int
) -> ModelParams:
    """One restart's start model of ``kind`` (see ``START_KIND``)."""
    target_space = split.train.label_space
    if kind == "zeros" or aux is None:  # no aux class carries over: swap_head gives zeros
        return init_params(target_space, spec.feature_config)
    if kind == "itft":  # generic intermediate fine-tuning on the auxiliary labeled set only
        return swap_head(aux.classifier, target_space)
    seed = derive_seed(spec.master_seed, restart, "ta-data")
    return build_ta_base_model(spec, aux, split.pool, target_space, seed)[1]


def _run_arm(
    spec: ExperimentSpec,
    arm: str,
    split: RegimeSplit,
    f0: ModelParams,
    restart: int,
    pool: Optional[tuple[UnlabeledPool, Mapping[str, Any]]],
) -> tuple[float, Optional[list[dict]]]:
    """Train ``arm`` from ``f0`` and score it on the test set.

    ``pool`` is the restart's ``_pool_and_gold``; only self-training arms read it.
    """
    fc = spec.feature_config
    dev = split.dev if spec.dev_mode == "with_dev" else None
    tc = replace(spec.train_config, seed=derive_seed(spec.master_seed, restart, arm))

    if arm not in SELF_TRAINING_ARMS:
        model, _ = train(f0, split.train, tc, dev_set=dev, feature_config=fc, metric=spec.metric)
        return evaluate(model, split.test, spec.metric, fc), None

    st_config = spec.st_config
    if arm == "cf-st":
        st_config = replace(st_config, mode="confidence_filtering")
    pool, pool_gold = pool
    result = self_train(
        f0, split.train, pool, dev=dev, test=split.test,
        st_config=st_config, train_config=tc,
        feature_config=fc, metric=spec.metric, gold=pool_gold,
    )
    # self_train scored its final model on the test set in its last record.
    return result.per_iteration[-1]["test_metric"], result.per_iteration


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


def _once(built: dict[str, Any], key: str, build: Callable[[], Any]) -> Any:
    """``built[key]``, from ``build()`` on first use. A build that raised is
    not retried: its exception is kept and raised again."""
    if key not in built:
        try:
            built[key] = build()
        except Exception as exc:
            built[key] = exc
    if isinstance(built[key], Exception):
        raise built[key]
    return built[key]


def run_experiment(
    spec: ExperimentSpec, base: Optional[Dataset] = None, aux: Optional[AuxArtifacts] = None
) -> RunReport:
    """Execute every arm on identical per-restart splits and aggregate.

    ``run_per_k`` passes the k-independent ``base`` corpus and ``aux`` artifacts.
    Each restart builds each kind of start model once, for the first arm of that
    kind, and its self-training pool once, for the first self-training arm.
    """
    base = base_corpus(spec) if base is None else base
    if aux is None and _needs_aux(spec, base.label_space):
        aux = build_aux_artifacts(spec)
    splits = make_splits(spec, base)
    gold = base.labels_by_id()

    scores: dict[str, list[Optional[float]]] = {a: [] for a in spec.arms}
    errors: dict[str, list[str]] = {a: [] for a in spec.arms}
    series: dict[str, list[list[dict]]] = {a: [] for a in spec.arms}
    timing: dict[str, float] = {a: 0.0 for a in spec.arms}
    partial = False

    for r, split in enumerate(splits):
        built: dict[str, Any] = {}  # start model kind, or "pool"
        for arm in spec.arms:
            start = time.perf_counter()
            kind = START_KIND[arm]
            try:
                f0 = _once(built, kind, lambda: _start_model(spec, kind, split, aux, r))
                pool = None
                if arm in SELF_TRAINING_ARMS:
                    pool = _once(built, "pool", lambda: _pool_and_gold(spec, split, r, gold))
                score, arm_series = _run_arm(spec, arm, split, f0, r, pool)
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


def check_sweep_ks(spec: ExperimentSpec, ks) -> None:
    """A k sweep is a strictly ascending list of integers >= 1 in the few_shot regime."""
    if spec.regime != "few_shot":
        raise ValidationError("a k sweep requires the few_shot regime")
    if isinstance(ks, str) or not isinstance(ks, Sequence):
        raise ValidationError(f"sweep ks must be a list of integers, got {ks!r}")
    for k in ks:
        check_count("sweep k", k)
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValidationError(f"sweep ks must be strictly ascending, got {list(ks)}")


def run_per_k(spec: ExperimentSpec, ks: Sequence[int]) -> dict[int, RunReport]:
    """``spec`` run at each k in ``ks``, on one base corpus and one set of aux artifacts."""
    base = base_corpus(spec)
    aux = build_aux_artifacts(spec) if _needs_aux(spec, base.label_space) else None
    return {k: run_experiment(replace(spec, k=k), base, aux) for k in ks}


def sweep_curve(arms: Sequence[str], reports: Mapping[int, RunReport]) -> dict:
    """Per-restart rows and per-arm aggregates of k -> report, in k order."""
    rows = []
    aggregates = []
    for k, report in reports.items():
        agg = report.aggregates()
        for arm in arms:
            for r, s in enumerate(report.scores[arm]):
                rows.append({"arm": arm, "k": k, "restart": r, "score": s})
            if arm in agg:
                aggregates.append(
                    {"arm": arm, "k": k, "mean": agg[arm]["mean"], "std": agg[arm]["std"]}
                )
    return {"rows": rows, "aggregates": aggregates}


def curve_csv(curve: Mapping) -> str:
    return _csv("arm,k,restart,score", ((r["arm"], r["k"], r["restart"], r["score"]) for r in curve["rows"]))


def curve_aggregate_csv(curve: Mapping) -> str:
    return _csv("arm,k,mean,std", ((r["arm"], r["k"], r["mean"], r["std"]) for r in curve["aggregates"]))
