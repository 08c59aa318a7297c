"""Self-training over a fixed unlabeled pool.

One loop, two selection policies. Broad mode re-annotates the entire pool
every iteration and trains each student from the base model on labeled + all
pseudo-labeled examples. The confidence-filtering baseline instead moves a
fixed-size batch of the most confident pseudo-labels permanently into the
labeled set each iteration until the pool is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Optional, Sequence

import numpy as np

from .corpus import Dataset, Example, Label, UnlabeledPool, ValidationError, strip_labels
from .corpus import check_count, check_number
from .textmodel import (
    FeatureConfig,
    ModelParams,
    TrainConfig,
    _metric_on_matrix,
    _stack_rows,
    featurize_matrix,
    fit,
    labeled_matrix,
    predict_labels,
)


class UnsupportedModeError(ValidationError):
    """The base model's head does not support the self-training mode."""


class MissingOODError(ValidationError):
    """A pool mode that mixes in out-of-domain rows was given no such corpus."""


@dataclass(frozen=True)
class SelfTrainConfig:
    max_iterations: int = 30
    agreement_threshold: float = 0.999
    agreement_patience: int = 2
    final_finetune_on_l: Literal["on", "off", "auto_by_dev"] = "auto_by_dev"
    drop_lowest_confidence_fraction: float = 0.0
    mode: Literal["broad", "confidence_filtering"] = "broad"
    cf_batch: int = 32

    def __post_init__(self):
        for name in ("max_iterations", "agreement_patience", "cf_batch"):
            check_count(name, getattr(self, name))
        check_number("agreement_threshold", self.agreement_threshold, hi=1)
        check_number("drop_lowest_confidence_fraction", self.drop_lowest_confidence_fraction, hi=1, open_hi=True)
        if self.mode not in ("broad", "confidence_filtering"):
            raise ValidationError(f"unknown self-training mode {self.mode!r}")
        if self.final_finetune_on_l not in ("on", "off", "auto_by_dev"):
            raise ValidationError(
                f"final_finetune_on_l must be 'on', 'off' or 'auto_by_dev', "
                f"not {self.final_finetune_on_l!r}"
            )


@dataclass
class SelfTrainResult:
    final_model: ModelParams
    per_iteration: list[dict]
    converged_at: Optional[int]
    f0_hash: str

    def to_json(self) -> dict:
        """The run's record; ``selftrain``'s ``result.json`` adds the spec that produced it."""
        return {
            "schema_version": 3,
            "f0_hash": self.f0_hash,
            "converged_at": self.converged_at,
            "per_iteration": self.per_iteration,
            "final_model_hash": self.final_model.params_hash(),
        }


def _labeling_accuracy(
    ids: Sequence[str], labels: Sequence[Label], gold: Optional[Mapping[str, Label]]
) -> Optional[float]:
    """Share of the rows with a gold label that carry it; None when no row has one."""
    if gold is None:
        return None
    pairs = [(gold[i], label) for i, label in zip(ids, labels) if i in gold]
    if not pairs:
        return None
    return sum(1 for g, label in pairs if g == label) / len(pairs)


def _drop_lowest(conf: np.ndarray, fraction: float) -> list[int]:
    """Kept indices after removing the lowest-confidence fraction."""
    n = len(conf)
    n_drop = int(fraction * n)
    if n_drop == 0:
        return list(range(n))
    # Stable: equal confidences drop in pool order.
    dropped = set(np.argsort(conf, kind="stable")[:n_drop].tolist())
    return [i for i in range(n) if i not in dropped]


def _most_confident(conf: np.ndarray, remaining: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` highest confidences; ties go to the lower pool index."""
    return np.lexsort((remaining, -conf))[:k]


def self_train(
    f0: ModelParams,
    labeled: Dataset,
    pool: UnlabeledPool,
    dev: Optional[Dataset] = None,
    test: Optional[Dataset] = None,
    st_config: Optional[SelfTrainConfig] = None,
    train_config: Optional[TrainConfig] = None,
    *,
    feature_config: FeatureConfig,
    metric: str = "accuracy",
    gold: Optional[Mapping[str, Label]] = None,
) -> SelfTrainResult:
    """Self-training from the base model ``f0``.

    Every iteration a fresh student is trained from ``f0`` on labeled +
    pseudo-labeled data. Each model labels the whole pool once: the first
    teacher before the loop, each student after it is trained, and a
    student's labels are the next teacher's. ``st_config.mode`` picks which
    of those labels the student sees:

    - ``broad`` re-annotates the whole pool (minus the optional
      lowest-confidence fraction). It terminates on successive pseudo-label
      agreement (with patience) or at ``max_iterations``.
    - ``confidence_filtering`` moves the ``cf_batch`` most confident remaining
      examples permanently into the labeled set with their labels frozen, and
      ends when the pool is exhausted. It needs no dev set and never
      fine-tunes on the labeled set.

    ``gold`` (id -> gold label) enables the pool labeling-accuracy series:
    broad mode scores the teacher's labels, confidence filtering the student's.
    """
    st_config = st_config or SelfTrainConfig()
    train_config = train_config or TrainConfig()
    broad = st_config.mode == "broad"
    if not broad and f0.head != "classification":
        raise UnsupportedModeError("confidence filtering requires a classification head")
    if len(labeled) == 0 or len(pool) == 0:
        raise ValidationError("self_train requires nonempty labeled data and pool")
    needs_dev = broad and st_config.final_finetune_on_l == "auto_by_dev"
    if needs_dev and (dev is None or len(dev) == 0):
        raise ValidationError("a dev set is required for auto final fine-tuning")
    if f0.head == "regression" and st_config.drop_lowest_confidence_fraction > 0:
        raise ValidationError("confidence-based dropping is undefined for regression")

    x_l, y_l = labeled_matrix(labeled, feature_config)
    x_pool = featurize_matrix(pool.examples, feature_config)
    pool_ids = pool.ids()
    dev_pack = labeled_matrix(dev, feature_config)
    test_pack = labeled_matrix(test, feature_config)

    f0_hash = f0.params_hash()

    teacher, _ = fit(f0, x_l, y_l, train_config, dev=dev_pack, metric=metric)
    pool_labels, conf = predict_labels(teacher, x_pool)

    finetune_on_l: Optional[bool]
    if broad:
        finetune_on_l = {"on": True, "off": False, "auto_by_dev": None}[
            st_config.final_finetune_on_l
        ]
        iterations = st_config.max_iterations
    else:  # never fine-tunes on L; runs until the pool is exhausted
        finetune_on_l = False
        iterations = -(-len(pool_ids) // st_config.cf_batch)

    per_iteration: list[dict] = []
    prev_labels: Optional[list] = None
    consec_agreement = 0
    converged_at = None
    remaining = np.arange(len(pool_ids))
    # Broad mode rebuilds these each iteration; confidence filtering only appends.
    train_idx: list[int] = []
    train_labels: list[Label] = []

    for t in range(1, iterations + 1):
        agreement = None
        if broad:
            if prev_labels is not None:
                agreement = sum(1 for a, b in zip(pool_labels, prev_labels) if a == b) / len(pool_labels)
            prev_labels = pool_labels
            drop = st_config.drop_lowest_confidence_fraction  # 0 for a regression head
            train_idx = _drop_lowest(conf, drop) if drop else list(range(len(pool_ids)))
            train_labels = [pool_labels[i] for i in train_idx]
        else:
            chosen = _most_confident(conf[remaining], remaining, st_config.cf_batch)
            added_idx = remaining[chosen].tolist()
            added_labels = [pool_labels[i] for i in added_idx]
            remaining = np.delete(remaining, chosen)
            train_idx.extend(added_idx)
            train_labels.extend(added_labels)
            batch_accuracy = _labeling_accuracy(
                [pool_ids[i] for i in added_idx], added_labels, gold
            )

        x_train = _stack_rows([x_l, x_pool[train_idx]])
        y_train = y_l + train_labels
        student, _ = fit(f0, x_train, y_train, train_config, dev=dev_pack, metric=metric)

        if finetune_on_l is not False:
            with_ft, _ = fit(student, x_l, y_l, train_config, dev=dev_pack, metric=metric)
            if finetune_on_l is None:  # resolved once, at the first iteration, by dev comparison
                score_plain = _metric_on_matrix(student, *dev_pack, metric)
                finetune_on_l = _metric_on_matrix(with_ft, *dev_pack, metric) > score_plain
            if finetune_on_l:
                student = with_ft

        teacher_labels = pool_labels
        pool_labels, conf = predict_labels(student, x_pool)
        record = {
            "iteration": t,
            "train_size": len(y_train),
            "pool_labeling_accuracy": _labeling_accuracy(
                pool_ids, teacher_labels if broad else pool_labels, gold
            ),
            "agreement": agreement,
            "student_init_hash": f0_hash,
            "dev_metric": _metric_on_matrix(student, *dev_pack, metric) if dev_pack else None,
            "test_metric": _metric_on_matrix(student, *test_pack, metric) if test_pack else None,
        }
        if not broad:
            record.update(added=len(added_idx), added_batch_accuracy=batch_accuracy)
        per_iteration.append(record)
        teacher = student

        if not broad:
            continue
        if agreement is not None and agreement >= st_config.agreement_threshold:
            consec_agreement += 1
        else:
            consec_agreement = 0
        if consec_agreement >= st_config.agreement_patience:
            converged_at = t
            break

    return SelfTrainResult(
        final_model=teacher,
        per_iteration=per_iteration,
        converged_at=converged_at,
        f0_hash=f0_hash,
    )


POOL_MODES = ("in_only", "out_only", "in_plus_out")


def mix_pools(
    in_pool: UnlabeledPool,
    in_gold: Mapping[str, Label],
    ood: Optional[Dataset],
    mode: Literal["in_only", "out_only", "in_plus_out"],
) -> tuple[UnlabeledPool, Mapping[str, Label]]:
    """The self-training pool of ``mode`` and its gold labels, keyed by the pool's ids.

    ``ood`` is the out-of-domain corpus: its labels are stripped into the pool
    and become the gold of its rows. ``in_plus_out`` prefixes the ids of the
    two sources with ``in:`` and ``out:``.
    """
    if mode not in POOL_MODES:
        raise ValidationError(f"unknown pool mode {mode!r}; valid: {POOL_MODES}")
    if mode == "in_only":
        return in_pool, in_gold
    if ood is None:
        raise MissingOODError(f"pool mode {mode!r} needs an out-of-domain corpus")
    if mode == "out_only":
        return strip_labels(ood), ood.labels_by_id()
    sources = (("in", in_pool.examples, in_gold), ("out", ood.examples, ood.labels_by_id()))
    examples = tuple(
        Example(id=f"{prefix}:{ex.id}", segment_a=ex.segment_a, segment_b=ex.segment_b)
        for prefix, rows, _ in sources
        for ex in rows
    )
    gold = {f"{prefix}:{i}": label for prefix, _, labels in sources for i, label in labels.items()}
    return UnlabeledPool(f"{in_pool.source_name}+{ood.name}", examples), gold
