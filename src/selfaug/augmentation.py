"""Auxiliary-task data augmentation.

Reformats labeled sentence pairs to text-to-text form, overgenerates candidate
hypotheses from unlabeled sentences with a pluggable generator, filters the
candidates with an auxiliary-task classifier at a threshold tau, selects tau
on an auxiliary dev set, and produces the intermediate-fine-tuned base model
used downstream as the self-training starting point.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .corpus import Dataset, Example, LabelSpace, UnlabeledPool, ValidationError
from .synth import NLI_TRANSFORMS
from .textmodel import (
    FeatureConfig,
    ModelParams,
    TrainConfig,
    evaluate,
    featurize_matrix,
    fit,
    fixed_steps,
    labeled_matrix,
    predict_proba_matrix,
)

REVERSE_ENTAILMENT = "reverse-entailment"


class AugmentationError(Exception):
    pass


class SelectionError(AugmentationError):
    """tau selection had no viable grid point."""


@dataclass(frozen=True)
class Text2TextPair:
    control_label: str
    input_text: str
    target_text: str


@dataclass(frozen=True)
class AugmentedExample:
    premise: str
    hypothesis: str
    label: str
    filter_confidence: float
    source_id: str = ""


@dataclass(frozen=True)
class GeneratorSpec:
    """Rule-based transforms or an external line-protocol command."""

    kind: str = "rule_based"  # "rule_based" | "external"
    samples_per_input: int = 100
    top_k: int = 40  # advisory for stochastic external generators
    flip_rate: float = 0.0  # rule_based: probability of using a wrong-label transform
    command: Optional[str] = None  # external: shell command

    def __post_init__(self):
        if self.samples_per_input < 1:
            raise ValidationError("samples_per_input must be >= 1")
        if self.kind not in ("rule_based", "external"):
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        if self.kind == "external" and not self.command:
            raise ValidationError("external generator requires a command")


@dataclass(frozen=True)
class TAConfig:
    tau_grid: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    two_stage: bool = True
    include_original_aux: bool = True

    def __post_init__(self):
        if not all(0 < t < 1 for t in self.tau_grid):
            raise ValidationError("tau grid values must lie in (0, 1)")
        if list(self.tau_grid) != sorted(set(self.tau_grid)):
            raise ValidationError("tau grid must be strictly increasing")


def reversed_label(label: str) -> str:
    """Label for the (sent_B -> sent_A) direction of a pair.

    Contradiction and neutrality are symmetric relations; entailment in the
    reverse direction gets its own tag.
    """
    if label == "entailment":
        return REVERSE_ENTAILMENT
    return label


def to_text2text(aux_example: Example, include_reversed: bool = True) -> list[Text2TextPair]:
    """Cast a labeled sentence pair into (label, sent_A) -> sent_B form."""
    if aux_example.segment_b is None:
        raise ValidationError(f"example {aux_example.id!r} has no second segment")
    if not isinstance(aux_example.label, str):
        raise ValidationError(f"example {aux_example.id!r} needs a categorical label")
    pairs = [
        Text2TextPair(
            control_label=aux_example.label,
            input_text=aux_example.segment_a,
            target_text=aux_example.segment_b,
        )
    ]
    if include_reversed:
        pairs.append(
            Text2TextPair(
                control_label=reversed_label(aux_example.label),
                input_text=aux_example.segment_b,
                target_text=aux_example.segment_a,
            )
        )
    return pairs


def _normalize(text: str) -> str:
    return " ".join(text.split())


def _rule_based_candidates(
    spec: GeneratorSpec, label: str, sentence: str, rng: np.random.Generator
) -> list[str]:
    if label not in NLI_TRANSFORMS:
        raise ValidationError(f"rule-based generator has no transform for label {label!r}")
    words = sentence.split()
    out = []
    for _ in range(spec.samples_per_input):
        effective = label
        if spec.flip_rate and rng.random() < spec.flip_rate:
            others = [l for l in NLI_TRANSFORMS if l != label]
            effective = others[int(rng.integers(0, len(others)))]
        out.append(" ".join(NLI_TRANSFORMS[effective](words, rng)))
    return out


def _external_candidates(spec: GeneratorSpec, label: str, sentence: str) -> list[str]:
    """Line protocol: send ``label<TAB>sentence``, read lines until blank."""
    proc = subprocess.Popen(
        shlex.split(spec.command),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    request = f"{label}\t{sentence}\n"
    stdout, _ = proc.communicate(request)
    lines = []
    for line in stdout.splitlines():
        if not line.strip():
            break
        lines.append(line)
    return lines[: spec.samples_per_input]


def generate_candidates(
    generator: GeneratorSpec, label: str, sentence: str, seed: int
) -> list[str]:
    """Up to samples_per_input candidate hypotheses, deduplicated."""
    if not sentence:
        raise ValidationError("generator input sentence must be nonempty")
    if generator.kind == "rule_based":
        rng = np.random.default_rng(seed)
        raw = _rule_based_candidates(generator, label, sentence, rng)
    else:
        raw = _external_candidates(generator, label, sentence)
    seen = set()
    out = []
    for cand in raw:
        norm = _normalize(cand)
        if norm and norm not in seen:
            seen.add(norm)
            out.append(norm)
    return out


def filter_candidates(
    classifier: ModelParams,
    source: str,
    candidates: Sequence[str],
    label: str,
    tau: float,
    feature_config: Optional[FeatureConfig] = None,
    source_id: str = "",
) -> list[AugmentedExample]:
    """Keep candidates the classifier assigns the intended label with p > tau."""
    if not candidates:
        return []
    feature_config = feature_config or FeatureConfig()
    classes = classifier.label_space.classes
    label_idx = classes.index(label)
    pairs = [
        Example(id=f"cand:{i}", segment_a=source, segment_b=c)
        for i, c in enumerate(candidates)
    ]
    probs = predict_proba_matrix(classifier, featurize_matrix(pairs, feature_config))
    kept = []
    for cand, p in zip(candidates, probs):
        if int(np.argmax(p)) == label_idx and p[label_idx] > tau:
            kept.append(
                AugmentedExample(
                    premise=source,
                    hypothesis=cand,
                    label=label,
                    filter_confidence=float(p[label_idx]),
                    source_id=source_id,
                )
            )
    return kept


def _sentence_seed(seed: int, sentence_id: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{sentence_id}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def build_ta_examples(
    pool: UnlabeledPool,
    generator: GeneratorSpec,
    classifier: ModelParams,
    tau: float,
    labels: Sequence[str],
    seed: int,
    feature_config: Optional[FeatureConfig] = None,
) -> list[AugmentedExample]:
    """Generate-then-filter over every (pool sentence, label) combination.

    Per-sentence seeds are derived by stable hashing so the output is
    independent of iteration order.
    """
    out = []
    for ex in pool.examples:
        for label in labels:
            candidates = generate_candidates(
                generator, label, ex.segment_a, _sentence_seed(seed, f"{ex.id}:{label}")
            )
            out.extend(
                filter_candidates(
                    classifier, ex.segment_a, candidates, label, tau,
                    feature_config=feature_config, source_id=ex.id,
                )
            )
    return out


def ta_examples_to_dataset(
    entries: Sequence[AugmentedExample], labels: Sequence[str], name: str = "ta-synthetic"
) -> Dataset:
    space = LabelSpace.categorical(labels)
    examples = tuple(
        Example(id=f"{name}:{i}", segment_a=e.premise, segment_b=e.hypothesis, label=e.label)
        for i, e in enumerate(entries)
    )
    return Dataset(name=name, label_space=space, examples=examples)


def build_ta_dataset(
    pool: UnlabeledPool,
    generator: GeneratorSpec,
    classifier: ModelParams,
    tau: float,
    labels: Sequence[str],
    seed: int,
    feature_config: Optional[FeatureConfig] = None,
) -> Dataset:
    entries = build_ta_examples(
        pool, generator, classifier, tau, labels, seed, feature_config
    )
    return ta_examples_to_dataset(entries, labels)


def write_ta_jsonl(entries: Sequence[AugmentedExample], path: Union[str, Path]) -> None:
    lines = [
        json.dumps(
            {
                "premise": e.premise,
                "hypothesis": e.hypothesis,
                "label": e.label,
                "source_id": e.source_id,
                "filter_confidence": e.filter_confidence,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        for e in entries
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def select_tau(
    classifier: ModelParams,
    generator: GeneratorSpec,
    aux_dev: Dataset,
    grid: Sequence[float],
    train_budget: int,
    seed: int,
    pool: Optional[UnlabeledPool] = None,
    feature_config: Optional[FeatureConfig] = None,
    train_config: Optional[TrainConfig] = None,
) -> float:
    """Pick the filtering threshold with the best auxiliary dev accuracy.

    For each grid point a synthetic set is built (from ``pool`` sentences, or
    the aux dev premises when no pool is given), a copy of the classifier is
    fine-tuned on it under the step budget, and dev accuracy decides. Ties go
    to the smallest threshold.
    """
    if not grid:
        raise ValidationError("tau grid must be nonempty")
    feature_config = feature_config or FeatureConfig()
    train_config = train_config or TrainConfig(seed=seed)
    labels = classifier.label_space.classes
    if pool is None:
        sources = tuple(
            Example(id=f"dev-src:{i}", segment_a=ex.segment_a)
            for i, ex in enumerate(aux_dev.examples)
        )
        pool = UnlabeledPool(source_name="aux-dev-premises", examples=sources)

    # The generator output is tau-independent; build once and re-filter.
    per_source = []
    for ex in pool.examples:
        for label in labels:
            candidates = generate_candidates(
                generator, label, ex.segment_a, _sentence_seed(seed, f"{ex.id}:{label}")
            )
            per_source.append((ex, label, candidates))

    best_tau = None
    best_score = -np.inf
    for tau in grid:
        entries = []
        for ex, label, candidates in per_source:
            entries.extend(
                filter_candidates(
                    classifier, ex.segment_a, candidates, label, tau,
                    feature_config=feature_config, source_id=ex.id,
                )
            )
        if not entries:
            continue
        synthetic = ta_examples_to_dataset(entries, labels)
        tuned, _ = fit(
            classifier.copy(),
            *labeled_matrix(synthetic, feature_config),
            fixed_steps(train_config, train_budget),
        )
        score = evaluate(tuned, aux_dev, "accuracy", feature_config)
        if score > best_score:
            best_tau, best_score = tau, score
    if best_tau is None:
        raise SelectionError("every tau in the grid produced an empty synthetic set")
    return best_tau


def swap_head(params: ModelParams, target_label_space: LabelSpace) -> ModelParams:
    """Re-initialize the output head for a new label space.

    Rows for classes whose names match carry over; everything else starts at
    zero. Feature dimensionality is unchanged.
    """
    head = "classification" if target_label_space.kind == "categorical" else "regression"
    c = target_label_space.num_classes if head == "classification" else 1
    weights = np.zeros((c, params.hash_dim))
    bias = np.zeros(c)
    if head == "classification" and params.head == "classification":
        for i, name in enumerate(target_label_space.classes):
            if name in params.label_space.classes:
                j = params.label_space.classes.index(name)
                weights[i] = params.weights[j]
                bias[i] = params.bias[j]
    return ModelParams(weights, bias, head, target_label_space)


def intermediate_finetune(
    init: ModelParams,
    synthetic: Optional[Dataset],
    original_aux: Optional[Dataset],
    target_label_space: LabelSpace,
    ta_config: TAConfig,
    train_config: TrainConfig,
    feature_config: Optional[FeatureConfig] = None,
) -> ModelParams:
    """Train on auxiliary data, then swap the head for the target task.

    Two-stage mode trains on the synthetic set first and continues on the
    original auxiliary set; single-stage trains on their concatenation. The
    result is the base model every self-training student restarts from.
    """
    feature_config = feature_config or FeatureConfig()
    have_synth = synthetic is not None and len(synthetic) > 0
    have_orig = original_aux is not None and len(original_aux) > 0
    if not have_synth and not have_orig:
        raise ValidationError("intermediate_finetune needs synthetic or original aux data")

    config = fixed_steps(train_config, train_config.max_steps)
    params = init.copy()

    def run(dataset: Dataset, p: ModelParams) -> ModelParams:
        fitted, _ = fit(p, *labeled_matrix(dataset, feature_config), config)
        return fitted

    if ta_config.two_stage:
        if have_synth:
            params = run(synthetic, params)
        if have_orig and ta_config.include_original_aux:
            params = run(original_aux, params)
    else:
        parts = []
        if have_synth:
            parts.extend(synthetic.examples)
        if have_orig and ta_config.include_original_aux:
            parts.extend(original_aux.examples)
        if not parts:
            parts = list(synthetic.examples if have_synth else original_aux.examples)
        merged = Dataset(
            "aux-merged",
            (synthetic or original_aux).label_space,
            tuple(
                Example(id=f"aux:{i}", segment_a=e.segment_a, segment_b=e.segment_b, label=e.label)
                for i, e in enumerate(parts)
            ),
        )
        params = run(merged, params)

    return swap_head(params, target_label_space)
