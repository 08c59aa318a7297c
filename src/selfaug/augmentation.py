"""Auxiliary-task data augmentation.

Overgenerates candidate hypotheses from unlabeled sentences with a pluggable
generator, filters the candidates with an auxiliary-task classifier at a
threshold tau, selects tau on an auxiliary dev set, and produces the
intermediate-fine-tuned base model used downstream as the self-training
starting point.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import subprocess
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .corpus import Dataset, Example, LabelSpace, UnlabeledPool, ValidationError
from .corpus import check_count, check_flag, check_number
from .synth import NLI_TRANSFORMS, BlockSampler, Rng
from .textmodel import (
    FeatureConfig,
    ModelParams,
    TrainConfig,
    _metric_on_matrix,
    _stack_rows,
    featurize_matrix,
    fit,
    fixed_steps,
    labeled_matrix,
    predict_labels,
)


class AugmentationError(Exception):
    pass


class SelectionError(AugmentationError):
    """tau selection had no viable grid point."""


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
    samples_per_input: int = 4
    flip_rate: float = 0.0  # rule_based: probability of using a wrong-label transform
    command: Optional[str] = None  # external: shell command

    def __post_init__(self):
        check_count("samples_per_input", self.samples_per_input)
        check_number("flip_rate", self.flip_rate, hi=1)
        if self.kind not in ("rule_based", "external"):
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        if self.command is not None and not (isinstance(self.command, str) and self.command.strip()):
            raise ValidationError(f"generator command must be a nonempty string, got {self.command!r}")
        if self.kind == "external" and self.command is None:
            raise ValidationError("external generator requires a command")


@dataclass(frozen=True)
class TAConfig:
    tau_grid: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    two_stage: bool = True
    include_original_aux: bool = True

    def __post_init__(self):
        check_flag("two_stage", self.two_stage)
        check_flag("include_original_aux", self.include_original_aux)
        for t in self.tau_grid:
            check_number("tau grid value", t, hi=1, open_lo=True, open_hi=True)
        if list(self.tau_grid) != sorted(set(self.tau_grid)):
            raise ValidationError("tau grid must be strictly increasing")


def _normalize(text: str) -> str:
    return " ".join(text.split())


# The wrong labels a flipped rule-based sample draws from, per intended label.
_FLIP_LABELS = {label: [l for l in NLI_TRANSFORMS if l != label] for label in NLI_TRANSFORMS}


def _rule_based_candidates(spec: GeneratorSpec, label: str, sentence: str, rng: Rng) -> list[str]:
    if label not in NLI_TRANSFORMS:
        raise ValidationError(f"rule-based generator has no transform for label {label!r}")
    words = sentence.split()
    out = []
    for _ in range(spec.samples_per_input):
        effective = label
        if spec.flip_rate and rng.random() < spec.flip_rate:
            others = _FLIP_LABELS[label]
            effective = others[int(rng.integers(0, len(others)))]
        out.append(" ".join(NLI_TRANSFORMS[effective](words, rng)))
    return out


# Seconds an external generator may take to answer one input.
EXTERNAL_TIMEOUT_S = 60.0


def _external_candidates(spec: GeneratorSpec, label: str, sentence: str) -> list[str]:
    """Line protocol: send ``label<TAB>sentence``, read lines until blank.

    A command that has not exited after EXTERNAL_TIMEOUT_S is killed and
    reaped, and raises AugmentationError.
    """
    proc = subprocess.Popen(
        shlex.split(spec.command),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(f"{label}\t{sentence}\n", timeout=EXTERNAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise AugmentationError(
            f"generator command {spec.command!r} did not exit within {EXTERNAL_TIMEOUT_S} s"
        ) from None
    if proc.returncode != 0:
        raise AugmentationError(
            f"generator command {spec.command!r} exited with status {proc.returncode}"
        )
    lines = []
    for line in stdout.split("\n"):  # "\n" alone ends a protocol line; text mode read "\r\n" as "\n"
        if not line.strip():
            break
        lines.append(line)
    return lines[: spec.samples_per_input]


def _check_sentence(generator: GeneratorSpec, sentence: str) -> None:
    """A generator input is nonempty; one sent over the external line protocol holds no line break."""
    if not sentence:
        raise ValidationError("generator input sentence must be nonempty")
    if generator.kind == "external" and ("\n" in sentence or "\r" in sentence):
        raise ValidationError(f"the external generator reads one sentence per line; {sentence!r} holds a line break")


def generate_candidates(
    generator: GeneratorSpec, label: str, sentence: str, seed: int
) -> list[str]:
    """Up to samples_per_input candidate hypotheses, deduplicated."""
    _check_sentence(generator, sentence)
    if generator.kind == "rule_based":
        raw = _rule_based_candidates(generator, label, sentence, BlockSampler(seed))
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
    feature_config: FeatureConfig,
    source_id: str = "",
) -> list[AugmentedExample]:
    """Keep candidates the classifier assigns the intended label with p > tau."""
    if not candidates:
        return []
    if label not in classifier.label_space.classes:
        raise ValueError(f"{label!r} is not a class of the filter classifier")
    pairs = [
        Example(id=f"cand:{i}", segment_a=source, segment_b=c)
        for i, c in enumerate(candidates)
    ]
    labels, confidences = predict_labels(classifier, featurize_matrix(pairs, feature_config))
    return [
        AugmentedExample(
            premise=source, hypothesis=cand, label=label,
            filter_confidence=float(conf), source_id=source_id,
        )
        for cand, lab, conf in zip(candidates, labels, confidences)
        if lab == label and conf > tau
    ]


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
    feature_config: FeatureConfig,
) -> list[AugmentedExample]:
    """Generate-then-filter over every (pool sentence, label) combination.

    Per-sentence seeds are derived by stable hashing so the output is
    independent of iteration order. With ``tau=0.0`` every candidate the
    classifier labels as intended is kept, since its confidence is at least
    1/num_classes; a higher threshold keeps the subset with confidence > tau.
    Every sentence is checked before the first is generated from.
    """
    for ex in pool.examples:
        _check_sentence(generator, ex.segment_a)
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


def write_ta_jsonl(entries: Sequence[AugmentedExample], path: Union[str, Path]) -> None:
    lines = [json.dumps(asdict(e), sort_keys=True, ensure_ascii=False) for e in entries]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def select_tau(
    classifier: ModelParams,
    generator: GeneratorSpec,
    aux_dev: Dataset,
    grid: Sequence[float],
    train_budget: int,
    seed: int,
    pool: Optional[UnlabeledPool] = None,
    *,
    feature_config: FeatureConfig,
    train_config: Optional[TrainConfig] = None,
) -> float:
    """Pick the filtering threshold with the best auxiliary dev accuracy.

    Candidates are generated (from ``pool`` sentences, or the aux dev
    premises when no pool is given) and scored once; each grid point keeps
    the scored candidates above its threshold, the classifier is fine-tuned
    on them under the step budget, and dev accuracy decides. Ties go to the
    smallest threshold.
    """
    if not grid:
        raise ValidationError("tau grid must be nonempty")
    train_config = train_config or TrainConfig(seed=seed)
    labels = classifier.label_space.classes
    if pool is None:
        sources = tuple(
            Example(id=f"dev-src:{i}", segment_a=ex.segment_a)
            for i, ex in enumerate(aux_dev.examples)
        )
        pool = UnlabeledPool(source_name="aux-dev-premises", examples=sources)

    dev = labeled_matrix(aux_dev, feature_config)
    if dev is None:
        raise ValidationError("tau selection needs a nonempty aux dev set")
    scored = build_ta_examples(
        pool, generator, classifier, 0.0, labels, seed, feature_config=feature_config
    )
    # Each candidate and dev example is featurized once; a grid point trains on a row subset.
    x = featurize_matrix(ta_examples_to_dataset(scored, labels).examples, feature_config)
    conf = np.array([e.filter_confidence for e in scored])

    best_tau = None
    best_score = -np.inf
    for tau in grid:
        keep = np.flatnonzero(conf > tau)
        if keep.size == 0:
            continue
        kept_labels = [scored[i].label for i in keep]
        tuned, _ = fit(classifier, x[keep], kept_labels, fixed_steps(train_config, train_budget))
        score = _metric_on_matrix(tuned, *dev, "accuracy")
        if score > best_score:
            best_tau, best_score = tau, score
    if best_tau is None:
        raise SelectionError("every tau in the grid produced an empty synthetic set")
    return best_tau


def carried_classes(source: LabelSpace, target: LabelSpace) -> list[tuple[int, int]]:
    """``(target row, source row)`` of each class name two categorical spaces share."""
    if source.kind != "categorical" or target.kind != "categorical":
        return []
    return [(i, source.classes.index(c)) for i, c in enumerate(target.classes) if c in source.classes]


def swap_head(params: ModelParams, target_label_space: LabelSpace) -> ModelParams:
    """Re-initialize the output head for a new label space.

    Rows of the ``carried_classes`` carry over; everything else starts at
    zero. Feature dimensionality is unchanged.
    """
    head = "classification" if target_label_space.kind == "categorical" else "regression"
    c = target_label_space.num_classes if head == "classification" else 1
    weights = np.zeros((c, params.hash_dim))
    bias = np.zeros(c)
    if params.head == "classification":
        for i, j in carried_classes(params.label_space, target_label_space):
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
    feature_config: FeatureConfig,
) -> ModelParams:
    """Train on auxiliary data, then swap the head for the target task.

    Two-stage mode trains on the synthetic set first and continues on the
    original auxiliary set; single-stage trains on their concatenation. The
    original set is left out when ``include_original_aux`` is off, and no
    data at all is an error. The result is the base model every
    self-training student restarts from.
    """
    if not ta_config.include_original_aux:
        original_aux = None
    packs = [labeled_matrix(d, feature_config) for d in (synthetic, original_aux)]
    packs = [p for p in packs if p is not None]
    if not packs:
        raise ValidationError("intermediate_finetune needs synthetic or original aux data")
    if not ta_config.two_stage:  # one stage on the rows of both sets, in order
        packs = [(_stack_rows([x for x, _ in packs]), [y for _, labels in packs for y in labels])]

    config = fixed_steps(train_config, train_config.max_steps)
    params = init
    for pack in packs:
        params, _ = fit(params, *pack, config)
    return swap_head(params, target_label_space)
