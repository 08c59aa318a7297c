"""Data model, file I/O, and data-regime sampling.

Everything here is immutable after construction and deterministic given the
explicit seeds, so datasets and splits can be shared freely across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Literal, Mapping, Optional, Sequence, Union

import numpy as np

Label = Union[str, float]


class CorpusError(Exception):
    """Base class for data-model errors."""


class ParseError(CorpusError):
    """A file could not be parsed; carries the offending line number."""


class ValidationError(CorpusError):
    """A value violates the declared label space or a type invariant."""


class InsufficientDataError(CorpusError):
    """A sampling request cannot be satisfied by the available data."""


@dataclass(frozen=True)
class LabelSpace:
    """Either a set of class names or a continuous interval [lo, hi]."""

    kind: Literal["categorical", "continuous"]
    classes: tuple[str, ...] = ()
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.kind == "categorical":
            if len(self.classes) < 2 or len(set(self.classes)) != len(self.classes):
                raise ValidationError("categorical label space needs >= 2 distinct classes")
        elif self.kind == "continuous":
            if not self.lo < self.hi:
                raise ValidationError("continuous label space needs lo < hi")
        else:
            raise ValidationError(f"unknown label-space kind: {self.kind!r}")

    @staticmethod
    def categorical(classes: Sequence[str]) -> "LabelSpace":
        return LabelSpace(kind="categorical", classes=tuple(classes))

    @staticmethod
    def continuous(lo: float, hi: float) -> "LabelSpace":
        return LabelSpace(kind="continuous", lo=float(lo), hi=float(hi))

    @property
    def num_classes(self) -> int:
        if self.kind != "categorical":
            raise ValidationError("num_classes is only defined for categorical spaces")
        return len(self.classes)

    def class_index(self, label: str) -> int:
        return self.classes.index(label)

    def validate_label(self, label: Label) -> None:
        if self.kind == "categorical":
            if label not in self.classes:
                raise ValidationError(f"label {label!r} not in classes {self.classes}")
        else:
            try:
                value = float(label)
            except (TypeError, ValueError):
                raise ValidationError(f"label {label!r} is not numeric")
            if not (self.lo <= value <= self.hi):
                raise ValidationError(
                    f"label {value} outside interval [{self.lo}, {self.hi}]"
                )

    def to_json(self) -> dict:
        if self.kind == "categorical":
            return {"kind": "categorical", "classes": list(self.classes)}
        return {"kind": "continuous", "lo": self.lo, "hi": self.hi}

    @staticmethod
    def from_json(obj: Mapping) -> "LabelSpace":
        if obj["kind"] == "categorical":
            return LabelSpace.categorical(obj["classes"])
        return LabelSpace.continuous(obj["lo"], obj["hi"])


@dataclass(frozen=True)
class Example:
    """One text instance: one or two segments plus an optional gold label."""

    id: str
    segment_a: str
    segment_b: Optional[str] = None
    label: Optional[Label] = None

    def __post_init__(self):
        if not self.segment_a:
            raise ValidationError(f"example {self.id!r}: segment_a must be nonempty")

    def without_label(self) -> "Example":
        return replace(self, label=None)


@dataclass(frozen=True)
class Dataset:
    """An ordered, labeled (fully or partially) collection of examples."""

    name: str
    label_space: LabelSpace
    examples: tuple[Example, ...] = ()

    def __post_init__(self):
        seen = set()
        for ex in self.examples:
            if ex.id in seen:
                raise ValidationError(f"duplicate example id {ex.id!r} in {self.name!r}")
            seen.add(ex.id)
            if ex.label is not None:
                self.label_space.validate_label(ex.label)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def ids(self) -> tuple[str, ...]:
        return tuple(ex.id for ex in self.examples)

    def subset(self, ids: Iterable[str], name: Optional[str] = None) -> "Dataset":
        """Examples with the given ids, in this dataset's order."""
        wanted = set(ids)
        kept = tuple(ex for ex in self.examples if ex.id in wanted)
        return Dataset(name or self.name, self.label_space, kept)

    def labels_by_id(self) -> dict[str, Label]:
        return {ex.id: ex.label for ex in self.examples if ex.label is not None}

    def to_jsonl(self) -> str:
        """Canonical JSONL serialization (byte-stable for identical datasets)."""
        lines = []
        for ex in self.examples:
            row = {"id": ex.id, "text_a": ex.segment_a}
            if ex.segment_b is not None:
                row["text_b"] = ex.segment_b
            if ex.label is not None:
                row["label"] = ex.label
            lines.append(json.dumps(row, sort_keys=True, ensure_ascii=False))
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class UnlabeledPool:
    """An ordered collection of label-free examples."""

    source_name: str
    examples: tuple[Example, ...] = ()

    def __post_init__(self):
        seen = set()
        for ex in self.examples:
            if ex.label is not None:
                raise ValidationError(f"pool example {ex.id!r} carries a label")
            if ex.id in seen:
                raise ValidationError(f"duplicate pool id {ex.id!r}")
            seen.add(ex.id)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def ids(self) -> tuple[str, ...]:
        return tuple(ex.id for ex in self.examples)


@dataclass(frozen=True)
class RegimeSplit:
    train: Dataset
    dev: Dataset
    test: Dataset
    pool: UnlabeledPool
    regime: Literal["full", "limited", "few_shot"]
    seed: int


def load_dataset(
    path: Union[str, Path],
    format: Literal["tsv", "jsonl"],
    label_space: LabelSpace,
    has_header: bool = False,
    name: Optional[str] = None,
) -> Dataset:
    """Load a TSV (``text_a<TAB>[text_b<TAB>]label``) or JSONL dataset.

    Row-index-derived ids are assigned when the file carries none; labels are
    validated against ``label_space``.
    """
    path = Path(path)
    name = name or path.stem
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    examples = []
    lines = text.splitlines()
    if format == "tsv" and has_header and lines:
        lines = lines[1:]
    row = 0
    for lineno, line in enumerate(lines, start=1 + (1 if format == "tsv" and has_header else 0)):
        if not line.strip():
            continue
        if format == "tsv":
            fields = line.split("\t")
            if len(fields) == 1:
                text_a, text_b, label = fields[0], None, None
            elif len(fields) == 2:
                text_a, text_b, label = fields[0], None, fields[1]
            elif len(fields) == 3:
                text_a, text_b, label = fields[0], fields[1], fields[2]
            else:
                raise ParseError(f"{path}:{lineno}: expected 1-3 tab-separated fields")
            ex_id = f"{name}:{row}"
        else:
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
                raise ParseError(f"{path}:{lineno}: invalid JSON ({getattr(exc, 'msg', type(exc).__name__)})")
            if not isinstance(obj, dict):
                raise ParseError(f"{path}:{lineno}: expected a JSON object")
            if "text_a" not in obj:
                raise ParseError(f"{path}:{lineno}: missing required key 'text_a'")
            text_a = obj["text_a"]
            text_b = obj.get("text_b")
            label = obj.get("label")
            ex_id = obj.get("id", f"{name}:{row}")
            if not all(isinstance(v, str) for v in (text_a, ex_id, "" if text_b is None else text_b)):
                raise ParseError(f"{path}:{lineno}: text_a, text_b and id must be strings")
        if not text_a:
            raise ParseError(f"{path}:{lineno}: empty segment_a")
        if label is not None:
            if label_space.kind == "continuous":
                try:
                    label = float(label)
                except (TypeError, ValueError, OverflowError):
                    raise ParseError(f"{path}:{lineno}: non-numeric label {label!r}")
            try:
                label_space.validate_label(label)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}")
        examples.append(Example(id=ex_id, segment_a=text_a, segment_b=text_b, label=label))
        row += 1
    return Dataset(name=name, label_space=label_space, examples=tuple(examples))


def save_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    Path(path).write_text(dataset.to_jsonl(), encoding="utf-8")


def bin_continuous_labels(dataset: Dataset, num_bins: int) -> dict[str, int]:
    """Map each labeled example to its interval bin.

    Bin i covers [lo + i*w, lo + (i+1)*w) with w = (hi - lo) / num_bins; the
    upper endpoint hi is closed into the last bin.
    """
    space = dataset.label_space
    if space.kind == "categorical":
        raise ValidationError("bin_continuous_labels requires a continuous label space")
    if num_bins < 1:
        raise ValidationError("num_bins must be >= 1")
    width = (space.hi - space.lo) / num_bins
    out = {}
    for ex in dataset.examples:
        if ex.label is None:
            continue
        idx = int((float(ex.label) - space.lo) // width)
        out[ex.id] = min(idx, num_bins - 1)
    return out


def strip_labels(dataset: Dataset) -> UnlabeledPool:
    """The same examples in the same order, with all gold labels removed."""
    return UnlabeledPool(
        source_name=dataset.name,
        examples=tuple(ex.without_label() for ex in dataset.examples),
    )


LIMITED_TRAIN_SIZE = 1024
DEV_SIZE = 256
CONTINUOUS_BINS = 5


def sample_regime(
    dataset: Dataset,
    regime: Literal["full", "limited", "few_shot"],
    k: int = 8,
    seed: int = 0,
    test: Optional[Dataset] = None,
    dev_size: Optional[int] = None,
) -> RegimeSplit:
    """Split a fully labeled train partition into train/dev/pool.

    The dev set (256 examples) is drawn first; the training subset is then
    drawn from the remainder (all of it for ``full``, up to 1024 for
    ``limited``, k per class or per continuous bin for ``few_shot``).
    Remaining examples become the unlabeled pool with labels stripped.
    ``test`` is carried through unchanged when given.
    """
    for ex in dataset.examples:
        if ex.label is None:
            raise ValidationError(f"sample_regime requires full labels; {ex.id!r} has none")
    n = len(dataset)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)

    dev_count = min(DEV_SIZE if dev_size is None else dev_size, max(n - 1, 0))
    dev_idx = set(order[:dev_count].tolist())
    rest = [i for i in order[dev_count:].tolist()]

    if regime == "full":
        train_idx = set(rest)
    elif regime == "limited":
        train_idx = set(rest[:LIMITED_TRAIN_SIZE])
    elif regime == "few_shot":
        space = dataset.label_space
        if space.kind == "categorical":
            group_of = {ex.id: ex.label for ex in dataset.examples}
            groups = list(space.classes)
        else:
            bins = bin_continuous_labels(dataset, CONTINUOUS_BINS)
            group_of = {ex.id: bins[ex.id] for ex in dataset.examples}
            groups = list(range(CONTINUOUS_BINS))
        picked: dict = {g: [] for g in groups}
        for i in rest:
            g = group_of[dataset.examples[i].id]
            if len(picked[g]) < k:
                picked[g].append(i)
        for g in groups:
            if len(picked[g]) < k:
                raise InsufficientDataError(
                    f"group {g!r} has {len(picked[g])} examples after dev draw, need {k}"
                )
        train_idx = set(i for chosen in picked.values() for i in chosen)
    else:
        raise ValidationError(f"unknown regime {regime!r}")

    def in_order(idx: set) -> tuple[Example, ...]:
        return tuple(ex for i, ex in enumerate(dataset.examples) if i in idx)

    train = Dataset(f"{dataset.name}-train", dataset.label_space, in_order(train_idx))
    dev = Dataset(f"{dataset.name}-dev", dataset.label_space, in_order(dev_idx))
    pool_idx = set(range(n)) - train_idx - dev_idx
    pool = UnlabeledPool(
        source_name=dataset.name,
        examples=tuple(ex.without_label() for i, ex in enumerate(dataset.examples) if i in pool_idx),
    )
    if test is None:
        test = Dataset(f"{dataset.name}-test", dataset.label_space, ())
    return RegimeSplit(train=train, dev=dev, test=test, pool=pool, regime=regime, seed=seed)
