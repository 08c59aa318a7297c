"""Deterministic synthetic benchmark corpora.

Three families are shipped:

* ``keyword-sentiment`` — two-class sentences built from class-indicative
  keyword sets embedded in a shared noise vocabulary, with an optional
  class-flip noise rate.
* ``pair-overlap-nli`` — three-class premise/hypothesis pairs built by token
  subsetting (entail), negation insertion / antonym swap (contradict), and
  appending unsupported filler clauses (neutral).
* ``drifted-cluster`` — a majority subpopulation with clean keyword signal
  plus a minority subpopulation whose surface keywords mimic the opposite
  class, distinguishable only by a marker token.

All samplers are pure functions of (spec, size, seed). Each draws from a
``BlockSampler``, which gives the numbers ``np.random.default_rng(seed)``
would give at a fraction of the cost per draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from .corpus import Dataset, Example, LabelSpace, ValidationError, check_count, check_number

NLI_CLASSES = ("entailment", "neutral", "contradiction")

# Each family's label classes, in label-space order.
FAMILY_CLASSES = {
    "keyword-sentiment": ("pos", "neg"),
    "pair-overlap-nli": NLI_CLASSES,
    "drifted-cluster": ("pos", "neg"),
}

POSITIVE_WORDS = (
    "good", "great", "excellent", "wonderful", "superb", "delightful",
    "charming", "enjoyable", "brilliant", "moving", "fresh", "engaging",
)
NEGATIVE_WORDS = (
    "bad", "awful", "terrible", "dreadful", "boring", "tedious",
    "bland", "painful", "clumsy", "lifeless", "stale", "tiresome",
)
SENTIMENT_WORDS = POSITIVE_WORDS + NEGATIVE_WORDS

# Antonyms are index-paired across the two keyword lists.
ANTONYM_TABLE: dict[str, str] = {}
for _p, _n in zip(POSITIVE_WORDS, NEGATIVE_WORDS):
    ANTONYM_TABLE[_p] = _n
    ANTONYM_TABLE[_n] = _p

SYNONYM_TABLE: dict[str, str] = {
    "good": "great", "great": "good", "excellent": "superb", "superb": "excellent",
    "wonderful": "delightful", "delightful": "wonderful",
    "bad": "awful", "awful": "bad", "terrible": "dreadful", "dreadful": "terrible",
    "boring": "tedious", "tedious": "boring",
    "movie": "film", "film": "movie", "story": "plot", "plot": "story",
    "actor": "performer", "performer": "actor",
}

NOISE_WORDS = (
    "the", "a", "this", "that", "movie", "film", "story", "plot", "actor",
    "scene", "script", "director", "cast", "music", "ending", "character",
    "dialogue", "pace", "style", "camera", "moment", "performance", "screen",
    "theme", "tone", "drama", "comedy", "thriller", "audience", "review",
)

# Appears only in neutral hypotheses; never in premises.
FILLER_WORDS = (
    "reportedly", "allegedly", "yesterday", "overseas", "backstage",
    "offscreen", "supposedly", "elsewhere", "meanwhile", "apparently",
)

DRIFT_MARKER = "ironically"


# The parameters each family reads.
_FAMILY_PARAMS = {
    "keyword-sentiment": ("noise_rate", "keywords_per_example"),
    "pair-overlap-nli": (),
    "drifted-cluster": ("minority_fraction",),
}


@dataclass(frozen=True)
class SynthSpec:
    """Descriptor for one synthetic-task family."""

    family: str
    name: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in _FAMILY_PARAMS:
            raise ValidationError(
                f"unknown synthetic family {self.family!r}; known: {sorted(_FAMILY_PARAMS)}"
            )
        if self.name is not None and not isinstance(self.name, str):
            raise ValidationError(f"task name must be a string, got {self.name!r}")
        if not isinstance(self.params, Mapping):
            raise ValidationError(f"{self.family} params must be a mapping, got {self.params!r}")
        known = _FAMILY_PARAMS[self.family]
        unknown = [key for key in self.params if key not in known]
        if unknown:
            raise ValidationError(f"{self.family} reads no parameter {unknown}; it reads {list(known)}")
        for key in ("noise_rate", "minority_fraction"):
            check_number(key, self.params.get(key, 0.0), hi=1)
        check_count("keywords_per_example", self.params.get("keywords_per_example", 1))


class BlockSampler:
    """The numbers ``np.random.default_rng(seed)`` gives, drawn from PCG64 in blocks.

    ``random()`` and ``integers(lo, hi[, size])`` return exactly what a numpy
    ``Generator`` returns for the same calls, at a fraction of its cost per
    scalar draw. ``random()`` is a raw word's top 53 bits. ``integers`` is
    Lemire's method on 32-bit halves, low half first, the high half kept for
    the next 32-bit draw, as PCG64's ``next_uint32`` keeps it. A one-value
    range draws nothing; more than 2**32 values (numpy's 64-bit path) raise
    ValueError.
    """

    __slots__ = ("_bits", "_words", "_half")
    block = 256  # raw words fetched at a time

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._words: list[int] = []  # raw words not yet used, the next one last
        self._half: Optional[int] = None

    def _refill(self) -> list[int]:
        self._words = self._bits.random_raw(self.block).tolist()[::-1]
        return self._words

    def random(self) -> float:
        return ((self._words or self._refill()).pop() >> 11) * 2.0 ** -53

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = (self._words or self._refill()).pop()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def _below(self, n: int) -> int:
        """An unbiased draw from ``range(n)``."""
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32

    def integers(self, lo: int, hi: int, size: Optional[int] = None):
        n = hi - lo
        if not 0 < n <= 1 << 32:
            raise ValueError(f"integers({lo}, {hi}) must span 1 to 2**32 values")
        if size is None:
            return lo + self._below(n)
        return [lo + self._below(n) for _ in range(size)]


# The transforms draw from either; both give the same numbers for a seed.
Rng = BlockSampler | np.random.Generator


def _sentence(rng: Rng, words, lo: int, hi: int) -> list[str]:
    n = int(rng.integers(lo, hi + 1))
    return [words[i] for i in rng.integers(0, len(words), size=n)]


def _gen_keyword_sentiment(spec: SynthSpec, size: int, seed: int, name: str) -> Dataset:
    noise_rate = float(spec.params.get("noise_rate", 0.0))
    keywords_per = int(spec.params.get("keywords_per_example", 3))
    rng = BlockSampler(seed)
    space = LabelSpace.categorical(FAMILY_CLASSES[spec.family])
    examples = []
    for i in range(size):
        label = "pos" if rng.random() < 0.5 else "neg"
        surface = label
        if noise_rate and rng.random() < noise_rate:
            surface = "neg" if label == "pos" else "pos"
        words = _sentence(rng, NOISE_WORDS, 6, 12)
        pool = POSITIVE_WORDS if surface == "pos" else NEGATIVE_WORDS
        for _ in range(keywords_per):
            pos = int(rng.integers(0, len(words) + 1))
            words.insert(pos, pool[int(rng.integers(0, len(pool)))])
        examples.append(Example(id=f"{name}:{i}", segment_a=" ".join(words), label=label))
    return Dataset(name=name, label_space=space, examples=tuple(examples))


def make_premise(rng: Rng) -> list[str]:
    """A premise sentence over the noise + sentiment vocabulary."""
    words = _sentence(rng, NOISE_WORDS, 5, 9)
    pos = int(rng.integers(0, len(words) + 1))
    words.insert(pos, SENTIMENT_WORDS[int(rng.integers(0, len(SENTIMENT_WORDS)))])
    return words


def entail_transform(words: list[str], rng: Rng) -> list[str]:
    """Token subset with occasional synonym substitution."""
    kept = [w for w in words if rng.random() < 0.7]
    if len(kept) < 2:
        kept = words[: max(2, len(words) // 2)]
    return [
        SYNONYM_TABLE[w] if w in SYNONYM_TABLE and rng.random() < 0.2 else w
        for w in kept
    ]


def contradict_transform(words: list[str], rng: Rng) -> list[str]:
    """Antonym swap when possible, otherwise negation insertion."""
    out = list(words)
    swappable = [i for i, w in enumerate(out) if w in ANTONYM_TABLE]
    if swappable and rng.random() < 0.7:
        i = swappable[int(rng.integers(0, len(swappable)))]
        out[i] = ANTONYM_TABLE[out[i]]
    else:
        out.insert(min(1, len(out)), "not")
    return out


def neutral_transform(words: list[str], rng: Rng) -> list[str]:
    """Token subset plus a plausible-but-unsupported filler clause."""
    kept = [w for w in words if rng.random() < 0.7]
    if not kept:
        kept = words[:2]
    n_fill = int(rng.integers(2, 5))
    kept.extend(FILLER_WORDS[i] for i in rng.integers(0, len(FILLER_WORDS), size=n_fill))
    return kept


NLI_TRANSFORMS = {
    "entailment": entail_transform,
    "contradiction": contradict_transform,
    "neutral": neutral_transform,
}


def _gen_pair_overlap_nli(spec: SynthSpec, size: int, seed: int, name: str) -> Dataset:
    rng = BlockSampler(seed)
    space = LabelSpace.categorical(FAMILY_CLASSES[spec.family])
    examples = []
    for i in range(size):
        label = NLI_CLASSES[int(rng.integers(0, 3))]
        premise = make_premise(rng)
        hypothesis = NLI_TRANSFORMS[label](premise, rng)
        examples.append(
            Example(
                id=f"{name}:{i}",
                segment_a=" ".join(premise),
                segment_b=" ".join(hypothesis),
                label=label,
            )
        )
    return Dataset(name=name, label_space=space, examples=tuple(examples))


def _gen_drifted_cluster(spec: SynthSpec, size: int, seed: int, name: str) -> Dataset:
    minority_fraction = float(spec.params.get("minority_fraction", 0.2))
    rng = BlockSampler(seed)
    space = LabelSpace.categorical(FAMILY_CLASSES[spec.family])
    examples = []
    for i in range(size):
        label = "pos" if rng.random() < 0.5 else "neg"
        words = _sentence(rng, NOISE_WORDS, 6, 12)
        minority = label == "neg" and rng.random() < minority_fraction
        # Minority negatives wear positive surface keywords; the marker token
        # is the only reliable signal of their true class.
        surface_pool = POSITIVE_WORDS if (label == "pos" or minority) else NEGATIVE_WORDS
        for _ in range(3):
            pos = int(rng.integers(0, len(words) + 1))
            words.insert(pos, surface_pool[int(rng.integers(0, len(surface_pool)))])
        if minority:
            pos = int(rng.integers(0, len(words) + 1))
            words.insert(pos, DRIFT_MARKER)
        examples.append(Example(id=f"{name}:{i}", segment_a=" ".join(words), label=label))
    return Dataset(name=name, label_space=space, examples=tuple(examples))


_FAMILIES = {
    "keyword-sentiment": _gen_keyword_sentiment,
    "pair-overlap-nli": _gen_pair_overlap_nli,
    "drifted-cluster": _gen_drifted_cluster,
}


def synth_corpus(spec: SynthSpec, size: int, seed: int) -> Dataset:
    """Generate a deterministic synthetic dataset for one shipped family."""
    check_count("size", size)
    name = spec.name or f"{spec.family}-{seed}"
    return _FAMILIES[spec.family](spec, size, seed, name)
