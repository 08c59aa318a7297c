"""Synthetic-task family tests."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfaug.corpus import ValidationError
from selfaug.synth import (
    ANTONYM_TABLE,
    BlockSampler,
    DRIFT_MARKER,
    FILLER_WORDS,
    NEGATIVE_WORDS,
    NLI_CLASSES,
    POSITIVE_WORDS,
    SynthSpec,
    contradict_transform,
    entail_transform,
    neutral_transform,
    synth_corpus,
)

import numpy as np


def test_unknown_family_raises():
    with pytest.raises(ValidationError, match="unknown synthetic family"):
        synth_corpus(SynthSpec("no-such-family"), 10, 0)


def test_determinism_per_seed():
    spec = SynthSpec("keyword-sentiment")
    a = synth_corpus(spec, 40, 5)
    b = synth_corpus(spec, 40, 5)
    c = synth_corpus(spec, 40, 6)
    assert a.to_jsonl() == b.to_jsonl()
    assert a.to_jsonl() != c.to_jsonl()


# Range widths: one value, the widths where Lemire's method rejects most draws, and numpy's 32-bit limit.
SPANS = st.sampled_from([1, 2, 3, 2 ** 31 - 1, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32]) | st.integers(1, 2 ** 32)
LOWS = st.integers(-(2 ** 40), 2 ** 40)
DRAWS = st.lists(
    st.tuples(st.just("random"))
    | st.tuples(st.just("integers"), LOWS, SPANS)
    | st.tuples(st.just("integers size="), LOWS, SPANS, st.integers(0, 5)),
    max_size=40,
)


class TestBlockSampler:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), block=st.sampled_from([1, 2, 3, 256]), draws=DRAWS)
    def test_same_numbers_as_numpy(self, seed, block, draws):
        """Any interleaving of the three calls, across block refills, gives numpy's numbers."""
        sampler = type("Sampler", (BlockSampler,), {"block": block})  # refills fall between draws
        ours, ref = sampler(seed), np.random.default_rng(seed)
        for kind, *args in draws:
            if kind == "random":
                assert ours.random() == ref.random()
            elif kind == "integers":
                lo, span = args
                assert ours.integers(lo, lo + span) == ref.integers(lo, lo + span)
            else:
                lo, span, size = args
                assert ours.integers(lo, lo + span, size=size) == ref.integers(lo, lo + span, size=size).tolist()
        # Both streams stand at the same word and the same kept half.
        assert ours.random() == ref.random()
        assert ours.integers(0, 2 ** 32) == ref.integers(0, 2 ** 32)

    @settings(max_examples=100, deadline=None)
    @given(lo=LOWS, span=st.integers(2 ** 32 + 1, 2 ** 70) | st.integers(-5, 0), size=st.sampled_from([None, 0, 3]))
    def test_range_of_no_value_or_more_than_2_32_values_raises(self, lo, span, size):
        with pytest.raises(ValueError, match="must span 1 to 2\\*\\*32 values"):
            BlockSampler(0).integers(lo, lo + span, size=size)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "family, params",
        [
            ("bogus", {}),
            ("keyword-sentiment", 5),
            ("keyword-sentiment", None),
            ("keyword-sentiment", [("noise_rate", 0.1)]),
            ("keyword-sentiment", {"noise_rate": "abc"}),
            ("keyword-sentiment", {"noise_rate": -0.1}),
            ("keyword-sentiment", {"noise_rate": 1.5}),
            ("keyword-sentiment", {"noise_rate": float("nan")}),
            ("keyword-sentiment", {"noise_rate": True}),
            ("keyword-sentiment", {"keywords_per_example": -1}),
            ("keyword-sentiment", {"keywords_per_example": 0}),
            ("keyword-sentiment", {"keywords_per_example": 2.5}),
            ("keyword-sentiment", {"keywords_per_example": "3"}),
            ("keyword-sentiment", {"keywords_per_example": True}),
            ("keyword-sentiment", {"minority_fraction": 0.2}),  # drifted-cluster's key
            ("keyword-sentiment", {"bogus": 1}),
            ("drifted-cluster", {"minority_fraction": 2.0}),
            ("drifted-cluster", {"minority_fraction": -0.5}),
            ("drifted-cluster", {"noise_rate": 0.1}),
            ("pair-overlap-nli", {"noise_rate": 0.1}),
        ],
    )
    def test_bad_spec_rejected(self, family, params):
        with pytest.raises(ValidationError):
            SynthSpec(family, params=params)

    @pytest.mark.parametrize(
        "family, params, digest",
        [
            ("keyword-sentiment", {"noise_rate": 0.3, "keywords_per_example": 2}, "1d8f094f93406d50"),
            ("keyword-sentiment", {"noise_rate": 1, "keywords_per_example": 1}, "5a954bd9e6695f31"),
            ("drifted-cluster", {"minority_fraction": 0.0}, "7d0cf008c48c4b8b"),
            ("drifted-cluster", {"minority_fraction": 1}, "d53628db3349a19a"),
            ("pair-overlap-nli", {}, "0da159e9f370bffb"),
        ],
    )
    def test_valid_spec_generates_the_pinned_corpus(self, family, params, digest):
        """Bounds are accepted; the bytes are those generated before specs were checked."""
        corpus = synth_corpus(SynthSpec(family, params=params), 60, 3)
        assert hashlib.sha256(corpus.to_jsonl().encode()).hexdigest()[:16] == digest


class TestKeywordSentiment:
    def test_keywords_match_label(self):
        corpus = synth_corpus(SynthSpec("keyword-sentiment"), 200, 1)
        for ex in corpus:
            words = set(ex.segment_a.split())
            if ex.label == "pos":
                assert words & set(POSITIVE_WORDS)
                assert not words & set(NEGATIVE_WORDS)
            else:
                assert words & set(NEGATIVE_WORDS)
                assert not words & set(POSITIVE_WORDS)

    def test_noise_rate_flips_surface(self):
        spec = SynthSpec("keyword-sentiment", params={"noise_rate": 1.0})
        corpus = synth_corpus(spec, 100, 2)
        for ex in corpus:
            words = set(ex.segment_a.split())
            expected = NEGATIVE_WORDS if ex.label == "pos" else POSITIVE_WORDS
            assert words & set(expected)


class TestPairOverlapNli:
    def test_all_three_classes_present(self):
        corpus = synth_corpus(SynthSpec("pair-overlap-nli"), 120, 3)
        assert {ex.label for ex in corpus} == set(NLI_CLASSES)
        assert all(ex.segment_b for ex in corpus)

    def test_neutral_hypotheses_carry_fillers(self):
        corpus = synth_corpus(SynthSpec("pair-overlap-nli"), 150, 4)
        for ex in corpus:
            hyp = set(ex.segment_b.split())
            if ex.label == "neutral":
                assert hyp & set(FILLER_WORDS)
            else:
                assert not hyp & set(FILLER_WORDS)

    def test_premises_never_contain_negation_or_fillers(self):
        corpus = synth_corpus(SynthSpec("pair-overlap-nli"), 150, 4)
        for ex in corpus:
            prem = set(ex.segment_a.split())
            assert "not" not in prem
            assert not prem & set(FILLER_WORDS)


class TestTransforms:
    def test_entail_is_mostly_a_subset(self):
        rng = np.random.default_rng(0)
        words = ["the", "movie", "was", "good", "tonight"]
        out = entail_transform(list(words), rng)
        assert 0 < len(out) <= len(words)

    def test_contradict_negates_or_swaps(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            words = ["the", "film", "was", "good"]
            out = contradict_transform(list(words), rng)
            swapped = ANTONYM_TABLE["good"] in out
            negated = "not" in out
            assert swapped or negated

    def test_neutral_appends_fillers(self):
        rng = np.random.default_rng(2)
        out = neutral_transform(["a", "quiet", "scene"], rng)
        assert set(out) & set(FILLER_WORDS)


class TestDriftedCluster:
    def test_minority_wears_opposite_surface(self):
        spec = SynthSpec("drifted-cluster", params={"minority_fraction": 0.3})
        corpus = synth_corpus(spec, 400, 5)
        saw_minority = False
        for ex in corpus:
            words = set(ex.segment_a.split())
            if DRIFT_MARKER in words:
                saw_minority = True
                assert ex.label == "neg"
                assert words & set(POSITIVE_WORDS)
        assert saw_minority

    def test_majority_is_clean(self):
        corpus = synth_corpus(SynthSpec("drifted-cluster"), 400, 6)
        for ex in corpus:
            words = set(ex.segment_a.split())
            if DRIFT_MARKER not in words:
                expected = POSITIVE_WORDS if ex.label == "pos" else NEGATIVE_WORDS
                assert words & set(expected)
