"""Data model, file I/O, and regime-sampling tests."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfaug.corpus import (
    CONTINUOUS_BINS,
    CorpusError,
    DEV_SIZE,
    Dataset,
    Example,
    InsufficientDataError,
    LabelSpace,
    ParseError,
    UnlabeledPool,
    ValidationError,
    bin_continuous_labels,
    load_dataset,
    sample_regime,
    save_dataset,
    strip_labels,
)
from selfaug.synth import SynthSpec, synth_corpus


class TestLabelSpace:
    def test_categorical_roundtrip(self):
        space = LabelSpace.categorical(("a", "b", "c"))
        assert LabelSpace.from_json(space.to_json()) == space
        assert space.num_classes == 3
        assert space.class_index("b") == 1

    def test_continuous_roundtrip(self):
        space = LabelSpace.continuous(0.0, 5.0)
        assert LabelSpace.from_json(space.to_json()) == space

    def test_rejects_degenerate_spaces(self):
        with pytest.raises(ValidationError):
            LabelSpace.categorical(("only",))
        with pytest.raises(ValidationError):
            LabelSpace.categorical(("a", "a"))
        with pytest.raises(ValidationError):
            LabelSpace.continuous(2.0, 2.0)

    def test_validate_label(self):
        cat = LabelSpace.categorical(("x", "y"))
        cat.validate_label("x")
        with pytest.raises(ValidationError):
            cat.validate_label("z")
        cont = LabelSpace.continuous(0, 1)
        cont.validate_label(0.5)
        with pytest.raises(ValidationError):
            cont.validate_label(1.5)
        with pytest.raises(ValidationError):
            cont.validate_label("not-a-number")


class TestDataset:
    def test_duplicate_ids_rejected(self, binary_space):
        ex = Example(id="d:0", segment_a="hello", label="pos")
        with pytest.raises(ValidationError):
            Dataset("dup", binary_space, (ex, ex))

    def test_labels_validated_on_construction(self, binary_space):
        with pytest.raises(ValidationError):
            Dataset(
                "bad", binary_space,
                (Example(id="b:0", segment_a="x", label="unknown"),),
            )

    def test_empty_segment_rejected(self):
        with pytest.raises(ValidationError):
            Example(id="e:0", segment_a="")

    def test_subset_preserves_order(self, tiny_dataset):
        sub = tiny_dataset.subset(["tiny:5", "tiny:1"])
        assert sub.ids() == ("tiny:1", "tiny:5")

    def test_pool_forbids_labels(self):
        with pytest.raises(ValidationError):
            UnlabeledPool("p", (Example(id="p:0", segment_a="x", label="pos"),))


class TestLoadSave:
    def test_tsv_roundtrip(self, tmp_path, binary_space):
        path = tmp_path / "data.tsv"
        path.write_text("good stuff\tpos\nbad stuff\tneg\n", encoding="utf-8")
        ds = load_dataset(path, "tsv", binary_space)
        assert len(ds) == 2
        assert ds.examples[0].label == "pos"
        assert ds.examples[0].id == "data:0"

    def test_tsv_pair_and_header(self, tmp_path):
        space = LabelSpace.categorical(("entailment", "neutral"))
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "text_a\ttext_b\tlabel\n"
            "a premise\ta hypothesis\tentailment\n",
            encoding="utf-8",
        )
        ds = load_dataset(path, "tsv", space, has_header=True)
        assert ds.examples[0].segment_b == "a hypothesis"

    def test_tsv_too_many_fields(self, tmp_path, binary_space):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tc\td\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dataset(path, "tsv", binary_space)

    def test_jsonl_roundtrip(self, tmp_path, tiny_dataset):
        path = tmp_path / "tiny.jsonl"
        save_dataset(tiny_dataset, path)
        loaded = load_dataset(path, "jsonl", tiny_dataset.label_space, name="tiny")
        assert loaded.ids() == tiny_dataset.ids()
        assert [e.label for e in loaded] == [e.label for e in tiny_dataset]

    def test_jsonl_bad_json_reports_line(self, tmp_path, binary_space):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text_a": "ok", "label": "pos"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            load_dataset(path, "jsonl", binary_space)

    def test_jsonl_missing_text_a(self, tmp_path, binary_space):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"label": "pos"}) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="text_a"):
            load_dataset(path, "jsonl", binary_space)

    def test_continuous_labels_coerced(self, tmp_path):
        space = LabelSpace.continuous(0, 5)
        path = tmp_path / "reg.tsv"
        path.write_text("some text\t3.5\n", encoding="utf-8")
        ds = load_dataset(path, "tsv", space)
        assert ds.examples[0].label == 3.5

    def test_canonical_jsonl_is_byte_stable(self, tiny_dataset):
        assert tiny_dataset.to_jsonl() == tiny_dataset.to_jsonl()


class TestBinning:
    def test_bins_cover_interval(self):
        space = LabelSpace.continuous(0.0, 5.0)
        examples = tuple(
            Example(id=f"c:{i}", segment_a="x", label=float(v))
            for i, v in enumerate([0.0, 0.99, 1.0, 2.5, 4.99, 5.0])
        )
        ds = Dataset("cont", space, examples)
        bins = bin_continuous_labels(ds, 5)
        assert bins["c:0"] == 0
        assert bins["c:1"] == 0
        assert bins["c:2"] == 1
        assert bins["c:3"] == 2
        assert bins["c:4"] == 4
        # The closed upper endpoint folds into the last bin.
        assert bins["c:5"] == 4

    def test_rejects_categorical(self, tiny_dataset):
        with pytest.raises(ValidationError):
            bin_continuous_labels(tiny_dataset, 5)

    def test_rejects_zero_bins(self):
        space = LabelSpace.continuous(0, 1)
        ds = Dataset("c", space, (Example(id="c:0", segment_a="x", label=0.5),))
        with pytest.raises(ValidationError):
            bin_continuous_labels(ds, 0)


def _labeled_corpus(n=600, seed=3):
    return synth_corpus(SynthSpec("keyword-sentiment"), n, seed)


class TestSampleRegime:
    def test_dev_drawn_first_and_sized(self):
        corpus = _labeled_corpus()
        split = sample_regime(corpus, "few_shot", k=4, seed=7)
        assert len(split.dev) == DEV_SIZE

    def test_few_shot_exact_k_per_class(self):
        corpus = _labeled_corpus()
        split = sample_regime(corpus, "few_shot", k=4, seed=7)
        counts = {}
        for ex in split.train:
            counts[ex.label] = counts.get(ex.label, 0) + 1
        assert counts == {"pos": 4, "neg": 4}

    def test_partitions_are_disjoint_and_exhaustive(self):
        corpus = _labeled_corpus()
        split = sample_regime(corpus, "few_shot", k=4, seed=7)
        train, dev, pool = set(split.train.ids()), set(split.dev.ids()), set(split.pool.ids())
        assert not (train & dev) and not (train & pool) and not (dev & pool)
        assert train | dev | pool == set(corpus.ids())

    def test_pool_labels_stripped(self):
        split = sample_regime(_labeled_corpus(), "few_shot", k=4, seed=7)
        assert all(ex.label is None for ex in split.pool)

    def test_limited_caps_at_1024(self):
        corpus = _labeled_corpus(n=1600)
        split = sample_regime(corpus, "limited", seed=0)
        assert len(split.train) == 1024

    def test_full_takes_everything_but_dev(self):
        corpus = _labeled_corpus()
        split = sample_regime(corpus, "full", seed=0)
        assert len(split.train) == len(corpus) - DEV_SIZE
        assert len(split.pool) == 0

    def test_reproducible_per_seed(self):
        corpus = _labeled_corpus()
        a = sample_regime(corpus, "few_shot", k=4, seed=11)
        b = sample_regime(corpus, "few_shot", k=4, seed=11)
        c = sample_regime(corpus, "few_shot", k=4, seed=12)
        assert a.train.ids() == b.train.ids() and a.dev.ids() == b.dev.ids()
        assert a.train.ids() != c.train.ids()

    def test_insufficient_data_names_the_group(self):
        corpus = _labeled_corpus(n=280)  # dev eats most of it
        with pytest.raises(InsufficientDataError, match="group"):
            sample_regime(corpus, "few_shot", k=40, seed=0)

    def test_continuous_few_shot_k_per_bin(self):
        space = LabelSpace.continuous(0.0, 1.0)
        examples = tuple(
            Example(id=f"r:{i}", segment_a=f"value token{i % 17}", label=(i % 100) / 100.0)
            for i in range(500)
        )
        ds = Dataset("reg", space, examples)
        split = sample_regime(ds, "few_shot", k=3, seed=5)
        bins = bin_continuous_labels(split.train, CONTINUOUS_BINS)
        counts = {}
        for b in bins.values():
            counts[b] = counts.get(b, 0) + 1
        assert counts == {b: 3 for b in range(CONTINUOUS_BINS)}

    def test_unlabeled_rejected(self, binary_space):
        ds = Dataset("u", binary_space, (Example(id="u:0", segment_a="x"),))
        with pytest.raises(ValidationError):
            sample_regime(ds, "full")


def test_strip_labels_preserves_order():
    corpus = _labeled_corpus(n=50)
    pool = strip_labels(corpus)
    assert pool.ids() == corpus.ids()
    assert all(ex.label is None for ex in pool)


class TestLoadDatasetFuzz:
    """Any file content loads or raises a CorpusError, which the CLI maps to exit 1."""

    SPACES = (LabelSpace.categorical(("pos", "neg")), LabelSpace.continuous(0.0, 5.0))
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=8,
    )
    json_rows = st.dictionaries(
        st.sampled_from(["text_a", "text_b", "label", "id"]), json_values | st.sampled_from(["pos", "2.5"])
    )

    @staticmethod
    def _load(blob: bytes, fmt: str, space: LabelSpace) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"data.{fmt}"
            path.write_bytes(blob)
            try:
                ds = load_dataset(path, fmt, space)
            except CorpusError:
                return
        for ex in ds:
            assert isinstance(ex.id, str) and isinstance(ex.segment_a, str)
            assert ex.segment_b is None or isinstance(ex.segment_b, str)

    @settings(max_examples=150, deadline=None)
    @given(blob=st.binary(max_size=200), fmt=st.sampled_from(["jsonl", "tsv"]), space=st.sampled_from(SPACES))
    @example(blob=b"\xff\xfe", fmt="tsv", space=SPACES[0])
    @example(blob=b"[" * 100_000 + b"]" * 100_000, fmt="jsonl", space=SPACES[0])
    @example(blob=b"1" * 4301, fmt="jsonl", space=SPACES[0])
    def test_arbitrary_bytes(self, blob, fmt, space):
        self._load(blob, fmt, space)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(json_values | json_rows, max_size=4), space=st.sampled_from(SPACES))
    @example(rows=[{"text_a": 5}], space=SPACES[0])
    @example(rows=[{"text_a": "x", "text_b": 0}], space=SPACES[0])
    @example(rows=[{"text_a": "x", "label": 10 ** 400}], space=SPACES[1])
    def test_arbitrary_json_lines(self, rows, space):
        self._load("\n".join(json.dumps(r) for r in rows).encode("utf-8"), "jsonl", space)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.lists(st.text(max_size=8), min_size=1, max_size=4), max_size=4), space=st.sampled_from(SPACES))
    def test_arbitrary_tsv_rows(self, rows, space):
        self._load("\n".join("\t".join(r) for r in rows).encode("utf-8"), "tsv", space)
