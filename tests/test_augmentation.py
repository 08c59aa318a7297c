"""Augmentation pipeline tests: generation, filtering, tau selection, head swap."""

import hashlib
import json
import re
import signal
import sys

import numpy as np
import pytest

import selfaug.augmentation as augmentation
import selfaug.textmodel as textmodel
from selfaug.augmentation import (
    AugmentationError,
    GeneratorSpec,
    SelectionError,
    TAConfig,
    build_ta_examples,
    filter_candidates,
    generate_candidates,
    intermediate_finetune,
    select_tau,
    swap_head,
    ta_examples_to_dataset,
    write_ta_jsonl,
)
from selfaug.corpus import Example, LabelSpace, UnlabeledPool, ValidationError
from selfaug.synth import NLI_CLASSES, SynthSpec, synth_corpus
from selfaug.textmodel import (
    FeatureConfig,
    TrainConfig,
    featurize_matrix,
    init_params,
    labeled_matrix,
    predict_labels,
    train,
)

FC = FeatureConfig(hash_dim=2 ** 14)


@pytest.fixture(scope="module")
def nli_classifier():
    corpus = synth_corpus(SynthSpec("pair-overlap-nli"), 300, 0)
    config = TrainConfig(seed=0, max_steps=300, eval_every=300, average_last=1, stopping="fixed_steps")
    model, _ = train(init_params(corpus.label_space, FC), corpus, config, feature_config=FC)
    return model


@pytest.fixture(scope="module")
def aux_dev():
    return synth_corpus(SynthSpec("pair-overlap-nli", name="aux-dev"), 40, 1)


class TestGeneratorSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(samples_per_input=0)
        with pytest.raises(ValidationError):
            GeneratorSpec(kind="neural")
        with pytest.raises(ValidationError):
            GeneratorSpec(kind="external", command=None)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(command="generator"), "the rule_based generator reads no command, got 'generator'"),
            (dict(kind="external", command="generator", flip_rate=0.5), "the external generator reads no flip_rate, got 0.5"),
        ],
    )
    def test_rejects_a_setting_its_kind_does_not_read(self, changes, message):
        with pytest.raises(ValidationError, match=message):
            GeneratorSpec(**changes)

    def test_external_generator_accepts_a_zero_flip_rate(self):
        assert GeneratorSpec(kind="external", command="generator", flip_rate=0).flip_rate == 0


class TestTAConfig:
    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(tau_grid=(0.5, 0.3)), "tau grid must be strictly increasing"),
            (dict(tau_grid=(0.0, 0.5)), "tau grid value"),
            (dict(tau_grid=(0.5, 1.0)), "tau grid value"),
            (dict(tau_grid=("a",)), "tau grid value"),
            (dict(tau=None, tau_grid=()), "tau is selected over the tau grid, which is empty"),
            (dict(tau=1.0), "tau must be"),
            (dict(tau=-0.1), "tau must be"),
            (dict(tau=float("nan")), "tau must be"),
            (dict(tau=float("inf")), "tau must be"),
            (dict(tau="abc"), "tau must be"),
            (dict(tau=True), "tau must be"),
            (dict(tau_budget=0), "tau_budget must be an integer >= 1, got 0"),
            (dict(tau_source_limit=False), "tau_source_limit must be an integer >= 1, got False"),
            (dict(aux_train_size=0), "aux_train_size must be an integer >= 1, got 0"),
            (dict(aux_dev_size=2.0), "aux_dev_size must be an integer >= 1, got 2.0"),
            (dict(ta_pool_limit=-3), "ta_pool_limit must be an integer >= 0, got -3"),
            (dict(ta_pool_limit=1.5), "ta_pool_limit must be an integer >= 0, got 1.5"),
            (dict(ta_pool_limit=True), "ta_pool_limit must be an integer >= 0, got True"),
            (dict(two_stage="maybe"), "two_stage must be true or false, got 'maybe'"),
            (dict(include_original_aux=3), "include_original_aux must be true or false, got 3"),
            (
                dict(two_stage=False, include_original_aux=False),
                "two_stage false is not read with include_original_aux off, which leaves one stage",
            ),
        ],
    )
    def test_rejects_each_bad_value(self, changes, message):
        with pytest.raises(ValidationError, match=message):
            TAConfig(**changes)

    @pytest.mark.parametrize(
        "changes", [dict(tau=0), dict(tau=None), dict(tau=0.999), dict(ta_pool_limit=0), dict(tau=0.5, tau_grid=())]
    )
    def test_accepts_edge_values(self, changes):
        TAConfig(**changes)


class TestGenerateCandidates:
    def test_deterministic_and_deduplicated(self):
        spec = GeneratorSpec(samples_per_input=20)
        sent = "the good movie was engaging tonight"
        a = generate_candidates(spec, "contradiction", sent, seed=7)
        b = generate_candidates(spec, "contradiction", sent, seed=7)
        assert a == b
        assert len(a) == len(set(a))
        assert 1 <= len(a) <= 20

    def test_seed_changes_output(self):
        spec = GeneratorSpec(samples_per_input=20)
        sent = "the good movie was engaging tonight"
        assert generate_candidates(spec, "neutral", sent, 1) != generate_candidates(
            spec, "neutral", sent, 2
        )

    @pytest.mark.parametrize(
        "flip_rate, sentence, digest",
        [
            (0.0, "the quiet scene moved slowly tonight", "dc56b05a8877b19b"),
            (0.0, "the movie was good tonight", "6f91627010147905"),
            (0.0, "the good film was bad and the cast fresh but stale", "1957388283bbca06"),
            (0.5, "the quiet scene moved slowly tonight", "c865679f31a19d92"),
            (0.5, "the movie was good tonight", "42678dee48b5f54c"),
            (0.5, "the good film was bad and the cast fresh but stale", "093bb4bdc97c701f"),
        ],
    )
    def test_rule_based_output_is_pinned(self, flip_rate, sentence, digest):
        """Every label, with and without flips, on sentences holding 0, 1 and 4
        antonym-table words: the candidates generated before the block sampler."""
        spec = GeneratorSpec(samples_per_input=32, flip_rate=flip_rate)
        out = [generate_candidates(spec, label, sentence, seed) for label in NLI_CLASSES for seed in (0, 7, 2 ** 64 - 1)]
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16] == digest

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValidationError):
            generate_candidates(GeneratorSpec(), "neutral", "", 0)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            generate_candidates(GeneratorSpec(), "paraphrase", "some text", 0)

    def test_external_line_protocol(self, tmp_path):
        script = tmp_path / "gen.py"
        script.write_text(
            "import sys\n"
            "label, sentence = sys.stdin.readline().rstrip('\\n').split('\\t')\n"
            "for i in range(3):\n"
            "    print(f'{sentence} variant {i}')\n"
            "print()\n",
            encoding="utf-8",
        )
        spec = GeneratorSpec(
            kind="external", command=f"{sys.executable} {script}", samples_per_input=2
        )
        out = generate_candidates(spec, "entailment", "base sentence", 0)
        assert out == ["base sentence variant 0", "base sentence variant 1"]

    def test_external_reply_splits_on_newline_only(self, tmp_path):
        """A candidate holding U+2028 (a line break to str.splitlines) stays one
        candidate, whose whitespace is then normalized like any other."""
        script = tmp_path / "gen.py"
        script.write_text("import sys\nsys.stdin.readline()\nprint('first half\\u2028second half')\nprint()\n", encoding="utf-8")
        spec = GeneratorSpec(kind="external", command=f"{sys.executable} {script}")
        assert generate_candidates(spec, "entailment", "base sentence", 0) == ["first half second half"]

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
    def test_external_line_break_rejected_before_any_process(self, monkeypatch, nli_classifier, brk):
        """The protocol sends one sentence per line: a line break would split it,
        and the generator would answer the orphan half as a second input."""
        monkeypatch.setattr(augmentation.subprocess, "Popen", lambda *a, **k: pytest.fail("a process started"))
        spec = GeneratorSpec(kind="external", command="generator")
        sentence = f"the movie was good{brk}the film was bad"
        with pytest.raises(ValidationError, match="line break"):
            generate_candidates(spec, "entailment", sentence, 0)
        pool = UnlabeledPool("p", (Example(id="p:0", segment_a="fine"), Example(id="p:1", segment_a=sentence)))
        with pytest.raises(ValidationError, match="line break"):
            build_ta_examples(pool, spec, nli_classifier, 0.5, ["entailment"], 0, FC)

    def test_external_nonzero_exit_raises(self):
        command = f'{sys.executable} -c "import sys; sys.exit(3)"'
        spec = GeneratorSpec(kind="external", command=command)
        with pytest.raises(AugmentationError, match="exited with status 3"):
            generate_candidates(spec, "entailment", "base sentence", 0)

    def test_external_timeout_kills_the_command(self, tmp_path, monkeypatch):
        script = tmp_path / "sleep.py"
        script.write_text("import time\ntime.sleep(60)\n", encoding="utf-8")
        command = f"{sys.executable} {script}"
        monkeypatch.setattr(augmentation, "EXTERNAL_TIMEOUT_S", 0.2)
        spawned = []
        real_popen = augmentation.subprocess.Popen

        def popen(*args, **kwargs):
            spawned.append(real_popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(augmentation.subprocess, "Popen", popen)
        spec = GeneratorSpec(kind="external", command=command)
        with pytest.raises(AugmentationError, match=re.escape(f"{command!r} did not exit within 0.2 s")):
            generate_candidates(spec, "entailment", "base sentence", 0)
        assert spawned[0].returncode == -signal.SIGKILL  # killed and reaped


class TestFilterCandidates:
    def test_kept_subset_reverifies(self, nli_classifier):
        sent = "the film was good and the cast was fresh"
        candidates = generate_candidates(
            GeneratorSpec(samples_per_input=30), "contradiction", sent, 3
        )
        kept = filter_candidates(nli_classifier, sent, candidates, "contradiction", 0.4, FC)
        texts = {k.hypothesis for k in kept}
        assert texts <= set(candidates)
        for k in kept:
            pair = Example(id="v", segment_a=k.premise, segment_b=k.hypothesis)
            (label,), confidences = predict_labels(nli_classifier, featurize_matrix([pair], FC))
            assert label == "contradiction"
            assert confidences[0] > 0.4
            assert k.filter_confidence == pytest.approx(confidences[0])

    def test_threshold_is_strict(self, nli_classifier):
        sent = "the movie was bad and the plot was stale"
        candidates = generate_candidates(
            GeneratorSpec(samples_per_input=30), "entailment", sent, 5
        )
        kept = filter_candidates(nli_classifier, sent, candidates, "entailment", 0.5, FC)
        for k in kept:
            # Exactly tau must be excluded, so every kept confidence is > tau.
            assert k.filter_confidence > 0.5

    def test_empty_candidates_ok(self, nli_classifier):
        assert filter_candidates(nli_classifier, "src", [], "neutral", 0.5, FC) == []

    def test_unknown_label_raises(self, nli_classifier):
        with pytest.raises(ValueError):
            filter_candidates(nli_classifier, "src", ["a hypothesis"], "paraphrase", 0.5, FC)


class TestBuildTaDataset:
    def test_dataset_shape_and_determinism(self, nli_classifier):
        pool = UnlabeledPool(
            "p",
            tuple(
                Example(id=f"p:{i}", segment_a=s)
                for i, s in enumerate(
                    ["the story was great tonight", "a dreadful slow script ruined it"]
                )
            ),
        )
        gen = GeneratorSpec(samples_per_input=10)

        def build():
            entries, _ = build_ta_examples(pool, gen, nli_classifier, 0.4, list(NLI_CLASSES), 0, FC)
            return ta_examples_to_dataset(entries, list(NLI_CLASSES))

        a, b = build(), build()
        assert a.to_jsonl() == b.to_jsonl()
        assert set(ex.label for ex in a) <= set(NLI_CLASSES)
        assert len(a) > 0

    def test_write_jsonl(self, tmp_path, nli_classifier):
        sent = "the film was good"
        candidates = generate_candidates(GeneratorSpec(samples_per_input=10), "neutral", sent, 0)
        kept = filter_candidates(
            nli_classifier, sent, candidates, "neutral", 0.34, FC, source_id="s:0"
        )
        path = tmp_path / "ta.jsonl"
        write_ta_jsonl(kept, path)
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(rows) == len(kept)
        if rows:
            assert set(rows[0]) == {
                "premise", "hypothesis", "label", "source_id", "filter_confidence"
            }


class TestSelectTau:
    def test_returns_grid_member_reproducibly(self, nli_classifier, aux_dev):
        grid = [0.4, 0.5, 0.6]
        kwargs = dict(
            classifier=nli_classifier,
            generator=GeneratorSpec(samples_per_input=4),
            aux_dev=aux_dev,
            grid=grid,
            train_budget=40,
            feature_config=FC,
        )
        tau_a = select_tau(seed=9, **kwargs)
        tau_b = select_tau(seed=9, **kwargs)
        assert tau_a == tau_b
        assert tau_a in grid

    @pytest.mark.parametrize("grid", [[0.5], [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]])
    def test_scores_each_candidate_once(self, nli_classifier, aux_dev, monkeypatch, grid):
        """The candidates are featurized and predicted once, whatever the grid length."""
        generated, featurized, predicted = [], [], []

        def record(module, name, log, entry):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                log.append(entry(args, result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        record(augmentation, "generate_candidates", generated, lambda args, result: len(result))
        for module in (augmentation, textmodel):  # the pool pass, and the dev set through labeled_matrix
            record(module, "featurize_matrix", featurized, lambda args, result: result.shape[0])
        # The filter classifier's own predictions; fine-tuned copies score the dev set.
        record(textmodel, "predict_proba_matrix", predicted, lambda args, result: (args[0] is nli_classifier, len(result)))
        select_tau(
            nli_classifier, GeneratorSpec(samples_per_input=4), aux_dev, grid, 10, 0,
            feature_config=FC,
        )
        assert len(generated) == len(aux_dev) * len(NLI_CLASSES)
        assert sum(featurized) == sum(generated) + len(aux_dev)
        assert [rows for own, rows in predicted if own] == [sum(generated)]

    def test_empty_grid_rejected(self, nli_classifier, aux_dev):
        with pytest.raises(ValidationError):
            select_tau(nli_classifier, GeneratorSpec(), aux_dev, [], 10, 0, feature_config=FC)

    def test_all_empty_sets_raise(self, nli_classifier, aux_dev):
        # An impossible threshold leaves nothing at any grid point.
        with pytest.raises(SelectionError):
            select_tau(
                nli_classifier,
                GeneratorSpec(samples_per_input=2),
                aux_dev,
                [0.999999],
                10,
                0,
                feature_config=FC,
            )


def _pool_pass_by_group(pool, generator, classifier, tau, labels, seed):
    """The pool pass as ``generate_candidates`` and ``filter_candidates`` per
    (sentence, label), then ``featurize_matrix`` of the kept pairs."""
    entries = []
    for ex in pool.examples:
        for label in labels:
            candidates = generate_candidates(
                generator, label, ex.segment_a, augmentation._sentence_seed(seed, f"{ex.id}:{label}")
            )
            entries += filter_candidates(classifier, ex.segment_a, candidates, label, tau, FC, source_id=ex.id)
    return entries, featurize_matrix(ta_examples_to_dataset(entries, labels).examples, FC)


class TestPoolPass:
    """``build_ta_examples`` scores the pool in one pass; entry for entry and
    byte for byte it is the per-(sentence, label) filter."""

    GEN = GeneratorSpec(samples_per_input=3, flip_rate=0.5)

    @pytest.fixture(scope="class")
    def pool(self, aux_dev):
        return UnlabeledPool(
            "p", tuple(Example(id=f"p:{i}", segment_a=ex.segment_a) for i, ex in enumerate(aux_dev.examples[:8]))
        )

    def _check(self, pool, classifier, tau):
        labels = list(NLI_CLASSES)
        entries, rows = build_ta_examples(pool, self.GEN, classifier, tau, labels, 5, FC)
        ref_entries, ref_rows = _pool_pass_by_group(pool, self.GEN, classifier, tau, labels, 5)
        assert entries == ref_entries
        assert rows.shape == ref_rows.shape
        for name in ("data", "indices", "indptr"):
            got, ref = getattr(rows, name), getattr(ref_rows, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
        return entries

    def test_matches_the_per_group_filter(self, pool, nli_classifier):
        entries = self._check(pool, nli_classifier, 0.5)
        kept_groups = {(e.source_id, e.label) for e in entries}
        offered_groups = {
            (ex.id, label)
            for ex in pool.examples
            for label in NLI_CLASSES
            if generate_candidates(self.GEN, label, ex.segment_a, augmentation._sentence_seed(5, f"{ex.id}:{label}"))
        }
        # The case holds kept rows and a group whose candidates are all rejected.
        assert entries and offered_groups - kept_groups

    def test_empty_pool(self, nli_classifier):
        assert self._check(UnlabeledPool("empty"), nli_classifier, 0.5) == []

    def test_tau_above_every_confidence(self, pool, nli_classifier):
        top = max(e.filter_confidence for e in self._check(pool, nli_classifier, 0.0))
        assert self._check(pool, nli_classifier, float(np.nextafter(top, 1.0))) == []

    def test_unknown_label_fails_before_any_generator_call(self, monkeypatch, pool, nli_classifier):
        monkeypatch.setattr(augmentation.subprocess, "Popen", lambda *a, **k: pytest.fail("a process started"))
        spec = GeneratorSpec(kind="external", command="generator")
        with pytest.raises(ValueError, match="'paraphrase' is not a class"):
            build_ta_examples(pool, spec, nli_classifier, 0.5, ["entailment", "paraphrase"], 0, FC)


class TestSwapHead:
    def test_name_matched_rows_carry_over(self, nli_classifier):
        target = LabelSpace.categorical(("neutral", "verdict"))
        swapped = swap_head(nli_classifier, target)
        src = nli_classifier.label_space.classes.index("neutral")
        assert np.array_equal(swapped.weights[0], nli_classifier.weights[src])
        assert swapped.bias[0] == nli_classifier.bias[src]
        assert not swapped.weights[1].any()
        assert swapped.bias[1] == 0.0

    def test_disjoint_names_zero_init(self, nli_classifier, binary_space):
        swapped = swap_head(nli_classifier, binary_space)
        assert not swapped.weights.any()
        assert swapped.label_space == binary_space

    def test_regression_target(self, nli_classifier):
        swapped = swap_head(nli_classifier, LabelSpace.continuous(0, 1))
        assert swapped.head == "regression"
        assert swapped.weights.shape[0] == 1


class TestIntermediateFinetune:
    def test_produces_target_head(self, nli_classifier, binary_space):
        aux = synth_corpus(SynthSpec("pair-overlap-nli"), 60, 2)
        init = init_params(aux.label_space, FC)
        tc = TrainConfig(seed=0, max_steps=60)
        model = intermediate_finetune(init, labeled_matrix(aux, FC), None, binary_space, TAConfig(), tc)
        assert model.label_space == binary_space

    def test_two_stage_vs_merged_differ(self):
        synth = synth_corpus(SynthSpec("pair-overlap-nli", name="s"), 60, 3)
        orig = synth_corpus(SynthSpec("pair-overlap-nli", name="o"), 60, 4)
        init = init_params(synth.label_space, FC)
        tc = TrainConfig(seed=0, max_steps=60)
        # Overlapping class names so the swapped head preserves learned rows.
        target = LabelSpace.categorical(NLI_CLASSES)
        packs = labeled_matrix(synth, FC), labeled_matrix(orig, FC)
        staged = intermediate_finetune(init, *packs, target, TAConfig(two_stage=True), tc)
        merged = intermediate_finetune(init, *packs, target, TAConfig(two_stage=False), tc)
        assert staged.to_bytes() != merged.to_bytes()

    def test_no_data_rejected(self, binary_space):
        space = LabelSpace.categorical(NLI_CLASSES)
        init = init_params(space, FC)
        with pytest.raises(ValidationError):
            intermediate_finetune(init, None, None, binary_space, TAConfig(), TrainConfig())
        # An excluded original set does not stand in for missing synthetic data.
        orig = synth_corpus(SynthSpec("pair-overlap-nli"), 20, 4)
        without_orig = TAConfig(include_original_aux=False)
        with pytest.raises(ValidationError):
            intermediate_finetune(init, None, labeled_matrix(orig, FC), binary_space, without_orig, TrainConfig())
