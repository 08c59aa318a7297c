"""Self-training loop tests: broad mode, confidence filtering, pool mixing."""

import json
from dataclasses import replace

import numpy as np
import pytest

from selfaug.corpus import (
    Dataset,
    Example,
    LabelSpace,
    UnlabeledPool,
    ValidationError,
    sample_regime,
    strip_labels,
)
from selfaug.selftrain import (
    MissingOODError,
    SelfTrainConfig,
    UnsupportedModeError,
    _drop_lowest,
    _most_confident,
    mix_pools,
    self_train,
)
from selfaug.synth import SynthSpec, synth_corpus
from selfaug.textmodel import FeatureConfig, TrainConfig, init_params

FC = FeatureConfig(hash_dim=2 ** 14)


def _cf(batch):
    return SelfTrainConfig(mode="confidence_filtering", cf_batch=batch)


def _setup(corpus_size=320, seed=0, k=8):
    corpus = synth_corpus(SynthSpec("keyword-sentiment"), corpus_size, 1)
    split = sample_regime(corpus, "few_shot", k=k, seed=seed)
    f0 = init_params(corpus.label_space, FC)
    return corpus, split, f0


class TestDropLowest:
    def test_zero_fraction_keeps_all(self):
        assert _drop_lowest(np.array([0.9, 0.6]), 0.0) == [0, 1]

    def test_drops_lowest_confidence(self):
        assert _drop_lowest(np.array([0.9, 0.5, 0.7, 0.6]), 0.5) == [0, 2]

    def test_ties_drop_in_pool_order(self):
        assert _drop_lowest(np.array([0.5, 0.5, 0.5, 0.9]), 0.25) == [1, 2, 3]


class TestMostConfident:
    def test_matches_sorted_reference_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            remaining = np.sort(rng.choice(200, size=n, replace=False))
            conf = rng.choice([0.5, 0.6, 0.75, 0.9], size=n)  # many ties
            k = int(rng.integers(1, n + 1))
            reference = sorted(range(n), key=lambda i: (-conf[i], remaining[i]))[:k]
            assert _most_confident(conf, remaining, k).tolist() == reference


class TestBroadSelfTrain:
    def test_invariants_and_result_shape(self):
        corpus, split, f0 = _setup()
        gold = corpus.labels_by_id()
        test = synth_corpus(SynthSpec("keyword-sentiment", name="ks-test"), 80, 42)
        result = self_train(
            f0, split.train, split.pool, dev=split.dev, test=test,
            st_config=SelfTrainConfig(max_iterations=4),
            train_config=TrainConfig(seed=0), feature_config=FC, gold=gold,
        )
        f0_hash = f0.params_hash()
        assert result.f0_hash == f0_hash
        assert all("added" not in rec for rec in result.per_iteration)  # a broad run's records
        assert result.per_iteration[-1]["test_metric"] is not None
        expected = len(split.train) + len(split.pool)
        for rec in result.per_iteration:
            assert rec["train_size"] == expected
            assert rec["student_init_hash"] == f0_hash
            assert 0.0 <= rec["pool_labeling_accuracy"] <= 1.0

    def test_convergence_counts_from_first_agreement(self):
        """Stable labels from iteration 1 with patience 1 converge at t=2."""
        corpus, split, f0 = _setup()
        result = self_train(
            f0, split.train, split.pool, dev=split.dev,
            st_config=SelfTrainConfig(
                agreement_threshold=1.0, agreement_patience=1, max_iterations=10,
                final_finetune_on_l="off",
            ),
            train_config=TrainConfig(seed=0), feature_config=FC,
        )
        assert [rec["agreement"] for rec in result.per_iteration] == [None, 1.0]
        assert result.converged_at == 2

    def test_determinism(self):
        corpus, split, f0 = _setup()
        kwargs = dict(
            dev=split.dev,
            st_config=SelfTrainConfig(max_iterations=3),
            train_config=TrainConfig(seed=5), feature_config=FC,
        )
        a = self_train(f0, split.train, split.pool, **kwargs)
        b = self_train(f0, split.train, split.pool, **kwargs)
        assert a.final_model.to_bytes() == b.final_model.to_bytes()
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_requires_labeled_and_pool(self):
        corpus, split, f0 = _setup()
        empty_pool = UnlabeledPool("empty", ())
        with pytest.raises(ValidationError):
            self_train(f0, split.train, empty_pool, dev=split.dev, feature_config=FC)

    def test_auto_finetune_needs_dev(self):
        corpus, split, f0 = _setup()
        with pytest.raises(ValidationError):
            self_train(
                f0, split.train, split.pool, dev=None,
                st_config=SelfTrainConfig(final_finetune_on_l="auto_by_dev"),
                train_config=TrainConfig(seed=0, max_steps=30, eval_every=30, average_last=1, stopping="fixed_steps"),
                feature_config=FC,
            )

    def test_drop_fraction_shrinks_train_size(self):
        corpus, split, f0 = _setup()
        result = self_train(
            f0, split.train, split.pool, dev=split.dev,
            st_config=SelfTrainConfig(
                max_iterations=2, drop_lowest_confidence_fraction=0.25,
                final_finetune_on_l="off",
            ),
            train_config=TrainConfig(seed=0), feature_config=FC,
        )
        n_pool = len(split.pool)
        kept = n_pool - int(0.25 * n_pool)
        for rec in result.per_iteration:
            assert rec["train_size"] == len(split.train) + kept

    def test_drop_fraction_is_rejected_for_a_regression_head(self):
        space = LabelSpace.continuous(0, 1)
        ds = Dataset("r", space, (Example(id="r:0", segment_a="x", label=0.5),))
        pool = UnlabeledPool("p", (Example(id="p:0", segment_a="y"),))
        config = SelfTrainConfig(drop_lowest_confidence_fraction=0.25, final_finetune_on_l="off")
        with pytest.raises(ValidationError, match="undefined for regression"):
            self_train(init_params(space, FC), ds, pool, st_config=config, feature_config=FC)

    def test_json_payload(self):
        corpus, split, f0 = _setup()
        result = self_train(
            f0, split.train, split.pool, dev=split.dev,
            st_config=SelfTrainConfig(max_iterations=2),
            train_config=TrainConfig(seed=0), feature_config=FC,
        )
        payload = json.loads(json.dumps(result.to_json(), sort_keys=True))
        assert payload["schema_version"] == 3
        assert payload["final_model_hash"] == result.final_model.params_hash()
        assert len(payload["per_iteration"]) == len(result.per_iteration)


class TestLabelChecks:
    @pytest.mark.parametrize("where", ["train", "dev"])
    def test_label_less_row_is_a_validation_error(self, where):
        """Not an untyped error from label encoding, and not a dev row scored as a miss."""
        corpus, split, f0 = _setup()
        damaged = getattr(split, where)
        rows = (damaged.examples[0].without_label(),) + damaged.examples[1:]
        split = replace(split, **{where: replace(damaged, examples=rows)})
        with pytest.raises(ValidationError, match=damaged.name):
            self_train(
                f0, split.train, split.pool, dev=split.dev,
                st_config=SelfTrainConfig(max_iterations=1),
                train_config=TrainConfig(seed=0), feature_config=FC,
            )


class TestConfidenceFiltering:
    def test_pool_exhaustion_and_batch_sizes(self):
        corpus, split, f0 = _setup(corpus_size=320)
        gold = corpus.labels_by_id()
        batch = 32
        result = self_train(
            f0, split.train, split.pool, dev=split.dev, st_config=_cf(batch),
            train_config=TrainConfig(seed=0), feature_config=FC, gold=gold,
        )
        n_pool = len(split.pool)
        added = [rec["added"] for rec in result.per_iteration]
        assert sum(added) == n_pool
        assert all(a == batch for a in added[:-1])
        assert added[-1] <= batch
        # The labeled set grows monotonically by exactly the added batch.
        sizes = [rec["train_size"] for rec in result.per_iteration]
        assert sizes[0] == len(split.train) + added[0]
        for prev, cur, a in zip(sizes, sizes[1:], added[1:]):
            assert cur == prev + a

    def test_students_restart_from_f0(self):
        corpus, split, f0 = _setup(corpus_size=280)
        result = self_train(
            f0, split.train, split.pool, dev=split.dev, st_config=_cf(64),
            train_config=TrainConfig(seed=0), feature_config=FC,
        )
        f0_hash = f0.params_hash()
        assert all(rec["student_init_hash"] == f0_hash for rec in result.per_iteration)

    def test_regression_head_unsupported(self):
        space = LabelSpace.continuous(0, 1)
        f0 = init_params(space, FC)
        ds = Dataset("r", space, (Example(id="r:0", segment_a="x", label=0.5),))
        pool = UnlabeledPool("p", (Example(id="p:0", segment_a="y"),))
        with pytest.raises(UnsupportedModeError):
            self_train(f0, ds, pool, st_config=_cf(32), feature_config=FC)

    def test_bad_batch_rejected(self):
        with pytest.raises(ValidationError):
            _cf(0)


class TestMixPools:
    def _sources(self):
        space = LabelSpace.categorical(("pos", "neg"))
        a = UnlabeledPool("a", (Example(id="x", segment_a="in text"),))
        b = Dataset("b", space, (Example(id="x", segment_a="out text", label="neg"),))
        return a, {"x": "pos"}, b

    def test_in_only_and_out_only(self):
        a, gold, b = self._sources()
        pool, pool_gold = mix_pools(a, gold, b, "in_only")
        assert pool is a and pool_gold is gold
        assert mix_pools(a, gold, None, "in_only") == (a, gold)
        pool, pool_gold = mix_pools(a, gold, b, "out_only")
        assert pool == strip_labels(b)
        assert pool_gold == {"x": "neg"}

    def test_in_plus_out_prefixes_ids(self):
        a, gold, b = self._sources()
        mixed, _ = mix_pools(a, gold, b, "in_plus_out")
        assert mixed.ids() == ("in:x", "out:x")
        assert mixed.source_name == "a+b"
        assert all(ex.label is None for ex in mixed)

    def test_unknown_mode(self):
        a, gold, b = self._sources()
        # The mode is checked first, with or without an out-of-domain corpus.
        for ood in (b, None):
            with pytest.raises(ValidationError, match="shuffled"):
                mix_pools(a, gold, ood, "shuffled")

    @pytest.mark.parametrize("mode", ["out_only", "in_plus_out"])
    def test_out_of_domain_mode_needs_a_corpus(self, mode):
        a, gold, _ = self._sources()
        with pytest.raises(MissingOODError, match=mode):
            mix_pools(a, gold, None, mode)

    @pytest.mark.parametrize("mode", ["in_only", "out_only", "in_plus_out"])
    def test_gold_is_keyed_by_the_mixed_ids(self, mode):
        a, gold, b = self._sources()
        pool, pool_gold = mix_pools(a, gold, b, mode)
        assert set(pool_gold) == set(pool.ids())
        expected = {"in_only": {"x": "pos"}, "out_only": {"x": "neg"}, "in_plus_out": {"in:x": "pos", "out:x": "neg"}}
        assert pool_gold == expected[mode]
