"""Featurizer, linear model, and trainer tests."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from selfaug.corpus import Dataset, Example, LabelSpace, ValidationError
from selfaug.textmodel import (
    EarlyStop,
    FeatureConfig,
    FixedSteps,
    ModelParams,
    NumericError,
    TrainConfig,
    average_checkpoints,
    evaluate,
    featurize,
    featurize_matrix,
    fit,
    init_params,
    loss_and_grad,
    predict,
    score_predictions,
    tokenize,
    train,
)

words = st.text(alphabet="abcdefg ", min_size=1, max_size=40).filter(str.strip)


class TestFeaturize:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("The Movie's GOOD, 10/10!") == ["the", "movie's", "good", "10", "10"]

    def test_hash_dim_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            FeatureConfig(hash_dim=1000)
        with pytest.raises(ValidationError):
            FeatureConfig(ngram_orders=frozenset())

    @given(words)
    @settings(max_examples=50, deadline=None)
    def test_counts_are_positive_and_bounded(self, text):
        config = FeatureConfig(hash_dim=256)
        vec = featurize(Example(id="h:0", segment_a=text), config)
        assert all(0 <= bucket < 256 for bucket in vec)
        assert all(count >= 1 for count in vec.values())
        # Unigrams + bigrams can never exceed 2n - 1 total count.
        n = len(tokenize(text))
        assert sum(vec.values()) == max(2 * n - 1, 0)

    def test_pair_separator_avoids_collision(self, small_fc):
        joined = featurize(Example(id="a", segment_a="alpha beta"), small_fc)
        paired = featurize(Example(id="b", segment_a="alpha", segment_b="beta"), small_fc)
        assert joined != paired

    def test_matrix_rows_match_dict(self, small_fc):
        examples = [
            Example(id="m:0", segment_a="one two two"),
            Example(id="m:1", segment_a="three"),
        ]
        x = featurize_matrix(examples, small_fc)
        assert x.shape == (2, small_fc.hash_dim)
        for row, ex in enumerate(examples):
            vec = featurize(ex, small_fc)
            dense = x[row].toarray()[0]
            for bucket, count in vec.items():
                assert dense[bucket] == count
            assert dense.sum() == sum(vec.values())


class TestModelParams:
    def test_bytes_roundtrip_is_exact(self, binary_space):
        rng = np.random.default_rng(0)
        params = ModelParams(
            rng.normal(size=(2, 64)), rng.normal(size=2), "classification", binary_space
        )
        restored = ModelParams.from_bytes(params.to_bytes())
        assert np.array_equal(restored.weights, params.weights)
        assert np.array_equal(restored.bias, params.bias)
        assert restored.label_space == params.label_space
        assert restored.params_hash() == params.params_hash()

    def test_save_load(self, tmp_path, binary_space):
        params = init_params(binary_space, FeatureConfig(hash_dim=32))
        path = tmp_path / "m.model"
        params.save(path)
        assert ModelParams.load(path).params_hash() == params.params_hash()

    def test_shape_mismatch_rejected(self, binary_space):
        with pytest.raises(ValidationError):
            ModelParams(np.zeros((3, 8)), np.zeros(3), "classification", binary_space)

    def test_nonfinite_rejected(self, binary_space):
        w = np.zeros((2, 8))
        w[0, 0] = np.inf
        with pytest.raises(NumericError):
            ModelParams(w, np.zeros(2), "classification", binary_space)

    def test_regression_head_single_output(self):
        space = LabelSpace.continuous(0, 1)
        params = init_params(space, FeatureConfig(hash_dim=32))
        assert params.head == "regression"
        assert params.num_outputs == 1


SNAPSHOT = ModelParams(
    np.random.default_rng(0).normal(size=(2, 8)),
    np.array([0.5, -0.5]),
    "classification",
    LabelSpace.categorical(("pos", "neg")),
).to_bytes()
HEADER, _, PAYLOAD = SNAPSHOT.partition(b"\n")


def _with_header(old: bytes, new: bytes) -> bytes:
    return HEADER.replace(old, new) + b"\n" + PAYLOAD


MALFORMED = {
    "trailing-bytes": SNAPSHOT + b"\0" * 8,
    "truncated-payload": SNAPSHOT[:-8],
    "truncated-header": SNAPSHOT[:40],
    "garbage": b"garbage \xff\xfe",
    "header-not-object": b"[1, 2]\n",
    "dtype": _with_header(b'"<f8"', b'"<f4"'),
    "version": _with_header(b'"version": 1', b'"version": 2'),
    "head": _with_header(b'"head": "classification"', b'"head": "ranking"'),
    "negative-hash-dim": _with_header(b'"hash_dim": 8', b'"hash_dim": -8'),
    "missing-key": _with_header(b'"dtype": "<f8", ', b""),
    "label-space": _with_header(b'"categorical"', b'"nominal"'),
    "nan-parameters": HEADER + b"\n" + b"\xff" * len(PAYLOAD),
}


class TestSnapshotValidation:
    @pytest.mark.parametrize("blob", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_rejected(self, blob):
        with pytest.raises(ValidationError):
            ModelParams.from_bytes(blob)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, len(SNAPSHOT) - 1))
    def test_any_truncation_rejected(self, cut):
        with pytest.raises(ValidationError):
            ModelParams.from_bytes(SNAPSHOT[:cut])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, len(SNAPSHOT) - 1), st.integers(0, 255)), max_size=4),
        st.integers(0, len(SNAPSHOT)),
    )
    def test_mutated_blob_parses_or_raises_validation_error(self, edits, cut):
        blob = bytearray(SNAPSHOT)
        for i, byte in edits:
            blob[i] = byte
        try:
            ModelParams.from_bytes(bytes(blob[:cut]))
        except ValidationError:
            pass


class TestPredict:
    def test_argmax_tie_breaks_low_index(self, small_fc, binary_space):
        params = init_params(binary_space, small_fc)  # all-zero: exact tie
        pred = predict(params, Example(id="t", segment_a="anything"), small_fc)
        assert pred.argmax_label == binary_space.classes[0]
        assert pred.confidence == pytest.approx(0.5)

    def test_regression_clamped(self, small_fc):
        space = LabelSpace.continuous(0.0, 1.0)
        params = init_params(space, small_fc)
        params.bias[0] = 10.0
        pred = predict(params, Example(id="t", segment_a="x"), small_fc)
        assert pred.value == 1.0


class TestMetrics:
    def test_accuracy(self):
        assert score_predictions(["a", "b", "a"], ["a", "b", "b"], "accuracy") == pytest.approx(2 / 3)

    def test_f1_needs_positive_class(self):
        with pytest.raises(ValidationError):
            score_predictions(["a"], ["a"], "f1")

    def test_f1_value(self):
        got = score_predictions(
            ["pos", "pos", "neg", "neg"], ["pos", "neg", "pos", "neg"], "f1:pos"
        )
        assert got == pytest.approx(0.5)

    def test_f1_zero_when_no_true_positives(self):
        assert score_predictions(["neg", "neg"], ["pos", "pos"], "f1:pos") == 0.0

    def test_spearman_constant_input_is_zero(self):
        assert score_predictions([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "spearman") == 0.0

    def test_spearman_perfect_rank(self):
        assert score_predictions([0.1, 0.5, 0.9], [1.0, 2.0, 3.0], "spearman") == pytest.approx(1.0)

    def test_unknown_metric(self):
        with pytest.raises(ValidationError):
            score_predictions(["a"], ["a"], "auc")

    def test_empty_gold_rejected(self):
        with pytest.raises(ValidationError):
            score_predictions([], [], "accuracy")


class TestLossAndGrad:
    def test_loss_decreases_under_gradient_step(self):
        rng = np.random.default_rng(0)
        x = sp.csr_matrix(rng.poisson(0.5, size=(16, 32)).astype(float))
        y = rng.integers(0, 2, size=16)
        w, b = np.zeros((2, 32)), np.zeros(2)
        loss0, gw, gb = loss_and_grad(w, b, x, y, 1e-4)
        loss1, _, _ = loss_and_grad(w - 0.5 * gw, b - 0.5 * gb, x, y, 1e-4)
        assert loss1 < loss0

    def test_regression_loss_is_half_mse(self):
        x = sp.csr_matrix(np.eye(3))
        y = np.array([1.0, 2.0, 3.0])
        w, b = np.zeros((1, 3)), np.zeros(1)
        loss, _, _ = loss_and_grad(w, b, x, y, 0.0, head="regression")
        assert loss == pytest.approx(0.5 * np.mean(y ** 2))


def _training_setup(small_fc, tiny_dataset):
    x = featurize_matrix(tiny_dataset.examples, small_fc)
    labels = [ex.label for ex in tiny_dataset.examples]
    init = init_params(tiny_dataset.label_space, small_fc)
    return x, labels, init


class TestFit:
    def test_determinism_per_seed(self, small_fc, tiny_dataset):
        x, labels, init = _training_setup(small_fc, tiny_dataset)
        config = TrainConfig(seed=3, stopping=FixedSteps(60, 30, 2), max_steps=60)
        a, _ = fit(init.copy(), x, labels, config)
        b, _ = fit(init.copy(), x, labels, config)
        assert a.to_bytes() == b.to_bytes()

    def test_early_stop_requires_dev(self, small_fc, tiny_dataset):
        x, labels, init = _training_setup(small_fc, tiny_dataset)
        with pytest.raises(ValidationError):
            fit(init, x, labels, TrainConfig(stopping=EarlyStop()))

    def test_early_stop_keeps_best_checkpoint(self, small_fc, tiny_dataset):
        x, labels, init = _training_setup(small_fc, tiny_dataset)
        config = TrainConfig(seed=0, max_steps=200, stopping=EarlyStop(patience=3, eval_every=10))
        model, trace = fit(init, x, labels, config, dev=(x, labels))
        best = max(rec["dev_metric"] for rec in trace)
        got = evaluate(
            model,
            Dataset("t", tiny_dataset.label_space, tiny_dataset.examples),
            "accuracy",
            small_fc,
        )
        assert got == pytest.approx(best)

    def test_step_zero_snapshot_counts(self, small_fc, tiny_dataset):
        """With an immediately harmful objective the untrained model can win."""
        x, labels, init = _training_setup(small_fc, tiny_dataset)
        # Dev labels inverted: any learning hurts, so step 0 stays best.
        inverted = ["neg" if l == "pos" else "pos" for l in labels]
        config = TrainConfig(seed=0, max_steps=100, stopping=EarlyStop(patience=2, eval_every=10))
        model, trace = fit(init.copy(), x, labels, config, dev=(x, inverted))
        assert trace[0]["step"] == 0
        assert model.to_bytes() == init.to_bytes()

    def test_fixed_steps_checkpoint_count(self, small_fc, tiny_dataset):
        x, labels, init = _training_setup(small_fc, tiny_dataset)
        config = TrainConfig(seed=1, stopping=FixedSteps(90, 30, 2))
        _, trace = fit(init, x, labels, config)
        assert [rec["step"] for rec in trace] == [30, 60, 90]

    def test_average_last_validated(self):
        with pytest.raises(ValidationError):
            FixedSteps(total=60, checkpoint_every=30, average_last=3)

    def test_empty_training_set_rejected(self, small_fc, binary_space):
        init = init_params(binary_space, small_fc)
        empty = sp.csr_matrix((0, small_fc.hash_dim))
        with pytest.raises(ValidationError):
            fit(init, empty, [], TrainConfig(stopping=FixedSteps(10, 10, 1)))

    def test_lr_decay_changes_result(self, small_fc, tiny_dataset):
        x, labels, init = _training_setup(small_fc, tiny_dataset)
        base = TrainConfig(seed=0, stopping=FixedSteps(60, 60, 1))
        decayed = TrainConfig(seed=0, lr_decay=0.5, stopping=FixedSteps(60, 60, 1))
        a, _ = fit(init.copy(), x, labels, base)
        b, _ = fit(init.copy(), x, labels, decayed)
        assert a.to_bytes() != b.to_bytes()


class TestAverageCheckpoints:
    def test_mean_of_params(self, binary_space):
        a = ModelParams(np.full((2, 4), 1.0), np.zeros(2), "classification", binary_space)
        b = ModelParams(np.full((2, 4), 3.0), np.ones(2), "classification", binary_space)
        avg = average_checkpoints([a, b])
        assert np.array_equal(avg.weights, np.full((2, 4), 2.0))
        assert np.array_equal(avg.bias, np.full(2, 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            average_checkpoints([])


class TestTrain:
    def test_learns_tiny_dataset(self, tiny_model, tiny_dataset, small_fc):
        assert evaluate(tiny_model, tiny_dataset, "accuracy", small_fc) == 1.0

    def test_requires_labels(self, small_fc, binary_space):
        ds = Dataset("u", binary_space, (Example(id="u:0", segment_a="x"),))
        init = init_params(binary_space, small_fc)
        with pytest.raises(ValidationError):
            train(init, ds, TrainConfig(stopping=FixedSteps(10, 10, 1)), feature_config=small_fc)

    def test_regression_end_to_end(self, small_fc):
        space = LabelSpace.continuous(0.0, 2.0)
        examples = tuple(
            Example(id=f"r:{i}", segment_a=("high " * (i % 3 + 1)).strip(), label=float(i % 3))
            for i in range(30)
        )
        ds = Dataset("reg", space, examples)
        init = init_params(space, small_fc)
        model, _ = train(
            init, ds, TrainConfig(seed=0, stopping=FixedSteps(200, 200, 1)),
            feature_config=small_fc,
        )
        rho = evaluate(model, ds, "spearman", small_fc)
        assert rho > 0.9
