"""Featurizer, linear model, and trainer tests."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import selfaug.textmodel as textmodel
from selfaug.corpus import Dataset, Example, LabelSpace, ValidationError
from selfaug.textmodel import (
    CSRRows,
    EarlyStop,
    FeatureConfig,
    FixedSteps,
    ModelParams,
    NumericError,
    TrainConfig,
    _metric_on_matrix,
    _row_buckets,
    _softmax,
    _stack_rows,
    average_checkpoints,
    evaluate,
    featurize,
    featurize_matrix,
    fit,
    init_params,
    loss_and_grad,
    predict,
    predict_labels,
    predict_proba_matrix,
    predict_values_matrix,
    score_predictions,
    tokenize,
    train,
)

words = st.text(alphabet="abcdefg ", min_size=1, max_size=40).filter(str.strip)
# Segments that may hold no token ("", "?!") or fewer than max(orders) - 1.
texts = st.text(alphabet="abcAB '?!\u212a", max_size=12)


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
        """Each row against ``featurize``: all rows in one call, then one call
        per row in order and in reverse, each from a cold cache."""
        cases = [
            [("one two two", None), ("three", None)],
            # Pairs whose segments concatenate to the same text.
            [("ab", "c"), ("a", "bc"), ("abc", None)],
            # A single segment that spells the pair ("a", "b") as "{len(a)}:{a}{b}".
            [("a", "b"), ("1:ab", None), ("1:a", "b")],
            # Token-less segments.
            [("...", None), ("...", "..."), ("...", "x y"), ("x y", "..."), ("...", ""), ("x", "y...")],
        ]
        for rows in cases:
            examples = [Example(id=f"m:{i}", segment_a=a, segment_b=b) for i, (a, b) in enumerate(rows)]
            _row_buckets.cache_clear()
            together = featurize_matrix(examples, small_fc)
            assert together.shape == (len(examples), small_fc.hash_dim)
            for order in (examples, examples[::-1]):
                _row_buckets.cache_clear()
                apart = {ex.id: featurize_matrix([ex], small_fc) for ex in order}
                for row, ex in enumerate(examples):
                    vec = featurize(ex, small_fc)
                    for x, i in ((together, row), (apart[ex.id], 0)):
                        lo, hi = x.indptr[i], x.indptr[i + 1]
                        assert x.indices[lo:hi].tolist() == sorted(vec), rows
                        assert x.data[lo:hi].tolist() == [vec[bucket] for bucket in sorted(vec)], rows

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(texts.filter(bool), st.none() | texts), max_size=8),
        orders=st.sampled_from([{1}, {2}, {3}, {1, 4}, {1, 2, 3}]),
        other_orders=st.sampled_from([{1}, {1, 2}, {2, 5}]),
        bits=st.integers(1, 32),
        other_bits=st.integers(1, 32),
    )
    def test_matrix_bytes_match_the_per_example_build(self, rows, orders, other_orders, bits, other_bits):
        """Byte for byte against the former body, with a cold cache, under two
        configs in alternation, and again with a warm cache."""
        examples = [Example(id=f"r:{i}", segment_a=a, segment_b=b) for i, (a, b) in enumerate(rows)]
        config = FeatureConfig(ngram_orders=frozenset(orders), hash_dim=2 ** bits)
        other = FeatureConfig(ngram_orders=frozenset(other_orders), hash_dim=2 ** other_bits)
        _row_buckets.cache_clear()
        for fc in (config, other, config, other):
            got = featurize_matrix(examples, fc)
            _assert_same_csr(got, _reference_featurize_matrix(examples, fc), _rule_dtype(got))

    def test_a_repeated_row_is_one_cache_entry(self, small_fc):
        row = Example(id="p:0", segment_a="alpha beta", segment_b="gamma")
        other = FeatureConfig(ngram_orders=frozenset({3}), hash_dim=64)
        _row_buckets.cache_clear()
        featurize_matrix([row, row], small_fc)
        info = _row_buckets.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        featurize_matrix([row], other)
        assert _row_buckets.cache_info().currsize == 2
        assert _row_buckets.cache_info().maxsize == 1 << 15


def _rule_dtype(m):
    """The index dtype a built matrix gets: int32 unless its width or entry
    count exceeds the int32 maximum."""
    return np.int64 if max(m.shape[1], m.data.size) > np.iinfo(np.int32).max else np.int32


def _assert_same_csr(got, ref, index_dtype):
    """Same shape, ``data`` of the same dtype and bytes, and ``indices`` and
    ``indptr`` of the same values, held as ``index_dtype``."""
    assert got.shape == ref.shape
    assert got.data.dtype == ref.data.dtype and got.data.tobytes() == ref.data.tobytes()
    for name in ("indices", "indptr"):
        a = getattr(got, name)
        assert a.dtype == index_dtype and np.array_equal(a, getattr(ref, name))


class TestRowSelection:
    """``CSRRows[rows]`` and ``_stack_rows`` against scipy's ``x[rows]`` and
    ``vstack``, value for value and row for row; scipy is the reference here
    only. A selection keeps ``x``'s index dtype, a stack takes the rule's."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(texts.filter(bool), st.none() | texts), max_size=8),
        more=st.lists(st.tuples(texts.filter(bool), st.none() | texts), max_size=4),
        bits=st.sampled_from([4, 12, 31, 32]),
        wide=st.booleans(),
        draw=st.data(),
    )
    def test_bytes_match_scipy(self, rows, more, bits, wide, draw):
        fc = FeatureConfig(hash_dim=2 ** bits)
        x, y = (
            featurize_matrix([Example(id=f"r:{i}", segment_a=a, segment_b=b) for i, (a, b) in enumerate(part)], fc)
            for part in (rows, more)
        )
        ref_x, ref_y = (sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape) for m in (x, y))
        if wide:  # int64 indices where the rule gives int32
            x = CSRRows(x.data, x.indices.astype(np.int64), x.indptr.astype(np.int64), x.shape)
        n = x.shape[0]
        idx = np.array(draw.draw(st.lists(st.integers(0, n - 1), max_size=10) if n else st.just([])), dtype=np.int64)
        mask, y_mask = (
            np.array(draw.draw(st.lists(st.booleans(), min_size=m.shape[0], max_size=m.shape[0])), dtype=bool)
            for m in (x, y)
        )
        for picked in (idx, mask, np.array([], dtype=np.int64)):
            _assert_same_csr(x[picked], ref_x[picked], x.indices.dtype)
        for blocks, ref in (
            ([x, y[y_mask]], sp.vstack([ref_x, ref_y[y_mask]], format="csr")),
            ([y, x[idx]], sp.vstack([ref_y, ref_x[idx]], format="csr")),
        ):
            stacked = _stack_rows(blocks)
            _assert_same_csr(stacked, ref, _rule_dtype(stacked))


class TestIndexDtype:
    """One rule for every matrix ``selfaug`` builds: int32 index arrays unless
    the width or the entry count exceeds the int32 maximum. Row selection
    keeps the matrix's own dtype."""

    @pytest.mark.parametrize("bits, dtype", [(4, np.int32), (30, np.int32), (31, np.int64), (32, np.int64)])
    @pytest.mark.parametrize("n", [0, 2])
    def test_built_matrices(self, bits, dtype, n):
        fc = FeatureConfig(hash_dim=2 ** bits)
        x = featurize_matrix([Example(id=f"r:{i}", segment_a=f"w{i} v") for i in range(n)], fc)
        for built in (x, _stack_rows([x, x]), _stack_rows([x[[]], x[[]]])):
            assert built.indices.dtype == built.indptr.dtype == dtype
        assert x[[]].shape == (0, 2 ** bits)

    def test_an_entry_count_past_int32_gives_int64(self):
        n = np.iinfo(np.int32).max + 1  # broadcast views: no memory per entry
        x = textmodel._csr(
            np.broadcast_to(1.0, (n,)), np.broadcast_to(np.int64(0), (n,)), np.array([0, n]), (1, 8)
        )
        assert x.indices.dtype == x.indptr.dtype == np.int64

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_selection_keeps_the_dtype(self, small_fc, dtype):
        x = featurize_matrix(PREDICT_EXAMPLES, small_fc)
        x = CSRRows(x.data, x.indices.astype(dtype), x.indptr.astype(dtype), x.shape)
        for rows in ([], [2, 0, 2], np.arange(x.shape[0]) % 2 == 0):
            picked = x[rows]
            assert picked.indices.dtype == picked.indptr.dtype == dtype

    @pytest.mark.parametrize("head", ["classification", "regression"])
    def test_kernels_give_the_same_bytes_for_either_dtype(self, small_fc, head):
        x = featurize_matrix(PREDICT_EXAMPLES, small_fc)
        wide = CSRRows(x.data, x.indices.astype(np.int64), x.indptr.astype(np.int64), x.shape)
        assert x.indices.dtype == np.int32
        space = LabelSpace.categorical(("a", "b", "c")) if head == "classification" else LabelSpace.continuous(0, 1)
        params = init_params(space, small_fc)
        rng = np.random.default_rng(3)
        params.weights[:] = rng.normal(size=params.weights.shape)
        y = rng.integers(0, 3, x.shape[0]) if head == "classification" else rng.normal(size=x.shape[0])
        if head == "classification":
            assert predict_proba_matrix(params, x).tobytes() == predict_proba_matrix(params, wide).tobytes()
        else:
            assert predict_values_matrix(params, x).tobytes() == predict_values_matrix(params, wide).tobytes()
        for a, b in zip(
            loss_and_grad(params.weights, params.bias, x, y, 1e-3, head),
            loss_and_grad(params.weights, params.bias, wide, y, 1e-3, head),
        ):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _reference_featurize_matrix(examples, config):
    """``featurize_matrix`` as it was written before the segment memo."""
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for ex in examples:
        vec = featurize(ex, config)
        for bucket in sorted(vec):
            indices.append(bucket)
            data.append(float(vec[bucket]))
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(examples), config.hash_dim),
    )


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


PREDICT_EXAMPLES = [
    Example(id=f"t:{i}", segment_a=t)
    for i, t in enumerate(["good fresh plot", "bad slow plot", "a plain report", "good but slow", "x"])
]


class TestPredictLabels:
    """``predict_labels`` agrees row by row with the single-example ``predict``."""

    @staticmethod
    def _check_against_predict(params, fc):
        labels, confidences = predict_labels(params, featurize_matrix(PREDICT_EXAMPLES, fc))
        preds = [predict(params, ex, fc) for ex in PREDICT_EXAMPLES]
        assert labels == [p.argmax_label for p in preds]
        assert confidences.tolist() == [p.confidence for p in preds]
        return labels, confidences

    def test_all_zero_model_ties_go_to_the_lowest_index(self, small_fc, binary_space):
        labels, confidences = self._check_against_predict(init_params(binary_space, small_fc), small_fc)
        assert labels == ["pos"] * len(PREDICT_EXAMPLES)
        assert confidences.tolist() == [0.5] * len(PREDICT_EXAMPLES)

    def test_trained_three_class_model(self, small_fc):
        space = LabelSpace.categorical(("pos", "neg", "neutral"))
        rows = [("good great fresh", "pos"), ("bad awful slow", "neg"), ("plain report today", "neutral")]
        examples = tuple(
            Example(id=f"c:{i}", segment_a=text, label=label) for i, (text, label) in enumerate(rows * 4)
        )
        model, _ = train(
            init_params(space, small_fc), Dataset("three", space, examples),
            TrainConfig(seed=0, stopping=FixedSteps(40, 40, 1)), feature_config=small_fc,
        )
        labels, _ = self._check_against_predict(model, small_fc)
        assert set(labels) == {"pos", "neg", "neutral"}

    def test_regression_values_clamped_without_confidences(self, small_fc):
        params = init_params(LabelSpace.continuous(0.0, 1.0), small_fc)
        params.bias[0] = 10.0
        values, confidences = predict_labels(params, featurize_matrix(PREDICT_EXAMPLES, small_fc))
        assert confidences is None
        assert values == [predict(params, ex, small_fc).value for ex in PREDICT_EXAMPLES]
        assert values == [1.0] * len(PREDICT_EXAMPLES)

    def test_empty_matrix(self, small_fc, binary_space):
        labels, confidences = predict_labels(
            init_params(binary_space, small_fc), featurize_matrix([], small_fc)
        )
        assert labels == [] and confidences.shape == (0,)


class TestPredictMatchesMatmul:
    """The prediction functions against ``x @ W.T + b``, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        head=st.sampled_from(["classification", "regression"]),
        index_dtype=st.sampled_from([np.int32, np.int64]),
        fortran=st.booleans(),
        seed=st.integers(0, 2 ** 16),
    )
    def test_bytes_match_the_public_matmul(self, data, head, index_dtype, fortran, seed):
        d = data.draw(st.integers(1, 12))
        c = 1 if head == "regression" else data.draw(st.integers(2, 4))
        rows = data.draw(st.lists(st.lists(st.integers(0, d - 1), max_size=6), max_size=8))
        rng = np.random.default_rng(seed)
        indices = np.array([j for row in rows for j in row], dtype=index_dtype)
        indptr = np.cumsum([0] + [len(row) for row in rows]).astype(index_dtype)
        x = sp.csr_matrix((rng.uniform(-3.0, 3.0, indices.size), indices, indptr), shape=(len(rows), d))
        x.indices, x.indptr = indices, indptr  # the constructor may narrow int64
        weights = rng.normal(size=(c, d))
        weights[rng.random(weights.shape) < 0.2] = -0.0
        if fortran:  # the ``wt.T`` view over ``[columns, outputs]`` that ``fit``'s evals pass
            weights = np.ascontiguousarray(weights.T).T
        if head == "classification":
            space = LabelSpace.categorical([f"k{i}" for i in range(c)])
        else:
            space = LabelSpace.continuous(-1.0, 1.0)
        params = ModelParams(weights, rng.normal(size=c), head, space)
        logits = x @ params.weights.T + params.bias
        if head == "classification":
            got, ref = predict_proba_matrix(params, x), _softmax(logits)
            labels, confidences = predict_labels(params, x)
            idx = np.argmax(ref, axis=1)
            assert labels == [space.classes[i] for i in idx]
            assert confidences.tobytes() == ref[np.arange(len(rows)), idx].tobytes()
        else:
            got, ref = predict_values_matrix(params, x), np.clip(logits[:, 0], -1.0, 1.0)
            assert predict_labels(params, x) == (ref.tolist(), None)
        assert (got.dtype, got.shape, got.strides) == (ref.dtype, ref.shape, ref.strides)
        assert got.tobytes() == ref.tobytes()

    def test_width_mismatch_is_an_error(self, small_fc, binary_space):
        x = featurize_matrix(PREDICT_EXAMPLES, FeatureConfig(hash_dim=small_fc.hash_dim * 2))
        with pytest.raises(ValueError, match="columns"):
            predict_labels(init_params(binary_space, small_fc), x)


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

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        head=st.sampled_from(["classification", "regression"]),
        l2=st.sampled_from([None, 0.0, 0.3]),
        index_dtype=st.sampled_from([np.int32, np.int64]),
        fortran=st.booleans(),
        seed=st.integers(0, 2 ** 16),
    )
    def test_matches_the_public_matmul_body(self, data, head, l2, index_dtype, fortran, seed):
        """Byte for byte, on rows that may be empty, unsorted or hold a column twice."""
        d = data.draw(st.integers(1, 10))
        c = 1 if head == "regression" else data.draw(st.integers(2, 4))
        rows = data.draw(st.lists(st.lists(st.integers(0, d - 1), max_size=6), min_size=1, max_size=8))
        rng = np.random.default_rng(seed)
        indices = np.array([j for row in rows for j in row], dtype=index_dtype)
        indptr = np.cumsum([0] + [len(row) for row in rows]).astype(index_dtype)
        values = rng.uniform(-3.0, 3.0, indices.size)
        x = sp.csr_matrix((values, indices, indptr), shape=(len(rows), d))
        x.indices, x.indptr = indices, indptr  # the constructor may narrow int64
        weights = rng.normal(size=(c, d))
        weights[rng.random(weights.shape) < 0.2] = -0.0
        weights = np.asfortranarray(weights) if fortran else weights
        bias = rng.normal(size=c)
        y = rng.integers(0, c, len(rows)) if head == "classification" else rng.normal(size=len(rows))
        ref = _reference_loss_and_grad(weights, bias, x, y, l2, head)
        for operand in (x, CSRRows(values, indices, indptr, x.shape)):
            got = loss_and_grad(weights, bias, operand, y, l2, head)
            assert np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes()
            for a, b in zip(got[1:], ref[1:]):
                assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
                assert a.tobytes() == b.tobytes()


def _reference_loss_and_grad(weights, bias, x, y, l2, head="classification"):
    """``loss_and_grad`` through scipy's public ``@``, as it was written before
    it called the kernels directly."""
    n = x.shape[0]
    logits = x @ weights.T + bias
    if head == "classification":
        probs = _softmax(logits)
        eps = 1e-12
        loss = -np.log(probs[np.arange(n), y] + eps).mean()
        delta = probs
        delta[np.arange(n), y] -= 1.0
        delta /= n
    else:
        resid = logits[:, 0] - y
        loss = 0.5 * float(resid @ resid) / n
        delta = (resid / n)[:, None]
    grad_w = np.asarray((x.T @ delta).T)
    grad_b = delta.sum(axis=0)
    if l2 is not None:
        grad_w = grad_w + l2 * weights
        loss += 0.5 * l2 * float((weights * weights).sum())
    return float(loss), grad_w, grad_b


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

    @pytest.mark.parametrize("n, batch_size", [(5, 32), (40, 16), (40, 40)])
    @pytest.mark.parametrize("early", [False, True])
    def test_builds_no_sparse_matrix_per_step(self, fresh_python, n, batch_size, early):
        """``fit``, in a fresh interpreter, loads scipy's kernels and no other part of scipy."""
        out = fresh_python(f"""
import sys
from selfaug.corpus import Example, LabelSpace
from selfaug.textmodel import EarlyStop, FeatureConfig, FixedSteps, TrainConfig, featurize_matrix, fit, init_params

fc = FeatureConfig(hash_dim=2 ** 12)
space = LabelSpace.categorical(("a", "b", "c"))
x = featurize_matrix([Example(id=str(i), segment_a=f"w{{i % 7}} v{{i % 5}} u") for i in range({n})], fc)
labels = [space.classes[i % 3] for i in range({n})]
stopping = EarlyStop(patience=10, eval_every=10) if {early} else FixedSteps(60, 20, 2)
config = TrainConfig(seed=3, batch_size={batch_size}, max_steps=60, stopping=stopping)
fit(init_params(space, fc), x, labels, config, dev=(x, labels) if {early} else None)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")
        assert out.strip() == "['scipy.sparse._sparsetools']"

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

    def test_unlabeled_dev_row_rejected(self, tiny_dataset, small_fc, binary_space):
        """The early-stopping dev set is checked like the training set, by name."""
        dev = Dataset("half-dev", binary_space, (
            Example(id="d:0", segment_a="good film", label="pos"),
            Example(id="d:1", segment_a="bad film"),
        ))
        init = init_params(binary_space, small_fc)
        with pytest.raises(ValidationError, match="half-dev"):
            train(init, tiny_dataset, TrainConfig(max_steps=10), dev_set=dev, feature_config=small_fc)

    def test_unlabeled_row_error_names_the_dataset(self, tiny_model, tiny_dataset, small_fc):
        rows = tiny_dataset.examples[:3] + (tiny_dataset.examples[3].without_label(),)
        with pytest.raises(ValidationError, match="partial"):
            evaluate(tiny_model, Dataset("partial", tiny_dataset.label_space, rows), "accuracy", small_fc)

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


def _dense_fit(init, x, labels, config, dev=None, metric="accuracy"):
    """Reference trainer: the dense step ``w -= lr * g`` on the full weights.

    Same rng, permutation, early stopping and checkpoint averaging as ``fit``;
    ``loss_and_grad`` supplies the loss and gradient over all columns.
    """
    classes = init.label_space.classes
    y = np.array([classes.index(l) for l in labels] if init.head == "classification" else labels)
    w, b = init.weights.copy(), init.bias.copy()

    def snap():
        return ModelParams(w.copy(), b.copy(), init.head, init.label_space)

    def score(p):
        return _metric_on_matrix(p, dev[0], dev[1], metric)

    early = isinstance(config.stopping, EarlyStop)
    trace, checkpoints = [], []
    if early:
        best = snap()
        best_score, since_best = score(best), 0
        trace.append({"step": 0, "loss": None, "dev_metric": best_score})
    total = config.max_steps if early else config.stopping.total
    rng = np.random.default_rng(config.seed)
    order, cursor = rng.permutation(x.shape[0]), 0
    for step in range(1, total + 1):
        if cursor >= x.shape[0]:
            order, cursor = rng.permutation(x.shape[0]), 0
        batch = order[cursor : cursor + config.batch_size]
        cursor += config.batch_size
        loss, gw, gb = loss_and_grad(w, b, x[batch], y[batch], config.l2, init.head)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at step {step}")
        lr = config.learning_rate / (1.0 + config.lr_decay * (step - 1))
        w -= lr * gw
        b -= lr * gb
        if early and (step % config.stopping.eval_every == 0 or step == total):
            current = snap()
            s = score(current)
            trace.append({"step": step, "loss": loss, "dev_metric": s})
            if s > best_score:
                best, best_score, since_best = current, s, 0
            else:
                since_best += 1
                if since_best >= config.stopping.patience:
                    break
        elif not early and step % config.stopping.checkpoint_every == 0:
            checkpoints.append(snap())
            trace.append({"step": step, "loss": loss, "dev_metric": None})
    if early:
        return best, trace
    if not checkpoints:
        return snap(), trace
    return average_checkpoints(checkpoints[-config.stopping.average_last :]), trace


def _random_rows(rng, n, hash_dim, nnz):
    """CSR counts with sorted distinct columns per row, like ``featurize_matrix``."""
    indices = np.concatenate([np.sort(rng.choice(hash_dim, nnz, replace=False)) for _ in range(n)])
    data = rng.integers(1, 3, n * nnz).astype(float)
    return sp.csr_matrix((data, indices, np.arange(n + 1) * nnz), shape=(n, hash_dim))


def _uniform_init(space, hash_dim, seed):
    """A model whose weights, then bias, are drawn uniformly from [-0.5, 0.5)."""
    init = init_params(space, FeatureConfig(hash_dim=hash_dim))
    rng = np.random.default_rng(seed)
    init.weights[:] = rng.uniform(-0.5, 0.5, size=init.weights.shape)
    init.bias[:] = rng.uniform(-0.5, 0.5, size=init.bias.shape)
    return init


_CLS = LabelSpace.categorical(("a", "b", "c"))
_REG = LabelSpace.continuous(0.0, 3.0)


def _parity_case(case):
    """``(init, x, labels, config, dev, metric)`` for one named parity case."""
    rng = np.random.default_rng(11)
    hash_dim = 2 ** 18 if case == "hash-2^18" else 2 ** 12
    head = "regression" if case.startswith("regression") else "classification"
    space = _REG if head == "regression" else _CLS
    n = 40
    if case == "single-column":
        # Every row holds column 7 or nothing: each batch touches one column or none.
        rows = np.arange(n)[np.arange(n) % 5 != 0]
        x = sp.csr_matrix((np.full(rows.size, 2.0), (rows, np.full(rows.size, 7))), shape=(n, hash_dim))
    else:
        x = _random_rows(rng, n, hash_dim, 12)
    if head == "regression":
        labels = list(rng.uniform(0.0, 3.0, n))
    else:
        labels = [space.classes[i] for i in rng.integers(0, 3, n)]
    if case in ("fixed-avg-random", "regression-random", "negative-zero", "hash-2^18"):
        init = _uniform_init(space, hash_dim, seed=5)
    else:
        init = init_params(space, FeatureConfig(hash_dim=hash_dim))
    untouched = np.setdiff1d(np.arange(hash_dim), x.indices)
    if case == "negative-zero":
        init.weights[:, ::3] = -0.0  # as a loaded snapshot can hold
    elif case == "disjoint-init":
        # Like a TA base model trained on other rows: weight only where x has none.
        init.weights[:, untouched[::7]] = rng.uniform(-0.5, 0.5, (init.num_outputs, untouched[::7].size))
    elif case == "signed-zero-inactive":
        init.weights[:, untouched[::5]] = rng.uniform(-0.5, 0.5, (init.num_outputs, untouched[::5].size))
        init.weights[:, untouched[1::5]] = -0.0
    elif case == "signed-zero-active":
        init.weights[:, x.indices] = -0.0
    elif case == "huge-init":
        init.weights[1, untouched[0]] = 1e152  # its square alone exceeds the 1e300 margin
    fixed = FixedSteps(60, 20, 3)
    config = {
        "early-stop-zeros": TrainConfig(seed=2, max_steps=200, stopping=EarlyStop(patience=2, eval_every=10)),
        # A large l2 makes the trace's loss show the rounding of the L2 sum.
        "fixed-avg-random": TrainConfig(seed=2, l2=0.5, stopping=fixed),
        "regression-zeros": TrainConfig(seed=3, stopping=fixed),
        "regression-random": TrainConfig(seed=3, max_steps=80, stopping=EarlyStop(patience=3, eval_every=20)),
        # Early stopping returns a snapshot as it is; averaging would add +0.0.
        "negative-zero": TrainConfig(seed=4, max_steps=60, stopping=EarlyStop(patience=6, eval_every=10)),
        "lr-decay": TrainConfig(seed=4, lr_decay=0.05, stopping=fixed),
        "full-batch": TrainConfig(seed=6, batch_size=64, stopping=fixed),
        "single-column": TrainConfig(seed=6, batch_size=3, stopping=fixed),
        "hash-2^18": TrainConfig(seed=7, stopping=FixedSteps(40, 20, 2)),
        "disjoint-init": TrainConfig(seed=8, l2=0.5, stopping=fixed),
        "signed-zero-inactive": TrainConfig(seed=8, max_steps=60, stopping=EarlyStop(patience=6, eval_every=10)),
        # One row per step and a snapshot per step: the best one holds columns
        # that are active but not yet touched, decayed from -0.0.
        "signed-zero-active": TrainConfig(seed=1, batch_size=1, max_steps=40, stopping=EarlyStop(patience=40, eval_every=1)),
        "huge-init": TrainConfig(seed=9, max_steps=60, stopping=EarlyStop(patience=6, eval_every=10)),
    }[case]
    metric = "spearman" if head == "regression" else "accuracy"
    dev = (_random_rows(rng, 20, hash_dim, 12), labels[:20]) if isinstance(config.stopping, EarlyStop) else None
    return init, x, labels, config, dev, metric


class TestFitMatchesDenseStep:
    """``fit``'s sparse step against the dense reference, byte for byte."""

    @pytest.mark.parametrize(
        "case",
        [
            "early-stop-zeros", "fixed-avg-random", "regression-zeros", "regression-random",
            "negative-zero", "lr-decay", "full-batch", "single-column", "hash-2^18",
            "disjoint-init", "signed-zero-inactive", "signed-zero-active", "huge-init",
        ],
    )
    def test_params_and_trace_bit_identical(self, case):
        init, x, labels, config, dev, metric = _parity_case(case)
        before = init.to_bytes()
        model, trace = fit(init, x, labels, config, dev=dev, metric=metric)
        assert init.to_bytes() == before
        ref, ref_trace = _dense_fit(init, x, labels, config, dev=dev, metric=metric)
        assert model.to_bytes() == ref.to_bytes()
        assert trace == ref_trace
        if case == "negative-zero":
            assert np.signbit(model.weights[model.weights == 0]).any()
        if case == "signed-zero-active":
            assert max(trace, key=lambda rec: rec["dev_metric"])["step"] > 0  # not the init
            active = model.weights[:, np.unique(x.indices)]
            assert np.signbit(active[active == 0]).any()
        if case == "signed-zero-inactive":
            inactive = np.setdiff1d(np.arange(init.hash_dim), x.indices)
            inactive = inactive[~init.weights[:, inactive].any(axis=0)]
            assert np.signbit(init.weights[:, inactive]).any()
            assert np.array_equal(np.signbit(model.weights[:, inactive]), np.signbit(init.weights[:, inactive]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("learning_rate", [1e5, 1e7, 1e160])
    def test_divergence_raises_at_the_reference_step(self, learning_rate):
        init, x, labels, _, _, _ = _parity_case("fixed-avg-random")
        config = TrainConfig(seed=2, learning_rate=learning_rate, stopping=FixedSteps(400, 400, 1))
        with pytest.raises(NumericError) as ref:
            _dense_fit(init, x, labels, config)
        with pytest.raises(NumericError, match=f"^{re.escape(str(ref.value))}$"):
            fit(init, x, labels, config)

    @pytest.mark.filterwarnings("error")
    def test_divergence_raises_without_a_warning(self):
        init, x, labels, _, _, _ = _parity_case("fixed-avg-random")
        with pytest.raises(NumericError, match="^non-finite loss at step "):
            fit(init, x, labels, TrainConfig(learning_rate=1e200, stopping=FixedSteps(10, 10, 1)))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_l2_term_covers_untouched_columns(self):
        """A weight no row touches can still make the objective non-finite."""
        cases = [
            # Finite, but its square is not.
            (1e200, TrainConfig(stopping=FixedSteps(10, 10, 1))),
            # ||w||^2 = 1e290 is finite; only 0.5 * l2 * ||w||^2 overflows, at
            # a step that records no loss. The tiny learning rate keeps the
            # weight there.
            (1e145, TrainConfig(l2=1e20, learning_rate=1e-30, stopping=FixedSteps(3, 3, 1))),
        ]
        for weight, config in cases:
            init, x, labels, _, _, _ = _parity_case("fixed-avg-random")
            untouched = np.setdiff1d(np.arange(init.hash_dim), x.indices)[0]
            init.weights[0, untouched] = weight
            with pytest.raises(NumericError, match="^non-finite loss at step 1$"):
                fit(init, x, labels, config)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("dense_overflows", [True, False])
    # (l2, scale): 2**-scale scales the weights and 0.5 * l2 = 4**scale scales
    # their squares back, so the overflow is in ||w||^2 or only in the L2 term.
    @pytest.mark.parametrize("l2, scale", [(1e-4, 0), (0.0, 0), (2.0 ** 29, 14)])
    def test_overflow_margin_sums_all_weights(self, dense_overflows, l2, scale):
        """Near overflow, the active-column ``||w||^2`` can round to the other side of inf."""
        init, x, labels, config, dev, metric = _parity_case("early-stop-zeros")
        init = _overflow_boundary_init(init, x, dense_overflows, scale)
        config = replace(config, l2=l2)
        try:
            ref, ref_trace = _dense_fit(init, x, labels, config, dev=dev, metric=metric)
        except NumericError as exc:
            assert dense_overflows == (str(exc) == "non-finite loss at step 1")
            with pytest.raises(NumericError, match=f"^{re.escape(str(exc))}$"):
                fit(init, x, labels, config, dev=dev, metric=metric)
            return
        assert not dense_overflows
        model, trace = fit(init, x, labels, config, dev=dev, metric=metric)
        assert model.to_bytes() == ref.to_bytes()
        assert trace == ref_trace

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        head=st.sampled_from(["classification", "regression"]),
        batch_size=st.integers(1, 16),
        l2=st.sampled_from([0.0, 1e-4, 0.5]),
        lr_decay=st.sampled_from([0.0, 0.1]),
        eval_every=st.sampled_from([0, 1, 5]),  # 0: fixed steps
        seed=st.integers(0, 2 ** 16),
    )
    def test_random_support_matches_the_dense_step(self, data, head, batch_size, l2, lr_decay, eval_every, seed):
        hash_dim = 64
        column = st.integers(0, hash_dim - 1)
        rows = data.draw(st.lists(st.lists(column, max_size=6, unique=True), min_size=1, max_size=12))
        indices = np.array([c for row in rows for c in sorted(row)], dtype=np.int64)
        indptr = np.cumsum([0] + [len(row) for row in rows])
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 4, indices.size).astype(float)
        x = sp.csr_matrix((counts, indices, indptr), shape=(len(rows), hash_dim))
        support = data.draw(st.lists(column, max_size=20, unique=True))
        # 2 and 3 classes are what the benchmark workloads train.
        classes = data.draw(st.integers(2, 4))
        space = LabelSpace.categorical([f"k{i}" for i in range(classes)]) if head == "classification" else _REG
        init = init_params(space, FeatureConfig(hash_dim=hash_dim))
        init.weights[:, support] = rng.uniform(-1.0, 1.0, (init.num_outputs, len(support)))
        init.weights[(init.weights == 0) & (rng.random(init.weights.shape) < 0.3)] = -0.0
        if head == "classification":
            labels = [space.classes[i] for i in rng.integers(0, classes, len(rows))]
        else:
            labels = list(rng.uniform(0.0, 3.0, len(rows)))
        early = eval_every > 0
        stopping = EarlyStop(patience=3, eval_every=eval_every) if early else FixedSteps(30, 10, 2)
        config = TrainConfig(seed=seed, batch_size=batch_size, max_steps=30, l2=l2, lr_decay=lr_decay, stopping=stopping)
        metric = "accuracy" if head == "classification" else "spearman"
        dev = (x, labels) if early else None
        before = init.to_bytes()
        model, trace = fit(init, x, labels, config, dev=dev, metric=metric)
        assert init.to_bytes() == before  # callers pass their models without a copy
        ref, ref_trace = _dense_fit(init, x, labels, config, dev=dev, metric=metric)
        assert model.to_bytes() == ref.to_bytes()
        assert trace == ref_trace

    def test_one_loss_and_grad_call_per_step(self, monkeypatch):
        """Each step calls the module's ``loss_and_grad`` once: the benchmark
        counts SGD steps by wrapping that name."""
        init, x, labels, _, _, _ = _parity_case("fixed-avg-random")
        calls = []
        step = textmodel.loss_and_grad
        monkeypatch.setattr(textmodel, "loss_and_grad", lambda *args: calls.append(args) or step(*args))
        fit(init, x, labels, TrainConfig(stopping=FixedSteps(37, 10, 2)))
        assert len(calls) == 37


class TestFitDevColumns:
    """Evals score the active weights on the dev columns they share."""

    @pytest.mark.parametrize("dev_columns", ["untouched-only", "mixed"])
    @pytest.mark.parametrize("head", ["classification", "regression"])
    def test_dev_columns_the_training_set_never_touches(self, dev_columns, head):
        rng = np.random.default_rng(4)
        hash_dim = 256
        x = _random_rows(rng, 30, 64, 6)  # columns 0..63 only
        x = sp.csr_matrix((x.data, x.indices, x.indptr), shape=(30, hash_dim))
        space = _CLS if head == "classification" else _REG
        init = _uniform_init(space, hash_dim, seed=1)
        init.weights[:, :200] = 0.0
        init.weights[:, 100:120] = -0.0
        # Dev rows reach columns 64..255: untouched, some held nonzero by init.
        dev_x = _random_rows(rng, 12, hash_dim - 64, 8)
        dev_x = sp.csr_matrix((dev_x.data, dev_x.indices + 64, dev_x.indptr), shape=(12, hash_dim))
        if dev_columns == "mixed":
            dev_x = sp.vstack([dev_x, x[:8]]).tocsr()
        if head == "classification":
            labels = [space.classes[i] for i in rng.integers(0, 3, 30)]
            dev_labels = [space.classes[i] for i in rng.integers(0, 3, dev_x.shape[0])]
        else:
            labels = list(rng.uniform(0.0, 3.0, 30))
            dev_labels = list(rng.uniform(0.0, 3.0, dev_x.shape[0]))
        config = TrainConfig(seed=5, batch_size=8, max_steps=40, stopping=EarlyStop(patience=40, eval_every=1))
        metric = "accuracy" if head == "classification" else "spearman"
        model, trace = fit(init, x, labels, config, dev=(dev_x, dev_labels), metric=metric)
        ref, ref_trace = _dense_fit(init, x, labels, config, dev=(dev_x, dev_labels), metric=metric)
        assert model.to_bytes() == ref.to_bytes()
        assert trace == ref_trace

    def test_dev_matrix_must_match_the_model_width(self, small_fc, tiny_dataset):
        x, labels, init = _training_setup(small_fc, tiny_dataset)
        narrow = sp.csr_matrix((x.data, x.indices % 64, x.indptr), shape=(x.shape[0], 64))
        with pytest.raises(ValidationError, match="dev matrix has 64 columns"):
            fit(init, x, labels, TrainConfig(stopping=EarlyStop()), dev=(narrow, labels))

    def test_training_matrix_must_match_the_model_width(self, small_fc, tiny_dataset):
        x, labels, _ = _training_setup(small_fc, tiny_dataset)
        narrow_init = init_params(tiny_dataset.label_space, FeatureConfig(hash_dim=64))
        with pytest.raises(ValidationError, match=f"training matrix has {x.shape[1]} columns, the model 64"):
            fit(narrow_init, x, labels, TrainConfig(stopping=FixedSteps(4, 2, 1)))


def _overflow_boundary_init(init, x, dense_overflows, scale=0):
    """``init`` plus three large weights in columns ``x`` never touches.

    Their squares are ``a = max - ulp`` and ``b``, ``c`` of 0.6 ulp each, so
    ``(a + b) + c`` overflows and ``a + (b + c)`` does not. The cells are
    drawn until the squares summed class-major over all weights and over the
    active columns only (``x``'s and the nonzero ones) group them differently:
    the sum over all weights overflows if ``dense_overflows``, else the other.
    With ``scale``, the weights are multiplied by ``2**-scale``, and the sums
    overflow once multiplied by ``4**scale``.
    """
    top = np.sqrt(np.finfo(float).max)
    small = np.sqrt(0.6 * np.spacing(top * top))
    rng = np.random.default_rng(0)
    untouched = np.setdiff1d(np.arange(init.hash_dim), x.indices)
    for _ in range(2000):
        w = init.weights.copy()
        cols = rng.choice(untouched, 3, replace=False)
        w[rng.integers(0, w.shape[0], 3), cols] = np.array([top, small, small]) * 2.0 ** -scale
        compact = np.ascontiguousarray(w[:, np.union1d(x.indices, cols)])
        with np.errstate(over="ignore"):
            dense, compact = (w * w).sum() * 4.0 ** scale, (compact * compact).sum() * 4.0 ** scale
        if np.isinf(dense) == dense_overflows and np.isinf(compact) != dense_overflows:
            return ModelParams(w, init.bias.copy(), init.head, init.label_space)
    raise AssertionError("no cells found that group the squares differently")
