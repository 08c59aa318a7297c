"""Hashed n-gram linear model: featurizer, SGD trainer, metrics.

The model is a linear softmax classifier (or linear regressor) over hashed
n-gram counts. It is convex, fast, and deterministic per seed, which is what
the rest of the pipeline needs: reproducible pseudo-labels and analyzable
training dynamics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import json
import os
import re
import sys
import zlib
from array import array
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal, Optional, Sequence, Union

import numpy as np

# numpy loads this on first use of ``np.random.default_rng`` in ``fit``.
# Importing it here keeps that load out of the first run.
import numpy.random

from .corpus import Dataset, Example, LabelSpace, ValidationError, check_count, check_number

_KERNELS = "scipy.sparse._sparsetools"


def _load_kernels(scipy_dirs: Optional[Sequence[str]] = None):
    """scipy's compiled sparse kernels, without running ``scipy.sparse``'s
    package import, which pulls in much of numpy and scipy.

    A module already imported under that name is reused. Otherwise the
    extension file is loaded from ``sparse/`` under ``scipy_dirs`` (by
    default those of the top-level ``scipy`` spec, found without importing
    scipy) and registered under its own name, so a later ``import
    scipy.sparse`` reuses it. A missing file is an ImportError naming every
    path searched.
    """
    module = sys.modules.get(_KERNELS)
    if module is not None:
        return module
    if scipy_dirs is None:
        spec = importlib.util.find_spec("scipy")
        scipy_dirs = spec.submodule_search_locations if spec else []
    paths = [
        os.path.join(d, "sparse", "_sparsetools" + suffix)
        for d in scipy_dirs
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's {_KERNELS} extension not found; searched {paths}", name=_KERNELS)
    loader = importlib.machinery.ExtensionFileLoader(_KERNELS, path)
    spec = importlib.util.spec_from_file_location(_KERNELS, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[_KERNELS] = module
    return module


# scipy's kernels behind ``x @ w`` and ``x.T @ d``: an SGD step and prediction
# call them on bare arrays.
_sparsetools = _load_kernels()
csc_matvecs = _sparsetools.csc_matvecs
csr_matvec = _sparsetools.csr_matvec
csr_matvecs = _sparsetools.csr_matvecs

SEP_TOKEN = "\x1esep\x1e"

_TOKEN_RE = re.compile(r"[a-z0-9']+")


class NumericError(Exception):
    """Training produced a non-finite loss or parameter."""


# ---------------------------------------------------------------------------
# Sparse rows
# ---------------------------------------------------------------------------


class CSRRows:
    """A CSR matrix as its four parts: the one matrix type of ``selfaug``.

    Every function that takes a matrix reads only ``data``, ``indices``,
    ``indptr`` and ``shape``, so a scipy CSR matrix serves as well.
    ``x[rows]``, for an index array or a boolean mask, copies the chosen rows
    whole and in order, keeping ``x``'s index dtype.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    def __getitem__(self, rows) -> "CSRRows":
        return _gather_rows(self, np.arange(self.shape[0])[rows])


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]) -> CSRRows:
    """A ``CSRRows`` with int32 index arrays, or int64 when the width or the
    entry count exceeds the int32 maximum. The kernels take either."""
    dtype = np.int64 if max(shape[1], data.size) > np.iinfo(np.int32).max else np.int32
    return CSRRows(data, indices.astype(dtype, copy=False), indptr.astype(dtype, copy=False), shape)


def _gather_rows(x: CSRRows, order: np.ndarray) -> CSRRows:
    """Rows ``order`` of ``x``, each copied whole and in order, as ``x[order]`` does."""
    lengths = np.diff(x.indptr)[order]
    indptr = np.zeros(order.size + 1, dtype=x.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:])
    pos = np.repeat(x.indptr[order] - indptr[:-1], lengths) + np.arange(indptr[-1])
    return CSRRows(x.data[pos], x.indices[pos], indptr, (order.size, x.shape[1]))


def _stack_rows(blocks: Sequence[CSRRows]) -> CSRRows:
    """The rows of ``blocks`` one after another, as ``vstack(blocks, format="csr")``."""
    lengths = np.concatenate([np.diff(b.indptr) for b in blocks])
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return _csr(
        np.concatenate([b.data for b in blocks]),
        np.concatenate([b.indices for b in blocks]),
        indptr,
        (lengths.size, blocks[0].shape[1]),
    )


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureConfig:
    ngram_orders: frozenset[int] = frozenset({1, 2})
    hash_dim: int = 2 ** 16

    def __post_init__(self):
        if not self.ngram_orders:
            raise ValidationError("ngram_orders must be nonempty")
        for order in self.ngram_orders:
            check_count("ngram order", order)
        check_count("hash_dim", self.hash_dim)
        if self.hash_dim & (self.hash_dim - 1) != 0:
            raise ValidationError("hash_dim must be a power of two")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _hash_ngram(ngram: str, hash_dim: int) -> int:
    return zlib.crc32(ngram.encode("utf-8")) & (hash_dim - 1)


def _tokens(example: Example) -> list[str]:
    """The example's tokens; a pair's two segments are joined by SEP_TOKEN."""
    tokens = tokenize(example.segment_a)
    if example.segment_b is not None:
        tokens = tokens + [SEP_TOKEN] + tokenize(example.segment_b)
    return tokens


def featurize(example: Example, config: FeatureConfig) -> dict[int, int]:
    """Sparse bucket -> count mapping for one example.

    Segment pairs are joined with a reserved separator token before
    n-gramming, so (a, b) never collides with the single segment "a b".
    """
    tokens = _tokens(example)
    counts: dict[int, int] = {}
    for order in config.ngram_orders:
        for i in range(len(tokens) - order + 1):
            bucket = _hash_ngram("\x1f".join(tokens[i : i + order]), config.hash_dim)
            counts[bucket] = counts.get(bucket, 0) + 1
    return counts


# 2**15 tokens of 20 characters hold about 10 MiB, keys included.
@functools.lru_cache(maxsize=1 << 15)
def _token_hashes(token: str) -> tuple[bytes, int, int]:
    """The token's UTF-8 bytes, their crc32, and the crc32 of them followed by
    ``"\\x1f"``. Keyed by the token alone, so every ``FeatureConfig`` shares it."""
    data = token.encode("utf-8")
    crc = zlib.crc32(data)
    return data, crc, zlib.crc32(b"\x1f", crc)


# 2**15 pairs eight times as long as pair-overlap-nli's hold about 62 MiB.
@functools.lru_cache(maxsize=1 << 15)
def _row_buckets(a: str, b: Optional[str], orders: tuple[int, ...], hash_dim: int) -> bytes:
    """The buckets of the row's n-grams, order by order, hashed as ``featurize``
    hashes them and packed as C unsigned ints. Pure, so the cache is exact.

    A k-gram's crc32 chains from its tokens' ``_token_hashes`` through
    ``zlib.crc32(data, value)``, which equals the crc32 of the joined string.
    """
    tokens = tokenize(a) if b is None else tokenize(a) + [SEP_TOKEN] + tokenize(b)
    hashes = list(map(_token_hashes, tokens))
    mask = hash_dim - 1
    grams = []
    for k in orders:
        if k == 1:
            grams += [crc & mask for _, crc, _ in hashes]
            continue
        # The running crc32 of each k-gram's first j tokens, each followed by "\x1f".
        values = [sep for _, _, sep in hashes[: len(hashes) - k + 1]]
        for j in range(1, k - 1):
            values = [zlib.crc32(b"\x1f", zlib.crc32(data, v)) for v, (data, _, _) in zip(values, hashes[j:])]
        grams += [zlib.crc32(data, v) & mask for v, (data, _, _) in zip(values, hashes[k - 1 :])]
    return array("I", grams).tobytes()


def featurize_matrix(examples: Sequence[Example], config: FeatureConfig) -> CSRRows:
    """CSR matrix of hashed n-gram counts, one row per example.

    Row i holds ``featurize(examples[i], config)`` with its buckets sorted.
    Each row's buckets come from ``_row_buckets``, whose cache hashes a
    repeated row once. The rows are counted in one pass: the keys ``row <<
    bits | bucket`` are sorted once and their run lengths are the counts.
    """
    orders = tuple(sorted(config.ngram_orders))
    chunks = [_row_buckets(ex.segment_a, ex.segment_b, orders, config.hash_dim) for ex in examples]
    # Buckets are below 2**32, so 32 bits of row offset keep the keys apart.
    bits = min(config.hash_dim.bit_length() - 1, 32)
    rows = np.arange(len(examples) + 1, dtype=np.uint64)
    sizes = np.fromiter(map(len, chunks), dtype=np.int64, count=len(chunks)) // array("I").itemsize
    keys = np.repeat(rows[:-1], sizes) << bits
    keys |= np.frombuffer(b"".join(chunks), dtype=np.uintc)
    keys, counts = np.unique(keys, return_counts=True)
    return _csr(
        counts.astype(np.float64),
        keys & ((1 << bits) - 1),
        np.searchsorted(keys >> bits, rows),
        (len(examples), config.hash_dim),
    )


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


_SNAPSHOT_KEYS = frozenset({"version", "head", "label_space", "num_outputs", "hash_dim", "dtype"})


@dataclass
class ModelParams:
    """Weight matrix + bias; immutable by convention once trained."""

    weights: np.ndarray  # [num_outputs, hash_dim]
    bias: np.ndarray  # [num_outputs]
    head: Literal["classification", "regression"]
    label_space: LabelSpace

    def __post_init__(self):
        expected = self.label_space.num_classes if self.head == "classification" else 1
        if self.weights.shape[0] != expected or self.bias.shape != (expected,):
            raise ValidationError(
                f"shape mismatch: weights {self.weights.shape}, bias {self.bias.shape}, "
                f"expected {expected} outputs"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise NumericError("non-finite model parameters")

    @property
    def num_outputs(self) -> int:
        return self.weights.shape[0]

    @property
    def hash_dim(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.weights.copy(), self.bias.copy(), self.head, self.label_space)

    def to_bytes(self) -> bytes:
        header = json.dumps(
            {
                "version": 1,
                "head": self.head,
                "label_space": self.label_space.to_json(),
                "num_outputs": int(self.num_outputs),
                "hash_dim": int(self.hash_dim),
                "dtype": "<f8",
            },
            sort_keys=True,
        ).encode("utf-8")
        w = np.ascontiguousarray(self.weights, dtype="<f8")
        b = np.ascontiguousarray(self.bias, dtype="<f8")
        return header + b"\n" + w.tobytes() + b.tobytes()

    @staticmethod
    def from_bytes(blob: bytes) -> "ModelParams":
        """Parse a ``to_bytes`` snapshot; any malformed blob raises ValidationError."""
        header_raw, _, payload = blob.partition(b"\n")
        try:
            header = json.loads(header_raw.decode("utf-8"))
        except ValueError as exc:
            raise ValidationError(f"snapshot header is not JSON: {exc}") from None
        if not isinstance(header, dict) or set(header) != _SNAPSHOT_KEYS:
            raise ValidationError(
                f"snapshot header must be an object with keys {sorted(_SNAPSHOT_KEYS)}"
            )
        if header["version"] != 1:
            raise ValidationError(f"unsupported snapshot version {header['version']!r}")
        if header["dtype"] != "<f8":
            raise ValidationError(f"unsupported snapshot dtype {header['dtype']!r}")
        if header["head"] not in ("classification", "regression"):
            raise ValidationError(f"unknown snapshot head {header['head']!r}")
        c, d = header["num_outputs"], header["hash_dim"]
        check_count("snapshot num_outputs", c)
        check_count("snapshot hash_dim", d)
        if len(payload) != (c * d + c) * 8:
            raise ValidationError(
                f"snapshot payload is {len(payload)} bytes, expected {(c * d + c) * 8}"
            )
        try:
            label_space = LabelSpace.from_json(header["label_space"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed snapshot label space: {exc!r}") from None
        weights = np.frombuffer(payload[: c * d * 8], dtype="<f8").reshape(c, d).copy()
        bias = np.frombuffer(payload[c * d * 8 :], dtype="<f8").copy()
        try:
            return ModelParams(weights, bias, header["head"], label_space)
        except NumericError as exc:
            raise ValidationError(f"snapshot: {exc}") from None

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_bytes(self.to_bytes())

    @staticmethod
    def load(path: Union[str, Path]) -> "ModelParams":
        return ModelParams.from_bytes(Path(path).read_bytes())

    def params_hash(self) -> str:
        return hashlib.blake2b(self.to_bytes(), digest_size=16).hexdigest()


def init_params(label_space: LabelSpace, config: FeatureConfig) -> ModelParams:
    head = "classification" if label_space.kind == "categorical" else "regression"
    c = label_space.num_classes if head == "classification" else 1
    return ModelParams(np.zeros((c, config.hash_dim)), np.zeros(c), head, label_space)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _softmax(logits: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax over the last axis, into ``out`` (which may be ``logits``)."""
    peak = np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(np.subtract(logits, peak, out=out), out=out)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out)


def _logits(params: ModelParams, x: CSRRows) -> np.ndarray:
    """``x @ params.weights.T + params.bias``, bit for bit, with no copy of the weights.

    scipy's kernel behind ``x @ weights.T`` sums each row's products in
    storage order, starting from zero; ``csr_matvec`` on one weight row sums
    the same products in the same order. ``x @ weights.T`` would first copy
    the whole F-ordered ``weights.T``.
    """
    weights = params.weights
    n, d = x.shape
    if weights.shape[1] != d:
        raise ValueError(f"weights have {weights.shape[1]} columns, x has {d}")
    logits = np.zeros((weights.shape[0], n), dtype=np.result_type(x.data, weights))
    for row, out in zip(weights, logits):
        csr_matvec(n, d, x.indptr, x.indices, x.data, row, out)
    return np.add(logits.T, params.bias, order="C")


def predict_proba_matrix(params: ModelParams, x: CSRRows) -> np.ndarray:
    logits = _logits(params, x)
    return _softmax(logits, out=logits)


def predict_values_matrix(params: ModelParams, x: CSRRows) -> np.ndarray:
    raw = _logits(params, x)[:, 0]
    space = params.label_space
    return np.clip(raw, space.lo, space.hi)


def predict_labels(params: ModelParams, x: CSRRows) -> tuple[list, Optional[np.ndarray]]:
    """Each row's argmax class name (ties go to the lowest class index) and its
    probability; for a regression head, each row's clamped value and None."""
    if params.head == "regression":
        return predict_values_matrix(params, x).tolist(), None
    probs = predict_proba_matrix(params, x)
    idx = np.argmax(probs, axis=1)
    classes = params.label_space.classes
    return [classes[i] for i in idx], probs[np.arange(len(idx)), idx]


# ---------------------------------------------------------------------------
# Loss & gradients
# ---------------------------------------------------------------------------


def loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    x: CSRRows,
    y: np.ndarray,
    l2: Optional[float],
    head: Literal["classification", "regression"] = "classification",
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss over the batch plus L2 on the weights, and its gradient.

    Classification: cross-entropy with integer class targets.
    Regression: half squared error with float targets.
    ``l2=None`` gives the data term alone, with no L2 loss or gradient term.

    Only ``x``'s ``data``, ``indices``, ``indptr`` and ``shape`` are read.
    The products run scipy's kernels on those arrays as ``x @ weights.T`` and
    ``x.T @ delta`` do, so every sum keeps their order and the result matches
    theirs bit for bit.
    """
    n, d = x.shape
    if weights.shape[1] != d:
        raise ValueError(f"weights have {weights.shape[1]} columns, x has {d}")
    c = weights.shape[0]
    logits = np.zeros((n, c), dtype=np.result_type(x.data, weights))
    csr_matvecs(n, d, c, x.indptr, x.indices, x.data, np.ascontiguousarray(weights.T), logits)
    logits += bias
    if head == "classification":
        delta = _softmax(logits, out=logits)
        rows = np.arange(n)
        picked = delta[rows, y]
        # ``-np.log(picked + 1e-12).mean()`` and ``delta[rows, y] -= 1.0``,
        # operation for operation.
        loss = -(np.add.reduce(np.log(picked + 1e-12)) / n)
        delta[rows, y] = picked - 1.0
        delta /= n
    else:
        resid = logits[:, 0] - y
        loss = 0.5 * float(resid @ resid) / n
        delta = (resid / n)[:, None]
    # x.T is the CSC matrix on the same three arrays.
    grad_t = np.zeros((d, c), dtype=np.result_type(x.data, delta))
    csc_matvecs(d, n, c, x.indptr, x.indices, x.data, delta, grad_t)
    grad_w = grad_t.T
    grad_b = np.add.reduce(delta, axis=0)
    if l2 is not None:
        grad_w = grad_w + l2 * weights
        loss += 0.5 * l2 * float((weights * weights).sum())
    return float(loss), grad_w, grad_b


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _parse_metric(metric: str) -> tuple[str, Optional[str]]:
    if isinstance(metric, str) and metric.startswith("f1:"):
        return "f1", metric[3:]
    if metric in ("accuracy", "spearman", "f1"):
        return metric, None
    raise ValidationError(f"unknown metric {metric!r}")


def check_metric(metric: str, space: LabelSpace) -> None:
    """``metric`` can score labels of ``space``: spearman a continuous space,
    accuracy or ``f1:<one of its classes>`` a categorical one."""
    kind, positive = _parse_metric(metric)
    if space.kind == "continuous":
        if kind != "spearman":
            raise ValidationError(f"metric {metric!r} is not defined for a regression head")
    elif kind == "spearman":
        raise ValidationError("spearman is not defined for a classification head")
    elif kind == "f1" and positive not in space.classes:
        raise ValidationError(f"f1 needs a positive class among {list(space.classes)}, got {metric!r}")


def score_predictions(
    predicted: Sequence, gold: Sequence, metric: str
) -> float:
    """Score aligned prediction/gold sequences with a named metric.

    ``metric`` is ``accuracy``, ``f1:<positive_class>``, or ``spearman``.
    """
    kind, positive = _parse_metric(metric)
    if len(gold) == 0:
        raise ValidationError("cannot compute a metric on an empty dataset")
    if kind == "accuracy":
        hits = sum(1 for p, g in zip(predicted, gold) if p == g)
        return hits / len(gold)
    if kind == "f1":
        if positive is None:
            raise ValidationError("f1 requires a positive class, e.g. 'f1:pos'")
        tp = sum(1 for p, g in zip(predicted, gold) if p == positive and g == positive)
        fp = sum(1 for p, g in zip(predicted, gold) if p == positive and g != positive)
        fn = sum(1 for p, g in zip(predicted, gold) if p != positive and g == positive)
        if tp == 0:
            return 0.0
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        return 2 * precision * recall / (precision + recall)
    # spearman
    p = np.asarray(predicted, dtype=float)
    g = np.asarray(gold, dtype=float)
    if np.ptp(p) == 0 or np.ptp(g) == 0:
        return 0.0
    # Imported here: scipy.stats takes most of a second to import, and only
    # a regression metric needs it.
    from scipy.stats import spearmanr

    return float(spearmanr(p, g).statistic)


def _metric_on_matrix(
    params: ModelParams, x: CSRRows, gold_labels: Sequence, metric: str
) -> float:
    check_metric(metric, params.label_space)
    return score_predictions(predict_labels(params, x)[0], gold_labels, metric)


def labeled_matrix(
    dataset: Optional[Dataset], config: FeatureConfig
) -> Optional[tuple[CSRRows, list]]:
    """``(features, labels)`` of a fully labeled dataset, or None when it is absent or empty."""
    if dataset is None or len(dataset) == 0:
        return None
    labels = [ex.label for ex in dataset.examples]
    if None in labels:
        raise ValidationError(f"dataset {dataset.name!r} is not fully labeled")
    return featurize_matrix(dataset.examples, config), labels


def evaluate(
    params: ModelParams,
    dataset: Dataset,
    metric: str,
    config: FeatureConfig,
) -> float:
    pack = labeled_matrix(dataset, config)
    if pack is None:
        raise ValidationError("cannot evaluate on an empty dataset")
    return _metric_on_matrix(params, *pack, metric)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 32
    max_steps: int = 300
    l2: float = 1e-4
    seed: int = 0
    lr_decay: float = 0.0
    stopping: Literal["early_stop", "fixed_steps"] = "early_stop"
    # Steps between dev evals, or between checkpoints for fixed_steps.
    eval_every: int = 20
    patience: int = 5
    average_last: int = 5

    def __post_init__(self):
        # A positive, finite learning rate and a finite l2 are also what keep
        # an untouched zero weight fixed under ``fit``'s update.
        check_number("learning_rate", self.learning_rate, open_lo=True)
        check_number("l2", self.l2)
        check_number("lr_decay", self.lr_decay)
        for name in ("batch_size", "max_steps", "eval_every", "patience", "average_last"):
            check_count(name, getattr(self, name))
        check_count("seed", self.seed, minimum=0)
        if self.stopping not in ("early_stop", "fixed_steps"):
            raise ValidationError(f"unknown stopping kind {self.stopping!r}")
        if self.stopping == "fixed_steps" and self.average_last > self.max_steps // self.eval_every:
            raise ValidationError("average_last exceeds the number of checkpoints")


def fixed_steps(config: TrainConfig, steps: int) -> TrainConfig:
    """``config`` run for exactly ``steps`` SGD steps, keeping the last weights."""
    return replace(config, max_steps=steps, stopping="fixed_steps", eval_every=steps, average_last=1)


def average_checkpoints(snapshots: Sequence[ModelParams]) -> ModelParams:
    """Element-wise arithmetic mean of parameter snapshots."""
    if not snapshots:
        raise ValidationError("average_checkpoints needs at least one snapshot")
    first = snapshots[0]
    for s in snapshots[1:]:
        if s.weights.shape != first.weights.shape or s.head != first.head:
            raise ValidationError("checkpoint shape/head mismatch")
    weights = np.mean([s.weights for s in snapshots], axis=0)
    bias = np.mean([s.bias for s in snapshots], axis=0)
    return ModelParams(weights, bias, first.head, first.label_space)


def _encode_targets(params: ModelParams, labels: Sequence) -> np.ndarray:
    if params.head == "classification":
        classes = params.label_space.classes
        return np.array([classes.index(l) for l in labels], dtype=np.int64)
    return np.array([float(l) for l in labels])


def _keep_columns(x: CSRRows, slot: np.ndarray, width: int) -> CSRRows:
    """``x`` on the columns ``slot`` maps to 0..width-1, renumbered by ``slot``;
    its entries in columns that map to -1 are dropped."""
    renumbered = slot[x.indices]
    keep = renumbered >= 0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return _csr(x.data[keep], renumbered[keep], kept_before[x.indptr], (x.shape[0], width))


def fit(
    init: ModelParams,
    x: CSRRows,
    labels: Sequence,
    config: TrainConfig,
    dev: Optional[tuple[CSRRows, Sequence]] = None,
    metric: str = "accuracy",
) -> tuple[ModelParams, list[dict]]:
    """Mini-batch SGD on a precomputed feature matrix.

    Early stopping keeps the checkpoint with the best dev metric (ties go to
    the earliest); fixed-step training averages the last snapshots taken at
    the configured interval. Returns the trained params and a trace of
    per-evaluation records.

    Each step is bit-identical to the dense step ``w -= lr * g`` with
    ``_, g, _ = loss_and_grad(w, b, x[batch], y[batch], l2)``, but trains
    only the active columns: those ``x`` touches or ``init`` holds nonzero.
    Every other weight is ±0.0 with a zero gradient, and for a positive,
    finite ``lr`` and a finite ``l2`` the step leaves it bit-identical, sign
    included. ``x`` is renumbered to the active columns once, and its rows
    are permuted once per epoch by a numpy gather on its arrays. Each step
    hands ``loss_and_grad`` its batch as slices of those arrays (a
    ``CSRRows``, no sparse matrix), takes the data term, and applies the
    dense update to every active weight, where an untouched column's data
    gradient is exactly +0.0. The active weights are held transposed,
    ``[active, outputs]``; snapshots write them back into a copy of
    ``init.weights``, which ``fit`` never writes.

    The dev set is renumbered to the active columns once, and each eval
    scores the active weights. Its other columns meet ±0.0 weights, so the
    logits only lose ±0 terms; a full snapshot is built only for a new best.
    """
    if x.shape[0] == 0:
        raise ValidationError("training set must be nonempty")
    if x.shape[1] != init.hash_dim:
        raise ValidationError(f"training matrix has {x.shape[1]} columns, the model {init.hash_dim}")
    early = config.stopping == "early_stop"
    if early and dev is None:
        raise ValidationError("early stopping requires a dev set")
    if early and dev[0].shape[1] != init.hash_dim:
        raise ValidationError(f"dev matrix has {dev[0].shape[1]} columns, the model {init.hash_dim}")

    y = _encode_targets(init, labels)
    rng = np.random.default_rng(config.seed)
    n = x.shape[0]
    used = init.weights.any(axis=0)
    used[x.indices] = True
    active = np.flatnonzero(used)
    # Each column's position among the active ones, or -1. Renumbering keeps
    # the column order, so every batch below is unchanged. The index dtype is
    # int32 when it fits; every batch keeps it.
    slot = np.full(init.hash_dim, -1, dtype=np.intp)
    slot[active] = np.arange(active.size)
    x = _csr(x.data, slot[x.indices], x.indptr, (n, active.size))
    wt = init.weights[:, active].T.copy()  # [active, outputs], C-contiguous
    bias = init.bias.copy()
    step_t = np.empty_like(wt)  # the update, refilled each step
    squares = np.empty_like(wt)  # the L2 norm's squares, refilled each step
    # The squares of all weights, for the norm the trace records: inactive
    # weights are ±0.0, so their squares stay +0.0 as in ``(w * w).sum()``.
    all_squares = np.zeros(init.weights.shape)
    trace: list[dict] = []

    def weights() -> np.ndarray:
        w = init.weights.copy()
        w[:, active] = wt.T
        return w

    def snapshot() -> ModelParams:
        return ModelParams(weights(), bias.copy(), init.head, init.label_space)

    if early:
        dev_x = _keep_columns(dev[0], slot, active.size)

    def dev_score() -> float:
        current = ModelParams(wt.T, bias, init.head, init.label_space)
        return _metric_on_matrix(current, dev_x, dev[1], metric)

    best: Optional[ModelParams] = None
    best_score = -np.inf
    evals_since_best = 0

    if early:
        best = snapshot()
        best_score = dev_score()
        trace.append({"step": 0, "loss": None, "dev_metric": best_score})

    checkpoints: deque[ModelParams] = deque(maxlen=config.average_last)  # only the ones averaged are kept
    total, every = config.max_steps, config.eval_every

    cursor = n  # the first step draws the first permutation
    # A diverging run overflows the squares of its weights; the finite check
    # on the loss raises for it, so numpy's overflow warning is not needed.
    with np.errstate(over="ignore"):
        for step in range(1, total + 1):
            if cursor >= n:
                order = rng.permutation(n)
                xs, ys = _gather_rows(x, order), y[order]
                cursor = 0
            lo, hi = cursor, min(cursor + config.batch_size, n)
            cursor += config.batch_size
            start, end = xs.indptr[lo], xs.indptr[hi]
            xb = CSRRows(
                xs.data[start:end], xs.indices[start:end], xs.indptr[lo : hi + 1] - start,
                (hi - lo, active.size),
            )
            data_loss, grad_w, grad_b = loss_and_grad(wt.T, bias, xb, ys[lo:hi], None, init.head)
            # ||w||^2 over the active weights in storage order; elementwise ufuncs
            # keep it off the BLAS thread pool. It can round differently from the
            # dense objective's sum, so it only shows that the loss is far from
            # overflow. A loss the trace records, or one that may overflow (or is
            # NaN), is summed class-major over all weights as the dense step does.
            norm = float(np.add.reduce(np.square(wt, out=squares), axis=None))
            loss = data_loss + 0.5 * config.l2 * norm
            record = step % every == 0 or (early and step == total)
            if record or not (norm < 1e299 and loss < 1e299):
                all_squares[:, active] = squares.T
                loss = data_loss + 0.5 * config.l2 * float(all_squares.sum())
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss at step {step}")
            lr = config.learning_rate / (1.0 + config.lr_decay * (step - 1))
            # wt -= lr * (grad_w.T + l2 * wt), operation for operation, in place.
            np.multiply(wt, config.l2, out=step_t)
            step_t += grad_w.T
            step_t *= lr
            wt -= step_t
            bias -= lr * grad_b

            if not record:
                continue
            if early:
                score = dev_score()
                trace.append({"step": step, "loss": loss, "dev_metric": score})
                if score > best_score:
                    best, best_score, evals_since_best = snapshot(), score, 0
                else:
                    evals_since_best += 1
                    if evals_since_best >= config.patience:
                        break
            else:
                checkpoints.append(snapshot())
                trace.append({"step": step, "loss": loss, "dev_metric": None})

    if early:
        return best, trace
    return average_checkpoints(list(checkpoints)), trace


def train(
    init: ModelParams,
    train_set: Dataset,
    config: TrainConfig,
    dev_set: Optional[Dataset] = None,
    *,
    feature_config: FeatureConfig,
    metric: str = "accuracy",
) -> tuple[ModelParams, list[dict]]:
    """Dataset-level wrapper around :func:`fit`."""
    pack = labeled_matrix(train_set, feature_config)
    if pack is None:
        raise ValidationError("training set must be nonempty")
    return fit(init, *pack, config, dev=labeled_matrix(dev_set, feature_config), metric=metric)
