"""Hashed n-gram linear model: featurizer, SGD trainer, metrics.

The model is a linear softmax classifier (or linear regressor) over hashed
n-gram counts. It is convex, fast, and deterministic per seed, which is what
the rest of the pipeline needs: reproducible pseudo-labels and analyzable
training dynamics.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import re
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.stats import spearmanr

from .corpus import Dataset, Example, LabelSpace, ValidationError

SEP_TOKEN = "\x1esep\x1e"

_TOKEN_RE = re.compile(r"[a-z0-9']+")


class ModelError(Exception):
    """Base class for model-layer errors."""


class NumericError(ModelError):
    """Training produced a non-finite loss or parameter."""


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")


def _check_rate(name: str, value, positive: bool = False) -> None:
    ok = (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and math.isfinite(value) and (value > 0 if positive else value >= 0)
    )
    if not ok:
        raise ValidationError(f"{name} must be a finite number {'>' if positive else '>='} 0, got {value!r}")


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureConfig:
    ngram_orders: frozenset[int] = frozenset({1, 2})
    hash_dim: int = 2 ** 18

    def __post_init__(self):
        if not self.ngram_orders:
            raise ValidationError("ngram_orders must be nonempty")
        _check_count("hash_dim", self.hash_dim)
        if self.hash_dim & (self.hash_dim - 1) != 0:
            raise ValidationError("hash_dim must be a power of two")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _hash_ngram(ngram: str, hash_dim: int) -> int:
    return zlib.crc32(ngram.encode("utf-8")) & (hash_dim - 1)


def featurize(example: Example, config: FeatureConfig) -> dict[int, int]:
    """Sparse bucket -> count mapping for one example.

    Segment pairs are joined with a reserved separator token before
    n-gramming, so (a, b) never collides with the single segment "a b".
    """
    tokens = tokenize(example.segment_a)
    if example.segment_b is not None:
        tokens = tokens + [SEP_TOKEN] + tokenize(example.segment_b)
    counts: dict[int, int] = {}
    for order in config.ngram_orders:
        for i in range(len(tokens) - order + 1):
            bucket = _hash_ngram("\x1f".join(tokens[i : i + order]), config.hash_dim)
            counts[bucket] = counts.get(bucket, 0) + 1
    return counts


def featurize_matrix(examples: Sequence[Example], config: FeatureConfig) -> sp.csr_matrix:
    """CSR matrix of hashed n-gram counts, one row per example."""
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
        if not all(type(n) is int and n >= 1 for n in (c, d)):
            raise ValidationError("snapshot num_outputs and hash_dim must be positive integers")
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


def init_params(
    label_space: LabelSpace,
    config: FeatureConfig,
    seed: int = 0,
    scheme: Literal["zeros", "random"] = "zeros",
    scale: float = 0.01,
) -> ModelParams:
    head = "classification" if label_space.kind == "categorical" else "regression"
    c = label_space.num_classes if head == "classification" else 1
    if scheme == "zeros":
        weights = np.zeros((c, config.hash_dim))
        bias = np.zeros(c)
    elif scheme == "random":
        rng = np.random.default_rng(seed)
        weights = rng.uniform(-scale, scale, size=(c, config.hash_dim))
        bias = rng.uniform(-scale, scale, size=c)
    else:
        raise ValidationError(f"unknown init scheme {scheme!r}")
    return ModelParams(weights, bias, head, label_space)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    probabilities: Optional[np.ndarray] = None
    argmax_label: Optional[str] = None
    confidence: Optional[float] = None
    value: Optional[float] = None


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict_proba_matrix(params: ModelParams, x: sp.csr_matrix) -> np.ndarray:
    logits = x @ params.weights.T + params.bias
    return _softmax(logits)


def predict_values_matrix(params: ModelParams, x: sp.csr_matrix) -> np.ndarray:
    raw = (x @ params.weights.T + params.bias)[:, 0]
    space = params.label_space
    return np.clip(raw, space.lo, space.hi)


def predict(params: ModelParams, example: Example, config: FeatureConfig) -> Prediction:
    x = featurize_matrix([example], config)
    if params.head == "classification":
        probs = predict_proba_matrix(params, x)[0]
        idx = int(np.argmax(probs))  # ties break toward the lowest class index
        return Prediction(
            probabilities=probs,
            argmax_label=params.label_space.classes[idx],
            confidence=float(probs[idx]),
        )
    return Prediction(value=float(predict_values_matrix(params, x)[0]))


# ---------------------------------------------------------------------------
# Loss & gradients
# ---------------------------------------------------------------------------


def loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    x: sp.csr_matrix,
    y: np.ndarray,
    l2: float,
    head: Literal["classification", "regression"] = "classification",
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss over the batch plus L2 on the weights, and its gradient.

    Classification: cross-entropy with integer class targets.
    Regression: half squared error with float targets.
    """
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
    grad_w = np.asarray((x.T @ delta).T) + l2 * weights
    grad_b = delta.sum(axis=0)
    loss += 0.5 * l2 * float((weights * weights).sum())
    return float(loss), grad_w, grad_b


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _parse_metric(metric: str) -> tuple[str, Optional[str]]:
    if metric.startswith("f1:"):
        return "f1", metric[3:]
    if metric in ("accuracy", "spearman", "f1"):
        return metric, None
    raise ValidationError(f"unknown metric {metric!r}")


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
    rho = spearmanr(p, g).statistic
    return float(rho)


def _metric_on_matrix(
    params: ModelParams, x: sp.csr_matrix, gold_labels: Sequence, metric: str
) -> float:
    kind, _ = _parse_metric(metric)
    if params.head == "regression":
        if kind in ("accuracy", "f1"):
            raise ValidationError(f"metric {metric!r} is not defined for a regression head")
        return score_predictions(predict_values_matrix(params, x), gold_labels, metric)
    probs = predict_proba_matrix(params, x)
    classes = params.label_space.classes
    preds = [classes[i] for i in np.argmax(probs, axis=1)]
    if kind == "spearman":
        raise ValidationError("spearman is not defined for a classification head")
    return score_predictions(preds, gold_labels, metric)


def labeled_matrix(
    dataset: Optional[Dataset], config: FeatureConfig
) -> Optional[tuple[sp.csr_matrix, list]]:
    """``(features, labels)`` of a dataset, or None when it is absent or empty."""
    if dataset is None or len(dataset) == 0:
        return None
    return featurize_matrix(dataset.examples, config), [ex.label for ex in dataset.examples]


def evaluate(
    params: ModelParams,
    dataset: Dataset,
    metric: str,
    config: FeatureConfig,
) -> float:
    if len(dataset) == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    x = featurize_matrix(dataset.examples, config)
    gold = [ex.label for ex in dataset.examples]
    if any(g is None for g in gold):
        raise ValidationError("evaluate requires a fully labeled dataset")
    return _metric_on_matrix(params, x, gold, metric)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EarlyStop:
    patience: int = 5
    eval_every: int = 20

    def __post_init__(self):
        _check_count("patience", self.patience)
        _check_count("eval_every", self.eval_every)


@dataclass(frozen=True)
class FixedSteps:
    total: int = 512
    checkpoint_every: int = 30
    average_last: int = 5

    def __post_init__(self):
        for name in ("total", "checkpoint_every", "average_last"):
            _check_count(name, getattr(self, name))
        if self.average_last > self.total // self.checkpoint_every:
            raise ValidationError("average_last exceeds the number of checkpoints")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 32
    max_steps: int = 300
    l2: float = 1e-4
    seed: int = 0
    lr_decay: float = 0.0
    stopping: Union[EarlyStop, FixedSteps] = field(default_factory=EarlyStop)

    def __post_init__(self):
        # A positive, finite learning rate and a finite l2 are also what keep
        # an untouched zero weight fixed under ``fit``'s decay.
        _check_rate("learning_rate", self.learning_rate, positive=True)
        _check_rate("l2", self.l2)
        _check_rate("lr_decay", self.lr_decay)
        _check_count("batch_size", self.batch_size)
        _check_count("max_steps", self.max_steps)


def fixed_steps(config: TrainConfig, steps: int) -> TrainConfig:
    """``config`` run for exactly ``steps`` SGD steps, keeping the last weights."""
    return replace(config, max_steps=steps, stopping=FixedSteps(steps, steps, 1))


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


def fit(
    init: ModelParams,
    x: sp.csr_matrix,
    labels: Sequence,
    config: TrainConfig,
    dev: Optional[tuple[sp.csr_matrix, Sequence]] = None,
    metric: str = "accuracy",
) -> tuple[ModelParams, list[dict]]:
    """Mini-batch SGD on a precomputed feature matrix.

    Early stopping keeps the checkpoint with the best dev metric (ties go to
    the earliest); fixed-step training averages the last snapshots taken at
    the configured interval. Returns the trained params and a trace of
    per-evaluation records.

    Each step is bit-identical to the dense step ``w -= lr * g`` with
    ``_, g, _ = loss_and_grad(w, b, x[batch], y[batch], l2)``, but updates
    only the active columns: those ``x`` touches or ``init`` holds nonzero.
    Every other weight is ±0.0 with a zero gradient, and for a positive,
    finite ``lr`` and a finite ``l2`` the decay ``w - lr*(0.0 + l2*w)`` leaves
    it bit-identical, sign included. The active weights are held transposed,
    ``[active, outputs]``, so each batch's columns are contiguous rows;
    snapshots write them back into a copy of ``init.weights``.
    """
    if x.shape[0] == 0:
        raise ValidationError("training set must be nonempty")
    early = isinstance(config.stopping, EarlyStop)
    if early and dev is None:
        raise ValidationError("early stopping requires a dev set")

    y = _encode_targets(init, labels)
    rng = np.random.default_rng(config.seed)
    n = x.shape[0]
    active = np.union1d(x.indices, np.flatnonzero(init.weights.any(axis=0)))
    # Renumbering keeps the column order, so every batch below is unchanged.
    x = sp.csr_matrix(
        (x.data, np.searchsorted(active, x.indices), x.indptr), shape=(n, active.size)
    )
    wt = init.weights[:, active].T.copy()  # [active, outputs], C-contiguous
    bias = init.bias.copy()
    # One scratch buffer: the class-major squares for the L2 norm, then the decay.
    decay = np.empty_like(wt)
    squares = decay.reshape(wt.shape[::-1])
    trace: list[dict] = []

    def weights() -> np.ndarray:
        w = init.weights.copy()
        w[:, active] = wt.T
        return w

    def snapshot() -> ModelParams:
        return ModelParams(weights(), bias.copy(), init.head, init.label_space)

    def dev_score(p: ModelParams) -> float:
        xd, yd = dev
        return _metric_on_matrix(p, xd, yd, metric)

    best: Optional[ModelParams] = None
    best_score = -np.inf
    evals_since_best = 0

    if early:
        best = snapshot()
        best_score = dev_score(best)
        trace.append({"step": 0, "loss": None, "dev_metric": best_score})

    checkpoints: list[ModelParams] = []
    stop = config.stopping
    total, every = (config.max_steps, stop.eval_every) if early else (stop.total, stop.checkpoint_every)

    cursor = n  # the first step draws the first permutation
    for step in range(1, total + 1):
        if cursor >= n:
            order = rng.permutation(n)
            xs, ys = x[order], y[order]
            cursor = 0
        lo, hi = cursor, min(cursor + config.batch_size, n)
        cursor += config.batch_size
        # The batch with its columns renumbered 0..k-1 in sorted order. Each
        # row keeps its entry order, so every sum accumulates as in the dense step.
        start, end = xs.indptr[lo], xs.indptr[hi]
        cols, local = np.unique(xs.indices[start:end], return_inverse=True)
        xb = sp.csr_matrix(
            (xs.data[start:end], local, xs.indptr[lo : hi + 1] - start),
            shape=(hi - lo, cols.size),
        )
        touched = wt[cols]
        data_loss, grad_w, grad_b = loss_and_grad(touched.T, bias, xb, ys[lo:hi], 0.0, init.head)
        # The L2 term, summed class-major; elementwise ufuncs keep it off the
        # BLAS thread pool. Summing only the active weights can round
        # differently from the dense objective, so a loss the trace records,
        # or one near overflow, is summed over all weights as the dense step does.
        np.square(wt.T, out=squares)
        norm = float(squares.sum())
        loss = data_loss + 0.5 * config.l2 * norm
        record = step % every == 0 or (early and step == total)
        if record or not (norm < 1e300 and loss < 1e300):
            w = weights()
            loss = data_loss + 0.5 * config.l2 * float((w * w).sum())
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at step {step}")
        lr = config.learning_rate / (1.0 + config.lr_decay * (step - 1))
        touched -= lr * (grad_w.T + config.l2 * touched)
        # Untouched columns have a zero data gradient: w - lr * (0.0 + l2 * w).
        # Adding 0.0 makes l2 * -0.0 into +0.0, so a -0.0 weight stays -0.0.
        np.multiply(wt, config.l2, out=decay)
        np.add(decay, 0.0, out=decay)
        np.multiply(decay, lr, out=decay)
        wt -= decay
        wt[cols] = touched
        bias -= lr * grad_b

        if not record:
            continue
        if early:
            current = snapshot()
            score = dev_score(current)
            trace.append({"step": step, "loss": loss, "dev_metric": score})
            if score > best_score:
                best, best_score, evals_since_best = current, score, 0
            else:
                evals_since_best += 1
                if evals_since_best >= stop.patience:
                    break
        else:
            checkpoints.append(snapshot())
            trace.append({"step": step, "loss": loss, "dev_metric": None})

    if early:
        return best, trace
    if not checkpoints:
        return snapshot(), trace
    return average_checkpoints(checkpoints[-config.stopping.average_last :]), trace


def train(
    init: ModelParams,
    train_set: Dataset,
    config: TrainConfig,
    dev_set: Optional[Dataset] = None,
    feature_config: Optional[FeatureConfig] = None,
    metric: str = "accuracy",
) -> tuple[ModelParams, list[dict]]:
    """Dataset-level wrapper around :func:`fit`."""
    feature_config = feature_config or FeatureConfig()
    labels = [ex.label for ex in train_set.examples]
    if any(l is None for l in labels):
        raise ValidationError("train requires a fully labeled training set")
    x = featurize_matrix(train_set.examples, feature_config)
    dev = labeled_matrix(dev_set, feature_config)
    return fit(init, x, labels, config, dev=dev, metric=metric)
