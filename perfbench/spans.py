"""Outside-in span recorder for the selfaug layers.

The selfaug modules bind names with ``from ... import``, so each public
function is reachable under several module namespaces (``selftrain.fit`` and
``augmentation.fit`` are the same object as ``textmodel.fit``). ``Tracer.install``
replaces the function in every ``selfaug`` namespace that holds it, so a call
is recorded whichever module makes it. Spans stay in memory as
``[name, start, end, parent]`` and are written out when the run ends.

Counters are updated after the wrapped call returns. The time they take is
recorded as a ``trace`` span, so bookkeeping never inflates a layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sgd_step(c, args, kwargs, result, seen):
    weights, bias, x, y = (_arg(args, kwargs, i, n) for i, n in enumerate(("weights", "bias", "x", "y")))
    grad_w, grad_b = result[1], result[2]
    c["textmodel.sgd_step.rows"] += x.shape[0]
    cols = np.sort(x.indices)
    touched = int(np.count_nonzero(cols[1:] != cols[:-1])) + 1 if cols.size else 0
    c["textmodel.sgd_step.touched_sum"] += touched / x.shape[1]
    operands = (weights, bias, x.data, x.indices, x.indptr, np.asarray(y), grad_w, grad_b)
    c["textmodel.sgd_step.computed_mb"] += sum(a.nbytes for a in operands) / 1e6


def _count_featurize(c, args, kwargs, result, seen):
    examples = _arg(args, kwargs, 0, "examples")
    c["textmodel.featurize.rows"] += len(examples)
    for ex in examples:
        key = (ex.segment_a, ex.segment_b)
        if key in seen:
            c["textmodel.featurize.repeat_rows"] += 1
        else:
            seen.add(key)


def _count_predict(c, args, kwargs, result, seen):
    c["textmodel.predict.rows"] += _arg(args, kwargs, 1, "x").shape[0]


def _count_generate(c, args, kwargs, result, seen):
    c["augmentation.generate.candidates"] += len(result)


def _count_filter(c, args, kwargs, result, seen):
    c["augmentation.filter.offered"] += len(_arg(args, kwargs, 2, "candidates"))
    c["augmentation.filter.kept"] += len(result)


def _selftrain_counter(layer):
    def count(c, args, kwargs, result, seen):
        c[f"{layer}.iterations"] += len(result.per_iteration)
        c[f"{layer}.train_rows"] += sum(rec["train_size"] for rec in result.per_iteration)
    return count


def _count_synth(c, args, kwargs, result, seen):
    c["synth.rows"] += len(result)


# (module, function, layer, counter). A layer may cover several functions. A
# counter gets the counts, the call's arguments and result, and the set of
# texts featurized so far.
TARGETS = (
    ("selfaug.cli", "main", "cli", None),
    ("selfaug.config", "load_config", "config", None),
    ("selfaug.config", "build_experiment_spec", "config", None),
    ("selfaug.harness", "run_experiment", "harness", None),
    ("selfaug.synth", "synth_corpus", "synth", _count_synth),
    ("selfaug.corpus", "sample_regime", "corpus.sample_regime", None),
    ("selfaug.textmodel", "featurize_matrix", "textmodel.featurize", _count_featurize),
    ("selfaug.textmodel", "fit", "textmodel.fit", None),
    ("selfaug.textmodel", "loss_and_grad", "textmodel.sgd_step", _count_sgd_step),
    ("selfaug.textmodel", "predict_proba_matrix", "textmodel.predict", _count_predict),
    ("selfaug.textmodel", "predict_values_matrix", "textmodel.predict", _count_predict),
    ("selfaug.textmodel", "evaluate", "textmodel.evaluate", None),
    ("selfaug.augmentation", "generate_candidates", "augmentation.generate", _count_generate),
    ("selfaug.augmentation", "filter_candidates", "augmentation.filter", _count_filter),
    ("selfaug.augmentation", "select_tau", "augmentation.select_tau", None),
    ("selfaug.augmentation", "build_ta_dataset", "augmentation.build_ta", None),
    ("selfaug.augmentation", "build_ta_examples", "augmentation.build_ta", None),
    ("selfaug.augmentation", "intermediate_finetune", "augmentation.intermediate_finetune", None),
    ("selfaug.selftrain", "self_train", "selftrain.broad", _selftrain_counter("selftrain.broad")),
    ("selfaug.selftrain", "confidence_filter_selftrain", "selftrain.cf", _selftrain_counter("selftrain.cf")),
)


class Tracer:
    """Records one span per call of each target function."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.seen_texts: set = set()

    def wrap(self, layer, fn, counter=None):
        clock, spans, stack = time.perf_counter, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [layer, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                b0 = clock()
                counter(self.counts, args, kwargs, result, self.seen_texts)
                spans.append(["trace", b0, clock(), parent])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in each ``selfaug`` namespace that binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "selfaug" or n.startswith("selfaug.")]
        for module_name, fn_name, layer, counter in TARGETS:
            original = getattr(sys.modules.get(module_name), fn_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            wrapper = self.wrap(layer, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def first_start(self, layer: str, default: float) -> float:
        return next((s[1] for s in self.spans if s[0] == layer), default)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}, separators=(",", ":")), encoding="utf-8")


def self_intervals(spans: list[list]) -> list[list[tuple[float, float]]]:
    """For each span, the parts of its interval that no child span covers.

    Children of one parent run one after another, so they never overlap.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        gaps, cursor = [], start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            if spans[j][1] > cursor:
                gaps.append((cursor, spans[j][1]))
            cursor = max(cursor, spans[j][2])
        if end > cursor:
            gaps.append((cursor, end))
        out.append(gaps)
    return out


def layer_self_seconds(spans: list[list], window: tuple[float, float] | None = None) -> dict[str, float]:
    """Self time per layer name, optionally clipped to ``window``."""
    lo, hi = window if window is not None else (-np.inf, np.inf)
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), gaps in zip(spans, self_intervals(spans)):
        totals[name] += sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in gaps)
    return dict(totals)


def layer_metrics(tracer: Tracer, run_window: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by their benchmark names."""
    spans = tracer.spans
    self_s = layer_self_seconds(spans)
    in_run = layer_self_seconds(spans, run_window)
    calls, c = Counter(name for name, *_ in spans), tracer.counts
    run_s = run_window[1] - run_window[0]
    m = {
        "textmodel.sgd_step.calls": calls["textmodel.sgd_step"],
        "textmodel.sgd_step.rows": c["textmodel.sgd_step.rows"],
        "textmodel.sgd_step.touched_share": c["textmodel.sgd_step.touched_sum"] / max(calls["textmodel.sgd_step"], 1),
        "textmodel.sgd_step.computed_mb": c["textmodel.sgd_step.computed_mb"],
        "textmodel.fit.calls": calls["textmodel.fit"],
        "textmodel.featurize.calls": calls["textmodel.featurize"],
        "textmodel.featurize.rows": c["textmodel.featurize.rows"],
        "textmodel.featurize.repeat_share": c["textmodel.featurize.repeat_rows"] / max(c["textmodel.featurize.rows"], 1),
        "textmodel.predict.calls": calls["textmodel.predict"],
        "textmodel.predict.rows": c["textmodel.predict.rows"],
        "textmodel.predict.rows_per_call": c["textmodel.predict.rows"] / max(calls["textmodel.predict"], 1),
        "textmodel.evaluate.calls": calls["textmodel.evaluate"],
        "augmentation.generate.calls": calls["augmentation.generate"],
        "augmentation.generate.candidates": c["augmentation.generate.candidates"],
        "augmentation.filter.calls": calls["augmentation.filter"],
        "augmentation.filter.offered": c["augmentation.filter.offered"],
        "augmentation.filter.kept": c["augmentation.filter.kept"],
        "augmentation.filter.yield": c["augmentation.filter.kept"] / max(c["augmentation.filter.offered"], 1),
        "selftrain.broad.calls": calls["selftrain.broad"],
        "selftrain.broad.iterations": c["selftrain.broad.iterations"],
        "selftrain.broad.train_rows": c["selftrain.broad.train_rows"],
        "selftrain.cf.calls": calls["selftrain.cf"],
        "selftrain.cf.iterations": c["selftrain.cf.iterations"],
        "selftrain.cf.train_rows": c["selftrain.cf.train_rows"],
        "synth.calls": calls["synth"],
        "synth.rows": c["synth.rows"],
        "corpus.sample_regime.calls": calls["corpus.sample_regime"],
        "config.self_s": self_s.get("config", 0.0),
        # Only the part after entry into run_experiment: artifact and manifest writes.
        "cli.self_s": in_run.get("cli", 0.0),
        "trace.self_s": self_s.get("trace", 0.0),
        "trace.coverage": sum(v for k, v in in_run.items() if k != "trace") / run_s,
    }
    for layer in (
        "textmodel.sgd_step", "textmodel.fit", "textmodel.featurize", "textmodel.predict",
        "textmodel.evaluate", "augmentation.generate", "augmentation.filter",
        "augmentation.select_tau", "augmentation.build_ta", "augmentation.intermediate_finetune",
        "selftrain.broad", "selftrain.cf", "synth", "corpus.sample_regime", "harness",
    ):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m
