"""Acceptance suite: qualitative-pattern and property gates for the pipeline.

Each test covers one numbered criterion and enforces its runtime budget.
Golden values were frozen from pinned reference runs of the same
configurations; comparisons use the stated tolerances.
"""

import hashlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize_scalar

from selfaug.augmentation import (
    GeneratorSpec,
    filter_candidates,
    generate_candidates,
    select_tau,
    ta_examples_to_dataset,
)
from selfaug.cli import EXIT_OK, main
from selfaug.corpus import (
    CONTINUOUS_BINS,
    DEV_SIZE,
    Dataset,
    Example,
    LabelSpace,
    bin_continuous_labels,
    sample_regime,
    strip_labels,
)
from selfaug.harness import ExperimentSpec, run_experiment
from selfaug.selftrain import SelfTrainConfig, self_train
from selfaug.synth import SynthSpec, synth_corpus
from selfaug.textmodel import (
    FeatureConfig,
    TrainConfig,
    evaluate,
    featurize_matrix,
    fit,
    init_params,
    loss_and_grad,
    predict_labels,
    train,
)

FC = FeatureConfig(hash_dim=2 ** 14)
HARNESS_FC = FeatureConfig(hash_dim=2 ** 16)

# Frozen from the pinned reference run of the criterion-2 configuration
# (keyword-sentiment, k=8, 10 restarts, master seed 0): mean(st) - mean(baseline).
GOLDEN_ST_MARGIN = 0.1784


def _elapsed_ok(start, budget):
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded the {budget}s budget"


# -----------------------------------------------------------------------------
# 1. Self-training loop invariants
# -----------------------------------------------------------------------------


def test_criterion_01_selftrain_invariants():
    """Every iteration trains on exactly M+N examples from the f0 snapshot."""
    start = time.monotonic()
    m, n = 16, 2000
    train_corpus = synth_corpus(SynthSpec("keyword-sentiment"), 400, 7)
    pool_corpus = synth_corpus(SynthSpec("keyword-sentiment", name="ks-pool"), n, 8)
    pool = strip_labels(pool_corpus)

    for seed in range(5):
        split = sample_regime(train_corpus, "few_shot", k=8, seed=seed)
        assert len(split.train) == m
        f0 = init_params(train_corpus.label_space, FC)
        result = self_train(
            f0, split.train, pool, dev=split.dev,
            st_config=SelfTrainConfig(
                max_iterations=6, final_finetune_on_l="off",
                drop_lowest_confidence_fraction=0.0,
            ),
            train_config=TrainConfig(seed=seed), feature_config=FC,
            gold=pool_corpus.labels_by_id(),
        )
        f0_hash = f0.params_hash()
        assert result.f0_hash == f0_hash
        assert len(result.per_iteration) >= 1
        for rec in result.per_iteration:
            assert rec["train_size"] == m + n  # full-pool coverage, drop fraction 0
            assert rec["student_init_hash"] == f0_hash
            assert rec["pool_labeling_accuracy"] is not None

    _elapsed_ok(start, 60)


# -----------------------------------------------------------------------------
# 2. Self-training beats the baseline by the golden margin
# -----------------------------------------------------------------------------


def test_criterion_02_selftrain_efficacy():
    start = time.monotonic()
    spec = ExperimentSpec(
        task=SynthSpec("keyword-sentiment"),
        arms=("baseline", "st"),
        restarts=10,
        st_config=SelfTrainConfig(max_iterations=8),
    )
    agg = run_experiment(spec).aggregates()
    margin = agg["st"]["mean"] - agg["baseline"]["mean"]
    assert margin == pytest.approx(GOLDEN_ST_MARGIN, abs=0.02)
    assert agg["st"]["std"] <= agg["baseline"]["std"]
    _elapsed_ok(start, 180)


# -----------------------------------------------------------------------------
# 3. Method ordering on the sentence-pair target task
# -----------------------------------------------------------------------------


def test_criterion_03_method_ordering():
    start = time.monotonic()
    spec = ExperimentSpec(
        task=SynthSpec("pair-overlap-nli"),
        arms=("baseline", "ta", "st", "ta-st"),
        restarts=10,
        st_config=SelfTrainConfig(max_iterations=8),
    )
    agg = run_experiment(spec).aggregates()
    tol = 0.01
    assert agg["ta-st"]["mean"] >= agg["ta"]["mean"] - tol
    assert agg["ta-st"]["mean"] >= agg["st"]["mean"] - tol
    assert agg["ta"]["mean"] >= agg["baseline"]["mean"] - tol
    _elapsed_ok(start, 300)


# -----------------------------------------------------------------------------
# 4. Broad-distribution pseudo-labeling beats confidence filtering
# -----------------------------------------------------------------------------


def test_criterion_04_broad_beats_confidence_filtering():
    start = time.monotonic()
    base = synth_corpus(SynthSpec("drifted-cluster"), 1200, 0)
    gold = base.labels_by_id()
    for seed in (1, 2):
        split = sample_regime(base, "few_shot", k=8, seed=seed)
        f0 = init_params(base.label_space, HARNESS_FC)
        tc = TrainConfig(seed=seed)
        broad = self_train(
            f0, split.train, split.pool, dev=split.dev,
            st_config=SelfTrainConfig(max_iterations=12),
            train_config=tc, feature_config=HARNESS_FC, gold=gold,
        )
        cf = self_train(
            f0, split.train, split.pool, dev=split.dev,
            st_config=SelfTrainConfig(mode="confidence_filtering", cf_batch=32),
            train_config=tc, feature_config=HARNESS_FC, gold=gold,
        )
        broad_series = [r["pool_labeling_accuracy"] for r in broad.per_iteration]
        cf_final = cf.per_iteration[-1]["pool_labeling_accuracy"]
        assert broad_series[-1] > cf_final
        # Non-decreasing to convergence within a 0.5-point band.
        for prev, cur in zip(broad_series, broad_series[1:]):
            assert cur >= prev - 0.005
    _elapsed_ok(start, 180)


# -----------------------------------------------------------------------------
# 5. Filtering correctness properties
# -----------------------------------------------------------------------------


def test_criterion_05_filtering_properties():
    start = time.monotonic()
    aux = synth_corpus(SynthSpec("pair-overlap-nli"), 300, 0)
    clf, _ = train(
        init_params(aux.label_space, FC), aux,
        TrainConfig(seed=0, max_steps=300, eval_every=300, average_last=1, stopping="fixed_steps"),
        feature_config=FC,
    )
    labels = aux.label_space.classes
    gen = GeneratorSpec(samples_per_input=12)
    sources = [ex.segment_a for ex in aux.examples[:40]]
    cases = [
        (src, label, generate_candidates(gen, label, src, seed=i))
        for i, src in enumerate(sources)
        for label in labels
    ]

    rng = np.random.default_rng(0)
    for _ in range(1000):
        src, label, candidates = cases[int(rng.integers(0, len(cases)))]
        lo, hi = sorted(rng.uniform(0.05, 0.95, size=2))
        kept_lo = filter_candidates(clf, src, candidates, label, lo, FC)
        kept_hi = filter_candidates(clf, src, candidates, label, hi, FC)
        texts_lo = {k.hypothesis for k in kept_lo}
        texts_hi = {k.hypothesis for k in kept_hi}
        assert texts_lo <= set(candidates)
        assert texts_hi <= texts_lo  # raising tau never admits new examples
        for k in kept_hi:
            assert k.filter_confidence > hi

    # Kept examples re-verify against the classifier one by one.
    src, label, candidates = cases[0]
    for k in filter_candidates(clf, src, candidates, label, 0.4, FC):
        pair = Example(id="v", segment_a=src, segment_b=k.hypothesis)
        (predicted,), confidences = predict_labels(clf, featurize_matrix([pair], FC))
        assert predicted == label
        assert confidences[0] > 0.4

    _elapsed_ok(start, 10)


# -----------------------------------------------------------------------------
# 6. Threshold selection matches an exhaustive grid oracle
# -----------------------------------------------------------------------------


def test_criterion_06_tau_selection_oracle():
    start = time.monotonic()
    aux = synth_corpus(SynthSpec("pair-overlap-nli"), 300, 0)
    clf, _ = train(
        init_params(aux.label_space, FC), aux,
        TrainConfig(seed=0, max_steps=300, eval_every=300, average_last=1, stopping="fixed_steps"),
        feature_config=FC,
    )
    aux_dev = synth_corpus(SynthSpec("pair-overlap-nli", name="aux-dev"), 40, 1)
    gen = GeneratorSpec(samples_per_input=6, flip_rate=0.5)  # half wrong-label output
    grid = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    budget, seed = 60, 11
    tc = TrainConfig(seed=seed)

    chosen = select_tau(clf, gen, aux_dev, grid, budget, seed, feature_config=FC, train_config=tc)
    assert chosen in grid
    assert chosen == select_tau(
        clf, gen, aux_dev, grid, budget, seed, feature_config=FC, train_config=tc
    )

    # Oracle: exhaustive grid evaluation, reimplemented from the documented
    # procedure (per-sentence hashed seeds, strict filtering, fixed-step
    # fine-tuning of a classifier copy, dev accuracy, smallest tau on ties).
    labels = clf.label_space.classes
    per_source = []
    for i, ex in enumerate(aux_dev.examples):
        for label in labels:
            key = f"{seed}:dev-src:{i}:{label}"
            sent_seed = int.from_bytes(
                hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
            )
            per_source.append(
                (ex.segment_a, label, generate_candidates(gen, label, ex.segment_a, sent_seed))
            )
    best_tau, best_score = None, -np.inf
    for tau in grid:
        entries = []
        for src, label, candidates in per_source:
            entries.extend(filter_candidates(clf, src, candidates, label, tau, FC))
        if not entries:
            continue
        synthetic = ta_examples_to_dataset(entries, labels)
        tuned, _ = fit(
            clf.copy(),
            featurize_matrix(synthetic.examples, FC),
            [ex.label for ex in synthetic.examples],
            TrainConfig(seed=seed, max_steps=budget, eval_every=budget, average_last=1, stopping="fixed_steps"),
        )
        score = evaluate(tuned, aux_dev, "accuracy", FC)
        if score > best_score:
            best_tau, best_score = tau, score
    assert chosen == best_tau

    _elapsed_ok(start, 60)


# -----------------------------------------------------------------------------
# 7. Analytic gradients match central finite differences
# -----------------------------------------------------------------------------


def test_criterion_07_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    h = 1e-5
    dim, classes = 24, 3
    for point in range(20):
        head = "classification" if point % 2 == 0 else "regression"
        outputs = classes if head == "classification" else 1
        n = int(rng.integers(4, 12))
        x = sp.csr_matrix(rng.poisson(0.8, size=(n, dim)).astype(float))
        if head == "classification":
            y = rng.integers(0, classes, size=n)
        else:
            y = rng.normal(size=n)
        w = rng.normal(scale=0.5, size=(outputs, dim))
        b = rng.normal(scale=0.5, size=outputs)
        l2 = 10.0 ** rng.uniform(-5, -2)

        _, grad_w, grad_b = loss_and_grad(w, b, x, y, l2, head)

        def loss_at(wp, bp):
            return loss_and_grad(wp, bp, x, y, l2, head)[0]

        for _ in range(6):
            i, j = int(rng.integers(0, outputs)), int(rng.integers(0, dim))
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            numeric = (loss_at(wp, b) - loss_at(wm, b)) / (2 * h)
            denom = max(abs(numeric), abs(grad_w[i, j]), 1e-8)
            assert abs(numeric - grad_w[i, j]) / denom < 1e-4

        i = int(rng.integers(0, outputs))
        bp, bm = b.copy(), b.copy()
        bp[i] += h
        bm[i] -= h
        numeric = (loss_at(w, bp) - loss_at(w, bm)) / (2 * h)
        denom = max(abs(numeric), abs(grad_b[i]), 1e-8)
        assert abs(numeric - grad_b[i]) / denom < 1e-4

    _elapsed_ok(start, 5)


# -----------------------------------------------------------------------------
# 8. SGD reaches the convex optimum found by coordinate search
# -----------------------------------------------------------------------------


def test_criterion_08_convex_oracle():
    start = time.monotonic()
    dim, n, l2 = 16, 20, 0.01
    rng = np.random.default_rng(3)
    x_dense = rng.poisson(0.7, size=(n, dim)).astype(float)
    x = sp.csr_matrix(x_dense)
    y = rng.integers(0, 2, size=n)
    space = LabelSpace.categorical(("a", "b"))
    labels = [space.classes[i] for i in y]

    init = init_params(space, FeatureConfig(hash_dim=dim))
    config = TrainConfig(
        learning_rate=0.5, batch_size=n, l2=l2, seed=0, lr_decay=0.001,
        max_steps=4000, eval_every=4000, average_last=1, stopping="fixed_steps",
    )
    model, _ = fit(init, x, labels, config)
    sgd_loss = loss_and_grad(model.weights, model.bias, x, y, l2)[0]

    # Independent objective for the oracle (no library loss code).
    def objective(flat):
        w = flat[: 2 * dim].reshape(2, dim)
        b = flat[2 * dim :]
        logits = x_dense @ w.T + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -logp[np.arange(n), y].mean() + 0.5 * l2 * (w ** 2).sum()

    # Cyclic coordinate descent with scalar line minimization.
    flat = np.zeros(2 * dim + 2)
    previous = objective(flat)
    for _ in range(200):
        for coord in range(flat.size):
            def along(t, coord=coord):
                trial = flat.copy()
                trial[coord] = t
                return objective(trial)

            res = minimize_scalar(along, bracket=(flat[coord] - 1.0, flat[coord] + 1.0))
            flat[coord] = res.x
        current = objective(flat)
        if previous - current < 1e-8:
            break
        previous = current
    oracle_loss = objective(flat)

    assert sgd_loss == pytest.approx(oracle_loss, abs=1e-3)
    _elapsed_ok(start, 30)


# -----------------------------------------------------------------------------
# 9. Dev-free protocol: 17 checkpoints, exact tail averaging
# -----------------------------------------------------------------------------


def test_criterion_09_checkpoint_averaging():
    start = time.monotonic()
    corpus = synth_corpus(SynthSpec("keyword-sentiment"), 120, 2)
    x = featurize_matrix(corpus.examples, FC)
    labels = [ex.label for ex in corpus.examples]
    init = init_params(corpus.label_space, FC)
    config = TrainConfig(seed=4, max_steps=512, eval_every=30, average_last=5, stopping="fixed_steps")

    model, trace = fit(init.copy(), x, labels, config)
    assert len(trace) == 17
    assert [rec["step"] for rec in trace] == list(range(30, 511, 30))

    # Trace-level replication of the SGD loop to recover the snapshots.
    y = np.array([corpus.label_space.classes.index(l) for l in labels])
    rng = np.random.default_rng(config.seed)
    w = init.weights.copy()
    b = init.bias.copy()
    order = rng.permutation(x.shape[0])
    cursor = 0
    snapshots = []
    for step in range(1, 513):
        if cursor >= x.shape[0]:
            order = rng.permutation(x.shape[0])
            cursor = 0
        batch = order[cursor : cursor + config.batch_size]
        cursor += config.batch_size
        _, gw, gb = loss_and_grad(w, b, x[batch], y[batch], config.l2)
        w -= config.learning_rate * gw
        b -= config.learning_rate * gb
        if step % 30 == 0:
            snapshots.append((w.copy(), b.copy()))

    assert len(snapshots) == 17
    mean_w = np.mean([s[0] for s in snapshots[-5:]], axis=0)
    mean_b = np.mean([s[1] for s in snapshots[-5:]], axis=0)
    assert model.weights.tobytes() == mean_w.tobytes()  # bit-level equality
    assert model.bias.tobytes() == mean_b.tobytes()
    _elapsed_ok(start, 5)


# -----------------------------------------------------------------------------
# 10. Sampler contracts
# -----------------------------------------------------------------------------


def test_criterion_10_sampler_contracts():
    start = time.monotonic()

    corpus = synth_corpus(SynthSpec("keyword-sentiment"), 700, 5)
    split = sample_regime(corpus, "few_shot", k=8, seed=3)
    counts = {}
    for ex in split.train:
        counts[ex.label] = counts.get(ex.label, 0) + 1
    assert counts == {"pos": 8, "neg": 8}
    assert len(split.dev) == DEV_SIZE
    ids = [set(split.train.ids()), set(split.dev.ids()), set(split.pool.ids())]
    assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

    space = LabelSpace.continuous(0.0, 1.0)
    examples = tuple(
        Example(id=f"r:{i}", segment_a=f"text token{i % 13}", label=(i % 100) / 100.0)
        for i in range(800)
    )
    cont = Dataset("cont", space, examples)
    cont_split = sample_regime(cont, "few_shot", k=4, seed=9)
    bins = bin_continuous_labels(cont_split.train, CONTINUOUS_BINS)
    per_bin = {}
    for b in bins.values():
        per_bin[b] = per_bin.get(b, 0) + 1
    assert per_bin == {b: 4 for b in range(CONTINUOUS_BINS)}

    # Byte-reproducible per seed.
    again = sample_regime(corpus, "few_shot", k=8, seed=3)
    assert again.train.to_jsonl() == split.train.to_jsonl()
    assert again.dev.to_jsonl() == split.dev.to_jsonl()
    assert again.pool.ids() == split.pool.ids()

    _elapsed_ok(start, 5)


# -----------------------------------------------------------------------------
# 11. End-to-end determinism through the CLI
# -----------------------------------------------------------------------------


def test_criterion_11_experiment_rerun_byte_identical(tmp_path):
    start = time.monotonic()
    args = [
        "--set", "model.hash_dim=16384",
        "--set", "datasets.train_partition_size=300",
        "--set", "datasets.test_size=80",
        "--set", "experiment.arms=[baseline, st]",
        "--set", "experiment.restarts=2",
        "--set", "self_training.max_iterations=3",
        "--quiet", "experiment",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out_a)] + args) == EXIT_OK
    assert main(["--out", str(out_b)] + args) == EXIT_OK
    for name in ("report.json", "scores.csv", "aggregate.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # Timing is wall-clock and deliberately excluded from the manifest.
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert "timing.json" not in manifest["files"]
    _elapsed_ok(start, 300)


# -----------------------------------------------------------------------------
# 12. Out-of-domain pools still self-train
# -----------------------------------------------------------------------------


def test_criterion_12_ood_pool_pattern():
    start = time.monotonic()
    base = ExperimentSpec(
        task=SynthSpec("keyword-sentiment"),
        arms=("ta", "st"),
        restarts=10,
        st_config=SelfTrainConfig(max_iterations=8),
        ood_task=SynthSpec("keyword-sentiment", params={"noise_rate": 0.3}),
    )
    rep_in = run_experiment(replace(base, pool_mode="in_only"))
    rep_out = run_experiment(replace(base, arms=("st",), pool_mode="out_only"))
    st_in = rep_in.aggregates()["st"]["mean"]
    st_out = rep_out.aggregates()["st"]["mean"]
    ta_only = rep_in.aggregates()["ta"]["mean"]
    assert st_in >= st_out - 0.01
    assert st_out > ta_only
    _elapsed_ok(start, 300)
