"""Experiment harness tests: seeds, splits, reports, sweeps, series."""

import json
import re
from dataclasses import replace

import pytest

import selfaug.harness as harness
from selfaug.augmentation import TAConfig, intermediate_finetune, swap_head, ta_examples_to_dataset
from selfaug.corpus import LabelSpace, UnlabeledPool, ValidationError, strip_labels
from selfaug.harness import (
    ARM_NAMES,
    ExperimentSpec,
    _pool_and_gold,
    base_corpus,
    build_aux_artifacts,
    build_ta_base_model,
    curve_aggregate_csv,
    curve_csv,
    derive_seed,
    make_splits,
    run_experiment,
    run_per_k,
)
from selfaug.selftrain import SelfTrainConfig
from selfaug.synth import NLI_CLASSES, SynthSpec
from selfaug.textmodel import FeatureConfig, TrainConfig, init_params, labeled_matrix

FAST = dict(
    task=SynthSpec("keyword-sentiment"),
    restarts=2,
    train_partition_size=400,
    test_size=100,
    feature_config=FeatureConfig(hash_dim=2 ** 14),
    train_config=TrainConfig(seed=0, max_steps=120),
    st_config=SelfTrainConfig(max_iterations=3),
)
# A small task-augmentation setup: tiny aux sets, a short TA pool, short training.
TA_FAST = dict(
    FAST,
    task=SynthSpec("pair-overlap-nli"),
    restarts=1,
    train_config=TrainConfig(seed=0, max_steps=40),
    st_config=SelfTrainConfig(max_iterations=2),
    ta_config=TAConfig(aux_train_size=60, aux_dev_size=20, ta_pool_limit=20),
)


def _count_calls(monkeypatch, name):
    """Wrap ``harness.<name>`` so every call is recorded; returns the call list."""
    calls = []
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)

    def test_sensitive_to_every_part(self):
        base = derive_seed(0, "a", 1)
        assert base != derive_seed(1, "a", 1)
        assert base != derive_seed(0, "b", 1)
        assert base != derive_seed(0, "a", 2)

    def test_range(self):
        for parts in [(), ("x",), ("x", "y", 3)]:
            s = derive_seed(123, *parts)
            assert 0 <= s < 2 ** 63


class TestExperimentSpec:
    def test_rejects_unknown_arm(self):
        with pytest.raises(ValidationError, match="unknown arms"):
            ExperimentSpec(task=SynthSpec("keyword-sentiment"), arms=("magic",))

    def test_rejects_a_repeated_arm(self):
        with pytest.raises(ValidationError, match="arm 'st' is listed more than once"):
            ExperimentSpec(task=SynthSpec("keyword-sentiment"), arms=("baseline", "st", "st"))

    def test_rejects_empty_arms(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(task=SynthSpec("keyword-sentiment"), arms=())

    def test_dev_free_forbids_early_stopping(self):
        with pytest.raises(ValidationError, match="early stopping"):
            ExperimentSpec(
                task=SynthSpec("keyword-sentiment"),
                dev_mode="dev_free",
                st_config=SelfTrainConfig(final_finetune_on_l="off"),
            )

    def test_dev_free_forbids_auto_finetune(self):
        with pytest.raises(ValidationError, match="final_finetune_on_l"):
            ExperimentSpec(
                task=SynthSpec("keyword-sentiment"),
                dev_mode="dev_free",
                train_config=TrainConfig(max_steps=90, eval_every=30, average_last=2, stopping="fixed_steps"),
                st_config=SelfTrainConfig(final_finetune_on_l="auto_by_dev"),
            )

    def test_dev_free_accepts_fixed_steps(self):
        spec = ExperimentSpec(
            task=SynthSpec("keyword-sentiment"),
            dev_mode="dev_free",
            train_config=TrainConfig(max_steps=90, eval_every=30, average_last=2, stopping="fixed_steps"),
            st_config=SelfTrainConfig(final_finetune_on_l="off"),
        )
        assert spec.dev_mode == "dev_free"

    def test_to_json_is_serializable(self):
        spec = ExperimentSpec(task=SynthSpec("keyword-sentiment"))
        json.dumps(spec.to_json(), sort_keys=True)


class TestMakeSplits:
    def test_arms_share_identical_splits(self):
        spec = ExperimentSpec(arms=("baseline", "st"), **FAST)
        a = make_splits(spec)
        b = make_splits(spec)
        for sa, sb in zip(a, b):
            assert sa.train.ids() == sb.train.ids()
            assert sa.dev.ids() == sb.dev.ids()
            assert sa.pool.ids() == sb.pool.ids()

    def test_restarts_differ(self):
        spec = ExperimentSpec(arms=("baseline",), **FAST)
        splits = make_splits(spec)
        assert splits[0].train.ids() != splits[1].train.ids()

    def test_fixed_dev_mode(self):
        spec = ExperimentSpec(arms=("baseline",), resample_dev=False, **FAST)
        splits = make_splits(spec)
        assert splits[0].dev.ids() == splits[1].dev.ids()
        for s in splits:
            assert not set(s.dev.ids()) & set(s.train.ids())

    def test_resampled_dev_varies(self):
        spec = ExperimentSpec(arms=("baseline",), resample_dev=True, **FAST)
        splits = make_splits(spec)
        assert splits[0].dev.ids() != splits[1].dev.ids()

    @pytest.mark.parametrize("resample_dev", [True, False])
    def test_given_base_corpus_gives_the_same_splits(self, resample_dev):
        spec = ExperimentSpec(arms=("baseline",), resample_dev=resample_dev, **FAST)
        for given, default in zip(make_splits(spec, base_corpus(spec)), make_splits(spec)):
            for part in ("train", "dev", "pool"):
                assert getattr(given, part).ids() == getattr(default, part).ids()


class TestRunExperiment:
    def test_synthesizes_the_base_corpus_and_the_test_set_once(self, monkeypatch):
        calls = []
        synth = harness.synth_corpus

        def counted(task, size, seed):
            calls.append((task, size))
            return synth(task, size, seed)

        monkeypatch.setattr(harness, "synth_corpus", counted)
        spec = ExperimentSpec(arms=("baseline",), **{**FAST, "restarts": 1})
        run_experiment(replace(spec, train_config=TrainConfig(seed=0, max_steps=20)))
        assert calls.count((spec.task, spec.train_partition_size)) == 1
        assert calls.count((replace(spec.task, name="keyword-sentiment-test"), spec.test_size)) == 1

    def test_baseline_and_st_report(self):
        spec = ExperimentSpec(arms=("baseline", "st"), **FAST)
        report = run_experiment(spec)
        assert len(report.scores["baseline"]) == 2
        assert len(report.scores["st"]) == 2
        assert not report.partial
        agg = report.aggregates()
        assert set(agg) == {"baseline", "st"}
        assert "mean" in agg["baseline"] and "std" in agg["baseline"]
        # Self-training arms carry per-iteration series.
        assert len(report.series["st"]) == 2

    def test_arms_fix_their_own_self_training_mode(self):
        """st and ta-st self-train in broad mode whatever ``st_config.mode`` says."""
        spec = ExperimentSpec(arms=("st", "ta-st"), **TA_FAST)
        default = run_experiment(spec)
        cf = run_experiment(replace(spec, st_config=replace(spec.st_config, mode="confidence_filtering")))
        assert not cf.partial and all(cf.series.values())
        assert all("added" not in rec for runs in cf.series.values() for run in runs for rec in run)
        assert json.dumps([cf.scores, cf.series]) == json.dumps([default.scores, default.series])

    def test_population_std(self):
        spec = ExperimentSpec(arms=("baseline",), **FAST)
        report = run_experiment(spec)
        import numpy as np

        scores = report.scores["baseline"]
        assert report.aggregates()["baseline"]["std"] == pytest.approx(np.std(scores, ddof=0))

    def test_top3_aggregate(self):
        spec = ExperimentSpec(arms=("baseline",), top3_aggregate=True, **FAST)
        report = run_experiment(spec)
        agg = report.aggregates()["baseline"]
        assert "top3_mean" in agg
        assert agg["top3_mean"] >= agg["mean"]

    def test_report_json_is_canonical(self):
        spec = ExperimentSpec(arms=("baseline",), **FAST)
        a = run_experiment(spec).to_json_str()
        b = run_experiment(spec).to_json_str()
        assert a == b

    def test_csv_outputs(self):
        spec = ExperimentSpec(arms=("baseline",), **FAST)
        report = run_experiment(spec)
        scores = report.scores_csv().splitlines()
        assert scores[0] == "arm,restart,score"
        assert len(scores) == 3
        agg = report.aggregate_csv().splitlines()
        assert agg[0] == "arm,mean,std"

    def test_cf_st_uses_the_effective_pool(self):
        spec = ExperimentSpec(
            arms=("cf-st",),
            **{**FAST, "restarts": 1, "st_config": SelfTrainConfig(cf_batch=64)},
            ood_task=SynthSpec("keyword-sentiment", params={"noise_rate": 0.3}),
            pool_mode="in_plus_out",
        )
        report = run_experiment(spec)
        assert not report.partial
        split = make_splits(spec)[0]
        mixed = _pool_and_gold(spec, split, 0, {})[0]
        assert len(mixed) > len(split.pool)
        assert sum(rec["added"] for rec in report.series["cf-st"][0]) == len(mixed)

    @pytest.mark.parametrize("pool_mode", ["out_only", "in_plus_out"])
    def test_ood_pool_accuracy_reads_the_pool_gold(self, pool_mode):
        # Out-of-domain rows are scored against their own corpus's labels
        # (30% label noise), not looked up in the in-domain gold and missed.
        spec = ExperimentSpec(
            arms=("st", "cf-st"),
            **{**FAST, "restarts": 1, "st_config": SelfTrainConfig(max_iterations=2, cf_batch=256)},
            ood_task=SynthSpec("keyword-sentiment", params={"noise_rate": 0.3}),
            pool_mode=pool_mode,
        )
        report = run_experiment(spec)
        assert not report.partial
        records = report.series["st"][0] + report.series["cf-st"][0]
        assert all(rec["pool_labeling_accuracy"] > 0.5 for rec in records)
        assert all(rec["added_batch_accuracy"] > 0.5 for rec in report.series["cf-st"][0])

    @pytest.mark.parametrize("pool_mode", ["out_only", "in_plus_out"])
    def test_ood_pool_without_an_ood_task_fails_each_self_training_arm(self, pool_mode):
        spec = ExperimentSpec(arms=("baseline", "st", "cf-st"), **{**FAST, "restarts": 1}, pool_mode=pool_mode)
        report = run_experiment(spec)
        assert report.partial
        assert report.errors["baseline"] == [] and report.scores["baseline"][0] is not None
        for arm in ("st", "cf-st"):
            assert report.scores[arm] == [None]
            assert report.errors[arm] == [
                f"restart 0: MissingOODError: pool mode {pool_mode!r} needs an out-of-domain corpus"
            ]

    @pytest.mark.parametrize("pool_mode", ["out_only", "in_plus_out"])
    def test_builds_the_ood_pool_once_per_restart(self, monkeypatch, pool_mode):
        spec = ExperimentSpec(
            arms=("st", "ta-st", "cf-st"),
            **{**FAST, "st_config": SelfTrainConfig(max_iterations=2, cf_batch=256)},
            ood_task=SynthSpec("keyword-sentiment", name="ood", params={"noise_rate": 0.3}),
            pool_mode=pool_mode,
        )
        calls = _count_calls(monkeypatch, "synth_corpus")
        shared = run_experiment(spec)
        assert not shared.partial
        assert [args[0] for args in calls].count(spec.ood_task) == spec.restarts
        # Reference: every build runs again for every arm, as before the pool was shared.
        monkeypatch.setattr(harness, "_once", lambda built, key, build: build())
        calls.clear()
        rebuilt = run_experiment(spec)
        assert [args[0] for args in calls].count(spec.ood_task) == 3 * spec.restarts
        assert shared.to_json_str() == rebuilt.to_json_str()

    def test_timing_excluded_from_report(self):
        spec = ExperimentSpec(arms=("baseline",), **FAST)
        report = run_experiment(spec)
        assert report.timing  # populated...
        assert "timing" not in report.to_json()  # ...but never serialized


class TestSweep:
    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(regime="full", sweep_ks=(4, 8)), "a k sweep requires the few_shot regime"),
            (dict(sweep_ks=(8, 4)), "sweep ks must be strictly ascending, got [8, 4]"),
            (dict(sweep_ks=(4, 4)), "strictly ascending"),
            (dict(sweep_ks=(0, 4)), "sweep k must be an integer >= 1, got 0"),
            (dict(sweep_ks=(True, 4)), "sweep k must be an integer >= 1, got True"),
            (dict(sweep_ks=(4.5,)), "sweep k must be an integer >= 1, got 4.5"),
        ],
    )
    def test_spec_rejects_a_bad_sweep(self, changes, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            ExperimentSpec(arms=("baseline",), **{**FAST, **changes})

    def test_runs_the_spec_k_and_the_sweep_in_k_order(self):
        spec = ExperimentSpec(arms=("baseline",), **FAST, k=6, sweep_ks=(4, 8))
        reports = run_per_k(spec)
        assert list(reports) == [4, 6, 8]
        assert [report.spec.k for report in reports.values()] == [4, 6, 8]

    def test_curve_rows_and_csv(self):
        spec = ExperimentSpec(arms=("baseline",), **FAST, sweep_ks=(4, 8))
        reports = run_per_k(spec)
        lines = curve_csv(reports).splitlines()
        assert lines[0] == "arm,k,restart,score"
        assert [line.split(",")[1] for line in lines[1:]] == ["4", "4", "8", "8"]  # 2 ks x 2 restarts
        agg_lines = curve_aggregate_csv(reports).splitlines()
        assert agg_lines[0] == "arm,k,mean,std"
        assert len(agg_lines) == 3

    def test_builds_aux_artifacts_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, "build_aux_artifacts")
        spec = ExperimentSpec(arms=("ta",), **TA_FAST, sweep_ks=(4, 8))
        reports = run_per_k(spec)
        assert len(calls) == 1
        for k in (4, 8):
            alone = run_experiment(replace(spec, k=k, sweep_ks=())).scores["ta"]
            assert reports[k].scores["ta"] == alone
            assert None not in alone


class TestStartModels:
    @pytest.fixture(scope="class")
    def aux(self):
        return build_aux_artifacts(ExperimentSpec(arms=("ta",), **TA_FAST))

    def test_ta_base_model_built_once_per_restart(self, monkeypatch):
        calls = _count_calls(monkeypatch, "build_ta_base_model")
        report = run_experiment(ExperimentSpec(arms=("ta", "ta-st"), **TA_FAST))
        assert not report.partial
        assert len(calls) == 1

    @pytest.mark.parametrize("family", ["keyword-sentiment", "drifted-cluster"])
    def test_no_aux_work_when_no_class_carries_over(self, monkeypatch, family):
        aux_calls = _count_calls(monkeypatch, "build_aux_artifacts")
        ta_calls = _count_calls(monkeypatch, "build_ta_base_model")
        spec = ExperimentSpec(arms=("itft", "ta", "ta-st"), **{**TA_FAST, "task": SynthSpec(family)})
        report = run_experiment(spec)
        assert not report.partial
        assert aux_calls == [] and ta_calls == []

    @pytest.mark.parametrize("family", ["keyword-sentiment", "drifted-cluster", None])
    def test_reference_start_models_are_zeros_when_no_class_carries_over(self, aux, family):
        """What the skipped aux work would have returned: ``init_params`` zeros."""
        spec = ExperimentSpec(arms=("ta",), **TA_FAST)
        pool = strip_labels(base_corpus(replace(spec, task=SynthSpec("keyword-sentiment"))))
        if family is None:
            space = LabelSpace.continuous(0.0, 1.0)
        else:
            space = base_corpus(replace(spec, task=SynthSpec(family))).label_space
        zeros = init_params(space, spec.feature_config).to_bytes()
        assert swap_head(aux.classifier, space).to_bytes() == zeros
        assert build_ta_base_model(spec, aux, pool, space, 3)[1].to_bytes() == zeros

    @pytest.mark.parametrize("family", ["pair-overlap-nli", "keyword-sentiment"])
    def test_arms_run_together_match_arms_run_alone(self, family):
        """No arm changes a start model that another arm of its kind reuses."""
        spec = ExperimentSpec(arms=ARM_NAMES, **{**TA_FAST, "task": SynthSpec(family)})
        together = run_experiment(spec)
        assert not together.partial
        for arm in ARM_NAMES:
            alone = run_experiment(replace(spec, arms=(arm,)))
            assert alone.scores[arm] == together.scores[arm]
            assert alone.series[arm] == together.series[arm]

    @pytest.mark.parametrize("case", ["the aux tau", "tau above every confidence", "empty pool"])
    def test_ta_base_model_matches_finetuning_on_the_entries_dataset(self, aux, case):
        """``f0`` trains on the pool pass's rows as on ``ta_examples_to_dataset`` of its entries."""
        spec = ExperimentSpec(arms=("ta",), **TA_FAST)
        corpus = base_corpus(spec)
        pool = UnlabeledPool("empty") if case == "empty pool" else strip_labels(corpus)
        if case == "tau above every confidence":
            aux = replace(aux, tau=1.0)
        entries, f0 = build_ta_base_model(spec, aux, pool, corpus.label_space, 3)
        assert bool(entries) == (case == "the aux tau")
        fc = spec.feature_config
        ref = intermediate_finetune(
            init_params(aux.aux_train.label_space, fc),
            labeled_matrix(ta_examples_to_dataset(entries, list(NLI_CLASSES)), fc),
            labeled_matrix(aux.aux_train, fc),
            corpus.label_space,
            spec.ta_config,
            replace(spec.train_config, seed=3),
        )
        assert f0.to_bytes() == ref.to_bytes()

    def test_failed_ta_build_fails_only_the_ta_arms(self, monkeypatch):
        calls = []

        def broken(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("generator down")

        monkeypatch.setattr(harness, "build_ta_base_model", broken)
        report = run_experiment(ExperimentSpec(arms=("baseline", "ta", "st", "ta-st"), **TA_FAST))
        assert report.partial
        assert report.errors["ta"] == report.errors["ta-st"] == [
            "restart 0: RuntimeError: generator down"
        ]
        assert report.scores["ta"] == report.scores["ta-st"] == [None]
        assert report.errors["baseline"] == report.errors["st"] == []
        assert None not in report.scores["baseline"] + report.scores["st"]
        assert len(calls) == 1


def test_arm_names_frozen():
    assert ARM_NAMES == ("baseline", "itft", "ta", "st", "ta-st", "cf-st")
