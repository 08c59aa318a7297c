"""Experiment harness tests: seeds, splits, reports, sweeps, series."""

import json
from dataclasses import replace

import pytest

import selfaug.harness as harness
from selfaug.corpus import LabelSpace, ValidationError
from selfaug.harness import (
    ARM_NAMES,
    CoverageError,
    ExperimentSpec,
    _effective_pool,
    base_corpus,
    curve_aggregate_csv,
    curve_csv,
    derive_seed,
    make_splits,
    run_experiment,
    sweep_k,
    track_labeling_series,
)
from selfaug.selftrain import SelfTrainConfig, SelfTrainResult
from selfaug.synth import SynthSpec
from selfaug.textmodel import FeatureConfig, FixedSteps, TrainConfig, init_params

FAST = dict(
    task=SynthSpec("keyword-sentiment"),
    restarts=2,
    train_partition_size=400,
    test_size=100,
    feature_config=FeatureConfig(hash_dim=2 ** 14),
    train_config=TrainConfig(seed=0, max_steps=120),
    st_config=SelfTrainConfig(max_iterations=3),
)


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
                train_config=TrainConfig(stopping=FixedSteps(90, 30, 2)),
                st_config=SelfTrainConfig(final_finetune_on_l="auto_by_dev"),
            )

    def test_dev_free_accepts_fixed_steps(self):
        spec = ExperimentSpec(
            task=SynthSpec("keyword-sentiment"),
            dev_mode="dev_free",
            train_config=TrainConfig(stopping=FixedSteps(90, 30, 2)),
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
            for part in ("train", "dev", "pool", "test"):
                assert getattr(given, part).ids() == getattr(default, part).ids()


class TestRunExperiment:
    def test_synthesizes_the_base_corpus_once(self, monkeypatch):
        calls = []
        synth = harness.synth_corpus

        def counted(task, size, seed):
            calls.append((task, size))
            return synth(task, size, seed)

        monkeypatch.setattr(harness, "synth_corpus", counted)
        spec = ExperimentSpec(arms=("baseline",), **{**FAST, "restarts": 1})
        run_experiment(replace(spec, train_config=TrainConfig(seed=0, max_steps=20)))
        assert calls.count((spec.task, spec.train_partition_size)) == 1
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
        mixed = _effective_pool(spec, split, 0)
        assert len(mixed) > len(split.pool)
        assert sum(rec["added"] for rec in report.series["cf-st"][0]) == len(mixed)

    def test_timing_excluded_from_report(self):
        spec = ExperimentSpec(arms=("baseline",), **FAST)
        report = run_experiment(spec)
        assert report.timing  # populated...
        assert "timing" not in report.to_json()  # ...but never serialized


class TestSweep:
    def test_requires_few_shot_and_ascending(self):
        spec = ExperimentSpec(arms=("baseline",), **FAST)
        with pytest.raises(ValidationError):
            sweep_k(replace(spec, regime="full"), [4, 8])
        with pytest.raises(ValidationError):
            sweep_k(spec, [8, 4])

    def test_curve_rows_and_csv(self):
        spec = ExperimentSpec(arms=("baseline",), **FAST)
        curve = sweep_k(spec, [4, 8])
        assert {row["k"] for row in curve["rows"]} == {4, 8}
        assert len(curve["rows"]) == 4  # 2 ks x 2 restarts
        lines = curve_csv(curve).splitlines()
        assert lines[0] == "arm,k,restart,score"
        agg_lines = curve_aggregate_csv(curve).splitlines()
        assert agg_lines[0] == "arm,k,mean,std"
        assert len(agg_lines) == 3


class TestTrackLabelingSeries:
    def test_series_extracted(self):
        spec = ExperimentSpec(arms=("st",), **FAST)
        report = run_experiment(spec)
        result = SelfTrainResult(
            final_model=init_params(
                LabelSpace.categorical(("pos", "neg")), FeatureConfig(hash_dim=2 ** 14)
            ),
            per_iteration=report.series["st"][0],
            converged_at=None,
            config=SelfTrainConfig(),
            f0_hash="",
        )
        series = track_labeling_series(result)
        assert set(series) == {"pool", "dev", "test"}
        assert all(0 <= v <= 1 for v in series["pool"])

    def test_missing_gold_raises(self):
        result = SelfTrainResult(
            final_model=init_params(
                LabelSpace.categorical(("pos", "neg")), FeatureConfig(hash_dim=2 ** 14)
            ),
            per_iteration=[{"pool_labeling_accuracy": None}],
            converged_at=None,
            config=SelfTrainConfig(),
            f0_hash="",
        )
        with pytest.raises(CoverageError):
            track_labeling_series(result)


def test_arm_names_frozen():
    assert ARM_NAMES == ("baseline", "itft", "ta", "st", "ta-st", "cf-st")
