"""Command-line surface tests: commands, exit codes, artifacts, error JSON."""

import json
import sys

import pytest

from selfaug import cli, harness
from selfaug.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from selfaug.config import build_experiment_spec, load_config
from selfaug.corpus import Dataset, LabelSpace, save_dataset
from selfaug.harness import build_aux_artifacts
from selfaug.synth import NLI_CLASSES, SynthSpec, synth_corpus
from selfaug.textmodel import FeatureConfig, evaluate, init_params

SMALL = [
    "--set", "model.hash_dim=16384",
    "--set", "model.max_steps=120",
    "--set", "datasets.train_partition_size=300",
    "--set", "datasets.test_size=80",
]


def _last_stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate"]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out

    def test_bad_key_exits_1_with_json(self, capsys):
        code = main(["--set", "model.hash_dims=64", "validate"])
        assert code == EXIT_VALIDATION
        payload = _last_stderr_json(capsys)
        assert payload["code"] == EXIT_VALIDATION
        assert "hash_dim" in payload["message"]

    @pytest.mark.parametrize(
        "override",
        [
            "self_training.mode=bogus",
            "self_training.final_finetune_on_l=sometimes",
            "self_training.batch=0",
            "self_training.batch=1.5",
            "self_training.batch=true",
            "self_training.max_iterations=1.5",
            "self_training.max_iterations=true",
            "self_training.max_iterations=abc",
            "self_training.agreement_patience=0",
            "self_training.agreement_patience=-1",
            "self_training.agreement_threshold=abc",
            "self_training.agreement_threshold=.nan",
            "self_training.agreement_threshold=2",
            "self_training.drop_lowest_confidence_fraction=abc",
        ],
    )
    def test_bad_self_training_value_exits_1(self, override, capsys):
        assert main(["--set", override, "validate"]) == EXIT_VALIDATION
        assert _last_stderr_json(capsys)["code"] == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "overrides",
        [
            ["model.learning_rate=-1"],
            ["model.learning_rate=.nan"],
            ["model.learning_rate=abc"],
            ["model.batch_size=0"],
            ["model.l2=-1"],
            ["model.lr_decay=-0.5"],
            ["model.eval_every=0"],
            ["model.max_steps=0"],
            ["model.patience=true"],
            ["model.hash_dim=abc"],
            ["model.stopping=fixed_steps", "model.checkpoint_every=0", "experiment.dev_mode=dev_free"],
            ["model.stopping=fixed_steps", "model.fixed_total=0"],
            ["model.stopping=fixed_steps", "model.average_last=0"],
            # A stopping kind's keys are checked when the other kind is selected.
            ["model.fixed_total=abc"],
            ["model.checkpoint_every=0"],
            ["model.average_last=1.5"],
            ["model.stopping=fixed_steps", "model.patience=abc"],
            ["model.stopping=fixed_steps", "model.eval_every=0"],
            ["model.ngram_orders=[0]"],
            ["model.ngram_orders=[-1]"],
            ["model.ngram_orders=[a]"],
            ["model.ngram_orders=3"],
        ],
    )
    def test_bad_training_number_exits_1(self, overrides, capsys):
        argv = [arg for expr in overrides for arg in ("--set", expr)]
        assert main(argv + ["validate"]) == EXIT_VALIDATION
        assert _last_stderr_json(capsys)["code"] == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "overrides",
        [
            ["experiment.metric=bogus"],
            ["experiment.metric=f1"],
            ["experiment.regime=bogus"],
            ["self_training.pool_mode=bogus"],
            ["self_training.pool_mode=bogus", "datasets.ood_family=keyword-sentiment"],
            ["self_training.pool_mode=out_only"],
            ["experiment.k=0"],
            ["experiment.restarts=1.5"],
            ["experiment.restarts=true"],
            ["datasets.train_partition_size=0"],
            ["datasets.test_size=0"],
            ["augmentation.aux_train_size=0"],
            ["augmentation.aux_dev_size=0"],
            ["augmentation.tau_budget=0"],
            ["augmentation.tau_source_limit=0"],
            ["augmentation.ta_pool_limit=-3"],
            ["augmentation.tau=1"],
            ["augmentation.tau=.nan"],
            ["generator.samples_per_input=1.5"],
            ["generator.samples_per_input=abc"],
            ["generator.flip_rate=2"],
            ["generator.flip_rate=-1"],
            ["generator.flip_rate=.nan"],
            ["generator.flip_rate=abc"],
            ["augmentation.two_stage=maybe"],
            ["augmentation.tau_grid=[a]"],
            ["augmentation.tau_grid=abc"],
            ["experiment.resample_dev=maybe"],
            ["experiment.top3_aggregate=3"],
            ["datasets.task_family=bogus"],
            ["datasets.task_params=5"],
            ["datasets.task_params={noise_rate: abc}"],
            ["datasets.task_params={noise_rate: 1.5}"],
            ["datasets.task_params={keywords_per_example: -1}"],
            ["datasets.task_params={keywords_per_example: true}"],
            ["datasets.task_params={minority_fraction: 2.0}"],
            ["datasets.task_params={minority_fraction: 2.0}", "datasets.task_family=drifted-cluster"],
            ["datasets.task_params={bogus: 1}"],
            ["datasets.ood_family=bogus"],
            ["datasets.ood_family=keyword-sentiment", "datasets.ood_params={noise_rate: -1}"],
            ["datasets.ood_family=keyword-sentiment", "datasets.ood_params=5"],
            ["datasets.ood_params={noise_rate: 5}"],
            ["datasets.ood_params=5"],
            ["augmentation.tau=null", "augmentation.tau_grid=[]"],
            ["datasets.input_format=xml"],
            ["datasets.input_path=task.jsonl"],
            ["datasets.input_path=task.jsonl", "datasets.label_classes=pos"],
            ["datasets.input_path=task.jsonl", "datasets.label_classes=[yes, no]"],
            ["datasets.input_path=task.jsonl", "datasets.label_lo=abc", "datasets.label_hi=1"],
            ["datasets.input_path=task.jsonl", "datasets.label_lo=0", "datasets.label_hi=.inf"],
            ["generator.command=5"],
            ["generator.kind=external", "generator.command=5"],
            ["generator.kind=external", "generator.command=' '"],
            ["experiment.arms=5"],
            ["datasets.task_family=[1]"],
            ["datasets.task_name=5"],
            ["experiment.master_seed=-1"],
            ["experiment.master_seed=abc"],
            ["datasets.input_path=5", "datasets.label_classes=[pos, neg]"],
        ],
    )
    def test_bad_experiment_value_exits_1(self, overrides, capsys):
        argv = [arg for expr in overrides for arg in ("--set", expr)]
        assert main(argv + ["validate"]) == EXIT_VALIDATION
        assert _last_stderr_json(capsys)["code"] == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "overrides",
        [
            ["experiment.sweep_ks=abc"],
            ["experiment.sweep_ks=5"],
            ["experiment.sweep_ks=[8, 4]"],
            ["experiment.sweep_ks=[4, 4]"],
            ["experiment.sweep_ks=[0, 4]"],
            ["experiment.sweep_ks=[true, 4]"],
            ["experiment.sweep_ks=[4.5]"],
            ["experiment.sweep_ks=[4, 8]", "experiment.regime=full"],
        ],
    )
    def test_bad_sweep_exits_1(self, overrides, capsys):
        argv = [arg for expr in overrides for arg in ("--set", expr)]
        assert main(argv + ["validate"]) == EXIT_VALIDATION
        assert _last_stderr_json(capsys)["code"] == EXIT_VALIDATION

    @pytest.mark.parametrize("sweep", ["[4, 8]", "[]", "null"])
    def test_good_sweep_ok(self, sweep):
        assert main(["--set", f"experiment.sweep_ks={sweep}", "--quiet", "validate"]) == EXIT_OK

    def test_validate_only_checks_the_sweep_option(self, capsys):
        assert main(["--validate-only", "experiment", "--sweep", "4,abc"]) == EXIT_VALIDATION
        assert "--sweep" in _last_stderr_json(capsys)["message"]

    def test_generator_top_k_is_an_unknown_key(self, capsys):
        assert main(["--set", "generator.top_k=40", "validate"]) == EXIT_VALIDATION
        assert "top_k" in _last_stderr_json(capsys)["message"]

    def test_validate_only_flag(self, capsys):
        assert main(["--validate-only", "synth"]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out


class TestSynth:
    def test_writes_corpus(self, tmp_path):
        out = tmp_path / "corpus.jsonl"
        code = main(SMALL + ["--out", str(out), "--quiet", "synth"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 300
        row = json.loads(lines[0])
        assert {"id", "text_a", "label"} <= set(row)

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(SMALL + ["--out", str(a), "--quiet", "--seed", "1", "synth"])
        main(SMALL + ["--out", str(b), "--quiet", "--seed", "2", "synth"])
        assert a.read_text() != b.read_text()

    @pytest.mark.parametrize(
        "bad", [["--set", "datasets.train_partition_size=abc"], ["--seed", "-1"]]
    )
    def test_bad_value_exits_1_without_output(self, tmp_path, capsys, bad):
        out = tmp_path / "corpus.jsonl"
        assert main(SMALL + bad + ["--out", str(out), "--quiet", "synth"]) == EXIT_VALIDATION
        assert _last_stderr_json(capsys)["code"] == EXIT_VALIDATION
        assert not out.exists()


class TestAugment:
    ARGS = SMALL + [
        "--set", "augmentation.aux_train_size=120",
        "--set", "augmentation.aux_dev_size=40",
        "--set", "augmentation.ta_pool_limit=15",
    ]

    def test_artifacts(self, tmp_path):
        out = tmp_path / "aug"
        code = main(self.ARGS + ["--out", str(out), "--quiet", "augment"])
        assert code == EXIT_OK
        summary = json.loads((out / "augment.json").read_text())
        assert summary["tau"] == 0.5
        assert summary["synthetic_count"] >= 1
        synth_rows = [json.loads(l) for l in (out / "synthetic.jsonl").read_text().splitlines()]
        assert len(synth_rows) == summary["synthetic_count"]
        assert all(r["label"] in NLI_CLASSES for r in synth_rows)
        # The saved base model targets the task label space.
        from selfaug.textmodel import ModelParams

        f0 = ModelParams.load(out / "f0.model")
        assert f0.label_space.classes == ("pos", "neg")

    def test_no_aux_data_exits_1(self, tmp_path, capsys):
        # tau=1 keeps no candidate, and the original aux set is excluded.
        out = tmp_path / "aug"
        args = self.ARGS + [
            "--set", "augmentation.tau=1.0",
            "--set", "augmentation.two_stage=false",
            "--set", "augmentation.include_original_aux=false",
        ]
        assert main(args + ["--out", str(out), "--quiet", "augment"]) == EXIT_VALIDATION
        assert _last_stderr_json(capsys)["code"] == EXIT_VALIDATION
        assert not (out / "f0.model").exists()

    def test_bad_task_file_exits_1_before_the_aux_build(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_aux_artifacts", lambda spec: pytest.fail("aux artifacts built"))
        task = tmp_path / "task.jsonl"
        task.write_text('{"text_a": "a fine movie", "label": "maybe"}\n', encoding="utf-8")
        args = self.ARGS + [
            "--set", f"datasets.input_path={task}", "--set", "datasets.label_classes=[pos, neg]",
        ]
        assert main(args + ["--out", str(tmp_path / "aug"), "--quiet", "augment"]) == EXIT_VALIDATION
        assert "maybe" in _last_stderr_json(capsys)["message"]

    def test_line_break_in_a_task_sentence_exits_1_before_the_generator_runs(self, tmp_path, capsys):
        ran = tmp_path / "generator-ran"
        script = tmp_path / "gen.py"
        script.write_text(f"import pathlib, sys\npathlib.Path({str(ran)!r}).touch()\nprint('x')\nprint('y')\n", encoding="utf-8")
        task = tmp_path / "task.jsonl"
        task.write_text(json.dumps({"text_a": "the movie was good\nthe film was bad", "label": "pos"}) + "\n", encoding="utf-8")
        args = self.ARGS + [
            "--set", f"datasets.input_path={task}", "--set", "datasets.label_classes=[pos, neg]",
            "--set", "generator.kind=external", "--set", f"generator.command={sys.executable} {script}",
        ]
        out = tmp_path / "aug"
        assert main(args + ["--out", str(out), "--quiet", "augment"]) == EXIT_VALIDATION
        assert "line break" in _last_stderr_json(capsys)["message"]
        assert not ran.exists() and not (out / "synthetic.jsonl").exists()

    def test_uses_the_experiment_aux_classifier(self, tmp_path):
        out = tmp_path / "aug"
        assert main(self.ARGS + ["--out", str(out), "--quiet", "augment"]) == EXIT_OK
        summary = json.loads((out / "augment.json").read_text())
        spec = build_experiment_spec(load_config(overrides=self.ARGS[1::2]))
        aux = build_aux_artifacts(spec)
        expected = evaluate(aux.classifier, aux.aux_dev, "accuracy", spec.feature_config)
        assert summary["aux_dev_accuracy"] == expected


class TestSelftrain:
    def _save_f0(self, tmp_path, classes=("pos", "neg")):
        fc = FeatureConfig(hash_dim=16384)
        f0 = init_params(LabelSpace.categorical(classes), fc)
        path = tmp_path / "f0.model"
        f0.save(path)
        return path

    def test_broad_run_writes_result(self, tmp_path):
        f0_path = self._save_f0(tmp_path)
        out = tmp_path / "st"
        code = main(
            SMALL + [
                "--out", str(out), "--quiet", "selftrain",
                "--f0", str(f0_path), "--max-iterations", "2",
            ]
        )
        assert code == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        assert result["mode"] == "broad"
        assert len(result["per_iteration"]) <= 2
        assert result["pool_size"] > 0
        assert (out / "final.model").exists()

    def test_confidence_filter_mode(self, tmp_path):
        f0_path = self._save_f0(tmp_path)
        out = tmp_path / "cf"
        code = main(
            [
                "--set", "model.hash_dim=16384",
                "--set", "datasets.train_partition_size=290",
                "--out", str(out), "--quiet", "selftrain",
                "--f0", str(f0_path), "--mode", "confidence-filter", "--batch", "16",
            ]
        )
        assert code == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        assert result["mode"] == "confidence_filtering"
        assert sum(r["added"] for r in result["per_iteration"]) == result["pool_size"]

    def test_zero_batch_exits_1(self, tmp_path, capsys):
        f0_path = self._save_f0(tmp_path)
        # --batch applies with or without --mode.
        for mode_args in (["--mode", "confidence-filter"], []):
            code = main(
                SMALL + [
                    "--quiet", "selftrain", "--f0", str(f0_path),
                    *mode_args, "--batch", "0", "--max-iterations", "1",
                ]
            )
            assert code == EXIT_VALIDATION
            assert _last_stderr_json(capsys)["code"] == EXIT_VALIDATION

    @pytest.mark.parametrize("damage", ["trailing", "truncated", "garbage"])
    def test_malformed_model_exits_1(self, tmp_path, capsys, damage):
        f0_path = self._save_f0(tmp_path)
        blob = f0_path.read_bytes()
        f0_path.write_bytes(
            {"trailing": blob + b"\0" * 8, "truncated": blob[:-8], "garbage": b"not a model"}[damage]
        )
        code = main(SMALL + ["--quiet", "selftrain", "--f0", str(f0_path)])
        assert code == EXIT_VALIDATION
        assert "snapshot" in _last_stderr_json(capsys)["message"]

    def test_label_space_mismatch_exits_1(self, tmp_path, capsys):
        f0_path = self._save_f0(tmp_path, classes=NLI_CLASSES)
        code = main(SMALL + ["--quiet", "selftrain", "--f0", str(f0_path)])
        assert code == EXIT_VALIDATION
        payload = _last_stderr_json(capsys)
        assert "label space" in payload["message"]
        assert payload["context"]["task"]["classes"] == ["pos", "neg"]

    @pytest.mark.parametrize("labeled", [True, False])
    def test_ood_pool_accuracy_reads_the_ood_file_labels(self, tmp_path, labeled):
        ood = synth_corpus(SynthSpec("keyword-sentiment", params={"noise_rate": 0.3}), 200, 99)
        if not labeled:
            ood = Dataset(ood.name, ood.label_space, tuple(ex.without_label() for ex in ood.examples))
        save_dataset(ood, tmp_path / "ood.jsonl")
        out = tmp_path / "st"
        code = main(
            SMALL + [
                "--out", str(out), "--quiet", "selftrain", "--f0", str(self._save_f0(tmp_path)),
                "--max-iterations", "2", "--pool", "out_only", "--ood", str(tmp_path / "ood.jsonl"),
            ]
        )
        assert code == EXIT_OK
        records = json.loads((out / "result.json").read_text())["per_iteration"]
        accuracies = [rec["pool_labeling_accuracy"] for rec in records]
        # An unlabeled OOD file leaves no pool row with a gold label to score.
        assert all(a > 0.4 for a in accuracies) if labeled else set(accuracies) == {None}

    def test_model_width_mismatch_exits_1(self, tmp_path, capsys):
        f0_path = self._save_f0(tmp_path)  # 16384 columns
        code = main(
            SMALL + [
                "--set", "model.hash_dim=32768",
                "--set", "model.stopping=fixed_steps",
                "--set", "self_training.final_finetune_on_l=off",
                "--quiet", "selftrain", "--f0", str(f0_path), "--max-iterations", "1",
            ]
        )
        assert code == EXIT_VALIDATION
        assert "32768 columns" in _last_stderr_json(capsys)["message"]

    def test_missing_model_exits_3(self, tmp_path, capsys):
        code = main(SMALL + ["--quiet", "selftrain", "--f0", str(tmp_path / "absent.model")])
        assert code == EXIT_RUNTIME
        assert _last_stderr_json(capsys)["code"] == EXIT_RUNTIME

    def test_unknown_pool_mode_exits_1_before_any_fit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "self_train", lambda *args, **kwargs: pytest.fail("self_train ran"))
        code = main(
            SMALL + [
                "--set", "self_training.pool_mode=bogus",
                "--quiet", "selftrain", "--f0", str(self._save_f0(tmp_path)),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "'bogus'" in _last_stderr_json(capsys)["message"]

    def test_ood_pool_requires_path(self, tmp_path, capsys):
        f0_path = self._save_f0(tmp_path)
        code = main(
            SMALL + ["--quiet", "selftrain", "--f0", str(f0_path), "--pool", "out_only"]
        )
        assert code == EXIT_VALIDATION
        assert "--ood" in _last_stderr_json(capsys)["message"]

    @pytest.mark.parametrize(
        "overrides, extra, code",
        [
            ([], ["--batch", "0"], EXIT_VALIDATION),
            ([], ["--max-iterations", "0"], EXIT_VALIDATION),
            ([], ["--pool", "out_only"], EXIT_VALIDATION),
            (
                ["--set", "self_training.pool_mode=out_only"],
                ["--ood", "ood.jsonl", "--max-iterations", "1"],
                EXIT_OK,
            ),
        ],
    )
    def test_validate_only_exits_as_the_run_does(self, tmp_path, monkeypatch, overrides, extra, code):
        """``--validate-only`` exits with the code of the full run, before ``self_train``."""
        save_dataset(synth_corpus(SynthSpec("keyword-sentiment"), 200, 99), tmp_path / "ood.jsonl")
        extra = [str(tmp_path / a) if a.endswith(".jsonl") else a for a in extra]
        out = tmp_path / "st"
        argv = SMALL + overrides + ["--out", str(out), "--quiet"]
        run = ["selftrain", "--f0", str(self._save_f0(tmp_path)), *extra]
        monkeypatch.setattr(cli, "self_train", lambda *args, **kwargs: pytest.fail("self_train ran"))
        assert main(argv + ["--validate-only"] + run) == code
        assert not out.exists()
        monkeypatch.undo()
        assert main(argv + run) == code


class TestExperiment:
    ARGS = SMALL + [
        "--set", "experiment.arms=[baseline]",
        "--set", "experiment.restarts=2",
    ]

    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "exp"
        code = main(self.ARGS + ["--out", str(out), "--quiet", "experiment"])
        assert code == EXIT_OK
        for name in ("report.json", "scores.csv", "aggregate.csv", "timing.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"report.json", "scores.csv", "aggregate.csv"}
        import hashlib

        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(self.ARGS + ["--out", str(out), "--quiet", "experiment", "--sweep", "2,4"])
        assert code == EXIT_OK
        assert (out / "curve.csv").exists()
        assert (out / "curve_aggregate.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "curve.csv" in manifest["files"]

    @pytest.mark.parametrize(
        "extra",
        [
            ["experiment", "--sweep", "4,abc"],
            ["experiment", "--sweep", "8,4"],
            ["experiment", "--sweep", "4,0"],
            ["--set", "experiment.regime=full", "experiment", "--sweep", "4,8"],
            ["--set", "experiment.sweep_ks=abc", "experiment"],
        ],
    )
    def test_bad_sweep_exits_1_before_any_artifact(self, tmp_path, capsys, extra):
        out = tmp_path / "exp"
        assert main(self.ARGS + ["--out", str(out), "--quiet"] + extra) == EXIT_VALIDATION
        assert _last_stderr_json(capsys)["code"] == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("validate_only", [[], ["--validate-only"]])
    def test_task_file_exits_1_naming_the_key(self, tmp_path, capsys, validate_only):
        out = tmp_path / "exp"
        args = self.ARGS + [
            "--set", "datasets.input_path=task.jsonl", "--set", "datasets.label_classes=[pos, neg]",
            "--out", str(out), "--quiet",
        ]
        assert main(args + validate_only + ["experiment"]) == EXIT_VALIDATION
        assert "datasets.input_path" in _last_stderr_json(capsys)["message"]
        assert not out.exists()

    def test_sweep_runs_each_k_once_and_builds_aux_once(self, tmp_path, monkeypatch):
        args = SMALL + [
            "--set", "datasets.task_family=pair-overlap-nli",
            "--set", "experiment.arms=[ta]",
            "--set", "experiment.restarts=1",
            "--set", "model.max_steps=40",
            "--set", "augmentation.aux_train_size=60",
            "--set", "augmentation.aux_dev_size=20",
            "--set", "augmentation.ta_pool_limit=20",
        ]
        counts = {}
        for name in ("build_aux_artifacts", "run_experiment"):
            original = getattr(harness, name)
            counts[name] = 0

            def counted(*a, _name=name, _original=original, **kw):
                counts[_name] += 1
                return _original(*a, **kw)

            monkeypatch.setattr(harness, name, counted)
        swept = tmp_path / "swept"
        assert main(args + ["--out", str(swept), "--quiet", "experiment", "--sweep", "4,8"]) == EXIT_OK
        assert counts == {"build_aux_artifacts": 1, "run_experiment": 2}
        # report.json is the sweep's k=8 run, byte for byte the report of a plain run.
        plain = tmp_path / "plain"
        assert main(args + ["--out", str(plain), "--quiet", "experiment"]) == EXIT_OK
        for name in ("report.json", "scores.csv", "aggregate.csv"):
            assert (swept / name).read_bytes() == (plain / name).read_bytes()
        rows = (swept / "curve.csv").read_text().splitlines()
        assert [r.split(",")[1] for r in rows[1:]] == ["4", "8"]

    def test_bare_off_finetune_runs_clean(self, tmp_path):
        out = tmp_path / "exp"
        args = SMALL + [
            "--set", "experiment.arms=[st]",
            "--set", "experiment.restarts=1",
            "--set", "self_training.max_iterations=2",
            "--set", "self_training.final_finetune_on_l=off",
        ]
        assert main(args + ["--out", str(out), "--quiet", "experiment"]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert not report["partial"]
        assert report["spec"]["st"]["final_finetune_on_l"] == "off"

    def test_report_summary_printed(self, tmp_path, capsys):
        out = tmp_path / "exp"
        main(self.ARGS + ["--out", str(out), "experiment"])
        assert "baseline: mean=" in capsys.readouterr().out
