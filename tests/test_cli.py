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


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--bogus", "experiment"],
            [],
            ["selftrain"],
            ["--seed", "abc", "validate"],
            ["bogus"],
        ],
    )
    def test_exits_1_with_json(self, argv, capsys):
        assert main(argv) == EXIT_VALIDATION
        payload = _last_stderr_json(capsys)
        assert payload["code"] == EXIT_VALIDATION
        assert payload["context"]["usage"].startswith("usage: selfaug")

    @pytest.mark.parametrize(
        "argv",
        [
            ["selftrain", "--f0", "f0.model", "--mode", "broad"],
            ["selftrain", "--f0", "f0.model", "--batch", "16"],
            ["selftrain", "--f0", "f0.model", "--max-iterations", "2"],
            ["selftrain", "--f0", "f0.model", "--pool", "in_only"],
            ["experiment", "--sweep", "4,8"],
        ],
    )
    def test_config_key_is_the_only_spelling(self, argv, tmp_path, capsys, monkeypatch):
        """These settings are set through ``self_training.*`` and ``experiment.sweep_ks`` alone."""
        monkeypatch.chdir(tmp_path)  # a tree that still took the option would write its default --out here
        assert main(argv) == EXIT_VALIDATION
        payload = _last_stderr_json(capsys)
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in payload["message"]
        assert payload["context"]["usage"].startswith("usage: selfaug")

    @pytest.mark.parametrize("argv", [["--help"], ["selftrain", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: selfaug")


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

    def test_non_utf8_config_exits_1_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_bytes("model:\n  hash_dim: 4096  # caf\u00e9\n".encode("latin-1"))
        assert main(["--config", str(path), "validate"]) == EXIT_VALIDATION
        payload = _last_stderr_json(capsys)
        assert payload["code"] == EXIT_VALIDATION
        assert f"config {path} is not UTF-8 text" in payload["message"]

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
            ["model.stopping=fixed_steps", "model.eval_every=0", "experiment.dev_mode=dev_free"],
            ["model.stopping=fixed_steps", "model.max_steps=0"],
            ["model.stopping=fixed_steps", "model.average_last=0"],
            ["model.stopping=fixed_steps", "model.max_steps=60", "model.eval_every=30", "model.average_last=3"],
            ["model.max_steps=abc"],
            ["model.eval_every=true"],
            # A stopping kind's keys are checked when the other kind is selected.
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
            # Every synthetic family is categorical, and f1 needs one of its classes.
            ["experiment.metric=spearman"],
            ["experiment.metric=f1:bogus"],
            ["experiment.metric=f1:neutral"],
            ["experiment.metric=f1:pos", "datasets.task_family=pair-overlap-nli"],
            [
                "experiment.metric=accuracy",
                "datasets.input_path=task.jsonl", "datasets.label_lo=0", "datasets.label_hi=1",
            ],
            ["experiment.regime=bogus"],
            ["self_training.pool_mode=bogus"],
            ["self_training.pool_mode=bogus", "datasets.ood_family=keyword-sentiment"],
            ["self_training.pool_mode=out_only"],
            ["self_training.pool_mode=in_plus_out"],
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
            ["augmentation.two_stage=false", "augmentation.include_original_aux=false"],
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
            ["experiment.arms=[baseline, baseline]"],
            ["generator.command=echo"],
            ["generator.kind=external", "generator.command=echo", "generator.flip_rate=0.5"],
            ["datasets.label_classes=[pos, neg]"],
            ["datasets.label_lo=0"],
            ["datasets.label_hi=1"],
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

    def test_validate_only_checks_the_sweep(self, capsys):
        assert main(["--set", "experiment.sweep_ks=[4, abc]", "--validate-only", "experiment"]) == EXIT_VALIDATION
        assert "sweep k" in _last_stderr_json(capsys)["message"]

    @pytest.mark.parametrize("mode", ["out_only", "in_plus_out"])
    @pytest.mark.parametrize("command", ["validate", "synth", "augment", "experiment"])
    def test_ood_pool_mode_needs_ood_family(self, capsys, mode, command):
        argv = SMALL + ["--set", f"self_training.pool_mode={mode}", "--quiet", "--validate-only"]
        assert main(argv + [command]) == EXIT_VALIDATION
        assert f"pool_mode '{mode}' needs datasets.ood_family" in _last_stderr_json(capsys)["message"]
        assert main(argv + ["--set", "datasets.ood_family=keyword-sentiment", command]) == EXIT_OK

    @pytest.mark.parametrize("command", ["synth", "augment", "experiment", "selftrain"])
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["experiment.dev_mode=bogus"], "unknown dev_mode 'bogus'"),
            (["experiment.dev_mode=dev_free"], "dev_free mode forbids early stopping"),
            (["experiment.metric=spearman"], "spearman is not defined"),
            (["experiment.sweep_ks=[8, 4]"], "sweep ks must be strictly ascending"),
        ],
    )
    def test_validate_only_gives_the_verdict_of_validate(
        self, tmp_path, capsys, monkeypatch, command, overrides, message
    ):
        """Every command checks the config ``validate`` checks, before it reads any input."""
        monkeypatch.chdir(tmp_path)  # f0.model is absent: selftrain must fail before it loads the model
        argv = SMALL + [arg for expr in overrides for arg in ("--set", expr)] + ["--quiet"]
        assert main(argv + ["validate"]) == EXIT_VALIDATION
        assert message in _last_stderr_json(capsys)["message"]
        run = [command, "--f0", "f0.model"] if command == "selftrain" else [command]
        assert main(argv + ["--validate-only"] + run) == EXIT_VALIDATION
        assert message in _last_stderr_json(capsys)["message"]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["experiment.arms=[baseline, baseline]", "experiment.restarts=2"], "arm 'baseline' is listed more than once"),
            # A key that its switch turns off is rejected, not ignored.
            (["generator.command=echo"], "the rule_based generator reads no command, got 'echo'"),
            (
                ["generator.kind=external", "generator.command=echo", "generator.flip_rate=0.5"],
                "the external generator reads no flip_rate, got 0.5",
            ),
            (["datasets.label_classes=[pos, neg]"], "datasets.label_classes must be null without datasets.input_path"),
            (["datasets.label_lo=0"], "datasets.label_lo must be null without datasets.input_path, got 0"),
            (["datasets.label_hi=1"], "datasets.label_hi must be null without datasets.input_path, got 1"),
            # Each arm fixes its own self-training mode.
            (["self_training.mode=confidence_filtering"], "self_training.mode is not read by experiment"),
        ],
    )
    def test_experiment_rejects_a_key_it_would_ignore(self, tmp_path, capsys, overrides, message):
        argv = SMALL + [arg for expr in overrides for arg in ("--set", expr)]
        assert main(argv + ["--quiet", "--out", str(tmp_path / "out"), "experiment"]) == EXIT_VALIDATION
        assert message in _last_stderr_json(capsys)["message"]
        assert not (tmp_path / "out").exists()

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
        # A tau this close to 1 keeps no candidate, and the original aux set is excluded.
        out = tmp_path / "aug"
        args = self.ARGS + [
            "--set", "augmentation.tau=0.99999",
            "--set", "augmentation.include_original_aux=false",
        ]
        assert main(args + ["--out", str(out), "--quiet", "augment"]) == EXIT_VALIDATION
        payload = _last_stderr_json(capsys)
        assert payload["code"] == EXIT_VALIDATION
        assert "intermediate_finetune needs synthetic or original aux data" in payload["message"]
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

    def test_failing_generator_exits_3(self, tmp_path, capsys):
        script = tmp_path / "gen.py"
        script.write_text("import sys\nsys.exit(1)\n", encoding="utf-8")
        args = self.ARGS + [
            "--set", "generator.kind=external", "--set", f"generator.command={sys.executable} {script}",
        ]
        out = tmp_path / "aug"
        assert main(args + ["--out", str(out), "--quiet", "augment"]) == EXIT_RUNTIME
        payload = _last_stderr_json(capsys)
        assert payload["code"] == EXIT_RUNTIME
        assert payload["message"].startswith("AugmentationError:")
        assert not (out / "f0.model").exists()

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
                "--set", "self_training.max_iterations=2",
                "--out", str(out), "--quiet", "selftrain", "--f0", str(f0_path),
            ]
        )
        assert code == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        assert result["spec"]["st_config"]["mode"] == "broad"
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
                "--set", "self_training.mode=confidence_filtering",
                "--set", "self_training.batch=16",
                "--out", str(out), "--quiet", "selftrain", "--f0", str(f0_path),
            ]
        )
        assert code == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        assert result["spec"]["st_config"]["mode"] == "confidence_filtering"
        assert sum(r["added"] for r in result["per_iteration"]) == result["pool_size"]

    def test_result_records_the_spec_of_the_run(self, tmp_path):
        f0_path = self._save_f0(tmp_path)
        specs = []
        for rate in (0.1, 0.3):
            out = tmp_path / f"st-{rate}"
            args = SMALL + ["--set", "self_training.max_iterations=1", "--set", f"model.learning_rate={rate}"]
            assert main(args + ["--out", str(out), "--quiet", "selftrain", "--f0", str(f0_path)]) == EXIT_OK
            result = json.loads((out / "result.json").read_text())
            assert result["spec"] == build_experiment_spec(load_config(overrides=args[1::2])).to_json()
            assert "config" not in result and "mode" not in result  # the spec holds each setting once
            specs.append(result["spec"])
        assert specs[0] != specs[1]
        assert [spec["train_config"]["learning_rate"] for spec in specs] == [0.1, 0.3]

    def test_zero_batch_exits_1(self, tmp_path, capsys):
        f0_path = self._save_f0(tmp_path)
        # self_training.batch is checked in either mode.
        for mode in ("confidence_filtering", "broad"):
            code = main(
                SMALL + [
                    "--set", f"self_training.mode={mode}",
                    "--set", "self_training.batch=0",
                    "--set", "self_training.max_iterations=1",
                    "--quiet", "selftrain", "--f0", str(f0_path),
                ]
            )
            assert code == EXIT_VALIDATION
            payload = _last_stderr_json(capsys)
            assert payload["code"] == EXIT_VALIDATION
            assert "cf_batch must be an integer >= 1, got 0" in payload["message"]

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
                "--set", "self_training.max_iterations=2",
                "--set", "self_training.pool_mode=out_only",
                "--out", str(out), "--quiet", "selftrain", "--f0", str(self._save_f0(tmp_path)),
                "--ood", str(tmp_path / "ood.jsonl"),
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
                "--set", "self_training.max_iterations=1",
                "--quiet", "selftrain", "--f0", str(f0_path),
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
            SMALL + ["--set", "self_training.pool_mode=out_only", "--quiet", "selftrain", "--f0", str(f0_path)]
        )
        assert code == EXIT_VALIDATION
        assert "--ood is required" in _last_stderr_json(capsys)["message"]

    @pytest.mark.parametrize(
        "overrides, extra, code, message",
        [
            (["self_training.batch=0"], [], EXIT_VALIDATION, "cf_batch must be an integer"),
            (["self_training.max_iterations=0"], [], EXIT_VALIDATION, "max_iterations must be an integer"),
            (["self_training.pool_mode=out_only"], [], EXIT_VALIDATION, "--ood is required"),
            (["experiment.metric=f1:bogus"], [], EXIT_VALIDATION, "f1 needs a positive class"),
            (["experiment.metric=spearman"], [], EXIT_VALIDATION, "spearman is not defined"),
            (
                ["self_training.pool_mode=out_only", "self_training.max_iterations=1"],
                ["--ood", "ood.jsonl"],
                EXIT_OK,
                None,
            ),
            ([], ["--ood", "ood.jsonl"], EXIT_VALIDATION, "--ood is not read under pool_mode 'in_only'"),
            (["experiment.dev_mode=bogus"], [], EXIT_VALIDATION, "unknown dev_mode 'bogus'"),
            (["experiment.dev_mode=dev_free"], [], EXIT_VALIDATION, "dev_free mode forbids early stopping"),
            (
                ["experiment.dev_mode=dev_free", "model.stopping=fixed_steps"],
                [],
                EXIT_VALIDATION,
                "dev_free mode requires final_finetune_on_l to be 'on' or 'off'",
            ),
        ],
    )
    def test_validate_only_exits_as_the_run_does(
        self, tmp_path, capsys, monkeypatch, overrides, extra, code, message
    ):
        """``--validate-only`` exits with the code of the full run, before ``self_train``."""
        save_dataset(synth_corpus(SynthSpec("keyword-sentiment"), 200, 99), tmp_path / "ood.jsonl")
        extra = [str(tmp_path / a) if a.endswith(".jsonl") else a for a in extra]
        out = tmp_path / "st"
        argv = SMALL + [arg for expr in overrides for arg in ("--set", expr)] + ["--out", str(out), "--quiet"]
        run = ["selftrain", "--f0", str(self._save_f0(tmp_path)), *extra]
        monkeypatch.setattr(cli, "self_train", lambda *args, **kwargs: pytest.fail("self_train ran"))
        assert main(argv + ["--validate-only"] + run) == code
        if message:
            assert message in _last_stderr_json(capsys)["message"]
        assert not out.exists()
        monkeypatch.undo()
        assert main(argv + run) == code
        if message:
            assert message in _last_stderr_json(capsys)["message"]

    def test_dev_free_run_reads_no_dev_set(self, tmp_path):
        out = tmp_path / "st"
        code = main(
            SMALL + [
                "--set", "experiment.dev_mode=dev_free",
                "--set", "model.stopping=fixed_steps",
                "--set", "self_training.final_finetune_on_l=off",
                "--set", "self_training.max_iterations=2",
                "--out", str(out), "--quiet", "selftrain", "--f0", str(self._save_f0(tmp_path)),
            ]
        )
        assert code == EXIT_OK
        records = json.loads((out / "result.json").read_text())["per_iteration"]
        assert records and all(rec["dev_metric"] is None for rec in records)

    @pytest.mark.parametrize("resample_dev", ["true", "false"])
    def test_trains_on_the_split_of_the_harness_restart_0(self, tmp_path, monkeypatch, resample_dev):
        """``selftrain`` reads the labeled, dev and pool rows the harness's first restart does."""
        seen = {}

        def recording(module):
            real = module.self_train

            def self_train(f0, labeled, pool, dev=None, **kwargs):
                seen[module.__name__] = (labeled.examples, dev.examples, pool.examples)
                return real(f0, labeled, pool, dev=dev, **kwargs)

            monkeypatch.setattr(module, "self_train", self_train)

        recording(cli)
        recording(harness)
        argv = SMALL + [
            "--set", f"experiment.resample_dev={resample_dev}",
            "--set", "self_training.max_iterations=1",
            "--set", "experiment.arms=[st]",
            "--set", "experiment.restarts=1",
            "--quiet",
        ]
        assert main(argv + ["--out", str(tmp_path / "st"), "selftrain", "--f0", str(self._save_f0(tmp_path))]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "exp"), "experiment"]) == EXIT_OK
        assert seen["selfaug.cli"] == seen["selfaug.harness"]

    @pytest.mark.parametrize("key, name", [("experiment.k", "k"), ("datasets.train_partition_size", "size")])
    @pytest.mark.parametrize("value, shown", [("abc", "'abc'"), ("1.5", "1.5"), ("true", "True"), ("0", "0")])
    @pytest.mark.parametrize("validate_only", [[], ["--validate-only"]])
    def test_bad_count_exits_1_before_any_fit(
        self, tmp_path, capsys, monkeypatch, key, name, value, shown, validate_only
    ):
        """selftrain checks the k and corpus size it reads, as every command does."""
        monkeypatch.setattr(cli, "self_train", lambda *args, **kwargs: pytest.fail("self_train ran"))
        out = tmp_path / "st"
        argv = SMALL + ["--set", f"{key}={value}", "--out", str(out), "--quiet", *validate_only]
        assert main(argv + ["selftrain", "--f0", str(self._save_f0(tmp_path))]) == EXIT_VALIDATION
        assert f"{name} must be an integer >= 1, got {shown}" in _last_stderr_json(capsys)["message"]
        assert not out.exists()


class TestExperiment:
    ARGS = SMALL + [
        "--set", "experiment.arms=[baseline]",
        "--set", "experiment.restarts=2",
    ]

    @pytest.mark.parametrize(
        "metric, message",
        [
            ("spearman", "spearman is not defined for a classification head"),
            ("f1:bogus", "f1 needs a positive class among ['pos', 'neg']"),
        ],
    )
    @pytest.mark.parametrize("validate_only", [[], ["--validate-only"]])
    def test_unscorable_metric_exits_1_before_any_fit(
        self, tmp_path, capsys, monkeypatch, metric, message, validate_only
    ):
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: pytest.fail("run_experiment ran"))
        out = tmp_path / "exp"
        argv = self.ARGS + ["--set", f"experiment.metric={metric}", "--out", str(out), *validate_only]
        assert main(argv + ["experiment"]) == EXIT_VALIDATION
        assert message in _last_stderr_json(capsys)["message"]
        assert not out.exists()

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
        code = main(self.ARGS + ["--set", "experiment.sweep_ks=[2, 4]", "--out", str(out), "--quiet", "experiment"])
        assert code == EXIT_OK
        assert (out / "curve.csv").exists()
        assert (out / "curve_aggregate.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "curve.csv" in manifest["files"]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--set", "experiment.sweep_ks=[4, abc]", "experiment"],
            ["--set", "experiment.sweep_ks=[8, 4]", "experiment"],
            ["--set", "experiment.sweep_ks=[4, 0]", "experiment"],
            ["--set", "experiment.regime=full", "--set", "experiment.sweep_ks=[4, 8]", "experiment"],
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
        sweep = ["--set", "experiment.sweep_ks=[4, 8]"]
        assert main(args + sweep + ["--out", str(swept), "--quiet", "experiment"]) == EXIT_OK
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
        assert report["spec"]["st_config"]["final_finetune_on_l"] == "off"

    def test_report_summary_printed(self, tmp_path, capsys):
        out = tmp_path / "exp"
        main(self.ARGS + ["--out", str(out), "experiment"])
        assert "baseline: mean=" in capsys.readouterr().out
