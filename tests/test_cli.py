"""Command-line surface tests: commands, exit codes, artifacts, error JSON."""

import json

import pytest

from selfaug.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from selfaug.config import build_experiment_spec, load_config
from selfaug.corpus import LabelSpace
from selfaug.harness import build_aux_artifacts
from selfaug.synth import NLI_CLASSES
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
        ],
    )
    def test_bad_training_number_exits_1(self, overrides, capsys):
        argv = [arg for expr in overrides for arg in ("--set", expr)]
        assert main(argv + ["validate"]) == EXIT_VALIDATION
        assert _last_stderr_json(capsys)["code"] == EXIT_VALIDATION

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

    def test_missing_model_exits_3(self, tmp_path, capsys):
        code = main(SMALL + ["--quiet", "selftrain", "--f0", str(tmp_path / "absent.model")])
        assert code == EXIT_RUNTIME
        assert _last_stderr_json(capsys)["code"] == EXIT_RUNTIME

    def test_ood_pool_requires_path(self, tmp_path, capsys):
        f0_path = self._save_f0(tmp_path)
        code = main(
            SMALL + ["--quiet", "selftrain", "--f0", str(f0_path), "--pool", "out_only"]
        )
        assert code == EXIT_VALIDATION
        assert "--ood" in _last_stderr_json(capsys)["message"]


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
