"""Config-driven command-line surface.

Commands: ``synth`` (emit a synthetic corpus), ``augment`` (build the
synthetic auxiliary dataset and the intermediate-fine-tuned base model),
``selftrain`` (run a self-training loop from a saved base model),
``experiment`` (run the full harness), ``validate`` (check a config).

Exit codes: 0 success, 1 validation/usage error, 2 partial failure,
3 runtime error. Failures emit ``{code, message, context}`` JSON on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from .augmentation import write_ta_jsonl
from .config import SCHEMA, ConfigValidationError, build_experiment_spec, build_task_space, load_config
from .corpus import (
    CorpusError,
    Dataset,
    LabelSpace,
    load_dataset,
    save_dataset,
    strip_labels,
)
from .harness import (
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
from .selftrain import MissingOODError, mix_pools, self_train
from .synth import FAMILY_CLASSES, synth_corpus
from .textmodel import ModelParams, check_metric, evaluate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARTIAL = 2
EXIT_RUNTIME = 3


def _emit_error(code: int, message: str, context: dict) -> None:
    print(json.dumps({"code": code, "message": message, "context": context}), file=sys.stderr)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, files: list[Path]) -> None:
    manifest = {
        "files": {f.name: _sha256(f) for f in sorted(files, key=lambda p: p.name)}
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _load_task_corpus(config: dict, spec) -> Dataset:
    """The task file ``datasets.input_path`` when set, else the experiment's synthetic task corpus."""
    ds = config["datasets"]
    space = build_task_space(config)
    if space is not None:
        return load_dataset(ds["input_path"], ds["input_format"], space)
    return base_corpus(spec)


def _check_config(config: dict, ood_from_file: bool = False):
    """The experiment spec, built after the task-file label space, with its
    metric checked against the task's labels and its out-of-domain pool source
    checked.

    Full construction is full validation. An out-of-domain pool mode draws on
    ``datasets.ood_family``, except under ``ood_from_file``: ``selftrain`` reads
    the pool from its ``--ood`` file and checks that option itself.
    """
    space = build_task_space(config)
    spec = build_experiment_spec(config)
    check_metric(spec.metric, space or LabelSpace.categorical(FAMILY_CLASSES[spec.task.family]))
    if not ood_from_file and spec.pool_mode != "in_only" and spec.ood_task is None:
        raise ConfigValidationError(
            f"pool_mode {spec.pool_mode!r} needs datasets.ood_family",
            {"section": "datasets", "key": "ood_family"},
        )
    return spec


def _config_ok(args) -> int:
    if not args.quiet:
        print("config ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(config: dict, args) -> int:
    spec = _check_config(config)
    if args.validate_only:
        return _config_ok(args)
    corpus = synth_corpus(spec.task, spec.train_partition_size, spec.master_seed)
    out = Path(args.out or "corpus.jsonl")
    save_dataset(corpus, out)
    if not args.quiet:
        print(f"wrote {len(corpus)} examples to {out}")
    return EXIT_OK


def cmd_augment(config: dict, args) -> int:
    spec = _check_config(config)
    corpus = _load_task_corpus(config, spec)
    if args.validate_only:
        return _config_ok(args)
    aux = build_aux_artifacts(spec)
    entries, f0 = build_ta_base_model(
        spec, aux, strip_labels(corpus), corpus.label_space,
        derive_seed(spec.master_seed, "ta-data"),
    )
    aux_dev_score = evaluate(aux.classifier, aux.aux_dev, "accuracy", spec.feature_config)

    out_dir = Path(args.out or "augment-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ta_jsonl(entries, out_dir / "synthetic.jsonl")
    f0.save(out_dir / "f0.model")
    summary = {"tau": aux.tau, "synthetic_count": len(entries), "aux_dev_accuracy": aux_dev_score}
    (out_dir / "augment.json").write_text(
        json.dumps(summary, sort_keys=True) + "\n", encoding="utf-8"
    )
    if not args.quiet:
        print(
            f"augment: {len(entries)} synthetic examples, tau={aux.tau}, "
            f"aux-dev accuracy={aux_dev_score:.3f}"
        )
    return EXIT_OK


def cmd_selftrain(config: dict, args) -> int:
    spec = _check_config(config, ood_from_file=True)
    if args.ood and spec.pool_mode == "in_only":
        raise ConfigValidationError(
            "--ood is not read under pool_mode 'in_only'", {"section": "self_training", "key": "pool_mode"}
        )
    f0 = ModelParams.load(args.f0)
    corpus = _load_task_corpus(config, spec)
    if f0.label_space != corpus.label_space:
        raise ConfigValidationError(
            "base-model label space does not match the configured task",
            {"model": f0.label_space.to_json(), "task": corpus.label_space.to_json()},
        )
    split = make_splits(replace(spec, restarts=1), corpus)[0]  # the harness's restart 0
    ood = load_dataset(args.ood, "jsonl", corpus.label_space) if args.ood else None
    try:
        pool, gold = mix_pools(split.pool, corpus.labels_by_id(), ood, spec.pool_mode)
    except MissingOODError:
        raise ConfigValidationError("--ood is required for an out-of-domain pool") from None
    if args.validate_only:
        return _config_ok(args)

    result = self_train(
        f0, split.train, pool, dev=split.dev if spec.dev_mode == "with_dev" else None,
        st_config=spec.st_config, train_config=spec.train_config,
        feature_config=spec.feature_config, metric=spec.metric, gold=gold,
    )

    out_dir = Path(args.out or "selftrain-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {**result.to_json(), "spec": spec.to_json(), "pool_size": len(pool)}
    (out_dir / "result.json").write_text(
        json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
    )
    result.final_model.save(out_dir / "final.model")
    if not args.quiet:
        last = result.per_iteration[-1] if result.per_iteration else {}
        print(
            f"selftrain: {len(result.per_iteration)} iterations, "
            f"converged_at={result.converged_at}, dev={last.get('dev_metric')}"
        )
    return EXIT_OK


def cmd_experiment(config: dict, args) -> int:
    # experiment rejects a key it does not read rather than ignore it.
    for section, key, reason in (
        ("datasets", "input_path", "which synthesizes its task corpus"),
        ("self_training", "mode", "whose arms fix their own self-training mode"),
    ):
        if config[section][key] != SCHEMA[section][key]:
            context = {"section": section, "key": key}
            raise ConfigValidationError(f"{section}.{key} is not read by experiment, {reason}", context)
    spec = _check_config(config)
    if args.validate_only:
        return _config_ok(args)
    out_dir = Path(args.out or "experiment-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []

    if spec.sweep_ks:  # one base corpus and aux build; the main run is the sweep's run at spec.k
        reports = run_per_k(spec)
        report = reports[spec.k]
    else:
        report = run_experiment(spec)
    (out_dir / "report.json").write_text(report.to_json_str() + "\n", encoding="utf-8")
    (out_dir / "scores.csv").write_text(report.scores_csv(), encoding="utf-8")
    (out_dir / "aggregate.csv").write_text(report.aggregate_csv(), encoding="utf-8")
    files += [out_dir / "report.json", out_dir / "scores.csv", out_dir / "aggregate.csv"]

    if spec.sweep_ks:
        curve = {k: reports[k] for k in spec.sweep_ks}
        (out_dir / "curve.csv").write_text(curve_csv(curve), encoding="utf-8")
        (out_dir / "curve_aggregate.csv").write_text(curve_aggregate_csv(curve), encoding="utf-8")
        files += [out_dir / "curve.csv", out_dir / "curve_aggregate.csv"]

    _write_manifest(out_dir, files)
    # Wall-clock lives outside the manifest so reruns stay byte-identical.
    (out_dir / "timing.json").write_text(
        json.dumps(report.timing, sort_keys=True) + "\n", encoding="utf-8"
    )
    if not args.quiet:
        for arm, agg in report.aggregates().items():
            print(f"{arm}: mean={agg['mean']:.4f} std={agg['std']:.4f}")
    return EXIT_PARTIAL if report.partial else EXIT_OK


def cmd_validate(config: dict, args) -> int:
    _check_config(config)
    return _config_ok(args)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, so they exit 1 with the JSON error."""

    def error(self, message):
        raise ConfigValidationError(f"{self.prog}: {message}", {"usage": self.format_usage().strip()})


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selfaug", description=__doc__)
    parser.add_argument("--config", help="YAML/JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="config override (repeatable)")
    parser.add_argument("--seed", type=int, help="override experiment.master_seed")
    parser.add_argument("--out", help="output file or directory")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--validate-only", action="store_true",
                        help="build the command's configs and read its inputs, then exit before any work")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", help="emit a synthetic corpus")
    sub.add_parser("augment", help="build synthetic auxiliary data and the base model")

    p_st = sub.add_parser("selftrain", help="run self-training from a saved base model")
    p_st.add_argument("--f0", required=True, help="base model snapshot path")
    p_st.add_argument("--ood", help="out-of-domain pool (JSONL)")

    sub.add_parser("experiment", help="run the experiment harness")

    sub.add_parser("validate", help="validate a config file")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "augment": cmd_augment,
    "selftrain": cmd_selftrain,
    "experiment": cmd_experiment,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = load_config(args.config, overrides=args.set, seed=args.seed)
        return _COMMANDS[args.command](config, args)
    except CorpusError as exc:  # every bad-input error
        _emit_error(EXIT_VALIDATION, str(exc), getattr(exc, "context", {"type": type(exc).__name__}))
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        _emit_error(EXIT_RUNTIME, str(exc), {})
        return EXIT_RUNTIME
    except Exception as exc:  # anything else is a runtime failure
        _emit_error(EXIT_RUNTIME, f"{type(exc).__name__}: {exc}", {})
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
