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
from .config import (
    ConfigValidationError,
    build_experiment_spec,
    build_feature_config,
    build_st_config,
    build_task_space,
    build_task_spec,
    build_train_config,
    load_config,
)
from .corpus import (
    CorpusError,
    Dataset,
    ValidationError,
    load_dataset,
    sample_regime,
    save_dataset,
    strip_labels,
)
from .harness import (
    build_aux_artifacts,
    build_ta_base_model,
    check_sweep_ks,
    curve_aggregate_csv,
    curve_csv,
    derive_seed,
    run_experiment,
    run_per_k,
    sweep_curve,
)
from .selftrain import POOL_MODES, MissingOODError, mix_pools, self_train
from .synth import synth_corpus
from .textmodel import ModelParams, evaluate

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


def _load_task_corpus(config: dict, seed: int) -> Dataset:
    """The task file ``datasets.input_path`` when set, else the synthetic task corpus."""
    ds = config["datasets"]
    space = build_task_space(config)
    if space is not None:
        return load_dataset(ds["input_path"], ds["input_format"], space)
    return synth_corpus(build_task_spec(config), ds["train_partition_size"], seed)


def _check_config(config: dict, args):
    """The experiment spec and its k sweep, built after the task-file label space.

    Full construction is full validation.
    """
    build_task_space(config)
    spec = build_experiment_spec(config)
    return spec, _sweep_ks(config, args, spec)


def _config_ok(args) -> int:
    if not args.quiet:
        print("config ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(config: dict, args) -> int:
    spec = build_experiment_spec(config)
    if args.validate_only:
        return _config_ok(args)
    corpus = synth_corpus(spec.task, spec.train_partition_size, spec.master_seed)
    out = Path(args.out or "corpus.jsonl")
    save_dataset(corpus, out)
    if not args.quiet:
        print(f"wrote {len(corpus)} examples to {out}")
    return EXIT_OK


def cmd_augment(config: dict, args) -> int:
    spec = build_experiment_spec(config)
    corpus = _load_task_corpus(config, derive_seed(spec.master_seed, "corpus"))
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
    master_seed = config["experiment"]["master_seed"]
    fc = build_feature_config(config)
    tc = build_train_config(config)
    st_cfg = build_st_config(config)
    if args.max_iterations is not None:
        st_cfg = replace(st_cfg, max_iterations=args.max_iterations)
    if args.mode is not None:
        st_cfg = replace(
            st_cfg, mode={"broad": "broad", "confidence-filter": "confidence_filtering"}[args.mode]
        )
    if args.batch is not None:
        st_cfg = replace(st_cfg, cf_batch=args.batch)

    f0 = ModelParams.load(args.f0)
    corpus = _load_task_corpus(config, derive_seed(master_seed, "corpus"))
    if f0.label_space != corpus.label_space:
        raise ConfigValidationError(
            "base-model label space does not match the configured task",
            {"model": f0.label_space.to_json(), "task": corpus.label_space.to_json()},
        )
    exp = config["experiment"]
    split = sample_regime(corpus, exp["regime"], exp["k"], derive_seed(master_seed, "restart", 0))
    pool_mode = args.pool or config["self_training"]["pool_mode"]
    ood = load_dataset(args.ood, "jsonl", corpus.label_space) if args.ood else None
    try:
        pool, gold = mix_pools(split.pool, corpus.labels_by_id(), ood, pool_mode)
    except MissingOODError:
        raise ConfigValidationError("--ood is required for an out-of-domain pool") from None
    if args.validate_only:
        return _config_ok(args)

    result = self_train(
        f0, split.train, pool, dev=split.dev, test=split.test or None,
        st_config=st_cfg, train_config=tc, feature_config=fc,
        metric=exp["metric"], gold=gold,
    )

    out_dir = Path(args.out or "selftrain-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = result.to_json()
    payload["pool_size"] = len(pool)
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


def _sweep_ks(config: dict, args, spec) -> list[int]:
    """The checked k sweep of ``--sweep`` or ``experiment.sweep_ks``; [] for none."""
    ks = config["experiment"]["sweep_ks"]
    if getattr(args, "sweep", None):
        try:
            ks = [int(k) for k in args.sweep.split(",")]
        except ValueError:
            raise ValidationError(f"--sweep must list integers, got {args.sweep!r}") from None
    if ks is None or ks == []:
        return []
    check_sweep_ks(spec, ks)
    return list(ks)


def cmd_experiment(config: dict, args) -> int:
    # experiment synthesizes its task corpus, so it rejects a task file rather than ignore it.
    if config["datasets"]["input_path"]:
        raise ConfigValidationError(
            "datasets.input_path is not read by experiment, which synthesizes its task corpus",
            {"section": "datasets", "key": "input_path"},
        )
    spec, sweep_ks = _check_config(config, args)
    if args.validate_only:
        return _config_ok(args)
    out_dir = Path(args.out or "experiment-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []

    if sweep_ks:  # one base corpus and aux build; the main run is the sweep's run at spec.k
        reports = run_per_k(spec, sorted({spec.k, *sweep_ks}))
        report = reports[spec.k]
    else:
        report = run_experiment(spec)
    (out_dir / "report.json").write_text(report.to_json_str() + "\n", encoding="utf-8")
    (out_dir / "scores.csv").write_text(report.scores_csv(), encoding="utf-8")
    (out_dir / "aggregate.csv").write_text(report.aggregate_csv(), encoding="utf-8")
    files += [out_dir / "report.json", out_dir / "scores.csv", out_dir / "aggregate.csv"]

    if sweep_ks:
        curve = sweep_curve(spec.arms, {k: reports[k] for k in sweep_ks})
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
    _check_config(config, args)
    return _config_ok(args)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="selfaug", description=__doc__)
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
    p_st.add_argument("--mode", choices=["broad", "confidence-filter"])
    p_st.add_argument("--batch", type=int)
    p_st.add_argument("--max-iterations", type=int)
    p_st.add_argument("--pool", choices=POOL_MODES)
    p_st.add_argument("--ood", help="out-of-domain pool (JSONL)")

    p_exp = sub.add_parser("experiment", help="run the experiment harness")
    p_exp.add_argument("--sweep", help="comma-separated k values for a sample-efficiency sweep")

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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
