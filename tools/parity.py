"""Check that this checkout writes the same experiment artifacts as a git ref.

    python3 tools/parity.py REF

``REF`` (a commit, branch or tag) is exported with ``git archive`` into a
temporary directory. Each workload of ``perfbench/workloads.json`` then runs
through ``selfaug.cli.main`` (its argv plus ``--seed N ... experiment``) in a
fresh interpreter, once on each tree, at the file's ``default_seed`` and
``held_out_seed``. ``report.json``, ``scores.csv``, ``aggregate.csv``,
``manifest.json``, ``curve.csv`` and ``curve_aggregate.csv`` are compared by
sha256; only a k sweep writes the two curves. A pair-pool leg does the
same for acceptance criterion 3's config at 2 restarts (pair-overlap-nli, arms
``baseline, ta, st, ta-st``, 8 self-training iterations), the one config in
which self-training featurizes pair rows. An out-of-domain leg runs
``st`` and ``cf-st`` on keyword-sentiment at 2 restarts with a
keyword-sentiment out-of-domain corpus (``noise_rate`` 0.3), once with
``pool_mode`` ``in_plus_out`` and once with ``out_only``: no workload mixes
an out-of-domain pool in. A divergence leg runs ``baseline`` at 1 restart
with ``learning_rate`` 1e200: training raises a non-finite loss, the run
exits 2, and ``report.json`` records the step that raised. A fixed-step leg
runs ``baseline`` and ``ta-st`` on pair-overlap-nli at 2 restarts in the
dev-free protocol: ``model.stopping`` ``fixed_steps`` with 512 steps and a
checkpoint every 30, 2 self-training iterations and final fine-tuning on.
No other leg trains on a fixed step budget with checkpoint averaging. A
sweep leg runs ``baseline`` and ``st`` on keyword-sentiment at 2 restarts
(hash_dim 2^14, 4 self-training iterations) over ``experiment.sweep_ks``
``[4, 8, 16]``: no other leg runs a sample-efficiency sweep. A config-file
leg runs ``experiment`` on ``tests/data/every_key.yaml`` through ``--config``
(read from this checkout for both trees): it sets each key ``experiment``
reads away from its default, and is the only leg that reads a config file.

Those artifacts hold scores, not trained weights, so a change too small to
move a score would pass them. A weight-level leg follows at both seeds: on
each tree, ``augment`` runs with the ta-overgen-nli argv, then ``selftrain
--f0`` from that tree's ``f0.model`` with ``self_training.mode`` ``broad``
and ``confidence_filtering``. ``synth`` then writes an out-of-domain JSONL
file at the next seed, and ``selftrain`` reads it through ``--ood`` with
``self_training.pool_mode`` ``in_plus_out`` and ``out_only``. Every
``selftrain`` step runs 4 iterations of ``fixed_steps`` training with no
final fine-tuning: on this argv an early-stopped fit keeps its start model,
so ``final.model`` would equal ``f0.model``. ``f0.model``,
``synthetic.jsonl``, the out-of-domain file and every ``final.model`` and
``result.json`` are compared by sha256, so any change to a trained weight
shows, and the leg fails on either tree when a ``final.model`` equals the
``f0.model`` it started from. Only long-standing CLI commands and config
keys are used, so the leg runs against any ref.

A task-file leg follows at both seeds: ``synth`` writes a pair-overlap-nli
JSONL file, and ``augment`` reads it through ``datasets.input_path`` with an
external generator, a small Python script written into the temporary
directory, which also scores tau over the grid. ``selftrain`` then runs on
the same task file from that ``f0.model`` (4 iterations). The task file,
``f0.model``, ``synthetic.jsonl``, ``final.model`` and ``result.json`` are
compared by sha256. No other leg reads a task file or runs an external
generator, and no other ``selftrain`` run reads an out-of-domain file or a
task file.

Exit status: 0 when every file and exit code matches and every weight-leg
``final.model`` moved from its ``f0.model``, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("report.json", "scores.csv", "aggregate.csv", "manifest.json", "curve.csv", "curve_aggregate.csv")
WEIGHT_WORKLOAD = "ta-overgen-nli"
EVERY_KEY_CONFIG = ROOT / "tests" / "data" / "every_key.yaml"
CRITERION_3_ARGV = [
    "--set", "datasets.task_family=pair-overlap-nli",
    "--set", "experiment.arms=[baseline, ta, st, ta-st]",
    "--set", "experiment.restarts=2",
    "--set", "self_training.max_iterations=8",
]
OOD_ARGV = [
    "--set", "datasets.task_family=keyword-sentiment",
    "--set", "datasets.ood_family=keyword-sentiment",
    "--set", "datasets.ood_params={noise_rate: 0.3}",
    "--set", "experiment.arms=[st, cf-st]",
    "--set", "experiment.restarts=2",
]
DIVERGENCE_ARGV = [
    "--set", "model.learning_rate=1.0e+200",
    "--set", "experiment.arms=[baseline]",
    "--set", "experiment.restarts=1",
]
FIXED_STEPS_ARGV = [
    "--set", "datasets.task_family=pair-overlap-nli",
    "--set", "model.stopping=fixed_steps",
    "--set", "model.max_steps=512",
    "--set", "model.eval_every=30",
    "--set", "experiment.dev_mode=dev_free",
    "--set", "self_training.final_finetune_on_l='on'",
    "--set", "experiment.arms=[baseline, ta-st]",
    "--set", "experiment.restarts=2",
    "--set", "self_training.max_iterations=2",
]
SWEEP_ARGV = [
    "--set", "datasets.task_family=keyword-sentiment",
    "--set", "experiment.arms=[baseline, st]",
    "--set", "experiment.restarts=2",
    "--set", "model.hash_dim=16384",
    "--set", "self_training.max_iterations=4",
    "--set", "experiment.sweep_ks=[4, 8, 16]",
]
TASK_FILE_ARGV = [
    "--set", "datasets.task_family=pair-overlap-nli",
    "--set", "datasets.train_partition_size=300",
    "--set", "model.hash_dim=16384",
    "--set", "augmentation.tau=null",
    "--set", "augmentation.tau_source_limit=4",
    "--set", "augmentation.ta_pool_limit=12",
]
# The selftrain runs on a task file stop after 4 iterations.
SHORT_SELFTRAIN_ARGV = ["--set", "self_training.max_iterations=4"]
# On the weight leg's config every early-stopped fit keeps its start model, so its
# selftrain runs train on a fixed step budget: their weights move.
FIXED_SELFTRAIN_ARGV = [
    *SHORT_SELFTRAIN_ARGV,
    "--set", "model.stopping=fixed_steps",
    "--set", "self_training.final_finetune_on_l=off",
]
# The external generator's line protocol: read ``label<TAB>sentence``, answer
# one candidate per line, end with a blank line.
GENERATOR = """import sys
label, sentence = sys.stdin.readline().rstrip("\\n").split("\\t", 1)
words = sentence.split()
extra = {"neutral": ["reportedly"], "contradiction": ["not"]}.get(label, [])
for i in range(len(words), 0, -1):
    print(" ".join(words[:i] + extra))
print()
"""
# A weight-leg value that fails the leg on either tree.
UNMOVED = "equals the augment f0.model"
RUNNER = "import sys; sys.path.insert(0, sys.argv[1]); from selfaug.cli import main; sys.exit(main(sys.argv[2:]))"


def export(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree: Path, seed: int, argv: list[str], out: Path, files: tuple[str, ...]) -> dict[str, str]:
    """Exit code and sha256 of each of ``files`` after one CLI run on ``tree``."""
    full = ["--seed", str(seed), "--out", str(out), "--quiet", *argv]
    code = subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src"), *full], cwd=out.parent).returncode
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).exists() else "missing"
        for name in files
    }
    return {"exit code": str(code), **digests}


def experiment_leg(tree: Path, seed: int, argv: list[str], out: Path) -> dict[str, str]:
    """Exit code and artifact digests of ``experiment`` on ``tree``."""
    return run(tree, seed, [*argv, "experiment"], out, ARTIFACTS)


def weight_leg(tree: Path, seed: int, argv: list[str], out: Path) -> dict[str, str]:
    """Exit codes and file digests of ``augment``, then ``selftrain`` from its
    ``f0.model`` in both modes and on an out-of-domain file in both OOD pool
    modes, on ``tree``. A ``final.model`` equal to ``f0.model`` reads ``UNMOVED``."""
    out.mkdir()
    f0, ood = str(out / "augment" / "f0.model"), str(out / "ood.jsonl")
    selftrain = ("final.model", "result.json")
    steps = [("augment", seed, ["augment"], ("f0.model", "synthetic.jsonl"))]
    steps += [
        (mode, seed, [*FIXED_SELFTRAIN_ARGV, "--set", f"self_training.mode={mode}", "selftrain", "--f0", f0], selftrain)
        for mode in ("broad", "confidence_filtering")
    ]
    steps += [("ood.jsonl", seed + 1, ["synth"], ())]
    steps += [
        (
            f"ood {mode}", seed,
            [*FIXED_SELFTRAIN_ARGV, "--set", f"self_training.pool_mode={mode}", "selftrain", "--f0", f0, "--ood", ood],
            selftrain,
        )
        for mode in ("in_plus_out", "out_only")
    ]
    result = {}
    for step, step_seed, command, files in steps:
        digests = run(tree, step_seed, [*argv, *command], out / step, files)
        result.update({f"{step} {k}": v for k, v in digests.items()})
    result["ood.jsonl"] = hashlib.sha256(Path(ood).read_bytes()).hexdigest() if Path(ood).exists() else "missing"
    for step, _, _, files in steps:
        if files == selftrain and result[f"{step} final.model"] == result["augment f0.model"]:
            result[f"{step} final.model"] = UNMOVED
    return result


def task_file_leg(tree: Path, seed: int, argv: list[str], out: Path) -> dict[str, str]:
    """Exit codes and file digests of ``synth`` to a task file, then ``augment``
    on that file with the external generator and ``selftrain`` on that file
    from the ``augment`` ``f0.model``, on ``tree``."""
    out.mkdir()
    task, generator = out / "task.jsonl", out / "generator.py"
    generator.write_text(GENERATOR, encoding="utf-8")
    result = {f"synth {k}": v for k, v in run(tree, seed, [*argv, "synth"], task, ()).items()}
    result["task.jsonl"] = hashlib.sha256(task.read_bytes()).hexdigest() if task.exists() else "missing"
    task_argv = [
        *argv,
        "--set", f"datasets.input_path={task}",
        "--set", "datasets.label_classes=[entailment, neutral, contradiction]",
    ]
    augment = [
        "--set", "generator.kind=external",
        "--set", f"generator.command={sys.executable} {generator}",
        "augment",
    ]
    selftrain = [*SHORT_SELFTRAIN_ARGV, "selftrain", "--f0", str(out / "augment" / "f0.model")]
    steps = [("augment", augment, ("f0.model", "synthetic.jsonl")), ("selftrain", selftrain, ("final.model", "result.json"))]
    for step, command, files in steps:
        digests = run(tree, seed, [*task_argv, *command], out / step, files)
        result.update({f"{step} {k}": v for k, v in digests.items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ref", help="git ref to compare this checkout against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    seeds = (spec["default_seed"], spec["held_out_seed"])
    workloads = spec["workloads"]
    legs = [(f"{name} seed {seed}", experiment_leg, seed, w["argv"]) for name, w in workloads.items() for seed in seeds]
    legs += [(f"criterion-3 seed {seed}", experiment_leg, seed, CRITERION_3_ARGV) for seed in seeds]
    legs += [
        (f"ood {mode} seed {seed}", experiment_leg, seed, [*OOD_ARGV, "--set", f"self_training.pool_mode={mode}"])
        for mode in ("in_plus_out", "out_only") for seed in seeds
    ]
    legs += [(f"divergence seed {seed}", experiment_leg, seed, DIVERGENCE_ARGV) for seed in seeds]
    legs += [(f"fixed-steps seed {seed}", experiment_leg, seed, FIXED_STEPS_ARGV) for seed in seeds]
    legs += [(f"sweep seed {seed}", experiment_leg, seed, SWEEP_ARGV) for seed in seeds]
    legs += [(f"config-file seed {seed}", experiment_leg, seed, ["--config", str(EVERY_KEY_CONFIG)]) for seed in seeds]
    legs += [(f"{WEIGHT_WORKLOAD} weights seed {seed}", weight_leg, seed, workloads[WEIGHT_WORKLOAD]["argv"]) for seed in seeds]
    legs += [(f"task-file seed {seed}", task_file_leg, seed, TASK_FILE_ARGV) for seed in seeds]
    differences = 0
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        ref_tree.mkdir()
        export(args.ref, ref_tree)
        for i, (label, leg, seed, leg_argv) in enumerate(legs):
            ref, here = (leg(tree, seed, leg_argv, tmp / f"{i}-{side}") for side, tree in (("ref", ref_tree), ("here", ROOT)))
            diff = [k for k in ref if here[k] != ref[k]]
            diff += [f"{k} {UNMOVED}" for k in ref if UNMOVED in (here[k], ref[k])]
            differences += bool(diff)
            print(f"{label}: " + ("identical" if not diff else "DIFFERS: " + ", ".join(diff)))
    print("parity ok" if not differences else f"{differences} leg(s) differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
