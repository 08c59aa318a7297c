"""Pinned sha256 digests of the artifacts of small CLI runs.

Each test runs ``selfaug.cli.main`` in-process on a tiny config and checks
the sha256 of the files it writes against a pinned value:

- a keyword-sentiment k sweep (``experiment.sweep_ks=[4, 8]``):
  ``report.json``, ``curve.csv`` and ``curve_aggregate.csv``;
- a pair-overlap-nli ``ta`` run with tau selected over the grid
  (``augmentation.tau=null``): ``report.json``;
- ``augment`` on pair-overlap-nli, then ``selftrain`` from its
  ``f0.model`` on a fixed step budget: ``result.json`` and ``final.model``;
- ``experiment`` on ``tests/data/every_key.yaml`` through ``--config``, which
  sets each key ``experiment`` reads away from its default: ``report.json``,
  ``curve.csv`` and ``curve_aggregate.csv``;
- ``st`` and ``cf-st`` on an out-of-domain pool, in ``in_plus_out`` and
  ``out_only`` mode: ``report.json``;
- a diverging ``baseline`` run (``model.learning_rate=1e200``), which exits 2:
  ``report.json``;
- ``baseline`` and ``ta-st`` in the dev-free protocol, on a fixed step budget
  with checkpoint averaging: ``report.json``.

So a change that moves one score or one trained weight fails here, without a
git ref to compare against. The digests hold for numpy 2.4.6 and the SIMD
kernels of an x86-64 Intel Xeon CPU; another numpy release or CPU may round
differently. A change that moves these bytes on purpose re-pins them and
lists each old and new digest with its reason.
"""

import hashlib
from pathlib import Path

import pytest

from selfaug.cli import EXIT_OK, EXIT_PARTIAL, main

EVERY_KEY = Path(__file__).parent / "data" / "every_key.yaml"

SMALL = [
    "--set", "datasets.train_partition_size=400",
    "--set", "datasets.test_size=100",
    "--set", "model.hash_dim=4096",
    "--set", "model.max_steps=60",
]
SWEEP = [
    *SMALL,
    "--set", "experiment.arms=[baseline, st]",
    "--set", "experiment.restarts=2",
    "--set", "self_training.max_iterations=2",
    "--set", "experiment.sweep_ks=[4, 8]",
]
NLI = [
    *SMALL,
    "--set", "datasets.task_family=pair-overlap-nli",
    "--set", "augmentation.aux_train_size=60",
    "--set", "augmentation.aux_dev_size=20",
    "--set", "augmentation.ta_pool_limit=20",
]
TA = [
    *NLI,
    "--set", "experiment.arms=[ta]",
    "--set", "experiment.restarts=1",
    "--set", "augmentation.tau=null",
    "--set", "augmentation.tau_source_limit=10",
    "--set", "augmentation.tau_budget=20",
]
SELFTRAIN = [
    *NLI,
    "--set", "self_training.max_iterations=2",
    "--set", "model.stopping=fixed_steps",
    "--set", "model.eval_every=10",
    "--set", "self_training.final_finetune_on_l=off",
]
OOD = [
    *SMALL,
    "--set", "datasets.ood_family=keyword-sentiment",
    "--set", "datasets.ood_params={noise_rate: 0.3}",
    "--set", "experiment.arms=[st, cf-st]",
    "--set", "experiment.restarts=1",
    "--set", "self_training.max_iterations=2",
]
DIVERGENCE = [
    *SMALL,
    "--set", "model.learning_rate=1.0e+200",
    "--set", "experiment.arms=[baseline]",
    "--set", "experiment.restarts=1",
]
FIXED_STEPS = [
    *NLI,
    "--set", "model.stopping=fixed_steps",
    "--set", "model.eval_every=10",
    "--set", "model.average_last=3",
    "--set", "experiment.dev_mode=dev_free",
    "--set", "self_training.final_finetune_on_l='on'",
    "--set", "augmentation.two_stage=false",
    "--set", "experiment.arms=[baseline, ta-st]",
    "--set", "experiment.restarts=1",
    "--set", "self_training.max_iterations=2",
]


def _digests(argv, out, names, code=EXIT_OK):
    assert main(["--quiet", "--out", str(out), *argv]) == code
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_k_sweep(tmp_path):
    assert _digests([*SWEEP, "experiment"], tmp_path, ("report.json", "curve.csv", "curve_aggregate.csv")) == {
        "report.json": "76fb0bf6dce60414694fb14ac8b475df5dd30a44948c2cb650619b8e38b60efb",
        "curve.csv": "311848181463fadf164253b762694d2abb277244a254c1593ca90717263435a9",
        "curve_aggregate.csv": "f96381325ff363d8b4e1be22af5a86634389cf446504b8bf7db5afd31101d8d2",
    }


def test_ta_with_tau_selected_over_the_grid(tmp_path):
    assert _digests([*TA, "experiment"], tmp_path, ("report.json",)) == {
        "report.json": "40acdf6ee92553346148307f52d12fd54d8adf8137151ae058798d7a88c61724",
    }


def test_augment_then_selftrain(tmp_path):
    f0 = tmp_path / "augment" / "f0.model"
    _digests([*NLI, "augment"], tmp_path / "augment", ())
    digests = _digests([*SELFTRAIN, "selftrain", "--f0", str(f0)], tmp_path / "selftrain", ("result.json", "final.model"))
    assert digests == {
        "result.json": "0af9b09a3f3fb04b3048cc28c4eaee1192692414a9abedee58a821e40cf90e1b",
        "final.model": "eb42144f194a84cbb2b0e782191c78f8461808d2624597f4fa280ac4acaff06a",
    }
    assert digests["final.model"] != hashlib.sha256(f0.read_bytes()).hexdigest()


def test_every_key_through_a_config_file(tmp_path):
    names = ("report.json", "curve.csv", "curve_aggregate.csv")
    assert _digests(["--config", str(EVERY_KEY), "experiment"], tmp_path, names) == {
        "report.json": "5134c1f3509c2a1d75c1e515fc1cefcb24d6410ab2e6f34752ae2e0559417e99",
        "curve.csv": "480a623fe07b220b722230d32ca96824aead488867b184f84a8fbdc4bca91566",
        "curve_aggregate.csv": "8d7e5b27477b3143dcc56d7a9eb6f84fdbbb910029b7aa0091ce60f5fb25ddbc",
    }


@pytest.mark.parametrize(
    "pool_mode, digest",
    [
        ("in_plus_out", "0f3b0e910cb66887073500622b4005088ecdf34745ee5e10be4b876a6d93700e"),
        ("out_only", "8a22c48a247c57ba47837f4b2be9b083dd407040d3603014d56dfeb0adc8e6cd"),
    ],
)
def test_out_of_domain_pool(tmp_path, pool_mode, digest):
    argv = [*OOD, "--set", f"self_training.pool_mode={pool_mode}", "experiment"]
    assert _digests(argv, tmp_path, ("report.json",)) == {"report.json": digest}


def test_divergence_exits_partial(tmp_path):
    assert _digests([*DIVERGENCE, "experiment"], tmp_path, ("report.json",), code=EXIT_PARTIAL) == {
        "report.json": "ca0cf1b981fe73a55fd8825371164dc4d50d52bb8f339fbe7782158de4c3df2c",
    }


def test_fixed_steps_with_checkpoint_averaging_dev_free(tmp_path):
    assert _digests([*FIXED_STEPS, "experiment"], tmp_path, ("report.json",)) == {
        "report.json": "2700457a7ec35d818a7454b14c1dfdf82e762ae65445009b5b92aa7f9af5c71e",
    }
