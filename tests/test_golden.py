"""Pinned sha256 digests of the artifacts of three small CLI runs.

Each test runs ``selfaug.cli.main`` in-process on a tiny config and checks
the sha256 of the files it writes against a pinned value:

- a keyword-sentiment k sweep (``experiment.sweep_ks=[4, 8]``):
  ``report.json``, ``curve.csv`` and ``curve_aggregate.csv``;
- a pair-overlap-nli ``ta`` run with tau selected over the grid
  (``augmentation.tau=null``): ``report.json``;
- ``augment`` on pair-overlap-nli, then ``selftrain`` from its
  ``f0.model`` on a fixed step budget: ``result.json`` and ``final.model``.

So a change that moves one score or one trained weight fails here, without a
git ref to compare against. The digests hold for numpy 2.4.6 and the SIMD
kernels of an x86-64 Intel Xeon CPU; another numpy release or CPU may round
differently. A change that moves these bytes on purpose re-pins them and
lists each old and new digest with its reason.
"""

import hashlib

import pytest

from selfaug.cli import EXIT_OK, main

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


def _digests(argv, out, names):
    assert main(["--quiet", "--out", str(out), *argv]) == EXIT_OK
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
