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
  with checkpoint averaging: ``report.json``;
- the three perfbench workloads at seed 0, on the argv of
  ``perfbench/workloads.json`` (copied here, not read);
- acceptance criterion 3's pair pool at 2 restarts (pair-overlap-nli, arms
  ``baseline, ta, st, ta-st``, 8 self-training iterations).

Each ``experiment`` run also pins its ``scores.csv`` and ``aggregate.csv``.

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
RUN = ("report.json", "scores.csv", "aggregate.csv")
CURVES = ("curve.csv", "curve_aggregate.csv")

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
WORKLOADS = {
    "st-sentiment": [
        "--set", "datasets.task_family=keyword-sentiment",
        "--set", "experiment.arms=[baseline, st]",
        "--set", "experiment.restarts=1",
        "--set", "model.hash_dim=65536",
        "--set", "model.patience=15",
        "--set", "self_training.max_iterations=2",
        "--set", "self_training.agreement_patience=2",
        "--set", "self_training.final_finetune_on_l='off'",
    ],
    "ta-overgen-nli": [
        "--set", "datasets.task_family=pair-overlap-nli",
        "--set", "experiment.arms=[ta]",
        "--set", "experiment.restarts=1",
        "--set", "model.hash_dim=16384",
        "--set", "model.patience=15",
        "--set", "augmentation.tau=null",
        "--set", "generator.samples_per_input=32",
        "--set", "augmentation.ta_pool_limit=50",
        "--set", "augmentation.tau_source_limit=20",
    ],
    "cf-drift": [
        "--set", "datasets.task_family=drifted-cluster",
        "--set", "experiment.arms=[cf-st]",
        "--set", "experiment.restarts=1",
        "--set", "model.hash_dim=16384",
        "--set", "model.patience=15",
        "--set", "self_training.batch=64",
    ],
}
PAIR_POOL = [
    "--set", "datasets.task_family=pair-overlap-nli",
    "--set", "experiment.arms=[baseline, ta, st, ta-st]",
    "--set", "experiment.restarts=2",
    "--set", "self_training.max_iterations=8",
]


def _digests(argv, out, names, code=EXIT_OK):
    assert main(["--quiet", "--out", str(out), *argv]) == code
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_k_sweep(tmp_path):
    assert _digests([*SWEEP, "experiment"], tmp_path, RUN + CURVES) == {
        "report.json": "ec301539f0a3e1a43d262882972c1069daea11647ff6d8f180236151420669bf",
        "scores.csv": "d6068079da6ee55ce9d5c9168b5d5fcd152665010e9a5a3f63f8b1e6fd79ad58",
        "aggregate.csv": "92f2ac5723a6df867ba432d209a7ddeeba05166a75fc7543cc78f85eac438862",
        "curve.csv": "311848181463fadf164253b762694d2abb277244a254c1593ca90717263435a9",
        "curve_aggregate.csv": "f96381325ff363d8b4e1be22af5a86634389cf446504b8bf7db5afd31101d8d2",
    }


def test_ta_with_tau_selected_over_the_grid(tmp_path):
    assert _digests([*TA, "experiment"], tmp_path, RUN) == {
        "report.json": "44acac61e7243f9776ffbc468a2d4abb2cbf29976641e490bc629c86581389be",
        "scores.csv": "b54afbcf088c5e78f16f731a389c07253d87cfe16c58dae84e42750a7cc66915",
        "aggregate.csv": "9d7a3a8f53c767a6b8eb049631d9ecc1b78943de73603ab4c8737dac7fcf46d4",
    }


def test_augment_then_selftrain(tmp_path):
    f0 = tmp_path / "augment" / "f0.model"
    _digests([*NLI, "augment"], tmp_path / "augment", ())
    digests = _digests([*SELFTRAIN, "selftrain", "--f0", str(f0)], tmp_path / "selftrain", ("result.json", "final.model"))
    assert digests == {
        "result.json": "09a71a93b9c24778b2b1d4be3f4c72c1bd50b32649f9424a85b332c4a7fe9fa4",
        "final.model": "eb42144f194a84cbb2b0e782191c78f8461808d2624597f4fa280ac4acaff06a",
    }
    assert digests["final.model"] != hashlib.sha256(f0.read_bytes()).hexdigest()


def test_every_key_through_a_config_file(tmp_path):
    assert _digests(["--config", str(EVERY_KEY), "experiment"], tmp_path, RUN + CURVES) == {
        "report.json": "e5ab95a8321f0ecf845b2a2f4fb76f665dd11def15f72f6fefb2ec16ec3d5f7e",
        "scores.csv": "0a6fc28f213928005d1e1d206784c87a5054eb596c18f0e580c9ce511149fae2",
        "aggregate.csv": "886b42784bfcb2294a6ed85e5a746215d4ac7520204db018802b68e864635120",
        "curve.csv": "05716aa6db67a3f03b8498820c35e7cc8dbbe2476487c2bb9bc5afbe0a342c12",
        "curve_aggregate.csv": "a2d8fafc22aaba41bd5f53454992667c4fa4440b9e9ceea67ab702a2c2e7b602",
    }


@pytest.mark.parametrize(
    "pool_mode, digests",
    [
        (
            "in_plus_out",
            {
                "report.json": "19075fe71303d2e7f199fdc6f96d39a148d1a4c34a89c3a44140819c11cecd43",
                "scores.csv": "ccb153564345ad7a34fd4d5eac147fb77bf1edf57edbd44fadcbc51e527c15b2",
                "aggregate.csv": "2b0ebf9c1c18be08ea4881f0f1e925651efa8185fbef3c9332b5694487986d1d",
            },
        ),
        (
            "out_only",
            {
                "report.json": "2951eac6e634b3060d8771c7fcee3382c242913f63d61cc7fbe2cbe1aa958074",
                "scores.csv": "05f396af355c7776852603c3215921eb79a22b6a8bc8cc521b5811412bb9bcfe",
                "aggregate.csv": "4b57e9cfa5fccad6c12667a4d64d5b02d0e66c3db68f5011b306d4fde811e6e4",
            },
        ),
    ],
)
def test_out_of_domain_pool(tmp_path, pool_mode, digests):
    argv = [*OOD, "--set", f"self_training.pool_mode={pool_mode}", "experiment"]
    assert _digests(argv, tmp_path, RUN) == digests


def test_divergence_exits_partial(tmp_path):
    assert _digests([*DIVERGENCE, "experiment"], tmp_path, RUN, code=EXIT_PARTIAL) == {
        "report.json": "9c71dbb40392889d1b963058f5347c65439110b9b4b22c2e0e1e553c71193162",
        "scores.csv": "2b873bdd1ca6c5343ea4a8efc66f09d56eeb890b0f5246f60d6122427a1889d0",
        "aggregate.csv": "eb5767fefeebc6b2a462ceeaba70f035b00140bd76dccb84f38000a5eb1444fc",
    }


def test_fixed_steps_with_checkpoint_averaging_dev_free(tmp_path):
    assert _digests([*FIXED_STEPS, "experiment"], tmp_path, RUN) == {
        "report.json": "88d5e2a68ffaf0b0633b1cccb5d5097c777dfaf3e88ab1314174dbc19bc9634e",
        "scores.csv": "f4c478caaaae62f9a94de91620d6b81e6edbec197f698e4a5ab71b3f387b42d4",
        "aggregate.csv": "e3c580ae94b24c19f8814a55d9f1d94249958610179644f72ab522525cfcf740",
    }


@pytest.mark.parametrize(
    "workload, digests",
    [
        (
            "st-sentiment",
            {
                "report.json": "9b9c6fd13afa75decb868db66cb469806047b00a711ab22dfe3f0c93a0ecd908",
                "scores.csv": "128c652e44d8447e11cdc22e2b5aec5db3c075537de558bc00fc1f5281a178d7",
                "aggregate.csv": "5ca98306e1d12d66a6833f41e2d9a1717480d2c710ce874ecd7de23259014c3d",
            },
        ),
        (
            "ta-overgen-nli",
            {
                "report.json": "f3ecf7116f16704c7878c2fc5be8347a84021132ab52fe700809209433d22e13",
                "scores.csv": "6aab89baa384883d9133da23c7fea85ebeedfd0e4b678f159ef047c813fefa7c",
                "aggregate.csv": "f26d08510d105683b935da4d3af6cf7625f4ddc878c8454347d46c48141bc08b",
            },
        ),
        (
            "cf-drift",
            {
                "report.json": "95eb2768f2e4bf1d9b5170a45c8f590bb3779c00c0736f0699b11154cd645c0e",
                "scores.csv": "c27497db1040f323c293a6dcb0a6b7f994f205030987056f19ca96e94800ff7f",
                "aggregate.csv": "11f7cedbeac83d3fdd1ef01ce6cd3f38e972a42e7bcbfea49188fb9c76736dcf",
            },
        ),
    ],
)
def test_perfbench_workload_at_seed_0(tmp_path, workload, digests):
    assert _digests(["--seed", "0", *WORKLOADS[workload], "experiment"], tmp_path, RUN) == digests


def test_pair_pool(tmp_path):
    assert _digests([*PAIR_POOL, "experiment"], tmp_path, RUN) == {
        "report.json": "b737c325c877cc087598b456ae80d82a7728e5343b1548ecf4851c696f1cb472",
        "scores.csv": "458c941dab4af05c9aecaa205cd437dae0d18ffdaccda368eeff6636d9299524",
        "aggregate.csv": "ad8e8d82d4be40b26fa5f8c020ab0130a67da4b115bb2092396dfbbd55b6c756",
    }
