import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfaug
from selfaug.corpus import Dataset, Example, LabelSpace
from selfaug.textmodel import FeatureConfig, TrainConfig, init_params, train


@pytest.fixture(scope="session")
def small_fc():
    return FeatureConfig(hash_dim=2 ** 12)


@pytest.fixture(scope="session")
def binary_space():
    return LabelSpace.categorical(("pos", "neg"))


@pytest.fixture(scope="session")
def tiny_dataset(binary_space):
    rows = [
        ("good movie great plot", "pos"),
        ("excellent fresh acting", "pos"),
        ("wonderful engaging story", "pos"),
        ("delightful superb scene", "pos"),
        ("bad boring script", "neg"),
        ("awful terrible pacing", "neg"),
        ("tedious bland dialogue", "neg"),
        ("dreadful lifeless ending", "neg"),
    ]
    examples = tuple(
        Example(id=f"tiny:{i}", segment_a=text, label=label)
        for i, (text, label) in enumerate(rows)
    )
    return Dataset(name="tiny", label_space=binary_space, examples=examples)


@pytest.fixture(scope="session")
def tiny_model(tiny_dataset, small_fc):
    """A classifier trained to saturation on the tiny sentiment set."""
    config = TrainConfig(max_steps=60, seed=0, eval_every=60, average_last=1, stopping="fixed_steps")
    params, _ = train(
        init_params(tiny_dataset.label_space, small_fc),
        tiny_dataset,
        config,
        feature_config=small_fc,
    )
    return params


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python source in a fresh interpreter that imports this ``selfaug``;
    returns its stdout, and fails the test on a nonzero exit."""
    src = str(Path(selfaug.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(code: str) -> str:
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
