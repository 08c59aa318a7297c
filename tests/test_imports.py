"""What ``selfaug`` imports, and when: scipy's sparse kernels are loaded from
their file, a run imports nothing, and no module imports a name it does not
use. The import-graph tests each run in a fresh interpreter."""

import ast
from pathlib import Path

import selfaug

# Imported for the load they move out of a run, not for a name (see textmodel).
SIDE_EFFECT_IMPORTS = {("textmodel.py", "numpy.random")}


def _imported_and_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names a module binds by import, and every name and dotted attribute
    chain (``a``, ``a.b``, ``a.b.c``) it reads."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                chain.append(node.attr)
            if isinstance(node.value, ast.Name):
                chain = [node.value.id, *reversed(chain)]
                used.update(".".join(chain[: i + 1]) for i in range(len(chain)))
    return imported, used


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(Path(selfaug.__file__).parent.glob("*.py")):
        imported, used = _imported_and_used(ast.parse(path.read_text(encoding="utf-8")))
        unused += [(path.name, name) for name in sorted(imported - used)]
    assert set(unused) == SIDE_EFFECT_IMPORTS


def test_cli_import_loads_only_the_sparse_kernels_of_scipy(fresh_python):
    out = fresh_python("import sys\nimport selfaug.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "['scipy.sparse._sparsetools']"  # no scipy.sparse, no scipy.stats


def test_run_experiment_imports_no_module(fresh_python):
    """A module first imported inside a run would load inside ``run_s``."""
    out = fresh_python("""
import sys
import selfaug.cli
from selfaug.augmentation import TAConfig
from selfaug.harness import ExperimentSpec, run_experiment
from selfaug.selftrain import SelfTrainConfig
from selfaug.synth import SynthSpec
from selfaug.textmodel import FeatureConfig, TrainConfig

spec = ExperimentSpec(
    task=SynthSpec("pair-overlap-nli"), arms=("baseline", "ta", "cf-st"), restarts=1,
    train_partition_size=400, test_size=100, feature_config=FeatureConfig(hash_dim=2 ** 12),
    train_config=TrainConfig(seed=0, max_steps=40), st_config=SelfTrainConfig(cf_batch=64),
    ta_config=TAConfig(aux_train_size=60, aux_dev_size=20, ta_pool_limit=20, tau=None, tau_source_limit=10),
)
before = set(sys.modules)
report = run_experiment(spec)
assert not report.partial and all(None not in s for s in report.scores.values()), report.errors
print(sorted(set(sys.modules) - before))
""")
    assert out.strip() == "[]"


def test_scipy_sparse_imported_later_reuses_the_kernels(fresh_python):
    out = fresh_python("""
import sys
import numpy as np
from selfaug import textmodel
from selfaug.corpus import LabelSpace
import scipy.sparse as sp
from scipy.sparse import _sparsetools

assert _sparsetools is textmodel._sparsetools is sys.modules["scipy.sparse._sparsetools"]
rng = np.random.default_rng(0)
x = sp.csr_matrix(rng.poisson(0.3, size=(20, 50)).astype(float))
params = textmodel.ModelParams(
    rng.normal(size=(3, 50)), rng.normal(size=3), "classification", LabelSpace.categorical(("a", "b", "c"))
)
public, ours = x @ params.weights.T + params.bias, textmodel._logits(params, x)
print(type(public) is np.ndarray, public.dtype == ours.dtype, public.shape == ours.shape, public.tobytes() == ours.tobytes())
""")
    assert out.split() == ["True"] * 4


def test_kernels_already_imported_are_not_loaded_again(fresh_python):
    out = fresh_python("""
import importlib.machinery
from scipy.sparse import _sparsetools


class Refused(importlib.machinery.ExtensionFileLoader):
    def __init__(self, *args, **kwargs):
        raise AssertionError("the kernels were loaded again")


importlib.machinery.ExtensionFileLoader = Refused
from selfaug import textmodel

print(textmodel._sparsetools is _sparsetools)
""")
    assert out.strip() == "True"


def test_a_missing_extension_file_is_an_error_naming_the_path(fresh_python, tmp_path):
    out = fresh_python(f"""
import sys
from selfaug import textmodel

del sys.modules[textmodel._KERNELS]
try:
    textmodel._load_kernels([{str(tmp_path)!r}])
except ImportError as exc:
    print(exc)
print(textmodel._KERNELS in sys.modules)
""")
    message, registered = out.strip().split("\n")
    assert str(tmp_path / "sparse" / "_sparsetools") in message
    assert registered == "False"
