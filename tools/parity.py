"""Check that this checkout writes the same experiment artifacts as a git ref.

    python3 tools/parity.py REF

``REF`` (a commit, branch or tag) is exported with ``git archive`` into a
temporary directory. Each workload of ``perfbench/workloads.json`` then runs
through ``selfaug.cli.main`` (its argv plus ``--seed N ... experiment``) in a
fresh interpreter, once on each tree, at the file's ``default_seed`` and
``held_out_seed``. ``report.json``, ``scores.csv``, ``aggregate.csv`` and
``manifest.json`` are compared by sha256. Exit status: 0 when every artifact
and exit code matches, 1 on any difference.

The artifacts hold scores, not trained weights, so a change too small to
move a score passes here; ``TestFitMatchesDenseStep`` compares ``fit`` with
the dense reference bit for bit.
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
ARTIFACTS = ("report.json", "scores.csv", "aggregate.csv", "manifest.json")
RUNNER = "import sys; sys.path.insert(0, sys.argv[1]); from selfaug.cli import main; sys.exit(main(sys.argv[2:]))"


def export(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(tree: Path, seed: int, argv: list[str], out: Path) -> tuple[int, dict[str, str]]:
    """Exit code and artifact sha256 digests of one ``experiment`` run on ``tree``."""
    full = ["--seed", str(seed), "--out", str(out), "--quiet", *argv, "experiment"]
    code = subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src"), *full], cwd=out.parent).returncode
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).exists() else "missing"
        for name in ARTIFACTS
    }
    return code, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ref", help="git ref to compare this checkout against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    seeds = (spec["default_seed"], spec["held_out_seed"])
    differences = 0
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        ref_tree = tmp / "ref"
        ref_tree.mkdir()
        export(args.ref, ref_tree)
        for name, workload in spec["workloads"].items():
            for seed in seeds:
                runs = []
                for label, tree in (("ref", ref_tree), ("here", ROOT)):
                    out = tmp / f"{name}-{seed}-{label}"
                    runs.append(run(tree, seed, workload["argv"], out))
                (ref_code, ref_digests), (code, digests) = runs
                diff = [f for f in ARTIFACTS if digests[f] != ref_digests[f]]
                if code != ref_code:
                    diff.append(f"exit code {ref_code} -> {code}")
                differences += bool(diff)
                print(f"{name} seed {seed}: " + ("identical" if not diff else "DIFFERS: " + ", ".join(diff)))
    print("parity ok" if not differences else f"{differences} workload/seed pair(s) differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
