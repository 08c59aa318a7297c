"""The benchmark's own test: ``python3 perfbench/check_counts.py [--seed N] [WORKLOAD ...]``.

For each workload (all by default) it makes two traced runs of one seed and
checks that

* the work counts later changes may cite by name repeat exactly,
* both runs pass the correctness gate, so their artifacts are byte-identical,
* layer self times cover at least 90% of the traced ``run_s``,
* the layers the workload exists to exercise did run,

and that ``workloads.json`` and ``BENCHMARK.json`` name the same workloads
and per-layer metrics. Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import HERE, OUT, ROOT, Gate, run_child

EXACT_COUNTS = (
    "textmodel.sgd_step.calls",
    "textmodel.featurize.rows",
    "textmodel.predict.calls",
    "augmentation.filter.offered",
    "augmentation.filter.kept",
    "selftrain.broad.iterations",
    "selftrain.cf.iterations",
)
# A count that must be positive on a workload: the layer it exists to exercise.
EXERCISED = {
    "st-sentiment": ("selftrain.broad.iterations",),
    "ta-overgen-nli": ("augmentation.filter.offered", "augmentation.generate.candidates"),
    "cf-drift": ("selftrain.cf.iterations",),
}
MIN_COVERAGE = 0.9


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main(argv=None) -> int:
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=f"one of {list(spec['workloads'])}")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(spec["workloads"])
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(
        {w["name"]: w["why"] for w in bench["workloads"]} == {k: w["why"] for k, w in spec["workloads"].items()},
        "BENCHMARK.json and workloads.json list the same workloads and reasons",
    )
    check(
        [m["name"] for m in bench["per_layer"]] == list(spec["per_layer_moves"]),
        "every per-layer metric records the end-to-end metric it should move",
    )

    for name in args.workloads or spec["workloads"]:
        workload = spec["workloads"][name]
        work = OUT / name / f"check-seed{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        gate = Gate(workload)
        layers = []
        for tag in ("traced0", "traced1"):
            res = run_child(work, tag, workload, args.seed, "run", True, timeout=120)
            check(gate.check(res, work / tag), f"{name} {tag} passes the correctness gate {gate.problems}")
            layers.append(res["layers"])
            check(
                res["layers"]["trace.coverage"] >= MIN_COVERAGE,
                f"{name} {tag} layer self times cover {res['layers']['trace.coverage']:.3f} of run_s",
            )
        for key in EXACT_COUNTS:
            check(layers[0][key] == layers[1][key], f"{name} {key} repeats exactly ({layers[0][key]})")
        for key in EXERCISED[name]:
            check(layers[0][key] > 0, f"{name} exercises {key} ({layers[0][key]})")
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
