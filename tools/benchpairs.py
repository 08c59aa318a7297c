"""Alternated benchmark pairs: this checkout against a git ref, one workload.

    python3 tools/benchpairs.py REF --workload W --pairs N --seconds S --seed K [--out FILE]

``REF`` (a commit, branch or tag) is exported with ``git archive`` into a
temporary directory, as ``tools/parity.py`` does. The tool refuses to run
(exit 2) when ``perfbench/`` or ``BENCHMARK.json`` differs between the two
trees, since the pair would then compare two benchmarks.

Each pair runs ``perfbench/run.py --workload W --seed K --seconds S --trace
0`` once from the root of each tree, each call a fresh process. The side that
goes first alternates: the ref runs first in pairs 0, 2, 4 and so on, this
checkout in the others, so a drift of the machine over the run falls on
both sides alike. A call's metrics are its own medians over its runs.

The record written to ``FILE`` (default ``benchpairs.json``; a record is
appended to the file's ``runs`` list when it exists) holds every sample of
each end-to-end metric on both sides, in pair order, which side went first,
each side's median, lower and upper quartile, the number of pairs this
checkout won (strictly better, by ``BENCHMARK.json``'s ``better``), each
call's correctness, and the environment line of each side's first call.
Exit status: 0 when every call passed the benchmark's correctness gate, 1
otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from parity import ROOT, export  # noqa: E402


def _files(tree: Path) -> list[str]:
    """The benchmark's files under ``tree``, relative, bytecode caches left out."""
    bench = tree / "perfbench"
    files = [str(p.relative_to(tree)) for p in sorted(bench.rglob("*")) if p.is_file() and "__pycache__" not in p.parts]
    return files + ["BENCHMARK.json"]


def benchmark_differs(a: Path, b: Path) -> list[str]:
    """The benchmark files that are missing from one tree or differ in bytes."""
    names = sorted(set(_files(a)) | set(_files(b)))
    return [n for n in names if not ((a / n).is_file() and (b / n).is_file() and filecmp.cmp(a / n, b / n, shallow=False))]


def call(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` call on ``tree``: its metrics, correctness and environment."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"correct": False, "metrics": {}, "error": f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "environment": json.loads(lines[-2])["environment"],
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the samples that exist."""
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    summary = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        ref = [p["ref"]["metrics"].get(name) for p in pairs]
        here = [p["here"]["metrics"].get(name) for p in pairs]
        wins = sum(
            r is not None and h is not None and (h < r if lower else h > r) for r, h in zip(ref, here)
        )
        summary[name] = {"better": metric["better"], "ref": spread(ref), "here": spread(here), "wins": wins, "pairs": len(pairs)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ref", help="git ref to compare this checkout against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="benchpairs.json", help="JSON file the record is appended to")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.ref], capture_output=True, text=True, check=True)
    pairs = []
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        ref_tree = Path(tmp) / "ref"
        ref_tree.mkdir()
        export(args.ref, ref_tree)
        differ = benchmark_differs(ref_tree, ROOT)
        if differ:
            print(f"the benchmark differs between {args.ref} and this checkout: {differ}", file=sys.stderr)
            return 2
        for i in range(args.pairs):
            order = ("ref", "here") if i % 2 == 0 else ("here", "ref")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = call(ref_tree if side == "ref" else ROOT, args.workload, args.seed, args.seconds)
            pairs.append(pair)
            run_s = [pair[side]["metrics"].get("run_s") for side in ("ref", "here")]
            print(f"pair {i}: {order[0]} first; run_s ref {run_s[0]} here {run_s[1]}", flush=True)

    record = {
        "ref": args.ref,
        "ref_commit": commit.stdout.strip(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "samples": {
            "first": [p["first"] for p in pairs],
            **{side: [p[side]["metrics"] for p in pairs] for side in ("ref", "here")},
        },
        "correct": {side: [p[side]["correct"] for p in pairs] for side in ("ref", "here")},
        "environment": {side: pairs[0][side].get("environment") for side in ("ref", "here")},
        "summary": summarize(pairs, declared),
    }
    out = Path(args.out)
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"] if out.is_file() else []
    out.write_text(json.dumps({"runs": runs + [record]}, indent=1) + "\n", encoding="utf-8")
    for name, s in record["summary"].items():
        print(f"{name}: ref median {s['ref']['median']} (q1 {s['ref']['q1']}, q3 {s['ref']['q3']}), "
              f"here median {s['here']['median']}, won {s['wins']} of {s['pairs']}")
    return 0 if all(all(c) for c in record["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
