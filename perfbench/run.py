"""selfaug benchmark: end-to-end and per-layer metrics of ``selfaug experiment``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. ``NAME`` is a workload from
``perfbench/workloads.json``, or ``all`` to run each in turn. Every
measurement starts a fresh interpreter (``perfbench/child.py``) that calls
``selfaug.cli.main([... "experiment"])`` with the workload's argv and
``--seed N`` as the master seed. Runs repeat until ``S`` seconds are used and
each metric is the median over them; short setup-only runs fill the time
that is left, so ``setup_s`` has more samples.

Every run passes a correctness gate: exit code 0, ``partial`` false,
``report.json``, ``scores.csv``, ``aggregate.csv`` and ``manifest.json``
byte-identical to the first run, every headline-arm restart scored and, where
the workload names one, the arm order of acceptance criterion 2. A run that
fails the gate counts all of its arm runs as failed.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics; the traced runs' artifacts must match the untraced ones byte for
byte, and ``trace.overhead_s`` is traced minus untraced ``run_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (arm runs) and ``metrics``; the line
before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
ARTIFACTS = ("report.json", "scores.csv", "aggregate.csv", "manifest.json")
# A child still running this long after the measuring time has ended is
# killed, so a call with --seconds 40 ends within 180 s.
GRACE_S = 130
# Seconds kept at the end of an untraced run for setup-only runs: setup_s is
# the noisiest metric and each full run yields only one sample of it.
SETUP_RESERVE_S = 4.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class Gate:
    """Correctness checks shared by all full runs of one workload and seed."""

    def __init__(self, workload: dict):
        self.workload = workload
        self.arm_runs = len(workload["arms"]) * workload["restarts"]
        self.reference: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, res: dict, out_dir: Path) -> bool:
        w = self.workload
        problems = list(res["problems"])
        try:
            files = {name: (out_dir / name).read_bytes() for name in ARTIFACTS}
        except FileNotFoundError as exc:
            problems.append(f"missing artifact {Path(exc.filename).name}")
        else:
            report = json.loads(files["report.json"])
            if report["partial"]:
                problems.append(f"partial report: {report['errors']}")
            if self.reference is None:
                self.reference = files
            differ = [name for name in ARTIFACTS if files[name] != self.reference[name]]
            if differ:
                problems.append(f"artifacts differ from the first run: {differ}")
            head = w["headline_arm"]
            scores = report["scores"].get(head, [])
            if len(scores) != w["restarts"] or None in scores:
                problems.append(f"headline arm {head} scored {scores}")
            else:
                res["accuracy"] = report["aggregates"][head]["mean"]
            if "at_least" in w:
                hi, lo = (report["aggregates"].get(arm, {}).get("mean") for arm in w["at_least"])
                if hi is None or lo is None or hi < lo:
                    problems.append(f"{w['at_least'][0]} mean {hi} below {w['at_least'][1]} mean {lo}")
        res["ok"] = not problems
        self.attempted += self.arm_runs
        self.failed += self.arm_runs if problems else 0
        self.problems += problems
        return res["ok"]


def run_child(work: Path, tag: str, workload: dict, seed: int, mode: str, trace: bool, timeout: float) -> dict:
    """One fresh-interpreter run; returns its measurements plus ``problems``."""
    out_dir = work / tag
    job = {
        "root": str(ROOT),
        "argv": ["--seed", str(seed), "--out", str(out_dir), "--quiet", *workload["argv"], "experiment"],
        "expect": {k: workload[k] for k in ("arms", "restarts", "hash_dim")},
        "mode": mode,
        "trace": trace,
        "result": str(work / f"{tag}.result.json"),
    }
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"{tag}: killed after {timeout:.0f} s"], "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    result_path = Path(job["result"])
    res = json.loads(result_path.read_text(encoding="utf-8")) if result_path.is_file() else {}
    res["wall_s"] = wall
    res["traced"] = trace
    res["problems"] = [f"{tag}: {e}" for e in res.get("errors", [])]
    if proc.returncode != 0:
        res["problems"].append(f"{tag}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    if "run_s" not in res:
        res["problems"].append(f"{tag}: no measurements")
    return res


def median(values):
    return statistics.median(values) if values else float("nan")


def finite_or_none(value):
    """JSON has no NaN: a metric without a sample (every run failed) is null."""
    return value if value is not None and math.isfinite(value) else None


def run_workload(name: str, workload: dict, seed: int, seconds: int, trace: bool) -> dict:
    work = OUT / name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    deadline = start + seconds
    cutoff = deadline + GRACE_S
    gate = Gate(workload)
    full: list[dict] = []
    longest = 0.0
    reserve = 0.0 if trace else SETUP_RESERVE_S
    while True:
        tag = f"run{len(full)}"
        res = run_child(work, tag, workload, seed, "run", trace and len(full) % 2 == 1, cutoff - time.perf_counter())
        gate.check(res, work / tag)
        shutil.rmtree(work / tag, ignore_errors=True)
        full.append(res)
        longest = max(longest, res["wall_s"])
        enough = len(full) >= (2 if trace else 1)
        if enough and time.perf_counter() + longest > deadline - reserve:
            break
    probes: list[dict] = []
    probe_longest = 0.0
    while not trace and time.perf_counter() + max(probe_longest, 1.0) <= deadline:
        res = run_child(work, f"setup{len(probes)}", workload, seed, "setup", False, cutoff - time.perf_counter())
        gate.problems += res["problems"]
        probes.append(res)
        probe_longest = max(probe_longest, res["wall_s"])

    ok = [r for r in full if r["ok"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if trace:
        layer_names = sorted(traced[0]["layers"]) if traced else []
        metrics = {k: median([r["layers"][k] for r in traced]) for k in layer_names}
        metrics.update({
            "harness.arm_runs": gate.arm_runs,
            "harness.arm_failures": gate.failed / max(len(full), 1),
            "harness.failed_arm_share": gate.failed / gate.attempted,
            "result.accuracy": median([r["accuracy"] for r in ok]),
            "trace.run_s": median([r["run_s"] for r in traced]),
            "trace.overhead_s": median([r["run_s"] for r in traced]) - median([r["run_s"] for r in plain]),
        })
    else:
        metrics = {
            "run_s": median([r["run_s"] for r in ok]),
            "setup_s": median([r["setup_s"] for r in ok + probes if not r["problems"]]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
            "arm_success_share": 1.0 - gate.failed / gate.attempted,
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": not gate.problems and bool(ok) and (not trace or bool(traced and plain)),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems,
        "warnings": sorted({w for r in full for w in r.get("warnings", [])}),
        "runs": len(full),
        "setup_probes": len(probes),
        "elapsed_s": time.perf_counter() - start,
        "metrics": metrics,
        "samples": [{k: r.get(k) for k in ("traced", "ok", "run_s", "setup_s", "peak_rss_mb", "wall_s")} for r in full + probes],
        "versions": next((r["versions"] for r in full if "versions" in r), {}),
    }


def source_lines(package: Path) -> int:
    """Non-blank lines that are not comment-only, over the package's .py files."""
    total = 0
    for path in sorted(package.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            total += bool(stripped) and not stripped.startswith("#")
    return total


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(spec: dict, versions: dict) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "selfaug_source_lines": source_lines(ROOT / "src" / "selfaug"),
        "default_seed": spec["default_seed"],
        "held_out_seed": spec["held_out_seed"],
    }


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the running child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*spec["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=int, help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "selfaug" / "cli.py").is_file():
        print(f"no selfaug source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}

    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        s = run_workload(name, spec["workloads"][name], args.seed, args.seconds or bench["run_seconds"], bool(args.trace))
        if s["correct"] and set(s["metrics"]) != set(declared):
            print(f"metric names differ from BENCHMARK.json: {sorted(set(s['metrics']) ^ set(declared))}", file=sys.stderr)
            return 2
        s["environment"] = environment(spec, s["versions"])
        (OUT / name / f"seed{args.seed}-trace{args.trace}" / "summary.json").write_text(json.dumps(s, indent=2), encoding="utf-8")

        print(f"{name} seed {args.seed}: {s['runs']} runs, {s['setup_probes']} setup-only runs, "
              f"{s['elapsed_s']:.1f} s, correct={s['correct']}")
        for line in [f"problem: {p}" for p in s["problems"]] + [f"warning: {w}" for w in s["warnings"]]:
            print(f"  {line}")
        for metric, d in declared.items():
            print(f"  {metric:42s} {s['metrics'].get(metric, float('nan')):14.6f} {d['unit']:9s} ({d['better']} is better)")
        print(f"  {'failed_arm_share':42s} {s['failed'] / s['attempted']:14.6f} {'fraction':9s} "
              f"({s['failed']} of {s['attempted']} arm runs)")
        print(json.dumps({"environment": s["environment"], "workload": {"name": name, **spec["workloads"][name]}}))
        print(json.dumps({
            "correct": s["correct"],
            "attempted": s["attempted"],
            "failed": s["failed"],
            "metrics": {m: {"value": finite_or_none(s["metrics"].get(m)), "unit": d["unit"]} for m, d in declared.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
