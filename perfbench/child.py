"""Run one workload in a fresh interpreter: ``python3 perfbench/child.py JOB.json``.

The clock starts on the first line, so ``setup_s`` covers importing selfaug,
numpy and scipy, parsing argv and the config, and building the spec, up to
entry into ``harness.run_experiment``. ``run_s`` runs from that entry until
``cli.main`` returns, artifact writes included.

JOB.json holds ``root`` (the checkout), ``argv`` (passed to ``cli.main``),
``expect`` (arms, restarts and hash_dim the spec must have), ``mode``
(``run``, or ``setup`` to stop at entry into ``run_experiment``), ``trace``
and ``result`` (where to write the measurements as JSON).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


class _SetupDone(BaseException):
    """Raised at entry into run_experiment by a setup-only job; cli.main catches only Exception."""


def _spec_mismatch(spec, expect) -> list[str]:
    found = {"arms": list(spec.arms), "restarts": spec.restarts, "hash_dim": spec.feature_config.hash_dim}
    return [f"{k}: expected {expect[k]!r}, got {found[k]!r}" for k in expect if found[k] != expect[k]]


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    from selfaug import cli  # pulls in every selfaug module, numpy and scipy

    out: dict = {"import_s": time.perf_counter() - T0, "errors": [], "warnings": []}

    tracer = None
    if job["trace"]:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        out["warnings"] += [f"trace target {name} not found; its layer reads 0" for name in tracer.missing]

    entered: list[tuple] = []  # (perf_counter, os.times()) at entry into run_experiment
    run_experiment = cli.run_experiment

    def timed_run_experiment(spec):
        entered.append((time.perf_counter(), os.times()))
        out["errors"] += _spec_mismatch(spec, job["expect"])
        if job["mode"] == "setup":
            raise _SetupDone
        return run_experiment(spec)

    cli.run_experiment = timed_run_experiment
    try:
        rc = cli.main(job["argv"])
    except _SetupDone:
        rc = 0
    t_end, cpu_end = time.perf_counter(), os.times()

    if not entered:
        out["errors"].append("run_experiment was never entered")
        entered.append((t_end, cpu_end))
    t_entry, cpu_entry = entered[0]
    import numpy
    import scipy

    out.update(
        rc=rc,
        setup_s=t_entry - T0,
        run_s=t_end - t_entry,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cpu_s=sum(cpu_end[:4]) - sum(cpu_entry[:4]),
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__},
    )
    if tracer is not None:
        harness_start = tracer.first_start("harness", default=t_entry)
        out["setup_s"] = harness_start - T0
        out["run_s"] = t_end - harness_start
        out["layers"] = layer_metrics(tracer, (harness_start, t_end))
        out["layers"]["setup.import_s"] = out["import_s"]
        out["layers"]["process.cpu_s"] = out["cpu_s"]
        tracer.dump(Path(job["result"]).with_suffix(".spans.json"))
    Path(job["result"]).write_text(json.dumps(out), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
