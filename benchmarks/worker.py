"""One benchmark process: set up a workload, then run its studies.

Started by ``run.py`` in a fresh interpreter for every run, so that peak
memory and cache warm-up belong to this workload alone.  Usage:

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S
                                 --trace 0|1 --out DIR [--setup-only]

Writes ``DIR/worker.json`` and exits 0, or exits 1 on a failure it could
not record as a result.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _totals(studies) -> dict:
    return {key: sum(getattr(s, key) for s in studies)
            for key in ("attempted", "diverged", "failed")}


def _summary(studies) -> dict:
    """Medians over studies of the per-study figures."""
    first = studies[0]

    def rate(samples, seconds):
        return statistics.median(getattr(s, samples) / getattr(s, seconds)
                                 for s in studies if getattr(s, seconds) > 0)

    out = {"wall_s": statistics.median(s.wall_s for s in studies),
           "studies": len(studies),
           # no cell passed its checks: the study is already marked invalid
           "robust_acc_mean": statistics.fmean(first.robust) if first.robust else 0.0,
           "invariance_mean": statistics.fmean(first.invariance) if first.invariance else 0.0,
           "problems": [p for s in studies for p in s.problems],
           "invalid": [p for s in studies for p in s.invalid],
           "digests": first.digests,
           "digests_repeat": all(s.digests == first.digests for s in studies)}
    for name, samples, seconds in (("train_samples_per_s", "train_samples", "train_s"),
                                   ("eval_samples_per_s", "eval_samples", "eval_s"),
                                   ("theory_samples_per_s", "theory_samples", "theory_s")):
        if any(getattr(s, seconds) > 0 for s in studies):
            out[name] = rate(samples, seconds)
    out.update(_totals(studies))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = Path(args.out)
    src = Path(__file__).resolve().parent.parent / "src"

    import arlab
    if Path(arlab.__file__).resolve().parent.parent != src:
        print(f"arlab imported from {arlab.__file__}, not from {src}", file=sys.stderr)
        return 1
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    result = {"setup_s": time.perf_counter() - _STARTED, "seeds": workload.seeds()}
    if hasattr(workload, "train_s"):
        result["setup_train_samples_per_s"] = workload.train_samples / workload.train_s
    if not args.setup_only:
        result["environment"] = _versions()
        if args.trace:
            result.update(_traced(workload, args.workload, out))
        else:
            result.update(_timed(workload, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / ("setup.json" if args.setup_only else "worker.json")).write_text(
        json.dumps(result, indent=1, sort_keys=True))
    return 0


def _timed(workload, seconds: float) -> dict:
    """Repeat the study while the next one is expected to fit the run length."""
    started = time.perf_counter()
    studies = [workload.study()]
    while time.perf_counter() - started + studies[-1].wall_s <= seconds:
        studies.append(workload.study())
    return _summary(studies)


def _traced(workload, name: str, out: Path) -> dict:
    """One untraced study for reference, then one traced study."""
    from tracer import Tracer

    reference = workload.study()
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.study()
    finally:
        tracer.uninstall()
    layers = tracer.aggregate()
    layers["trace.wall_s"] = traced.wall_s
    layers["trace.untraced_wall_s"] = reference.wall_s
    layers["trace.overhead_s"] = traced.wall_s - reference.wall_s
    tracer.write(out / "spans.json")
    summary = _summary([traced])
    summary["layers"] = layers
    summary["missing_coverage"] = tracer.missing_coverage(name, layers)
    summary["bindings"] = tracer.bindings
    return summary


if __name__ == "__main__":
    sys.exit(main())
