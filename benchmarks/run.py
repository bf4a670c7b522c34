"""arlab benchmark: times whole studies end to end and each module on its own.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --self-test [--workload NAME] [--seed N]

Each run starts fresh worker processes (``worker.py``) with BLAS and OpenMP
pinned to one thread.  With ``--trace 0`` set-up is repeated in separate
processes and its median reported, then one worker times whole studies for
the run length.  With ``--trace 1`` one worker runs the study untraced and
then traced, and reports per-layer time, self time, call counts, exact
counters and the tracing overhead.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it show every figure, the output checks, the digests of the
study's outputs and the environment.

``--self-test`` runs the traced workload twice and checks that every exact
counter agrees between the two runs.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0
COUNTER_SUFFIXES = (".calls", ".rows", ".entries", "tensor.nodes", "transforms.images",
                    "training.steps", "transforms.unique_pairs",
                    "transforms.images_per_unique", "trace.spans")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def _source_digest() -> str:
    """Content hash of the program sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    """HEAD of the checkout, or 'unknown' when the checkout is not a git tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts workers one at a time inside the run's time budget."""

    def __init__(self, out: Path):
        self.out = out
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def worker(self, workload: str, seed: int, seconds: float, trace: int,
               setup_only: bool = False) -> dict:
        out = self.out / ("setup" if setup_only else "main")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out)] + (["--setup-only"] if setup_only else [])
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        with open(out / "worker.log", "w") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=_child_env(), cwd=ROOT)
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"worker for {workload} exceeded the run budget")
        if code != 0:
            tail = (out / "worker.log").read_text()[-2000:]
            raise BenchError(f"worker for {workload} exited {code}:\n{tail}")
        return json.loads((out / ("setup.json" if setup_only else "worker.json")).read_text())


def _print_table(title: str, rows) -> None:
    print(f"== {title}")
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>14} {unit}")


def _reference_digests(workload: str, seed: int) -> dict:
    path = HERE / "reference_digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(workload, {}).get(str(seed), {})


def _report_outputs(workload: str, seed: int, result: dict) -> None:
    reference = _reference_digests(workload, seed)
    print("== output digests (reference: seed commit; reported, not gated)")
    for name, digest in sorted(result["digests"].items()):
        ref = reference.get(name, "not recorded")
        verdict = "same" if ref == digest else ("-" if ref == "not recorded" else "DIFFERENT")
        print(f"  {name:<24} {digest}  reference {ref}  {verdict}")
    print(f"  repeated studies gave identical outputs: {result['digests_repeat']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    for problem in result["invalid"]:
        print(f"  RESULT INVALID: {problem}")


def run_untraced(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    runner = Runner(OUT_ROOT / f"{workload}-{seed}-0")
    setups = [runner.worker(workload, seed, seconds, 0, setup_only=True)
              for _ in range(SETUP_REPEATS - 1)]
    result = runner.worker(workload, seed, seconds, 0)
    setups.append(result)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "robust_acc_mean": result["robust_acc_mean"],
        "invariance_mean": result["invariance_mean"],
    }
    for name in ("train_samples_per_s", "eval_samples_per_s", "theory_samples_per_s"):
        if name in result:
            values[name] = result[name]
    if "train_samples_per_s" not in values:
        # theory-audit trains only its set-up model, once per set-up process
        values["train_samples_per_s"] = statistics.median(
            s["setup_train_samples_per_s"] for s in setups)
    attempted, failed = result["attempted"], result["failed"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = [name for name in units if name not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    _print_table(f"{workload} seed {seed}: end to end ({result['studies']} studies, "
                 f"median; set-up median of {len(setups)} processes)",
                 [(name, values[name], units[name]) for name in units]
                 + [("cell_failure_share", failed / attempted, "fraction"),
                    ("cells_attempted", attempted, "count"),
                    ("cells_failed", failed, "count"),
                    ("cells_diverged", result["diverged"], "count")])
    _report_outputs(workload, seed, result)
    return {"correct": not result["invalid"],
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units},
            "record": {**_record(seed, result), "setup_s_all": [s["setup_s"] for s in setups]}}


def run_traced(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    runner = Runner(OUT_ROOT / f"{workload}-{seed}-1")
    result = runner.worker(workload, seed, seconds, 1)
    layers = result["layers"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _print_table(f"{workload} seed {seed}: per layer (traced study)",
                 [(name, layers.get(name, 0), units[name]) for name in units])
    print(f"  tracing overhead: traced wall {layers['trace.wall_s']:.3f} s - untraced "
          f"wall {layers['trace.untraced_wall_s']:.3f} s = {layers['trace.overhead_s']:.3f} s")
    print(f"  wrapped bindings: {sum(len(b) for b in result['bindings'].values())}")
    _report_outputs(workload, seed, result)
    missing = result["missing_coverage"]
    for layer in missing:
        print(f"  COVERAGE FAILED: {layer} recorded no self time on {workload}")
    attempted, failed = result["attempted"], result["failed"]
    return {"correct": not result["invalid"] and not missing,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": layers.get(name, 0), "unit": units[name]}
                        for name in units},
            "record": {**_record(seed, result), "layers": layers}}


def _record(seed: int, result: dict) -> dict:
    return {"commit": _commit(), "source_digest": _source_digest(), "seed": seed,
            "seeds": result["seeds"], "environment": result["environment"],
            "digests": result["digests"]}


def self_test(workloads, seed: int, seconds: float) -> bool:
    """Two traced runs of each workload must give identical exact counters."""
    ok = True
    for workload in workloads:
        counts = []
        for _ in range(2):
            runner = Runner(OUT_ROOT / f"selftest-{workload}-{seed}")
            layers = runner.worker(workload, seed, seconds, 1)["layers"]
            counts.append({k: v for k, v in layers.items()
                           if k.endswith(COUNTER_SUFFIXES)})
        differing = sorted(k for k in counts[0].keys() | counts[1].keys()
                           if counts[0].get(k) != counts[1].get(k))
        print(f"{workload}: {len(counts[0])} counters, "
              f"{'identical' if not differing else 'DIFFERENT: ' + ', '.join(differing)}")
        ok &= not differing
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        if not (ROOT / "src" / "arlab" / "__init__.py").is_file():
            raise BenchError(f"program sources not found under {ROOT / 'src'}")
        if args.seed < 0:
            raise BenchError("--seed must be nonnegative")
        if args.self_test:
            chosen = [args.workload] if args.workload else names
            return 0 if self_test(chosen, args.seed, args.seconds) else 1
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names}")
        run = run_traced if args.trace else run_untraced
        doc = run(args.workload, args.seed, args.seconds, spec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    record = doc.pop("record")
    out = OUT_ROOT / f"{args.workload}-{args.seed}-{args.trace}"
    (out / "result.json").write_text(json.dumps({**doc, "record": record}, indent=1))
    env = record["environment"]
    print(f"== environment: commit {record['commit']}, sources {record['source_digest']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"seeds {json.dumps(record['seeds'], sort_keys=True)}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
