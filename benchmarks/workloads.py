"""The three benchmark workloads: set-up, one study, and output checks.

Each workload is a closed loop with one caller: the benchmark calls into the
public functions of ``arlab`` and waits for each call to return.  A study is
the unit a researcher waits for; the worker repeats it for the run length.

- ``headline``: the criterion-6 study driven through the library: baseline,
  vanilla augmentation and aligned-vertex sql2 over the default 8-point
  lambda grid on rotated minidigits, then a theory audit of the selected
  sql2 model.
- ``cli-mixed``: ``arlab train`` on the texture family with eight methods
  and a two-point lambda grid, then ``arlab theory`` on the baseline cell.
- ``theory-audit``: ``cmd_theory`` and ``cmd_eval`` for every family on a
  baseline model that set-up trains and saves; nothing is trained in the
  study.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from arlab import cli, datasets, evaluation, model, theory, training, transforms
from arlab.errors import DivergenceError
from arlab.training import LrSchedule, TrainPlan

# training shape shared by every trained model, as in acceptance criterion 6
HIDDEN = (64,)
LR = 0.5
BATCH = 32

HEADLINE_N = 2000
HEADLINE_EPOCHS = 15
AUDIT_N = 500              # held-out samples audited after a sweep

CLI_N = 1000
CLI_EPOCHS = 4
CLI_METHODS = ["B", "VWA", "RWA", "L", "C", "K", "W", "D"]
CLI_GRID = [1e-3, 1e-2]    # two points, so lambda selection has a choice

THEORY_N = 1000
EVAL_N = 2000
FAMILIES = ("texture", "rotation", "contrast")

EVAL_OFFSET = 10_000       # held-out draw, as criterion 6 and the CLI use
AUDIT_OFFSET = 20_000      # theory draw, disjoint from train and held-out

GAP_TOL = 1e-9


@dataclass
class StudyResult:
    """What one study did, how long each part took, and what it produced."""

    wall_s: float = 0.0
    train_s: float = 0.0
    train_samples: int = 0
    eval_s: float = 0.0
    eval_samples: int = 0
    theory_s: float = 0.0
    theory_samples: int = 0
    attempted: int = 0
    diverged: int = 0
    failed: int = 0
    robust: list = field(default_factory=list)
    invariance: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    invalid: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def fail(self, message: str, invalidates: bool) -> None:
        """Count one failed cell or call.

        A failure that leaves the study without a valid result, such as a
        baseline that diverged or an audit that failed its checks, also
        invalidates the study.
        """
        self.failed += 1
        self.problems.append(message)
        if invalidates:
            self.invalid.append(message)


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


_now = time.perf_counter


def _warm(family, images) -> None:
    """Fill the transform caches, as a user's first call would."""
    for member in family:
        transforms.apply_batch(member, images[:1])


# -- output checks ---------------------------------------------------------

def check_eval(where: str, accuracy: float, robust: float, invariance: float,
               t: int) -> str:
    """Robust <= accuracy, and invariance in [1/t, 1]; '' when both hold."""
    problems = []
    if not 0.0 <= robust <= accuracy <= 1.0:
        problems.append(f"robust {robust} vs accuracy {accuracy}")
    if not 1.0 / t - 1e-12 <= invariance <= 1.0 + 1e-12:
        problems.append(f"invariance {invariance} outside [1/{t}, 1]")
    return f"{where}: {'; '.join(problems)}" if problems else ""


def check_theory(where: str, doc: dict) -> str:
    """Fractions in [0, 1] and matching-identity gaps >= -tol; '' when all hold."""
    problems = [f"{key} fraction {doc[key]['fraction']}" for key in ("A2", "A3", "A6")
                if not 0.0 <= doc[key]["fraction"] <= 1.0]
    problems += [f"gap {e['gap']} for {e['transform']}" for e in doc["matching_identity"]
                 if e["gap"] < -GAP_TOL * max(1.0, abs(e["l1_sum"]))]
    return f"{where}: {'; '.join(problems)}" if problems else ""


# -- headline --------------------------------------------------------------

class Headline:
    name = "headline"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.train_data = datasets.gen_minidigits(HEADLINE_N, seed)
        self.holdout = datasets.gen_minidigits(HEADLINE_N, seed + EVAL_OFFSET)
        self.family = transforms.family_rotation()
        self.audit_data = self.holdout.subset(range(AUDIT_N))
        _warm(self.family, self.train_data.images)

    def seeds(self) -> dict:
        return {"train_data": self.seed, "holdout": self.seed + EVAL_OFFSET,
                "init": self.seed}

    def cells(self):
        yield "B", "baseline", 0.0, None
        yield "V", "vanilla-aug", 0.0, None
        for lam in training.default_lambda_grid():
            yield "S", "aligned-vertex", float(lam), "sql2"

    def study(self) -> StudyResult:
        r = StudyResult()
        t = len(self.family)
        rows, best = [], None
        study_start = _now()
        for code, mode, lam, kind in self.cells():
            r.attempted += 1
            plan = TrainPlan(mode, family=self.family, lam=lam, align_kind=kind,
                             epochs=HEADLINE_EPOCHS, lr=LrSchedule(LR),
                             batch_size=BATCH, hidden=HIDDEN, seed=self.seed)
            where = f"{code} lambda={lam:g}"
            start = _now()
            try:
                history = training.train(plan, self.train_data)
            except DivergenceError as exc:
                r.train_s += _now() - start
                r.diverged += 1
                r.fail(f"{where}: {exc}", invalidates=code != "S")
                continue
            r.train_s += _now() - start
            r.train_samples += len(self.train_data) * plan.epochs
            start = _now()
            report = evaluation.evaluate(history.model, self.holdout, self.family, self.seed)
            r.eval_s += _now() - start
            r.eval_samples += len(self.holdout)
            problem = check_eval(where, report.accuracy, report.robust_accuracy,
                                 report.invariance, t)
            if problem:
                r.fail(problem, invalidates=code != "S")
                continue
            r.robust.append(report.robust_accuracy)
            r.invariance.append(report.invariance)
            rows.append(evaluation.MetricsRow(
                code, self.family.family_name, self.seed,
                None if kind is None else lam, report.accuracy,
                report.robust_accuracy, report.invariance))
            # per seed, the strongest robustness wins; ties keep the smaller lambda
            if code == "S" and (best is None or report.robust_accuracy > best[0]):
                best = (report.robust_accuracy, history.model)
        if best is None:
            r.invalid.append("no sql2 cell passed its checks")
        else:
            r.attempted += 1
            start = _now()
            doc = theory.run_all_checks(best[1], self.audit_data, self.family)
            r.theory_s += _now() - start
            r.theory_samples += len(self.audit_data)
            problem = check_theory("audit", doc)
            if problem:
                r.fail(problem, invalidates=True)
            r.digests["theory.json"] = _digest(json.dumps(doc, sort_keys=True))
        r.wall_s = _now() - study_start
        r.digests["metrics.csv"] = _digest(evaluation.rows_to_csv(rows))
        return r


# -- cli-mixed -------------------------------------------------------------

class _Timer:
    """Accumulates time and samples of the calls made through one binding.

    The wrapper looks the target up in its defining module on every call,
    so a tracer that wraps that module's binding still sees these calls.
    """

    def __init__(self, module, name: str, samples):
        self.module, self.name, self.samples_of = module, name, samples
        self.seconds = 0.0
        self.samples = 0

    def __call__(self, *args, **kwargs):
        start = _now()
        out = getattr(self.module, self.name)(*args, **kwargs)
        self.seconds += _now() - start
        self.samples += self.samples_of(*args, **kwargs)
        return out

    def take(self):
        out = (self.seconds, self.samples)
        self.seconds, self.samples = 0.0, 0
        return out


class CliMixed:
    name = "cli-mixed"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.run_dir = out / "cli-run"
        self.config = out / "cli-config.json"
        self.theory_json = out / "cli-theory.json"
        self.config.write_text(json.dumps({
            "dataset": {"kind": "minidigits", "n": CLI_N, "seed": seed},
            "model": {"hidden": list(HIDDEN)},
            "family": "texture",
            "methods": CLI_METHODS,
            "lambda_grid": CLI_GRID,
            "seeds": [seed],
            "epochs": CLI_EPOCHS,
            "lr": {"initial": LR},
            "batch_size": BATCH,
            "output_dir": str(self.run_dir),
        }))
        self.family = transforms.family_by_name("texture", 16)
        _warm(self.family, datasets.gen_minidigits(1, seed).images)
        # time the training and evaluation calls the CLI makes, per cell
        self.train_timer = _Timer(training, "train",
                                  lambda plan, data: len(data) * plan.epochs)
        self.eval_timer = _Timer(evaluation, "evaluate",
                                 lambda model_, data, *rest: len(data))
        cli.train = self.train_timer
        cli.evaluate = self.eval_timer

    def seeds(self) -> dict:
        return {"train_data": self.seed, "holdout": self.seed + EVAL_OFFSET,
                "init": self.seed, "theory_data": self.seed + AUDIT_OFFSET}

    def study(self) -> StudyResult:
        r = StudyResult()
        t = len(self.family)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        study_start = _now()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["train", "--config", str(self.config)])
        r.train_s, r.train_samples = self.train_timer.take()
        r.eval_s, r.eval_samples = self.eval_timer.take()
        cells = json.loads((self.run_dir / "run.json").read_text())["cells"] if code == 0 else []
        r.attempted += max(len(cells), 1)
        if code != 0:
            r.fail(f"arlab train exited {code}", invalidates=True)
        passed = set()
        for cell in cells:
            if "error" in cell:
                r.diverged += 1
                r.fail(f"{cell['dir']}: {cell['error']}", invalidates=False)
                continue
            m = cell["metrics"]
            problem = check_eval(cell["dir"], m["accuracy"], m["robustness"],
                                 m["invariance"], t)
            if problem:
                r.fail(problem, invalidates=False)
                continue
            passed.add(cell["method"])
            r.robust.append(m["robustness"])
            r.invariance.append(m["invariance"])
        if cells and passed != set(CLI_METHODS):
            r.invalid.append(f"no valid cell for {sorted(set(CLI_METHODS) - passed)}")
        weights = self.run_dir / f"B_none_{self.seed}" / "weights.bin"
        r.attempted += 1
        start = _now()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["theory", "--weights", str(weights),
                             "--data", f"minidigits:{AUDIT_N}:{self.seed + AUDIT_OFFSET}",
                             "--family", "texture", "--json", str(self.theory_json)])
        r.theory_s = _now() - start
        r.theory_samples = AUDIT_N
        r.wall_s = _now() - study_start
        if code != 0:
            r.fail(f"arlab theory exited {code}", invalidates=True)
        else:
            text = self.theory_json.read_text()
            problem = check_theory("arlab theory", json.loads(text))
            if problem:
                r.fail(problem, invalidates=True)
            r.digests["theory.json"] = _digest(text)
        metrics_csv = self.run_dir / "metrics.csv"
        if metrics_csv.exists():
            r.digests["metrics.csv"] = _digest(metrics_csv.read_bytes())
        return r


# -- theory-audit ----------------------------------------------------------

class TheoryAudit:
    name = "theory-audit"

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.weights = out / "baseline.bin"
        data = datasets.gen_minidigits(HEADLINE_N, seed)
        plan = TrainPlan("baseline", family=transforms.family_rotation(),
                         epochs=HEADLINE_EPOCHS, lr=LrSchedule(LR),
                         batch_size=BATCH, hidden=HIDDEN, seed=seed)
        start = _now()
        history = training.train(plan, data)
        # the only training this workload does; reported as its train rate
        self.train_s = _now() - start
        self.train_samples = len(data) * plan.epochs
        model.save_weights(history.model, self.weights)
        self.families = {name: transforms.family_by_name(name, 16) for name in FAMILIES}
        for family in self.families.values():
            _warm(family, data.images)

    def seeds(self) -> dict:
        return {"train_data": self.seed, "init": self.seed,
                "theory_data": self.seed + AUDIT_OFFSET,
                "eval_data": self.seed + EVAL_OFFSET}

    def study(self) -> StudyResult:
        r = StudyResult()
        study_start = _now()
        for name in FAMILIES:
            theory_json = self.out / f"theory-{name}.json"
            eval_json = self.out / f"eval-{name}.json"
            r.attempted += 2
            start = _now()
            with contextlib.redirect_stdout(io.StringIO()):
                doc = cli.cmd_theory(str(self.weights),
                                     f"minidigits:{THEORY_N}:{self.seed + AUDIT_OFFSET}",
                                     name, json_path=str(theory_json))
            r.theory_s += _now() - start
            r.theory_samples += THEORY_N
            start = _now()
            with contextlib.redirect_stdout(io.StringIO()):
                ev = cli.cmd_eval(str(self.weights),
                                  f"minidigits:{EVAL_N}:{self.seed + EVAL_OFFSET}",
                                  name, seed=self.seed, json_path=str(eval_json))
            r.eval_s += _now() - start
            r.eval_samples += EVAL_N
            problem = check_theory(f"theory {name}", doc)
            if problem:
                r.fail(problem, invalidates=True)
            problem = check_eval(f"eval {name}", ev["accuracy"], ev["robust_accuracy"],
                                 ev["invariance"], len(self.families[name]))
            if problem:
                r.fail(problem, invalidates=True)
            else:
                r.robust.append(ev["robust_accuracy"])
                r.invariance.append(ev["invariance"])
            r.digests[f"theory-{name}.json"] = _digest(theory_json.read_bytes())
            r.digests[f"eval-{name}.json"] = _digest(eval_json.read_bytes())
        r.wall_s = _now() - study_start
        return r


WORKLOADS = {w.name: w for w in (Headline, CliMixed, TheoryAudit)}
