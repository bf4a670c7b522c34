"""Command-line front end: train sweeps, evaluation, theory checks, reports.

Subcommands:
  train  --config <path>        run every (method, lambda, seed) cell
  eval   --weights --data --family   metrics for one saved model
  theory --weights --data --family   assumption checks and bound terms
  report <run dirs...>          merged comparison table (text, markdown, CSV)

Exit codes: 0 success, 2 config error, 3 artifact/format error, 4 when
every training cell failed.  The ARLAB_OUT environment variable, when
set, becomes the root under which relative output directories land.
Everything except recorded wall-clock durations is reproducible
byte-for-byte from the config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .datasets import LabeledImages, gen_minidigits, load_idx
from .errors import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    FormatError,
    MergeError,
    ShapeError,
)
from .evaluation import (
    METHOD_SPECS,
    MetricsRow,
    check_class_sizes,
    evaluate,
    format_table,
    markdown_table,
    rows_from_csv,
    rows_to_csv,
    summary_csv,
)
from .model import load_weights, save_weights
from .theory import run_all_checks
from .training import DEFAULT_SEEDS, LrSchedule, TrainPlan, default_lambda_grid, train
from .transforms import FAMILY_NAMES, TransformFamily, family_by_name

PLAIN_METHODS = tuple(m for m, (_, kind) in METHOD_SPECS.items() if kind is None)

# fresh-draw offset for the held-out split when the config does not name one
EVAL_SEED_OFFSET = 10_000


class AllCellsFailed(RuntimeError):
    """Every sweep cell failed; maps to exit code 4."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated form of the train-subcommand JSON document."""

    dataset: dict
    eval_dataset: Optional[dict]
    hidden: tuple
    family: str
    methods: tuple
    lambda_grid: tuple
    seeds: tuple
    epochs: int
    lr: LrSchedule
    batch_size: int
    output_dir: str


def _fail(field: str, why: str):
    raise ConfigError(f"{field}: {why}")


def _is_int(x) -> bool:
    """A JSON integer; true and false are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A JSON integer or a finite float; JSON parsing admits NaN and Infinity."""
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _check_dataset(spec, field: str) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        _fail(field, "must be an object with a 'kind' key")
    if spec["kind"] == "minidigits":
        n = spec.get("n")
        if not _is_int(n) or n < 1:
            _fail(f"{field}.n", "must be a positive integer")
        seed = spec.get("seed", 0)
        if not _is_int(seed) or seed < 0:
            _fail(f"{field}.seed", "must be a nonnegative integer")
        size = spec.get("size", 16)
        if not _is_int(size) or size < 8:
            _fail(f"{field}.size", "must be an integer >= 8")
        return {"kind": "minidigits", "n": n, "seed": seed, "size": size}
    if spec["kind"] == "idx":
        for key in ("images", "labels"):
            if not isinstance(spec.get(key), str):
                _fail(f"{field}.{key}", "must be a path string")
        return {"kind": "idx", "images": spec["images"], "labels": spec["labels"]}
    _fail(f"{field}.kind", f"unknown kind {spec['kind']!r}; choose minidigits or idx")


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate the raw JSON document, field by field."""
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    dataset = _check_dataset(doc.get("dataset"), "dataset")
    eval_dataset = (_check_dataset(doc["eval_dataset"], "eval_dataset")
                    if "eval_dataset" in doc else None)

    model = doc.get("model", {})
    if not isinstance(model, dict):
        _fail("model", "must be an object")
    hidden = model.get("hidden", [64])
    if not isinstance(hidden, list) or not hidden or any(
            not _is_int(w) or w < 1 for w in hidden):
        _fail("model.hidden", "must be a nonempty list of positive integers")

    family = doc.get("family")
    if family not in FAMILY_NAMES:
        _fail("family", f"must be one of {FAMILY_NAMES}")

    methods = doc.get("methods")
    if not isinstance(methods, list) or not methods:
        _fail("methods", "must be a nonempty list")
    code_for: dict = {}
    for m in methods:
        if m not in METHOD_SPECS:
            _fail("methods", f"unknown method {m!r}; choose from {sorted(METHOD_SPECS)}")
        if METHOD_SPECS[m] in code_for:
            _fail("methods", f"{code_for[METHOD_SPECS[m]]!r} and {m!r} train the same cells")
        code_for[METHOD_SPECS[m]] = m

    grid = doc.get("lambda_grid")
    if grid is None:
        grid = [float(x) for x in default_lambda_grid()]
    if not isinstance(grid, list) or not grid:
        _fail("lambda_grid", "must be a nonempty list")
    if any(not _is_number(x) or x <= 0 for x in grid):
        _fail("lambda_grid", "values must be positive numbers")
    if len({_cell_name("", float(x), 0) for x in grid}) < len(grid):
        _fail("lambda_grid", "values name the cell directories, so must differ under '%g'")

    seeds = doc.get("seeds", list(DEFAULT_SEEDS))
    if not isinstance(seeds, list) or not seeds or any(
            not _is_int(s) or s < 0 for s in seeds) or len(set(seeds)) < len(seeds):
        _fail("seeds", "must be a nonempty list of distinct nonnegative integers")

    epochs = doc.get("epochs", 10)
    if not _is_int(epochs) or epochs < 1:
        _fail("epochs", "must be a positive integer")

    lr_doc = doc.get("lr", {})
    if not isinstance(lr_doc, dict):
        _fail("lr", "must be an object")
    lr_fields = {"initial": 0.1, "decay_factor": 1.0, "decay_every": 1}
    lr_fields.update(lr_doc)
    for key in ("initial", "decay_factor"):
        if not _is_number(lr_fields[key]):
            _fail(f"lr.{key}", "must be a number")
    if not _is_int(lr_fields["decay_every"]):
        _fail("lr.decay_every", "must be an integer")
    try:
        lr = LrSchedule(float(lr_fields["initial"]), float(lr_fields["decay_factor"]),
                        lr_fields["decay_every"])
        lr.check(epochs)
    except ConfigError as exc:
        _fail("lr", str(exc))

    batch_size = doc.get("batch_size", 128)
    if not _is_int(batch_size) or batch_size < 1:
        _fail("batch_size", "must be a positive integer")

    output_dir = doc.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        _fail("output_dir", "must be a nonempty path string")

    return ExperimentConfig(
        dataset=dataset, eval_dataset=eval_dataset, hidden=tuple(hidden),
        family=family, methods=tuple(methods),
        lambda_grid=tuple(float(x) for x in grid), seeds=tuple(seeds),
        epochs=epochs, lr=lr, batch_size=batch_size, output_dir=output_dir,
    )


def _load_dataset(spec: dict) -> LabeledImages:
    if spec["kind"] == "minidigits":
        return gen_minidigits(spec["n"], spec["seed"], spec["size"])
    return load_idx(spec["images"], spec["labels"])


def _eval_spec(config: ExperimentConfig) -> dict:
    """Held-out split: explicit, or a fresh minidigits draw, or the train set."""
    if config.eval_dataset is not None:
        return config.eval_dataset
    if config.dataset["kind"] == "minidigits":
        return {**config.dataset, "seed": config.dataset["seed"] + EVAL_SEED_OFFSET}
    return config.dataset


def _check_fits(data: LabeledImages, width: int, num_classes: int, source: str) -> None:
    """Data scored against a model must match its input width and its classes."""
    data_width = int(np.prod(data.images.shape[1:]))
    if data_width != width:
        raise ConfigError(
            f"data: images of flattened width {data_width}, but {source} has {width}")
    if data.num_classes != num_classes:
        raise ConfigError(
            f"data: {data.num_classes} classes, but {source} has {num_classes}")


def resolve_output_dir(output_dir: str) -> Path:
    root = os.environ.get("ARLAB_OUT")
    path = Path(output_dir)
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _cell_name(method: str, lam: Optional[float], seed: int) -> str:
    lam_part = "none" if lam is None else f"{lam:g}"
    return f"{method}_{lam_part}_{seed}"


def plan_for_cell(config: ExperimentConfig, method: str, lam: Optional[float],
                  seed: int, family: TransformFamily) -> TrainPlan:
    mode, kind = METHOD_SPECS[method]
    return TrainPlan(
        mode=mode,
        family=family,
        lam=0.0 if lam is None else lam,
        align_kind=kind,
        epochs=config.epochs,
        lr=config.lr,
        batch_size=config.batch_size,
        seed=seed,
        hidden=config.hidden,
    )


def _run_cell(config: ExperimentConfig, family: TransformFamily, data: LabeledImages,
              hold_out: LabeledImages, out_root: str, method: str,
              lam: Optional[float], seed: int) -> dict:
    """Train one cell on the run's shared splits, save its weights, score it.

    Every source of randomness is seeded by the cell, so cells may run in
    any order or process.  A cell that diverges or meets a degenerate
    input is recorded as failed, with its ``error_kind``, and the sweep
    goes on.
    """
    cell_dir = Path(out_root) / _cell_name(method, lam, seed)
    cell_dir.mkdir(parents=True, exist_ok=True)
    plan = plan_for_cell(config, method, lam, seed, family)
    started = time.monotonic()
    record = {"method": method, "lambda": lam, "seed": seed, "mode": plan.mode,
              "align_kind": plan.align_kind, "dir": cell_dir.name}
    try:
        history = train(plan, data)
        save_weights(history.model, cell_dir / "weights.bin")
        report = evaluate(history.model, hold_out, plan.family, seed)
    except (DivergenceError, DegenerateInputError) as exc:
        record["error"] = str(exc)
        record["error_kind"] = ("divergence" if isinstance(exc, DivergenceError)
                                else "degenerate")
    else:
        record["metrics"] = {
            "accuracy": report.accuracy,
            "robustness": report.robust_accuracy,
            "invariance": report.invariance,
        }
        record["final_loss"] = history.losses[-1]
        record["losses"] = history.losses
        record["penalties"] = history.penalties
    record["duration_s"] = time.monotonic() - started
    (cell_dir / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    return record


# (config, family, data, hold_out, out_root), sent to each worker process once
# rather than pickled with every cell
_worker_context: tuple = ()


def _init_worker(*context):
    global _worker_context
    _worker_context = context


def _run_cell_in_worker(cell: tuple) -> dict:
    return _run_cell(*_worker_context, *cell)


def _build_cells(config: ExperimentConfig) -> list:
    cells = []
    for method in config.methods:
        lams = ((None,) if method in PLAIN_METHODS else config.lambda_grid)
        for lam in lams:
            for seed in config.seeds:
                cells.append((method, lam, seed))
    return cells


def select_lambdas(rows: Sequence[MetricsRow]) -> dict:
    """Per method, the grid value with the best mean robustness over seeds.

    This is the only lambda rule.  Ties go to the smaller lambda, whatever
    the order of the grid.
    """
    by_method: dict = {}
    for r in rows:
        if r.lam is not None:
            by_method.setdefault(r.method, {}).setdefault(r.lam, []).append(r.robustness)
    out = {}
    for method, per_lam in by_method.items():
        scored = sorted(((float(np.mean(v)), -lam) for lam, v in per_lam.items()),
                        key=lambda t: (t[0], t[1]))
        out[method] = -scored[-1][1]
    return out


def table_rows(rows: Sequence[MetricsRow], chosen: dict) -> list:
    """Rows restricted, per AR method, to its lambda in ``chosen``."""
    return [r for r in rows
            if r.lam is None or chosen.get(r.method) == r.lam]


def cmd_train(config_path: str, parallel: int = 1,
              seed_override: Optional[int] = None) -> Path:
    if parallel < 1:
        raise ConfigError(f"--parallel: must be at least 1, got {parallel}")
    try:
        doc = json.loads(Path(config_path).read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {config_path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}")
    if seed_override is not None and isinstance(doc, dict):
        doc = {**doc, "seeds": [seed_override]}
    config = parse_config(doc)
    # each split is built once per run and shared by every cell
    data = _load_dataset(config.dataset)
    if len(data) == 0:
        raise DegenerateInputError("data: the train split holds no images")
    eval_spec = _eval_spec(config)
    hold_out = data if eval_spec == config.dataset else _load_dataset(eval_spec)
    # a held-out split no cell could be scored on is the run's fault, not a
    # cell's; every model takes the train split's images and classes
    _check_fits(hold_out, int(np.prod(data.images.shape[1:])), data.num_classes,
                "the train split")
    # a weight file stores only the input width, but a run knows the
    # train split's layout, which the family and every model assume
    if hold_out.images.shape[1:] != data.images.shape[1:]:
        raise ConfigError(
            "data: images of shape {}x{}, but the train split has {}x{}".format(
                *hold_out.images.shape[1:], *data.images.shape[1:]))
    check_class_sizes(hold_out.labels, hold_out.num_classes)
    # every cell trains and scores under this family; one the images cannot
    # hold is found before any cell directory exists
    family = family_by_name(config.family, data.images.shape[1])

    out = resolve_output_dir(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the config in its document's layout, with the held-out split resolved
    snapshot = asdict(config)
    snapshot.update(eval_dataset=eval_spec, model={"hidden": snapshot.pop("hidden")})
    (out / "config.json").write_text(json.dumps(snapshot, indent=2, sort_keys=True))

    cells = _build_cells(config)
    context = (config, family, data, hold_out, str(out))
    started = time.monotonic()
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel, initializer=_init_worker,
                                 initargs=context) as pool:
            records = list(pool.map(_run_cell_in_worker, cells))
    else:
        records = [_run_cell(*context, *cell) for cell in cells]

    rows = []
    for (method, lam, seed), record in zip(cells, records):
        if "error" in record:
            print(f"cell {_cell_name(method, lam, seed)} failed: {record['error']}",
                  file=sys.stderr)
            continue
        m = record["metrics"]
        rows.append(MetricsRow(method, config.family, seed, lam,
                               m["accuracy"], m["robustness"], m["invariance"]))
    if not rows:
        raise AllCellsFailed(f"all {len(cells)} cells failed")

    (out / "metrics.csv").write_text(rows_to_csv(rows))
    chosen = select_lambdas(rows)
    summary = format_table(table_rows(rows, chosen), chosen)
    (out / "summary.txt").write_text(summary)
    (out / "run.json").write_text(json.dumps(
        {"cells": records, "duration_s": time.monotonic() - started,
         "environment": _environment()},
        indent=2, sort_keys=True))
    print(summary, end="")
    print(out)
    return out


def _environment() -> dict:
    """What a run's bits rest on: the interpreter, the libraries and numpy's BLAS."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "arlab": __version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "openblas_configuration": blas.get("openblas configuration")}}


def _parse_data_arg(spec: str) -> LabeledImages:
    """Dataset argument: 'minidigits:<n>:<seed>[:<size>]' or '<images>,<labels>'.

    The fields go through the same checks as a config's dataset object.
    """
    if spec.startswith("minidigits:"):
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(
                f"data: expected minidigits:<n>:<seed>[:<size>], got {spec!r}")
        try:
            fields = [int(x) for x in parts[1:]]
        except ValueError:
            raise ConfigError(f"data: non-integer field in {spec!r}")
        doc = {"kind": "minidigits", **dict(zip(("n", "seed", "size"), fields))}
    elif "," in spec:
        images, labels = spec.split(",", 1)
        doc = {"kind": "idx", "images": images, "labels": labels}
    else:
        raise ConfigError(
            f"data: expected minidigits:<n>:<seed> or <images>,<labels>, got {spec!r}")
    return _load_dataset(_check_dataset(doc, "data"))


def cmd_eval(weights_path: str, data_spec: str, family_name: str,
             seed: int = 0, json_path: Optional[str] = None) -> dict:
    model = load_weights(weights_path)
    data = _parse_data_arg(data_spec)
    _check_fits(data, model.input_width, model.num_classes, "the model")
    family = family_by_name(family_name, data.images.shape[1])
    report = evaluate(model, data, family, seed)
    # the digest, unlike the path, does not depend on where the run lives
    digest = hashlib.sha256(Path(weights_path).read_bytes()).hexdigest()
    doc = {
        "weights_sha256": digest, "family": family.family_name,
        "samples": len(data), "accuracy": report.accuracy,
        "robust_accuracy": report.robust_accuracy,
        "invariance": report.invariance,
        "per_class_invariance": list(report.per_class_invariance),
    }
    print(f"accuracy         {report.accuracy:.4f}")
    print(f"robust accuracy  {report.robust_accuracy:.4f}")
    print(f"invariance       {report.invariance:.4f}")
    _emit_json(doc, json_path)
    return doc


def cmd_theory(weights_path: str, data_spec: str, family_name: str,
               json_path: Optional[str] = None) -> dict:
    model = load_weights(weights_path)
    data = _parse_data_arg(data_spec)
    _check_fits(data, model.input_width, model.num_classes, "the model")
    family = family_by_name(family_name, data.images.shape[1])
    doc = run_all_checks(model, data, family)
    for key in ("A2", "A3", "A6"):
        print(f"{key} fraction      {doc[key]['fraction']:.4f}")
    worst_gap = max(e["gap"] for e in doc["matching_identity"])
    print(f"largest W1 gap   {worst_gap:.6g}")
    print("phi              omitted")
    _emit_json(doc, json_path)
    return doc


def _emit_json(doc: dict, json_path: Optional[str]):
    text = json.dumps(doc, sort_keys=True)
    if json_path:
        Path(json_path).write_text(text)
    print(text)


def _load_run_dir(path: Path):
    try:
        rows = rows_from_csv((path / "metrics.csv").read_text())
        config = json.loads((path / "config.json").read_text())
    except OSError as exc:
        raise FormatError(f"run directory {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise FormatError(f"run directory {path}: bad config.json: {exc}")
    except MergeError as exc:
        raise MergeError(f"run directory {path}: bad metrics.csv: {exc}")
    if not isinstance(config, dict):
        raise FormatError(f"run directory {path}: config.json is not a JSON object")
    return rows, config


def cmd_report(run_dirs: Sequence[str], out_dir: Optional[str] = None):
    """Merge run directories into one comparison table.

    Runs may cover different shifts (each becomes its own block of rows),
    but two runs reporting the same shift must have evaluated on the same
    data to be comparable.
    """
    merged: list = []
    eval_spec_by_shift: dict = {}
    for d in run_dirs:
        rows, config = _load_run_dir(Path(d))
        shift = config.get("family")
        spec = json.dumps(config.get("eval_dataset"), sort_keys=True)
        if shift in eval_spec_by_shift and eval_spec_by_shift[shift] != spec:
            raise MergeError(
                f"run {d}: family {shift!r} already reported against a "
                f"different evaluation dataset")
        eval_spec_by_shift[shift] = spec
        merged.extend(rows)
    if not merged:
        raise MergeError("no metrics rows found in the given directories")

    chosen = select_lambdas(merged)
    shown = table_rows(merged, chosen)
    text = format_table(shown, chosen)
    markdown = markdown_table(shown, chosen)
    csv_text = summary_csv(shown)
    print(text, end="")
    print()
    print(markdown, end="")
    print()
    print(csv_text, end="")
    if out_dir:
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / "report.md").write_text(markdown)
        (target / "report.csv").write_text(csv_text)
    return markdown, csv_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arlab",
        description="alignment-regularized augmentation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the configured method sweep")
    p_train.add_argument("--config", required=True, help="JSON experiment config")
    p_train.add_argument("--parallel", type=int, default=1, metavar="N",
                         help="worker processes for sweep cells (default serial)")
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the config's seed list with one seed")

    p_eval = sub.add_parser("eval", help="metrics for one saved model")
    p_eval.add_argument("--weights", required=True)
    p_eval.add_argument("--data", required=True,
                        help="minidigits:<n>:<seed>[:<size>] or <images>,<labels>")
    p_eval.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p_eval.add_argument("--json", default=None, metavar="PATH",
                        help="also write the JSON report here")

    p_theory = sub.add_parser("theory", help="assumption checks and bound terms")
    p_theory.add_argument("--weights", required=True)
    p_theory.add_argument("--data", required=True,
                          help="minidigits:<n>:<seed>[:<size>] or <images>,<labels>")
    p_theory.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p_theory.add_argument("--json", default=None, metavar="PATH",
                          help="also write the JSON report here")

    p_report = sub.add_parser("report", help="merge runs into a comparison table")
    p_report.add_argument("run_dirs", nargs="+", metavar="DIR")
    p_report.add_argument("--out", default=None, metavar="DIR",
                          help="write report.md and report.csv here")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            cmd_train(args.config, parallel=args.parallel, seed_override=args.seed)
        elif args.command == "eval":
            cmd_eval(args.weights, args.data, args.family, json_path=args.json)
        elif args.command == "theory":
            cmd_theory(args.weights, args.data, args.family, json_path=args.json)
        elif args.command == "report":
            cmd_report(args.run_dirs, out_dir=args.out)
    except (ConfigError, DegenerateInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, MergeError, ShapeError, OSError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 3
    except AllCellsFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
