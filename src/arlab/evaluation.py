"""Evaluation metrics: accuracy, worst-case robustness, and invariance.

Every metric reads one (t, n, k) logit cube, the logits of each of n
samples under each of the family's t members (``model.family_logits``);
member 0 is the identity, so slice 0 holds the plain logits.  ``evaluate``
builds the cube once per (model, data, family).

The invariance test scores how often a sample's transformed copies are its
own nearest neighbors in logit space: per class, a pool holds every
transformed copy of every sample (one block per transform, sample order
preserved inside each block); each original sample retrieves its t nearest
pool members under L1 distance and is scored by the overlap with its own t
copies.  Scores average over samples, then over classes.

Distance ties at the t-th place go to the lowest pool indices, as a stable
sort orders them.  No sort is run: ``np.partition`` gives each query's t-th
smallest distance d_t, every own copy closer than d_t counts, and an own
copy at exactly d_t counts when its rank among the entries at d_t, taken in
pool order, is below the slots the closer entries leave.

Ranks hang on exact ties, so every decision reads the exact distance
``np.abs(q - p).sum()``; scipy's faster L1 kernel (``pairwise_l1``) only
narrows the candidates.  Both sum the same k exactly rounded nonnegative
terms, so they differ by at most about 2(k-1) units of roundoff of the
sum, whatever order each adds in.  Every entry within a relative
``4 * k * eps`` of a query's approximate t-th distance is recomputed
exactly, which covers every entry at or below the exact t-th distance;
the rest are set to +inf, strictly beyond it, so they are neither closer
nor tied.  A query whose approximate t-th distance is not finite (NaN or
infinite logits, or an overflowing bound) recomputes its whole row.
Queries run in chunks whose (rows, m*t) distance array fits a fixed byte
budget, and the exact stage runs over a chunk's candidates in slices whose
(entries, k) arrays fit the same budget, so memory stays bounded for any
class size m, even when every entry is a candidate (constant logits, many
ties, or a non-finite row).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .datasets import LabeledImages
from .errors import DegenerateInputError, MergeError
from .model import Classifier, family_logits
from .transforms import TransformFamily
from .wasserstein import pairwise_l1

@dataclass
class EvalReport:
    """The three headline metrics plus the per-class invariance detail."""

    accuracy: float
    robust_accuracy: float
    invariance: float
    per_class_invariance: tuple
    family: str
    seed: int


def accuracy(z: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of (n, k) logit rows whose argmax matches the label.

    Ties resolve to the lowest class index.
    """
    if len(labels) == 0:
        raise ValueError("cannot evaluate on empty data")
    return float(np.mean(np.argmax(z, axis=1) == labels))


def robust_accuracy(cube: np.ndarray, labels: np.ndarray) -> float:
    """Fraction classified correctly under every member of the family."""
    if len(labels) == 0:
        raise ValueError("cannot evaluate on empty data")
    return float(np.mean(np.all(np.argmax(cube, axis=2) == labels, axis=0)))


def check_class_sizes(labels: np.ndarray, num_classes: int) -> None:
    """The invariance test needs at least two samples in every class."""
    counts = np.bincount(labels, minlength=num_classes)
    short = np.flatnonzero(counts < 2)
    if short.size:
        cls = int(short[0])
        raise DegenerateInputError(
            f"class {cls} has {counts[cls]} sample(s); the invariance test needs >= 2")


# bytes of one chunk's (rows, m*t) distance array, and of one slice of its
# exact stage's (entries, k) arrays; a chunk holds at least one query row,
# so one class never needs its full (m, m*t) array
_CHUNK_BYTES = 256 * 1024


def invariance_per_class(cube: np.ndarray, labels: np.ndarray,
                         num_classes: int) -> np.ndarray:
    """Per-class nearest-neighbor overlap scores, classes in label order."""
    check_class_sizes(labels, num_classes)
    t, _, k = cube.shape
    # bounds the gap between two summation orders of k nonnegative terms
    slack = 1.0 + 4 * k * np.finfo(np.float64).eps
    entries = max(1, _CHUNK_BYTES // (8 * k))
    scores = np.zeros(num_classes)
    for cls in range(num_classes):
        members = np.flatnonzero(labels == cls)
        m = members.size
        query = cube[0, members]
        pool = cube[:, members].reshape(t * m, -1)
        rows = max(1, _CHUNK_BYTES // (8 * t * m))
        overlap = np.empty(m, dtype=np.intp)
        for start in range(0, m, rows):
            q = query[start:start + rows]
            dists = pairwise_l1(q, pool)
            bound = np.partition(dists, t - 1, axis=1)[:, t - 1:t] * slack
            near = np.flatnonzero((dists <= bound) | ~np.isfinite(bound))
            dists.fill(np.inf)
            for part in range(0, near.size, entries):
                r, c = np.divmod(near[part:part + entries], t * m)
                diff = np.take(q, r, axis=0)
                diff -= np.take(pool, c, axis=0)
                dists[r, c] = np.abs(diff, out=diff).sum(axis=1)
            overlap[start:start + rows] = _own_among_nearest(
                dists, np.arange(start, start + len(q)), m, t)
        scores[cls] = np.mean(overlap) / t
    return scores


def _own_among_nearest(dists: np.ndarray, samples: np.ndarray, m: int,
                       t: int) -> np.ndarray:
    """How many of each row's t nearest pool entries are the sample's copies.

    Pool index p holds sample p % m.  Ties at the t-th smallest distance go
    to the lowest pool indices, as a stable sort would order them.
    """
    d_t = np.partition(dists, t - 1, axis=1)[:, t - 1:t]
    before = dists < d_t
    tied = dists == d_t
    gap = np.isnan(d_t[:, 0])
    if gap.any():
        # a sort puts NaN last, so fewer than t distances are numbers here
        # and every NaN ties at the t-th place
        before[gap] = ~np.isnan(dists[gap])
        tied[gap] = np.isnan(dists[gap])
    slots = t - before.sum(axis=1, keepdims=True)
    # rank of each tied entry among the row's tied entries, by pool index
    rank = np.cumsum(tied, axis=1) - tied
    own = samples[:, None] + m * np.arange(t)
    own_before = np.take_along_axis(before, own, axis=1)
    own_tied = np.take_along_axis(tied, own, axis=1)
    own_rank = np.take_along_axis(rank, own, axis=1)
    return own_before.sum(axis=1) + (own_tied & (own_rank < slots)).sum(axis=1)


def evaluate(model: Classifier, data: LabeledImages, family: TransformFamily,
             seed: int) -> EvalReport:
    """All three metrics in one report, read off one logit cube."""
    # checked before the forward pass, which cannot take empty data
    check_class_sizes(data.labels, data.num_classes)
    cube = family_logits(model, data.images, family)
    per_class = invariance_per_class(cube, data.labels, data.num_classes)
    return EvalReport(
        accuracy=accuracy(cube[0], data.labels),
        robust_accuracy=robust_accuracy(cube, data.labels),
        invariance=float(per_class.mean()),
        per_class_invariance=tuple(float(x) for x in per_class),
        family=family.family_name,
        seed=seed,
    )


# method code -> (training mode, alignment kind); None kind means no penalty.
# The key order is the comparison table's column order.
METHOD_SPECS = {
    "B": ("baseline", None),
    "V": ("vanilla-aug", None),
    "L": ("aligned-vertex", "l1"),
    "S": ("aligned-vertex", "sql2"),
    "C": ("aligned-vertex", "cos"),
    "K": ("aligned-vertex", "kl"),
    "W": ("aligned-vertex", "w1-exact"),
    "D": ("aligned-vertex", "disc"),
    "RVA": ("aligned-vertex", "sql2"),
    "RWA": ("aligned-worst", "sql2"),
    "VWA": ("vanilla-worst", None),
}


@dataclass
class MetricsRow:
    """One evaluated run; the unit record of metrics.csv."""

    method: str
    shift: str
    seed: int
    lam: Optional[float]
    accuracy: float
    robustness: float
    invariance: float


CSV_HEADER = ["method", "shift", "seed", "lambda", "accuracy", "robustness", "invariance"]


def rows_to_csv(rows: Sequence[MetricsRow]) -> str:
    """Serialize metric rows; floats use shortest round-trip form."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([
            r.method, r.shift, r.seed,
            "" if r.lam is None else repr(float(r.lam)),
            repr(float(r.accuracy)), repr(float(r.robustness)),
            repr(float(r.invariance)),
        ])
    return buf.getvalue()


def rows_from_csv(text: str) -> list[MetricsRow]:
    """Inverse of rows_to_csv; a table it could not have written raises MergeError.

    So does a method or shift holding a line break, which would split a table line.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if header != CSV_HEADER:
        raise MergeError(f"unexpected metrics header {header}")
    out = []
    try:
        for method, shift, seed, lam, acc, rob, inv in reader:
            if any(c in method + shift for c in "\r\n"):
                raise ValueError(f"line break in method {method!r} or shift {shift!r}")
            out.append(MetricsRow(method, shift, int(seed),
                                  None if lam == "" else float(lam),
                                  float(acc), float(rob), float(inv)))
    except (ValueError, csv.Error) as exc:
        raise MergeError(f"metrics line {reader.line_num}: {exc}") from None
    return out


def _method_columns(rows: Sequence[MetricsRow]) -> list[str]:
    present = {r.method for r in rows}
    cols = [m for m in METHOD_SPECS if m in present]
    cols += sorted(present - set(METHOD_SPECS))
    return cols


def summarize(rows: Sequence[MetricsRow]) -> dict:
    """Mean and population std over seeds for every (shift, method, metric)."""
    groups: dict[tuple, dict[str, list]] = {}
    for r in rows:
        cell = groups.setdefault((r.shift, r.method), {
            "accuracy": [], "robustness": [], "invariance": []})
        cell["accuracy"].append(r.accuracy)
        cell["robustness"].append(r.robustness)
        cell["invariance"].append(r.invariance)
    return {
        key: {metric: (float(np.mean(vals)), float(np.std(vals)))
              for metric, vals in cell.items()}
        for key, cell in groups.items()
    }


METRIC_LABELS = (("accuracy", "Accuracy"), ("robustness", "Robustness"),
                 ("invariance", "Invariance"))


def _table_cells(rows: Sequence[MetricsRow],
                 lambda_by_method: Optional[dict]) -> list[list[str]]:
    """The comparison table's cells: a header line, then three metric lines per shift."""
    if not rows:
        raise MergeError("no rows to tabulate")
    summary = summarize(rows)
    methods = _method_columns(rows)
    shifts = sorted({r.shift for r in rows})

    def header_label(m):
        if lambda_by_method and lambda_by_method.get(m) is not None:
            return f"{m} (lam={lambda_by_method[m]:g})"
        return m

    lines = [["shift", "metric"] + [header_label(m) for m in methods]]
    for shift in shifts:
        for metric, label in METRIC_LABELS:
            line = [shift, label]
            for m in methods:
                cell = summary.get((shift, m))
                if cell is None:
                    line.append("-")
                else:
                    mean, std = cell[metric]
                    line.append(f"{100 * mean:.1f}+-{100 * std:.1f}")
            lines.append(line)
    return lines


def format_table(rows: Sequence[MetricsRow],
                 lambda_by_method: Optional[dict] = None) -> str:
    """Aligned text table: three metric rows per shift, methods as columns.

    Values are percentages, mean +- std over seeds.  AR methods can carry
    their selected lambda in the column header.
    """
    cells = _table_cells(rows, lambda_by_method)
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def markdown_table(rows: Sequence[MetricsRow], lambda_by_method: dict) -> str:
    """Pipe-table rendering of the cells that format_table aligns, ``|`` escaped."""
    cells = _table_cells(rows, lambda_by_method)
    lines = ["| " + " | ".join(c.replace("|", r"\|") for c in line) + " |" for line in cells]
    lines.insert(1, "|" + "|".join([" --- "] * len(cells[0])) + "|")
    return "\n".join(lines) + "\n"


def summary_csv(rows: Sequence[MetricsRow]) -> str:
    """Long-form CSV of the summarized table."""
    summary = summarize(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["shift", "metric", "method", "mean", "std"])
    for shift in sorted({k[0] for k in summary}):
        for metric, _ in METRIC_LABELS:
            for method in _method_columns(
                    [r for r in rows if r.shift == shift]):
                mean, std = summary[shift, method][metric]
                writer.writerow([shift, metric, method, repr(mean), repr(std)])
    return buf.getvalue()
