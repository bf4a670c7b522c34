"""Numerical checks of the analytical claims behind the training modes.

Each checker measures, on a concrete model and dataset, how often an
assumption of the robust-error analysis holds: efficiency of the
transformed representations (A2), extremity of the designated vertices
(A3), and the cross-entropy/classification-error link (A6).  A further
check verifies the matching identity that collapses the empirical
Wasserstein distance to a per-pair L1 sum whenever efficiency holds, and
``bound_terms`` evaluates every computable term of the two robust-error
bounds.  The capacity term phi shared by both bounds is never evaluated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .datasets import LabeledImages
from .evaluation import accuracy, robust_accuracy
from .model import Classifier, logits_array, predict_classes
from .tensor import softmax_array
from .training import worst_case_copy
from .transforms import TransformFamily, apply_batch
from .wasserstein import pairwise_l1, w1_exact

WITNESS_CAP = 10
PHI_NOTE = "capacity term phi(|Theta|, n, delta) omitted; not computable here"
A5_NOTE = "assumed, per adversarial-training practice; equates expected and empirical worst-case picks"


@dataclass
class AssumptionReport:
    """Satisfaction fraction plus a capped list of violating witnesses."""

    assumption: str
    fraction: float
    witnesses: list
    detail: dict = field(default_factory=dict)
    pairwise_matrix: Optional[list] = None

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction {self.fraction} outside [0, 1]")
        if (self.fraction == 1.0) != (len(self.witnesses) == 0):
            raise ValueError("fraction 1.0 must coincide with an empty witness list")

    def to_json(self) -> dict:
        out = {"assumption": self.assumption, "fraction": self.fraction,
               "witnesses": self.witnesses}
        if self.detail:
            out["detail"] = self.detail
        if self.pairwise_matrix is not None:
            out["pairwise_matrix"] = self.pairwise_matrix
        return out


def _efficiency_by_member(model: Classifier, data: LabeledImages,
                          family: TransformFamily):
    """Per-member satisfied masks for the efficiency condition.

    A pair (x, a) is efficient when f(a(x)) is at least as close, in L1, to
    f(x) as to the representation of any other sample.
    """
    z = logits_array(model, data.images)
    masks = []
    for t in family:
        za = logits_array(model, apply_batch(t, data.images))
        dists = pairwise_l1(za, z)
        own = np.diag(dists).copy()
        np.fill_diagonal(dists, np.inf)
        masks.append(own <= dists.min(axis=1))
    return masks


def check_efficiency(model: Classifier, data: LabeledImages,
                     family: TransformFamily) -> AssumptionReport:
    """Fraction of (sample, transform) pairs meeting the efficiency condition."""
    masks = _efficiency_by_member(model, data, family)
    witnesses = []
    for t, mask in zip(family, masks):
        for i in np.flatnonzero(~mask):
            if len(witnesses) < WITNESS_CAP:
                witnesses.append({"transform": t.name(), "sample": int(i)})
    fraction = float(np.mean(np.concatenate(masks)))
    per_member = {t.name(): float(m.mean()) for t, m in zip(family, masks)}
    return AssumptionReport("A2", fraction, witnesses,
                            detail={"per_transform": per_member})


@dataclass
class PropA2Entry:
    """Both sides of the matching identity for one family member."""

    transform: str
    w1: float
    l1_sum: float
    gap: float
    efficiency_fraction: float
    holds: bool


def check_prop_a2(model: Classifier, data: LabeledImages,
                  family: TransformFamily, tol: float = 1e-9) -> list:
    """Compare exact W1 against the per-pair L1 sum for every member.

    Whenever the efficiency condition holds for every sample under a
    member, the identity pairing is optimal and the two sides must agree;
    that consistency is asserted, since the matching itself guarantees it.
    The gap is nonnegative in every case because the identity pairing is
    one feasible matching.
    """
    z = logits_array(model, data.images)
    masks = _efficiency_by_member(model, data, family)
    entries = []
    for t, mask in zip(family, masks):
        za = logits_array(model, apply_batch(t, data.images))
        lhs = w1_exact(z, za)
        rhs = float(np.abs(z - za).sum())
        gap = rhs - lhs
        frac = float(mask.mean())
        holds = gap <= tol
        if frac == 1.0 and not holds:
            raise AssertionError(
                f"matching identity violated under full efficiency for {t.name()}")
        entries.append(PropA2Entry(t.name(), lhs, rhs, gap, frac, holds))
    return entries


def check_vertices(model: Classifier, data: LabeledImages,
                   family: TransformFamily) -> AssumptionReport:
    """Does the designated vertex pair attain the largest pairwise W1 gap?"""
    if len(family) < 2:
        raise ValueError("vertex check needs at least two family members")
    sets = [logits_array(model, apply_batch(t, data.images)) for t in family]
    n = len(sets)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = w1_exact(sets[i], sets[j])
    best = float(matrix.max())
    arg = np.unravel_index(int(matrix.argmax()), matrix.shape)
    argmax_pair = sorted(int(x) for x in arg)
    designated = sorted((family.vertex_plus, family.vertex_minus))
    designated_value = float(matrix[designated[0], designated[1]])
    attained = designated_value >= best - 1e-9
    detail = {
        "designated_pair": designated,
        "designated_w1": designated_value,
        "argmax_pair": argmax_pair,
        "max_w1": best,
    }
    witnesses = [] if attained else [{"argmax_pair": argmax_pair, "w1": best}]
    return AssumptionReport("A3", 1.0 if attained else 0.0, witnesses,
                            detail=detail, pairwise_matrix=matrix.tolist())


def check_a6(model: Classifier, data: LabeledImages,
             family: TransformFamily) -> AssumptionReport:
    """Check the two inequalities linking confidence and prediction flips.

    The first demands that whenever some transform flips the prediction,
    the true-class confidence of the original exceeds the worst transformed
    confidence by a factor of at least e.  The second demands a true-class
    output magnitude of at least one at the worst transform; it is read on
    the logits, since softmax outputs can never reach magnitude one, and
    both readings are reported.
    """
    n = len(data)
    idx = np.arange(n)
    z_orig = logits_array(model, data.images)
    conf_orig = softmax_array(z_orig)[idx, data.labels]
    pred_orig = predict_classes(model, data.images)
    conf = np.empty((len(family), n))
    true_logit = np.empty((len(family), n))
    correct = np.empty((len(family), n), dtype=bool)
    preds = np.empty((len(family), n), dtype=np.int64)
    for j, t in enumerate(family):
        za = logits_array(model, apply_batch(t, data.images))
        conf[j] = softmax_array(za)[idx, data.labels]
        true_logit[j] = za[idx, data.labels]
        preds[j] = za.argmax(axis=1)
        correct[j] = preds[j] == data.labels
    # the worst copy by classification error: the first misclassified
    # member, or the first member when every copy stays correct
    worst_idx = np.argmin(correct, axis=0)
    flips = preds[worst_idx, idx] != pred_orig
    ratio = conf_orig / conf.min(axis=0)
    conf_drop = ratio >= np.exp(flips.astype(np.float64)) - 1e-12
    magnitude_logit = np.abs(true_logit.min(axis=0)) >= 1.0
    magnitude_softmax = np.abs(conf.min(axis=0)) >= 1.0
    satisfied = conf_drop & magnitude_logit
    witnesses = [{"sample": int(i), "conf_drop": bool(conf_drop[i]),
                  "magnitude": bool(magnitude_logit[i])}
                 for i in np.flatnonzero(~satisfied)[:WITNESS_CAP]]
    detail = {
        "conf_drop_fraction": float(conf_drop.mean()),
        "magnitude_logit_fraction": float(magnitude_logit.mean()),
        "magnitude_softmax_fraction": float(magnitude_softmax.mean()),
    }
    return AssumptionReport("A6", float(satisfied.mean()), witnesses, detail=detail)


@dataclass
class BoundReport:
    """Every computable term of the two robust-error bounds."""

    mode: str
    robust_error: float
    empirical_risk: float
    vertex_risk_average: float
    alignment_sum: float
    alignment_mean: float
    phi_note: str = PHI_NOTE

    def __post_init__(self):
        terms = (self.robust_error, self.empirical_risk,
                 self.vertex_risk_average, self.alignment_sum, self.alignment_mean)
        if any(t < 0 for t in terms):
            raise ValueError("bound terms must be nonnegative")

    def to_json(self) -> dict:
        return asdict(self)


def bound_terms(model: Classifier, train_data: LabeledImages,
                eval_data: LabeledImages, family: TransformFamily,
                mode: str) -> BoundReport:
    """Evaluate the bound's left side and its computable right-side terms.

    Worst-case mode pairs each training sample with its adversarially
    chosen copy; vertex mode pairs the two designated extremes.  Alignment
    is reported both as the raw sum and as a per-sample mean, since the
    analysis leaves the normalization open.
    """
    if mode not in ("worst-case", "vertex"):
        raise ValueError(f"mode must be 'worst-case' or 'vertex', got {mode!r}")
    robust_err = 1.0 - robust_accuracy(model, eval_data, family)
    empirical_risk = 1.0 - accuracy(model, train_data)
    plus = family.members[family.vertex_plus]
    minus = family.members[family.vertex_minus]
    risk_plus = 1.0 - accuracy(model, LabeledImages(
        apply_batch(plus, train_data.images), train_data.labels, train_data.num_classes))
    risk_minus = 1.0 - accuracy(model, LabeledImages(
        apply_batch(minus, train_data.images), train_data.labels, train_data.num_classes))
    vertex_avg = 0.5 * (risk_plus + risk_minus)
    if mode == "worst-case":
        u = logits_array(model, train_data.images)
        v = logits_array(model, worst_case_copy(
            model, train_data.images, train_data.labels, family))
    else:
        u = logits_array(model, apply_batch(plus, train_data.images))
        v = logits_array(model, apply_batch(minus, train_data.images))
    per_sample = np.abs(u - v).sum(axis=1)
    return BoundReport(
        mode=mode,
        robust_error=robust_err,
        empirical_risk=empirical_risk,
        vertex_risk_average=vertex_avg,
        alignment_sum=float(per_sample.sum()),
        alignment_mean=float(per_sample.mean()),
    )


def run_all_checks(model: Classifier, data: LabeledImages,
                   family: TransformFamily) -> dict:
    """Every checker on one (model, data, family) triple, as one JSON tree."""
    return {
        "family": family.family_name,
        "samples": len(data),
        "A2": check_efficiency(model, data, family).to_json(),
        "A3": check_vertices(model, data, family).to_json(),
        "A5": {"assumption": "A5", "note": A5_NOTE},
        "A6": check_a6(model, data, family).to_json(),
        "matching_identity": [asdict(e) for e in check_prop_a2(model, data, family)],
        "bounds": {
            "worst-case": bound_terms(model, data, data, family, "worst-case").to_json(),
            "vertex": bound_terms(model, data, data, family, "vertex").to_json(),
        },
    }
