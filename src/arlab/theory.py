"""Numerical checks of the analytical claims behind the training modes.

Each checker measures, on a concrete model and dataset, how often an
assumption of the robust-error analysis holds: efficiency of the
transformed representations (A2), extremity of the designated vertices
(A3), and the cross-entropy/classification-error link (A6).  A further
check verifies the matching identity that collapses the empirical
Wasserstein distance to a per-pair L1 sum whenever efficiency holds, and
``bound_terms`` evaluates every computable term of the two robust-error
bounds.  The capacity term phi shared by both bounds is never evaluated.

Every checker reads one (t, n, k) logit cube, the logits of each of n
samples under each of the family's t members (``model.family_logits``);
member 0 is the identity, so slice 0 holds the plain logits.  The vertex
check and the matching identity also read one (t, t) matrix of exact W1
distances between members (``wasserstein.w1_matrix``), which solves each
unordered pair once: ``check_vertices(w1, family)`` takes its extremes
from it and ``check_prop_a2(cube, w1, family, tol)`` its W1 side from
row 0.  ``run_all_checks`` builds the cube and the matrix once per
(model, data, family).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .datasets import LabeledImages
from .errors import DegenerateInputError, SizeLimitError
from .evaluation import accuracy, robust_accuracy
from .model import Classifier, family_logits
from .tensor import _log_softmax
from .training import select_worst
from .transforms import TransformFamily
from .wasserstein import pairwise_l1, w1_matrix

WITNESS_CAP = 10
# the efficiency check and every exact W1 solve build an n x n float64 cost
# matrix, 200 MB at this size, and the Hungarian solve is cubic in n
_MAX_SAMPLES = 5000
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


def _efficient(z: np.ndarray, za: np.ndarray) -> np.ndarray:
    """Per-sample mask of the efficiency condition for one member.

    A pair (x, a) is efficient when f(a(x)) is at least as close, in L1, to
    f(x) as to the representation of any other sample.
    """
    dists = pairwise_l1(za, z)
    own = np.diag(dists).copy()
    np.fill_diagonal(dists, np.inf)
    return own <= dists.min(axis=1)


def check_efficiency(cube: np.ndarray, family: TransformFamily) -> AssumptionReport:
    """Fraction of (sample, transform) pairs meeting the efficiency condition."""
    masks = [_efficient(cube[0], za) for za in cube]
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


def check_prop_a2(cube: np.ndarray, w1: np.ndarray, family: TransformFamily,
                  tol: float = 1e-9) -> list:
    """Compare exact W1 against the per-pair L1 sum for every member.

    The W1 side of member j is ``w1[0, j]``, its distance to the identity.
    Whenever the efficiency condition holds for every sample under a
    member, the identity pairing is optimal and the two sides must agree;
    that consistency is asserted, since the matching itself guarantees it.
    The gap is nonnegative in every case because the identity pairing is
    one feasible matching.
    """
    z = cube[0]
    entries = []
    for t, za, lhs in zip(family, cube, w1[0].tolist()):
        rhs = float(np.abs(z - za).sum())
        gap = rhs - lhs
        frac = float(_efficient(z, za).mean())
        holds = gap <= tol
        if frac == 1.0 and not holds:
            raise AssertionError(
                f"matching identity violated under full efficiency for {t.name()}")
        entries.append(PropA2Entry(t.name(), lhs, rhs, gap, frac, holds))
    return entries


def check_vertices(w1: np.ndarray, family: TransformFamily) -> AssumptionReport:
    """Does the designated vertex pair attain the largest pairwise W1 gap?"""
    if len(family) < 2:
        raise ValueError("vertex check needs at least two family members")
    best = float(w1.max())
    arg = np.unravel_index(int(w1.argmax()), w1.shape)
    argmax_pair = sorted(int(x) for x in arg)
    designated = sorted((family.vertex_plus, family.vertex_minus))
    designated_value = float(w1[designated[0], designated[1]])
    attained = designated_value >= best - 1e-9
    detail = {
        "designated_pair": designated,
        "designated_w1": designated_value,
        "argmax_pair": argmax_pair,
        "max_w1": best,
    }
    witnesses = [] if attained else [{"argmax_pair": argmax_pair, "w1": best}]
    return AssumptionReport("A3", 1.0 if attained else 0.0, witnesses,
                            detail=detail, pairwise_matrix=w1.tolist())


def check_a6(cube: np.ndarray, labels: np.ndarray) -> AssumptionReport:
    """Check the two inequalities linking confidence and prediction flips.

    The first demands that whenever some transform flips the prediction,
    the true-class confidence of the original exceeds the worst transformed
    confidence by a factor of at least e.  The second demands a true-class
    output magnitude of at least one at the worst transform; it is read on
    the logits, since softmax outputs can never reach magnitude one, and
    both readings are reported.
    """
    idx = np.arange(cube.shape[1])
    logc = _log_softmax(cube)[:, idx, labels]
    logc_orig = logc[0]
    true_logit = cube[:, idx, labels]
    preds = cube.argmax(axis=2)
    # the worst copy by classification error: the first misclassified
    # member, or the first member when every copy stays correct
    worst_idx = np.argmin(preds == labels, axis=0)
    flips = preds[worst_idx, idx] != preds[0]
    # the confidence ratio is compared in log space, where a confidence
    # that underflows to 0 stays finite
    logc_worst = logc.min(axis=0)
    conf_drop = logc_orig - logc_worst >= flips - 1e-12
    magnitude_logit = np.abs(true_logit.min(axis=0)) >= 1.0
    magnitude_softmax = np.exp(logc_worst) >= 1.0
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


def bound_terms(train_cube: np.ndarray, train_labels: np.ndarray,
                eval_cube: np.ndarray, eval_labels: np.ndarray,
                family: TransformFamily, mode: str) -> BoundReport:
    """Evaluate the bound's left side and its computable right-side terms.

    The empirical terms read the training cube and the robust error reads
    the evaluation cube.  Worst-case mode pairs each training sample with
    its adversarially chosen copy (``training.select_worst``); vertex mode
    pairs the two designated extremes.  Alignment is reported both as the
    raw sum and as a per-sample mean, since the analysis leaves the
    normalization open.
    """
    if mode not in ("worst-case", "vertex"):
        raise ValueError(f"mode must be 'worst-case' or 'vertex', got {mode!r}")
    plus = train_cube[family.vertex_plus]
    minus = train_cube[family.vertex_minus]
    risk_plus = 1.0 - accuracy(plus, train_labels)
    risk_minus = 1.0 - accuracy(minus, train_labels)
    if mode == "worst-case":
        picks = select_worst(train_cube, train_labels)
        u = train_cube[0]
        v = train_cube[picks, np.arange(len(train_labels))]
    else:
        u, v = plus, minus
    per_sample = np.abs(u - v).sum(axis=1)
    return BoundReport(
        mode=mode,
        robust_error=1.0 - robust_accuracy(eval_cube, eval_labels),
        empirical_risk=1.0 - accuracy(train_cube[0], train_labels),
        vertex_risk_average=0.5 * (risk_plus + risk_minus),
        alignment_sum=float(per_sample.sum()),
        alignment_mean=float(per_sample.mean()),
    )


def run_all_checks(model: Classifier, data: LabeledImages,
                   family: TransformFamily) -> dict:
    """Every checker on one (model, data, family) triple, as one JSON tree.

    Data above 5000 samples is refused with a ``SizeLimitError`` before any
    logit is computed.
    """
    if len(data) == 0:
        raise DegenerateInputError("the theory checks need at least one sample")
    if len(data) > _MAX_SAMPLES:
        raise SizeLimitError(
            f"data: {len(data)} samples, but the theory checks take at most {_MAX_SAMPLES}")
    cube = family_logits(model, data.images, family)
    w1 = w1_matrix(cube)
    labels = data.labels
    return {
        "family": family.family_name,
        "samples": len(data),
        "A2": check_efficiency(cube, family).to_json(),
        "A3": check_vertices(w1, family).to_json(),
        "A5": {"assumption": "A5", "note": A5_NOTE},
        "A6": check_a6(cube, labels).to_json(),
        "matching_identity": [asdict(e) for e in check_prop_a2(cube, w1, family)],
        "bounds": {mode: bound_terms(cube, labels, cube, labels, family, mode).to_json()
                   for mode in ("worst-case", "vertex")},
    }
