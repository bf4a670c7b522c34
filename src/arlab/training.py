"""Loss assembly and optimization for the five training modes.

Baseline trains on plain cross-entropy.  The augmented modes pair every
batch with a transformed copy: either the family's designated training
vertex, or a per-sample worst case chosen adversarially each step.  The
vertex is fixed, so :func:`train` transforms the whole training set under it
once per call and each step takes its batch's rows of that copy; worst
cases depend on the current model and are still chosen at every step.
Aligned variants add a weighted alignment penalty between the two logit
batches.  A step's graph holds one node for each forward pass, one for the
penalty and one for the loss, whose backward rule is written out in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .datasets import LabeledImages, batches, one_hot
from .errors import ConfigError, DivergenceError, ShapeError
from .model import Classifier, family_logits, init, logits, logits_array
from .regularizers import AUX_KINDS, ALIGN_KINDS, AuxParams, aux_update, init_aux, penalty
from .tensor import NonFiniteError, _as_array, _log_softmax, softmax_array
from .transforms import TransformFamily, apply_batch

VERTEX_MODES = ("vanilla-aug", "aligned-vertex")
WORST_MODES = ("vanilla-worst", "aligned-worst")
MODES = ("baseline", *VERTEX_MODES, *WORST_MODES)
ALIGNED_MODES = ("aligned-vertex", "aligned-worst")


@dataclass(frozen=True)
class LrSchedule:
    """Step decay: initial * factor^(epoch // every)."""

    initial: float
    decay_factor: float = 1.0
    decay_every: int = 1

    def __post_init__(self):
        if self.initial <= 0 or self.decay_factor <= 0 or self.decay_every < 1:
            raise ConfigError(f"invalid learning-rate schedule {self}")

    def at(self, epoch: int) -> float:
        return self.initial * self.decay_factor ** (epoch // self.decay_every)

    def check(self, epochs: int) -> None:
        """Reject a schedule whose rate overflows or reaches zero within ``epochs``."""
        for epoch in range(0, epochs, self.decay_every):
            try:
                rate = self.at(epoch)
            except OverflowError:
                rate = math.inf
            if not 0.0 < rate < math.inf:
                raise ConfigError(
                    f"learning rate at epoch {epoch} is {rate}, not a finite positive number")


@dataclass(frozen=True)
class TrainPlan:
    """Everything one training run depends on, besides the data itself."""

    mode: str
    family: TransformFamily
    lam: float = 0.0
    align_kind: Optional[str] = None
    epochs: int = 10
    lr: LrSchedule = field(default_factory=lambda: LrSchedule(1e-4))
    batch_size: int = 128
    seed: int = 0
    hidden: tuple = (64,)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch size must be positive")
        self.lr.check(self.epochs)
        if self.align_kind is not None and self.align_kind not in ALIGN_KINDS:
            raise ConfigError(f"unknown alignment kind {self.align_kind!r}")
        if self.lam > 0 and self.mode in ALIGNED_MODES and self.align_kind is None:
            raise ConfigError(f"mode {self.mode!r} with lambda > 0 needs an alignment kind")
        if not self.hidden:
            raise ConfigError("need at least one hidden layer width")

    @property
    def uses_penalty(self) -> bool:
        return self.mode in ALIGNED_MODES and self.lam > 0

    @property
    def needs_aux(self) -> bool:
        return self.uses_penalty and self.align_kind in AUX_KINDS


@dataclass
class RunHistory:
    """Per-epoch aggregates plus the trained model."""

    losses: list
    penalties: list
    model: Classifier


def select_worst(cube: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample index of the family member maximizing cross-entropy.

    ``cube`` is the batch's (t, n, k) logit cube (``model.family_logits``).
    Equivalently the member minimizing the true class's softmax probability.
    Gradient-free; ties resolve to the lowest member index.
    """
    labels = np.asarray(labels)
    probs = softmax_array(cube)
    return np.argmin(probs[:, np.arange(len(labels)), labels], axis=0)


def worst_case_copy(model: Classifier, images: np.ndarray, labels: np.ndarray,
                    family: TransformFamily) -> np.ndarray:
    """Each image under its own worst-case family member (see select_worst)."""
    picks = select_worst(family_logits(model, images, family), labels)
    out = np.empty_like(images)
    for j in np.unique(picks):
        mask = picks == j
        out[mask] = apply_batch(family.members[j], images[mask])
    return out


def _vertex_copy(plan: TrainPlan, images: np.ndarray) -> Optional[np.ndarray]:
    """``images`` under the training vertex in a vertex mode; None otherwise."""
    if plan.mode not in VERTEX_MODES:
        return None
    return apply_batch(plan.family.training_vertex(), images)


def _augmented_copy(plan: TrainPlan, model: Classifier, images: np.ndarray,
                    labels: np.ndarray, vertex: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The batch's paired copy under the plan; None when the mode has none.

    ``vertex`` is the batch's rows of ``_vertex_copy``, so None outside the
    vertex modes.
    """
    if plan.mode in WORST_MODES:
        return worst_case_copy(model, images, labels, plan.family)
    return vertex


def _assemble(plan: TrainPlan, model: Classifier, images: np.ndarray,
              labels: np.ndarray, augmented: Optional[np.ndarray],
              aux: Optional[AuxParams]):
    """Build the step's loss node; returns (loss, penalty value or None).

    ``augmented`` is the batch's paired copy from ``_augmented_copy``.  The
    loss is one node over the logits ``u`` (and ``v`` of the copy) and the
    penalty node: the mean cross-entropy of ``u``, or of ``u`` and ``v``
    averaged, plus lambda times the penalty.  Each cross-entropy is checked
    for finite values before the penalty is built, so a diverging step
    reports divergence rather than an error of the penalty's own.
    """
    b = images.shape[0]
    if b < 1:
        raise ValueError("empty batch")
    y = one_hot(labels, model.num_classes)
    u = logits(model, images)
    pair = [u] if augmented is None else [u, logits(model, augmented)]
    if model.num_classes < 2:
        raise ShapeError(f"logits must be (b, k) with k >= 2, got {u.shape}")
    logps = [_log_softmax(z.data) for z in pair]
    ces = [_as_array(-(y * logp).sum() / b) for logp in logps]
    if augmented is None:
        weight, value = 1.0, ces[0]
    else:
        # the pair's mean halves each cross-entropy's gradient
        weight, value = 0.5, (ces[0] + ces[1]) * 0.5
    pen = None
    if plan.uses_penalty:
        pen = penalty(plan.align_kind, u, pair[1], aux)
        value = value + pen.data * plan.lam

    # value and gradients repeat, in order, the float operations of separate
    # cross-entropy, add and scale nodes (composed_step_loss in
    # tests/oracles.py), so the two match bit for bit
    def rule(g):
        for z, logp in zip(pair, logps):
            z.grad = z.grad + (g * weight) * (np.exp(logp) - y) / b
        if pen is not None:
            pen.grad = pen.grad + g * plan.lam

    parents = pair if pen is None else [*pair, pen]
    return T.Tensor(value, parents, rule), None if pen is None else pen.item()


def step_loss(plan: TrainPlan, model: Classifier,
              batch: tuple, aux: Optional[AuxParams] = None) -> T.Tensor:
    """Scalar loss node for one (images, labels) batch under the plan."""
    images, labels = batch
    augmented = _augmented_copy(plan, model, images, labels, _vertex_copy(plan, images))
    loss, _ = _assemble(plan, model, images, labels, augmented, aux)
    return loss


def _batch_seed(seed: int, epoch: int) -> int:
    # distinct shuffle per epoch, still fully determined by the plan seed
    return seed * 1_000_003 + epoch


def train(plan: TrainPlan, data: LabeledImages) -> RunHistory:
    """SGD over the planned epochs; deterministic for a fixed plan.

    A vertex mode transforms ``data.images`` under the training vertex once,
    holding one extra array of their size for the call, and each step slices
    its batch's rows from that copy.  Worst modes choose and transform their
    copies at every step.
    """
    widths = (data.images.shape[1] * data.images.shape[2],
              *plan.hidden, data.num_classes)
    model = init(widths, plan.seed)
    aux = (init_aux(plan.align_kind, data.num_classes, plan.seed)
           if plan.needs_aux else None)
    vertex = _vertex_copy(plan, data.images)
    losses, penalties = [], []
    # the finite checks, not numpy's warnings, report a diverging step
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(plan.epochs):
            lr = plan.lr.at(epoch)
            step_losses, step_pens = [], []
            for rows in batches(len(data), plan.batch_size, _batch_seed(plan.seed, epoch)):
                images, labels = data.images[rows], data.labels[rows]
                try:
                    # built once per step: the aux update and the loss share it
                    augmented = _augmented_copy(plan, model, images, labels,
                                                None if vertex is None else vertex[rows])
                    if aux is not None:
                        aux_update(plan.align_kind, logits_array(model, images),
                                   logits_array(model, augmented), aux)
                    model.params.zero_grad()
                    loss, pen = _assemble(plan, model, images, labels, augmented, aux)
                    T.backward(loss)
                except NonFiniteError as exc:
                    raise DivergenceError(
                        f"training diverged (non-finite loss) at epoch {epoch}") from exc
                for t in model.params.tensors():
                    t.data = t.data - lr * t.grad
                step_losses.append(loss.item())
                if pen is not None:
                    step_pens.append(pen)
            losses.append(float(np.mean(step_losses)))
            penalties.append(float(np.mean(step_pens)) if step_pens else 0.0)
    return RunHistory(losses, penalties, model)


def default_lambda_grid() -> np.ndarray:
    """Eight weights evenly log-spaced from 1e-7 to 1."""
    return np.logspace(-7, 0, 8)


DEFAULT_SEEDS = (0, 1, 2)

