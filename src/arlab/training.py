"""Loss assembly and optimization for the five training modes.

Baseline trains on plain cross-entropy.  The augmented modes pair every
batch with a transformed copy: either the family's designated training
vertex, or a per-sample worst case chosen adversarially each step.  The
vertex is fixed, so :func:`train` transforms the whole training set under it
once per call and each step takes its batch's rows of that copy; worst
cases depend on the current model and are still chosen at every step.
Aligned variants add a weighted alignment penalty between the two logit
batches.  A step runs each transform and forward pass once (:func:`_forwards`)
and builds no graph: its loss and the loss's gradient with respect to each
logit batch are written out in closed form, and ``tensor.backward`` carries
those gradients into the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import tensor as T
from .datasets import LabeledImages, batches, one_hot
from .errors import ConfigError, DegenerateInputError, DivergenceError, ShapeError
from .model import Classifier, init, logits, logits_array
from .regularizers import ALIGN_KINDS, AuxParams, aux_update, init_aux, penalty
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
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be a finite nonnegative number, got {self.lam}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch size must be positive")
        self.lr.check(self.epochs)
        if self.align_kind is not None and self.align_kind not in ALIGN_KINDS:
            raise ConfigError(f"unknown alignment kind {self.align_kind!r}")
        if self.lam > 0 and self.mode in ALIGNED_MODES and self.align_kind is None:
            raise ConfigError(f"mode {self.mode!r} with lambda > 0 needs an alignment kind")
        if self.mode not in ALIGNED_MODES and (self.lam > 0 or self.align_kind is not None):
            raise ConfigError(f"mode {self.mode!r} takes no lambda or alignment kind")
        if not self.hidden:
            raise ConfigError("need at least one hidden layer width")

    @property
    def uses_penalty(self) -> bool:
        return self.lam > 0

    @property
    def needs_aux(self) -> bool:
        return self.uses_penalty and self.align_kind == "disc"


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


def _vertex_copy(plan: TrainPlan, images: np.ndarray) -> Optional[np.ndarray]:
    """``images`` under the training vertex in a vertex mode; None otherwise."""
    if plan.mode not in VERTEX_MODES:
        return None
    return apply_batch(plan.family.training_vertex(), images)


def _forwards(plan: TrainPlan, model: Classifier, images: np.ndarray,
              labels: np.ndarray, vertex: Optional[np.ndarray]) -> list:
    """The step's forward records: ``[u]``, or ``[u, v]`` of the paired copy.

    ``u`` is the batch's own pass.  ``vertex`` is the batch's rows of
    ``_vertex_copy``, so None outside the vertex modes.  A worst mode
    transforms the batch under members 1..t-1 only: member 0 is the
    identity, so ``u``'s logits are slice 0 of the (t, b, k) cube that
    :func:`select_worst` reads, and each image's copy is taken from the
    member copy that picked it.
    """
    u = logits(model, images)
    if plan.mode in WORST_MODES:
        copies = [apply_batch(a, images) for a in plan.family.members[1:]]
        cube = np.stack([u.logits, *(logits_array(model, c) for c in copies)])
        picks = select_worst(cube, labels)
        vertex = np.stack([images, *copies])[picks, np.arange(len(picks))]
    return [u] if vertex is None else [u, logits(model, vertex)]


class Step(NamedTuple):
    """One training step's loss, ready for ``tensor.backward``.

    ``penalty`` is the alignment penalty's value, None when the plan has
    none; ``passes`` pairs each forward record with the loss's gradient
    with respect to its logits.
    """

    value: float
    penalty: Optional[float]
    passes: list


def _assemble(plan: TrainPlan, pair: list, labels: np.ndarray,
              aux: Optional[AuxParams]) -> Step:
    """The step's loss and its logit gradients.

    ``pair`` is the step's forward records from :func:`_forwards`.  The
    loss is the mean cross-entropy of the logits ``u``, or of ``u`` and
    ``v`` of the copy averaged, plus lambda times the penalty.  Each
    cross-entropy is checked for finite values before the penalty is
    computed, so a diverging step reports divergence rather than an error
    of the penalty's own.
    """
    b, k = pair[0].logits.shape
    if b < 1:
        raise ValueError("empty batch")
    y = one_hot(labels, k)
    if k < 2:
        raise ShapeError(f"logits must be (b, k) with k >= 2, got {(b, k)}")
    logps = [_log_softmax(z.logits) for z in pair]
    ces = [_as_array(-(y * logp).sum() / b) for logp in logps]
    if len(pair) == 1:
        weight, value = 1.0, ces[0]
    else:
        # the pair's mean halves each cross-entropy's gradient
        weight, value = 0.5, (ces[0] + ces[1]) * 0.5
    # value and gradients repeat, in order, the float operations of the
    # graph that tests/oracles.py builds from separate cross-entropy, add
    # and scale nodes (composed_step_loss), so the two match bit for bit:
    # each logit gradient is the cross-entropy's term plus the penalty's
    grads = [weight * (np.exp(logp) - y) / b for logp in logps]
    pen = None
    if plan.uses_penalty:
        pen, gu, gv = penalty(plan.align_kind, pair[0].logits, pair[1].logits, aux, plan.lam)
        value = value + pen * plan.lam
        grads = [grads[0] + gu, grads[1] + gv]
    return Step(float(_as_array(value)), pen, list(zip(pair, grads)))


def step_loss(plan: TrainPlan, model: Classifier,
              batch: tuple, aux: Optional[AuxParams] = None) -> Step:
    """The loss of one (images, labels) batch under the plan."""
    images, labels = batch
    pair = _forwards(plan, model, images, labels, _vertex_copy(plan, images))
    return _assemble(plan, pair, labels, aux)


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
    if len(data) == 0:
        raise DegenerateInputError("training needs at least one image")
    widths = (data.images.shape[1] * data.images.shape[2],
              *plan.hidden, data.num_classes)
    model = init(widths, plan.seed)
    aux = init_aux(data.num_classes, plan.seed) if plan.needs_aux else None
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
                    pair = _forwards(plan, model, images, labels,
                                     None if vertex is None else vertex[rows])
                    if aux is not None:
                        aux_update(pair[0].logits, pair[1].logits, aux)
                    step = _assemble(plan, pair, labels, aux)
                    T.backward(step.passes)
                except NonFiniteError as exc:
                    raise DivergenceError(
                        f"training diverged (non-finite loss) at epoch {epoch}") from exc
                for layer in model.layers:
                    for t in layer:
                        t.data = t.data - lr * t.grad
                step_losses.append(step.value)
                if step.penalty is not None:
                    step_pens.append(step.penalty)
            losses.append(float(np.mean(step_losses)))
            penalties.append(float(np.mean(step_pens)) if step_pens else 0.0)
    return RunHistory(losses, penalties, model)


def default_lambda_grid() -> np.ndarray:
    """Eight weights evenly log-spaced from 1e-7 to 1."""
    return np.logspace(-7, 0, 8)


DEFAULT_SEEDS = (0, 1, 2)

