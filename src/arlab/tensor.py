"""Trainable parameters and the closed-form backward pass of a training step.

A :class:`Tensor` is one trainable parameter: a float64 array and the
gradient of the last :func:`backward` call that reached it.  A training
step is one formula, so no graph is built: the forward pass
(``model.logits``) keeps what its gradient needs in a record, the step
(``training.step_loss``) writes out the gradient of its loss with respect
to each batch's logits, and :func:`backward` carries each logit gradient
back through the layers into the parameter gradients.
Graph-free numpy helpers that share the step's numerics, such as
:func:`softmax_array`, live here too.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class NonFiniteError(ValueError):
    """An operation produced NaN or infinity."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("tensor contains NaN or Inf")
    return arr


class Tensor:
    """A trainable float64 array plus its gradient.

    ``data`` holds the value.  ``grad`` is None until a :func:`backward`
    call sets it to the gradient of that call's loss, of ``data``'s shape.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = _as_array(data)
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array."""
    return np.exp(_log_softmax(z))


def backward(passes: Iterable[tuple]) -> None:
    """Set each parameter's ``grad`` to the loss's gradient over the passes.

    ``passes`` holds (forward record, logit gradient) pairs: a record from
    ``model.logits`` and the gradient of the loss with respect to its
    logits.  Each pass runs back through every layer in closed form, the
    affine map and then the ReLU mask of the layer below, in the order
    given.  The first pass writes each ``grad`` and later passes add to
    it, so nothing carries over from an earlier call.
    """
    for n, (forward, g) in enumerate(passes):
        for i in reversed(range(len(forward.layers))):
            w, b = forward.layers[i]
            gb, gw = g.sum(axis=0), forward.inputs[i].T @ g
            b.grad, w.grad = (b.grad + gb, w.grad + gw) if n else (gb, gw)
            if i > 0:
                g = (g @ w.data.T) * forward.masks[i - 1]

