"""Trainable parameters and the closed-form backward pass of a training step.

A :class:`Tensor` is one trainable parameter: a float64 array and the
gradient accumulated into it.  A training step is one formula, so no graph
is built: the forward pass (``model.logits``) keeps what its gradient needs
in a record, the step (``training.step_loss``) writes out the gradient of
its loss with respect to each batch's logits, and :func:`backward` carries
each logit gradient back through the layers into the parameter gradients.
Graph-free numpy helpers that share the step's numerics, such as
:func:`softmax_array`, live here too.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class NonFiniteError(ValueError):
    """An operation produced NaN or infinity."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("tensor contains NaN or Inf")
    return arr


class Tensor:
    """A trainable float64 array plus its accumulated gradient.

    ``data`` holds the value, ``grad`` the gradient of the same shape.
    Gradients accumulate across :func:`backward` calls until explicitly
    zeroed.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = _as_array(data)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array."""
    return np.exp(_log_softmax(z))


def backward(passes: Iterable[tuple]) -> None:
    """Add each pass's parameter gradients to the parameters' ``grad``.

    ``passes`` holds (forward record, logit gradient) pairs: a record from
    ``model.logits`` and the gradient of the loss with respect to its
    logits.  Each pass runs back through every layer in closed form, the
    affine map and then the ReLU mask of the layer below, in the order
    given.
    """
    for forward, g in passes:
        for i in reversed(range(len(forward.layers))):
            w, b = forward.layers[i]
            b.grad = b.grad + g.sum(axis=0)
            w.grad = w.grad + forward.inputs[i].T @ g
            if i > 0:
                g = (g @ w.data.T) * forward.masks[i - 1]


class ParamSet:
    """Named, insertion-ordered collection of trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()
