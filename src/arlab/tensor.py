"""Dense float64 tensors with reverse-mode automatic differentiation.

A graph node holds a value, its parents and a closed-form backward rule.
The model's forward pass (``model.logits``), each alignment penalty
(``regularizers.penalty``) and a training step's loss
(``training.step_loss``) are one node each, so this module holds no
generic operations: only the node type, :func:`backward` and the parameter
collection.  Calling :func:`backward` on a scalar loss walks the graph in
reverse topological order and accumulates gradients into the leaves.
Graph-free numpy helpers that share its numerics, such as
:func:`softmax_array`, live here too.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ShapeError


class NonFiniteError(ValueError):
    """An operation produced NaN or infinity."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("tensor contains NaN or Inf")
    return arr


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation.

    ``data`` holds the value, ``grad`` the accumulated gradient of the same
    shape.  Nodes created by operations carry references to their parents and
    a local backward rule; nodes created directly (parameters, inputs) are
    leaves.  Leaf gradients accumulate across :func:`backward` calls until
    explicitly zeroed, which lets several losses share one subgraph.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents: Sequence["Tensor"] = (),
                 backward_rule: Optional[Callable[[np.ndarray], None]] = None):
        self.data = _as_array(data)
        self.grad = np.zeros_like(self.data)
        self._parents = tuple(parents)
        self._backward = backward_rule

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def is_leaf(self) -> bool:
        return not self._parents

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, leaf={self.is_leaf})"


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array (no graph node)."""
    return np.exp(_log_softmax(z))


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss node.

    Gradients of interior nodes are recomputed from scratch on every call;
    leaf gradients accumulate until zeroed, so two backward passes over
    shared leaves add up as expected.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar root, got shape {loss.shape}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    for node in order:
        if not node.is_leaf:
            node.grad = np.zeros_like(node.data)
    loss.grad = loss.grad + np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


class ParamSet:
    """Named, insertion-ordered collection of trainable leaf tensors."""

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
