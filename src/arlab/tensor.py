"""Dense float64 tensors with reverse-mode automatic differentiation.

A graph node holds a value, its parents and a closed-form backward rule.
The model's forward pass (``model.logits``) and each alignment penalty
(``regularizers.penalty``) are one node each; this module holds the node
type and the few generic nodes that join them into a loss: :func:`add`,
:func:`scale` and :func:`softmax_cross_entropy`.  Calling :func:`backward`
on a scalar loss walks the graph in reverse topological order and
accumulates gradients into the leaves.  Graph-free numpy helpers that share
its numerics, such as :func:`softmax_array`, live here too.
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


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # reduce a full-shape gradient back down for a scalar operand
    if t.data.ndim == 0:
        t.grad = t.grad + np.sum(g)
    else:
        t.grad = t.grad + g


def add(a, b) -> Tensor:
    """Elementwise sum; scalar operands broadcast against tensors."""
    a, b = _coerce(a), _coerce(b)
    # only exact-shape and scalar-with-tensor combinations are supported
    if a.shape != b.shape and a.data.ndim and b.data.ndim:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def rule(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor(a.data + b.data, (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a plain float constant."""
    a = _coerce(a)
    c = float(c)

    def rule(g):
        a.grad = a.grad + g * c

    return Tensor(a.data * c, (a,), rule)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array (no graph node)."""
    return np.exp(_log_softmax(z))


def validate_one_hot(labels: np.ndarray) -> np.ndarray:
    """Check that every row of ``labels`` is a valid one-hot vector."""
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"one-hot labels must be 2-D, got shape {y.shape}")
    ok = np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) == 1.0)
    if not ok:
        raise ValueError("labels are not one-hot rows")
    return y


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and one-hot labels.

    Stabilized by max-subtraction; returns a scalar node whose gradient with
    respect to the logits is (softmax - y) / batch.
    """
    logits = _coerce(logits)
    if logits.data.ndim != 2 or logits.shape[1] < 2:
        raise ShapeError(f"logits must be (b, k) with k >= 2, got {logits.shape}")
    y = validate_one_hot(labels)
    if y.shape != logits.shape:
        raise ShapeError(f"labels shape {y.shape} != logits shape {logits.shape}")
    b = logits.shape[0]
    logp = _log_softmax(logits.data)
    loss = -(y * logp).sum() / b

    def rule(g):
        logits.grad = logits.grad + g * (np.exp(logp) - y) / b

    return Tensor(loss, (logits,), rule)


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
