"""Slow or composed reference forms that the library's fast paths must match.

- :func:`add`, :func:`scale` and :func:`softmax_cross_entropy` are generic
  graph nodes.  :func:`composed_step_loss` joins them into a training
  step's loss: two cross-entropy nodes, their mean through ``add`` and
  ``scale``, and the penalty through ``scale`` and ``add``.  The library
  builds the same loss as one node (``training._assemble``), and a test
  compares the two with ``==``.
- :func:`numpy_cross_entropy` is a graph-free mean cross-entropy.
- :func:`brute_force_w1` is the exact empirical W1 distance, found by
  enumerating every pairing.
"""

import itertools

import numpy as np

from arlab.datasets import one_hot
from arlab.errors import ShapeError
from arlab.model import logits
from arlab.regularizers import penalty
from arlab.tensor import Tensor, _log_softmax


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


def scale(a, c: float) -> Tensor:
    """Multiply by a plain float constant."""
    a = _coerce(a)
    c = float(c)

    def rule(g):
        a.grad = a.grad + g * c

    return Tensor(a.data * c, (a,), rule)


def validate_one_hot(labels: np.ndarray) -> np.ndarray:
    """Check that every row of ``labels`` is a valid one-hot vector."""
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"one-hot labels must be 2-D, got shape {y.shape}")
    ok = np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) == 1.0)
    if not ok:
        raise ValueError("labels are not one-hot rows")
    return y


def softmax_cross_entropy(logits_node, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and one-hot labels.

    Stabilized by max-subtraction; returns a scalar node whose gradient with
    respect to the logits is (softmax - y) / batch.
    """
    z = _coerce(logits_node)
    if z.data.ndim != 2 or z.shape[1] < 2:
        raise ShapeError(f"logits must be (b, k) with k >= 2, got {z.shape}")
    y = validate_one_hot(labels)
    if y.shape != z.shape:
        raise ShapeError(f"labels shape {y.shape} != logits shape {z.shape}")
    b = z.shape[0]
    logp = _log_softmax(z.data)
    loss = -(y * logp).sum() / b

    def rule(g):
        z.grad = z.grad + g * (np.exp(logp) - y) / b

    return Tensor(loss, (z,), rule)


def composed_step_loss(plan, model, images, labels, augmented, aux=None):
    """A step's loss built from generic nodes; returns (loss, penalty or None).

    Takes the same arguments as ``training._assemble``: ``augmented`` is the
    batch's paired copy, or None for a baseline step.
    """
    y = one_hot(labels, model.num_classes)
    u = logits(model, images)
    if augmented is None:
        return softmax_cross_entropy(u, y), None
    v = logits(model, augmented)
    ce = scale(add(softmax_cross_entropy(u, y), softmax_cross_entropy(v, y)), 0.5)
    if not plan.uses_penalty:
        return ce, None
    pen = penalty(plan.align_kind, u, v, aux)
    return add(ce, scale(pen, plan.lam)), pen.item()


def numpy_cross_entropy(z, y):
    """Mean cross-entropy of logit rows ``z`` against one-hot rows ``y``."""
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -(y * logp).sum() / len(y)


def brute_force_w1(u, v):
    """Enumerate every permutation and take the cheapest pairing's l1 total."""
    b = len(u)
    best = np.inf
    for perm in itertools.permutations(range(b)):
        total = sum(np.abs(u[i] - v[perm[i]]).sum() for i in range(b))
        best = min(best, total)
    return best
