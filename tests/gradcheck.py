"""Finite-difference gradient oracle used across the test suite.

Independent of any backward pass: gradients are estimated by central
differences on the loss value alone, then compared against what the
oracle tape (``oracles.backward``) reports for the same graph.
"""

import numpy as np

from oracles import Tensor, backward


def numeric_grads(build, arrays, h=1e-4):
    """Central-difference gradients of a scalar-valued graph builder.

    ``build`` maps one fresh Tensor per input array to a scalar loss node.
    Returns one gradient array per input.
    """

    def value(mats):
        loss = build(*[Tensor(m) for m in mats])
        return float(loss.data.reshape(()))

    grads = []
    for which, base in enumerate(arrays):
        g = np.zeros_like(np.asarray(base, dtype=np.float64))
        flat = g.reshape(-1)
        for i in range(flat.size):
            bumped = [np.array(a, dtype=np.float64) for a in arrays]
            bumped[which].reshape(-1)[i] += h
            up = value(bumped)
            bumped[which].reshape(-1)[i] -= 2 * h
            down = value(bumped)
            flat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def analytic_grads(build, arrays):
    """Gradients reported by the tape's backward pass."""
    tensors = [Tensor(np.asarray(a, dtype=np.float64)) for a in arrays]
    loss = build(*tensors)
    backward(loss)
    return [t.grad for t in tensors]


def max_rel_error(build, arrays, h=1e-4):
    """Worst relative disagreement between analytic and numeric gradients."""
    num = numeric_grads(build, arrays, h=h)
    ana = analytic_grads(build, arrays)
    worst = 0.0
    for n, a in zip(num, ana):
        denom = np.maximum(np.abs(n), np.abs(a))
        denom = np.where(denom < 1e-8, 1.0, denom)
        worst = max(worst, float(np.max(np.abs(n - a) / denom)))
    return worst
