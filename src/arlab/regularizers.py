"""Alignment penalties over paired batches of logits.

Each penalty takes the logits of original samples (first argument) and of
their augmented counterparts (second argument) and returns one scalar graph
node with a closed-form backward rule; smaller always means better aligned.
The adversarial kind, ``disc``, carries a small auxiliary network of its
own: a one-layer discriminator, which the penalty holds fixed and
:func:`aux_update` trains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from . import tensor as T
from .errors import DegenerateInputError, ShapeError
from .tensor import _as_array, _log_softmax
from .wasserstein import w1_matching

ALIGN_KINDS = ("l1", "sql2", "cos", "kl", "w1-exact", "disc")
AUX_KINDS = ("disc",)

AUX_LR = 5e-4


@dataclass
class AuxParams:
    """Adversarial auxiliary: an affine discriminator, as plain arrays.

    It is trained by :func:`aux_update` alone, so it is no graph leaf.
    """

    kind: str
    w: np.ndarray
    bias: np.ndarray
    lr: float


def init_aux(kind: str, num_logits: int, seed: int, lr: float = AUX_LR) -> AuxParams:
    """Seeded auxiliary parameters for a kind that needs them."""
    if kind not in AUX_KINDS:
        raise ValueError(f"kind {kind!r} takes no auxiliary parameters")
    rng = np.random.default_rng(seed)
    return AuxParams(kind, rng.normal(0.0, 0.1, size=(num_logits, 1)), np.zeros(1), lr)


def _check_pair(u: T.Tensor, v: T.Tensor) -> int:
    if u.data.ndim != 2 or u.shape != v.shape:
        raise ShapeError(f"penalty needs matching (b, k) pairs, got {u.shape} and {v.shape}")
    if u.shape[0] < 1:
        raise ValueError("penalty needs at least one row")
    return u.shape[0]


def _l1_penalty(u: T.Tensor, v: T.Tensor, b: int, sigma: np.ndarray) -> T.Tensor:
    # mean l1 distance from each row of u to row sigma[i] of v
    c = 1.0 / b
    d = u.data - v.data[sigma]
    sign = np.sign(d)

    def rule(g):
        gd = g * c * sign
        u.grad = u.grad + gd
        back = np.zeros_like(v.data)
        back[sigma] = gd
        v.grad = v.grad - back

    return T.Tensor(np.abs(d).sum() * c, (u, v), rule)


def _sql2_penalty(u: T.Tensor, v: T.Tensor, b: int) -> T.Tensor:
    c = 1.0 / b
    d = u.data - v.data

    def rule(g):
        gd = 2.0 * (g * c * d)
        u.grad = u.grad + gd
        v.grad = v.grad - gd

    return T.Tensor((d * d).sum() * c, (u, v), rule)


def _cosine_penalty(u: T.Tensor, v: T.Tensor, b: int) -> T.Tensor:
    un = np.linalg.norm(u.data, axis=1)
    vn = np.linalg.norm(v.data, axis=1)
    if np.any(un < 1e-12) or np.any(vn < 1e-12):
        raise DegenerateInputError("cosine alignment undefined for zero-norm logits")
    dots = (u.data * v.data).sum(axis=1)
    c = dots / (un * vn)
    val = np.mean(1.0 - c)

    def rule(g):
        u.grad = u.grad - g / b * (v.data / (un * vn)[:, None]
                                   - (c / un ** 2)[:, None] * u.data)
        v.grad = v.grad - g / b * (u.data / (un * vn)[:, None]
                                   - (c / vn ** 2)[:, None] * v.data)

    return T.Tensor(val, (u, v), rule)


def _kl_penalty(u: T.Tensor, v: T.Tensor, b: int) -> T.Tensor:
    logp, logq = _log_softmax(u.data), _log_softmax(v.data)
    p, q = np.exp(logp), np.exp(logq)
    kl_rows = (p * (logp - logq)).sum(axis=1)
    val = kl_rows.mean()

    def rule(g):
        u.grad = u.grad + g / b * p * ((logp - logq) - kl_rows[:, None])
        v.grad = v.grad + g / b * (q - p)

    return T.Tensor(val, (u, v), rule)


def _disc_penalty(u: T.Tensor, v: T.Tensor, b: int, aux: AuxParams) -> T.Tensor:
    # push augmented outputs to read as real and originals as fake, which
    # meets in the middle once the two distributions agree
    w = aux.w
    d_u = _as_array(u.data @ w + aux.bias)
    d_v = _as_array(v.data @ w + aux.bias)
    val = np.logaddexp(0.0, -d_v).mean() + np.logaddexp(0.0, d_u).mean()

    def rule(g):
        gm = g * (1.0 / b)
        u.grad = u.grad + (gm / (1.0 + np.exp(-d_u))) @ w.T
        v.grad = v.grad - (gm / (1.0 + np.exp(d_v))) @ w.T

    return T.Tensor(val, (u, v), rule)


def penalty(kind: str, u: T.Tensor, v: T.Tensor,
            aux: Optional[AuxParams] = None) -> T.Tensor:
    """Scalar alignment penalty between original logits u and augmented v."""
    if kind not in ALIGN_KINDS:
        raise ValueError(f"unknown alignment kind {kind!r}; choose from {ALIGN_KINDS}")
    b = _check_pair(u, v)
    if kind == "l1":
        return _l1_penalty(u, v, b, np.arange(b))
    if kind == "sql2":
        return _sql2_penalty(u, v, b)
    if kind == "cos":
        return _cosine_penalty(u, v, b)
    if kind == "kl":
        return _kl_penalty(u, v, b)
    if kind == "w1-exact":
        # the optimal pairing is held fixed; gradients flow through the
        # matched rows only
        sigma, _ = w1_matching(u.data, v.data)
        return _l1_penalty(u, v, b, sigma)
    if aux is None or aux.kind != kind:
        raise ValueError(f"kind {kind!r} requires matching auxiliary parameters")
    if aux.w.shape[0] != u.shape[1]:
        raise ShapeError(f"auxiliary width {aux.w.shape[0]} != logit width {u.shape[1]}")
    return _disc_penalty(u, v, b, aux)


def discriminator_scores(z: np.ndarray, aux: AuxParams) -> np.ndarray:
    """Raw discriminator outputs for a batch of logit rows."""
    return z @ aux.w[:, 0] + aux.bias[0]


def aux_update(kind: str, u: np.ndarray, v: np.ndarray, aux: AuxParams) -> AuxParams:
    """One adversarial step on the auxiliary parameters.

    The discriminator descends binary cross-entropy with originals labeled
    real and augmented samples labeled fake.  Model logits enter as plain
    arrays; no graph is built.
    """
    if kind not in AUX_KINDS:
        raise ValueError(f"kind {kind!r} has no auxiliary update")
    if aux.kind != kind:
        raise ValueError(f"auxiliary was built for {aux.kind!r}, not {kind!r}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    d_u = discriminator_scores(u, aux)
    d_v = discriminator_scores(v, aux)
    su = expit(-d_u)[:, None]
    sv = expit(d_v)[:, None]
    grad_w = (-(su * u).mean(axis=0) + (sv * v).mean(axis=0))[:, None]
    grad_b = float(-su.mean() + sv.mean())
    aux.w = aux.w - aux.lr * grad_w
    aux.bias = aux.bias - aux.lr * grad_b
    return aux
