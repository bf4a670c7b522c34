"""Alignment penalties over paired batches of logits.

Each penalty takes the logits of original samples (first argument) and of
their augmented counterparts (second argument) and returns a scalar graph
node; smaller always means better aligned.  The adversarial kind, ``disc``,
carries a small auxiliary network of its own: a one-layer discriminator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from . import tensor as T
from .errors import DegenerateInputError, ShapeError
from .tensor import _log_softmax
from .wasserstein import w1_matching

ALIGN_KINDS = ("l1", "sql2", "cos", "kl", "w1-exact", "disc")
AUX_KINDS = ("disc",)

AUX_LR = 5e-4


@dataclass
class AuxParams:
    """Adversarial auxiliary: an affine discriminator."""

    kind: str
    w: T.Tensor
    bias: T.Tensor
    lr: float

    def zero_grad(self) -> None:
        self.w.zero_grad()
        self.bias.zero_grad()


def init_aux(kind: str, num_logits: int, seed: int, lr: float = AUX_LR) -> AuxParams:
    """Seeded auxiliary parameters for a kind that needs them."""
    if kind not in AUX_KINDS:
        raise ValueError(f"kind {kind!r} takes no auxiliary parameters")
    rng = np.random.default_rng(seed)
    w = T.Tensor(rng.normal(0.0, 0.1, size=(num_logits, 1)))
    return AuxParams(kind, w, T.Tensor(np.zeros(1)), lr)


def _check_pair(u: T.Tensor, v: T.Tensor) -> int:
    if u.data.ndim != 2 or u.shape != v.shape:
        raise ShapeError(f"penalty needs matching (b, k) pairs, got {u.shape} and {v.shape}")
    if u.shape[0] < 1:
        raise ValueError("penalty needs at least one row")
    return u.shape[0]


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


def penalty(kind: str, u: T.Tensor, v: T.Tensor,
            aux: Optional[AuxParams] = None) -> T.Tensor:
    """Scalar alignment penalty between original logits u and augmented v."""
    if kind not in ALIGN_KINDS:
        raise ValueError(f"unknown alignment kind {kind!r}; choose from {ALIGN_KINDS}")
    b = _check_pair(u, v)
    if kind == "l1":
        return T.scale(T.reduce_sum(T.absolute(T.sub(u, v))), 1.0 / b)
    if kind == "sql2":
        diff = T.sub(u, v)
        return T.scale(T.reduce_sum(T.mul(diff, diff)), 1.0 / b)
    if kind == "cos":
        return _cosine_penalty(u, v, b)
    if kind == "kl":
        return _kl_penalty(u, v, b)
    if kind == "w1-exact":
        # the optimal pairing is held fixed; gradients flow through the
        # matched rows only
        sigma, _ = w1_matching(u.data, v.data)
        matched = T.take_rows(v, sigma)
        return T.scale(T.reduce_sum(T.absolute(T.sub(u, matched))), 1.0 / b)
    if aux is None or aux.kind != kind:
        raise ValueError(f"kind {kind!r} requires matching auxiliary parameters")
    if aux.w.shape[0] != u.shape[1]:
        raise ShapeError(f"auxiliary width {aux.w.shape[0]} != logit width {u.shape[1]}")
    # disc: push augmented outputs to read as real and originals as fake,
    # which meets in the middle once the two distributions agree
    d_u = T.add_bias(T.matmul(u, aux.w), aux.bias)
    d_v = T.add_bias(T.matmul(v, aux.w), aux.bias)
    return T.add(T.reduce_mean(T.softplus(T.scale(d_v, -1.0))),
                 T.reduce_mean(T.softplus(d_u)))


def discriminator_scores(z: np.ndarray, aux: AuxParams) -> np.ndarray:
    """Raw discriminator outputs for a batch of logit rows."""
    return z @ aux.w.data[:, 0] + aux.bias.data[0]


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
    aux.w.data = aux.w.data - aux.lr * grad_w
    aux.bias.data = aux.bias.data - aux.lr * grad_b
    return aux
