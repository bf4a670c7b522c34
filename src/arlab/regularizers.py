"""Alignment penalties over paired batches of logits.

Each penalty takes the logits of original samples (first argument) and of
their augmented counterparts (second argument), as plain arrays, and
returns its value with its gradients in closed form; smaller always means
better aligned.
The adversarial kind, ``disc``, carries a small auxiliary network of its
own: a one-layer discriminator, which the penalty holds fixed and
:func:`aux_update` trains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .errors import DegenerateInputError, ShapeError
from .tensor import _as_array, _log_softmax
from .wasserstein import w1_matching

ALIGN_KINDS = ("l1", "sql2", "cos", "kl", "w1-exact", "disc")

AUX_LR = 5e-4


@dataclass
class AuxParams:
    """The ``disc`` penalty's affine discriminator, as plain arrays.

    It is trained by :func:`aux_update` alone, so it is no model parameter.
    """

    w: np.ndarray
    bias: np.ndarray


def init_aux(num_logits: int, seed: int) -> AuxParams:
    """Seeded discriminator over logit rows of width ``num_logits``."""
    rng = np.random.default_rng(seed)
    return AuxParams(rng.normal(0.0, 0.1, size=(num_logits, 1)), np.zeros(1))


def _check_pair(u: np.ndarray, v: np.ndarray) -> int:
    if u.ndim != 2 or u.shape != v.shape:
        raise ShapeError(f"penalty needs matching (b, k) pairs, got {u.shape} and {v.shape}")
    if u.shape[0] < 1:
        raise ValueError("penalty needs at least one row")
    return u.shape[0]


def _l1_penalty(u, v, b: int, sigma: np.ndarray, g: float):
    # mean l1 distance from each row of u to row sigma[i] of v
    c = 1.0 / b
    d = u - v[sigma]
    value = float(_as_array(np.abs(d).sum() * c))
    gd = g * c * np.sign(d)
    back = np.zeros_like(v)
    back[sigma] = gd
    return value, gd, -back


def _sql2_penalty(u, v, b: int, g: float):
    c = 1.0 / b
    d = u - v
    gd = 2.0 * (g * c * d)
    return float(_as_array((d * d).sum() * c)), gd, -gd


def _cosine_penalty(u, v, b: int, g: float):
    un = np.linalg.norm(u, axis=1)
    vn = np.linalg.norm(v, axis=1)
    if np.any(un < 1e-12) or np.any(vn < 1e-12):
        raise DegenerateInputError("cosine alignment undefined for zero-norm logits")
    c = (u * v).sum(axis=1) / (un * vn)
    value = float(_as_array(np.mean(1.0 - c)))
    gu = g / b * (v / (un * vn)[:, None] - (c / un ** 2)[:, None] * u)
    gv = g / b * (u / (un * vn)[:, None] - (c / vn ** 2)[:, None] * v)
    return value, -gu, -gv


def _kl_penalty(u, v, b: int, g: float):
    logp, logq = _log_softmax(u), _log_softmax(v)
    p, q = np.exp(logp), np.exp(logq)
    kl_rows = (p * (logp - logq)).sum(axis=1)
    value = float(_as_array(kl_rows.mean()))
    return value, g / b * p * ((logp - logq) - kl_rows[:, None]), g / b * (q - p)


def _disc_penalty(u, v, b: int, aux: AuxParams, g: float):
    # push augmented outputs to read as real and originals as fake, which
    # meets in the middle once the two distributions agree
    w = aux.w
    d_u = _as_array(u @ w + aux.bias)
    d_v = _as_array(v @ w + aux.bias)
    value = float(_as_array(np.logaddexp(0.0, -d_v).mean()
                            + np.logaddexp(0.0, d_u).mean()))
    gm = g * (1.0 / b)
    return value, (gm / (1.0 + np.exp(-d_u))) @ w.T, -((gm / (1.0 + np.exp(d_v))) @ w.T)


def penalty(kind: str, u: np.ndarray, v: np.ndarray, aux: Optional[AuxParams],
            g: float) -> tuple:
    """Alignment penalty between original logits u and augmented v.

    Returns the penalty's value and the gradients of ``g`` times the
    penalty with respect to ``u`` and to ``v``.  ``aux`` is the ``disc``
    kind's discriminator, None for the other kinds.
    """
    if kind not in ALIGN_KINDS:
        raise ValueError(f"unknown alignment kind {kind!r}; choose from {ALIGN_KINDS}")
    b = _check_pair(u, v)
    if kind == "l1":
        return _l1_penalty(u, v, b, np.arange(b), g)
    if kind == "sql2":
        return _sql2_penalty(u, v, b, g)
    if kind == "cos":
        return _cosine_penalty(u, v, b, g)
    if kind == "kl":
        return _kl_penalty(u, v, b, g)
    if kind == "w1-exact":
        # the optimal pairing is held fixed; gradients flow through the
        # matched rows only.  Many pairings are optimal under an L1 cost; the
        # step follows scipy's linear_sum_assignment, so W cells' weights
        # depend on its tie rule
        sigma, _ = w1_matching(u, v)
        return _l1_penalty(u, v, b, sigma, g)
    if aux is None:
        raise ValueError(f"kind {kind!r} requires its discriminator")
    if aux.w.shape[0] != u.shape[1]:
        raise ShapeError(f"auxiliary width {aux.w.shape[0]} != logit width {u.shape[1]}")
    return _disc_penalty(u, v, b, aux, g)


def discriminator_scores(z: np.ndarray, aux: AuxParams) -> np.ndarray:
    """Raw discriminator outputs for a batch of logit rows."""
    return z @ aux.w[:, 0] + aux.bias[0]


def aux_update(u: np.ndarray, v: np.ndarray, aux: AuxParams) -> AuxParams:
    """One adversarial step of size ``AUX_LR`` on the discriminator.

    The discriminator descends binary cross-entropy with originals labeled
    real and augmented samples labeled fake.  Model logits enter as plain
    arrays.
    """
    d_u = discriminator_scores(u, aux)
    d_v = discriminator_scores(v, aux)
    su = expit(-d_u)[:, None]
    sv = expit(d_v)[:, None]
    grad_w = (-(su * u).mean(axis=0) + (sv * v).mean(axis=0))[:, None]
    grad_b = float(-su.mean() + sv.mean())
    aux.w = aux.w - AUX_LR * grad_w
    aux.bias = aux.bias - AUX_LR * grad_b
    return aux
