"""Feed-forward classifier producing logits, with binary weight persistence.

:func:`logits` is the training forward pass: it returns the logits in a
:class:`Forward` record that also keeps what ``tensor.backward`` needs to
run back through the layers.  :func:`logits_array` is the same pass
keeping nothing, for evaluation.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FormatError, ShapeError
from . import tensor as T
from .transforms import TransformFamily, apply_batch

WEIGHTS_MAGIC = b"ARLABW01"


class Classifier:
    """Flatten, hidden ReLU layers, then a linear logit layer.

    ``layers`` holds each layer's (w, b) parameters, input side first: w is
    (fan_in, fan_out) and b is (fan_out,).  The widths are read from those
    shapes; at least one hidden layer is required.  Alignment penalties
    attach to the logits, the representation just before any softmax.
    """

    def __init__(self, layers: list):
        self.layers = layers

    @property
    def widths(self) -> tuple:
        return (self.input_width, *(w.shape[1] for w, _ in self.layers))

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_width(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.layers[-1][0].shape[1]


def init(widths: Sequence[int], seed: int) -> Classifier:
    """Build a classifier with seeded uniform(+-sqrt(6/fan_in)) weights."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 3:
        raise ValueError(f"need input, >=1 hidden, output widths; got {widths}")
    if any(w < 1 for w in widths):
        raise ValueError(f"widths must be positive, got {widths}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / fan_in)
        layers.append((T.Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out))),
                       T.Tensor(np.zeros(fan_out))))
    return Classifier(layers)


def _flatten(model: Classifier, images: np.ndarray) -> np.ndarray:
    x = np.asarray(images, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected (b, h, w) images, got shape {x.shape}")
    flat = x.reshape(x.shape[0], -1)
    if flat.shape[1] != model.input_width:
        raise ShapeError(
            f"flattened width {flat.shape[1]} does not match model input "
            f"{model.input_width}")
    return flat


class Forward(NamedTuple):
    """One training forward pass: the logits and what its backward pass reads.

    ``layers`` is the model's own list of (w, b) parameters, ``inputs``
    each layer's input rows and ``masks`` each hidden layer's ReLU mask.
    """

    logits: np.ndarray
    layers: list
    inputs: list
    masks: list


def logits(model: Classifier, images: np.ndarray) -> Forward:
    """Training forward pass to the logit layer, kept for ``tensor.backward``.

    Every pre-activation and the logits are checked for finite values, so
    a diverging model fails even where ReLU would zero the non-finite
    entries.
    """
    h = _flatten(model, images)
    inputs, masks = [], []
    for i, (w, b) in enumerate(model.layers):
        inputs.append(h)
        h = h @ w.data + b.data
        if i < model.num_layers - 1:
            masks.append(T._as_array(h) > 0)
            h = np.where(masks[-1], h, 0.0)
    return Forward(T._as_array(h), model.layers, inputs, masks)


def logits_array(model: Classifier, images: np.ndarray) -> np.ndarray:
    """Forward pass that keeps nothing for a backward pass, for evaluation."""
    h = _flatten(model, images)
    for i, (w, b) in enumerate(model.layers):
        h = h @ w.data + b.data
        if i < model.num_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def family_logits(model: Classifier, images: np.ndarray,
                  family: TransformFamily) -> np.ndarray:
    """The (t, n, k) logit cube: slice j holds every image under member j.

    Member 0 is the identity, so slice 0 is the plain forward pass.
    """
    return np.stack([logits_array(model, apply_batch(a, images)) for a in family])


def save_weights(model: Classifier, path) -> None:
    """Write weights as magic, layer count, then per-layer dims + payload.

    All integers little-endian u32; matrices row-major little-endian f64,
    each followed by its bias vector.
    """
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<I", model.num_layers))
        for w, b in model.layers:
            rows, cols = w.shape
            f.write(struct.pack("<II", rows, cols))
            f.write(w.data.astype("<f8").tobytes())
            f.write(b.data.astype("<f8").tobytes())


def load_weights(path) -> Classifier:
    """Read a weight file back into a classifier."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != WEIGHTS_MAGIC:
        raise FormatError(f"bad weight-file magic in {path}")
    off = 8

    def take(count):
        nonlocal off
        if off + count > len(blob):
            raise FormatError(f"truncated weight file {path}")
        out = blob[off:off + count]
        off += count
        return out

    (num_layers,) = struct.unpack("<I", take(4))
    if num_layers < 2:
        raise FormatError(f"weight file {path} holds {num_layers} layers, need >= 2")
    layers = []
    for i in range(num_layers):
        rows, cols = struct.unpack("<II", take(8))
        if not rows or not cols:
            raise FormatError(f"layer {i} of weight file {path} is {rows}x{cols}")
        if layers and layers[-1][0].shape[1] != rows:
            raise FormatError(f"layer {i} expects {rows} inputs but layer {i - 1} "
                              f"emits {layers[-1][0].shape[1]}")
        w = np.frombuffer(take(rows * cols * 8), dtype="<f8").reshape(rows, cols)
        b = np.frombuffer(take(cols * 8), dtype="<f8")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise FormatError(f"layer {i} of weight file {path} holds NaN or Inf")
        layers.append((T.Tensor(w.copy()), T.Tensor(b.copy())))
    if off != len(blob):
        raise FormatError(f"trailing bytes in weight file {path}")
    return Classifier(layers)
