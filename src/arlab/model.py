"""Feed-forward classifier producing logits, with binary weight persistence."""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

from .errors import FormatError, ShapeError
from . import tensor as T
from .transforms import TransformFamily, apply_batch

WEIGHTS_MAGIC = b"ARLABW01"


class Classifier:
    """Flatten, hidden ReLU layers, then a linear logit layer.

    ``widths`` runs input, hidden..., output; at least one hidden layer is
    required.  Alignment penalties attach to the logits, the representation
    just before any softmax.
    """

    def __init__(self, widths: Sequence[int], params: T.ParamSet,
                 seed: Optional[int] = None):
        self.widths = tuple(int(w) for w in widths)
        self.params = params
        self.seed = seed

    @property
    def num_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def input_width(self) -> int:
        return self.widths[0]

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    def layer(self, i: int) -> tuple[T.Tensor, T.Tensor]:
        return self.params[f"w{i}"], self.params[f"b{i}"]


def init(widths: Sequence[int], seed: int) -> Classifier:
    """Build a classifier with seeded uniform(+-sqrt(6/fan_in)) weights."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 3:
        raise ValueError(f"need input, >=1 hidden, output widths; got {widths}")
    if any(w < 1 for w in widths):
        raise ValueError(f"widths must be positive, got {widths}")
    rng = np.random.default_rng(seed)
    params = T.ParamSet()
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        bound = np.sqrt(6.0 / fan_in)
        params.add(f"w{i}", T.Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out))))
        params.add(f"b{i}", T.Tensor(np.zeros(fan_out)))
    return Classifier(widths, params, seed)


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


def logits(model: Classifier, images: np.ndarray) -> T.Tensor:
    """Differentiable forward pass to the logit layer."""
    h = T.Tensor(_flatten(model, images))
    for i in range(model.num_layers):
        w, b = model.layer(i)
        h = T.add_bias(T.matmul(h, w), b)
        if i < model.num_layers - 1:
            h = T.relu(h)
    return h


def logits_array(model: Classifier, images: np.ndarray) -> np.ndarray:
    """Forward pass without building a graph, for gradient-free evaluation."""
    h = _flatten(model, images)
    for i in range(model.num_layers):
        w, b = model.layer(i)
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
        for i in range(model.num_layers):
            w, b = model.layer(i)
            rows, cols = w.data.shape
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
    params = T.ParamSet()
    widths = []
    for i in range(num_layers):
        rows, cols = struct.unpack("<II", take(8))
        if widths and widths[-1] != rows:
            raise FormatError(
                f"layer {i} expects {rows} inputs but layer {i - 1} emits {widths[-1]}")
        if not widths:
            widths.append(rows)
        widths.append(cols)
        w = np.frombuffer(take(rows * cols * 8), dtype="<f8").reshape(rows, cols)
        b = np.frombuffer(take(cols * 8), dtype="<f8")
        params.add(f"w{i}", T.Tensor(w.copy()))
        params.add(f"b{i}", T.Tensor(b.copy()))
    if off != len(blob):
        raise FormatError(f"trailing bytes in weight file {path}")
    return Classifier(widths, params, None)
