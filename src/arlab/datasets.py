"""Image classification datasets: IDX files and a built-in synthetic set.

The synthetic set ("minidigits") renders seven-segment digit glyphs with
jittered strokes so that experiments run end to end without any download.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import FormatError, ShapeError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledImages:
    """A stack of grayscale images in [0, 1] with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 3:
            raise ShapeError(f"images must be (n, h, w), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ShapeError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.images.shape[0]} images")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("image values must lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices) -> "LabeledImages":
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledImages(self.images[idx], self.labels[idx], self.num_classes)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels as a (n, k) float matrix."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError(f"labels out of range for {num_classes} classes")
    out = np.zeros((y.shape[0], num_classes), dtype=np.float64)
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def _read_exact(f, count: int) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise FormatError(f"truncated IDX file: wanted {count} bytes, got {len(data)}")
    return data


def load_idx(images_path, labels_path) -> LabeledImages:
    """Load an image/label pair of IDX files (the MNIST container format).

    Pixels are unsigned bytes scaled to [0, 1]; all multi-byte integers in
    the headers are big-endian.
    """
    with open(images_path, "rb") as f:
        magic, n, h, w = struct.unpack(">IIII", _read_exact(f, 16))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x} in {images_path}")
        pixels = np.frombuffer(_read_exact(f, n * h * w), dtype=np.uint8)
        if f.read(1):
            raise FormatError(f"trailing bytes in {images_path}")
    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(">II", _read_exact(f, 8))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x} in {labels_path}")
        labels = np.frombuffer(_read_exact(f, n_labels), dtype=np.uint8)
        if f.read(1):
            raise FormatError(f"trailing bytes in {labels_path}")
    if n != n_labels:
        raise FormatError(f"{n} images but {n_labels} labels")
    images = pixels.reshape(n, h, w).astype(np.float64) / 255.0
    num_classes = int(labels.max()) + 1 if n else 10
    return LabeledImages(images, labels.astype(np.int64), num_classes)


def save_idx(data: LabeledImages, images_path, labels_path) -> None:
    """Write images and labels as an IDX pair, quantizing pixels to bytes."""
    n, h, w = data.images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(np.round(data.images * 255.0).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(data.labels.astype(np.uint8).tobytes())


# seven-segment layout on a 16-unit canvas: (x0, y0, x1, y1) per segment
_SEGMENTS = {
    "A": (4.0, 3.0, 11.0, 3.0),
    "B": (11.0, 3.0, 11.0, 8.0),
    "C": (11.0, 8.0, 11.0, 13.0),
    "D": (4.0, 13.0, 11.0, 13.0),
    "E": (4.0, 8.0, 4.0, 13.0),
    "F": (4.0, 3.0, 4.0, 8.0),
    "G": (4.0, 8.0, 11.0, 8.0),
}

_DIGIT_SEGMENTS = [
    "ABCDEF",   # 0
    "BC",       # 1
    "ABGED",    # 2
    "ABGCD",    # 3
    "FGBC",     # 4
    "AFGCD",    # 5
    "AFGECD",   # 6
    "ABC",      # 7
    "ABCDEFG",  # 8
    "ABCDFG",   # 9
]


def _render_glyph(digit: int, size: int, rng: np.random.Generator) -> np.ndarray:
    s = size / 16.0
    ys, xs = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    shift_x = rng.uniform(-0.8, 0.8) * s
    shift_y = rng.uniform(-0.8, 0.8) * s
    img = np.zeros((size, size))
    for name in _DIGIT_SEGMENTS[digit]:
        x0, y0, x1, y1 = (v * s for v in _SEGMENTS[name])
        jitter = rng.uniform(-0.4, 0.4, size=4) * s
        x0 += jitter[0] + shift_x
        y0 += jitter[1] + shift_y
        x1 += jitter[2] + shift_x
        y1 += jitter[3] + shift_y
        dx, dy = x1 - x0, y1 - y0
        length_sq = dx * dx + dy * dy
        if length_sq < 1e-12:
            dist = np.hypot(xs - x0, ys - y0)
        else:
            t = np.clip(((xs - x0) * dx + (ys - y0) * dy) / length_sq, 0.0, 1.0)
            dist = np.hypot(xs - (x0 + t * dx), ys - (y0 + t * dy))
        stroke = np.clip(1.4 * s - dist, 0.0, 1.0)
        img = np.maximum(img, stroke)
    img *= rng.uniform(0.75, 1.0)
    img += rng.normal(0.0, 0.02, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def gen_minidigits(n: int, seed: int, image_size: int = 16) -> LabeledImages:
    """Generate n seven-segment digit images with round-robin labels.

    Deterministic for a given (n, seed, image_size); classes stay balanced
    because label i is simply i mod 10.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % 10
    images = np.stack([_render_glyph(int(d), image_size, rng) for d in labels])
    return LabeledImages(images, labels, 10)


def batches(data: LabeledImages, batch_size: int,
            seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (images, labels) minibatches over a seeded shuffle of the data.

    The final short batch is kept so every sample appears exactly once.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    perm = np.random.default_rng(seed).permutation(len(data))
    for start in range(0, len(data), batch_size):
        idx = perm[start:start + batch_size]
        yield data.images[idx], data.labels[idx]
