"""Image classification datasets: IDX files and a built-in synthetic set.

The synthetic set ("minidigits") renders seven-segment digit glyphs with
jittered strokes so that experiments run end to end without any download.

Its draw order is a contract: a split is a pure function of (n, seed,
image_size) only while every image, in row order, draws these numbers from
one ``default_rng(seed)`` generator:

1. ``uniform(-0.8, 0.8, size=2)``, the x and then the y shift;
2. ``uniform(-0.4, 0.4, size=(strokes, 4))``, one (x0, y0, x1, y1) jitter
   row per stroke of the digit, in ``_DIGIT_SEGMENTS`` order;
3. ``uniform(0.75, 1.0)``, the stroke amplitude;
4. ``normal(0.0, 0.02, size=(image_size, image_size))``, the pixel noise.

An array draw takes its numbers from the stream in row-major order, so
these are the same numbers as two scalar shift draws and one
``uniform(-0.4, 0.4, size=4)`` call per stroke.

Nothing drawn depends on a pixel, so ``gen_minidigits`` makes every draw
first and then renders the strokes in row blocks.  Each pixel is computed
with the same float operations, in the same association, as rendering the
glyph alone right after its own draws, so the images are the same bits.
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
        if not h or not w:
            raise FormatError(f"images of {h}x{w} pixels in {images_path}")
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


# for each digit, the indices into _SEGMENTS of its strokes in drawing order,
# and whether it has each segment
_DIGIT_STROKES = [[list(_SEGMENTS).index(name) for name in segments]
                  for segments in _DIGIT_SEGMENTS]
_HAS_STROKE = np.array([[name in segments for name in _SEGMENTS]
                        for segments in _DIGIT_SEGMENTS])

_BLOCK_ROWS = 64


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def gen_minidigits(n: int, seed: int, image_size: int = 16) -> LabeledImages:
    """Generate n seven-segment digit images with round-robin labels.

    Deterministic for a given (n, seed, image_size); classes stay balanced
    because label i is simply i mod 10.  See the module docstring for the
    order of the random draws.
    """
    _check_count("n", n)
    _check_count("image_size", image_size)
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % 10
    s = image_size / 16.0
    shifts = np.empty((n, 2))
    jitter = np.zeros((n, len(_SEGMENTS), 4))
    amplitude = np.empty(n)
    images = np.empty((n, image_size, image_size))
    # draw pass: every image's random numbers, its noise straight into images
    for i, digit in enumerate(labels.tolist()):
        shifts[i] = rng.uniform(-0.8, 0.8, size=2)
        strokes = _DIGIT_STROKES[digit]
        jitter[i, strokes] = rng.uniform(-0.4, 0.4, size=(len(strokes), 4))
        amplitude[i] = rng.uniform(0.75, 1.0)
        images[i] = rng.normal(0.0, 0.02, size=(image_size, image_size))
    # segment ends (x0, y0, x1, y1) as canvas position + (jitter + shift),
    # summed in place in that association
    ends = jitter
    ends *= s
    ends += shifts[:, None, [0, 1, 0, 1]] * s
    ends += np.array(list(_SEGMENTS.values())) * s
    # render pass: each segment for every row of a block that has it
    ys, xs = np.meshgrid(np.arange(image_size), np.arange(image_size), indexing="ij")
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        glyphs = np.zeros_like(images[rows])
        for g in range(len(_SEGMENTS)):
            hit = np.flatnonzero(_HAS_STROKE[labels[rows], g])
            if not hit.size:
                continue
            x0, y0, x1, y1 = ends[start + hit, g].T[:, :, None, None]
            dx, dy = x1 - x0, y1 - y0
            length_sq = dx * dx + dy * dy
            # a point segment (length_sq < 1e-12) keeps t = 0, and x0 + 0 * dx
            # is x0, so its stroke is the distance to (x0, y0)
            t = np.divide((xs - x0) * dx + (ys - y0) * dy, length_sq,
                          out=np.zeros((hit.size, image_size, image_size)),
                          where=length_sq >= 1e-12)
            np.clip(t, 0.0, 1.0, out=t)
            dist = np.hypot(xs - (x0 + t * dx), ys - (y0 + t * dy))
            glyphs[hit] = np.maximum(glyphs[hit], np.clip(1.4 * s - dist, 0.0, 1.0))
        glyphs *= amplitude[rows, None, None]
        images[rows] += glyphs
        np.clip(images[rows], 0.0, 1.0, out=images[rows])
    return LabeledImages(images, labels, 10)


def batches(n: int, batch_size: int, seed: int) -> Iterator[np.ndarray]:
    """Yield the row indices of each minibatch over a seeded shuffle of n rows.

    The final short batch is kept so every row appears exactly once.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    perm = np.random.default_rng(seed).permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]
