"""Label-preserving image transformation families.

Three families are built in: low-pass texture filtering in the frequency
domain, clockwise rotation, and pixel-intensity contrast maps.  Each family
is an ordered list whose first member, the identity, and designated "vertex"
member are the two extremes that training pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class Identity:
    def name(self) -> str:
        return "identity"


@dataclass(frozen=True)
class FreqCutoff:
    """Keep only spectrum entries within ``radius`` of the DC centroid."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def name(self) -> str:
        return f"freq:{_fmt(self.radius)}"


@dataclass(frozen=True)
class Rotate:
    """Rotate clockwise about the image center; bilinear, zero fill."""

    degrees: float

    def __post_init__(self):
        if not 0.0 <= self.degrees < 360.0:
            raise ValueError(f"degrees must lie in [0, 360), got {self.degrees}")

    def name(self) -> str:
        return f"rot:{_fmt(self.degrees)}"


@dataclass(frozen=True)
class PixelMap:
    """x -> scale * x, or scale * (1 - x) when negated."""

    scale: float
    negate: bool

    def __post_init__(self):
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must lie in (0, 1], got {self.scale}")

    def name(self) -> str:
        return f"pix:{_fmt(self.scale)}:{int(self.negate)}"


Transform = Identity | FreqCutoff | Rotate | PixelMap


def _fmt(x: float) -> str:
    return f"{x:g}"


@dataclass(frozen=True)
class TransformFamily:
    """Ordered transforms; member 0, the identity, and ``vertex`` are the extremes."""

    family_name: str
    members: tuple
    vertex: int

    def __post_init__(self):
        if not self.members:
            raise ValueError("family needs at least one member")
        if not isinstance(self.members[0], Identity):
            raise ValueError("first family member must be the identity")
        # the vertex differs from the identity, except in the degenerate
        # identity-only family used in evaluation fixtures
        n = len(self.members)
        if not (0 < self.vertex < n or (n == 1 and self.vertex == 0)):
            raise ValueError(f"bad vertex index {self.vertex} for {n} members")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def training_vertex(self) -> Transform:
        return self.members[self.vertex]


@lru_cache(maxsize=16)
def _dft_matrix(n: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n)


@lru_cache(maxsize=64)
def _lowpass_mask(h: int, w: int, radius: float) -> np.ndarray:
    # distance measured on the centered spectrum, where fftshift puts DC;
    # ifftshift moves the disc to where the DFT leaves DC, at (0, 0)
    cy, cx = h // 2, w // 2
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return np.fft.ifftshift((np.hypot(ys - cy, xs - cx) <= radius).astype(np.float64))


@lru_cache(maxsize=64)
def _rotation_gather(h: int, w: int, degrees: float):
    """Bilinear source indices and weights for a clockwise rotation."""
    theta = np.deg2rad(degrees)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dx, dy = xs - cx, ys - cy
    src_x = dx * np.cos(theta) + dy * np.sin(theta) + cx
    src_y = -dx * np.sin(theta) + dy * np.cos(theta) + cy
    x0 = np.floor(src_x).astype(np.intp)
    y0 = np.floor(src_y).astype(np.intp)
    fx, fy = src_x - x0, src_y - y0
    corners = []
    for oy, ox, wgt in (
            (0, 0, (1 - fy) * (1 - fx)),
            (0, 1, (1 - fy) * fx),
            (1, 0, fy * (1 - fx)),
            (1, 1, fy * fx)):
        yy, xx = y0 + oy, x0 + ox
        inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        corners.append((np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1), wgt * inside))
    return corners


# rows per block of a rotation or low-pass filter: each block's
# temporaries stay in cache instead of faulting in fresh multi-MB pages
_BLOCK_ROWS = 64


def apply_batch(t: Transform, images: np.ndarray) -> np.ndarray:
    """Apply one transform to a stack of images; order preserved.

    Every transform acts on each image alone, so rotations and low-pass
    filters run over blocks of rows into one output without changing it.
    """
    x = np.asarray(images, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"apply_batch needs (n, h, w) images, got {x.shape}")
    if isinstance(t, Identity):
        return x.copy()
    if isinstance(t, PixelMap):
        if not t.negate:
            return t.scale * x
        # scaled in place: a second whole-batch array would fault in fresh pages
        out = 1.0 - x
        out *= t.scale
        return out
    if not isinstance(t, (Rotate, FreqCutoff)):
        raise TypeError(f"unknown transform {t!r}")
    out = np.empty_like(x)
    for start in range(0, x.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        _transform_block(t, x[rows], out[rows])
    return out


def _transform_block(t: Rotate | FreqCutoff, x: np.ndarray, out: np.ndarray) -> None:
    """Write a rotation or low-pass filter of the (b, h, w) block x into out."""
    _, h, w = x.shape
    if isinstance(t, Rotate):
        out[...] = 0.0
        for yy, xx, wgt in _rotation_gather(h, w, float(t.degrees)):
            out += x[:, yy, xx] * wgt
        np.clip(out, 0.0, 1.0, out=out)
        return
    spectrum = _dft_matrix(h) @ x @ _dft_matrix(w)
    spectrum *= _lowpass_mask(h, w, float(t.radius))
    back = _dft_matrix(h).conj() @ spectrum @ _dft_matrix(w).conj() / (h * w)
    np.clip(back.real, 0.0, 1.0, out=out)


def _scaled_radii(image_size: int) -> list[float]:
    # the reference radii target 28-pixel images; scale proportionally
    return [float(round(r * image_size / 28)) for r in (12, 10, 8, 6)]


def family_texture(image_size: int = 28) -> TransformFamily:
    """Identity plus four distinct concentric low-pass filters; extreme = tightest."""
    radii = _scaled_radii(image_size)
    if min(radii) < 1 or len(set(radii)) < len(radii):
        raise ConfigError(
            f"family: texture on {image_size}-pixel images rounds the filter radii to "
            f"{', '.join(map(_fmt, radii))}, not four distinct radii of at least 1")
    members = (Identity(),) + tuple(FreqCutoff(r) for r in radii)
    return TransformFamily("texture", members, 4)


def family_rotation() -> TransformFamily:
    """Identity plus clockwise rotations up to 60 degrees."""
    members = (Identity(),) + tuple(Rotate(float(d)) for d in (15, 30, 45, 60))
    return TransformFamily("rotation", members, 4)


def family_contrast() -> TransformFamily:
    """Intensity rescalings and their negated counterparts."""
    members = (
        Identity(),
        PixelMap(0.5, False),
        PixelMap(0.25, False),
        PixelMap(1.0, True),
        PixelMap(0.5, True),
        PixelMap(0.25, True),
    )
    return TransformFamily("contrast", members, 3)


FAMILY_NAMES = ("texture", "rotation", "contrast")


def family_by_name(name: str, image_size: int = 28) -> TransformFamily:
    """Look up a built-in family; texture radii scale with image size."""
    if name == "texture":
        return family_texture(image_size)
    if name == "rotation":
        return family_rotation()
    if name == "contrast":
        return family_contrast()
    raise ValueError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")
